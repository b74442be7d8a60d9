//! Tests of the benchmark's own pieces: the decorators are transparent, the
//! fingerprint gate notices a changed input, and `BENCHMARK.json` lists
//! exactly what the harness reports.

use crate::trace::{LayerClock, TimedSink};
use crate::workloads::{fingerprint, load_spec, run_generation, Workload};
use crate::{audit, parse_rep, unit_of, RepOutput, END_TO_END, PER_LAYER};
use std::num::NonZeroUsize;
use std::sync::Arc;
use uswg_core::experiment::ModelConfig;
use uswg_core::{SpillSink, SummarySink};

const SEED: u64 = 7;

/// The sessions spec cut down to a few users and sessions.
fn small_spec(shards: usize) -> String {
    let mut spec = load_spec(Workload::Sessions.spec_json(), SEED).expect("pinned spec parses");
    spec.run.n_users = 4;
    spec.run.sessions_per_user = 3;
    spec.run.shards = NonZeroUsize::new(shards).filter(|k| k.get() > 1);
    spec.to_json().expect("spec serializes")
}

type Tee = (SummarySink, SpillSink<Vec<u8>>);

fn tee() -> std::io::Result<Tee> {
    Ok((SummarySink::new(), SpillSink::new(Vec::new())?))
}

#[test]
fn decorated_runs_write_the_same_summary_and_spill_bytes() {
    let model = ModelConfig::default_nfs();
    for shards in [1, 2] {
        let json = small_spec(shards);
        let ((summary, spill), stats, _) =
            run_generation(&json, SEED, &model, 1, tee, None).expect("plain run");
        let spill = spill.finish().expect("plain spill");

        let clocks: Vec<Arc<LayerClock>> = (0..shards).map(|_| Arc::default()).collect();
        // Several set-ups before the run must leave it unchanged too.
        let (timed, timed_stats, _) = run_generation(
            &json,
            SEED,
            &model,
            3,
            || Ok(TimedSink::new(tee()?)),
            Some(&clocks),
        )
        .expect("traced run");
        let model_calls: u64 = clocks.iter().map(|c| c.calls()).sum();
        assert_eq!(
            model_calls, timed.ops,
            "K={shards}: one stages() call per op"
        );
        assert_eq!(timed.clock.calls(), summary.ops + summary.sessions);
        let (timed_summary, timed_spill) = timed.inner;
        assert_eq!(timed_summary, summary, "K={shards}");
        assert_eq!(
            timed_spill.finish().expect("traced spill"),
            spill,
            "K={shards}"
        );
        assert_eq!(
            fingerprint(&timed_summary, &timed_stats),
            fingerprint(&summary, &stats)
        );

        // The harness's explicit calls write what the library's own entry
        // point writes (one pinned shard replays the unsharded run).
        let mut spec = load_spec(&json, SEED).expect("small spec parses");
        spec.run.shards = spec.run.shards.or(NonZeroUsize::new(1));
        let ((lib_summary, lib_spill), _) = spec
            .run_des_with_sink(&model, tee().expect("tee"))
            .expect("library run");
        assert_eq!(lib_summary, summary, "K={shards}");
        assert_eq!(
            lib_spill.finish().expect("library spill"),
            spill,
            "K={shards}"
        );
    }
}

#[test]
fn a_changed_seed_trips_the_fingerprint_check() {
    let json = small_spec(1);
    let rep = |seed| {
        let (summary, stats, _) = run_generation(
            &json,
            seed,
            &ModelConfig::default_nfs(),
            1,
            || Ok(SummarySink::new()),
            None,
        )
        .expect("run");
        RepOutput {
            fingerprint: fingerprint(&summary, &stats),
            ..RepOutput::default()
        }
    };
    assert_eq!(audit(&[rep(SEED), rep(SEED)]).0, 0);
    let (failed, messages) = audit(&[rep(SEED), rep(SEED), rep(SEED + 1)]);
    assert_eq!(failed, 1);
    assert!(messages[0].starts_with("fingerprint"), "{messages:?}");
}

#[test]
fn a_failed_check_fails_its_rep() {
    let out = "metric ops_per_s 1.5e5\nfingerprint ops=3\nfailure offered 2 of 3\n";
    let rep = parse_rep(out, false).expect("child output parses");
    assert_eq!(rep.metrics["ops_per_s"], 1.5e5);
    assert_eq!(audit(&[rep]).0, 1);
    assert!(parse_rep("garbage\n", false).is_err());
}

#[test]
fn benchmark_json_lists_every_reported_metric_and_workload() {
    let json = include_str!("../../BENCHMARK.json");
    for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{}\"", unit_of(name));
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
}
