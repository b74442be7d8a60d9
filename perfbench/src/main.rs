//! `perfbench`: the end-to-end benchmark of uswg.
//!
//! ```text
//! perfbench --workload <population|sessions|capture|replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs repetitions ("reps") of one workload, each in a fresh child
//! process so that peak memory is what a user starting `uswg` sees, until
//! `--seconds` have passed. Prints a human-readable report, then, as the
//! last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where every metric is
//! the median over the reps. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced reps and reports the
//! per-layer metrics plus the tracing overhead. See `README.md`.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{load_spec, run_rep, shards_of, ReplayFixture, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 4] = ["setup_s", "pass_ops_per_s", "ops_per_s", "peak_mem_mb"];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer a workload
/// does not run reports 0.
const PER_LAYER: [&str; 27] = [
    "fsc.generate_s",
    "fsc.files",
    "fsc.live_mb",
    "distr.compile_s",
    "distr.fit_s",
    "netfs.stages_s",
    "netfs.stages_calls",
    "netfs.stages_per_op",
    "usim.events",
    "usim.events_per_op",
    "usim.loop_s",
    "usim.loop_ns_per_event",
    "usim.sink_s",
    "usim.sink_records",
    "usim.merge_s",
    "usim.spill_bytes_per_op",
    "analyze.decode_ops_per_s",
    "analyze.aggregate_s",
    "analyze.collect_s",
    "drive.source_ns_per_op",
    "vfs.apply_ns_per_op",
    "drive.lag_p99_us",
    "drive.shed",
    "drive.expired",
    "drive.peak_in_flight",
    "trace.overhead_pct",
    "trace.reps",
];

/// Reps a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Reps a run makes at most.
const MAX_REPS: usize = 64;

/// The unit of a metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("_ns_per_") {
        "ns"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_per_op") {
        if name.contains("bytes") {
            "B"
        } else {
            "ratio"
        }
    } else {
        "count"
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run one rep (traced or not) and print its lines.
    rep: Option<bool>,
    work: Option<PathBuf>,
    capture: Option<ReplayFixture>,
}

const USAGE: &str =
    "usage: perfbench --workload <population|sessions|capture|replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let flag = |k: &str| match get(k)?.as_str() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--{k} must be 0 or 1, not {other:?}")),
    };
    let name = get("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let capture = match map.get("capture") {
        Some(path) => Some(ReplayFixture {
            path: PathBuf::from(path),
            ops: num("capture-ops")?,
            span_us: num("capture-span-us")?,
        }),
        None => None,
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: flag("trace")?,
        rep: map.contains_key("rep").then(|| flag("rep")).transpose()?,
        work: map.get("work").map(PathBuf::from),
        capture,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.rep {
        Some(traced) => child(&args, traced).map_err(|e| e.to_string()),
        None => parent(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child mode: one rep, reported as `metric`, `fingerprint` and `failure`
/// lines on stdout.
fn child(args: &Args, traced: bool) -> Result<(), workloads::RepError> {
    let work = args.work.as_deref().ok_or("--rep needs --work")?;
    let rep = run_rep(
        args.workload,
        args.seed,
        traced,
        work,
        args.capture.as_ref(),
    )?;
    let mut out = String::new();
    for (name, value) in &rep.metrics {
        out.push_str(&format!("metric {name} {value:e}\n"));
    }
    out.push_str(&format!("metric peak_mem_mb {:e}\n", trace::peak_rss_mb()));
    out.push_str(&format!("fingerprint {}\n", rep.fingerprint));
    for failure in &rep.failures {
        out.push_str(&format!("failure {failure}\n"));
    }
    print!("{out}");
    Ok(())
}

/// One rep's parsed output.
#[derive(Debug, Default)]
struct RepOutput {
    traced: bool,
    metrics: BTreeMap<String, f64>,
    fingerprint: String,
    failures: Vec<String>,
}

fn parse_rep(stdout: &str, traced: bool) -> Result<RepOutput, String> {
    let mut rep = RepOutput {
        traced,
        ..RepOutput::default()
    };
    for line in stdout.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "metric" => {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad metric line {line:?}"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric value {line:?}"))?;
                rep.metrics.insert(name.to_string(), value);
            }
            "fingerprint" => rep.fingerprint = rest.to_string(),
            "failure" => rep.failures.push(rest.to_string()),
            _ => return Err(format!("unexpected line {line:?}")),
        }
    }
    Ok(rep)
}

/// The work directory of this run: inside the checkout, private to the
/// process, removed at the end.
fn work_dir(workload: Workload) -> std::io::Result<PathBuf> {
    let dir =
        Path::new(".perfbench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir)?;
    std::path::absolute(dir)
}

fn spawn_rep(
    args: &Args,
    traced: bool,
    work: &Path,
    capture: Option<&ReplayFixture>,
) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        "--rep",
        if traced { "1" } else { "0" },
    ])
    .arg("--work")
    .arg(work);
    if let Some(fixture) = capture {
        cmd.arg("--capture")
            .arg(&fixture.path)
            .args(["--capture-ops", &fixture.ops.to_string()])
            .args(["--capture-span-us", &fixture.span_us.to_string()]);
    }
    // Pin the environment: the specs choose backend and shard count, and
    // sharded runs spill their temporary streams into the work directory.
    let output = cmd
        .env_remove("USWG_SCHEDULER")
        .env_remove("USWG_SHARDS")
        .env("TMPDIR", work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!("rep exited with {}", output.status));
    }
    parse_rep(&String::from_utf8_lossy(&output.stdout), traced)
}

/// The correctness gate over completed reps: a rep fails when one of its
/// output checks failed or its fingerprint differs from the first rep's
/// (traced and untraced alike). Returns the failed reps and why.
fn audit(reps: &[RepOutput]) -> (u64, Vec<String>) {
    let reference = reps.first().map_or("", |r| r.fingerprint.as_str());
    let mut failed = 0;
    let mut messages = Vec::new();
    for rep in reps {
        messages.extend(rep.failures.iter().map(|f| format!("check: {f}")));
        let mismatch = rep.fingerprint != reference;
        if mismatch {
            messages.push(format!("fingerprint: {} != {reference}", rep.fingerprint));
        }
        failed += u64::from(mismatch || !rep.failures.is_empty());
    }
    (failed, messages)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of `name` over the reps that reported it.
fn median_of<'a>(reps: impl Iterator<Item = &'a RepOutput>, name: &str) -> Option<f64> {
    let mut values: Vec<f64> = reps.filter_map(|r| r.metrics.get(name).copied()).collect();
    (!values.is_empty()).then(|| median(&mut values))
}

fn parent(args: &Args) -> Result<(), String> {
    let spec = load_spec(args.workload.spec_json(), args.seed).map_err(|e| e.to_string())?;
    let backend = spec.run.scheduler_backend().name();
    let shards = shards_of(&spec);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let env_note = |var: &str| {
        if std::env::var_os(var).is_some() {
            "set (ignored)"
        } else {
            "unset"
        }
    };
    let work = work_dir(args.workload).map_err(|e| format!("creating the work directory: {e}"))?;
    let result = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(Path::new(".perfbench_work"));
    let Measured {
        reps,
        errors,
        fixture_fp,
    } = result?;

    println!(
        "perfbench {} | seed {} | trace {} | nproc {nproc} | backend {backend} | K={shards} | \
         USWG_SCHEDULER {} | USWG_SHARDS {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        env_note("USWG_SCHEDULER"),
        env_note("USWG_SHARDS"),
    );
    println!("{}", args.workload.throughput_meaning());
    if let Some(fp) = &fixture_fp {
        println!("capture fixture: {fp}");
    }
    let mut failed = errors.len() as u64;
    for e in &errors {
        println!("FAILED rep: {e}");
    }
    let (bad_reps, messages) = audit(&reps);
    failed += bad_reps;
    for m in &messages {
        println!("FAILED {m}");
    }
    let reference = reps.first().map_or("", |r| r.fingerprint.as_str());
    let attempted = (reps.len() + errors.len()) as u64;
    println!("fingerprint ({} reps): {reference}", reps.len());
    let untraced = || reps.iter().filter(|r| !r.traced);
    let traced = || reps.iter().filter(|r| r.traced);
    let names: std::collections::BTreeSet<&String> =
        reps.iter().flat_map(|r| r.metrics.keys()).collect();
    for name in &names {
        let u = median_of(untraced(), name);
        let t = median_of(traced(), name);
        let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        println!(
            "{name:<32} {:>16} {:>16} {}",
            show(u),
            show(t),
            unit_of(name)
        );
    }
    if reps.is_empty() {
        return Err("no rep completed".into());
    }

    let mut metrics = Vec::new();
    if args.trace {
        for name in PER_LAYER {
            let value = match name {
                "trace.overhead_pct" => {
                    let u = median_of(untraced(), "ops_per_s").unwrap_or(f64::NAN);
                    let t = median_of(traced(), "ops_per_s").unwrap_or(f64::NAN);
                    (u / t - 1.0) * 100.0
                }
                "trace.reps" => traced().count() as f64,
                _ => median_of(traced(), name).unwrap_or(0.0),
            };
            metrics.push((name, value));
        }
    } else {
        for name in END_TO_END {
            let value = median_of(untraced(), name).ok_or(format!("no rep reported {name}"))?;
            metrics.push((name, value));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// What a run's reps produced.
struct Measured {
    reps: Vec<RepOutput>,
    /// Reps that did not complete, and why.
    errors: Vec<String>,
    /// The replay capture's fingerprint.
    fixture_fp: Option<String>,
}

/// Makes the fixture (replay only), then runs reps until `--seconds` are
/// spent: never fewer than [`MIN_REPS`] per traced/untraced side, and no
/// rep is started that would be expected to end past the deadline.
fn measure(args: &Args, work: &Path) -> Result<Measured, String> {
    let (fixture, fixture_fp) = if args.workload == Workload::Replay {
        let (fixture, fp) = ReplayFixture::create(args.seed, &work.join("replay.spill"))
            .map_err(|e| format!("making the replay capture: {e}"))?;
        (Some(fixture), Some(fp))
    } else {
        (None, None)
    };
    let sides = if args.trace { 2 } else { 1 };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut errors = Vec::new();
    for i in 0..MAX_REPS {
        let elapsed = start.elapsed();
        if i >= MIN_REPS * sides {
            let per_rep = elapsed / i as u32;
            if elapsed + per_rep > budget {
                break;
            }
        }
        let traced = args.trace && i % 2 == 1;
        match spawn_rep(args, traced, work, fixture.as_ref()) {
            Ok(rep) => reps.push(rep),
            Err(e) => errors.push(e),
        }
    }
    Ok(Measured {
        reps,
        errors,
        fixture_fp,
    })
}

#[cfg(test)]
mod tests;
