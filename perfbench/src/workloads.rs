//! The four workloads, each as one repetition ("rep") that a child process
//! runs: build the inputs from the pinned spec and the seed, drive them
//! through the same public calls the `uswg` CLI makes, time them, and check
//! the outputs. A traced rep runs the identical calls with the decorators
//! of [`crate::trace`] swapped in.

use crate::trace::{self, LayerClock, TimedModel, TimedSink, TimedSource, TimedTarget};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use uswg_core::experiment::ModelConfig;
use uswg_core::metrics::StreamLogStats;
use uswg_core::{
    collect_fit, synthesize_spec, CompiledPopulation, DesDriver, DesRunStats, LogSink,
    ResourcePool, ScanOptions, ShardEnv, ShardPlan, ShardedDesDriver, SpillReader, SpillRecord,
    SpillSink, SummarySink, SynthesisOptions, WorkloadSpec,
};
use uswg_drive::{
    drive_stream, DriveConfig, DriveReport, LoopbackConfig, LoopbackVfs, SpillSource,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k single-session users of the million-user spec, local model,
    /// calendar queue: population-scale cost (FSC, user arenas, a deep
    /// event queue).
    Population,
    /// The paper's spec, 50 users × 50 sessions, NFS model, heap: the
    /// per-event hot path with writes beside reads.
    Sessions,
    /// `sessions` at K=2 teed into a spill capture, then analyzed and fitted:
    /// the measure → regenerate loop.
    Capture,
    /// Open-loop replay of a paper-spec capture against the loopback VFS at
    /// a low and an overload offered rate.
    Replay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Population,
        Workload::Sessions,
        Workload::Capture,
        Workload::Replay,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Population => "population",
            Workload::Sessions => "sessions",
            Workload::Capture => "capture",
            Workload::Replay => "replay",
        }
    }

    /// The pinned spec: backend and shard count are set in the file, never
    /// taken from the environment.
    pub fn spec_json(self) -> &'static str {
        match self {
            Workload::Population => include_str!("../specs/population.json"),
            Workload::Sessions => include_str!("../specs/sessions.json"),
            Workload::Capture => include_str!("../specs/capture.json"),
            Workload::Replay => include_str!("../specs/replay.json"),
        }
    }

    /// What `ops_per_s` and `pass_ops_per_s` measure on this workload.
    pub fn throughput_meaning(self) -> &'static str {
        match self {
            Workload::Replay => {
                "ops_per_s = replay_sat_ops_per_s (goodput at the overload rate); \
                 pass_ops_per_s = ops completed over the measured overload passes / their wall time"
            }
            _ => {
                "ops_per_s = gen_ops_per_s (op records / DES call); \
                 pass_ops_per_s = op records / wall_s (the whole pass a CLI user waits for)"
            }
        }
    }

    /// Set-ups a generation rep times; the median is its `setup_s`. A
    /// set-up is short next to the DES call except on `population`, and a
    /// single one swings with the host, so the short ones are repeated.
    pub fn setups(self) -> usize {
        match self {
            Workload::Population => POPULATION_SETUPS,
            _ => SHORT_SETUPS,
        }
    }

    /// The timing model the workload runs against (the replay capture is
    /// generated with it).
    pub fn model(self) -> ModelConfig {
        match self {
            Workload::Population => ModelConfig::default_local(),
            _ => ModelConfig::default_nfs(),
        }
    }
}

/// Offered rate of the replay's low-rate pass, ops/s: about a quarter of
/// the saturation goodput of one zero-service-time loopback worker on the
/// 2-core reference host.
pub const REPLAY_LOW_OPS_PER_S: f64 = 70_000.0;
/// Offered rate of the replay's overload pass, ops/s: well above saturation.
pub const REPLAY_HIGH_OPS_PER_S: f64 = 4_000_000.0;
/// Set-ups per `population` rep (one takes about 1.7 s).
const POPULATION_SETUPS: usize = 1;
/// Set-ups per `sessions` or `capture` rep (one takes about 25 ms).
const SHORT_SETUPS: usize = 9;
/// Replay setups timed per rep; the median is reported (one setup takes
/// well under a millisecond).
const REPLAY_SETUPS: usize = 201;
/// Measured overload passes per rep (one lasts 0.1–0.2 s); their median
/// goodput is the rep's `ops_per_s`. On the reference host a single pass's
/// goodput swings by up to 3× with interference, so a rep takes many.
const REPLAY_OVERLOAD_PASSES: usize = 24;
/// Unmeasured overload passes first: right after the low-rate pass leaves
/// the CPUs mostly idle, the reference host runs the next ~1.5 s of busy
/// work at about a third of its steady speed.
const REPLAY_WARMUP_PASSES: usize = 8;

/// Any failure of a rep, as text for the report.
pub type RepError = Box<dyn std::error::Error>;

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// `(name, value)` pairs, end-to-end and (traced) per-layer.
    pub metrics: Vec<(String, f64)>,
    /// Every simulated statistic that must repeat exactly for a given seed.
    pub fingerprint: String,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Rep {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Parses a pinned spec and sets the run's seed.
///
/// # Errors
///
/// Propagates a malformed spec, or one that leaves the backend to the
/// environment.
pub fn load_spec(json: &str, seed: u64) -> Result<WorkloadSpec, RepError> {
    let mut spec = WorkloadSpec::from_json(json)?;
    if spec.run.scheduler.is_none() {
        return Err("a benchmark spec must pin run.scheduler".into());
    }
    spec.run.seed = seed;
    Ok(spec)
}

/// The shard count a spec pins; `null` is the unsharded exact path (K=1),
/// which the harness runs through `DesDriver` so `USWG_SHARDS` cannot
/// re-shard it.
pub fn shards_of(spec: &WorkloadSpec) -> usize {
    spec.run.shards.map_or(1, NonZeroUsize::get)
}

/// The simulated statistics a generation run must reproduce exactly.
pub fn fingerprint(summary: &SummarySink, stats: &DesRunStats) -> String {
    format!(
        "ops={} sessions={} data_bytes={} response_us={} duration_us={} events={}",
        summary.ops,
        summary.sessions,
        summary.data_bytes,
        summary.total_response,
        stats.duration.micros(),
        stats.events
    )
}

/// Timings of one generation run.
#[derive(Debug, Default)]
pub struct GenTimes {
    /// Spec parse through model build: the median over the set-ups.
    pub setup_s: f64,
    /// The set-ups before the last one, which a CLI user does not wait for:
    /// wall times leave them out.
    pub repeat_s: f64,
    /// The DES call.
    pub des_s: f64,
    /// `generate_fs` of the last set-up, summed over shards.
    pub generate_s: f64,
    /// `compile` of the last set-up.
    pub compile_s: f64,
    /// Files in the catalog (one shard's).
    pub files: usize,
}

/// What one set-up leaves for the DES call.
struct Prepared {
    spec: WorkloadSpec,
    population: CompiledPopulation,
    envs: Vec<ShardEnv>,
}

/// One shard's environment and its `generate_fs` seconds, or why the
/// build failed.
type BuiltEnv = Result<(ShardEnv, f64), String>;

/// One set-up: spec parse, `compile`, and one environment per active shard
/// (`generate_fs` plus `ModelConfig::build`). The environments build as
/// the library's private `shard_envs` (behind
/// `WorkloadSpec::run_des_with_sink`) builds them, in a copy of its code:
/// one task per shard on the global `stealpool`, at most
/// `available_parallelism()` wide. One shard runs inline.
fn set_up(
    spec_json: &str,
    seed: u64,
    model: &ModelConfig,
    clocks: Option<&[Arc<LayerClock>]>,
    times: &mut GenTimes,
) -> Result<Prepared, RepError> {
    let spec = load_spec(spec_json, seed)?;
    let t = Instant::now();
    let population = spec.compile()?;
    times.compile_s = t.elapsed().as_secs_f64();
    let active = spec
        .run
        .shards
        .filter(|k| k.get() > 1)
        .map_or(1, |k| ShardPlan::new(spec.run.n_users, k).active_shards());
    let slots: Vec<Mutex<Option<BuiltEnv>>> = (0..active).map(|_| Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(active);
    stealpool::run_indexed(workers, active, |i| {
        let t = Instant::now();
        let env = spec
            .generate_fs()
            .map_err(|e| e.to_string())
            .map(|(vfs, catalog)| {
                let generate_s = t.elapsed().as_secs_f64();
                let mut pool = ResourcePool::new();
                let mut m = model.build(&mut pool);
                if let Some(clocks) = clocks {
                    m = TimedModel::wrap(m, Arc::clone(&clocks[i]));
                }
                let env = ShardEnv {
                    vfs,
                    catalog,
                    model: m,
                    pool,
                };
                (env, generate_s)
            });
        let ok = env.is_ok();
        *slots[i].lock().expect("env slot lock") = Some(env);
        ok // a failed build cancels the remaining ones, as in the library
    });
    times.generate_s = 0.0;
    let mut envs = Vec::with_capacity(active);
    for slot in slots {
        let (env, generate_s) = slot
            .into_inner()
            .expect("env slot lock")
            .unwrap_or_else(|| Err("env build cancelled".into()))?;
        times.generate_s += generate_s;
        times.files = env.catalog.len();
        envs.push(env);
    }
    Ok(Prepared {
        spec,
        population,
        envs,
    })
}

/// Runs a pinned spec's DES into `sink` through the CLI's calls: K=1 is
/// `DesDriver::run_with_sink`, K>1 the sharded spill-merge path
/// (`ShardedDesDriver::run_spill_streamed`, as `WorkloadSpec::run_des_with_sink`
/// runs it). The set-up runs `setups` times, each dropping the previous
/// one's environments first; `setup_s` is the median and the last set-up's
/// environments are run. With `clocks` set each model is wrapped in a
/// [`TimedModel`].
///
/// # Errors
///
/// Propagates generation, compilation and simulation errors.
pub fn run_generation<S: LogSink>(
    spec_json: &str,
    seed: u64,
    model: &ModelConfig,
    setups: usize,
    sink: impl FnOnce() -> std::io::Result<S>,
    clocks: Option<&[Arc<LayerClock>]>,
) -> Result<(S, DesRunStats, GenTimes), RepError> {
    let mut times = GenTimes::default();
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(set_up(spec_json, seed, model, clocks, &mut times)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    times.repeat_s = setup_s[..setup_s.len() - 1].iter().sum();
    setup_s.sort_by(f64::total_cmp);
    times.setup_s = setup_s[setup_s.len() / 2];
    let Prepared {
        spec,
        population,
        mut envs,
    } = prepared.expect("at least one set-up");
    // Opening the sink (a file create on capture) is I/O, not set-up work;
    // the caller's wall time still counts it.
    let sink = sink()?;
    let t = Instant::now();
    let (sink, stats) = match spec.run.shards.filter(|k| k.get() > 1) {
        Some(shards) => ShardedDesDriver::new().run_spill_streamed(
            &population,
            &spec.run,
            shards,
            envs,
            sink,
        )?,
        None => {
            let env = envs.pop().expect("one environment");
            DesDriver::new().run_with_sink(
                env.vfs,
                env.catalog,
                &population,
                env.model,
                env.pool,
                &spec.run,
                sink,
            )?
        }
    };
    times.des_s = t.elapsed().as_secs_f64();
    Ok((sink, stats, times))
}

/// One rep of `workload`. `capture` is the replay fixture (ignored by the
/// other workloads); `work` is a private directory for spill files.
///
/// # Errors
///
/// Any error a pipeline stage returns; failed output checks are reported
/// in [`Rep::failures`] instead.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    work: &Path,
    capture: Option<&ReplayFixture>,
) -> Result<Rep, RepError> {
    match workload {
        Workload::Population | Workload::Sessions => summary_rep(workload, seed, traced),
        Workload::Capture => capture_rep(seed, traced, work),
        Workload::Replay => {
            let fixture = capture.ok_or("the replay workload needs its capture fixture")?;
            replay_rep(fixture, traced)
        }
    }
}

/// Runs a generation workload into the sink `open` makes. A traced run
/// wraps the model and the sink and reports the generation layers.
fn generate<S: LogSink>(
    rep: &mut Rep,
    workload: Workload,
    seed: u64,
    traced: bool,
    open: impl FnOnce() -> std::io::Result<S>,
) -> Result<(S, DesRunStats, GenTimes), RepError> {
    if !traced {
        return run_generation(
            workload.spec_json(),
            seed,
            &workload.model(),
            workload.setups(),
            open,
            None,
        );
    }
    let spec = load_spec(workload.spec_json(), seed)?;
    let k = shards_of(&spec);
    let model: Vec<Arc<LayerClock>> = (0..k).map(|_| Arc::default()).collect();
    let (sink, stats, times) = run_generation(
        workload.spec_json(),
        seed,
        &workload.model(),
        workload.setups(),
        || Ok(TimedSink::new(open()?)),
        Some(&model),
    )?;
    let returned = Instant::now();
    // A sharded run feeds the sink only from its k-way merge, which starts
    // once the shards are done; an unsharded one feeds it inline.
    let merge_s = match sink.first {
        Some(first) if k > 1 => returned.duration_since(first).as_secs_f64(),
        _ => 0.0,
    };
    let (stages_s, stages_calls) = model
        .iter()
        .fold((0.0, 0), |(s, c), m| (s + m.secs(), c + m.calls()));
    let sink_s = sink.clock.secs();
    // What the DES call spent outside the model and the sink. The shard
    // phase of a sharded run keeps K threads busy, so there the residual is
    // thread time: shard-phase wall × K − model time.
    let loop_s = if k == 1 {
        times.des_s - stages_s - sink_s
    } else {
        (times.des_s - merge_s) * k as f64 - stages_s
    };
    let ops = sink.ops as f64;
    let events = stats.events as f64;
    rep.put("fsc.generate_s", times.generate_s);
    rep.put("fsc.files", times.files as f64);
    rep.put("distr.compile_s", times.compile_s);
    rep.put("netfs.stages_s", stages_s);
    rep.put("netfs.stages_calls", stages_calls as f64);
    rep.put("netfs.stages_per_op", stages_calls as f64 / ops);
    rep.put("usim.events", events);
    rep.put("usim.events_per_op", events / ops);
    rep.put("usim.loop_s", loop_s);
    rep.put("usim.loop_ns_per_event", loop_s * 1e9 / events);
    rep.put("usim.sink_s", sink_s);
    rep.put("usim.sink_records", sink.clock.calls() as f64);
    rep.put("usim.merge_s", merge_s);
    Ok((sink.inner, stats, times))
}

/// `fsc.live_mb`: the heap bytes one `generate_fs` call leaves live,
/// counted on a separate build after every timed stage (counting slows
/// allocation).
fn put_fsc_live_mb(rep: &mut Rep, workload: Workload, seed: u64) -> Result<(), RepError> {
    let spec = load_spec(workload.spec_json(), seed)?;
    let (fs, live_bytes) = trace::retained_bytes(|| spec.generate_fs());
    drop(fs?);
    rep.put("fsc.live_mb", live_bytes as f64 / 1e6);
    Ok(())
}

fn summary_rep(workload: Workload, seed: u64, traced: bool) -> Result<Rep, RepError> {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let (sink, stats, times) =
        generate(&mut rep, workload, seed, traced, || Ok(SummarySink::new()))?;
    let wall_s = t0.elapsed().as_secs_f64() - times.repeat_s;
    if traced {
        put_fsc_live_mb(&mut rep, workload, seed)?;
    }
    rep.check(sink.ops > 0, || "the run emitted no ops".into());
    rep.fingerprint = fingerprint(&sink, &stats);
    rep.put("setup_s", times.setup_s);
    rep.put("wall_s", wall_s);
    rep.put("pass_ops_per_s", sink.ops as f64 / wall_s);
    rep.put("ops_per_s", sink.ops as f64 / times.des_s);
    rep.put("gen_ops_per_s", sink.ops as f64 / times.des_s);
    rep.put("des_s", times.des_s);
    Ok(rep)
}

fn capture_rep(seed: u64, traced: bool, work: &Path) -> Result<Rep, RepError> {
    let mut rep = Rep::default();
    let path = work.join("capture.spill");
    let t0 = Instant::now();
    let ((summary, spill), stats, times) =
        generate(&mut rep, Workload::Capture, seed, traced, || {
            Ok((SummarySink::new(), SpillSink::create(&path)?))
        })?;
    spill.finish()?;
    let run_s = t0.elapsed().as_secs_f64() - times.repeat_s;
    let spill_bytes = std::fs::metadata(&path)?.len();

    // `uswg analyze`: one streamed pass folding every record.
    let t = Instant::now();
    let mut analyzed = StreamLogStats::new();
    for record in SpillReader::open(&path)? {
        match record? {
            SpillRecord::Op(op) => analyzed.record_op(&op),
            SpillRecord::Session(s) => analyzed.record_session(&s),
        }
    }
    let analyze_s = t.elapsed().as_secs_f64();

    // `uswg fit`: collect the observation, then synthesize a spec.
    let t = Instant::now();
    let outcome = collect_fit(&path, &ScanOptions::default())?;
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let synthesized = synthesize_spec(&outcome.observation, &SynthesisOptions::default())?;
    let synth_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64() - times.repeat_s;

    if traced {
        put_fsc_live_mb(&mut rep, Workload::Capture, seed)?;
        // The bare decode pass, after the timed stages so it warms nothing
        // for them: what `analyze` costs before aggregation.
        let t = Instant::now();
        let mut records = 0u64;
        for record in SpillReader::open(&path)? {
            black_box(record?);
            records += 1;
        }
        let decode_s = t.elapsed().as_secs_f64();
        rep.check(records == summary.ops + summary.sessions, || {
            format!("bare decode read {records} records")
        });
        rep.put("analyze.decode_ops_per_s", summary.ops as f64 / decode_s);
        rep.put("analyze.aggregate_s", analyze_s - decode_s);
        rep.put("analyze.collect_s", collect_s);
        rep.put("distr.fit_s", synth_s);
        rep.put(
            "usim.spill_bytes_per_op",
            spill_bytes as f64 / summary.ops as f64,
        );
    }

    rep.check(
        analyzed.ops == summary.ops && analyzed.sessions == summary.sessions,
        || {
            format!(
                "analyze counted {} ops / {} sessions, the run {} / {}",
                analyzed.ops, analyzed.sessions, summary.ops, summary.sessions
            )
        },
    );
    rep.check(
        analyzed.data_bytes == summary.data_bytes
            && analyzed.total_response_us == summary.total_response,
        || "analyze bytes or response total differ from the run's".into(),
    );
    check_fitted_spec(&mut rep, &synthesized.spec);

    rep.fingerprint = format!(
        "{} spill_bytes={spill_bytes} fit_ops={}",
        fingerprint(&summary, &stats),
        outcome.observation.ops
    );
    rep.put("setup_s", times.setup_s);
    rep.put("wall_s", wall_s);
    rep.put("pass_ops_per_s", summary.ops as f64 / wall_s);
    rep.put("ops_per_s", summary.ops as f64 / times.des_s);
    rep.put("gen_ops_per_s", summary.ops as f64 / times.des_s);
    rep.put("des_s", times.des_s);
    rep.put("run_s", run_s);
    rep.put("analyze_s", analyze_s);
    rep.put("analyze_ops_per_s", summary.ops as f64 / analyze_s);
    rep.put("fit_s", collect_s + synth_s);
    std::fs::remove_file(&path)?;
    Ok(rep)
}

/// The fitted spec must survive a JSON round trip and complete a small DES.
fn check_fitted_spec(rep: &mut Rep, spec: &WorkloadSpec) {
    let round_trip = spec
        .to_json()
        .and_then(|json| WorkloadSpec::from_json(&json));
    match round_trip {
        Ok(back) => rep.check(back == *spec, || {
            "fitted spec changed in a JSON round trip".into()
        }),
        Err(e) => rep
            .failures
            .push(format!("fitted spec JSON round trip: {e}")),
    }
    let mut small = spec.clone();
    small.run.n_users = 2;
    small.run.sessions_per_user = 2;
    small.run.shards = NonZeroUsize::new(1);
    match small.run_des_with_sink(&ModelConfig::default_nfs(), SummarySink::new()) {
        Ok((sink, _)) => rep.check(sink.ops > 0, || "fitted spec's DES emitted no ops".into()),
        Err(e) => rep.failures.push(format!("fitted spec's DES: {e}")),
    }
}

/// The replay capture, made before any timing.
#[derive(Debug, Clone)]
pub struct ReplayFixture {
    /// The spill file.
    pub path: std::path::PathBuf,
    /// Op records in it.
    pub ops: u64,
    /// Simulated span of the capture, µs.
    pub span_us: u64,
}

impl ReplayFixture {
    /// Generates the replay workload's capture into `path`.
    ///
    /// # Errors
    ///
    /// Propagates generation and spill I/O errors.
    pub fn create(seed: u64, path: &Path) -> Result<(Self, String), RepError> {
        let open = || Ok((SummarySink::new(), SpillSink::create(path)?));
        let replay = Workload::Replay;
        let ((summary, spill), stats, _) =
            run_generation(replay.spec_json(), seed, &replay.model(), 1, open, None)?;
        spill.finish()?;
        let fixture = Self {
            path: path.to_path_buf(),
            ops: summary.ops,
            span_us: stats.duration.micros(),
        };
        Ok((fixture, fingerprint(&summary, &stats)))
    }

    /// The speedup that offers the capture at `ops_per_s` on average.
    pub fn speedup_for(&self, ops_per_s: f64) -> f64 {
        ops_per_s * self.span_us as f64 / 1e6 / self.ops as f64
    }
}

fn drive_config(speedup: f64) -> DriveConfig {
    DriveConfig {
        speedup,
        max_in_flight: 1,
        ..DriveConfig::default()
    }
}

fn loopback() -> LoopbackVfs {
    LoopbackVfs::new(LoopbackConfig::default())
}

/// Checks the drive accounting identity and that every captured op was
/// offered.
fn check_drive(rep: &mut Rep, report: &DriveReport, fixture: &ReplayFixture, pass: &str) {
    let accounted = report.completed + report.shed + report.expired + report.aborted;
    rep.check(report.offered == accounted, || {
        format!(
            "{pass}: offered {} but accounted {accounted}",
            report.offered
        )
    });
    rep.check(report.offered == fixture.ops, || {
        format!(
            "{pass}: offered {} of {} captured ops",
            report.offered, fixture.ops
        )
    });
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// The clocks a traced replay keeps across its overload passes.
#[derive(Debug, Default)]
struct ReplayClocks {
    source: Arc<LayerClock>,
    apply: Arc<LayerClock>,
}

/// One open-loop pass over the capture at `speedup`; traced when `clocks`
/// is set, which also returns each op's lag in µs, sorted.
fn drive_pass(
    fixture: &ReplayFixture,
    speedup: f64,
    clocks: Option<&ReplayClocks>,
) -> Result<(DriveReport, Vec<f64>), RepError> {
    let config = drive_config(speedup);
    let source = SpillSource::open(&fixture.path)?;
    let Some(clocks) = clocks else {
        return Ok((
            drive_stream(source, Arc::new(loopback()), &config)?,
            Vec::new(),
        ));
    };
    let anchor = Arc::new(OnceLock::new());
    let target = Arc::new(TimedTarget::new(
        loopback(),
        Arc::clone(&clocks.apply),
        Arc::clone(&anchor),
        speedup,
    ));
    let source = TimedSource::new(source, Arc::clone(&clocks.source), anchor);
    let report = drive_stream(source, target.clone(), &config)?;
    Ok((report, target.sorted_lags_us()))
}

fn ns_per_call(clock: &LayerClock) -> f64 {
    clock.secs() * 1e9 / clock.calls().max(1) as f64
}

fn replay_rep(fixture: &ReplayFixture, traced: bool) -> Result<Rep, RepError> {
    let mut rep = Rep::default();
    let mut setups: Vec<f64> = (0..REPLAY_SETUPS)
        .map(|_| {
            // What `uswg drive --from-spill` does before its first op.
            let t = Instant::now();
            let spec = WorkloadSpec::from_json(Workload::Replay.spec_json());
            let source = SpillSource::open(&fixture.path);
            let target = loopback();
            black_box((spec.is_ok(), source.is_ok(), &target));
            t.elapsed().as_secs_f64()
        })
        .collect();
    setups.sort_by(f64::total_cmp);
    let t0 = Instant::now();
    let low_clocks = traced.then(ReplayClocks::default);
    let (low, lags) = drive_pass(
        fixture,
        fixture.speedup_for(REPLAY_LOW_OPS_PER_S),
        low_clocks.as_ref(),
    )?;
    check_drive(&mut rep, &low, fixture, "low-rate pass");
    let high = fixture.speedup_for(REPLAY_HIGH_OPS_PER_S);
    let mut offered = low.offered;
    for _ in 0..REPLAY_WARMUP_PASSES {
        let (pass, _) = drive_pass(fixture, high, None)?;
        check_drive(&mut rep, &pass, fixture, "warm-up pass");
        offered += pass.offered;
    }
    let high_clocks = traced.then(ReplayClocks::default);
    let mut goodputs = Vec::with_capacity(REPLAY_OVERLOAD_PASSES);
    let (mut completed, mut overload_us) = (0u64, 0u64);
    for _ in 0..REPLAY_OVERLOAD_PASSES {
        let (high, _) = drive_pass(fixture, high, high_clocks.as_ref())?;
        check_drive(&mut rep, &high, fixture, "overload pass");
        offered += high.offered;
        completed += high.completed;
        overload_us += high.wall_micros;
        goodputs.push(high.goodput_ops_per_sec());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    goodputs.sort_by(f64::total_cmp);
    if let Some(clocks) = &high_clocks {
        rep.put("drive.lag_p99_us", percentile(&lags, 0.99));
        rep.put("drive.shed", low.shed as f64);
        rep.put("drive.expired", low.expired as f64);
        rep.put("drive.peak_in_flight", low.peak_in_flight as f64);
        rep.put("drive.source_ns_per_op", ns_per_call(&clocks.source));
        rep.put("vfs.apply_ns_per_op", ns_per_call(&clocks.apply));
    }
    rep.fingerprint = format!("offered={offered}");
    rep.put("setup_s", setups[setups.len() / 2]);
    rep.put("wall_s", wall_s);
    // Completed, not offered: a shed op is not throughput.
    rep.put(
        "pass_ops_per_s",
        completed as f64 * 1e6 / overload_us.max(1) as f64,
    );
    rep.put("ops_per_s", goodputs[goodputs.len() / 2]);
    rep.put("replay_sat_ops_per_s", goodputs[goodputs.len() / 2]);
    rep.put("replay_p50_us", low.latency.quantile(0.50) as f64);
    rep.put("replay_p99_us", low.latency.quantile(0.99) as f64);
    rep.put("replay_samples", low.latency.count() as f64);
    rep.put(
        "replay_low_offered_ops_per_s",
        low.offered as f64 * 1e6 / low.wall_micros as f64,
    );
    Ok(rep)
}
