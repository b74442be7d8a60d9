//! Timing decorators around each layer's public seam, plus the memory
//! probes. Everything here lives outside the program: a traced run swaps
//! these wrappers in around the objects the untraced run passes straight
//! through, so the program's own code is never instrumented.

use rand::RngCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use uswg_core::{LogSink, OpRecord, OpRequest, ServiceModel, SessionRecord, Stage};
use uswg_drive::{OpSource, SourceError, Target, TargetError};

/// Nanoseconds since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and call count of one layer, shared between the decorator the
/// driver owns and the harness that reads it after the call returns.
#[derive(Debug, Default)]
pub struct LayerClock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl LayerClock {
    fn add(&self, start: Instant) {
        self.nanos.fetch_add(nanos_since(start), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Busy seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls timed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Times `ServiceModel::stages`, the timing model's whole per-op work.
#[derive(Debug)]
pub struct TimedModel {
    inner: Box<dyn ServiceModel>,
    clock: Arc<LayerClock>,
}

impl TimedModel {
    /// Wraps `inner`, adding its busy time to `clock`.
    pub fn wrap(inner: Box<dyn ServiceModel>, clock: Arc<LayerClock>) -> Box<dyn ServiceModel> {
        Box::new(Self { inner, clock })
    }
}

impl ServiceModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage> {
        let start = Instant::now();
        let stages = self.inner.stages(req, rng);
        self.clock.add(start);
        stages
    }

    fn invalidate(&mut self, file: uswg_core::FileId) {
        self.inner.invalidate(file);
    }
}

/// Times every record a sink takes, and notes when the first one arrived
/// (on a sharded run that is when the k-way merge starts feeding it).
#[derive(Debug)]
pub struct TimedSink<S> {
    /// The decorated sink.
    pub inner: S,
    /// Busy time and records taken.
    pub clock: LayerClock,
    /// When the first record arrived.
    pub first: Option<Instant>,
    /// Op records taken.
    pub ops: u64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            clock: LayerClock::default(),
            first: None,
            ops: 0,
        }
    }
}

impl<S: LogSink> LogSink for TimedSink<S> {
    fn record_op(&mut self, op: &OpRecord) {
        let start = Instant::now();
        self.first.get_or_insert(start);
        self.inner.record_op(op);
        self.clock.add(start);
        self.ops += 1;
    }

    fn record_session(&mut self, session: &SessionRecord) {
        let start = Instant::now();
        self.first.get_or_insert(start);
        self.inner.record_session(session);
        self.clock.add(start);
    }
}

/// Times the op source the drive pacer pulls from, and publishes the
/// instant of the first op: the pacer anchors its clock there, so it is
/// the zero of every due time.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    clock: Arc<LayerClock>,
    anchor: Arc<OnceLock<Instant>>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, adding its busy time to `clock` and publishing the
    /// first op's instant to `anchor`.
    pub fn new(inner: S, clock: Arc<LayerClock>, anchor: Arc<OnceLock<Instant>>) -> Self {
        Self {
            inner,
            clock,
            anchor,
        }
    }
}

impl<S: OpSource> OpSource for TimedSource<S> {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        let start = Instant::now();
        let next = self.inner.next_op();
        self.clock.add(start);
        if matches!(next, Ok(Some(_))) {
            self.anchor.get_or_init(Instant::now);
        }
        next
    }
}

/// Times `Target::apply` and records each op's lag: apply start minus the
/// op's due time (`anchor + at / speedup`).
#[derive(Debug)]
pub struct TimedTarget<T> {
    inner: T,
    clock: Arc<LayerClock>,
    anchor: Arc<OnceLock<Instant>>,
    speedup: f64,
    lags_us: Mutex<Vec<f64>>,
}

impl<T> TimedTarget<T> {
    /// Wraps `inner`, adding its busy time to `clock`; due times come from
    /// `anchor` and `speedup`.
    pub fn new(
        inner: T,
        clock: Arc<LayerClock>,
        anchor: Arc<OnceLock<Instant>>,
        speedup: f64,
    ) -> Self {
        Self {
            inner,
            clock,
            anchor,
            speedup,
            lags_us: Mutex::new(Vec::new()),
        }
    }

    /// The recorded lags in µs, sorted.
    pub fn sorted_lags_us(&self) -> Vec<f64> {
        let mut lags = self.lags_us.lock().expect("lag log poisoned").clone();
        lags.sort_by(f64::total_cmp);
        lags
    }
}

impl<T: Target> Target for TimedTarget<T> {
    fn apply(&self, op: &OpRecord) -> Result<(), TargetError> {
        let start = Instant::now();
        let outcome = self.inner.apply(op);
        self.clock.add(start);
        if let Some(anchor) = self.anchor.get() {
            let due_us = op.at as f64 / self.speedup;
            let lag_us = start.saturating_duration_since(*anchor).as_secs_f64() * 1e6 - due_us;
            self.lags_us.lock().expect("lag log poisoned").push(lag_us);
        }
        outcome
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Whether the allocator counts live bytes: only inside
/// [`retained_bytes`]. Everywhere else an allocation pays one predictable
/// branch.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, optionally counting live bytes.
pub struct CountingAlloc;

fn note(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the counter
// updates touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns, with its result, the heap bytes it allocated and
/// did not free. Counting is on only while `f` runs.
pub fn retained_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, LIVE.load(Ordering::Relaxed) - before)
}

/// This process's peak resident set in MB (10^6 bytes), from `getrusage`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `struct timeval`s, then 14 longs with
    // `ru_maxrss` (KiB) first; 18 words cover it on every 64-bit target.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, writable buffer at least as large as the
    // kernel's `struct rusage`, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.0[4] as f64 * 1024.0 / 1e6
}
