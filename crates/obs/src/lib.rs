//! `tp-obs`: workspace-wide observability — counters, gauges,
//! log2-bucketed latency histograms and span timers, recorded
//! thread-locally and absorbed into one global registry.
//!
//! # Why this crate exists (and why it has no dependencies)
//!
//! The paper's argument is quantitative, but until this crate the
//! *running* system was a black box: `tp-serve` had aggregate counters
//! with no latency accounting, store hit/miss/corruption behavior was
//! invisible at runtime, and replay divergence rates only surfaced in
//! offline `exp_*` bins. Every layer of the workspace needs to record
//! here — the store, the tuner, the trace engine, the server — so this
//! crate sits at the very bottom of the dependency graph and depends on
//! nothing. Snapshot serialization to the shared deterministic JSON
//! schema consequently lives *above* it, in `tp_store::obs_json` (the
//! store's serializer cannot be used from below); the Prometheus text
//! exposition needs no serializer and lives here.
//!
//! # Hot-path discipline (the `Recorder` pattern)
//!
//! Recording mirrors `flexfloat::Recorder`'s architecture:
//!
//! * every record call starts with a **single thread-local enabled
//!   check** ([`enabled`]) and returns immediately when metrics are off
//!   (`TP_METRICS` unset or `off`) — the off path allocates nothing,
//!   takes no lock, and reads no clock;
//! * when enabled, events land in a **thread-local shard** (no
//!   synchronization on the record path);
//! * shards reach the global [`snapshot`] through an explicit
//!   [`absorb`] — and automatically when a thread exits, so short-lived
//!   pool workers never lose data. Merging is commutative and
//!   associative ([`Hist::merge`]), so absorb order cannot change a
//!   snapshot's tallies.
//!
//! [`Span::enter`] timers record their histogram sample on drop,
//! including during unwinding — panic-safe the same way
//! `Recorder::scoped`'s restore guard is.
//!
//! # Metrics are observational, by contract
//!
//! Nothing in this crate feeds back into a decision: chosen formats,
//! `TraceCounts`, store contents and `JobKey`s are bit-identical with
//! metrics on or off (pinned by `tests/determinism.rs`). That is why
//! `TP_METRICS` — like `TP_WORKERS` and `SearchParams::batch` — is
//! excluded from the store's `JobKey`.
//!
//! # The knob
//!
//! `TP_METRICS` = `off` (default) | `on` | `json` | `prom`. All four
//! enable/disable *collection* the same way (`off` vs the rest); `json`
//! and `prom` additionally ask harness binaries to emit a snapshot in
//! that format at exit (`tp_bench::maybe_emit_metrics`). Unknown values
//! fail fast with a panic, like every `TP_*` knob (see `tp_bench::env`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
mod hist;
pub mod trace;

pub use hist::{bucket_upper_bound, Hist, HistSnapshot, BUCKET_COUNT};
pub use trace::{force_tracing, tracing_enabled, SpanContext, SpanRecord};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What `TP_METRICS` selects. `Off` disables collection entirely; the
/// other three all collect, and `Json`/`Prom` additionally pick an
/// at-exit snapshot format for harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsMode {
    /// No collection (the default): record calls cost one thread-local
    /// check.
    Off,
    /// Collect; nothing is printed unless something asks for a snapshot.
    On,
    /// Collect, and harness binaries print a JSON snapshot at exit.
    Json,
    /// Collect, and harness binaries print Prometheus text at exit.
    Prom,
}

impl MetricsMode {
    /// Whether this mode collects at all.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        !matches!(self, MetricsMode::Off)
    }

    /// The canonical knob spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricsMode::Off => "off",
            MetricsMode::On => "on",
            MetricsMode::Json => "json",
            MetricsMode::Prom => "prom",
        }
    }

    /// Resolves the process mode from `TP_METRICS` (first call wins; the
    /// result is cached process-wide). Empty or unset means [`Off`]
    /// (`TP_METRICS= cmd` switches metrics off in a wrapper script, like
    /// `TP_STORE_DIR`).
    ///
    /// # Panics
    ///
    /// On an unknown value — a typo must be a crash at startup, not a
    /// silent "why are there no metrics" (`tp_bench::env`'s fail-fast
    /// contract).
    ///
    /// [`Off`]: MetricsMode::Off
    #[must_use]
    pub fn from_env() -> MetricsMode {
        mode()
    }
}

impl FromStr for MetricsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<MetricsMode, String> {
        match s {
            "off" => Ok(MetricsMode::Off),
            "on" => Ok(MetricsMode::On),
            "json" => Ok(MetricsMode::Json),
            "prom" => Ok(MetricsMode::Prom),
            other => Err(format!(
                "unknown metrics mode {other:?} (use \"off\", \"on\", \"json\" or \"prom\")"
            )),
        }
    }
}

impl std::fmt::Display for MetricsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Process mode slot: 0 = unresolved, otherwise MetricsMode discriminant+1.
static MODE: AtomicU8 = AtomicU8::new(0);
// Bumped by `force_mode` so threads holding a cached enabled bit
// revalidate. Starts at 1 so a fresh thread cell (generation 0) never
// matches.
static GENERATION: AtomicU32 = AtomicU32::new(1);

fn encode(mode: MetricsMode) -> u8 {
    match mode {
        MetricsMode::Off => 1,
        MetricsMode::On => 2,
        MetricsMode::Json => 3,
        MetricsMode::Prom => 4,
    }
}

fn decode(byte: u8) -> Option<MetricsMode> {
    match byte {
        1 => Some(MetricsMode::Off),
        2 => Some(MetricsMode::On),
        3 => Some(MetricsMode::Json),
        4 => Some(MetricsMode::Prom),
        _ => None,
    }
}

/// The process's metrics mode: `TP_METRICS` resolved on first use (see
/// [`MetricsMode::from_env`]), unless overridden by [`force_mode`].
#[must_use]
pub fn mode() -> MetricsMode {
    if let Some(mode) = decode(MODE.load(Ordering::Relaxed)) {
        return mode;
    }
    let resolved = match std::env::var("TP_METRICS") {
        Ok(v) if v.is_empty() => MetricsMode::Off,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e: String| panic!("TP_METRICS={v:?}: {e}")),
        Err(std::env::VarError::NotPresent) => MetricsMode::Off,
        Err(e) => panic!("TP_METRICS is set but unreadable: {e}"),
    };
    // A racing first resolver read the same environment; either store
    // wins with the same value.
    MODE.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Overrides the process mode at runtime — the hook the determinism
/// matrix and A/B harnesses use to compare metrics-on against
/// metrics-off inside one process (`TP_METRICS` itself is resolved once
/// and routes through the same parser). Bumps a generation counter so
/// every thread's cached enabled bit revalidates on its next record
/// call.
pub fn force_mode(mode: MetricsMode) {
    MODE.store(encode(mode), Ordering::Relaxed);
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

thread_local! {
    // (generation, enabled): one Cell read on the hot path, revalidated
    // against GENERATION only when `force_mode` has been called since.
    static ENABLED: Cell<(u32, bool)> = const { Cell::new((0, false)) };
    static SHARD: LocalShard = const { LocalShard(RefCell::new(Shard::new())) };
}

/// The single check every record call starts with: is collection on?
/// Reads a thread-local cell (plus one relaxed atomic generation load to
/// stay correct under [`force_mode`]); no lock, no allocation.
#[must_use]
pub fn enabled() -> bool {
    let generation = GENERATION.load(Ordering::Relaxed);
    ENABLED.with(|cell| {
        let (cached_generation, cached) = cell.get();
        if cached_generation == generation {
            return cached;
        }
        let now = mode().is_enabled();
        cell.set((generation, now));
        now
    })
}

/// A gauge cell: the most recent value and the high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GaugeCell {
    last: u64,
    max: u64,
}

/// One shard of metrics state — the thread-local recording target, and
/// (same shape) the global absorb target. `BTreeMap` keeps iteration,
/// and therefore every snapshot, deterministically ordered.
#[derive(Debug)]
struct Shard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeCell>,
    hists: BTreeMap<String, Hist>,
}

impl Shard {
    const fn new() -> Shard {
        Shard {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds `other` into `self`. Counter and histogram merging is
    /// commutative and associative; a gauge's `last` is last-absorber-
    /// wins (cross-thread "current value" has no better definition) and
    /// its high-water mark is an exact max.
    fn merge(&mut self, other: Shard) {
        for (name, n) in other.counters {
            let slot = self.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        for (name, g) in other.gauges {
            let slot = self.gauges.entry(name).or_default();
            slot.last = g.last;
            slot.max = slot.max.max(g.max);
        }
        for (name, h) in other.hists {
            self.hists.entry(name).or_default().merge(&h);
        }
    }
}

/// Thread-local wrapper whose `Drop` flushes the shard into the global
/// registry — the backstop that keeps short-lived pool workers' data
/// from evaporating when they exit without an explicit [`absorb`].
struct LocalShard(RefCell<Shard>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        let shard = std::mem::replace(&mut *self.0.borrow_mut(), Shard::new());
        if !shard.is_empty() {
            GLOBAL
                .lock()
                .expect("metrics registry poisoned")
                .merge(shard);
        }
    }
}

static GLOBAL: Mutex<Shard> = Mutex::new(Shard::new());

/// Adds `delta` to the counter `name`. No-op when metrics are off.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    SHARD.with(|shard| {
        let mut shard = shard.0.borrow_mut();
        match shard.counters.get_mut(name) {
            Some(slot) => *slot = slot.saturating_add(delta),
            None => {
                shard.counters.insert(name.to_owned(), delta);
            }
        }
    });
}

/// Increments the counter `name`. No-op when metrics are off.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Sets the gauge `name` to `value`, tracking its high-water mark. No-op
/// when metrics are off.
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    SHARD.with(|shard| {
        let mut shard = shard.0.borrow_mut();
        match shard.gauges.get_mut(name) {
            Some(slot) => {
                slot.last = value;
                slot.max = slot.max.max(value);
            }
            None => {
                shard.gauges.insert(
                    name.to_owned(),
                    GaugeCell {
                        last: value,
                        max: value,
                    },
                );
            }
        }
    });
}

/// Records one sample (nanoseconds by convention) into the histogram
/// `name`. No-op when metrics are off.
pub fn observe_ns(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    SHARD.with(|shard| {
        let mut shard = shard.0.borrow_mut();
        match shard.hists.get_mut(name) {
            Some(h) => h.record(ns),
            None => {
                let mut h = Hist::new();
                h.record(ns);
                shard.hists.insert(name.to_owned(), h);
            }
        }
    });
}

/// A span timer: records the elapsed nanoseconds into the histogram
/// `name` when dropped — including during a panic's unwind, so a span
/// around a failing search still accounts its duration (the
/// `Recorder::scoped` panic-safety idiom) — and, when tracing is on
/// ([`trace::tracing_enabled`]), additionally records a node in the
/// session's span tree: the span gets a process-unique id, the id of
/// the span active on this thread when it started, and the trace id in
/// scope (see the [`trace`] module). When both metrics and tracing are
/// off, `enter` is two thread-local checks and the span is inert: no
/// clock read, no allocation.
#[must_use = "a Span records on drop; binding it to _ drops immediately"]
pub struct Span {
    name: Option<String>,
    metrics_start: Option<Instant>,
    traced: Option<trace::TraceArm>,
}

impl Span {
    /// Starts a span named `name` (only materialized when metrics or
    /// tracing are on).
    pub fn enter(name: &str) -> Span {
        Span::start(name, None, true)
    }

    /// Starts a span as a fresh **trace root**: no parent, carrying
    /// `trace_id`. This is how a server turns an incoming SUBMIT into
    /// the root of that request's tree (the trace id came off the wire
    /// or was just minted). Trace-only by design — the call sites that
    /// need a root already time the same interval into a histogram, and
    /// arming both here would double-count it. Inert when tracing is
    /// off.
    pub fn enter_traced(name: &str, trace_id: u64) -> Span {
        Span::start(name, Some(trace_id), false)
    }

    fn start(name: &str, root_trace: Option<u64>, metrics_wanted: bool) -> Span {
        let metrics = metrics_wanted && enabled();
        let tracing = trace::tracing_enabled();
        if !metrics && !tracing {
            return Span {
                name: None,
                metrics_start: None,
                traced: None,
            };
        }
        let now = Instant::now();
        Span {
            name: Some(name.to_owned()),
            metrics_start: metrics.then_some(now),
            traced: tracing.then(|| trace::TraceArm::start(now, root_trace)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        let end = Instant::now();
        if let Some(arm) = self.traced.take() {
            arm.finish(&name, end);
        }
        if let Some(start) = self.metrics_start.take() {
            let ns =
                u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            observe_ns(&name, ns);
        }
    }
}

/// Flushes the calling thread's shard into the global registry. Cheap
/// when there is nothing to flush. Long-lived threads (server handlers,
/// workers) call this at natural boundaries — request served, job
/// settled — so a [`snapshot`] taken from another thread is current;
/// exiting threads flush automatically.
pub fn absorb() {
    if !enabled() {
        return;
    }
    attr::absorb_attr();
    let _ = SHARD.try_with(|shard| {
        let taken = std::mem::replace(&mut *shard.0.borrow_mut(), Shard::new());
        if !taken.is_empty() {
            GLOBAL
                .lock()
                .expect("metrics registry poisoned")
                .merge(taken);
        }
    });
}

/// A deterministic export of the global registry: every metric in
/// lexicographic name order. Produced by [`snapshot`]; serialized by
/// `tp_store::obs_json` (JSON) and [`render_prometheus`] (text).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// One entry per gauge, name-ordered.
    pub gauges: Vec<GaugeSnapshot>,
    /// `(name, histogram)` per histogram, name-ordered.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter `name`'s value, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The gauge name.
    pub name: String,
    /// Most recently set value (last absorber wins across threads).
    pub last: u64,
    /// High-water mark across all absorbed shards.
    pub max: u64,
}

/// Absorbs the calling thread's shard, then snapshots the global
/// registry. Data still sitting in *other* live threads' shards is not
/// included until those threads absorb or exit — which is why the
/// instrumented layers absorb at request/job boundaries.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    absorb();
    let global = GLOBAL.lock().expect("metrics registry poisoned");
    MetricsSnapshot {
        counters: global
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .collect(),
        gauges: global
            .gauges
            .iter()
            .map(|(n, g)| GaugeSnapshot {
                name: n.clone(),
                last: g.last,
                max: g.max,
            })
            .collect(),
        hists: global
            .hists
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect(),
    }
}

/// Clears the calling thread's shard and the global registry. For tests
/// and A/B harnesses that need isolated tallies; live services never
/// call this.
pub fn reset() {
    let _ = SHARD.try_with(|shard| {
        *shard.0.borrow_mut() = Shard::new();
    });
    *GLOBAL.lock().expect("metrics registry poisoned") = Shard::new();
}

/// A metric name in Prometheus spelling: `tp_` prefix, every character
/// outside `[A-Za-z0-9_:]` replaced by `_` (dots become underscores).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("tp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters as `counter`, gauges as two `gauge` series (`…` and
/// `…_max`), histograms as cumulative `histogram` series with the
/// bucket upper edges as `le` labels.
#[must_use]
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let p = prom_name(name);
        let _ = writeln!(out, "# TYPE {p} counter\n{p} {value}");
    }
    for gauge in &snapshot.gauges {
        let p = prom_name(&gauge.name);
        let _ = writeln!(
            out,
            "# TYPE {p} gauge\n{p} {}\n# TYPE {p}_max gauge\n{p}_max {}",
            gauge.last, gauge.max
        );
    }
    for (name, hist) in &snapshot.hists {
        let p = prom_name(name);
        let _ = writeln!(out, "# TYPE {p} histogram");
        let mut cumulative = 0u64;
        for (upper, count) in &hist.buckets {
            cumulative = cumulative.saturating_add(*count);
            let _ = writeln!(out, "{p}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(
            out,
            "{p}_bucket{{le=\"+Inf\"}} {}\n{p}_sum {}\n{p}_count {}",
            hist.count, hist.sum, hist.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that forces the process-wide metrics mode or
    /// resets a registry: the test threads share both.
    pub(crate) static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The whole suite shares one process; force metrics on and reset
    /// around each test body. Tests that need the off path force it
    /// explicitly and restore.
    fn with_metrics_on(f: impl FnOnce()) {
        let _guard = MODE_LOCK.lock().expect("metrics test lock poisoned");
        force_mode(MetricsMode::On);
        reset();
        f();
        reset();
        force_mode(MetricsMode::Off);
    }

    #[test]
    fn mode_parsing_round_trips_and_rejects_garbage() {
        for mode in [
            MetricsMode::Off,
            MetricsMode::On,
            MetricsMode::Json,
            MetricsMode::Prom,
        ] {
            assert_eq!(mode.as_str().parse::<MetricsMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("ON".parse::<MetricsMode>().is_err());
        assert!("yes".parse::<MetricsMode>().is_err());
        assert!(!MetricsMode::Off.is_enabled());
        assert!(MetricsMode::Prom.is_enabled());
    }

    #[test]
    fn off_mode_records_nothing() {
        let _guard = MODE_LOCK.lock().expect("metrics test lock poisoned");
        force_mode(MetricsMode::Off);
        reset();
        counter_inc("test.off.counter");
        gauge_set("test.off.gauge", 9);
        observe_ns("test.off.hist", 100);
        drop(Span::enter("test.off.span"));
        force_mode(MetricsMode::On);
        let snap = snapshot();
        assert_eq!(snap.counter("test.off.counter"), None);
        assert!(snap.hist("test.off.hist").is_none());
        force_mode(MetricsMode::Off);
    }

    #[test]
    fn counters_gauges_hists_reach_the_snapshot() {
        with_metrics_on(|| {
            counter_add("test.basic.counter", 5);
            counter_inc("test.basic.counter");
            gauge_set("test.basic.gauge", 3);
            gauge_set("test.basic.gauge", 7);
            gauge_set("test.basic.gauge", 2);
            observe_ns("test.basic.hist", 1000);
            let snap = snapshot();
            assert_eq!(snap.counter("test.basic.counter"), Some(6));
            let gauge = snap
                .gauges
                .iter()
                .find(|g| g.name == "test.basic.gauge")
                .unwrap();
            assert_eq!((gauge.last, gauge.max), (2, 7));
            assert_eq!(snap.hist("test.basic.hist").unwrap().count, 1);
        });
    }

    #[test]
    fn worker_thread_shards_are_absorbed_on_exit() {
        with_metrics_on(|| {
            // Plain threads, not scoped ones: `join` returns only after a
            // thread's TLS destructors (which absorb its shard) have run,
            // while a scope can end before them.
            let threads: Vec<_> = (0..4)
                .map(|_| std::thread::spawn(|| counter_inc("test.threads.counter")))
                .collect();
            for thread in threads {
                thread.join().expect("counter thread panicked");
            }
            assert_eq!(snapshot().counter("test.threads.counter"), Some(4));
        });
    }

    #[test]
    fn span_records_on_drop_even_through_panic() {
        with_metrics_on(|| {
            let result = std::panic::catch_unwind(|| {
                let _span = Span::enter("test.span.panicking");
                panic!("boom");
            });
            assert!(result.is_err());
            absorb();
            assert_eq!(snapshot().hist("test.span.panicking").unwrap().count, 1);
        });
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        with_metrics_on(|| {
            counter_add("test.prom.counter", 3);
            gauge_set("test.prom.gauge", 8);
            observe_ns("test.prom.hist", 5);
            observe_ns("test.prom.hist", 500);
            let text = render_prometheus(&snapshot());
            assert!(text.contains("tp_test_prom_counter 3"), "{text}");
            assert!(text.contains("tp_test_prom_gauge_max 8"), "{text}");
            assert!(text.contains("tp_test_prom_hist_count 2"), "{text}");
            assert!(
                text.contains("tp_test_prom_hist_bucket{le=\"+Inf\"} 2"),
                "{text}"
            );
        });
    }
}
