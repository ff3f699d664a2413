//! Experiment driver shared by the table/figure harness binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index); the functions
//! here do the work so that integration tests can assert on the same data
//! the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
mod jsonout;

use std::sync::Arc;

use flexfloat::backend::{Emulated, SoftFloat};
use flexfloat::{Engine, FpBackend, Recorder, TraceCounts, TypeConfig};
use tp_formats::TypeSystem;
use tp_fpu::FpuModel;
use tp_platform::{cross_validate, evaluate, CrossReport, PlatformParams, PlatformReport};
use tp_store::{tuned_record_cached, Store, TuningRecord};
use tp_tuner::{
    distributed_search, parallel_map, resolve_workers, validated_storage_config, SearchParams,
    Tunable, TuningOutcome,
};

pub use jsonout::{results_to_json, want_json};
// perfbench names these two through this crate; ROADMAP item 1 removes
// the re-export when perfbench calls `tp_store` directly.
pub use tp_store::{tuned_record, MEASURE_SET};

/// Emits the process's metrics snapshot to stdout if `TP_METRICS` asked
/// for an at-exit format: one `METRICS <json>` line for `json`,
/// a Prometheus text block between `METRICS-PROM-BEGIN`/`-END` markers
/// for `prom`, nothing for `off`/`on`. Harness binaries (`exp_*`) call
/// this last, after their regular output, so CI can harvest the snapshot
/// without disturbing the human-readable tables.
pub fn maybe_emit_metrics() {
    match tp_obs::mode() {
        tp_obs::MetricsMode::Json => {
            let snap = tp_obs::snapshot();
            println!("METRICS {}", tp_store::metrics_json(&snap).to_json());
        }
        tp_obs::MetricsMode::Prom => {
            let snap = tp_obs::snapshot();
            print!(
                "METRICS-PROM-BEGIN\n{}METRICS-PROM-END\n",
                tp_obs::render_prometheus(&snap)
            );
        }
        tp_obs::MetricsMode::Off | tp_obs::MetricsMode::On => {}
    }
    // The tracing analog: with TP_TRACE_EVENTS set, write the session's
    // span forest as Chrome trace-event JSON (no-op otherwise). Shared
    // here so every harness binary gets the dump for free.
    tp_obs::trace::maybe_dump();
}

/// Forwards every [`FpuModel`] issue to the `tp_obs::attr` attribution
/// table: `FpuModel::with_sink(Arc::new(ObsAttributionSink))` makes each
/// retired FP instruction land in the (kernel, phase, op-class,
/// format-pair) cell the ambient [`tp_obs::attr::set_labels`] scope
/// names. Lives here rather than in `tp-fpu` so the FPU crate stays free
/// of an observability dependency — it defines only the
/// [`tp_fpu::AttributionSink`] trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsAttributionSink;

impl tp_fpu::AttributionSink for ObsAttributionSink {
    fn record(
        &self,
        class: &'static str,
        from: &'static str,
        to: &'static str,
        cycles: u64,
        energy_pj: f64,
    ) {
        tp_obs::attr::record(class, from, to, cycles, energy_pj);
    }
}

/// The three output-quality thresholds of the evaluation
/// (the paper's `SQNR = 10⁻¹, 10⁻², 10⁻³`).
pub const THRESHOLDS: [f64; 3] = [1e-1, 1e-2, 1e-3];

/// Full evaluation of one application at one quality threshold.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub app: String,
    /// Quality threshold.
    pub threshold: f64,
    /// The tuning outcome (per-variable precisions).
    pub outcome: TuningOutcome,
    /// Variables mapped onto the platform's storage formats (V2).
    pub storage: TypeConfig,
    /// Trace counts of the all-binary32 baseline run.
    pub baseline_counts: TraceCounts,
    /// Trace counts of the tuned run.
    pub tuned_counts: TraceCounts,
    /// Platform model over the baseline run.
    pub baseline: PlatformReport,
    /// Platform model over the tuned run.
    pub tuned: PlatformReport,
    /// `true` when the tuning result was served from a [`Store`] instead
    /// of being computed — i.e. this evaluation ran **zero** kernel
    /// executions (search, storage validation and trace recording all
    /// skipped; the platform reports are recomputed from stored counts).
    pub cache_hit: bool,
}

impl AppResult {
    /// Tuned cycles relative to the binary32 baseline.
    #[must_use]
    pub fn cycle_ratio(&self) -> f64 {
        self.tuned.cycles.total() as f64 / self.baseline.cycles.total() as f64
    }

    /// Tuned memory accesses relative to the binary32 baseline.
    #[must_use]
    pub fn memory_ratio(&self) -> f64 {
        self.tuned.memory.total() as f64 / self.baseline.memory.total() as f64
    }

    /// Tuned energy relative to the binary32 baseline.
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        self.tuned.energy.total() / self.baseline.energy.total()
    }
}

/// The worker count the harness will actually use: the `TP_WORKERS`
/// environment variable if set, otherwise the machine's available
/// parallelism. Experiment binaries print this so every run records the
/// configuration it measured under.
#[must_use]
pub fn effective_workers() -> usize {
    resolve_workers(0)
}

/// Builds one of the three named execution backends:
/// `"emulated"` (the native-`f64` fast path), `"softfloat"` (pure-integer
/// kernels with exception flags), or `"fpu"` / `"fpu-model"` (the
/// `SmallFloatUnit` cycle/energy adapter). Returns `None` for anything
/// else.
///
/// `emulated` and `softfloat` are also `TP_BACKEND`'s spellings, which
/// core resolves itself; `fpu` can only be installed in-process, so core
/// rejects it as a `TP_BACKEND` value.
#[must_use]
pub fn backend_by_name(name: &str) -> Option<Arc<dyn FpBackend>> {
    match name {
        "emulated" => Some(Arc::new(Emulated)),
        "softfloat" => Some(Arc::new(SoftFloat::new())),
        "fpu" | "fpu-model" => Some(Arc::new(FpuModel::new())),
        _ => None,
    }
}

/// Every backend name accepted by [`backend_by_name`], for matrix sweeps.
pub const BACKEND_NAMES: [&str; 3] = ["emulated", "softfloat", "fpu"];

/// Tunes `app` at `threshold` and evaluates baseline + tuned runs on the
/// platform model, with the auto worker count (`TP_WORKERS` override) and
/// the auto result store (`TP_STORE_DIR`, default off).
#[must_use]
pub fn evaluate_app(app: &dyn Tunable, threshold: f64, params: &PlatformParams) -> AppResult {
    evaluate_app_with(app, threshold, params, 0)
}

/// [`evaluate_app`] with an explicit worker count for the precision search
/// (`0` = auto). The result is bit-identical at any worker count,
/// [`TuningOutcome::evaluations`] aside.
///
/// Routed through the environment-configured result store
/// ([`env::shared_store`], resolved once per process): with
/// `TP_STORE_DIR` set, a repeat evaluation is a cache hit and executes
/// zero kernel runs ([`AppResult::cache_hit`]).
#[must_use]
pub fn evaluate_app_with(
    app: &dyn Tunable,
    threshold: f64,
    params: &PlatformParams,
    workers: usize,
) -> AppResult {
    evaluate_app_in(env::shared_store(), app, threshold, params, workers)
}

/// [`evaluate_app_with`] against an explicit store (`None` = always
/// compute). This is the fully-injected entry point the tests drive; the
/// `_with`/plain variants delegate here. The daemon calls
/// [`tp_store::tuned_record_cached`] directly.
#[must_use]
pub fn evaluate_app_in(
    store: Option<&Store>,
    app: &dyn Tunable,
    threshold: f64,
    params: &PlatformParams,
    workers: usize,
) -> AppResult {
    let search = SearchParams::paper(threshold).with_workers(workers);
    let (record, cache_hit) = tuned_record_cached(store, app, search);
    let TuningRecord {
        outcome,
        storage,
        baseline_counts,
        tuned_counts,
    } = record;
    let baseline = evaluate(&baseline_counts, params);
    let tuned = evaluate(&tuned_counts, params);
    AppResult {
        app: app.name().to_owned(),
        threshold,
        outcome,
        storage,
        baseline_counts,
        tuned_counts,
        baseline,
        tuned,
        cache_hit,
    }
}

/// Evaluates the whole suite at one threshold, fanning the kernels out over
/// the auto worker count (`TP_WORKERS` override).
///
/// The budget is split between the two fan-out levels: one worker per
/// kernel first, and any surplus handed down to each kernel's precision
/// search. Results come back in suite order and are bit-identical to the
/// sequential evaluation at any worker count.
#[must_use]
pub fn evaluate_suite(threshold: f64, params: &PlatformParams) -> Vec<AppResult> {
    suite_fan_out(0, |app, inner| {
        evaluate_app_with(app, threshold, params, inner)
    })
}

/// The suite-level fan-out shared by every whole-suite entry point: one
/// worker per kernel first, the surplus handed to each kernel's own
/// search. `f` receives the kernel and its inner worker budget. The
/// suite itself comes from the shared kernel registry
/// (`tp_kernels::registry()`, via [`tp_kernels::all_kernels`]), in
/// registration order.
///
/// Ceiling division: a budget that does not divide evenly still reaches
/// the per-kernel searches (16 workers / 10 kernels -> 2 per search, not
/// 1). The transient oversubscription is at most `outer - 1` threads,
/// which the scheduler absorbs; dropping the surplus would instead force
/// every search sequential.
fn suite_fan_out<T: Send>(workers: usize, f: impl Fn(&dyn Tunable, usize) -> T + Sync) -> Vec<T> {
    let kernels = tp_kernels::all_kernels();
    let total = resolve_workers(workers);
    let outer = total.min(kernels.len()).max(1);
    let inner = total.div_ceil(outer);
    parallel_map(outer, kernels.len(), |i| f(kernels[i].as_ref(), inner))
}

/// Cross-validation of one application: the tuned configuration executed
/// on the `FpuModel` backend (microarchitectural measurement) versus the
/// analytic platform model over the recorded trace of the *same* run.
#[derive(Debug, Clone)]
pub struct AppCrossValidation {
    /// Application name.
    pub app: String,
    /// Quality threshold the configuration was tuned for.
    pub threshold: f64,
    /// The storage-mapped configuration that was executed.
    pub storage: TypeConfig,
    /// Measured-vs-analytic comparison of the FP portion of the run.
    pub report: CrossReport,
    /// `true` when the `FpuModel` outputs are bit-identical to the default
    /// emulated path (the backend contract; asserted by the test suites,
    /// reported here so the experiment binary shows it too).
    pub outputs_match: bool,
}

/// Tunes `app` at `threshold`, maps the result onto the platform's storage
/// formats, then executes the tuned configuration on the [`FpuModel`]
/// backend, returning measured (unit latencies + emulation charges) versus
/// analytic (trace-driven [`tp_platform::cycle_report`]) FP cycles.
///
/// The precision search itself runs on the caller's current backend (the
/// fast emulated path unless one is installed), since chosen formats are
/// backend-invariant; only the final measured run is pinned to `FpuModel`.
#[must_use]
pub fn cross_validate_app(
    app: &dyn Tunable,
    threshold: f64,
    params: &PlatformParams,
    workers: usize,
) -> AppCrossValidation {
    let search = SearchParams::paper(threshold).with_workers(workers);
    let outcome = distributed_search(app, search);
    let storage = validated_storage_config(app, &outcome, TypeSystem::V2, search.input_sets);

    let fpu = Arc::new(FpuModel::new());
    let (measured_out, counts) = Engine::with(fpu.clone(), || {
        Recorder::scoped(|| app.run(&storage, MEASURE_SET))
    });
    let report = cross_validate(&fpu.stats(), &counts, params);

    let default_out = app.run(&storage, MEASURE_SET);
    let outputs_match = measured_out.len() == default_out.len()
        && measured_out
            .iter()
            .zip(&default_out)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    AppCrossValidation {
        app: app.name().to_owned(),
        threshold,
        storage,
        report,
        outputs_match,
    }
}

/// [`cross_validate_app`] over the whole suite, fanned out like
/// [`evaluate_suite`] (`0` = auto worker count).
#[must_use]
pub fn cross_validate_suite(
    threshold: f64,
    params: &PlatformParams,
    workers: usize,
) -> Vec<AppCrossValidation> {
    suite_fan_out(workers, |app, inner| {
        cross_validate_app(app, threshold, params, inner)
    })
}

/// Formats a ratio as a percentage string (`0.876` → `" 87.6%"`).
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:5.1}%", ratio * 100.0)
}

/// Geometric-mean-free average of ratios (the paper reports arithmetic
/// averages of normalized values).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tp_kernels::Conv;
    use tp_store::test_util::TempDir;

    #[test]
    fn evaluate_app_produces_consistent_ratios() {
        let app = Conv::small();
        let r = evaluate_app(&app, 1e-1, &PlatformParams::paper());
        assert!(r.cycle_ratio() > 0.0 && r.cycle_ratio() < 2.0);
        assert!(r.memory_ratio() > 0.0 && r.memory_ratio() <= 1.0);
        assert!(r.energy_ratio() > 0.0 && r.energy_ratio() < 2.0);
        assert_eq!(r.app, "CONV");
    }

    /// A kernel wrapper counting every `run` invocation — including the
    /// default `reference` (which calls `run`) and `Trace::record`'s
    /// recording run, so "counter unchanged" really means *zero kernel
    /// executions of any kind*.
    struct Counting<T> {
        inner: T,
        runs: AtomicU64,
    }

    impl<T: Tunable> Counting<T> {
        fn new(inner: T) -> Self {
            Counting {
                inner,
                runs: AtomicU64::new(0),
            }
        }
        fn runs(&self) -> u64 {
            self.runs.load(Ordering::SeqCst)
        }
    }

    impl<T: Tunable> Tunable for Counting<T> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn variables(&self) -> Vec<flexfloat::VarSpec> {
            self.inner.variables()
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.run(config, input_set)
        }
    }

    #[test]
    fn warm_store_evaluation_executes_zero_kernel_runs() {
        let dir = TempDir::new("bench-warm");
        let store = Store::open_default(dir.path()).unwrap();
        let app = Counting::new(Conv::small());
        let params = PlatformParams::paper();

        let cold = evaluate_app_in(Some(&store), &app, 1e-1, &params, 1);
        assert!(!cold.cache_hit);
        let cold_runs = app.runs();
        assert!(cold_runs > 0, "cold run must have executed the kernel");

        // Warm: same job, any worker count — zero kernel executions.
        for workers in [1, 4, 8] {
            let warm = evaluate_app_in(Some(&store), &app, 1e-1, &params, workers);
            assert!(warm.cache_hit, "workers={workers}");
            assert_eq!(app.runs(), cold_runs, "workers={workers}: kernel ran");
            // Bit-identical to the cold computation, reports included.
            assert_eq!(warm.outcome, cold.outcome);
            assert_eq!(warm.storage, cold.storage);
            assert_eq!(warm.baseline_counts, cold.baseline_counts);
            assert_eq!(warm.tuned_counts, cold.tuned_counts);
            assert_eq!(warm.tuned.cycles.total(), cold.tuned.cycles.total());
        }

        // And bit-identical to a storeless computation.
        let direct = evaluate_app_in(None, &app, 1e-1, &params, 1);
        assert!(!direct.cache_hit);
        assert_eq!(direct.outcome, cold.outcome);
        assert_eq!(direct.storage, cold.storage);
    }

    #[test]
    fn distinct_jobs_do_not_share_cache_entries() {
        let dir = TempDir::new("bench-distinct");
        let store = Store::open_default(dir.path()).unwrap();
        let app = Counting::new(Conv::small());
        let params = PlatformParams::paper();
        let a = evaluate_app_in(Some(&store), &app, 1e-1, &params, 1);
        // Different threshold => different key => computed, not served.
        let b = evaluate_app_in(Some(&store), &app, 1e-2, &params, 1);
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn corrupted_entry_is_recomputed_transparently() {
        let dir = TempDir::new("bench-corrupt");
        let store = Store::open_default(dir.path()).unwrap();
        let app = Counting::new(Conv::small());
        let params = PlatformParams::paper();
        let cold = evaluate_app_in(Some(&store), &app, 1e-1, &params, 1);

        // Smash the single entry on disk.
        let entries = dir
            .path()
            .join(format!("v{}/entries", tp_store::FORMAT_VERSION));
        let entry = std::fs::read_dir(&entries)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        std::fs::write(entry.path(), b"garbage").unwrap();

        let before = app.runs();
        let again = evaluate_app_in(Some(&store), &app, 1e-1, &params, 1);
        assert!(!again.cache_hit, "corrupt entry must read as a miss");
        assert!(app.runs() > before, "recompute must actually run");
        assert_eq!(again.outcome, cold.outcome);
        // And the store healed: next read is a hit again.
        let warm = evaluate_app_in(Some(&store), &app, 1e-1, &params, 1);
        assert!(warm.cache_hit);
    }

    #[test]
    fn backend_by_name_resolves_all_names() {
        for name in BACKEND_NAMES {
            let b = backend_by_name(name).expect(name);
            // "fpu" is the short spelling of the fpu-model backend.
            assert!(b.name() == name || (name == "fpu" && b.name() == "fpu-model"));
        }
        assert!(backend_by_name("no-such-datapath").is_none());
    }

    #[test]
    fn cross_validation_smoke() {
        let app = Conv::small();
        let r = cross_validate_app(&app, 1e-1, &PlatformParams::paper(), 1);
        assert!(r.outputs_match, "FpuModel outputs diverged");
        assert_eq!(r.report.off_grid_ops, 0);
        assert!(r.report.measured_total() > 0);
        assert!(r.report.analytic_fp_cycles > 0);
        assert!(r.report.measured_energy_pj > 0.0);
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(0.876), " 87.6%");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
