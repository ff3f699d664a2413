//! The parallel-search determinism contract (DESIGN.md §5), pinned.
//!
//! `distributed_search` must return a **byte-identical** outcome at any
//! worker count: per-variable precisions, wide-range flags, and therefore
//! evaluation and storage configurations, and the evaluation count too.
//! The workers only tune input sets side by side; each set's search is
//! sequential, so every probe asks the same questions in the same order.

use flexfloat::Recorder;
use tp_bench::evaluate_app_with;
use tp_kernels::{all_kernels_small, Conv, Knn};
use tp_platform::PlatformParams;
use tp_tuner::{distributed_search, SearchParams, Tunable, TuningOutcome};

/// The chosen formats of a [`TuningOutcome`], in a directly comparable
/// form (the tests compare the evaluation count separately).
fn fingerprint(o: &TuningOutcome) -> String {
    let mut s = format!("{}|{:e}|{}", o.app, o.threshold, o.type_system);
    for v in &o.vars {
        s.push_str(&format!(
            "|{}:{}e{}m{}w{}:{}",
            v.spec.name,
            v.spec.elements,
            v.eval_format(o.type_system).exp_bits(),
            v.precision_bits,
            v.needs_wide_range,
            v.eval_format(o.type_system),
        ));
    }
    s
}

/// Two kernels, workers 1 vs 8: byte-identical outcome.
#[test]
fn two_kernels_workers_one_vs_eight() {
    for (app, threshold) in [
        (&Conv::small() as &dyn Tunable, 1e-2),
        (&Knn::small() as &dyn Tunable, 1e-1),
    ] {
        let seq = distributed_search(app, SearchParams::paper(threshold).with_workers(1));
        let par = distributed_search(app, SearchParams::paper(threshold).with_workers(8));
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "{}: workers=8 diverged from workers=1",
            app.name()
        );
        assert_eq!(seq.eval_config(), par.eval_config(), "{}", app.name());
        assert_eq!(seq.evaluations, par.evaluations, "{}", app.name());
    }
}

/// The full suite at the acceptance-criterion worker counts {1, 4, 8}.
#[test]
fn full_suite_workers_1_4_8() {
    for app in all_kernels_small() {
        let baseline = distributed_search(app.as_ref(), SearchParams::paper(1e-1).with_workers(1));
        for workers in [4usize, 8] {
            let outcome = distributed_search(
                app.as_ref(),
                SearchParams::paper(1e-1).with_workers(workers),
            );
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&outcome),
                "{}: workers={workers} diverged",
                app.name()
            );
            assert_eq!(
                baseline.evaluations,
                outcome.evaluations,
                "{}: workers={workers} evaluations",
                app.name()
            );
        }
    }
}

/// The verdict memo under parallel input sets: two input sets at four
/// workers serve the same memo hits, so an enclosing `Recorder` sees the
/// same totals, as at one worker.
#[test]
fn parallel_sets_keep_formats_and_recorded_totals() {
    for app in all_kernels_small() {
        let run = |workers: usize| {
            Recorder::scoped(|| {
                distributed_search(
                    app.as_ref(),
                    SearchParams {
                        input_sets: 2,
                        ..SearchParams::paper(1e-1).with_workers(workers)
                    },
                )
            })
        };
        let (seq, seq_counts) = run(1);
        let (par, par_counts) = run(4);
        assert_eq!(fingerprint(&seq), fingerprint(&par), "{}", app.name());
        assert_eq!(seq_counts, par_counts, "{}: recorded totals", app.name());
    }
}

/// The bench layer inherits the contract: storage mapping, trace counts and
/// platform reports of an `evaluate_app` run match at any worker count.
#[test]
fn evaluate_app_is_worker_count_invariant() {
    let app = Conv::small();
    let params = PlatformParams::paper();
    let seq = evaluate_app_with(&app, 1e-1, &params, 1);
    let par = evaluate_app_with(&app, 1e-1, &params, 8);
    assert_eq!(fingerprint(&seq.outcome), fingerprint(&par.outcome));
    assert_eq!(seq.storage, par.storage);
    assert_eq!(seq.baseline_counts, par.baseline_counts);
    assert_eq!(seq.tuned_counts, par.tuned_counts);
    assert_eq!(seq.baseline.cycles.total(), par.baseline.cycles.total());
    assert_eq!(seq.tuned.cycles.total(), par.tuned.cycles.total());
    assert_eq!(seq.tuned.energy.total(), par.tuned.energy.total());
}

/// Metrics are observational by contract (DESIGN.md §12): the obs layer
/// may count, time and bucket, but may never move a decision. The matrix
/// leg: chosen formats, storage mapping and trace counts bit-identical
/// under metrics {off, on} × workers {1, 4}.
///
/// `tp_obs::force_mode` is the programmatic spelling of `TP_METRICS` —
/// environment initialization routes through the same mode values — and
/// avoids mutating the process environment while sibling tests run
/// concurrently (flipping the mode mid-run is safe for them precisely
/// because of the contract this test pins).
#[test]
fn metrics_are_decision_transparent() {
    let app = Conv::small();
    let params = PlatformParams::paper();
    let matrix = [
        (tp_obs::MetricsMode::Off, 1usize),
        (tp_obs::MetricsMode::Off, 4),
        (tp_obs::MetricsMode::On, 1),
        (tp_obs::MetricsMode::On, 4),
    ];
    let runs: Vec<_> = matrix
        .iter()
        .map(|&(mode, workers)| {
            tp_obs::force_mode(mode);
            let record = evaluate_app_with(&app, 1e-1, &params, workers);
            (mode, workers, record)
        })
        .collect();
    tp_obs::force_mode(tp_obs::MetricsMode::Off);

    let (_, _, want) = &runs[0];
    for (mode, workers, record) in &runs {
        let tag = format!("metrics={mode} workers={workers}");
        assert_eq!(
            fingerprint(&record.outcome),
            fingerprint(&want.outcome),
            "{tag}: formats moved"
        );
        assert_eq!(record.storage, want.storage, "{tag}");
        assert_eq!(
            record.baseline_counts, want.baseline_counts,
            "{tag}: baseline trace counts moved"
        );
        assert_eq!(
            record.tuned_counts, want.tuned_counts,
            "{tag}: tuned trace counts moved"
        );
        assert_eq!(
            record.tuned.energy.total(),
            want.tuned.energy.total(),
            "{tag}"
        );
    }
    // Nor may the evaluation count move with the metrics mode.
    for pair in [(0usize, 2usize), (1, 3)] {
        let (_, w, off) = &runs[pair.0];
        let (_, _, on) = &runs[pair.1];
        assert_eq!(
            off.outcome.evaluations, on.outcome.evaluations,
            "workers={w}: metrics mode changed the evaluation count"
        );
    }
}

/// The tracing leg of the same matrix (DESIGN.md §13): causal span-tree
/// tracing records ids, parents and timestamps, but may never move a
/// decision. Chosen formats, storage mapping and trace counts
/// bit-identical under tracing {off, on} × workers {1, 4}.
///
/// `tp_obs::force_tracing` is the programmatic spelling of
/// `TP_TRACE_EVENTS` being set, exactly as `force_mode` is for
/// `TP_METRICS` (and for the same reason: no process-environment
/// mutation while sibling tests run).
#[test]
fn tracing_is_decision_transparent() {
    let app = Conv::small();
    let params = PlatformParams::paper();
    let matrix = [(false, 1usize), (false, 4), (true, 1), (true, 4)];
    let runs: Vec<_> = matrix
        .iter()
        .map(|&(tracing, workers)| {
            tp_obs::force_tracing(tracing);
            let record = evaluate_app_with(&app, 1e-1, &params, workers);
            (tracing, workers, record)
        })
        .collect();
    tp_obs::force_tracing(false);

    let (_, _, want) = &runs[0];
    for (tracing, workers, record) in &runs {
        let tag = format!("tracing={tracing} workers={workers}");
        assert_eq!(
            fingerprint(&record.outcome),
            fingerprint(&want.outcome),
            "{tag}: formats moved"
        );
        assert_eq!(record.storage, want.storage, "{tag}");
        assert_eq!(
            record.baseline_counts, want.baseline_counts,
            "{tag}: baseline trace counts moved"
        );
        assert_eq!(
            record.tuned_counts, want.tuned_counts,
            "{tag}: tuned trace counts moved"
        );
        assert_eq!(
            record.tuned.energy.total(),
            want.tuned.energy.total(),
            "{tag}"
        );
    }
    // Nor may the evaluation count move with tracing.
    for pair in [(0usize, 2usize), (1, 3)] {
        let (_, w, off) = &runs[pair.0];
        let (_, _, on) = &runs[pair.1];
        assert_eq!(
            off.outcome.evaluations, on.outcome.evaluations,
            "workers={w}: tracing changed the evaluation count"
        );
    }
    // And tracing-on actually recorded something — the transparency claim
    // is vacuous if the traced legs silently didn't trace.
    assert!(
        !tp_obs::trace::all_spans().is_empty(),
        "tracing-on legs recorded no spans"
    );
}

/// Worker-count invariance composes with backend choice: the chosen
/// formats agree across the full {backend} × {workers} matrix. (Backends
/// are bit-identical — tests/backends.rs — so scheduling differences on a
/// slower datapath still cannot move any decision.)
#[test]
fn determinism_holds_under_every_backend() {
    let app = Conv::small();
    let want = fingerprint(&distributed_search(
        &app,
        SearchParams::paper(1e-1).with_workers(1),
    ));
    for name in tp_bench::BACKEND_NAMES {
        for workers in [1usize, 4] {
            let backend = tp_bench::backend_by_name(name).expect(name);
            let outcome = flexfloat::Engine::with(backend, || {
                distributed_search(&app, SearchParams::paper(1e-1).with_workers(workers))
            });
            assert_eq!(
                fingerprint(&outcome),
                want,
                "backend={name} workers={workers} diverged"
            );
        }
    }
}

/// `TP_WORKERS` only matters when the requested count is 0 (auto); an
/// explicit worker count must win over the environment.
///
/// Mutating the environment is safe in *this* test binary: every other
/// test here passes explicit worker counts, and `resolve_workers` returns
/// before reading the environment when the request is non-zero.
#[test]
fn explicit_workers_beat_env() {
    std::env::set_var("TP_WORKERS", "3");
    assert_eq!(tp_tuner::resolve_workers(5), 5, "explicit beats env");
    assert_eq!(tp_tuner::resolve_workers(0), 3, "auto reads env");
    // An invalid TP_WORKERS fails fast (like every TP_* knob — see
    // tp_bench::env): a typo must be a crash, not a silent fallback that
    // reads as a performance regression.
    std::env::set_var("TP_WORKERS", "not a number");
    assert!(
        std::panic::catch_unwind(|| tp_tuner::resolve_workers(0)).is_err(),
        "garbage TP_WORKERS must fail fast"
    );
    std::env::set_var("TP_WORKERS", "0");
    assert!(
        std::panic::catch_unwind(|| tp_tuner::resolve_workers(0)).is_err(),
        "zero TP_WORKERS must fail fast"
    );
    std::env::remove_var("TP_WORKERS");
    assert!(tp_tuner::resolve_workers(0) >= 1);

    // And the searches the env steers agree with any explicit count.
    let app = Knn::small();
    let a = distributed_search(&app, SearchParams::paper(1e-2).with_workers(2));
    let b = distributed_search(&app, SearchParams::paper(1e-2).with_workers(6));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
