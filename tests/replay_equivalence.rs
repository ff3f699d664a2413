//! The record/replay equivalence contract (DESIGN.md §7), pinned.
//!
//! Three layers:
//!
//! 1. **Trace-level**: for every kernel, a recorded tape replayed under the
//!    recorded configuration reproduces the recording bit for bit; replayed
//!    under arbitrary candidate configurations it either matches the live
//!    run bit for bit or reports divergence (never a wrong output).
//! 2. **Tuner-level**: the tuner no longer records or replays (it runs
//!    every candidate live, behind a per-search verdict memo), so both
//!    `TunerMode`s must return the same chosen formats and evaluation
//!    counts across the small suite × backends × worker counts, across the
//!    paper-size suite at the tightest threshold, and on observed threads
//!    (a non-native backend or a running `Recorder`).
//! 3. **Divergence guard**: a deliberately value-dependent micro-kernel
//!    raises `Divergent` at the trace level, and both modes still tune it
//!    to the same formats.

use std::sync::Arc;

use flexfloat::backend::{Emulated, SoftFloat};
use flexfloat::{Engine, Fx, Recorder, TypeConfig, VarSpec};
use proptest::prelude::*;
use tp_formats::{FormatKind, ALL_KINDS};
use tp_fpu::FpuModel;
use tp_kernels::all_kernels_small;
use tp_trace::{Replayed, Trace};
use tp_tuner::{
    distributed_search, ReplaySummary, SearchParams, Tunable, TunerMode, TuningOutcome,
};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn fingerprint(o: &TuningOutcome) -> String {
    let mut s = format!(
        "{}|{:e}|{}|{}",
        o.app, o.threshold, o.type_system, o.evaluations
    );
    for v in &o.vars {
        s.push_str(&format!(
            "|{}:p{}w{}",
            v.spec.name, v.precision_bits, v.needs_wide_range
        ));
    }
    s
}

/// Layer 1, fixed matrix: replay under the recorded config is the recorded
/// run; replay under every uniform named-format config matches live or
/// diverges.
#[test]
fn every_kernel_replays_bit_identically() {
    for app in all_kernels_small() {
        let app = app.as_ref();
        for set in 0..2 {
            let trace = Trace::record(&app.variables(), |cfg| app.run(cfg, set))
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));

            // Under the recorded configuration the tape *is* the run.
            let replayed = trace
                .replay(trace.recorded_config())
                .output()
                .expect("recorded config cannot diverge from itself");
            assert_eq!(
                bits(&replayed),
                bits(trace.recorded_outputs()),
                "{} set {set}",
                app.name()
            );

            for kind in ALL_KINDS {
                let cfg = TypeConfig::uniform(kind.format());
                match trace.replay(&cfg) {
                    Replayed::Output(out) => {
                        let live = app.run(&cfg, set);
                        assert_eq!(
                            bits(&out),
                            bits(&live),
                            "{} set {set} uniform {kind}",
                            app.name()
                        );
                    }
                    Replayed::Divergent { .. } => {} // live fallback territory
                }
            }
        }
    }
}

/// One kernel with the traces of its first two input sets.
type TracedKernel = (Box<dyn Tunable>, Vec<Trace>);

/// Traces for the whole small suite, recorded once and shared by the
/// property cases below.
fn traced_suite() -> &'static [TracedKernel] {
    use std::sync::OnceLock;
    static TRACED: OnceLock<Vec<TracedKernel>> = OnceLock::new();
    TRACED.get_or_init(|| {
        all_kernels_small()
            .into_iter()
            .map(|app| {
                let traces = (0..2)
                    .map(|set| {
                        Trace::record(&app.variables(), |cfg| app.run(cfg, set))
                            .unwrap_or_else(|e| panic!("{}: {e}", app.name()))
                    })
                    .collect();
                (app, traces)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layer 1, randomized: per-variable random storage-format assignments.
    /// A replay either matches the live run bit for bit or diverges —
    /// never a silently wrong output.
    #[test]
    fn replay_matches_live_under_random_configs(
        kinds in proptest::collection::vec(0usize..4, 8),
    ) {
        for (app, traces) in traced_suite() {
            let vars = app.variables();
            let mut cfg = TypeConfig::baseline();
            for (spec, &k) in vars.iter().zip(kinds.iter().cycle()) {
                cfg.set(spec.name, ALL_KINDS[k].format());
            }
            for (set, trace) in traces.iter().enumerate() {
                if let Replayed::Output(out) = trace.replay(&cfg) {
                    prop_assert_eq!(
                        bits(&out),
                        bits(&app.run(&cfg, set)),
                        "{} set {} cfg {}",
                        app.name(),
                        set,
                        cfg
                    );
                }
            }
        }
    }
}

/// Layer 2, the acceptance matrix: Replay ≡ Live in chosen formats (and
/// evaluation counts) for every kernel × backend × worker count — and
/// batched replay ≡ sequential replay in the *entire* outcome, replay
/// summary included, over the same matrix. One batched structure-of-arrays
/// pass over a kernel's input-set tapes must be observationally equal to
/// replaying each set on its own.
///
/// The tuner no longer replays, so every leg now runs live and
/// `with_batch` selects nothing; the legs stay until the benchmark stops
/// naming the switch.
#[test]
fn replay_mode_chooses_identical_formats_across_backends_and_workers() {
    for app in all_kernels_small() {
        let app = app.as_ref();
        let live = distributed_search(
            app,
            SearchParams::paper(1e-1)
                .with_workers(1)
                .with_mode(TunerMode::Live),
        );
        for backend_name in tp_bench::BACKEND_NAMES {
            for workers in [1usize, 4] {
                let backend = tp_bench::backend_by_name(backend_name).expect(backend_name);
                let params = SearchParams::paper(1e-1)
                    .with_workers(workers)
                    .with_mode(TunerMode::Replay);
                let batched =
                    Engine::with(backend, || distributed_search(app, params.with_batch(true)));
                let backend = tp_bench::backend_by_name(backend_name).expect(backend_name);
                let sequential = Engine::with(backend, || {
                    distributed_search(app, params.with_batch(false))
                });
                for replay in [&batched, &sequential] {
                    assert_eq!(
                        fingerprint(&live),
                        fingerprint(replay),
                        "{}: backend={backend_name} workers={workers}",
                        app.name()
                    );
                    assert_eq!(
                        live.eval_config(),
                        replay.eval_config(),
                        "{}: backend={backend_name} workers={workers}",
                        app.name()
                    );
                }
                // Batching must be invisible end to end: same formats,
                // same evaluation count, same replayed/diverged tallies.
                assert_eq!(
                    batched,
                    sequential,
                    "{}: backend={backend_name} workers={workers}",
                    app.name()
                );
            }
        }
    }
}

/// Layer 2 at paper size: all ten registry kernels at the tightest
/// threshold and the default worker count. Live, sequential replay and
/// batched replay choose the same format for every variable and spend the
/// same number of evaluations, and batching leaves the replay summary
/// unchanged.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper size: run with --release")]
fn paper_size_modes_choose_identical_formats() {
    for app in tp_kernels::all_kernels() {
        let app = app.as_ref();
        let paper = SearchParams::paper(1e-3);
        let live = distributed_search(app, paper.with_mode(TunerMode::Live));
        let replay = paper.with_mode(TunerMode::Replay);
        let sequential = distributed_search(app, replay.with_batch(false));
        let batched = distributed_search(app, replay.with_batch(true));
        for (engine, outcome) in [("sequential", &sequential), ("batched", &batched)] {
            assert_eq!(live.vars.len(), outcome.vars.len(), "{}", app.name());
            for (a, b) in live.vars.iter().zip(&outcome.vars) {
                assert_eq!(
                    (a.precision_bits, a.needs_wide_range),
                    (b.precision_bits, b.needs_wide_range),
                    "{}/{}: {engine} replay changed a chosen format",
                    app.name(),
                    a.spec.name
                );
            }
            assert_eq!(
                live.evaluations,
                outcome.evaluations,
                "{}: {engine} replay changed the evaluation count",
                app.name()
            );
        }
        assert_eq!(
            sequential.replay,
            batched.replay,
            "{}: batching changed the replay summary",
            app.name()
        );
    }
}

/// Satellite matrix: within one batched pass, per-set divergence is exact.
/// A batch where one input set's recorded comparison flips (and the others
/// complete) must produce, set for set, the same outcomes — including the
/// divergence site — as sequential replay.
#[test]
fn batched_per_set_divergence_matches_sequential() {
    // One comparison against a fixed limit; the tape shape is the same for
    // every input set (all record the `true` branch), but the middle set's
    // value sits close enough to the limit that binary8 collapses them.
    let taped = |x0: f64| {
        let vars = vec![VarSpec::array("x", 2)];
        Trace::record(&vars, move |cfg| {
            let x = flexfloat::FxArray::from_f64s(cfg.format_of("x"), &[x0, 1.0 + 4.0 / 1024.0]);
            let (a, b) = (x.get(0), x.get(1));
            let picked = if a.lt(b) { a + b } else { a * b };
            vec![picked.value()]
        })
        .unwrap()
    };
    let traces = [taped(0.5), taped(1.0 + 3.0 / 1024.0), taped(0.25)];
    let refs: Vec<&Trace> = traces.iter().collect();
    assert!(refs[1..].iter().all(|t| refs[0].same_shape(t)));

    for kind in ALL_KINDS {
        let cfg = TypeConfig::uniform(kind.format());
        let batched = Trace::replay_batch(&refs, &cfg);
        let sequential: Vec<Replayed> = traces.iter().map(|t| t.replay(&cfg)).collect();
        assert_eq!(batched, sequential, "uniform {kind}");
    }
    // And the interesting case actually happened: binary8 diverges the
    // middle set only.
    let coarse = TypeConfig::uniform(FormatKind::Binary8.format());
    let outcomes = Trace::replay_batch(&refs, &coarse);
    assert!(matches!(outcomes[0], Replayed::Output(_)));
    assert!(matches!(outcomes[1], Replayed::Divergent { .. }));
    assert!(matches!(outcomes[2], Replayed::Output(_)));
}

/// A micro-kernel whose *output* rides on a comparison that flips once the
/// variable drops below ~10 significand bits: x = 1 + 3/1024 stays under
/// 1 + 4/1024 only while the grid can tell them apart.
struct Branchy;

impl Tunable for Branchy {
    fn name(&self) -> &str {
        "BRANCHY"
    }
    fn variables(&self) -> Vec<VarSpec> {
        vec![VarSpec::array("x", 8)]
    }
    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let fmt = config.format_of("x");
        let limit = Fx::new(1.0 + 4.0 / 1024.0, fmt);
        (0..8)
            .map(|i| {
                let x = Fx::new(1.0 + 3.0 / 1024.0 + (i + input_set) as f64 * 0.25, fmt);
                let y = if x.lt(limit) { x + x } else { x * x };
                y.value()
            })
            .collect()
    }
}

/// Layer 3: the divergence guard fires on the micro-kernel, and the tuner's
/// live fallback keeps Replay mode's outcome identical to Live mode's.
#[test]
fn divergence_guard_and_fallback_on_value_dependent_kernel() {
    // Trace level: binary8 flips the first comparison.
    let trace = Trace::record(&Branchy.variables(), |cfg| Branchy.run(cfg, 0)).unwrap();
    assert!(trace.comparisons() > 0);
    let coarse = TypeConfig::uniform(FormatKind::Binary8.format());
    assert!(
        matches!(trace.replay(&coarse), Replayed::Divergent { .. }),
        "binary8 must trip the divergence guard"
    );
    // A faithful config still replays.
    let fine = TypeConfig::uniform(FormatKind::Binary32.format());
    assert_eq!(
        bits(&trace.replay(&fine).output().expect("binary32 is faithful")),
        bits(&Branchy.run(&fine, 0))
    );

    // Tuner level: the chosen formats match Live mode exactly.
    let params = SearchParams {
        input_sets: 2,
        ..SearchParams::paper(1e-3)
    };
    let (live, replay) = Engine::with(Arc::new(Emulated), || {
        (
            distributed_search(&Branchy, params.with_mode(TunerMode::Live)),
            distributed_search(&Branchy, params.with_mode(TunerMode::Replay)),
        )
    });
    assert_eq!(fingerprint(&live), fingerprint(&replay));
    assert!(live.replay.diverged == 0 && live.replay.replayed == 0);
}

/// A search under an installed `SoftFloat` or `FpuModel`, or inside
/// `Recorder::record`, returns the formats and evaluation count of the
/// unobserved search, and no replay summary.
#[test]
fn observed_searches_run_live() {
    for app in all_kernels_small() {
        let app = app.as_ref();
        let name = app.name();
        for workers in [1usize, 4] {
            let params = SearchParams::paper(1e-1)
                .with_workers(workers)
                .with_mode(TunerMode::Replay);
            let search = || distributed_search(app, params);
            let want = Engine::with(Arc::new(Emulated), search);
            let observed = [
                (
                    "softfloat",
                    Engine::with(Arc::new(SoftFloat::new()), search),
                ),
                ("fpu", Engine::with(Arc::new(FpuModel::new()), search)),
                ("recorder", Recorder::record(search).0),
            ];
            for (how, got) in observed {
                let at = format!("{name} workers={workers} {how}");
                assert_eq!(got.replay, ReplaySummary::default(), "{at}: replayed");
                assert_eq!(got.vars, want.vars, "{at}: vars");
                assert_eq!(got.evaluations, want.evaluations, "{at}: evaluations");
                assert_eq!(got.eval_config(), want.eval_config(), "{at}: config");
            }
        }
    }
}

/// Wall-clock probe for development (`--ignored --nocapture`): where the
/// time goes for one kernel, one set.
#[test]
#[ignore = "profiling probe, not a correctness test"]
fn profile_record_replay_vs_live() {
    use std::time::Instant;
    for app in [
        Box::new(tp_kernels::Conv::paper()) as Box<dyn Tunable>,
        Box::new(tp_kernels::Jacobi::paper()),
        Box::new(tp_kernels::Knn::paper()),
    ] {
        let app = app.as_ref();
        let cfg = TypeConfig::baseline();
        let t = Instant::now();
        for _ in 0..10 {
            let _ = app.run(&cfg, 0);
        }
        let live = t.elapsed().as_secs_f64() * 100.0;
        let t = Instant::now();
        let trace = Trace::record(&app.variables(), |c| app.run(c, 0)).unwrap();
        let record = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        for _ in 0..10 {
            let _ = trace.replay(&cfg);
        }
        let replay = t.elapsed().as_secs_f64() * 100.0;
        println!(
            "{:>7}: live {live:7.3} ms  record {record:7.3} ms  replay {replay:7.3} ms  ({} tape ops)",
            app.name(),
            trace.len()
        );
    }
}
