//! The backend-equivalence contract (DESIGN.md §6), pinned.
//!
//! One kernel source, three datapaths: the emulated `f64` fast path, the
//! pure-integer softfloat kernels, and the `SmallFloatUnit` FPU model must
//! produce **bit-identical outputs** and **identical `TraceCounts`** for
//! every kernel in every storage format. A backend swap changes what is
//! measured (flags, cycles, energy), never what is computed — which is
//! what makes the `FpuModel` cross-validation of the analytic platform
//! model meaningful in the first place.

use std::sync::Arc;

use flexfloat::backend::{Emulated, SoftFloat};
use flexfloat::{Engine, FpBackend, Recorder, TraceCounts, TypeConfig};
use tp_bench::{backend_by_name, BACKEND_NAMES};
use tp_formats::ALL_KINDS;
use tp_fpu::FpuModel;
use tp_kernels::all_kernels_small;
use tp_platform::PlatformParams;
use tp_trace::{Replayed, Trace};
use tp_tuner::{distributed_search, SearchParams, Tunable, TunerMode};

/// Runs `app` under `config` on the given backend (or the plain default
/// path for `None`), returning output bits and recorded counts.
fn run_on(
    app: &dyn Tunable,
    config: &TypeConfig,
    backend: Option<Arc<dyn FpBackend>>,
) -> (Vec<u64>, TraceCounts) {
    let body = || Recorder::scoped(|| app.run(config, 0));
    let (out, counts) = match backend {
        Some(b) => Engine::with(b, body),
        None => body(),
    };
    (out.into_iter().map(f64::to_bits).collect(), counts)
}

/// The satellite requirement: every kernel × every `FormatKind` × all
/// three backends — bit-identical outputs and identical `TraceCounts`
/// (the uninstalled default path is the fourth leg of the comparison).
#[test]
fn every_kernel_every_format_every_backend() {
    for app in all_kernels_small() {
        for kind in ALL_KINDS {
            let config = TypeConfig::uniform(kind.format());
            let (want_out, want_counts) = run_on(app.as_ref(), &config, None);
            for name in BACKEND_NAMES {
                let backend = backend_by_name(name).expect(name);
                let (out, counts) = run_on(app.as_ref(), &config, Some(backend));
                assert_eq!(
                    out,
                    want_out,
                    "{} in {kind} on {name}: outputs diverged",
                    app.name()
                );
                assert_eq!(
                    counts,
                    want_counts,
                    "{} in {kind} on {name}: trace counts diverged",
                    app.name()
                );
            }
        }
    }
}

/// Runs `app` under `config` with no `Recorder`, on `backend` (or the plain
/// default path for `None`), returning output bits. With no backend or
/// `Emulated` installed this is the inlined native fast path of every op;
/// `run_on` always takes the hooked path, because its recorder is on.
fn run_unrecorded(
    app: &dyn Tunable,
    config: &TypeConfig,
    backend: Option<Arc<dyn FpBackend>>,
) -> Vec<u64> {
    let body = || app.run(config, 0);
    let out = match backend {
        Some(b) => Engine::with(b, body),
        None => body(),
    };
    out.into_iter().map(f64::to_bits).collect()
}

/// The fast-path leg: every kernel × every `FormatKind` plus one mixed
/// configuration, run with no recorder — uninstalled, `Emulated`-installed
/// (the native fast path) and on every backend — must reproduce the output
/// bits of the recorded default run.
#[test]
fn unrecorded_fast_path_matches_recorded_default() {
    for app in all_kernels_small() {
        let app = app.as_ref();
        let mut configs: Vec<TypeConfig> = ALL_KINDS
            .iter()
            .map(|kind| TypeConfig::uniform(kind.format()))
            .collect();
        // Mixed: variables cycle through the kinds, so ops promote and
        // stores round across formats.
        let mut mixed = TypeConfig::baseline();
        for (i, spec) in app.variables().iter().enumerate() {
            mixed.set(spec.name, ALL_KINDS[(i + 1) % ALL_KINDS.len()].format());
        }
        configs.push(mixed);
        for config in &configs {
            let (want, _) = run_on(app, config, None);
            let native = run_unrecorded(app, config, None);
            assert_eq!(native, want, "{} under {config}: uninstalled", app.name());
            let emulated = Engine::with(Arc::new(Emulated), || {
                // Installed, yet native: ops never reach the backend.
                assert!(!Engine::is_active());
                run_unrecorded(app, config, None)
            });
            assert_eq!(emulated, want, "{} under {config}: Emulated", app.name());
            for name in BACKEND_NAMES {
                let backend = backend_by_name(name).expect(name);
                let out = run_unrecorded(app, config, Some(backend));
                assert_eq!(out, want, "{} under {config}: {name}", app.name());
            }
        }
    }
}

/// A replay outcome with outputs as bits, so NaN outputs compare equal.
fn replay_bits(trace: &Trace, config: &TypeConfig) -> Result<Vec<u64>, usize> {
    match trace.replay(config) {
        Replayed::Output(out) => Ok(out.into_iter().map(f64::to_bits).collect()),
        Replayed::Divergent { at } => Err(at),
    }
}

/// Recording is datapath-independent: a tape recorded on the native
/// datapath (the recorder computes natively and only taps the tape) holds
/// exactly what one recorded under an installed `Emulated`, `SoftFloat` or
/// `FpuModel` holds (the recorder dispatches to them) — the same op
/// stream, the same recorded outputs, the same shape, and the same
/// replays.
#[test]
fn recording_is_datapath_independent() {
    for app in all_kernels_small() {
        let app = app.as_ref();
        let vars = app.variables();
        let record = |backend: Option<Arc<dyn FpBackend>>| {
            let body = || Trace::record(&vars, |cfg| app.run(cfg, 0)).expect("replayable");
            match backend {
                Some(b) => Engine::with(b, body),
                None => body(),
            }
        };
        // The process default: native unless `TP_BACKEND` names another
        // datapath; the `emulated` leg below is native either way.
        let want = record(None);
        let want_ops: Vec<_> = want.ops().collect();
        let want_outputs: Vec<u64> = want
            .recorded_outputs()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let mut configs = vec![TypeConfig::baseline(), want.recorded_config().clone()];
        configs.extend(
            ALL_KINDS
                .iter()
                .map(|kind| TypeConfig::uniform(kind.format())),
        );
        for name in BACKEND_NAMES {
            let got = record(backend_by_name(name));
            assert_eq!(
                got.ops().collect::<Vec<_>>(),
                want_ops,
                "{} on {name}: op stream",
                app.name()
            );
            let outputs: Vec<u64> = got.recorded_outputs().iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                outputs,
                want_outputs,
                "{} on {name}: recorded outputs",
                app.name()
            );
            assert!(got.same_shape(&want), "{} on {name}: shape", app.name());
            for config in &configs {
                assert_eq!(
                    replay_bits(&got, config),
                    replay_bits(&want, config),
                    "{} on {name}: replay under {config}",
                    app.name()
                );
            }
        }
    }
}

/// Chosen formats are backend-invariant: a precision search hosted on the
/// softfloat or FPU-model datapath descends through bit-identical
/// evaluations and lands on the same configuration (including evaluation
/// counts — the backend changes no decision, so not even the speculative
/// envelope is exercised differently).
#[test]
fn tuning_outcome_is_backend_invariant() {
    let app = tp_kernels::Conv::small();
    let search = SearchParams::paper(1e-1).with_workers(2);
    let want = distributed_search(&app, search);
    for name in BACKEND_NAMES {
        let backend = backend_by_name(name).expect(name);
        let outcome = Engine::with(backend, || distributed_search(&app, search));
        assert_eq!(outcome.eval_config(), want.eval_config(), "{name}");
        assert_eq!(outcome.evaluations, want.evaluations, "{name}");
    }
}

/// The bench layer inherits the contract: `evaluate_app_with` under any
/// backend produces the same storage mapping, counts, and reports.
#[test]
fn evaluate_app_is_backend_invariant() {
    let app = tp_kernels::Knn::small();
    let params = PlatformParams::paper();
    let want = tp_bench::evaluate_app_with(&app, 1e-1, &params, 2, TunerMode::from_env());
    for name in BACKEND_NAMES {
        let backend = backend_by_name(name).expect(name);
        let got = Engine::with(backend, || {
            tp_bench::evaluate_app_with(&app, 1e-1, &params, 2, TunerMode::from_env())
        });
        assert_eq!(got.storage, want.storage, "{name}");
        assert_eq!(got.tuned_counts, want.tuned_counts, "{name}");
        assert_eq!(got.tuned.cycles, want.tuned.cycles, "{name}");
        assert_eq!(got.tuned.energy, want.tuned.energy, "{name}");
    }
}

/// The softfloat backend surfaces the IEEE exception flags of a whole
/// kernel run — something neither the emulated path nor the recorder can
/// see.
#[test]
fn softfloat_backend_surfaces_kernel_flags() {
    let soft = Arc::new(SoftFloat::new());
    let app = tp_kernels::Jacobi::small();
    Engine::with(soft.clone(), || {
        let _ = app.run(&TypeConfig::baseline(), 0);
        // Inside the scope the engine reads the active backend's register.
        assert_eq!(Engine::flags(), soft.flags());
    });
    // Averaging random temperatures in binary32 must round somewhere.
    assert!(soft.flags().inexact, "{}", soft.flags());
    soft.clear_flags();
    assert!(soft.flags().is_empty());
}

/// The FpuModel accumulates a measured account whose instruction count
/// matches the recorded arithmetic trace (adds/muls + casts issue on the
/// unit; div/sqrt/cmp are counted separately).
#[test]
fn fpu_model_instruction_account_matches_trace() {
    let fpu = Arc::new(FpuModel::new());
    let app = tp_kernels::Dwt::small();
    let config = TypeConfig::baseline();
    let ((), counts) = Engine::with(fpu.clone(), || {
        Recorder::scoped(|| {
            let _ = app.run(&config, 0);
        })
    });
    let stats = fpu.stats();
    let traced_addmul: u64 = counts
        .ops
        .iter()
        .filter(|((_, k), _)| matches!(k, flexfloat::OpKind::AddSub | flexfloat::OpKind::Mul))
        .map(|(_, c)| c.total())
        .sum();
    let traced_div: u64 = counts
        .ops
        .iter()
        .filter(|((_, k), _)| matches!(k, flexfloat::OpKind::Div))
        .map(|(_, c)| c.total())
        .sum();
    assert_eq!(
        stats.fpu.instructions,
        traced_addmul + counts.total_casts(),
        "unit instructions = traced add/sub/mul + casts"
    );
    assert_eq!(stats.emulated_div, traced_div);
    assert_eq!(stats.off_grid_ops, 0);
    assert!(stats.fpu.total_energy_pj > 0.0);
}

/// `Emulated` as an explicit installation is the identity: same bits, same
/// counts, and the engine reports it by name.
#[test]
fn explicit_emulated_is_identity() {
    let app = tp_kernels::Svm::small();
    let config = TypeConfig::baseline();
    let (want, _) = run_on(&app, &config, None);
    let (got, _) = run_on(&app, &config, Some(Arc::new(Emulated)));
    assert_eq!(got, want);
    Engine::with(Arc::new(Emulated), || {
        assert_eq!(Engine::active_name(), "emulated");
    });
}
