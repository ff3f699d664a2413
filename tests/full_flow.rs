//! End-to-end programming-flow tests (paper Fig. 2): for every kernel and
//! every quality threshold, tune → map onto storage formats → re-execute →
//! verify the quality constraint and evaluate on the platform model.

use flexfloat::{Recorder, TypeConfig};
use tp_formats::TypeSystem;
use tp_platform::{evaluate, PlatformParams};
use tp_tuner::{
    distributed_search, relative_rms_error, storage_config, validated_storage_config, SearchParams,
};

/// The quality constraint must hold for the *storage-mapped* configuration
/// (not just the tuned evaluation formats) on every input set: mapping onto
/// the named formats only ever adds precision and range, never removes it.
#[test]
fn storage_mapping_preserves_quality() {
    for app in tp_kernels::all_kernels_small() {
        for threshold in [1e-1, 1e-2] {
            let params = SearchParams {
                input_sets: 2,
                ..SearchParams::paper(threshold)
            };
            let outcome = distributed_search(app.as_ref(), params);
            let storage = validated_storage_config(app.as_ref(), &outcome, TypeSystem::V2, 2);
            for set in 0..2 {
                let reference = app.reference(set);
                let out = app.run(&storage, set);
                let err = relative_rms_error(&reference, &out);
                assert!(
                    err <= threshold,
                    "{} thr {threshold:.0e} set {set}: err {err:.3e}",
                    app.name()
                );
            }
        }
    }
}

/// Storage formats can only be equal or wider than the tuned evaluation
/// formats in both dimensions that matter.
#[test]
fn storage_formats_dominate_eval_formats() {
    for app in tp_kernels::all_kernels_small() {
        let outcome = distributed_search(
            app.as_ref(),
            SearchParams {
                input_sets: 1,
                ..SearchParams::paper(1e-1)
            },
        );
        let storage = storage_config(&outcome, TypeSystem::V2);
        for v in &outcome.vars {
            let eval = v.eval_format(TypeSystem::V2);
            let stored = storage.format_of(v.spec.name);
            assert!(
                stored.man_bits() >= eval.man_bits(),
                "{}::{}: storage {} narrower than eval {}",
                app.name(),
                v.spec.name,
                stored,
                eval
            );
            assert!(
                stored.exp_bits() >= eval.exp_bits(),
                "{}::{}: storage {} has less range than eval {}",
                app.name(),
                v.spec.name,
                stored,
                eval
            );
        }
    }
}

/// Tightening the threshold never decreases any variable's precision
/// (monotonicity of the joined outcome).
#[test]
fn tighter_thresholds_need_no_less_precision() {
    for app in tp_kernels::all_kernels_small() {
        let loose = distributed_search(
            app.as_ref(),
            SearchParams {
                input_sets: 1,
                ..SearchParams::paper(1e-1)
            },
        );
        let tight = distributed_search(
            app.as_ref(),
            SearchParams {
                input_sets: 1,
                ..SearchParams::paper(1e-3)
            },
        );
        let loose_total: u32 = loose.vars.iter().map(|v| v.precision_bits).sum();
        let tight_total: u32 = tight.vars.iter().map(|v| v.precision_bits).sum();
        assert!(
            tight_total >= loose_total,
            "{}: tight {tight_total} < loose {loose_total}",
            app.name()
        );
    }
}

/// The platform pipeline runs end to end and produces self-consistent
/// reports for every kernel.
#[test]
fn platform_reports_are_self_consistent() {
    let params = PlatformParams::paper();
    for app in tp_kernels::all_kernels_small() {
        let ((), counts) = Recorder::scoped(|| {
            let _ = app.run(&TypeConfig::baseline(), 0);
        });
        let report = evaluate(&counts, &params);

        // Cycles decompose into their components.
        let c = report.cycles;
        assert_eq!(
            c.total(),
            c.fp_scalar + c.fp_vector + c.casts + c.memory + c.integer + c.stalls,
            "{}",
            app.name()
        );
        // A baseline (all-binary32) run has no vector packing benefit:
        // memory accesses equal raw element traffic.
        assert_eq!(
            report.memory.total(),
            counts.total_mem_accesses(),
            "{}: binary32 vectors have one lane",
            app.name()
        );
        // Energy components are all non-negative and sum to the total.
        let e = report.energy;
        assert!(e.fp_ops_pj >= 0.0 && e.memory_pj >= 0.0 && e.other_pj >= 0.0);
        assert!((e.total() - (e.fp_component() + e.memory_pj + e.other_pj)).abs() < 1e-6);
    }
}

/// Recording is transparent: it never changes program outputs.
#[test]
fn recording_does_not_perturb_results() {
    for app in tp_kernels::all_kernels_small() {
        let plain = app.run(&TypeConfig::baseline(), 0);
        let (recorded, counts) = Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        assert_eq!(plain, recorded, "{}", app.name());
        assert!(counts.total_fp_ops() > 0, "{}", app.name());
    }
}
