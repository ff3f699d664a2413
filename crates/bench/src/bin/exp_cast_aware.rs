//! E9 (extension) — cast-aware tuning ablation.
//!
//! The paper's conclusion points at its own limitation: "current tools for
//! precision tuning do not take into account the cost of casts … Further
//! energy savings can be only achieved by reducing the contribution of
//! casts with the support of smarter tools" (Sections V-C and VI). This
//! experiment implements that smarter tool (`tp_tuner::cast_aware_refine`,
//! greedy descent on the platform energy model) and compares it against the
//! plain DistributedSearch mapping on every application and threshold.

use tp_bench::{pct, THRESHOLDS};
use tp_formats::TypeSystem;
use tp_platform::{evaluate, PlatformParams};
use tp_store::record_run;
use tp_tuner::{cast_aware_refine, distributed_search, SearchParams};

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    let params = PlatformParams::paper();
    println!("E9: cast-aware tuning vs precision-only DistributedSearch");
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "threshold", "app", "energy(std)", "energy(aware)", "casts", "casts'", "moves"
    );

    for &threshold in &THRESHOLDS {
        for app in tp_kernels::all_kernels() {
            let search = SearchParams::paper(threshold);
            let outcome = distributed_search(app.as_ref(), search);
            let refined = cast_aware_refine(
                app.as_ref(),
                &outcome,
                TypeSystem::V2,
                &params,
                search.input_sets,
            );
            // Normalize both against the binary32 baseline.
            let base_counts = record_run(app.as_ref(), &flexfloat::TypeConfig::baseline());
            let base = evaluate(&base_counts, &params).energy.total();
            println!(
                "{:>9.0e} {:>7} {:>12} {:>12} {:>9} {:>9} {:>7}",
                threshold,
                app.name(),
                pct(refined.initial_energy_pj / base),
                pct(refined.final_energy_pj / base),
                refined.initial_casts,
                refined.final_casts,
                refined.moves.len(),
            );
        }
    }

    println!("\nExpectation (paper Sec. V-C/VI): applications whose tuned configs are");
    println!("cast-dominated (PCA, JACOBI at loose thresholds) gain the most; apps");
    println!("with coherent format choices (KNN) are already optimal and gain nothing.");
}
