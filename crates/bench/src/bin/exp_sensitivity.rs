//! E10 (extension) — calibration-sensitivity ablation.
//!
//! The platform energy model rests on calibration constants (DESIGN.md §3).
//! This experiment perturbs each constant across a ±50 % band and reports
//! how the paper-level *conclusions* (normalized energy ratios and their
//! ordering) move — demonstrating that the reproduction's shape claims do
//! not hinge on any single constant.

use tp_bench::{evaluate_suite, mean, pct, results_to_json, want_json};
use tp_platform::PlatformParams;

/// The kernels whose Fig. 7 ordering the ablation tracks — the paper's
/// Section V-A six. The registry's four added families (GEMM, FFT, MLP,
/// BLACKSCHOLES) run in the suite but make no ordering claims here.
const PAPER_SIX: [&str; 6] = ["JACOBI", "KNN", "PCA", "DWT", "SVM", "CONV"];

fn suite_summary(params: &PlatformParams) -> (f64, f64, f64, bool) {
    let all = evaluate_suite(1e-1, params);
    let rs: Vec<_> = all
        .iter()
        .filter(|r| PAPER_SIX.contains(&r.app.as_str()))
        .collect();
    let ratios: Vec<f64> = rs.iter().map(|r| r.energy_ratio()).collect();
    let knn = rs
        .iter()
        .find(|r| r.app == "KNN")
        .expect("KNN")
        .energy_ratio();
    let pca = rs
        .iter()
        .find(|r| r.app == "PCA")
        .expect("PCA")
        .energy_ratio();
    // The headline orderings: PCA is the worst, KNN within the best two.
    let pca_worst = rs.iter().all(|r| pca >= r.energy_ratio() - 1e-9);
    let knn_rank = rs.iter().filter(|r| r.energy_ratio() < knn - 1e-9).count();
    (mean(&ratios), knn, pca, pca_worst && knn_rank <= 1)
}

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    // --json: the unperturbed-calibration suite evaluation (the ablation's
    // own baseline row), in the tp-store schema.
    if want_json() {
        let rs = evaluate_suite(1e-1, &PlatformParams::paper());
        println!("{}", results_to_json(&rs));
        return;
    }

    println!("E10: sensitivity of the Fig. 7 conclusions to calibration constants");
    println!("workers: {}", tp_bench::effective_workers());
    println!("(threshold 1e-1; each row perturbs ONE constant, others at default)\n");
    println!(
        "{:>22} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "constant", "scale", "avg", "KNN", "PCA", "ordering"
    );

    let base = PlatformParams::paper();
    let (avg, knn, pca, ord) = suite_summary(&base);
    println!(
        "{:>22} {:>7} {} {} {} {:>9}",
        "(default)",
        "1.00",
        pct(avg),
        pct(knn),
        pct(pca),
        if ord { "held" } else { "BROKEN" }
    );

    type Knob = (&'static str, fn(&mut PlatformParams, f64));
    let knobs: [Knob; 6] = [
        ("core_instr_pj", |p, s| p.core_instr_pj *= s),
        ("imem_fetch_pj", |p, s| p.imem_fetch_pj *= s),
        ("dmem_access_pj", |p, s| p.dmem_access_pj *= s),
        ("fpu_regmove_pj", |p, s| p.fpu_regmove_pj *= s),
        ("int_weight", |p, s| p.int_weight *= s),
        ("simd_sharing", |p, s| p.energy_table.simd_sharing *= s),
    ];

    for (name, apply) in knobs {
        for scale in [0.5, 1.5] {
            let mut params = PlatformParams::paper();
            apply(&mut params, scale);
            let (avg, knn, pca, ord) = suite_summary(&params);
            println!(
                "{:>22} {:>7.2} {} {} {} {:>9}",
                name,
                scale,
                pct(avg),
                pct(knn),
                pct(pca),
                if ord { "held" } else { "BROKEN" }
            );
        }
    }

    println!("\nInterpretation: the absolute percentages move a few points with the");
    println!("constants, but the orderings the paper reports (KNN best, PCA worst,");
    println!("JACOBI near parity) should read 'held' on every row.");
}
