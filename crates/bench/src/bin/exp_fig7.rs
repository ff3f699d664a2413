//! E6 — Fig. 7: energy consumption normalized to the binary32 baseline,
//! split into FP operations / memory operations / other operations, plus
//! the PCA manual-vectorization points (the figure's ①②③ labels).
//!
//! Paper anchors: JACOBI ≈ 97 %; PCA 107–108 % at the tight thresholds;
//! the other applications average ≈ 82 % with KNN best at 70 %; manually
//! vectorized PCA improves to 101 % / 96 % / 85 %.

use tp_bench::{evaluate_app, evaluate_suite, mean, pct, results_to_json, want_json, THRESHOLDS};
use tp_kernels::Pca;
use tp_platform::PlatformParams;

/// The paper's Fig. 7 covers its six Section V-A applications; the
/// registry's added families print rows but stay out of the
/// paper-comparison averages.
const PAPER_SIX: [&str; 6] = ["JACOBI", "KNN", "PCA", "DWT", "SVM", "CONV"];

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    // --json: one document over every threshold, in the tp-store schema.
    if want_json() {
        let params = PlatformParams::paper();
        let all: Vec<_> = THRESHOLDS
            .iter()
            .flat_map(|&t| evaluate_suite(t, &params))
            .collect();
        println!("{}", results_to_json(&all));
        return;
    }

    println!("E6: Fig. 7 — normalized energy (components vs binary32 baseline)");
    println!("workers: {}", tp_bench::effective_workers());
    let params = PlatformParams::paper();

    for &threshold in &THRESHOLDS {
        println!("\nthreshold {threshold:.0e}");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>9}",
            "app", "energy", "FP ops", "mem ops", "other"
        );
        let mut ratios = Vec::new();
        let mut non_outlier = Vec::new();
        for r in evaluate_suite(threshold, &params) {
            let base = r.baseline.energy.total();
            let ratio = r.energy_ratio();
            println!(
                "{:>8} {} {} {} {}",
                r.app,
                pct(ratio),
                pct(r.tuned.energy.fp_component() / base),
                pct(r.tuned.energy.memory_pj / base),
                pct(r.tuned.energy.other_pj / base),
            );
            if PAPER_SIX.contains(&r.app.as_str()) {
                ratios.push(ratio);
                if r.app != "JACOBI" && r.app != "PCA" {
                    non_outlier.push(ratio);
                }
            }
        }
        println!(
            "{:>8} {}   (non-outlier avg {}; paper ~82%, best 70%)",
            "average",
            pct(mean(&ratios)),
            pct(mean(&non_outlier)),
        );
    }

    println!("\nPCA with manual vectorization (paper points 1/2/3 = 101%/96%/85%):");
    for &threshold in &THRESHOLDS {
        let mut pca = Pca::paper();
        pca.manual_vectorization = true;
        let r = evaluate_app(&pca, threshold, &params);
        println!(
            "  threshold {threshold:.0e}: energy {}",
            pct(r.energy_ratio())
        );
    }
}
