//! E5 — Fig. 6: memory accesses and execution cycles for the three
//! precision requirements, normalized to the binary32 baseline, with the
//! vectorial and cast contributions highlighted.
//!
//! Paper anchors: memory accesses −27 % average (−36 % excluding JACOBI and
//! PCA; SVM best at −48 %); cycles −12 % average (−17 % excluding the
//! outliers); JACOBI ≈ 100 %; PCA can exceed 100 % at tight thresholds due
//! to cast overhead.

use tp_bench::{evaluate_suite, mean, pct, results_to_json, want_json, THRESHOLDS};
use tp_platform::PlatformParams;

/// The paper's Fig. 6 covers its six Section V-A applications; the
/// registry's added families print rows but stay out of the
/// paper-comparison averages.
const PAPER_SIX: [&str; 6] = ["JACOBI", "KNN", "PCA", "DWT", "SVM", "CONV"];

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    // --json: one document over every threshold, in the tp-store schema
    // (same serializer as the result store and the tp-serve wire format).
    if want_json() {
        let params = PlatformParams::paper();
        let all: Vec<_> = THRESHOLDS
            .iter()
            .flat_map(|&t| evaluate_suite(t, &params))
            .collect();
        println!("{}", results_to_json(&all));
        return;
    }

    println!("E5: Fig. 6 — normalized memory accesses and cycles");
    println!("workers: {}", tp_bench::effective_workers());
    let params = PlatformParams::paper();

    for &threshold in &THRESHOLDS {
        println!("\nthreshold {threshold:.0e}");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "app", "mem", "(vec)", "cycles", "(vecFP)", "(casts)", "(stall)"
        );
        let mut mem_ratios = Vec::new();
        let mut cyc_ratios = Vec::new();
        let mut mem_core = Vec::new();
        let mut cyc_core = Vec::new();
        for r in evaluate_suite(threshold, &params) {
            let mem = r.memory_ratio();
            let cyc = r.cycle_ratio();
            let base_cycles = r.baseline.cycles.total() as f64;
            println!(
                "{:>8} {} {} {} {} {} {}",
                r.app,
                pct(mem),
                pct(r.tuned.memory.vector_accesses as f64 / r.baseline.memory.total() as f64),
                pct(cyc),
                pct(r.tuned.cycles.fp_vector as f64 / base_cycles),
                pct(r.tuned.cycles.casts as f64 / base_cycles),
                pct(r.tuned.cycles.stalls as f64 / base_cycles),
            );
            if PAPER_SIX.contains(&r.app.as_str()) {
                mem_ratios.push(mem);
                cyc_ratios.push(cyc);
                if r.app != "JACOBI" && r.app != "PCA" {
                    mem_core.push(mem);
                    cyc_core.push(cyc);
                }
            }
        }
        println!(
            "{:>8} {}{:>10} {}  (excl. JACOBI/PCA: mem {}, cycles {})",
            "average",
            pct(mean(&mem_ratios)),
            "",
            pct(mean(&cyc_ratios)),
            pct(mean(&mem_core)),
            pct(mean(&cyc_core)),
        );
    }

    println!("\nPaper: memory 73% avg (64% excl. outliers, SVM best ~52%);");
    println!("cycles 88% avg (83% excl. outliers); JACOBI ~100%; PCA worst.");
}
