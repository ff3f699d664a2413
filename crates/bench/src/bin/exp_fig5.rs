//! E4 — Fig. 5: breakdown of FP operations per type (scalar vs vector) at
//! the three precision requirements.
//!
//! A dynamic view of the tuned programs: for each application, the share of
//! executed FP operations per storage format, with vectorizable operations
//! reported separately. Paper headline: up to 90 % of FP operations scale
//! down to 8-bit or 16-bit formats.

use tp_bench::{evaluate_suite, pct, results_to_json, want_json, THRESHOLDS};
use tp_formats::ALL_KINDS;
use tp_platform::PlatformParams;

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

    println!("E4: Fig. 5 — FP operation breakdown per type (s = scalar, v = vector)");
    println!("workers: {}", tp_bench::effective_workers());
    let params = PlatformParams::paper();

    for &threshold in &THRESHOLDS {
        println!("\nthreshold {threshold:.0e}");
        print!("{:>8}", "app");
        for kind in ALL_KINDS {
            print!("{:>11}s{:>11}v", kind.to_string(), "");
        }
        println!("{:>8}", "small%");
        for r in evaluate_suite(threshold, &params) {
            let total = r.tuned_counts.total_fp_ops().max(1) as f64;
            print!("{:>8}", r.app);
            for kind in ALL_KINDS {
                let fmt = kind.format();
                let (mut s, mut v) = (0u64, 0u64);
                for ((f, _), oc) in &r.tuned_counts.ops {
                    if *f == fmt {
                        s += oc.scalar;
                        v += oc.vector;
                    }
                }
                print!("{:>12}{:>12}", pct(s as f64 / total), pct(v as f64 / total));
            }
            println!("{:>8}", pct(r.tuned_counts.small_format_op_share()));
        }
    }

    println!("\nPaper shape: JACOBI and PCA keep large binary32 scalar shares and no");
    println!("vector work; KNN is (almost) all binary8 with wide vector bars; SVM has");
    println!("~60% vector operations; the suite maximum of sub-32-bit operations");
    println!("approaches 90-100%.");
}
