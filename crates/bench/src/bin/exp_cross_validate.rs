//! E10 — backend cross-validation: the tuned suite executed on the
//! `FpuModel` backend (every FP operation issued on the `SmallFloatUnit`
//! cycle/energy model) versus the analytic trace-driven platform model.
//!
//! For each kernel this prints the measured FP cycles (sum of
//! per-instruction unit latencies, plus the platform's software-emulation
//! charges for div/sqrt) next to the analytic FP cycles
//! (issue + casts + dependent-pair stalls, with SIMD lane packing), the
//! delta between them, and the measured FPU energy. The outputs of the
//! measured run are checked bit-for-bit against the default emulated path
//! — the backend contract in action.
//!
//! Expected shape: unvectorized, stall-free, narrow-format kernels
//! reconcile almost exactly; 16/32-bit-heavy kernels show a positive delta
//! equal to the latency cycles the in-order pipeline hides (the analytic
//! model only charges them on dependent pairs); strongly vectorized
//! kernels show the analytic side cheaper by the SIMD packing factor.

use tp_bench::{cross_validate_suite, pct, THRESHOLDS};
use tp_platform::PlatformParams;

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    println!("E10: FpuModel measured vs analytic platform model");
    println!("workers: {}", tp_bench::effective_workers());
    let params = PlatformParams::paper();

    for &threshold in &THRESHOLDS {
        println!("\nthreshold {threshold:.0e}");
        println!(
            "{:>8} {:>10} {:>10} {:>8} {:>8} {:>12} {:>8}",
            "app", "measured", "analytic", "delta", "ratio", "energy[pJ]", "bit-eq"
        );
        for r in cross_validate_suite(threshold, &params, 0) {
            let c = &r.report;
            println!(
                "{:>8} {:>10} {:>10} {:>+8} {} {:>12.1} {:>8}",
                r.app,
                c.measured_total(),
                c.analytic_fp_cycles,
                c.cycle_delta(),
                pct(1.0 + c.cycle_delta_ratio()),
                c.measured_energy_pj,
                if r.outputs_match { "yes" } else { "NO" },
            );
            assert!(
                r.outputs_match,
                "{}: FpuModel outputs diverged from the emulated path",
                r.app
            );
            assert_eq!(
                c.off_grid_ops, 0,
                "{}: storage-mapped run must stay on the platform formats",
                r.app
            );
        }
    }

    println!("\nmeasured = unit result latencies + div/sqrt emulation charges;");
    println!("analytic = issue + casts + stalls with SIMD lane packing.");
    println!("Positive deltas are pipeline-hidden latency; negative are SIMD packing.");
}
