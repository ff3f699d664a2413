//! E1 — Section I motivation: energy breakdown of binary32 FP-intensive
//! applications on the ULP core.
//!
//! Paper anchor: "30% of the energy consumption of the core is actually due
//! to FP operations. Moreover, an additional 20% is spent in moving FP
//! operands from data memory to registers and vice versa." (~50 % total
//! FP-related.)

use flexfloat::TypeConfig;
use tp_bench::pct;
use tp_platform::{evaluate, PlatformParams};
use tp_store::record_run;

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    let params = PlatformParams::paper();
    println!("E1: energy breakdown of the binary32 baseline (per application)");
    println!(
        "{:>8}  {:>8} {:>8} {:>8}   (paper: ~30% FP ops, ~20% FP memory)",
        "app", "FP ops", "FP mem", "other"
    );

    let mut fp_shares = Vec::new();
    let mut mem_shares = Vec::new();
    for app in tp_kernels::all_kernels() {
        let counts = record_run(app.as_ref(), &TypeConfig::baseline());
        let e = evaluate(&counts, &params).energy;
        let total = e.total();
        let fp = e.fp_component() / total;
        let mem = e.memory_pj / total;
        let other = e.other_pj / total;
        println!("{:>8}  {} {} {}", app.name(), pct(fp), pct(mem), pct(other));
        fp_shares.push(fp);
        mem_shares.push(mem);
    }
    let fp = tp_bench::mean(&fp_shares);
    let mem = tp_bench::mean(&mem_shares);
    println!(
        "{:>8}  {} {} {}",
        "average",
        pct(fp),
        pct(mem),
        pct(1.0 - fp - mem)
    );
    println!();
    println!(
        "FP-related share (ops + data movement): {} (paper: ~50%)",
        pct(fp + mem)
    );
}
