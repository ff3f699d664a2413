//! End-to-end energy story for the whole benchmark suite at one threshold:
//! tune every application, run baseline + tuned configurations, and print
//! the Fig. 6/7-style normalized report.
//!
//! Run with `cargo run --release -p tp-examples --bin energy_report`
//! (optionally pass a threshold: `... -- 1e-2`).

use tp_formats::TypeSystem;
use tp_kernels::all_kernels;
use tp_platform::{evaluate, PlatformParams};
use tp_tuner::{distributed_search, storage_config, SearchParams};

fn main() {
    let threshold: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("threshold must be a float like 1e-2"))
        .unwrap_or(1e-1);
    let params = PlatformParams::paper();

    println!("Suite energy report (threshold {threshold:.0e}, V2 type system)\n");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "app", "cycles", "memory", "energy", "small-ops", "casts"
    );

    let mut ratios = Vec::new();
    for app in all_kernels() {
        let outcome = distributed_search(app.as_ref(), SearchParams::paper(threshold));
        let storage = storage_config(&outcome, TypeSystem::V2);

        let ((), base) = flexfloat::Recorder::scoped(|| {
            let _ = app.run(&flexfloat::TypeConfig::baseline(), 0);
        });
        let ((), tuned) = flexfloat::Recorder::scoped(|| {
            let _ = app.run(&storage, 0);
        });
        let b = evaluate(&base, &params);
        let t = evaluate(&tuned, &params);

        let energy_ratio = t.energy.total() / b.energy.total();
        println!(
            "{:>8} {:>7.1}% {:>7.1}% {:>7.1}% {:>9.0}% {:>8}",
            app.name(),
            100.0 * t.cycles.total() as f64 / b.cycles.total() as f64,
            100.0 * t.memory.total() as f64 / b.memory.total() as f64,
            100.0 * energy_ratio,
            100.0 * tuned.small_format_op_share(),
            tuned.total_casts(),
        );
        ratios.push(energy_ratio);
    }

    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\naverage energy vs binary32 baseline: {:.1}% (paper: -18% average, -30% best)",
        100.0 * avg
    );
}
