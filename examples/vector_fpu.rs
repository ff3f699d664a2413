//! Driving the transprecision FPU model directly: scalar vs SIMD issue,
//! operand silencing, conversions, and the latency/energy ledger.
//!
//! Run with `cargo run -p tp-examples --bin vector_fpu`.

use tp_formats::{FormatKind, RoundingMode, BINARY16, BINARY8};
use tp_fpu::{operation_modes, ArithOp, EnergyTable, SmallFloatUnit};

fn enc(fmt: tp_formats::FpFormat, x: f64) -> u64 {
    fmt.round_from_f64(x, RoundingMode::NearestEven).bits
}

fn main() {
    let mut fpu = SmallFloatUnit::new();

    // ----- Scalar binary16 multiply ----------------------------------------
    let a = enc(BINARY16, 1.5);
    let b = enc(BINARY16, 2.25);
    let issue = fpu.scalar(ArithOp::Mul, FormatKind::Binary16, a, b);
    println!(
        "scalar binary16 mul: {} (latency {} cycles, {:.2} pJ, slices 32/16/8 = {}/{}/{})",
        BINARY16.decode_to_f64(issue.lanes[0]),
        issue.latency,
        issue.energy_pj,
        issue.activity.slice32,
        issue.activity.slice16,
        issue.activity.slice8,
    );

    // ----- 4-lane binary8 SIMD add ------------------------------------------
    let xs: Vec<u64> = [1.0, 2.0, 3.0, 4.0]
        .iter()
        .map(|&v| enc(BINARY8, v))
        .collect();
    let ys: Vec<u64> = [0.5; 4].iter().map(|&v| enc(BINARY8, v)).collect();
    let issue = fpu.vector(ArithOp::Add, FormatKind::Binary8, &xs, &ys);
    let vals: Vec<f64> = issue
        .lanes
        .iter()
        .map(|&l| BINARY8.decode_to_f64(l))
        .collect();
    println!(
        "vector binary8 add:  {vals:?} (latency {} cycle, {:.2} pJ for 4 elements)",
        issue.latency, issue.energy_pj
    );
    let scalar_cost = 4.0
        * fpu
            .energy_table()
            .scalar_arith(ArithOp::Add, FormatKind::Binary8);
    println!(
        "                     vs {scalar_cost:.2} pJ as four scalar issues ({:.0}% saved)",
        100.0 * (1.0 - issue.energy_pj / scalar_cost)
    );

    // ----- Conversions -------------------------------------------------------
    let wide = enc(tp_formats::BINARY32, std::f64::consts::PI);
    let issue = fpu.convert(FormatKind::Binary32, FormatKind::Binary8, wide);
    println!(
        "binary32 -> binary8: {} (latency {} cycle, {:.2} pJ)",
        BINARY8.decode_to_f64(issue.lanes[0]),
        issue.latency,
        issue.energy_pj
    );
    let issue = fpu.convert(
        FormatKind::Binary16,
        FormatKind::Binary32,
        enc(BINARY16, 42.7),
    );
    println!(
        "binary16 -> binary32: {} (widening is exact)",
        tp_formats::BINARY32.decode_to_f64(issue.lanes[0])
    );

    // ----- Ledger -------------------------------------------------------------
    let stats = fpu.stats();
    println!(
        "\nunit ledger: {} instructions, {} latency cycles, {:.2} pJ total",
        stats.instructions, stats.total_latency, stats.total_energy_pj
    );

    // ----- Modes-of-operation excerpt -----------------------------------------
    println!("\narithmetic modes (energy per element):");
    for row in operation_modes(&EnergyTable::paper()) {
        if let tp_fpu::FpuOp::Arith(ArithOp::Mul, _) = row.op {
            println!(
                "  {:>18} {:>7}: {:.2} pJ/elem, latency {}",
                row.op.to_string(),
                if row.vector { "vector" } else { "scalar" },
                row.energy_per_element_pj,
                row.latency
            );
        }
    }
}
