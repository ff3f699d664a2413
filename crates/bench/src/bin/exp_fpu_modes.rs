//! E8 — transprecision FPU characterization: latency, throughput and energy
//! in every mode of operation (Section IV / V-A).
//!
//! Reproduces the role of the paper's post-layout power simulation "in all
//! modes of operation": one row per (operation, format, scalar/vector)
//! combination. The functional datapaths are exercised with random
//! well-conditioned operands (no NaN/Inf, no cancellation, no conversion
//! overflow), following the paper's methodology.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tp_formats::{FormatKind, RoundingMode, ALL_KINDS};
use tp_fpu::{operation_modes, ArithOp, EnergyTable, SmallFloatUnit};

/// Well-conditioned operand per the paper: normal, moderate magnitude,
/// close enough that additions do not cancel catastrophically.
fn operand(rng: &mut SmallRng, fmt: FormatKind) -> u64 {
    let v = rng.random_range(1.0f64..2.0);
    fmt.format()
        .round_from_f64(v, RoundingMode::NearestEven)
        .bits
}

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    println!("E8: FPU modes of operation (latency in cycles, energy in pJ)");
    println!(
        "{:>24} {:>7} {:>6} {:>8} {:>10} {:>12}",
        "operation", "mode", "lanes", "latency", "energy", "energy/elem"
    );
    for row in operation_modes(&EnergyTable::paper()) {
        println!(
            "{:>24} {:>7} {:>6} {:>8} {:>10.2} {:>12.2}",
            row.op.to_string(),
            if row.vector { "vector" } else { "scalar" },
            row.lanes,
            row.latency,
            row.energy_pj,
            row.energy_per_element_pj,
        );
    }

    // Exercise the functional unit on random data, as the paper's
    // methodology prescribes, and report aggregate statistics.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut fpu = SmallFloatUnit::new();
    let mut checked = 0u64;
    for &fmt in &ALL_KINDS {
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul] {
            for _ in 0..200 {
                let a = operand(&mut rng, fmt);
                let b = operand(&mut rng, fmt);
                let out = fpu.scalar(op, fmt, a, b);
                assert!(fmt.format().decode_to_f64(out.lanes[0]).is_finite());
                checked += 1;
            }
            if fmt.simd_lanes() > 1 {
                let lanes = fmt.simd_lanes() as usize;
                for _ in 0..100 {
                    let a: Vec<u64> = (0..lanes).map(|_| operand(&mut rng, fmt)).collect();
                    let b: Vec<u64> = (0..lanes).map(|_| operand(&mut rng, fmt)).collect();
                    let out = fpu.vector(op, fmt, &a, &b);
                    assert_eq!(out.lanes.len(), lanes);
                    checked += 1;
                }
            }
        }
    }
    let stats = fpu.stats();
    println!(
        "\nfunctional sweep: {checked} issues, {} instructions, {:.1} nJ total, {:.3} pJ/instr avg",
        stats.instructions,
        stats.total_energy_pj / 1000.0,
        stats.total_energy_pj / stats.instructions as f64
    );
    println!("(paper context: ~19.4 pJ/FLOP for the 32-bit FMA unit of [11])");
}
