//! Quickstart: the extended FP type system and the FlexFloat library.
//!
//! Prints the format overview of the paper's Fig. 1 and walks through the
//! basic FlexFloat usage patterns: construction, arithmetic with per-step
//! rounding, explicit casts, and statistics collection.
//!
//! Run with `cargo run -p tp-examples --bin quickstart`.

use flexfloat::{Binary16, Binary16Alt, Binary32, Binary8, Recorder};
use tp_formats::ALL_KINDS;

fn main() {
    // ----- Fig. 1: the four storage formats -------------------------------
    println!("Floating-point formats of the transprecision platform (Fig. 1):\n");
    println!(
        "{:>12} {:>6} {:>5} {:>5} {:>12} {:>14} {:>8}",
        "format", "bits", "exp", "man", "max finite", "min subnormal", "decades"
    );
    for kind in ALL_KINDS {
        let f = kind.format();
        println!(
            "{:>12} {:>6} {:>5} {:>5} {:>12.5e} {:>14.5e} {:>8.1}",
            kind.to_string(),
            f.total_bits(),
            f.exp_bits(),
            f.man_bits(),
            f.max_finite(),
            f.min_subnormal(),
            f.dynamic_range_decades(),
        );
    }
    println!();
    println!("binary8     mirrors binary16's dynamic range (5 exponent bits);");
    println!("binary16alt mirrors binary32's dynamic range (8 exponent bits).\n");

    // ----- Arithmetic with per-operation rounding --------------------------
    println!("Per-operation rounding (every step lands on the format's grid):");
    let a = Binary8::from(1.2); // rounds to 1.25
    let b = Binary8::from(3.3); // rounds to 3.5
    println!("  binary8(1.2) = {a}, binary8(3.3) = {b}");
    println!(
        "  product      = {} (exact 4.375 rounds to the 3-bit grid)",
        a * b
    );

    // The same computation in binary16alt keeps more precision:
    let wa: Binary16Alt = a.cast_to();
    let wb: Binary16Alt = b.cast_to();
    println!("  in binary16alt: {}\n", wa * wb);

    // ----- Range vs precision ----------------------------------------------
    println!("Range vs precision (the binary16 / binary16alt trade-off):");
    let big = 100_000.0f64;
    println!(
        "  binary16   (100000) = {} (saturates at 65504)",
        Binary16::from(big)
    );
    println!(
        "  binary16alt(100000) = {} (binary32 range, 8-bit mantissa)\n",
        Binary16Alt::from(big)
    );

    // ----- Statistics -------------------------------------------------------
    println!("Operation statistics (programming-flow step 4):");
    let (dot, counts) = Recorder::scoped(|| {
        let xs = [0.5f64, 1.5, 2.5, 3.5];
        let ws = [1.0f64, -1.0, 0.5, -0.5];
        let mut acc = Binary32::from(0.0);
        for (&x, &w) in xs.iter().zip(&ws) {
            let p = Binary8::from(x) * Binary8::from(w);
            acc += p.cast_to();
        }
        acc
    });
    println!("  dot product = {dot}");
    println!(
        "  FP ops      = {} ({} in binary8)",
        counts.total_fp_ops(),
        counts.fp_ops_in(tp_formats::BINARY8)
    );
    println!("  casts       = {}", counts.total_casts());
    println!(
        "  sub-32-bit share = {:.0}%",
        counts.small_format_op_share() * 100.0
    );

    // ----- SIMD geometry ----------------------------------------------------
    println!("\nSIMD lanes on the 32-bit transprecision FPU datapath:");
    for kind in ALL_KINDS {
        println!("  {:>12}: {} lane(s)", kind.to_string(), kind.simd_lanes());
    }
}
