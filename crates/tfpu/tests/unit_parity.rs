//! The `SmallFloatUnit`'s result lanes against the `tp-softfloat` kernels,
//! exhaustively over binary8: every operand pair under add, sub and mul as
//! a scalar issue and as 4-lane vector issues, and every value converted
//! to each platform format.

use tp_formats::{FormatKind, RoundingMode, ALL_KINDS, BINARY8};
use tp_fpu::{ArithOp, SmallFloatUnit};
use tp_softfloat::ops;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn kernel(op: ArithOp, a: u64, b: u64) -> u64 {
    match op {
        ArithOp::Add => ops::add(BINARY8, a, b, RNE),
        ArithOp::Sub => ops::sub(BINARY8, a, b, RNE),
        ArithOp::Mul => ops::mul(BINARY8, a, b, RNE),
    }
}

#[test]
fn binary8_lanes_equal_the_softfloat_kernels() {
    let mut fpu = SmallFloatUnit::new();
    let lanes = FormatKind::Binary8.simd_lanes() as u64;
    for op in ArithOp::ALL {
        for a in 0..=0xFFu64 {
            for b in 0..=0xFFu64 {
                let got = fpu.scalar(op, FormatKind::Binary8, a, b).lanes[0];
                assert_eq!(got, kernel(op, a, b), "{op}({a:#04x}, {b:#04x})");
                // Lane i pairs `a + i` with `b + i`, so every lane position
                // sees every operand pair once per op.
                let xs: Vec<u64> = (0..lanes).map(|i| (a + i) & 0xFF).collect();
                let ys: Vec<u64> = (0..lanes).map(|i| (b + i) & 0xFF).collect();
                let issue = fpu.vector(op, FormatKind::Binary8, &xs, &ys);
                for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                    let scalar = fpu.scalar(op, FormatKind::Binary8, x, y).lanes[0];
                    assert_eq!(issue.lanes[i], scalar, "{op}({x:#04x}, {y:#04x}) lane {i}");
                }
            }
        }
    }
}

#[test]
fn binary8_conversions_equal_the_softfloat_kernel() {
    let mut fpu = SmallFloatUnit::new();
    for bits in 0..=0xFFu64 {
        for to in ALL_KINDS {
            let got = fpu.convert(FormatKind::Binary8, to, bits).lanes[0];
            let want = ops::convert(BINARY8, to.format(), bits, RNE);
            assert_eq!(got, want, "{bits:#04x} -> {to}");
        }
    }
}
