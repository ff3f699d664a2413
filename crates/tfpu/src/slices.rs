//! The three slice types of the transprecision FPU datapath (Fig. 3).
//!
//! Each slice has a fixed width and hosts the arithmetic blocks of the
//! formats matching that width, plus conversion blocks. The 16-bit slice is
//! replicated twice and the 8-bit slice four times to support sub-word SIMD.

use tp_formats::FormatKind;

/// Identity of a slice type in the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceKind {
    /// 32-bit slice: FP32 ADD/SUB/MUL, FP32↔{FP16, FP16alt, FP8, int32}.
    Slice32,
    /// 16-bit slice (×2): FP16 and FP16alt ADD/SUB/MUL, FP16↔FP16alt,
    /// FP16/FP16alt↔FP8, FP16/FP16alt↔int16.
    Slice16,
    /// 8-bit slice (×4): FP8 ADD/SUB, FP8 MUL, FP8↔int8.
    Slice8,
}

impl SliceKind {
    /// The slice hosting arithmetic for a format.
    #[must_use]
    pub fn hosting(fmt: FormatKind) -> Self {
        match fmt.width_bits() {
            8 => SliceKind::Slice8,
            16 => SliceKind::Slice16,
            _ => SliceKind::Slice32,
        }
    }

    /// Issue latency (in cycles) of arithmetic on this slice: binary32 and
    /// the 16-bit formats are pipelined with one stage (latency 2,
    /// bandwidth one op/cycle); binary8 completes in a single cycle
    /// (Section IV).
    #[must_use]
    pub const fn arith_latency(self) -> u32 {
        match self {
            SliceKind::Slice32 | SliceKind::Slice16 => 2,
            SliceKind::Slice8 => 1,
        }
    }

    /// All conversion operations have a one-cycle latency (Section IV).
    #[must_use]
    pub const fn conversion_latency() -> u32 {
        1
    }
}

/// Activity accounting for operand silencing: which slices toggled for an
/// operation. Unused slices are silenced (inputs forced to zero) and draw
/// no dynamic energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceActivity {
    /// Active 32-bit slices (0 or 1).
    pub slice32: u32,
    /// Active 16-bit slices (0..=2).
    pub slice16: u32,
    /// Active 8-bit slices (0..=4).
    pub slice8: u32,
}

impl SliceActivity {
    /// Activity of a scalar operation in `fmt`: one hosting slice.
    #[must_use]
    pub fn scalar(fmt: FormatKind) -> Self {
        let mut a = SliceActivity::default();
        match SliceKind::hosting(fmt) {
            SliceKind::Slice32 => a.slice32 = 1,
            SliceKind::Slice16 => a.slice16 = 1,
            SliceKind::Slice8 => a.slice8 = 1,
        }
        a
    }

    /// Activity of a full-width vector operation in `fmt`: every replica of
    /// the hosting slice.
    #[must_use]
    pub fn vector(fmt: FormatKind) -> Self {
        let mut a = SliceActivity::default();
        match SliceKind::hosting(fmt) {
            SliceKind::Slice32 => a.slice32 = 1,
            SliceKind::Slice16 => a.slice16 = 2,
            SliceKind::Slice8 => a.slice8 = 4,
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FormatKind::{Binary16, Binary16Alt, Binary32, Binary8};

    #[test]
    fn hosting_by_width() {
        assert_eq!(SliceKind::hosting(Binary32), SliceKind::Slice32);
        assert_eq!(SliceKind::hosting(Binary16), SliceKind::Slice16);
        assert_eq!(SliceKind::hosting(Binary16Alt), SliceKind::Slice16);
        assert_eq!(SliceKind::hosting(Binary8), SliceKind::Slice8);
    }

    #[test]
    fn latencies_follow_the_paper() {
        assert_eq!(SliceKind::Slice32.arith_latency(), 2);
        assert_eq!(SliceKind::Slice16.arith_latency(), 2);
        assert_eq!(SliceKind::Slice8.arith_latency(), 1);
        assert_eq!(SliceKind::conversion_latency(), 1);
    }

    #[test]
    fn activity_and_silencing() {
        let active = |a: SliceActivity| (a.slice32, a.slice16, a.slice8);
        assert_eq!(active(SliceActivity::scalar(Binary16)), (0, 1, 0));
        assert_eq!(active(SliceActivity::vector(Binary16)), (0, 2, 0));
        assert_eq!(active(SliceActivity::vector(Binary8)), (0, 0, 4));
        assert_eq!(active(SliceActivity::vector(Binary32)), (1, 0, 0));
        // Scalar ops silence every other slice.
        assert_eq!(active(SliceActivity::scalar(Binary8)), (0, 0, 1));
    }
}
