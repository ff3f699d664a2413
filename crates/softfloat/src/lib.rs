//! Bit-accurate, pure-integer IEEE 754 emulation for arbitrary small
//! floating-point formats.
//!
//! This crate plays the role of *SoftFloat* in the DATE 2018 transprecision
//! platform paper: a slow-but-exact software implementation of floating-point
//! arithmetic that (a) serves as the golden reference the fast
//! `flexfloat` emulation is verified against, and (b) provides the
//! arithmetic datapaths of the transprecision FPU model (`tp-fpu`), standing
//! in for the Synopsys DesignWare blocks of the paper.
//!
//! Everything is computed with integer arithmetic only — no host
//! floating-point operation participates in producing a result, so the crate
//! would behave identically on a target without an FPU. That holds for the
//! IEEE exception flags too: each kernel reads them off its one
//! round-and-pack step instead of redoing the operation in host `f64`.
//!
//! # Layers
//!
//! * [`ops`] — free functions over raw encodings (`u64` bit patterns plus an
//!   [`FpFormat`]); this is what hardware models call.
//! * [`SoftFloat`] — an ergonomic value type pairing bits with their format,
//!   with operator overloading for same-format arithmetic.
//!
//! # Example
//!
//! ```
//! use tp_formats::{BINARY16, BINARY8};
//! use tp_softfloat::SoftFloat;
//!
//! let a = SoftFloat::from_f64(BINARY8, 1.5);
//! let b = SoftFloat::from_f64(BINARY8, 0.25);
//! assert_eq!((a + b).to_f64(), 1.75);
//!
//! // Conversions between formats are explicit:
//! let wide = a.convert(BINARY16);
//! assert_eq!(wide.to_f64(), 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advanced;
mod arith;
mod cmp;
mod cvt;
mod flags;
mod internal;

pub use cmp::FpOrdering;
pub use flags::FlagSet;

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use tp_formats::{FloatClass, FpFormat, RoundingMode};

/// Free functions over raw encodings, for callers that manage formats and
/// rounding modes themselves (e.g. the FPU slice models).
pub mod ops {
    pub use crate::advanced::{fused_mul_add, fused_mul_add_with_flags, sqrt, sqrt_with_flags};
    pub use crate::arith::{
        add, add_with_flags, div, div_with_flags, mul, mul_with_flags, sub, sub_with_flags,
    };
    pub use crate::cmp::{compare, eq, le, lt, max, min};
    pub use crate::cvt::{
        convert, from_i16, from_i32, from_i8, from_u32, round_to_integral, to_i16, to_i32, to_i8,
        to_u16, to_u32, to_u8,
    };
}

/// A floating-point value emulated in software: a bit pattern tagged with
/// its [`FpFormat`].
///
/// Arithmetic operators require both operands to share the same format and
/// round to nearest-even, mirroring hardware behaviour; use the inherent
/// methods (e.g. [`SoftFloat::add_r`]) to pick another rounding mode, and
/// [`SoftFloat::convert`] to move between formats.
#[derive(Debug, Clone, Copy)]
pub struct SoftFloat {
    fmt: FpFormat,
    bits: u64,
}

impl SoftFloat {
    /// Wraps an existing encoding. Bits above the format width are masked off.
    #[must_use]
    pub fn from_bits(fmt: FpFormat, bits: u64) -> Self {
        SoftFloat {
            fmt,
            bits: bits & fmt.bits_mask(),
        }
    }

    /// Rounds `x` (nearest-even) into `fmt`.
    #[must_use]
    pub fn from_f64(fmt: FpFormat, x: f64) -> Self {
        SoftFloat {
            fmt,
            bits: fmt.round_from_f64(x, RoundingMode::NearestEven).bits,
        }
    }

    /// Positive zero in `fmt`.
    #[must_use]
    pub fn zero(fmt: FpFormat) -> Self {
        SoftFloat {
            fmt,
            bits: fmt.zero_bits(false),
        }
    }

    /// The encoding bits.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The format of this value.
    #[inline]
    #[must_use]
    pub fn format(self) -> FpFormat {
        self.fmt
    }

    /// Decodes to the exactly-equal `f64`.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.fmt.decode_to_f64(self.bits)
    }

    /// IEEE class of the value.
    #[must_use]
    pub fn class(self) -> FloatClass {
        FloatClass::of_bits(self.fmt, self.bits)
    }

    /// `true` if the value is NaN.
    #[must_use]
    pub fn is_nan(self) -> bool {
        self.class() == FloatClass::Nan
    }

    /// Addition with an explicit rounding mode.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ (cross-format arithmetic must go
    /// through an explicit [`SoftFloat::convert`], as in the paper's library
    /// design).
    #[must_use]
    pub fn add_r(self, rhs: Self, mode: RoundingMode) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::add(self.fmt, self.bits, rhs.bits, mode),
        }
    }

    /// Subtraction with an explicit rounding mode.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn sub_r(self, rhs: Self, mode: RoundingMode) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::sub(self.fmt, self.bits, rhs.bits, mode),
        }
    }

    /// Multiplication with an explicit rounding mode.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul_r(self, rhs: Self, mode: RoundingMode) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::mul(self.fmt, self.bits, rhs.bits, mode),
        }
    }

    /// Division with an explicit rounding mode.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn div_r(self, rhs: Self, mode: RoundingMode) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::div(self.fmt, self.bits, rhs.bits, mode),
        }
    }

    /// Square root (nearest-even).
    #[must_use]
    pub fn sqrt(self) -> Self {
        SoftFloat {
            fmt: self.fmt,
            bits: ops::sqrt(self.fmt, self.bits, RoundingMode::NearestEven),
        }
    }

    /// Fused multiply-add `self * b + c` with a single rounding
    /// (nearest-even).
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        self.check_same(b);
        self.check_same(c);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::fused_mul_add(
                self.fmt,
                self.bits,
                b.bits,
                c.bits,
                RoundingMode::NearestEven,
            ),
        }
    }

    /// Converts to another format (nearest-even).
    #[must_use]
    pub fn convert(self, dst: FpFormat) -> Self {
        SoftFloat {
            fmt: dst,
            bits: ops::convert(self.fmt, dst, self.bits, RoundingMode::NearestEven),
        }
    }

    /// Converts to `i32` with the given rounding mode (RISC-V saturation).
    #[must_use]
    pub fn to_i32(self, mode: RoundingMode) -> i32 {
        ops::to_i32(self.fmt, self.bits, mode)
    }

    /// Converts to `u32` with the given rounding mode (RISC-V saturation).
    #[must_use]
    pub fn to_u32(self, mode: RoundingMode) -> u32 {
        ops::to_u32(self.fmt, self.bits, mode)
    }

    /// Builds a value from an `i32` (nearest-even).
    #[must_use]
    pub fn from_i32(fmt: FpFormat, v: i32) -> Self {
        SoftFloat {
            fmt,
            bits: ops::from_i32(fmt, v, RoundingMode::NearestEven),
        }
    }

    /// Builds a value from a `u32` (nearest-even).
    #[must_use]
    pub fn from_u32(fmt: FpFormat, v: u32) -> Self {
        SoftFloat {
            fmt,
            bits: ops::from_u32(fmt, v, RoundingMode::NearestEven),
        }
    }

    /// Absolute value (sign-bit clear; exact).
    #[must_use]
    pub fn abs(self) -> Self {
        SoftFloat {
            fmt: self.fmt,
            bits: self.bits & (self.fmt.bits_mask() >> 1),
        }
    }

    /// RISC-V `fmin`: NaN loses to a number, `-0 < +0`.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::min(self.fmt, self.bits, rhs.bits),
        }
    }

    /// RISC-V `fmax`: NaN loses to a number, `-0 < +0`.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        self.check_same(rhs);
        SoftFloat {
            fmt: self.fmt,
            bits: ops::max(self.fmt, self.bits, rhs.bits),
        }
    }

    /// Full IEEE comparison (quiet).
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn compare(self, rhs: Self) -> FpOrdering {
        self.check_same(rhs);
        ops::compare(self.fmt, self.bits, rhs.bits)
    }

    #[track_caller]
    fn check_same(self, rhs: Self) {
        assert_eq!(
            self.fmt, rhs.fmt,
            "softfloat operands have mismatched formats ({} vs {}); insert an explicit convert",
            self.fmt, rhs.fmt
        );
    }
}

impl Add for SoftFloat {
    type Output = SoftFloat;
    fn add(self, rhs: Self) -> Self {
        self.add_r(rhs, RoundingMode::NearestEven)
    }
}

impl Sub for SoftFloat {
    type Output = SoftFloat;
    fn sub(self, rhs: Self) -> Self {
        self.sub_r(rhs, RoundingMode::NearestEven)
    }
}

impl Mul for SoftFloat {
    type Output = SoftFloat;
    fn mul(self, rhs: Self) -> Self {
        self.mul_r(rhs, RoundingMode::NearestEven)
    }
}

impl Div for SoftFloat {
    type Output = SoftFloat;
    fn div(self, rhs: Self) -> Self {
        self.div_r(rhs, RoundingMode::NearestEven)
    }
}

impl Neg for SoftFloat {
    type Output = SoftFloat;
    fn neg(self) -> Self {
        SoftFloat {
            fmt: self.fmt,
            bits: self.bits ^ (1u64 << self.fmt.sign_shift()),
        }
    }
}

impl PartialEq for SoftFloat {
    fn eq(&self, other: &Self) -> bool {
        self.fmt == other.fmt && ops::eq(self.fmt, self.bits, other.bits)
    }
}

impl PartialOrd for SoftFloat {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        if self.fmt != other.fmt {
            return None;
        }
        match ops::compare(self.fmt, self.bits, other.bits) {
            FpOrdering::Less => Some(std::cmp::Ordering::Less),
            FpOrdering::Equal => Some(std::cmp::Ordering::Equal),
            FpOrdering::Greater => Some(std::cmp::Ordering::Greater),
            FpOrdering::Unordered => None,
        }
    }
}

impl fmt::Display for SoftFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    #[test]
    fn operator_overloads() {
        let a = SoftFloat::from_f64(BINARY16, 2.0);
        let b = SoftFloat::from_f64(BINARY16, 0.5);
        assert_eq!((a + b).to_f64(), 2.5);
        assert_eq!((a - b).to_f64(), 1.5);
        assert_eq!((a * b).to_f64(), 1.0);
        assert_eq!((a / b).to_f64(), 4.0);
        assert_eq!((-a).to_f64(), -2.0);
        assert_eq!(a.abs().to_f64(), 2.0);
        assert_eq!((-a).abs().to_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "mismatched formats")]
    fn cross_format_arithmetic_panics() {
        let a = SoftFloat::from_f64(BINARY16, 1.0);
        let b = SoftFloat::from_f64(BINARY8, 1.0);
        let _ = a + b;
    }

    #[test]
    fn comparisons() {
        let a = SoftFloat::from_f64(BINARY8, 1.0);
        let b = SoftFloat::from_f64(BINARY8, 2.0);
        let n = SoftFloat::from_bits(BINARY8, BINARY8.quiet_nan_bits());
        assert!(a < b);
        assert!(a <= a);
        assert!(a == a);
        assert!(n != n);
        assert_eq!(a.partial_cmp(&n), None);
        assert_eq!(a.compare(b), FpOrdering::Less);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(SoftFloat::from_f64(BINARY8, 1.5).to_string(), "1.5");
    }

    #[test]
    fn sqrt_and_fma_methods() {
        let x = SoftFloat::from_f64(BINARY32, 9.0);
        assert_eq!(x.sqrt().to_f64(), 3.0);
        let a = SoftFloat::from_f64(BINARY32, 3.0);
        let b = SoftFloat::from_f64(BINARY32, 4.0);
        let c = SoftFloat::from_f64(BINARY32, 5.0);
        assert_eq!(a.mul_add(b, c).to_f64(), 17.0);
    }

    #[test]
    fn int_conversions() {
        let x = SoftFloat::from_f64(BINARY16, 42.7);
        assert_eq!(x.to_i32(RoundingMode::TowardZero), 42);
        assert_eq!(SoftFloat::from_i32(BINARY16, -7).to_f64(), -7.0);
        assert_eq!(SoftFloat::from_u32(BINARY16, 7).to_f64(), 7.0);
    }

    #[test]
    fn from_bits_masks_extra_bits() {
        let x = SoftFloat::from_bits(BINARY8, 0xFFFF_FF00 | 0x3C);
        assert_eq!(x.bits(), 0x3C);
    }
}
