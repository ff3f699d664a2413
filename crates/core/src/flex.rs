//! The const-generic [`FlexFloat`] type — the Rust rendering of the paper's
//! `flexfloat<e,m>` C++ template class.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use tp_formats::{FloatClass, FpFormat};

use crate::backend::{self, BinOp, Emulated, FpBackend};
use crate::cell;

/// A floating-point value with `E` exponent bits and `M` explicit mantissa
/// bits, emulated on the native `f64` datapath.
///
/// Arithmetic follows the FlexFloat recipe: compute on the backing `f64`,
/// then *sanitize* — round the result into the `(E, M)` grid with IEEE
/// round-to-nearest-even, gradual underflow and overflow to infinity. For
/// `M <= 25` the double-rounding theorem (`52 >= 2·M + 2`) guarantees the
/// result is **bit-identical** to a dedicated hardware unit (and to
/// `tp-softfloat`); for wider mantissas the crate transparently falls back
/// to the pure-integer softfloat kernels, so results are bit-exact for every
/// instantiable format.
///
/// Cross-format arithmetic is a *compile error* — each `(E, M)` pair is a
/// distinct type, exactly like distinct template instances in the paper's
/// C++ library, which is what gives the programmer fine-grained control over
/// intermediate precision. Conversions are explicit via
/// [`FlexFloat::cast_from`] / [`FlexFloat::cast_to`].
///
/// ```
/// use flexfloat::FlexFloat;
///
/// type F8 = FlexFloat<5, 2>;   // the paper's binary8
/// type F16 = FlexFloat<5, 10>; // IEEE binary16
///
/// let a = F8::from(1.2);       // rounds to the nearest binary8: 1.25
/// assert_eq!(a.to_f64(), 1.25);
///
/// let wide: F16 = a.cast_to(); // explicit widening, always exact
/// assert_eq!(wide.to_f64(), 1.25);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexFloat<const E: u32, const M: u32>(f64);

impl<const E: u32, const M: u32> FlexFloat<E, M> {
    /// The format descriptor of this instantiation.
    ///
    /// (The native-exactness rule — Figueroa's `2m + 2 <= 52` condition
    /// deciding between the f64 fast path and the integer kernels — lives
    /// with the `Emulated` backend, which all uninstalled operations
    /// share.)
    pub const FORMAT: FpFormat = FpFormat::new_const(E, M);

    /// Creates a value by rounding `x` to the nearest representable value.
    #[must_use]
    pub fn new(x: f64) -> Self {
        FlexFloat(Self::FORMAT.sanitize_f64(x))
    }

    /// Reconstructs a value from its bit-level encoding.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        FlexFloat(Self::FORMAT.decode_to_f64(bits))
    }

    /// The bit-level encoding of this value.
    #[must_use]
    pub fn to_bits(self) -> u64 {
        // The backing value is always sanitized — i.e. already on the
        // `(E, M)` grid — so encoding is a direct field extraction, not a
        // rounding (`FpFormat::encode_in_grid` vs the old re-round through
        // `round_from_f64`).
        Self::FORMAT.encode_in_grid(self.0)
    }

    /// The exactly-equal `f64` (explicit cast to a standard type, as in the
    /// paper; there is intentionally no implicit conversion).
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0
    }

    /// The nearest `f32`.
    #[must_use]
    pub fn to_f32(self) -> f32 {
        self.0 as f32
    }

    /// Explicit conversion from another instantiation (the paper's
    /// explicit-conversion constructor). Records a cast in the statistics.
    #[inline(always)]
    #[must_use]
    pub fn cast_from<const E2: u32, const M2: u32>(x: FlexFloat<E2, M2>) -> Self {
        if backend::hooked() {
            return Self::cast_from_hooked(x);
        }
        FlexFloat(Emulated.cast(FlexFloat::<E2, M2>::FORMAT, Self::FORMAT, x.0))
    }

    #[inline(never)]
    fn cast_from_hooked<const E2: u32, const M2: u32>(x: FlexFloat<E2, M2>) -> Self {
        FlexFloat(cell::cast(FlexFloat::<E2, M2>::FORMAT, Self::FORMAT, x.0))
    }

    /// Explicit conversion into another instantiation.
    #[inline(always)]
    #[must_use]
    pub fn cast_to<const E2: u32, const M2: u32>(self) -> FlexFloat<E2, M2> {
        FlexFloat::<E2, M2>::cast_from(self)
    }

    /// IEEE class of the value.
    #[must_use]
    pub fn class(self) -> FloatClass {
        FloatClass::of_bits(Self::FORMAT, self.to_bits())
    }

    /// `true` if the value is NaN.
    #[must_use]
    pub fn is_nan(self) -> bool {
        self.0.is_nan()
    }

    /// `true` for zeros, subnormals and normals.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value (exact).
    #[must_use]
    pub fn abs(self) -> Self {
        FlexFloat(self.0.abs())
    }

    /// Square root, correctly rounded.
    #[inline(always)]
    #[must_use]
    pub fn sqrt(self) -> Self {
        if backend::hooked() {
            return self.sqrt_hooked();
        }
        FlexFloat(Emulated.sqrt(Self::FORMAT, self.0))
    }

    #[inline(never)]
    fn sqrt_hooked(self) -> Self {
        FlexFloat(cell::sqrt(Self::FORMAT, self.0, 0).0)
    }

    /// Fused multiply-add `self * b + c` with a single rounding.
    ///
    /// Always computed through the pure-integer kernels: the 2m+2 argument
    /// does not cover fused operations, so the native path could
    /// double-round.
    #[inline(always)]
    #[must_use]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        if backend::hooked() {
            return self.mul_add_hooked(b, c);
        }
        FlexFloat(Emulated.fma(Self::FORMAT, self.0, b.0, c.0))
    }

    #[inline(never)]
    fn mul_add_hooked(self, b: Self, c: Self) -> Self {
        FlexFloat(cell::fma(Self::FORMAT, self.0, b.0, c.0))
    }

    /// The smaller of two values (RISC-V `fmin`: NaN loses, `-0 < +0`).
    #[inline(always)]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        self.min_max(other, true)
    }

    /// The larger of two values (RISC-V `fmax`: NaN loses, `-0 < +0`).
    #[inline(always)]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        self.min_max(other, false)
    }

    #[inline(always)]
    fn min_max(self, other: Self, want_min: bool) -> Self {
        if backend::hooked() {
            return self.min_max_hooked(other, want_min);
        }
        FlexFloat(backend::native_min_max(self.0, other.0, want_min))
    }

    #[inline(never)]
    fn min_max_hooked(self, other: Self, want_min: bool) -> Self {
        FlexFloat(cell::min_max(Self::FORMAT, self.0, other.0, want_min, (0, 0)).0)
    }

    /// One binary op: the inlined fast path while no hook is live (no
    /// `Recorder`, native datapath), else the outlined hooked path — the
    /// same split as every `Fx` op (see the `fx` module docs). A
    /// `FlexFloat` carries no producer id, so its events never form a
    /// dependent pair.
    #[inline(always)]
    fn sanitize_op(a: Self, b: Self, bin: BinOp) -> Self {
        if backend::hooked() {
            return Self::sanitize_op_hooked(a, b, bin);
        }
        FlexFloat(Emulated.bin_op(Self::FORMAT, bin, a.0, b.0))
    }

    #[inline(never)]
    fn sanitize_op_hooked(a: Self, b: Self, bin: BinOp) -> Self {
        FlexFloat(cell::bin_op(Self::FORMAT, bin, a.0, b.0, (0, 0)).0)
    }
}

impl<const E: u32, const M: u32> From<f64> for FlexFloat<E, M> {
    /// Implicit-style constructor from a standard type (rounds), matching
    /// the paper's convenience constructors for FP literals.
    fn from(x: f64) -> Self {
        Self::new(x)
    }
}

impl<const E: u32, const M: u32> From<f32> for FlexFloat<E, M> {
    fn from(x: f32) -> Self {
        Self::new(x as f64)
    }
}

impl<const E: u32, const M: u32> From<i32> for FlexFloat<E, M> {
    fn from(x: i32) -> Self {
        Self::new(x as f64)
    }
}

impl<const E: u32, const M: u32> Add for FlexFloat<E, M> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::sanitize_op(self, rhs, BinOp::Add)
    }
}

impl<const E: u32, const M: u32> Sub for FlexFloat<E, M> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::sanitize_op(self, rhs, BinOp::Sub)
    }
}

impl<const E: u32, const M: u32> Mul for FlexFloat<E, M> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::sanitize_op(self, rhs, BinOp::Mul)
    }
}

impl<const E: u32, const M: u32> Div for FlexFloat<E, M> {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self::sanitize_op(self, rhs, BinOp::Div)
    }
}

impl<const E: u32, const M: u32> Neg for FlexFloat<E, M> {
    type Output = Self;
    fn neg(self) -> Self {
        FlexFloat(-self.0) // sign flip is exact and free in hardware
    }
}

impl<const E: u32, const M: u32> AddAssign for FlexFloat<E, M> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const E: u32, const M: u32> SubAssign for FlexFloat<E, M> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const E: u32, const M: u32> MulAssign for FlexFloat<E, M> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const E: u32, const M: u32> DivAssign for FlexFloat<E, M> {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const E: u32, const M: u32> PartialEq for FlexFloat<E, M> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<const E: u32, const M: u32> PartialOrd for FlexFloat<E, M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl<const E: u32, const M: u32> fmt::Display for FlexFloat<E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The paper's `binary8`: `flexfloat<5,2>`.
pub type Binary8 = FlexFloat<5, 2>;
/// IEEE `binary16`: `flexfloat<5,10>`.
pub type Binary16 = FlexFloat<5, 10>;
/// The paper's `binary16alt`: `flexfloat<8,7>`.
pub type Binary16Alt = FlexFloat<8, 7>;
/// IEEE `binary32`: `flexfloat<8,23>`.
pub type Binary32 = FlexFloat<8, 23>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Recorder;

    #[test]
    fn construction_rounds() {
        let x = Binary8::from(0.3);
        assert_eq!(x.to_f64(), 0.3125);
        let y = Binary16::from(0.3);
        assert_eq!(y.to_f64(), 0.300048828125);
    }

    #[test]
    fn arithmetic_rounds_each_step() {
        // 1.0 + 0.25 is representable in binary8 (1.25); adding 0.25 again
        // gives 1.5; but 1.0 + 0.1 rounds the operand first.
        let one = Binary8::from(1.0);
        let q = Binary8::from(0.25);
        assert_eq!((one + q).to_f64(), 1.25);
        assert_eq!((one + q + q).to_f64(), 1.5);
        // Sanitization after the op: 1.75 * 1.75 = 3.0625 -> binary8 grid
        // near 3.0625 at exponent 1 is {3.0, 3.5} -> 3.0.
        let a = Binary8::from(1.75);
        assert_eq!((a * a).to_f64(), 3.0);
    }

    #[test]
    fn overflow_to_infinity_and_underflow_to_zero() {
        let big = Binary8::from(57344.0);
        assert!((big + big).to_f64().is_infinite());
        let tiny = Binary8::from(2f64.powi(-16));
        let half = Binary8::from(0.5);
        assert_eq!((tiny * half).to_f64(), 0.0); // tie-to-even underflow
    }

    #[test]
    fn assign_ops() {
        let mut x = Binary16::from(1.0);
        x += Binary16::from(0.5);
        x *= Binary16::from(2.0);
        x -= Binary16::from(1.0);
        x /= Binary16::from(2.0);
        assert_eq!(x.to_f64(), 1.0);
    }

    #[test]
    fn comparisons_and_display() {
        let a = Binary8::from(1.0);
        let b = Binary8::from(2.0);
        assert!(a < b);
        assert!(a == a);
        assert_eq!(b.to_string(), "2");
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn explicit_casts() {
        let a = Binary32::from(std::f64::consts::PI);
        let small: Binary16Alt = a.cast_to();
        assert_eq!(small.to_f64(), 3.140625);
        let back = Binary32::cast_from(small);
        assert_eq!(back.to_f64(), 3.140625);
    }

    #[test]
    fn bits_round_trip() {
        for x in [0.0, -0.0, 1.25, -3.5, f64::INFINITY] {
            let v = Binary8::from(x);
            assert_eq!(Binary8::from_bits(v.to_bits()).to_f64(), v.to_f64());
        }
    }

    #[test]
    fn wide_format_uses_softfloat_fallback() {
        // M = 40 > 25: native double rounding would be unsound; the fallback
        // must still produce correctly-rounded results.
        type Wide = FlexFloat<11, 40>;
        let a = Wide::from(1.0 + 2f64.powi(-40));
        let b = Wide::from(2f64.powi(-41) + 2f64.powi(-80));
        // Exact sum = 1 + 2^-40 + 2^-41 + 2^-80; correct rounding to 41-bit
        // significand: tie-ish region resolved by the 2^-80 sticky -> round up.
        let sum = (a + b).to_f64();
        assert_eq!(sum, 1.0 + 2f64.powi(-40) + 2f64.powi(-40));
    }

    #[test]
    fn fma_single_rounding() {
        let a = Binary16::from(1.0 + 2f64.powi(-10));
        let b = Binary16::from(1.0 - 2f64.powi(-10));
        let c = Binary16::from(-1.0);
        assert_eq!(a.mul_add(b, c).to_f64(), -(2f64.powi(-20)));
        assert_eq!((a * b + c).to_f64(), 0.0);
    }

    #[test]
    fn ops_are_recorded() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Binary8::from(1.0);
            let b = Binary8::from(2.0);
            let c = a + b;
            let d = c * c;
            let _e: Binary16 = d.cast_to();
            let _ = a.min(b);
            let _ = a.max(b);
            let _ = a.mul_add(b, c);
            d.sqrt()
        });
        assert_eq!(counts.total_fp_ops(), 6); // add, mul, min, max, fma, sqrt
        assert_eq!(counts.total_casts(), 1);
        let kind = |k| counts.ops.get(&(Binary8::FORMAT, k)).map(|c| c.total());
        assert_eq!(kind(crate::OpKind::Cmp), Some(2));
        assert_eq!(kind(crate::OpKind::Fma), Some(1));
        // `c * c` follows the add that produced `c`, yet a FlexFloat
        // carries no producer id, so no dependent pair is recorded.
        assert!(counts.dependent_pairs.is_empty());
    }

    #[test]
    fn nan_propagates() {
        let n = Binary16::from(f64::NAN);
        let x = Binary16::from(1.0);
        assert!((n + x).is_nan());
        assert!((n * x).is_nan());
        assert!(n != n);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Binary8::default().to_f64(), 0.0);
    }
}
