//! Exact conversions between a format's encodings and native `f64` values.
//!
//! Two primitives live here:
//!
//! * [`FpFormat::decode_to_f64`] — every value of a supported format is
//!   exactly representable in `f64`, so decoding is lossless;
//! * [`FpFormat::round_from_f64`] — the correctly-rounded conversion of an
//!   `f64` into the format, the *sanitisation* step at the heart of the
//!   FlexFloat emulation approach.

use crate::{FpFormat, RoundingMode};

/// Result of rounding an `f64` into a narrower format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundOutcome {
    /// The encoded result, in the low `total_bits()` bits.
    pub bits: u64,
    /// The result differs from the input value.
    pub inexact: bool,
    /// The rounded value exceeded the largest finite value of the format.
    pub overflow: bool,
    /// The result is tiny (subnormal or zero from a non-zero input) and inexact.
    pub underflow: bool,
}

/// Multiplies `x` by `2^n` exactly whenever the result (and any intermediate)
/// is representable, mirroring C's `ldexp`.
fn ldexp(mut x: f64, mut n: i32) -> f64 {
    // Clamp the per-step scale to the normal range so each step multiplies by
    // an exactly-representable power of two.
    while n > 1023 {
        x *= f64::from_bits(0x7FE0_0000_0000_0000); // 2^1023
        n -= 1023;
    }
    while n < -1022 {
        x *= f64::from_bits(0x0010_0000_0000_0000); // 2^-1022
        n += 1022;
    }
    x * f64::from_bits(((n + 1023) as u64) << 52)
}

impl FpFormat {
    /// Decodes a bit pattern of this format into the `f64` with the same
    /// numerical value. Lossless for every supported format.
    ///
    /// NaN encodings decode to an `f64` quiet NaN (payloads are not
    /// preserved; the platform uses a single canonical NaN per format).
    #[must_use]
    pub fn decode_to_f64(self, bits: u64) -> f64 {
        let (sign, exp, man) = self.unpack(bits);
        let sign64 = (sign as u64) << 63;
        if exp != 0 && exp != self.exp_field_max() {
            // Normal: every format's exponent range fits f64's, so the
            // fields map directly (rebiased exponent, left-aligned mantissa).
            let e64 = (exp as i64 - self.bias() as i64 + 1023) as u64;
            let man64 = man << (52 - self.man_bits());
            return f64::from_bits(sign64 | (e64 << 52) | man64);
        }
        // Zeros, infinities and NaNs stay in this function: the slow path
        // of `sanitize_f64` decodes them, and an out-of-line call there
        // slowed native kernels that cancel or overflow (DWT, PCA) by
        // 5–13 %.
        if man == 0 {
            let e64 = if exp == 0 { 0 } else { 0x7FF };
            return f64::from_bits(sign64 | (e64 << 52));
        }
        if exp != 0 {
            return f64::NAN;
        }
        self.decode_subnormal(sign, man)
    }

    /// [`FpFormat::decode_to_f64`] for subnormals: `man * 2^(emin - m)`.
    #[inline(never)]
    fn decode_subnormal(self, sign: bool, man: u64) -> f64 {
        let s = if sign { -1.0 } else { 1.0 };
        s * ldexp(man as f64, self.emin() - self.man_bits() as i32)
    }

    /// Rounds an `f64` into this format under `mode`, returning the encoding
    /// together with the IEEE exception flags raised by the conversion.
    ///
    /// This is a correctly-rounded `f64 → flexfloat<e,m>` conversion: the
    /// result is the unique value of the format nearest `x` in the rounding
    /// direction, with IEEE overflow and underflow semantics (gradual
    /// underflow to subnormals, overflow to infinity or to the largest finite
    /// value depending on `mode`).
    ///
    /// NaN inputs map to the canonical quiet NaN of the format.
    #[must_use]
    pub fn round_from_f64(self, x: f64, mode: RoundingMode) -> RoundOutcome {
        let exact = |bits| RoundOutcome {
            bits,
            inexact: false,
            overflow: false,
            underflow: false,
        };
        if x.is_nan() {
            return exact(self.quiet_nan_bits());
        }
        let sign = x.is_sign_negative();
        if x.is_infinite() {
            return exact(self.inf_bits(sign));
        }
        if x == 0.0 {
            return exact(self.zero_bits(sign));
        }

        // Decompose |x| = sig * 2^(e - 52) with sig normalised in [2^52, 2^53).
        let xb = x.abs().to_bits();
        let e64 = (xb >> 52) as i32;
        let m64 = xb & ((1u64 << 52) - 1);
        let (sig, e) = if e64 == 0 {
            // f64 subnormal input.
            let hb = 63 - m64.leading_zeros() as i32;
            let shift = 52 - hb;
            (m64 << shift, -1022 - shift)
        } else {
            ((1u64 << 52) | m64, e64 - 1023)
        };

        let m = self.man_bits() as i32;
        let emin = self.emin();
        let emax = self.emax();

        // Number of low bits of `sig` to discard. Normal numbers keep m+1
        // significand bits; below emin the significand loses one more bit per
        // exponent step (gradual underflow).
        let tiny = e < emin;
        let discard = if tiny { 52 - m + (emin - e) } else { 52 - m };

        let (kept, guard, sticky) = if discard <= 0 {
            // The format holds at least as many bits as f64 provides here.
            ((sig << (-discard) as u32), false, false)
        } else if discard > 53 {
            // Everything is discarded; the value is far below the format's
            // smallest subnormal.
            (0u64, false, true)
        } else {
            let d = discard as u32;
            let kept = sig >> d;
            let guard = (sig >> (d - 1)) & 1 == 1;
            let sticky = sig & ((1u64 << (d - 1)) - 1) != 0;
            (kept, guard, sticky)
        };

        let inexact = guard || sticky;
        let lsb = kept & 1 == 1;
        let mut kept = kept;
        if mode.round_up(sign, lsb, guard, sticky) {
            kept += 1;
        }

        if tiny {
            // Subnormal (or zero) result path.
            let bits = if kept >= (1u64 << self.man_bits()) {
                // Rounded all the way up to the smallest normal.
                self.pack(sign, 1, 0)
            } else {
                self.pack(sign, 0, kept)
            };
            return RoundOutcome {
                bits,
                inexact,
                overflow: false,
                underflow: inexact,
            };
        }

        let mut e = e;
        if kept == (1u64 << (self.man_bits() + 1)) {
            // Mantissa carry: 1.11…1 rounded up to 10.0…0.
            kept >>= 1;
            e += 1;
        }
        if e > emax {
            let bits = match mode {
                RoundingMode::NearestEven | RoundingMode::NearestAway => self.inf_bits(sign),
                RoundingMode::TowardZero => self.max_finite_bits(sign),
                RoundingMode::TowardPositive => {
                    if sign {
                        self.max_finite_bits(true)
                    } else {
                        self.inf_bits(false)
                    }
                }
                RoundingMode::TowardNegative => {
                    if sign {
                        self.inf_bits(true)
                    } else {
                        self.max_finite_bits(false)
                    }
                }
            };
            return RoundOutcome {
                bits,
                inexact: true,
                overflow: true,
                underflow: false,
            };
        }
        let exp_field = (e + self.bias()) as u64;
        let man_field = kept & self.man_mask();
        RoundOutcome {
            bits: self.pack(sign, exp_field, man_field),
            inexact,
            overflow: false,
            underflow: false,
        }
    }

    /// Convenience wrapper: rounds `x` into the format and decodes it back,
    /// yielding the nearest representable value as an `f64`.
    ///
    /// ```
    /// use tp_formats::{RoundingMode, BINARY16ALT};
    ///
    /// let v = BINARY16ALT.round_trip_f64(3.14159, RoundingMode::NearestEven);
    /// assert_eq!(v, 3.140625); // 8-bit mantissa granularity
    /// ```
    #[must_use]
    pub fn round_trip_f64(self, x: f64, mode: RoundingMode) -> f64 {
        self.decode_to_f64(self.round_from_f64(x, mode).bits)
    }

    /// Fast round-to-nearest-even *sanitization*: rounds `x` to the nearest
    /// value of this format, returned directly as an `f64`.
    ///
    /// This is the hot path of the FlexFloat emulation approach: for
    /// results that land strictly inside the format's normal range, the
    /// rounding happens with a handful of integer operations directly on
    /// the `f64` bit pattern (the mantissa round-up naturally carries into
    /// the exponent field). Values near the overflow/underflow boundaries,
    /// subnormals, zeros, infinities and NaNs take the exact slow path.
    ///
    /// Always equals `round_trip_f64(x, RoundingMode::NearestEven)`
    /// (property-tested).
    #[inline]
    #[must_use]
    pub fn sanitize_f64(self, x: f64) -> f64 {
        let shift = 52 - self.man_bits();
        if shift == 0 {
            // The format has f64's full mantissa (only binary64 qualifies).
            return self.round_trip_f64(x, RoundingMode::NearestEven);
        }
        let bits = x.to_bits();
        let exp64 = ((bits >> 52) & 0x7FF) as i32;
        let e_unb = exp64 - 1023;
        // Fast path: finite, normal in f64, normal in the target, and far
        // enough from emax that a mantissa carry cannot overflow.
        if exp64 != 0x7FF && exp64 != 0 && e_unb >= self.emin() && e_unb < self.emax() {
            let lsb = (bits >> shift) & 1;
            let rounded = bits + ((1u64 << (shift - 1)) - 1 + lsb);
            return f64::from_bits(rounded & !((1u64 << shift) - 1));
        }
        self.round_trip_f64(x, RoundingMode::NearestEven)
    }

    /// Direct encoding of an `f64` that is already on this format's grid —
    /// the inverse of [`FpFormat::decode_to_f64`], without the rounding
    /// machinery of [`FpFormat::round_from_f64`].
    ///
    /// This is the hot encode path for values that are known to be
    /// *sanitized* (every backing value of a `flexfloat` type is): the
    /// significand is shifted into place with a handful of integer
    /// operations and no guard/sticky bookkeeping. Off-grid inputs are a
    /// caller bug; they are caught by `debug_assert!` and, in release
    /// builds, fall back to the correctly-rounded
    /// (`RoundingMode::NearestEven`) conversion so the result is still
    /// well-defined.
    ///
    /// ```
    /// use tp_formats::BINARY8;
    ///
    /// for bits in 0..=0xFFu64 {
    ///     let v = BINARY8.decode_to_f64(bits);
    ///     if v.is_nan() {
    ///         assert_eq!(BINARY8.encode_in_grid(v), BINARY8.quiet_nan_bits());
    ///     } else {
    ///         assert_eq!(BINARY8.encode_in_grid(v), bits);
    ///     }
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn encode_in_grid(self, x: f64) -> u64 {
        let xb = x.to_bits();
        let e = ((xb >> 52) & 0x7FF) as i32 - 1023;
        let shift = 52 - self.man_bits();
        // A value normal in the format is normal in f64 too (the range test
        // excludes f64's zero/subnormal and inf/NaN exponent fields); on the
        // grid it has no mantissa bits below the format's, and the fields
        // map directly.
        if e >= self.emin() && e <= self.emax() && xb & ((1u64 << shift) - 1) == 0 {
            let man = (xb & ((1u64 << 52) - 1)) >> shift;
            return self.pack(xb >> 63 == 1, (e + self.bias()) as u64, man);
        }
        self.encode_in_grid_special(x)
    }

    /// [`FpFormat::encode_in_grid`] for zeros, subnormals, infinities, NaNs
    /// and (as a caller bug) off-grid or out-of-range values.
    #[inline(never)]
    fn encode_in_grid_special(self, x: f64) -> u64 {
        if x.is_nan() {
            return self.quiet_nan_bits();
        }
        let sign = x.is_sign_negative();
        if x.is_infinite() {
            return self.inf_bits(sign);
        }
        if x == 0.0 {
            return self.zero_bits(sign);
        }

        // Decompose |x| = sig * 2^(e - 52) with sig normalised in [2^52, 2^53).
        let xb = x.abs().to_bits();
        let e64 = (xb >> 52) as i32;
        let m64 = xb & ((1u64 << 52) - 1);
        let (sig, e) = if e64 == 0 {
            let hb = 63 - m64.leading_zeros() as i32;
            let shift = 52 - hb;
            (m64 << shift, -1022 - shift)
        } else {
            ((1u64 << 52) | m64, e64 - 1023)
        };

        // Every in-grid value from the format's normal range took the fast
        // path, so what is left must be one of its subnormals: below emin,
        // with one significand bit fewer per exponent step.
        let discard = 52 - self.man_bits() as i32 + (self.emin() - e);
        let in_grid = e < self.emin() && discard <= 52 && sig & ((1u64 << discard) - 1) == 0;
        if !in_grid {
            debug_assert!(false, "{self}: {x:e} is not on the format grid");
            return self.round_from_f64(x, RoundingMode::NearestEven).bits;
        }
        self.pack(sign, 0, sig >> discard)
    }

    /// Returns `true` if `x` is exactly representable in this format.
    #[must_use]
    pub fn represents(self, x: f64) -> bool {
        if x.is_nan() {
            return true; // maps to the canonical NaN
        }
        !self.round_from_f64(x, RoundingMode::NearestEven).inexact
    }
}

#[cfg(test)]
// Binary literals here are grouped as sign_exponent_mantissa, which is the
// readable grouping for float encodings, not equal-width byte groups.
#[allow(clippy::unusual_byte_groupings)]
mod tests {
    use super::*;
    use crate::{BINARY16, BINARY16ALT, BINARY32, BINARY64, BINARY8};

    fn rne(fmt: FpFormat, x: f64) -> f64 {
        fmt.round_trip_f64(x, RoundingMode::NearestEven)
    }

    #[test]
    fn decode_binary32_matches_native_f32_exhaustively_sampled() {
        // Stride through the full u32 space; every decoded value must agree
        // with the hardware interpretation.
        let mut bits = 0u64;
        while bits <= u32::MAX as u64 {
            let ours = BINARY32.decode_to_f64(bits);
            let native = f32::from_bits(bits as u32) as f64;
            if native.is_nan() {
                assert!(ours.is_nan(), "bits {bits:#x}");
            } else {
                assert_eq!(ours, native, "bits {bits:#x}");
            }
            bits += 0x0001_0001; // coprime stride touching all exponent fields
        }
    }

    #[test]
    fn decode_binary8_exhaustive() {
        // Spot-check the full 256-entry binary8 table against manual math.
        assert_eq!(BINARY8.decode_to_f64(0b0_00000_00), 0.0);
        assert_eq!(BINARY8.decode_to_f64(0b0_00000_01), 2f64.powi(-16));
        assert_eq!(BINARY8.decode_to_f64(0b0_00000_11), 3.0 * 2f64.powi(-16));
        assert_eq!(BINARY8.decode_to_f64(0b0_00001_00), 2f64.powi(-14));
        assert_eq!(BINARY8.decode_to_f64(0b0_01111_00), 1.0);
        assert_eq!(BINARY8.decode_to_f64(0b0_01111_01), 1.25);
        assert_eq!(BINARY8.decode_to_f64(0b0_01111_10), 1.5);
        assert_eq!(BINARY8.decode_to_f64(0b0_01111_11), 1.75);
        assert_eq!(BINARY8.decode_to_f64(0b0_11110_11), 57344.0);
        assert_eq!(BINARY8.decode_to_f64(0b1_01111_00), -1.0);
        assert!(BINARY8.decode_to_f64(0b0_11111_00).is_infinite());
        assert!(BINARY8.decode_to_f64(0b0_11111_10).is_nan());
    }

    #[test]
    fn round_matches_native_f32_cast() {
        // f64 -> f32 native rounding is RNE; ours must agree bit-for-bit.
        let samples = [
            0.1,
            1.0,
            1.5,
            std::f64::consts::PI,
            1e-40,
            1e-45,
            1e38,
            3.5e38,
            1e39,
            -2.7e-20,
            6.1e-5,
            65504.0,
            65520.0,
            // 1 + 2^-23: the tie point straddling the f32 mantissa boundary.
            1.0 + f32::EPSILON as f64,
            f64::MIN_POSITIVE,
            1e-320,
        ];
        for &x in &samples {
            for x in [x, -x] {
                let ours = BINARY32.round_from_f64(x, RoundingMode::NearestEven).bits;
                let native = (x as f32).to_bits() as u64;
                assert_eq!(ours, native, "x = {x:e}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity_on_representables() {
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            for bits in [
                fmt.zero_bits(false),
                fmt.zero_bits(true),
                fmt.min_subnormal_bits(),
                fmt.min_normal_bits(),
                fmt.max_finite_bits(false),
                fmt.max_finite_bits(true),
                fmt.inf_bits(false),
                fmt.inf_bits(true),
                fmt.pack(false, fmt.bias() as u64, 1),
            ] {
                let v = fmt.decode_to_f64(bits);
                for mode in RoundingMode::ALL {
                    let out = fmt.round_from_f64(v, mode);
                    assert_eq!(out.bits, bits, "{fmt} bits {bits:#x} mode {mode}");
                    assert!(!out.inexact);
                }
            }
        }
    }

    #[test]
    fn binary8_exhaustive_round_trip() {
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            if v.is_nan() {
                continue;
            }
            let back = BINARY8.round_from_f64(v, RoundingMode::NearestEven).bits;
            assert_eq!(back, bits, "bits {bits:#010b}");
        }
    }

    #[test]
    fn overflow_behaviour_per_mode() {
        let big = 1e10; // far above binary8 max (57344)
        let max = BINARY8.max_finite();
        assert_eq!(rne(BINARY8, big), f64::INFINITY);
        assert_eq!(BINARY8.round_trip_f64(big, RoundingMode::TowardZero), max);
        assert_eq!(
            BINARY8.round_trip_f64(big, RoundingMode::TowardNegative),
            max
        );
        assert_eq!(
            BINARY8.round_trip_f64(big, RoundingMode::TowardPositive),
            f64::INFINITY
        );
        assert_eq!(
            BINARY8.round_trip_f64(-big, RoundingMode::TowardPositive),
            -max
        );
        assert_eq!(
            BINARY8.round_trip_f64(-big, RoundingMode::TowardNegative),
            f64::NEG_INFINITY
        );
        let out = BINARY8.round_from_f64(big, RoundingMode::NearestEven);
        assert!(out.overflow && out.inexact && !out.underflow);
    }

    #[test]
    fn overflow_boundary_nearest_even() {
        // Values below the midpoint between max finite and the next power of
        // two stay finite; at or above the midpoint they round to infinity.
        let max = BINARY8.max_finite(); // 57344 = 1.75 * 2^15
        let next = 2f64.powi(16); // would-be 2.00 * 2^15
        let mid = (max + next) / 2.0; // 1.875 * 2^15: tie -> even -> away (inf)
        assert_eq!(rne(BINARY8, mid - 1.0), max);
        assert_eq!(rne(BINARY8, mid), f64::INFINITY);
    }

    #[test]
    fn underflow_behaviour() {
        let tiny = BINARY8.min_subnormal(); // 2^-16
        assert_eq!(rne(BINARY8, tiny), tiny);
        assert_eq!(rne(BINARY8, tiny * 0.5), 0.0); // tie -> even -> zero
        assert_eq!(rne(BINARY8, tiny * 0.51), tiny);
        assert_eq!(rne(BINARY8, tiny * 0.49), 0.0);
        // Sign of zero is preserved on total underflow.
        let neg = BINARY8.round_from_f64(-1e-300, RoundingMode::NearestEven);
        assert_eq!(neg.bits, BINARY8.zero_bits(true));
        assert!(neg.underflow && neg.inexact);
        // Directed rounding away from zero keeps the smallest subnormal.
        assert_eq!(
            BINARY8.round_trip_f64(1e-300, RoundingMode::TowardPositive),
            tiny
        );
    }

    #[test]
    fn gradual_underflow_precision_loss() {
        // 2^-15 has one implicit bit fewer available: step is 2^-16.
        let x = 2f64.powi(-15) + 2f64.powi(-18);
        // Nearest binary8 subnormals are 2^-15 (=2*2^-16) and 2^-15+2^-16.
        assert_eq!(rne(BINARY8, x), 2f64.powi(-15));
    }

    #[test]
    fn ties_to_even_in_mantissa() {
        // binary8 around 1.0: representables 1.0, 1.25, 1.5 ...
        assert_eq!(rne(BINARY8, 1.125), 1.0); // tie -> even (1.00)
        assert_eq!(rne(BINARY8, 1.375), 1.5); // tie -> even (1.10)
        assert_eq!(rne(BINARY8, 1.1250001), 1.25);
    }

    #[test]
    fn nan_maps_to_canonical_quiet_nan() {
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            let out = fmt.round_from_f64(f64::NAN, RoundingMode::NearestEven);
            assert_eq!(out.bits, fmt.quiet_nan_bits());
        }
    }

    #[test]
    fn binary16alt_never_saturates_from_binary32_range() {
        // The binary32 dynamic range maps into binary16alt without
        // saturation (paper's motivation for the format) — except the very
        // top ulp band of binary32, where RNE legitimately rounds up past
        // emax (exactly as bfloat16 hardware does for f32::MAX).
        for &x in &[3e38, f32::MIN_POSITIVE as f64, -3e38, 1e38, 1e-38, -2.5e-42] {
            let out = BINARY16ALT.round_from_f64(x, RoundingMode::NearestEven);
            assert!(!out.overflow, "x = {x:e}");
        }
        assert!(
            BINARY16ALT
                .round_from_f64(f32::MAX as f64, RoundingMode::NearestEven)
                .overflow
        );
        // While binary16 saturates three decades earlier.
        assert!(
            BINARY16
                .round_from_f64(1e38, RoundingMode::NearestEven)
                .overflow
        );
        assert!(
            BINARY16
                .round_from_f64(1e6, RoundingMode::NearestEven)
                .overflow
        );
    }

    #[test]
    fn binary64_round_is_identity() {
        for &x in &[0.1, -3.7e120, 5e-310, f64::MAX, f64::MIN_POSITIVE] {
            let out = BINARY64.round_from_f64(x, RoundingMode::NearestEven);
            assert!(!out.inexact);
            assert_eq!(BINARY64.decode_to_f64(out.bits), x);
        }
    }

    #[test]
    fn represents() {
        assert!(BINARY8.represents(1.25));
        assert!(!BINARY8.represents(1.26));
        assert!(BINARY32.represents(f32::MAX as f64));
        assert!(!BINARY16.represents(1e30));
        // 1e30 is in binary16alt's range but not on its 8-bit mantissa grid.
        assert!(!BINARY16ALT.represents(1e30));
        assert!(BINARY16ALT.represents(2f64.powi(100)));
    }

    #[test]
    fn encode_in_grid_binary8_exhaustive_round_trip() {
        // Every one of the 256 encodings decodes and re-encodes to itself
        // (NaNs collapse to the canonical quiet NaN, as decode loses the
        // payload by design).
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            let want = if v.is_nan() {
                BINARY8.quiet_nan_bits()
            } else {
                bits
            };
            assert_eq!(BINARY8.encode_in_grid(v), want, "bits {bits:#010b}");
        }
    }

    #[test]
    fn encode_in_grid_matches_round_from_f64_on_sanitized_values() {
        // For any f64, sanitizing and then direct-encoding must equal the
        // one-step correctly-rounded conversion, across all named formats.
        let samples = [
            0.0,
            -0.0,
            0.1,
            1.0,
            -1.5,
            std::f64::consts::PI,
            6.1e-5,
            1e-40,
            1e-45,
            1e-320,
            65504.0,
            1e38,
            3.5e38,
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY64] {
            for &x in &samples {
                for x in [x, -x] {
                    let want = fmt.round_from_f64(x, RoundingMode::NearestEven).bits;
                    let sanitized = fmt.sanitize_f64(x);
                    assert_eq!(
                        fmt.encode_in_grid(sanitized),
                        want,
                        "{fmt} x = {x:e} (sanitized {sanitized:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_in_grid_boundary_encodings() {
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            for bits in [
                fmt.zero_bits(false),
                fmt.zero_bits(true),
                fmt.min_subnormal_bits(),
                fmt.min_normal_bits(),
                fmt.max_finite_bits(false),
                fmt.max_finite_bits(true),
                fmt.inf_bits(false),
                fmt.inf_bits(true),
                fmt.pack(false, fmt.bias() as u64, 1),
            ] {
                let v = fmt.decode_to_f64(bits);
                assert_eq!(fmt.encode_in_grid(v), bits, "{fmt} bits {bits:#x}");
            }
        }
    }

    #[test]
    fn ldexp_extremes() {
        assert_eq!(super::ldexp(1.0, -1074), f64::from_bits(1));
        assert_eq!(super::ldexp(1.0, 1023), 2f64.powi(1023));
        assert_eq!(
            super::ldexp(4503599627370495.0, -1074 + 1),
            f64::from_bits((1 << 52) - 1) * 2.0
        );
    }
}
