//! Conversions: float ↔ float and float ↔ integer.
//!
//! These mirror the conversion operations hosted by the transprecision FPU's
//! slices (Fig. 3 of the paper): casts among the four FP formats and casts
//! to/from signed and unsigned integers. Integer-overflow semantics follow
//! RISC-V `fcvt`: results saturate and NaN converts to the maximum value.

use tp_formats::{FpFormat, RoundingMode};

use crate::internal::{round_pack, shift_right_jam, unpack, Unpacked, GRS};

/// Converts an encoding from `src` to `dst` format.
///
/// Widening conversions (to a superset format) are always exact; narrowing
/// conversions round according to `mode` with IEEE overflow/underflow
/// behaviour. NaNs map to the destination's canonical quiet NaN.
pub fn convert(src: FpFormat, dst: FpFormat, bits: u64, mode: RoundingMode) -> u64 {
    match unpack(src, bits) {
        Unpacked::Nan => dst.quiet_nan_bits(),
        Unpacked::Inf(s) => dst.inf_bits(s),
        Unpacked::Zero(s) => dst.zero_bits(s),
        Unpacked::Finite(n) => {
            let from = (src.man_bits() + GRS) as i32;
            let to = (dst.man_bits() + GRS) as i32;
            let sig = if from > to {
                shift_right_jam(n.sig, (from - to) as u32)
            } else {
                n.sig << (to - from) as u32
            };
            round_pack(dst, mode, n.sign, n.exp, sig).0
        }
    }
}

/// Converts an encoding of `fmt` to a signed 32-bit integer.
///
/// Rounds per `mode` (RISC-V uses toward-zero for C casts and RNE for
/// `fcvt` with dynamic rounding). Out-of-range values saturate to
/// `i32::MIN`/`i32::MAX`; NaN yields `i32::MAX` (RISC-V convention).
pub fn to_i32(fmt: FpFormat, bits: u64, mode: RoundingMode) -> i32 {
    match unpack(fmt, bits) {
        Unpacked::Nan => i32::MAX,
        Unpacked::Inf(s) => {
            if s {
                i32::MIN
            } else {
                i32::MAX
            }
        }
        Unpacked::Zero(_) => 0,
        Unpacked::Finite(n) => {
            let mag = finite_to_unsigned_mag(fmt, n.exp, n.sig, n.sign, mode);
            if n.sign {
                if mag > i32::MIN.unsigned_abs() as u64 {
                    i32::MIN
                } else {
                    (mag as i64).wrapping_neg() as i32
                }
            } else if mag > i32::MAX as u64 {
                i32::MAX
            } else {
                mag as i32
            }
        }
    }
}

/// Converts an encoding of `fmt` to an unsigned 32-bit integer.
///
/// Negative values (after rounding) and NaN saturate per RISC-V: `0` and
/// `u32::MAX` respectively.
pub fn to_u32(fmt: FpFormat, bits: u64, mode: RoundingMode) -> u32 {
    match unpack(fmt, bits) {
        Unpacked::Nan => u32::MAX,
        Unpacked::Inf(s) => {
            if s {
                0
            } else {
                u32::MAX
            }
        }
        Unpacked::Zero(_) => 0,
        Unpacked::Finite(n) => {
            let mag = finite_to_unsigned_mag(fmt, n.exp, n.sig, n.sign, mode);
            if n.sign {
                0 // any negative magnitude saturates (mag == 0 handled too)
            } else if mag > u32::MAX as u64 {
                u32::MAX
            } else {
                mag as u32
            }
        }
    }
}

/// Shared magnitude path: rounds `sig * 2^(exp - m - GRS)` to an unsigned
/// integer magnitude (possibly huge — caller saturates).
fn finite_to_unsigned_mag(
    fmt: FpFormat,
    exp: i32,
    sig: u64,
    sign: bool,
    mode: RoundingMode,
) -> u64 {
    // Value magnitude is sig * 2^(exp - point) with the leading bit at
    // `point`, i.e. roughly 2^exp.
    let point = (fmt.man_bits() + GRS) as i32;
    if exp >= 33 {
        return u64::MAX; // certainly saturates at the caller
    }
    let shift = exp - point;
    if shift >= 0 {
        // All significand bits are integer bits (fits: exp < 33).
        return sig << shift as u32;
    }
    let d = (-shift) as u32;
    let int = if d >= 64 { 0 } else { sig >> d };
    let guard_pos = d - 1;
    let guard = guard_pos < 64 && (sig >> guard_pos) & 1 == 1;
    let sticky = if guard_pos == 0 {
        false
    } else if guard_pos >= 64 {
        sig != 0
    } else {
        sig & ((1u64 << guard_pos) - 1) != 0
    };
    let mut int = int;
    if mode.round_up(sign, int & 1 == 1, guard, sticky) {
        int += 1;
    }
    int
}

/// Converts a signed 32-bit integer to an encoding of `fmt`.
pub fn from_i32(fmt: FpFormat, v: i32, mode: RoundingMode) -> u64 {
    let sign = v < 0;
    from_mag(fmt, v.unsigned_abs() as u64, sign, mode)
}

/// Converts an unsigned 32-bit integer to an encoding of `fmt`.
pub fn from_u32(fmt: FpFormat, v: u32, mode: RoundingMode) -> u64 {
    from_mag(fmt, v as u64, false, mode)
}

/// IEEE 754 `roundToIntegral`: rounds an encoding of `fmt` to the nearest
/// integral *value of the same format* under `mode` (RISC-V `FROUND`).
///
/// Unlike the `to_i*` conversions there is no range limit: values beyond
/// the integer types (and infinities) are already integral and return
/// unchanged; NaN yields the canonical quiet NaN.
pub fn round_to_integral(fmt: FpFormat, bits: u64, mode: RoundingMode) -> u64 {
    match unpack(fmt, bits) {
        Unpacked::Nan => fmt.quiet_nan_bits(),
        Unpacked::Inf(s) => fmt.inf_bits(s),
        Unpacked::Zero(s) => fmt.zero_bits(s),
        Unpacked::Finite(n) => {
            let point = (fmt.man_bits() + GRS) as i32;
            if n.exp >= fmt.man_bits() as i32 {
                // The ulp is >= 1: the value is already integral.
                return bits & fmt.bits_mask();
            }
            // Integer magnitude with rounding (cannot overflow u64 here:
            // exp < man_bits <= 52).
            let shift = (point - n.exp) as u32;
            let int = if shift >= 64 { 0 } else { n.sig >> shift };
            let guard_pos = shift - 1;
            let guard = guard_pos < 64 && (n.sig >> guard_pos) & 1 == 1;
            let sticky = if guard_pos == 0 {
                false
            } else if guard_pos >= 64 {
                n.sig != 0
            } else {
                n.sig & ((1u64 << guard_pos) - 1) != 0
            };
            let mut int = int;
            if mode.round_up(n.sign, int & 1 == 1, guard, sticky) {
                int += 1;
            }
            if int == 0 {
                return fmt.zero_bits(n.sign);
            }
            // Re-pack the (small) integer; exact because its magnitude is
            // below 2^(man_bits) here, so every such integer is on the grid.
            let hb = 63 - int.leading_zeros() as i32;
            let sig = if hb > point {
                shift_right_jam(int, (hb - point) as u32)
            } else {
                int << (point - hb) as u32
            };
            round_pack(fmt, mode, n.sign, hb, sig).0
        }
    }
}

/// Converts an encoding of `fmt` to a signed 16-bit integer (the Fig. 3
/// `FP16 ↔ int16` conversion block). Saturates per RISC-V narrow-convert
/// conventions; NaN yields `i16::MAX`.
pub fn to_i16(fmt: FpFormat, bits: u64, mode: RoundingMode) -> i16 {
    to_i32(fmt, bits, mode).clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// Converts an encoding of `fmt` to an unsigned 16-bit integer.
pub fn to_u16(fmt: FpFormat, bits: u64, mode: RoundingMode) -> u16 {
    to_u32(fmt, bits, mode).min(u16::MAX as u32) as u16
}

/// Converts an encoding of `fmt` to a signed 8-bit integer (the Fig. 3
/// `FP8 ↔ int8` conversion block). Saturates; NaN yields `i8::MAX`.
pub fn to_i8(fmt: FpFormat, bits: u64, mode: RoundingMode) -> i8 {
    to_i32(fmt, bits, mode).clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

/// Converts an encoding of `fmt` to an unsigned 8-bit integer.
pub fn to_u8(fmt: FpFormat, bits: u64, mode: RoundingMode) -> u8 {
    to_u32(fmt, bits, mode).min(u8::MAX as u32) as u8
}

/// Converts a signed 16-bit integer to an encoding of `fmt`.
pub fn from_i16(fmt: FpFormat, v: i16, mode: RoundingMode) -> u64 {
    from_i32(fmt, v as i32, mode)
}

/// Converts a signed 8-bit integer to an encoding of `fmt`. Exact in every
/// format with at least 7 mantissa bits; rounds in binary8.
pub fn from_i8(fmt: FpFormat, v: i8, mode: RoundingMode) -> u64 {
    from_i32(fmt, v as i32, mode)
}

fn from_mag(fmt: FpFormat, mag: u64, sign: bool, mode: RoundingMode) -> u64 {
    if mag == 0 {
        return fmt.zero_bits(false); // integer zero is unsigned: +0
    }
    let hb = 63 - mag.leading_zeros() as i32;
    let target = (fmt.man_bits() + GRS) as i32;
    let sig = if hb > target {
        shift_right_jam(mag, (hb - target) as u32)
    } else {
        mag << (target - hb) as u32
    };
    round_pack(fmt, mode, sign, hb, sig).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{FloatClass, BINARY16, BINARY16ALT, BINARY32, BINARY8};

    const RNE: RoundingMode = RoundingMode::NearestEven;
    const RTZ: RoundingMode = RoundingMode::TowardZero;

    #[test]
    fn widening_is_exact_exhaustive_binary8() {
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            for dst in [BINARY16, BINARY16ALT, BINARY32] {
                let wide = convert(BINARY8, dst, bits, RNE);
                let vw = dst.decode_to_f64(wide);
                if v.is_nan() {
                    assert!(vw.is_nan());
                } else {
                    assert_eq!(vw, v, "{dst}: bits {bits:#x}");
                }
            }
        }
    }

    #[test]
    fn narrowing_matches_reference_rounding() {
        // binary32 -> each narrow format must equal round_from_f64 of the
        // decoded value, for every rounding mode.
        let samples: Vec<u64> = (0..20_000)
            .map(|i| (i * 214_661) & BINARY32.bits_mask())
            .collect();
        for &bits in &samples {
            let v = BINARY32.decode_to_f64(bits);
            if v.is_nan() {
                continue;
            }
            for dst in [BINARY8, BINARY16, BINARY16ALT] {
                for mode in RoundingMode::ALL {
                    let got = convert(BINARY32, dst, bits, mode);
                    let want = dst.round_from_f64(v, mode).bits;
                    assert_eq!(got, want, "{dst} {mode} v={v:e}");
                }
            }
        }
    }

    #[test]
    fn binary16_to_binary16alt_loses_precision_not_range() {
        // 16-bit cross-conversions: binary16 values always fit in
        // binary16alt's range.
        let mut saturated = 0;
        for bits in 0..=0xFFFFu64 {
            let v = BINARY16.decode_to_f64(bits);
            if !v.is_finite() {
                continue;
            }
            let alt = convert(BINARY16, BINARY16ALT, bits, RNE);
            if BINARY16ALT.decode_to_f64(alt).is_infinite() {
                saturated += 1;
            }
        }
        assert_eq!(saturated, 0, "binary16 -> binary16alt must never saturate");
    }

    #[test]
    fn binary16alt_to_binary16_saturates_large_values() {
        let big = BINARY16ALT.round_from_f64(1e10, RNE).bits;
        let out = convert(BINARY16ALT, BINARY16, big, RNE);
        assert!(BINARY16.decode_to_f64(out).is_infinite());
    }

    #[test]
    fn binary8_binary16_conversions_never_saturate() {
        // The paper chose binary8's 5-bit exponent to mirror binary16, so
        // binary8 <-> binary16 conversions only affect precision.
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            if !v.is_finite() {
                continue;
            }
            let w = convert(BINARY8, BINARY16, bits, RNE);
            assert_eq!(BINARY16.decode_to_f64(w), v); // exact: superset precision
        }
    }

    #[test]
    fn to_i32_matches_native_f32_casts() {
        let vals = [
            0.0f32,
            -0.0,
            0.4,
            0.5,
            0.6,
            -0.5,
            1.5,
            2.5,
            -2.5,
            100.7,
            -100.7,
            2147483500.0,
            -2147483700.0,
            3e9,
            -3e9,
            1e-40,
        ];
        for &x in &vals {
            let bits = x.to_bits() as u64;
            // Rust's `as i32` truncates with saturation == RISC-V RTZ.
            assert_eq!(to_i32(BINARY32, bits, RTZ), x as i32, "({x})");
        }
        assert_eq!(to_i32(BINARY32, (f32::NAN).to_bits() as u64, RTZ), i32::MAX);
        assert_eq!(
            to_i32(BINARY32, f32::INFINITY.to_bits() as u64, RTZ),
            i32::MAX
        );
        assert_eq!(
            to_i32(BINARY32, f32::NEG_INFINITY.to_bits() as u64, RTZ),
            i32::MIN
        );
    }

    #[test]
    fn to_i32_rne_ties() {
        let enc = |x: f32| x.to_bits() as u64;
        assert_eq!(to_i32(BINARY32, enc(0.5), RNE), 0);
        assert_eq!(to_i32(BINARY32, enc(1.5), RNE), 2);
        assert_eq!(to_i32(BINARY32, enc(2.5), RNE), 2);
        assert_eq!(to_i32(BINARY32, enc(-0.5), RNE), 0);
        assert_eq!(to_i32(BINARY32, enc(-1.5), RNE), -2);
    }

    #[test]
    fn to_u32_saturates_negative() {
        let enc = |x: f32| x.to_bits() as u64;
        assert_eq!(to_u32(BINARY32, enc(-1.0), RTZ), 0);
        assert_eq!(to_u32(BINARY32, enc(-0.4), RTZ), 0);
        assert_eq!(to_u32(BINARY32, enc(4.0e9), RTZ), 4_000_000_000);
        assert_eq!(to_u32(BINARY32, enc(5.0e9), RTZ), u32::MAX);
        assert_eq!(to_u32(BINARY32, enc(f32::NAN), RTZ), u32::MAX);
    }

    #[test]
    fn from_i32_matches_native() {
        for &v in &[
            0i32,
            1,
            -1,
            7,
            -100,
            16_777_216,
            16_777_217,
            i32::MAX,
            i32::MIN,
            33_554_433,
        ] {
            let got = from_i32(BINARY32, v, RNE);
            let want = (v as f32).to_bits() as u64;
            assert_eq!(got, want, "{v}");
        }
    }

    #[test]
    fn from_u32_rounds_to_narrow_formats() {
        // 300 rounds to 320 in binary8 (mantissa 1.01 * 2^8 = 320; candidates 288? no:
        // binary8 around 300: 256, 288? step at 2^8 is 64: 256, 320 -> 300 is closer to 320? 300-256=44, 320-300=20 -> 320).
        let got = from_u32(BINARY8, 300, RNE);
        assert_eq!(BINARY8.decode_to_f64(got), 320.0);
        // Saturation to infinity for huge integers.
        let got = from_u32(BINARY8, 100_000, RNE);
        assert_eq!(FloatClass::of_bits(BINARY8, got), FloatClass::Infinite);
    }

    #[test]
    fn round_to_integral_matches_native_f32() {
        let cases = [
            0.0f32,
            -0.0,
            0.4,
            0.5,
            0.6,
            1.5,
            2.5,
            -2.5,
            -0.5,
            100.49,
            1e6,
            -1e6,
            1e30,
            8388607.5,
            0.999999,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for &x in &cases {
            let bits = x.to_bits() as u64;
            let rne = round_to_integral(BINARY32, bits, RNE);
            assert_eq!(
                BINARY32.decode_to_f64(rne),
                x.round_ties_even() as f64,
                "RNE({x})"
            );
            let rtz = round_to_integral(BINARY32, bits, RTZ);
            assert_eq!(BINARY32.decode_to_f64(rtz), x.trunc() as f64, "RTZ({x})");
            let up = round_to_integral(BINARY32, bits, RoundingMode::TowardPositive);
            assert_eq!(BINARY32.decode_to_f64(up), x.ceil() as f64, "ceil({x})");
            let down = round_to_integral(BINARY32, bits, RoundingMode::TowardNegative);
            assert_eq!(BINARY32.decode_to_f64(down), x.floor() as f64, "floor({x})");
        }
        // NaN maps to the canonical quiet NaN.
        let n = round_to_integral(BINARY32, (f32::NAN).to_bits() as u64, RNE);
        assert_eq!(n, BINARY32.quiet_nan_bits());
    }

    #[test]
    fn round_to_integral_binary8_exhaustive() {
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            if v.is_nan() {
                continue;
            }
            let got = BINARY8.decode_to_f64(round_to_integral(BINARY8, bits, RNE));
            let want = v.round_ties_even();
            // The rounded integer may itself need rounding onto the binary8
            // grid only when |v| >= 2^m, where values are already integral.
            assert_eq!(got, want, "bits {bits:#x} v {v}");
        }
    }

    #[test]
    fn round_to_integral_preserves_zero_sign() {
        assert_eq!(
            round_to_integral(BINARY16, BINARY16.zero_bits(true), RNE),
            BINARY16.zero_bits(true)
        );
        // -0.4 rounds to -0 under RNE.
        let neg_small = BINARY16.round_from_f64(-0.4, RNE).bits;
        let (sign, exp, man) = BINARY16.unpack(round_to_integral(BINARY16, neg_small, RNE));
        assert!(sign && exp == 0 && man == 0);
    }

    #[test]
    fn narrow_int_conversions_saturate() {
        let enc = |x: f64| BINARY16.round_from_f64(x, RNE).bits;
        assert_eq!(to_i16(BINARY16, enc(1234.0), RTZ), 1234);
        assert_eq!(to_i16(BINARY16, enc(40000.0), RTZ), i16::MAX);
        assert_eq!(to_i16(BINARY16, enc(-40000.0), RTZ), i16::MIN);
        assert_eq!(to_u16(BINARY16, enc(-1.0), RTZ), 0);
        assert_eq!(
            to_i8(BINARY8, BINARY8.round_from_f64(100.0, RNE).bits, RNE),
            96
        );
        assert_eq!(
            to_i8(BINARY8, BINARY8.round_from_f64(300.0, RNE).bits, RNE),
            i8::MAX
        );
        assert_eq!(
            to_u8(BINARY8, BINARY8.round_from_f64(300.0, RNE).bits, RNE),
            u8::MAX
        );
        assert_eq!(to_u8(BINARY8, BINARY8.zero_bits(true), RNE), 0);
    }

    #[test]
    fn narrow_int_from_conversions() {
        assert_eq!(
            BINARY16.decode_to_f64(from_i16(BINARY16, -2048, RNE)),
            -2048.0
        );
        // binary8 rounds: 100 -> nearest representable 96.
        assert_eq!(BINARY8.decode_to_f64(from_i8(BINARY8, 100, RNE)), 96.0);
        assert_eq!(BINARY8.decode_to_f64(from_i8(BINARY8, -3, RNE)), -3.0);
        // i16 round trip within binary16 precision (|v| <= 2048).
        for v in [-2048i16, -100, 0, 1, 777, 2048] {
            let f = from_i16(BINARY16, v, RNE);
            assert_eq!(to_i16(BINARY16, f, RNE), v);
        }
    }

    #[test]
    fn int_round_trip_within_precision() {
        // Integers that fit the mantissa round-trip exactly.
        for fmt in [BINARY16, BINARY32] {
            let max_exact = 1i32 << fmt.precision_bits();
            for v in [0, 1, 2, 3, max_exact - 1, max_exact, -max_exact] {
                let f = from_i32(fmt, v, RNE);
                assert_eq!(to_i32(fmt, f, RNE), v, "{fmt} {v}");
            }
        }
    }
}
