//! Addition, subtraction, multiplication and division kernels.
//!
//! All functions operate on raw encodings (`u64` bit patterns) of a single
//! [`FpFormat`]; both operands and the result share that format. NaN inputs
//! and invalid operations produce the format's canonical quiet NaN, matching
//! the behaviour of FPnew-style hardware.

use tp_formats::{FpFormat, RoundingMode};

use crate::internal::{renormalize, round_pack, shift_right_jam, unpack, Norm, Unpacked, GRS};
use crate::FlagSet;

/// Adds two encodings of `fmt`.
pub fn add(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> u64 {
    add_with_flags(fmt, a, b, mode).0
}

/// [`add`] together with the IEEE exception flags it raises, for every
/// format: NV for `inf - inf`, and the flags of the one rounding step.
pub fn add_with_flags(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> (u64, FlagSet) {
    let exact = |bits| (bits, FlagSet::NONE);
    match (unpack(fmt, a), unpack(fmt, b)) {
        // Quiet NaN propagation raises nothing.
        (Unpacked::Nan, _) | (_, Unpacked::Nan) => exact(fmt.quiet_nan_bits()),
        (Unpacked::Inf(sa), Unpacked::Inf(sb)) => {
            if sa == sb {
                exact(fmt.inf_bits(sa))
            } else {
                (fmt.quiet_nan_bits(), FlagSet::INVALID) // inf - inf is invalid
            }
        }
        (Unpacked::Inf(s), _) | (_, Unpacked::Inf(s)) => exact(fmt.inf_bits(s)),
        (Unpacked::Zero(sa), Unpacked::Zero(sb)) => {
            if sa == sb {
                exact(fmt.zero_bits(sa))
            } else {
                exact(fmt.zero_bits(mode == RoundingMode::TowardNegative))
            }
        }
        (Unpacked::Zero(_), Unpacked::Finite(_)) => exact(b & fmt.bits_mask()),
        (Unpacked::Finite(_), Unpacked::Zero(_)) => exact(a & fmt.bits_mask()),
        (Unpacked::Finite(na), Unpacked::Finite(nb)) => add_finite(fmt, na, nb, mode),
    }
}

/// Subtracts `b` from `a` (implemented as `a + (-b)`).
pub fn sub(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> u64 {
    sub_with_flags(fmt, a, b, mode).0
}

/// [`sub`] together with the IEEE exception flags it raises (see
/// [`add_with_flags`]).
pub fn sub_with_flags(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> (u64, FlagSet) {
    add_with_flags(fmt, a, b ^ (1u64 << fmt.sign_shift()), mode)
}

fn add_finite(fmt: FpFormat, a: Norm, b: Norm, mode: RoundingMode) -> (u64, FlagSet) {
    // Order so that `hi` has the larger magnitude.
    let (hi, lo) = if (a.exp, a.sig) >= (b.exp, b.sig) {
        (a, b)
    } else {
        (b, a)
    };
    let d = (hi.exp - lo.exp) as u32;

    if a.sign == b.sign {
        let lo_sig = shift_right_jam(lo.sig, d.min(63));
        let sum = hi.sig + lo_sig;
        // A carry moves the leading bit one position up; renormalize jams it
        // back down into the sticky bit.
        let (exp, sig) = renormalize(fmt, hi.exp, sum);
        round_pack(fmt, mode, hi.sign, exp, sig)
    } else {
        if d == 0 && hi.sig == lo.sig {
            // Exact cancellation: the zero's sign depends on the mode.
            return (
                fmt.zero_bits(mode == RoundingMode::TowardNegative),
                FlagSet::NONE,
            );
        }
        let lo_sig = shift_right_jam(lo.sig, d.min(63));
        let diff = hi.sig - lo_sig;
        // When the jamming shift lost bits (d > GRS), at most one bit of
        // cancellation can occur, so the sticky bit never reaches the guard
        // position during renormalization; when d <= GRS the subtraction is
        // exact and any amount of left-normalization is safe.
        let (exp, sig) = renormalize(fmt, hi.exp, diff);
        round_pack(fmt, mode, hi.sign, exp, sig)
    }
}

/// Multiplies two encodings of `fmt`.
pub fn mul(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> u64 {
    mul_with_flags(fmt, a, b, mode).0
}

/// [`mul`] together with the IEEE exception flags it raises, for every
/// format: NV for `0 * inf`, and the flags of the one rounding step.
pub fn mul_with_flags(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> (u64, FlagSet) {
    let (ua, ub) = (unpack(fmt, a), unpack(fmt, b));
    let sign = ua.sign() ^ ub.sign();
    let exact = |bits| (bits, FlagSet::NONE);
    match (ua, ub) {
        (Unpacked::Nan, _) | (_, Unpacked::Nan) => exact(fmt.quiet_nan_bits()),
        (Unpacked::Inf(_), Unpacked::Zero(_)) | (Unpacked::Zero(_), Unpacked::Inf(_)) => {
            (fmt.quiet_nan_bits(), FlagSet::INVALID) // 0 * inf is invalid
        }
        (Unpacked::Inf(_), _) | (_, Unpacked::Inf(_)) => exact(fmt.inf_bits(sign)),
        (Unpacked::Zero(_), _) | (_, Unpacked::Zero(_)) => exact(fmt.zero_bits(sign)),
        (Unpacked::Finite(na), Unpacked::Finite(nb)) => {
            let m = fmt.man_bits();
            // Natural significands in [2^m, 2^(m+1)); the bottom GRS bits of
            // the working form are zero by construction.
            let ns_a = (na.sig >> GRS) as u128;
            let ns_b = (nb.sig >> GRS) as u128;
            let prod = ns_a * ns_b; // in [2^2m, 2^(2m+2))
            let p_lead = 127 - prod.leading_zeros() as i32; // 2m or 2m+1
            let exp = na.exp + nb.exp + (p_lead - 2 * m as i32);
            let target = (m + GRS) as i32;
            let sig = if p_lead > target {
                crate::internal::shift_right_jam128(prod, (p_lead - target) as u32) as u64
            } else {
                (prod as u64) << (target - p_lead) as u32
            };
            round_pack(fmt, mode, sign, exp, sig)
        }
    }
}

/// Divides `a` by `b` in `fmt`.
pub fn div(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> u64 {
    div_with_flags(fmt, a, b, mode).0
}

/// [`div`] together with the IEEE exception flags it raises, for every
/// format: NV for `0/0` and `inf/inf`, DZ for a finite non-zero dividend
/// over zero, and the flags of the one rounding step.
pub fn div_with_flags(fmt: FpFormat, a: u64, b: u64, mode: RoundingMode) -> (u64, FlagSet) {
    let (ua, ub) = (unpack(fmt, a), unpack(fmt, b));
    let sign = ua.sign() ^ ub.sign();
    let exact = |bits| (bits, FlagSet::NONE);
    match (ua, ub) {
        (Unpacked::Nan, _) | (_, Unpacked::Nan) => exact(fmt.quiet_nan_bits()),
        (Unpacked::Inf(_), Unpacked::Inf(_)) => (fmt.quiet_nan_bits(), FlagSet::INVALID), // inf/inf
        (Unpacked::Zero(_), Unpacked::Zero(_)) => (fmt.quiet_nan_bits(), FlagSet::INVALID), // 0/0
        (Unpacked::Inf(_), _) => exact(fmt.inf_bits(sign)),
        (_, Unpacked::Inf(_)) => exact(fmt.zero_bits(sign)),
        (Unpacked::Zero(_), _) => exact(fmt.zero_bits(sign)),
        (_, Unpacked::Zero(_)) => (fmt.inf_bits(sign), FlagSet::DIV_BY_ZERO),
        (Unpacked::Finite(na), Unpacked::Finite(nb)) => {
            let m = fmt.man_bits();
            let ns_a = (na.sig >> GRS) as u128;
            let ns_b = (nb.sig >> GRS) as u128;
            // Scale the dividend so the quotient has m+4 or m+5 bits.
            let scaled = ns_a << (m + 4);
            let q = (scaled / ns_b) as u64;
            let rem = !scaled.is_multiple_of(ns_b);
            let q_lead = 63 - q.leading_zeros() as i32; // m+3 or m+4
            let exp = na.exp - nb.exp + (q_lead - (m as i32 + 4));
            let target = (m + GRS) as i32;
            let mut sig = if q_lead > target {
                shift_right_jam(q, (q_lead - target) as u32)
            } else {
                q << (target - q_lead) as u32
            };
            sig |= rem as u64;
            round_pack(fmt, mode, sign, exp, sig)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{FloatClass, BINARY16, BINARY32, BINARY8};

    const RNE: RoundingMode = RoundingMode::NearestEven;

    /// Checks a binary op in BINARY32 against native f32 arithmetic.
    fn check_f32(
        op: fn(FpFormat, u64, u64, RoundingMode) -> u64,
        native: fn(f32, f32) -> f32,
        a: f32,
        b: f32,
    ) {
        let got = op(BINARY32, a.to_bits() as u64, b.to_bits() as u64, RNE);
        let want = native(a, b);
        if want.is_nan() {
            assert_eq!(
                FloatClass::of_bits(BINARY32, got),
                FloatClass::Nan,
                "{a:e} op {b:e}"
            );
        } else {
            assert_eq!(got, want.to_bits() as u64, "{a:e} op {b:e}: got {got:#x}");
        }
    }

    #[test]
    fn add_matches_native_f32() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1.5,
            0.1,
            1e-40,
            -1e-40,
            3.4e38,
            -3.4e38,
            1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            123456.78,
            -0.007,
            2.0f32.powi(-126),
        ];
        for &a in &vals {
            for &b in &vals {
                check_f32(add, |x, y| x + y, a, b);
                check_f32(sub, |x, y| x - y, a, b);
            }
        }
    }

    #[test]
    fn mul_matches_native_f32() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            -3.0,
            0.1,
            1e-30,
            1e30,
            3.4e38,
            1e-45,
            f32::INFINITY,
            f32::NAN,
            7.7e-12,
            2.0f32.powi(-126),
            1.9999999,
        ];
        for &a in &vals {
            for &b in &vals {
                check_f32(mul, |x, y| x * y, a, b);
            }
        }
    }

    #[test]
    fn div_matches_native_f32() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            -3.0,
            0.1,
            1e-30,
            1e30,
            3.4e38,
            1e-45,
            f32::INFINITY,
            f32::NAN,
            7.7e-12,
            3.0,
            10.0,
            1.9999999,
        ];
        for &a in &vals {
            for &b in &vals {
                check_f32(div, |x, y| x / y, a, b);
            }
        }
    }

    #[test]
    fn binary8_add_exhaustive_vs_reference() {
        // Reference: decode to f64, add exactly (f64 is wide enough that the
        // sum of two binary8 values is exact), round back.
        for a in 0..=0xFFu64 {
            for b in 0..=0xFFu64 {
                let got = add(BINARY8, a, b, RNE);
                let va = BINARY8.decode_to_f64(a);
                let vb = BINARY8.decode_to_f64(b);
                let exact = va + vb;
                let want = if exact.is_nan() && !(va.is_nan() || vb.is_nan()) {
                    // inf + -inf
                    BINARY8.quiet_nan_bits()
                } else if va == 0.0 && vb == 0.0 {
                    got // signed-zero cases checked separately
                } else {
                    BINARY8.round_from_f64(exact, RNE).bits
                };
                assert_eq!(got, want, "a={a:#010b} b={b:#010b}");
            }
        }
    }

    #[test]
    fn binary8_mul_exhaustive_vs_reference() {
        for a in 0..=0xFFu64 {
            for b in 0..=0xFFu64 {
                let got = mul(BINARY8, a, b, RNE);
                let va = BINARY8.decode_to_f64(a);
                let vb = BINARY8.decode_to_f64(b);
                let exact = va * vb; // exact: 3-bit x 3-bit significands
                let want = BINARY8.round_from_f64(exact, RNE).bits;
                if BINARY8.decode_to_f64(want).is_nan() {
                    assert!(BINARY8.decode_to_f64(got).is_nan(), "a={a:#x} b={b:#x}");
                } else {
                    assert_eq!(got, want, "a={a:#010b} b={b:#010b}");
                }
            }
        }
    }

    #[test]
    fn signed_zero_semantics() {
        let pz = BINARY16.zero_bits(false);
        let nz = BINARY16.zero_bits(true);
        assert_eq!(add(BINARY16, pz, nz, RNE), pz);
        assert_eq!(add(BINARY16, nz, pz, RNE), pz);
        assert_eq!(add(BINARY16, nz, nz, RNE), nz);
        assert_eq!(add(BINARY16, pz, nz, RoundingMode::TowardNegative), nz);
        // x - x = +0 under RNE, -0 under RTN.
        let one = BINARY16.round_from_f64(1.0, RNE).bits;
        assert_eq!(sub(BINARY16, one, one, RNE), pz);
        assert_eq!(sub(BINARY16, one, one, RoundingMode::TowardNegative), nz);
    }

    #[test]
    fn subnormal_arithmetic() {
        // min_subnormal + min_subnormal = 2 * min_subnormal (exact).
        let s = BINARY8.min_subnormal_bits();
        let got = add(BINARY8, s, s, RNE);
        assert_eq!(BINARY8.decode_to_f64(got), 2.0 * BINARY8.min_subnormal());
        // min_normal / 2 = subnormal.
        let mn = BINARY8.min_normal_bits();
        let two = BINARY8.round_from_f64(2.0, RNE).bits;
        let half = div(BINARY8, mn, two, RNE);
        assert_eq!(BINARY8.decode_to_f64(half), BINARY8.min_normal() / 2.0);
        assert_eq!(FloatClass::of_bits(BINARY8, half), FloatClass::Subnormal);
    }

    #[test]
    fn division_specials() {
        let one = BINARY16.round_from_f64(1.0, RNE).bits;
        let pz = BINARY16.zero_bits(false);
        let nz = BINARY16.zero_bits(true);
        assert_eq!(div(BINARY16, one, pz, RNE), BINARY16.inf_bits(false));
        assert_eq!(div(BINARY16, one, nz, RNE), BINARY16.inf_bits(true));
        assert!(BINARY16.decode_to_f64(div(BINARY16, pz, pz, RNE)).is_nan());
        assert!(BINARY16
            .decode_to_f64(div(
                BINARY16,
                BINARY16.inf_bits(false),
                BINARY16.inf_bits(true),
                RNE
            ))
            .is_nan());
    }

    #[test]
    fn massive_cancellation_is_exact() {
        // (1 + 2^-10) - 1 = 2^-10 exactly in binary16.
        let a = BINARY16.round_from_f64(1.0 + 2f64.powi(-10), RNE).bits;
        let one = BINARY16.round_from_f64(1.0, RNE).bits;
        let got = sub(BINARY16, a, one, RNE);
        assert_eq!(BINARY16.decode_to_f64(got), 2f64.powi(-10));
    }

    #[test]
    fn addition_is_commutative_sampled() {
        let vals: Vec<u64> = (0..400).map(|i| (i * 163) & BINARY16.bits_mask()).collect();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(add(BINARY16, a, b, RNE), add(BINARY16, b, a, RNE));
                assert_eq!(mul(BINARY16, a, b, RNE), mul(BINARY16, b, a, RNE));
            }
        }
    }
}
