//! Square root and fused multiply-add kernels.

use tp_formats::{FpFormat, RoundingMode};

use crate::internal::{round_pack, shift_right_jam128, unpack, Unpacked, GRS};
use crate::FlagSet;

/// Integer square root of a `u128`, by binary digit recurrence.
fn isqrt_u128(a: u128) -> u128 {
    if a == 0 {
        return 0;
    }
    let mut rem = 0u128;
    let mut root = 0u128;
    // Process two input bits per iteration, starting from an even position.
    let top = (127 - a.leading_zeros()) & !1;
    let mut shift = top as i32;
    while shift >= 0 {
        rem = (rem << 2) | ((a >> shift) & 0b11);
        root <<= 1;
        let cand = (root << 1) | 1;
        if cand <= rem {
            rem -= cand;
            root |= 1;
        }
        shift -= 2;
    }
    root
}

/// Square root of an encoding of `fmt`.
///
/// Follows IEEE 754: `sqrt(-0) = -0`, `sqrt(+inf) = +inf`, and any negative
/// non-zero input (including `-inf`) is invalid and yields the canonical NaN.
pub fn sqrt(fmt: FpFormat, a: u64, mode: RoundingMode) -> u64 {
    sqrt_with_flags(fmt, a, mode).0
}

/// [`sqrt`] together with the IEEE exception flags it raises, for every
/// format: NV for a negative non-zero operand, otherwise at most NX (a
/// square root can neither overflow nor underflow).
pub fn sqrt_with_flags(fmt: FpFormat, a: u64, mode: RoundingMode) -> (u64, FlagSet) {
    match unpack(fmt, a) {
        Unpacked::Nan => (fmt.quiet_nan_bits(), FlagSet::NONE),
        Unpacked::Zero(s) => (fmt.zero_bits(s), FlagSet::NONE),
        Unpacked::Inf(false) => (fmt.inf_bits(false), FlagSet::NONE),
        Unpacked::Inf(true) => (fmt.quiet_nan_bits(), FlagSet::INVALID),
        Unpacked::Finite(n) if n.sign => (fmt.quiet_nan_bits(), FlagSet::INVALID),
        Unpacked::Finite(n) => {
            let m = fmt.man_bits();
            let ns = (n.sig >> GRS) as u128; // natural significand in [2^m, 2^(m+1))

            // value = f * 2^E with f = ns / 2^m in [1, 2), E = n.exp.
            // Make the exponent even by folding one doubling into f.
            let (f_scaled, e) = if n.exp & 1 != 0 {
                (ns << 1, n.exp - 1)
            } else {
                (ns, n.exp)
            };
            // Target root with leading bit at m+3: root ~= sqrt(f) * 2^(m+3),
            // so square the scale: A = f * 2^(2m+6) = f_scaled * 2^(m+6).
            let big = f_scaled << (m + 6);
            let root = isqrt_u128(big);
            let rem = big - root * root;
            let sig = (root as u64) | (rem != 0) as u64;
            round_pack(fmt, mode, false, e / 2, sig)
        }
    }
}

/// Fused multiply-add `a * b + c` with a single rounding, in `fmt`.
pub fn fused_mul_add(fmt: FpFormat, a: u64, b: u64, c: u64, mode: RoundingMode) -> u64 {
    fused_mul_add_with_flags(fmt, a, b, c, mode).0
}

/// [`fused_mul_add`] together with the IEEE exception flags it raises, for
/// every format: NV for `0 * inf` (even with a NaN addend, as RISC-V
/// requires) and for `inf - inf`, and the flags of the one rounding step.
pub fn fused_mul_add_with_flags(
    fmt: FpFormat,
    a: u64,
    b: u64,
    c: u64,
    mode: RoundingMode,
) -> (u64, FlagSet) {
    let (ua, ub, uc) = (unpack(fmt, a), unpack(fmt, b), unpack(fmt, c));
    let exact = |bits| (bits, FlagSet::NONE);
    if matches!(ua, Unpacked::Nan) || matches!(ub, Unpacked::Nan) {
        return exact(fmt.quiet_nan_bits());
    }
    let psign = ua.sign() ^ ub.sign();

    // Infinite product?
    let prod_inf = matches!(ua, Unpacked::Inf(_)) || matches!(ub, Unpacked::Inf(_));
    let prod_zero = matches!(ua, Unpacked::Zero(_)) || matches!(ub, Unpacked::Zero(_));
    if prod_inf && prod_zero {
        return (fmt.quiet_nan_bits(), FlagSet::INVALID); // 0 * inf
    }
    if matches!(uc, Unpacked::Nan) {
        return exact(fmt.quiet_nan_bits());
    }
    if prod_inf {
        return match uc {
            Unpacked::Inf(cs) if cs != psign => (fmt.quiet_nan_bits(), FlagSet::INVALID), // inf - inf
            _ => exact(fmt.inf_bits(psign)),
        };
    }
    if let Unpacked::Inf(cs) = uc {
        return exact(fmt.inf_bits(cs));
    }
    if prod_zero {
        // Exact result is c, except for the signed-zero combination rules.
        return exact(match uc {
            Unpacked::Zero(cs) => {
                if cs == psign {
                    fmt.zero_bits(cs)
                } else {
                    fmt.zero_bits(mode == RoundingMode::TowardNegative)
                }
            }
            _ => c & fmt.bits_mask(),
        });
    }

    let m = fmt.man_bits();
    let (na, nb) = match (ua, ub) {
        (Unpacked::Finite(na), Unpacked::Finite(nb)) => (na, nb),
        _ => unreachable!("zero/inf product handled above"),
    };

    // Working position of the leading bit inside the u128 accumulators.
    let lead = 2 * m + 8;

    // Product significand, normalized to `lead`.
    let prod = ((na.sig >> GRS) as u128) * ((nb.sig >> GRS) as u128); // [2^2m, 2^(2m+2))
    let p_hb = 127 - prod.leading_zeros(); // 2m or 2m+1
    let p_sig = prod << (lead - p_hb);
    let p_exp = na.exp + nb.exp + (p_hb as i32 - 2 * m as i32);

    let (sign, exp, sig) = match uc {
        Unpacked::Zero(_) => (psign, p_exp, p_sig),
        Unpacked::Finite(nc) => {
            let c_sig = ((nc.sig >> GRS) as u128) << (lead - m);
            let c_exp = nc.exp;
            let csign = nc.sign;
            // Align the smaller addend, jamming lost bits into sticky.
            let (hi_s, hi_e, hi_sig, lo_s, lo_sig) = if (p_exp, p_sig) >= (c_exp, c_sig) {
                let d = (p_exp - c_exp) as u32;
                (
                    psign,
                    p_exp,
                    p_sig,
                    csign,
                    shift_right_jam128(c_sig, d.min(127)),
                )
            } else {
                let d = (c_exp - p_exp) as u32;
                (
                    csign,
                    c_exp,
                    c_sig,
                    psign,
                    shift_right_jam128(p_sig, d.min(127)),
                )
            };
            if hi_s == lo_s {
                (hi_s, hi_e, hi_sig + lo_sig)
            } else if hi_sig == lo_sig {
                return exact(fmt.zero_bits(mode == RoundingMode::TowardNegative));
            } else {
                (hi_s, hi_e, hi_sig - lo_sig)
            }
        }
        _ => unreachable!("inf/nan addend handled above"),
    };

    // Renormalize to `lead`, then drop to the m+GRS working width.
    let hb = 127 - sig.leading_zeros();
    let exp = exp + hb as i32 - lead as i32;
    let sig = if hb > lead {
        shift_right_jam128(sig, hb - lead)
    } else {
        sig << (lead - hb)
    };
    let small = shift_right_jam128(sig, lead - (m + GRS)) as u64;
    round_pack(fmt, mode, sign, exp, small)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{FloatClass, BINARY16, BINARY32, BINARY8};

    const RNE: RoundingMode = RoundingMode::NearestEven;

    #[test]
    fn isqrt_small_values() {
        for n in 0u128..1000 {
            let r = isqrt_u128(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n = {n}");
        }
        assert_eq!(isqrt_u128(1 << 100), 1 << 50);
        assert_eq!(isqrt_u128(u128::MAX), (1 << 64) - 1);
    }

    #[test]
    fn sqrt_matches_native_f32() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            2.0,
            4.0,
            0.25,
            3.0,
            10.0,
            1e-30,
            1e30,
            3.4e38,
            1e-45,
            f32::INFINITY,
            2.0f32.powi(-126),
            1.9999999,
            0.1,
        ];
        for &x in &vals {
            let got = sqrt(BINARY32, x.to_bits() as u64, RNE);
            let want = x.sqrt();
            assert_eq!(got, want.to_bits() as u64, "sqrt({x:e})");
        }
        // Negative inputs are invalid.
        for &x in &[-1.0f32, -1e-45, f32::NEG_INFINITY] {
            let got = sqrt(BINARY32, x.to_bits() as u64, RNE);
            assert_eq!(
                FloatClass::of_bits(BINARY32, got),
                FloatClass::Nan,
                "sqrt({x})"
            );
        }
    }

    #[test]
    fn sqrt_binary8_exhaustive_vs_reference() {
        for bits in 0..=0xFFu64 {
            let v = BINARY8.decode_to_f64(bits);
            let got = sqrt(BINARY8, bits, RNE);
            if v.is_nan() || (v < 0.0 && v != 0.0) || (v.is_infinite() && v < 0.0) {
                assert_eq!(FloatClass::of_bits(BINARY8, got), FloatClass::Nan);
            } else {
                // f64 sqrt of a binary8 value, rounded once to binary8,
                // equals the correctly-rounded result: the f64 error is
                // far below the binary8 half-ulp.
                let want = BINARY8.round_from_f64(v.sqrt(), RNE).bits;
                assert_eq!(got, want, "sqrt of bits {bits:#010b} = {v}");
            }
        }
    }

    #[test]
    fn fma_matches_native_f32() {
        let vals = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1.5,
            0.1,
            3.4e38,
            -3.4e38,
            1e-45,
            1e-20,
            -7.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            2.0f32.powi(-126),
            1.9999999,
        ];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let got = fused_mul_add(
                        BINARY32,
                        a.to_bits() as u64,
                        b.to_bits() as u64,
                        c.to_bits() as u64,
                        RNE,
                    );
                    let want = a.mul_add(b, c);
                    if want.is_nan() {
                        assert_eq!(
                            FloatClass::of_bits(BINARY32, got),
                            FloatClass::Nan,
                            "fma({a:e},{b:e},{c:e})"
                        );
                    } else if want == 0.0 && (a * b) != 0.0 {
                        // Exact cancellation sign differences between
                        // hardware FMA and our canonical choice are allowed
                        // only if the magnitude agrees.
                        assert_eq!(BINARY32.decode_to_f64(got), want as f64);
                    } else {
                        assert_eq!(
                            got,
                            want.to_bits() as u64,
                            "fma({a:e},{b:e},{c:e}): got {got:#x} want {:#x}",
                            want.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fma_single_rounding_differs_from_two_step() {
        // Classic witness: with m=10 (binary16), choose a*b whose low bits
        // cancel against c so the fused result differs from mul-then-add.
        // a = 1 + 2^-10, b = 1 - 2^-10  =>  a*b = 1 - 2^-20 (exact needs 21 bits).
        let a = BINARY16.round_from_f64(1.0 + 2f64.powi(-10), RNE).bits;
        let b = BINARY16.round_from_f64(1.0 - 2f64.powi(-10), RNE).bits;
        let neg_one = BINARY16.round_from_f64(-1.0, RNE).bits;
        let fused = fused_mul_add(BINARY16, a, b, neg_one, RNE);
        // Exact: (1+u)(1-u) - 1 = -u^2 = -2^-20.
        assert_eq!(BINARY16.decode_to_f64(fused), -(2f64.powi(-20)));
        // Two-step: mul rounds 1 - 2^-20 to 1.0, then 1 - 1 = 0.
        let two_step = crate::arith::add(
            BINARY16,
            crate::arith::mul(BINARY16, a, b, RNE),
            neg_one,
            RNE,
        );
        assert_eq!(BINARY16.decode_to_f64(two_step), 0.0);
    }

    #[test]
    fn fma_zero_product_returns_addend() {
        let z = BINARY8.zero_bits(false);
        let c = BINARY8.round_from_f64(1.5, RNE).bits;
        assert_eq!(fused_mul_add(BINARY8, z, c, c, RNE), c);
        // 0*x + 0 sign rules.
        let nz = BINARY8.zero_bits(true);
        assert_eq!(fused_mul_add(BINARY8, z, z, nz, RNE), z); // +0 + -0 = +0
        assert_eq!(fused_mul_add(BINARY8, nz, z, nz, RNE), nz); // -0 + -0 = -0
    }
}
