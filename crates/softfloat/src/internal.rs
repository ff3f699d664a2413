//! Internal normalized representation and the shared round-and-pack step.
//!
//! All arithmetic kernels funnel their results through [`round_pack`], which
//! implements IEEE 754 rounding with gradual underflow and per-mode overflow
//! behaviour. The working representation keeps the significand's leading bit
//! at position `m + 3`, leaving three low bits for guard/round/sticky.

use tp_formats::{FpFormat, RoundingMode};

use crate::FlagSet;

/// Number of working bits kept below the mantissa during an operation
/// (guard, round, sticky).
pub(crate) const GRS: u32 = 3;

/// A fully-unpacked finite, non-zero value.
///
/// Invariant: `sig` has its most-significant set bit exactly at position
/// `fmt.man_bits() + GRS`, and the numerical value is
/// `(-1)^sign * sig * 2^(exp - man_bits - GRS)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Norm {
    pub sign: bool,
    /// Unbiased exponent of the leading significand bit.
    pub exp: i32,
    pub sig: u64,
}

/// Classification of an unpacked operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unpacked {
    Zero(bool),
    Inf(bool),
    Nan,
    Finite(Norm),
}

impl Unpacked {
    pub(crate) fn sign(self) -> bool {
        match self {
            Unpacked::Zero(s) | Unpacked::Inf(s) => s,
            Unpacked::Nan => false,
            Unpacked::Finite(n) => n.sign,
        }
    }
}

/// Unpacks an encoding of `fmt` into the normalized working representation.
pub(crate) fn unpack(fmt: FpFormat, bits: u64) -> Unpacked {
    let (sign, exp, man) = fmt.unpack(bits);
    let m = fmt.man_bits();
    if exp == fmt.exp_field_max() {
        return if man == 0 {
            Unpacked::Inf(sign)
        } else {
            Unpacked::Nan
        };
    }
    if exp == 0 {
        if man == 0 {
            return Unpacked::Zero(sign);
        }
        // Subnormal: normalize so the leading bit sits at m + GRS.
        let hb = 63 - man.leading_zeros(); // current position of the MSB
        let shift = (m + GRS) as i32 - hb as i32; // always > GRS here
        let sig = man << shift;
        let e = fmt.emin() - (m as i32 - hb as i32); // exponent of the MSB
        return Unpacked::Finite(Norm { sign, exp: e, sig });
    }
    let sig = ((1u64 << m) | man) << GRS;
    Unpacked::Finite(Norm {
        sign,
        exp: exp as i32 - fmt.bias(),
        sig,
    })
}

/// Shifts `x` right by `n`, OR-ing every lost bit into the result's LSB
/// (the classic *jamming* shift that preserves sticky information).
#[inline]
pub(crate) fn shift_right_jam(x: u64, n: u32) -> u64 {
    if n == 0 {
        x
    } else if n >= 64 {
        (x != 0) as u64
    } else {
        (x >> n) | ((x & ((1u64 << n) - 1) != 0) as u64)
    }
}

/// 128-bit variant of [`shift_right_jam`].
#[inline]
pub(crate) fn shift_right_jam128(x: u128, n: u32) -> u128 {
    if n == 0 {
        x
    } else if n >= 128 {
        (x != 0) as u128
    } else {
        (x >> n) | ((x & ((1u128 << n) - 1) != 0) as u128)
    }
}

/// Rounds a normalized result and packs it into `fmt`, returning the
/// encoding together with the exception flags of this one rounding step.
///
/// `sig` must either be zero (yields a signed zero) or have its leading bit
/// at position `man_bits + GRS`; `exp` is the unbiased exponent of that bit.
/// The kernels jam every bit they drop into the sticky bit, so `sig` is
/// inexact exactly when the exact result is, and `exp` is the exponent of
/// the exact result. The flags follow
/// [`round_from_f64`](FpFormat::round_from_f64): NX when bits were lost,
/// OF (with NX) when the rounded value exceeds the largest finite one, and
/// UF when the result is inexact and tiny *before* rounding.
pub(crate) fn round_pack(
    fmt: FpFormat,
    mode: RoundingMode,
    sign: bool,
    exp: i32,
    sig: u64,
) -> (u64, FlagSet) {
    debug_assert!(
        sig == 0 || (63 - sig.leading_zeros()) == fmt.man_bits() + GRS,
        "round_pack: significand not normalized: {sig:#x} for {fmt}"
    );
    if sig == 0 {
        return (fmt.zero_bits(sign), FlagSet::NONE);
    }
    let m = fmt.man_bits();
    let emin = fmt.emin();
    let emax = fmt.emax();

    if exp < emin {
        // Gradual underflow: shift further right, jamming into sticky.
        let sig = shift_right_jam(sig, (emin - exp) as u32);
        let kept = sig >> GRS;
        let guard = (sig >> (GRS - 1)) & 1 == 1;
        let sticky = sig & ((1 << (GRS - 1)) - 1) != 0;
        let mut kept = kept;
        if mode.round_up(sign, kept & 1 == 1, guard, sticky) {
            kept += 1;
        }
        let bits = if kept >= (1u64 << m) {
            fmt.pack(sign, 1, 0) // rounded up to the smallest normal
        } else {
            fmt.pack(sign, 0, kept)
        };
        let inexact = guard || sticky;
        let flags = FlagSet {
            underflow: inexact,
            inexact,
            ..FlagSet::NONE
        };
        return (bits, flags);
    }

    let kept = sig >> GRS;
    let guard = (sig >> (GRS - 1)) & 1 == 1;
    let sticky = sig & ((1 << (GRS - 1)) - 1) != 0;
    let mut kept = kept;
    let mut exp = exp;
    if mode.round_up(sign, kept & 1 == 1, guard, sticky) {
        kept += 1;
        if kept == (1u64 << (m + 1)) {
            kept >>= 1;
            exp += 1;
        }
    }
    if exp > emax {
        let flags = FlagSet {
            overflow: true,
            inexact: true,
            ..FlagSet::NONE
        };
        return (overflow_bits(fmt, mode, sign), flags);
    }
    let bits = fmt.pack(sign, (exp + fmt.bias()) as u64, kept & fmt.man_mask());
    let flags = FlagSet {
        inexact: guard || sticky,
        ..FlagSet::NONE
    };
    (bits, flags)
}

/// The IEEE overflow result for each rounding mode.
pub(crate) fn overflow_bits(fmt: FpFormat, mode: RoundingMode, sign: bool) -> u64 {
    match mode {
        RoundingMode::NearestEven | RoundingMode::NearestAway => fmt.inf_bits(sign),
        RoundingMode::TowardZero => fmt.max_finite_bits(sign),
        RoundingMode::TowardPositive => {
            if sign {
                fmt.max_finite_bits(true)
            } else {
                fmt.inf_bits(false)
            }
        }
        RoundingMode::TowardNegative => {
            if sign {
                fmt.inf_bits(true)
            } else {
                fmt.max_finite_bits(false)
            }
        }
    }
}

/// Normalizes a possibly-denormalized working significand (leading bit at an
/// arbitrary position) to the canonical `m + GRS` position, adjusting `exp`.
///
/// `sig` must be non-zero. Left shifts are exact; right shifts jam into the
/// sticky bit.
pub(crate) fn renormalize(fmt: FpFormat, exp: i32, sig: u64) -> (i32, u64) {
    debug_assert!(sig != 0);
    let target = (fmt.man_bits() + GRS) as i32;
    let hb = 63 - sig.leading_zeros() as i32;
    let d = hb - target;
    if d > 0 {
        (exp + d, shift_right_jam(sig, d as u32))
    } else {
        (exp + d, sig << (-d) as u32)
    }
}

#[cfg(test)]
// Binary literals here are grouped as sign_exponent_mantissa, which is the
// readable grouping for float encodings, not equal-width byte groups.
#[allow(clippy::unusual_byte_groupings)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    #[test]
    fn unpack_normals() {
        // 1.0 in binary8: exp field 15, mantissa 0.
        match unpack(BINARY8, 0b0_01111_00) {
            Unpacked::Finite(n) => {
                assert!(!n.sign);
                assert_eq!(n.exp, 0);
                assert_eq!(n.sig, 0b100 << GRS); // implicit 1 at bit m
            }
            other => panic!("expected finite, got {other:?}"),
        }
    }

    #[test]
    fn unpack_subnormals_normalizes() {
        // Smallest binary8 subnormal: 2^-16.
        match unpack(BINARY8, 0b0_00000_01) {
            Unpacked::Finite(n) => {
                assert_eq!(n.exp, -16);
                assert_eq!(63 - n.sig.leading_zeros(), BINARY8.man_bits() + GRS);
            }
            other => panic!("expected finite, got {other:?}"),
        }
        // 3 * 2^-16 has exponent -15 (leading bit).
        match unpack(BINARY8, 0b0_00000_11) {
            Unpacked::Finite(n) => assert_eq!(n.exp, -15),
            other => panic!("expected finite, got {other:?}"),
        }
    }

    #[test]
    fn unpack_specials() {
        assert_eq!(
            unpack(BINARY8, BINARY8.zero_bits(true)),
            Unpacked::Zero(true)
        );
        assert_eq!(
            unpack(BINARY8, BINARY8.inf_bits(false)),
            Unpacked::Inf(false)
        );
        assert_eq!(unpack(BINARY8, BINARY8.quiet_nan_bits()), Unpacked::Nan);
    }

    #[test]
    fn unpack_round_pack_identity() {
        // For every finite non-zero binary8 value, unpack + round_pack is id.
        for bits in 0..=0xFFu64 {
            if let Unpacked::Finite(n) = unpack(BINARY8, bits) {
                let packed = round_pack(BINARY8, RoundingMode::NearestEven, n.sign, n.exp, n.sig).0;
                assert_eq!(packed, bits, "bits {bits:#010b}");
            }
        }
    }

    #[test]
    fn unpack_round_pack_identity_binary16_and_32_sampled() {
        for fmt in [BINARY16, BINARY32] {
            let mut bits = 0u64;
            while bits <= fmt.bits_mask() {
                if let Unpacked::Finite(n) = unpack(fmt, bits) {
                    let packed = round_pack(fmt, RoundingMode::NearestEven, n.sign, n.exp, n.sig).0;
                    assert_eq!(packed, bits);
                }
                bits += 257; // odd stride for coverage
            }
        }
    }

    #[test]
    fn shift_right_jam_preserves_sticky() {
        assert_eq!(shift_right_jam(0b1000, 3), 0b1);
        assert_eq!(shift_right_jam(0b1001, 3), 0b11 >> 1 | 1); // 0b1 | jam
        assert_eq!(shift_right_jam(0b1000, 4), 1);
        assert_eq!(shift_right_jam(0b1000, 64), 1);
        assert_eq!(shift_right_jam(0, 64), 0);
        assert_eq!(shift_right_jam(0xFF, 0), 0xFF);
        assert_eq!(shift_right_jam128(1u128 << 100, 101), 1);
    }

    #[test]
    fn round_pack_zero_sig() {
        assert_eq!(
            round_pack(BINARY8, RoundingMode::NearestEven, true, 0, 0),
            (BINARY8.zero_bits(true), FlagSet::NONE)
        );
    }

    #[test]
    fn round_pack_overflow_modes() {
        let m = BINARY8.man_bits() + GRS;
        let sig = 1u64 << m;
        let e = BINARY8.emax() + 1;
        let of = FlagSet {
            overflow: true,
            inexact: true,
            ..FlagSet::NONE
        };
        assert_eq!(
            round_pack(BINARY8, RoundingMode::NearestEven, false, e, sig),
            (BINARY8.inf_bits(false), of)
        );
        assert_eq!(
            round_pack(BINARY8, RoundingMode::TowardZero, false, e, sig),
            (BINARY8.max_finite_bits(false), of)
        );
        assert_eq!(
            round_pack(BINARY8, RoundingMode::TowardNegative, false, e, sig),
            (BINARY8.max_finite_bits(false), of)
        );
        assert_eq!(
            round_pack(BINARY8, RoundingMode::TowardPositive, true, e, sig),
            (BINARY8.max_finite_bits(true), of)
        );
    }

    #[test]
    fn round_pack_carry_into_overflow() {
        // All-ones mantissa at emax with guard set rounds up to infinity.
        let m = BINARY8.man_bits();
        let sig = (((1u64 << (m + 1)) - 1) << GRS) | 0b100;
        assert_eq!(
            round_pack(
                BINARY8,
                RoundingMode::NearestEven,
                false,
                BINARY8.emax(),
                sig
            )
            .0,
            BINARY8.inf_bits(false)
        );
    }

    #[test]
    fn renormalize_both_directions() {
        let target = BINARY8.man_bits() + GRS;
        let (e, s) = renormalize(BINARY8, 0, 1 << (target + 2));
        assert_eq!(e, 2);
        assert_eq!(s, 1 << target);
        let (e, s) = renormalize(BINARY8, 0, 1 << (target - 2));
        assert_eq!(e, -2);
        assert_eq!(s, 1 << target);
        // Jam on right shift.
        let (_, s) = renormalize(BINARY8, 0, (1 << (target + 2)) | 1);
        assert_eq!(s & 1, 1);
    }
}
