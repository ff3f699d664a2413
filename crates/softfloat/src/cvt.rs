//! Conversions between floating-point formats: the FP ↔ FP casts hosted by
//! the transprecision FPU's slices (Fig. 3 of the paper).

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

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY16ALT, BINARY32, BINARY8};

    const RNE: RoundingMode = RoundingMode::NearestEven;

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
}
