//! Differential property tests: the pure-integer kernels must agree with
//! native IEEE 754 hardware arithmetic on `binary32`, and with exact `f64`
//! reference computations on the narrow formats.

use proptest::prelude::*;
use tp_formats::{FloatClass, RoundingMode, BINARY16, BINARY16ALT, BINARY32, BINARY8};
use tp_softfloat::ops;

const RNE: RoundingMode = RoundingMode::NearestEven;

fn assert_same_f32(got: u64, want: f32, ctx: &str) {
    if want.is_nan() {
        assert_eq!(FloatClass::of_bits(BINARY32, got), FloatClass::Nan, "{ctx}");
    } else {
        assert_eq!(
            got,
            want.to_bits() as u64,
            "{ctx}: got {got:#x} want {:#x}",
            want.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// add/sub/mul/div on binary32 == native f32 ops, for arbitrary bit
    /// patterns (including NaNs, infinities and subnormals).
    #[test]
    fn binary32_ops_match_hardware(a in any::<u32>(), b in any::<u32>()) {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        let (ba, bb) = (a as u64, b as u64);
        assert_same_f32(ops::add(BINARY32, ba, bb, RNE), fa + fb, "add");
        assert_same_f32(ops::sub(BINARY32, ba, bb, RNE), fa - fb, "sub");
        assert_same_f32(ops::mul(BINARY32, ba, bb, RNE), fa * fb, "mul");
        assert_same_f32(ops::div(BINARY32, ba, bb, RNE), fa / fb, "div");
    }

    /// sqrt on binary32 == native f32 sqrt.
    #[test]
    fn binary32_sqrt_matches_hardware(a in any::<u32>()) {
        let fa = f32::from_bits(a);
        assert_same_f32(ops::sqrt(BINARY32, a as u64, RNE), fa.sqrt(), "sqrt");
    }

    /// FMA on binary32 == native f32 fused multiply-add.
    #[test]
    fn binary32_fma_matches_hardware(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
        let got = ops::fused_mul_add(BINARY32, a as u64, b as u64, c as u64, RNE);
        assert_same_f32(got, fa.mul_add(fb, fc), "fma");
    }

    /// Narrow-format add/mul agree with the "compute exactly in f64, round
    /// once" reference. For binary8/binary16/binary16alt the product of any
    /// two values is exact in f64. So is the sum, unless binary16alt's wide
    /// exponent range spreads the two addends over more than 53 bits; the
    /// f64 sum then loses only bits far below the format's half-ulp, so its
    /// nearest-even rounding is still correct (its exception flags are not:
    /// see tests/flag_oracle.rs).
    #[test]
    fn narrow_ops_match_exact_reference(ra in any::<u64>(), rb in any::<u64>()) {
        for fmt in [BINARY8, BINARY16, BINARY16ALT] {
            let a = ra & fmt.bits_mask();
            let b = rb & fmt.bits_mask();
            let va = fmt.decode_to_f64(a);
            let vb = fmt.decode_to_f64(b);
            prop_assume!(!va.is_nan() && !vb.is_nan());

            let sum = va + vb;
            if !(sum.is_nan() || (va == 0.0 && vb == 0.0)) {
                let want = fmt.round_from_f64(sum, RNE).bits;
                prop_assert_eq!(ops::add(fmt, a, b, RNE), want, "{} add {:e}+{:e}", fmt, va, vb);
            }

            let prod = va * vb;
            if !prod.is_nan() && prod != 0.0 {
                let want = fmt.round_from_f64(prod, RNE).bits;
                prop_assert_eq!(ops::mul(fmt, a, b, RNE), want, "{} mul {:e}*{:e}", fmt, va, vb);
            }
        }
    }

    /// Division against f64 reference: f64 quotient of two narrow values,
    /// rounded once, is correct because the f64 error is far below the
    /// narrow half-ulp (m_f64 = 52 >= 2*m + 2 for all narrow formats).
    #[test]
    fn narrow_div_matches_reference(ra in any::<u64>(), rb in any::<u64>()) {
        for fmt in [BINARY8, BINARY16, BINARY16ALT] {
            let a = ra & fmt.bits_mask();
            let b = rb & fmt.bits_mask();
            let va = fmt.decode_to_f64(a);
            let vb = fmt.decode_to_f64(b);
            prop_assume!(va.is_finite() && vb.is_finite() && vb != 0.0 && va != 0.0);
            let want = fmt.round_from_f64(va / vb, RNE).bits;
            prop_assert_eq!(ops::div(fmt, a, b, RNE), want, "{} div {:e}/{:e}", fmt, va, vb);
        }
    }

    /// Conversions through a wider format and back are the identity.
    #[test]
    fn convert_round_trip_via_binary32(raw in any::<u64>()) {
        for fmt in [BINARY8, BINARY16, BINARY16ALT] {
            let bits = raw & fmt.bits_mask();
            prop_assume!(FloatClass::of_bits(fmt, bits) != FloatClass::Nan);
            let wide = ops::convert(fmt, BINARY32, bits, RNE);
            let back = ops::convert(BINARY32, fmt, wide, RNE);
            prop_assert_eq!(back, bits, "{}", fmt);
        }
    }

    /// Algebraic identities that exact rounding must preserve.
    #[test]
    fn algebraic_identities(raw in any::<u64>()) {
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            let x = raw & fmt.bits_mask();
            let class = FloatClass::of_bits(fmt, x);
            prop_assume!(class != FloatClass::Nan);
            let one = fmt.round_from_f64(1.0, RNE).bits;
            let zero = fmt.zero_bits(false);
            // x * 1 = x, x + 0 = x (bit-exact, sign of zero aside).
            prop_assert_eq!(ops::mul(fmt, x, one, RNE), x);
            if class != FloatClass::Zero {
                prop_assert_eq!(ops::add(fmt, x, zero, RNE), x);
            }
            // x - x = +0 for finite x.
            if class.is_finite() {
                prop_assert_eq!(ops::sub(fmt, x, x, RNE), fmt.zero_bits(false));
            }
            // x / 1 = x.
            prop_assert_eq!(ops::div(fmt, x, one, RNE), x);
        }
    }

    /// sqrt of an exactly-representable square reproduces |x|.
    ///
    /// Construct x with at most 4 explicit mantissa bits (5 significand bits
    /// with the implicit one) and a mid-range exponent, so that x² needs at
    /// most 10 significand bits and is exactly representable in binary16.
    #[test]
    fn sqrt_of_square(man in 0u64..16, exp in -7i32..7, neg in any::<bool>()) {
        let fmt = BINARY16;
        let bits = fmt.pack(neg, (exp + fmt.bias()) as u64, man << 6);
        let x = fmt.decode_to_f64(bits);
        let sq = x * x;
        assert!(fmt.represents(sq), "x = {x}");
        let sq_bits = fmt.round_from_f64(sq, RNE).bits;
        let got = ops::sqrt(fmt, sq_bits, RNE);
        prop_assert_eq!(fmt.decode_to_f64(got), x.abs());
    }
}
