//! Property tests for the [`Fx`] promotion invariants — the semantics the
//! precision tuner leans on when it mixes per-variable formats, and which
//! the parallel tuning engine must be able to rely on from any thread.
//!
//! Invariants pinned here:
//! * promotion is **symmetric** in the chosen result format (`a ⋄ b` and
//!   `b ⋄ a` land in the same format, for every operator);
//! * a cast event is recorded **iff** the operand formats differ (exactly
//!   one per mixed-format op, none for same-format ops);
//! * [`FxArray::set`] sanitizes the stored value into the *array's* format
//!   (recording the store-side cast when the value's format differs).

use flexfloat::{Fx, FxArray, Recorder};
use proptest::prelude::*;
use tp_formats::{FpFormat, BINARY16, BINARY16ALT, BINARY32, BINARY8};

const FORMATS: [FpFormat; 4] = [BINARY8, BINARY16, BINARY16ALT, BINARY32];

/// A strategy over the platform's four storage formats.
fn format() -> impl Strategy<Value = FpFormat> {
    (0usize..4).prop_map(|i| FORMATS[i])
}

/// The format `Fx::promote` must choose for a pair of operand formats:
/// more mantissa bits wins, ties broken toward more exponent bits.
fn expected_promotion(a: FpFormat, b: FpFormat) -> FpFormat {
    if (a.man_bits(), a.exp_bits()) >= (b.man_bits(), b.exp_bits()) {
        a
    } else {
        b
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `a ⋄ b` and `b ⋄ a` agree on the result format, and it is the more
    /// precise operand format, for every arithmetic operator.
    #[test]
    fn promotion_is_symmetric_in_result_format(
        fa in format(),
        fb in format(),
        va in -1.0e4f64..1.0e4,
        vb in -1.0e4f64..1.0e4,
    ) {
        let a = Fx::new(va, fa);
        let b = Fx::new(vb, fb);
        let want = expected_promotion(fa, fb);
        for (ab, ba, op) in [
            (a + b, b + a, "+"),
            (a - b, b - a, "-"),
            (a * b, b * a, "*"),
            (a / b, b / a, "/"),
            (a.min(b), b.min(a), "min"),
            (a.max(b), b.max(a), "max"),
        ] {
            prop_assert_eq!(ab.format(), ba.format(), "{} not symmetric", op);
            prop_assert_eq!(ab.format(), want, "{} chose the wrong format", op);
        }
        // Commutative operators also agree on the value itself.
        prop_assert_eq!((a + b).value(), (b + a).value());
        prop_assert_eq!((a * b).value(), (b * a).value());
    }

    /// Exactly one cast is recorded per mixed-format op, none otherwise,
    /// and its (from, to) edge is (less precise -> promoted).
    #[test]
    fn cast_recorded_iff_formats_differ(
        fa in format(),
        fb in format(),
        va in -1.0e4f64..1.0e4,
        vb in -1.0e4f64..1.0e4,
    ) {
        let ((), counts) = Recorder::scoped(|| {
            let a = Fx::new(va, fa);
            let b = Fx::new(vb, fb);
            let _ = a * b;
        });
        if fa == fb {
            prop_assert_eq!(counts.total_casts(), 0);
        } else {
            prop_assert_eq!(counts.total_casts(), 1);
            let promoted = expected_promotion(fa, fb);
            let demoted = if promoted == fa { fb } else { fa };
            prop_assert_eq!(
                counts.casts.get(&(demoted, promoted)).map(|c| c.total()),
                Some(1),
                "cast edge should be {} -> {}", demoted, promoted
            );
        }
        // The op itself always executes in the promoted format.
        prop_assert_eq!(counts.fp_ops_in(expected_promotion(fa, fb)), 1);
    }

    /// `FxArray::set` rounds into the array's format: the stored value is
    /// exactly representable there (re-sanitizing is the identity), and a
    /// store-side cast is recorded iff the value's format differs.
    #[test]
    fn fxarray_set_sanitizes_into_array_format(
        farr in format(),
        fval in format(),
        v in -1.0e6f64..1.0e6,
        i in 0usize..8,
    ) {
        let ((), counts) = Recorder::scoped(|| {
            let mut arr = FxArray::zeros(farr, 8);
            let x = Fx::new(v, fval);
            arr.set(i, x);
            let stored = arr.peek(i);
            // Stored value lives on the array format's grid...
            assert_eq!(stored, farr.sanitize_f64(stored), "not sanitized");
            // ...and is the rounding of the (already fval-rounded) input.
            assert_eq!(stored, farr.sanitize_f64(fval.sanitize_f64(v)));
            // Reading it back yields the array's format.
            assert_eq!(arr.get(i).format(), farr);
        });
        prop_assert_eq!(
            counts.total_casts(),
            u64::from(farr != fval),
            "store cast iff formats differ"
        );
        prop_assert_eq!(counts.stores.get(&farr.total_bits()).map(|c| c.total()), Some(1));
    }
}
