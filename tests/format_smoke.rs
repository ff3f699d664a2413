//! Workspace smoke test: every [`FormatKind`] must round-trip through the
//! `tp_softfloat` emulation and the `flexfloat` fast path with bit-identical
//! results. The softfloat side narrows an `f64` with the integer
//! `ops::convert` kernel (binary64 is the (11, 52) format), so this checks
//! that kernel against `FlexFloat::to_bits`. This is a cheap cross-crate
//! canary: if a refactor in either backend (or in `tp_formats`' rounding)
//! breaks their agreement, this fails long before the expensive
//! differential suites run.

use flexfloat::{Binary16, Binary16Alt, Binary32, Binary8, FlexFloat};
use tp_formats::{FormatKind, FpFormat, RoundingMode, ALL_KINDS};
use tp_softfloat::ops;

/// One representative non-trivial value per format: exactly representable
/// in none of them without rounding (1.3), so both the encode path and the
/// rounding path are exercised.
const PROBE: f64 = 1.3;

const RNE: RoundingMode = RoundingMode::NearestEven;

/// `x` rounded into `kind` by the softfloat conversion kernel.
fn softfloat_bits(kind: FormatKind, x: f64) -> u64 {
    let binary64 = FpFormat::new(11, 52).expect("binary64 is a valid format");
    ops::convert(binary64, kind.format(), x.to_bits(), RNE)
}

fn flexfloat_bits(kind: FormatKind, x: f64) -> (u64, f64) {
    fn one<const E: u32, const M: u32>(x: f64) -> (u64, f64) {
        let v = FlexFloat::<E, M>::new(x);
        (v.to_bits(), v.to_f64())
    }
    match kind {
        FormatKind::Binary8 => one::<5, 2>(x),
        FormatKind::Binary16 => one::<5, 10>(x),
        FormatKind::Binary16Alt => one::<8, 7>(x),
        FormatKind::Binary32 => one::<8, 23>(x),
    }
}

#[test]
fn every_kind_round_trips_identically_in_both_backends() {
    for kind in ALL_KINDS {
        let fmt = kind.format();
        let soft = softfloat_bits(kind, PROBE);
        let (flex_bits, flex_val) = flexfloat_bits(kind, PROBE);

        assert_eq!(
            soft, flex_bits,
            "{kind:?}: softfloat and flexfloat disagree on the encoding of {PROBE}"
        );
        assert_eq!(
            fmt.decode_to_f64(soft),
            flex_val,
            "{kind:?}: decoded values diverge between backends"
        );
        assert_eq!(
            fmt.sanitize_f64(PROBE),
            flex_val,
            "{kind:?}: the bit-twiddling sanitize fast path diverges from the decoded value"
        );

        // And back: re-encoding the decoded value must be the identity.
        let again = softfloat_bits(kind, fmt.decode_to_f64(soft));
        assert_eq!(soft, again, "{kind:?}: round-trip not idempotent");
    }
}

#[test]
fn backends_agree_on_one_multiply_per_kind() {
    for kind in ALL_KINDS {
        let (a, b) = (1.5, PROBE);
        let (sa, sb) = (softfloat_bits(kind, a), softfloat_bits(kind, b));
        let soft = ops::mul(kind.format(), sa, sb, RNE);
        let flex = match kind {
            FormatKind::Binary8 => (Binary8::new(a) * Binary8::new(b)).to_bits(),
            FormatKind::Binary16 => (Binary16::new(a) * Binary16::new(b)).to_bits(),
            FormatKind::Binary16Alt => (Binary16Alt::new(a) * Binary16Alt::new(b)).to_bits(),
            FormatKind::Binary32 => (Binary32::new(a) * Binary32::new(b)).to_bits(),
        };
        assert_eq!(soft, flex, "{kind:?}: backends disagree on {a} * {b}");
    }
}
