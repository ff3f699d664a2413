//! `decode_to_f64` and `encode_in_grid` over whole encoding spaces.
//!
//! Both take a direct field-mapping path for normal values and an
//! out-of-line path for everything else; these tests cross every encoding
//! of the small formats through both, and check each decoded value against
//! the correctly-rounded `round_from_f64` as an independent encoder.

use tp_formats::{FpFormat, RoundingMode, BINARY16, BINARY16ALT, BINARY64, BINARY8};

/// Checks that encoding `bits` decodes to a value on the grid whose
/// correctly-rounded and direct encodings are `bits` again (NaNs map to the
/// canonical quiet NaN).
fn check(fmt: FpFormat, bits: u64) {
    let v = fmt.decode_to_f64(bits);
    if v.is_nan() {
        assert_eq!(
            fmt.encode_in_grid(v),
            fmt.quiet_nan_bits(),
            "{fmt} {bits:#x}"
        );
        return;
    }
    let rounded = fmt.round_from_f64(v, RoundingMode::NearestEven);
    assert!(
        !rounded.inexact,
        "{fmt} {bits:#x} decodes off the grid: {v:e}"
    );
    assert_eq!(rounded.bits, bits, "{fmt} {bits:#x} decodes to {v:e}");
    assert_eq!(fmt.encode_in_grid(v), bits, "{fmt} {bits:#x} ({v:e})");
}

#[test]
fn small_formats_round_trip_every_encoding() {
    let tiny = FpFormat::new(1, 3).unwrap(); // no normal exponent field at all
    for fmt in [BINARY8, BINARY16, BINARY16ALT, tiny] {
        for bits in 0..=fmt.bits_mask() {
            check(fmt, bits);
        }
    }
}

#[test]
fn binary64_round_trips_a_strided_sample() {
    // The golden-ratio stride spreads the sample over both signs and every
    // exponent field.
    let stride = 0x9E37_79B9_7F4A_7C15u64;
    let mut bits = 0u64;
    for _ in 0..200_000 {
        check(BINARY64, bits);
        let v = BINARY64.decode_to_f64(bits);
        assert!(
            v.is_nan() || v.to_bits() == bits,
            "{bits:#x} decodes to {v:e}"
        );
        bits = bits.wrapping_add(stride);
    }
}

#[test]
fn decode_matches_the_f64_value_of_the_fields() {
    // Normal encodings map field by field onto f64 bits; check the value
    // against sign * (2^m + man) * 2^(e - bias - m) computed independently.
    for fmt in [BINARY8, BINARY16, BINARY16ALT] {
        for bits in 0..=fmt.bits_mask() {
            let (sign, exp, man) = fmt.unpack(bits);
            if exp == 0 || exp == fmt.exp_field_max() {
                continue;
            }
            let m = fmt.man_bits() as i32;
            let mag = ((1u64 << m) | man) as f64 * 2f64.powi(exp as i32 - fmt.bias() - m);
            let want = if sign { -mag } else { mag };
            assert_eq!(fmt.decode_to_f64(bits), want, "{fmt} {bits:#x}");
        }
    }
}
