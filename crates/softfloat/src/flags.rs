//! IEEE 754 exception flags.
//!
//! Hardware FPUs (the paper's unit included — it inherits RISC-V `fflags`
//! semantics from the host core) accumulate five sticky status flags. Every
//! arithmetic kernel computes them in its one rounding step: the
//! `*_with_flags` kernels in [`ops`](crate::ops) return them for any
//! format, and the plain kernels discard them. [`FlagSet`] accumulates
//! like the `fcsr` register.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// The five IEEE 754 exception flags (RISC-V `fflags` layout: NV DZ OF UF NX).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlagSet {
    /// Invalid operation (NV): 0·∞, ∞−∞, sqrt of a negative, …
    pub invalid: bool,
    /// Division by zero (DZ).
    pub div_by_zero: bool,
    /// Overflow (OF): the rounded result exceeded the largest finite value.
    pub overflow: bool,
    /// Underflow (UF): the result is tiny and inexact.
    pub underflow: bool,
    /// Inexact (NX): the result was rounded.
    pub inexact: bool,
}

impl FlagSet {
    /// No flags raised.
    pub const NONE: FlagSet = FlagSet {
        invalid: false,
        div_by_zero: false,
        overflow: false,
        underflow: false,
        inexact: false,
    };

    /// Invalid operation (NV) alone.
    pub const INVALID: FlagSet = FlagSet {
        invalid: true,
        ..FlagSet::NONE
    };

    /// Division by zero (DZ) alone.
    pub const DIV_BY_ZERO: FlagSet = FlagSet {
        div_by_zero: true,
        ..FlagSet::NONE
    };

    /// `true` if no flag is raised.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self == Self::NONE
    }

    /// RISC-V `fflags` bit encoding (NX=bit0 … NV=bit4).
    #[inline]
    #[must_use]
    pub fn to_bits(self) -> u32 {
        (self.inexact as u32)
            | (self.underflow as u32) << 1
            | (self.overflow as u32) << 2
            | (self.div_by_zero as u32) << 3
            | (self.invalid as u32) << 4
    }

    /// Decodes a RISC-V `fflags` value.
    #[inline]
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        FlagSet {
            inexact: bits & 1 != 0,
            underflow: bits & 2 != 0,
            overflow: bits & 4 != 0,
            div_by_zero: bits & 8 != 0,
            invalid: bits & 16 != 0,
        }
    }
}

impl BitOr for FlagSet {
    type Output = FlagSet;
    fn bitor(self, rhs: Self) -> Self {
        FlagSet::from_bits(self.to_bits() | rhs.to_bits())
    }
}

impl BitOrAssign for FlagSet {
    fn bitor_assign(&mut self, rhs: Self) {
        *self = *self | rhs;
    }
}

impl fmt::Display for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, name) in [
            (self.invalid, "NV"),
            (self.div_by_zero, "DZ"),
            (self.overflow, "OF"),
            (self.underflow, "UF"),
            (self.inexact, "NX"),
        ] {
            if set {
                if any {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str("-")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        add_with_flags, div_with_flags, mul_with_flags, sqrt_with_flags, sub_with_flags,
    };
    use tp_formats::{FpFormat, RoundingMode, BINARY16, BINARY16ALT, BINARY32, BINARY8};

    const RNE: RoundingMode = RoundingMode::NearestEven;
    const NX: FlagSet = FlagSet {
        inexact: true,
        ..FlagSet::NONE
    };

    fn enc(fmt: FpFormat, x: f64) -> u64 {
        fmt.round_from_f64(x, RNE).bits
    }

    #[test]
    fn exact_ops_raise_nothing() {
        let (bits, flags) = add_with_flags(BINARY8, enc(BINARY8, 1.0), enc(BINARY8, 0.5), RNE);
        assert_eq!(BINARY8.decode_to_f64(bits), 1.5);
        assert!(flags.is_empty(), "{flags}");
    }

    #[test]
    fn inexact_is_raised() {
        // 1.75 * 1.75 = 3.0625 -> rounds in binary8.
        let a = enc(BINARY8, 1.75);
        let (_, flags) = mul_with_flags(BINARY8, a, a, RNE);
        assert!(
            flags.inexact && !flags.overflow && !flags.underflow,
            "{flags}"
        );
    }

    #[test]
    fn overflow_raises_of_and_nx() {
        let big = enc(BINARY8, 57344.0);
        let (bits, flags) = add_with_flags(BINARY8, big, big, RNE);
        assert!(BINARY8.decode_to_f64(bits).is_infinite());
        assert!(flags.overflow && flags.inexact, "{flags}");
    }

    #[test]
    fn underflow_raises_uf_and_nx() {
        let tiny = enc(BINARY8, 2f64.powi(-16));
        let half = enc(BINARY8, 0.5);
        let (bits, flags) = mul_with_flags(BINARY8, tiny, half, RNE);
        assert_eq!(BINARY8.decode_to_f64(bits), 0.0);
        assert!(flags.underflow && flags.inexact, "{flags}");
    }

    #[test]
    fn invalid_operations() {
        let inf = BINARY16.inf_bits(false);
        let ninf = BINARY16.inf_bits(true);
        let zero = BINARY16.zero_bits(false);
        assert!(add_with_flags(BINARY16, inf, ninf, RNE).1.invalid);
        assert!(mul_with_flags(BINARY16, inf, zero, RNE).1.invalid);
        assert!(div_with_flags(BINARY16, zero, zero, RNE).1.invalid);
        assert!(div_with_flags(BINARY16, inf, ninf, RNE).1.invalid);
        assert!(
            sqrt_with_flags(BINARY16, enc(BINARY16, -1.0), RNE)
                .1
                .invalid
        );
    }

    #[test]
    fn division_by_zero() {
        let one = enc(BINARY16, 1.0);
        let zero = BINARY16.zero_bits(false);
        let (bits, flags) = div_with_flags(BINARY16, one, zero, RNE);
        assert!(BINARY16.decode_to_f64(bits).is_infinite());
        assert!(
            flags.div_by_zero && !flags.invalid && !flags.inexact,
            "{flags}"
        );
    }

    #[test]
    fn quiet_nan_propagation_is_silent() {
        let nan = BINARY8.quiet_nan_bits();
        let one = enc(BINARY8, 1.0);
        assert!(add_with_flags(BINARY8, nan, one, RNE).1.is_empty());
        assert!(div_with_flags(BINARY8, nan, one, RNE).1.is_empty());
    }

    #[test]
    fn absorbed_addend_is_inexact() {
        // The exponent gap exceeds f64's 53 bits, so the smaller addend
        // vanishes without a trace in an f64 sum; the kernel's sticky bit
        // still sees it.
        let (bits, flags) = add_with_flags(BINARY16ALT, 0xb437, 0x069f, RNE);
        assert_eq!(bits, 0xb437);
        assert_eq!(flags, NX, "{flags}");
        let (bits, flags) = sub_with_flags(BINARY16ALT, 0xb437, 0x869f, RNE);
        assert_eq!(bits, 0xb437);
        assert_eq!(flags, NX, "{flags}");

        let one = enc(BINARY32, 1.0);
        let tiny = BINARY32.min_subnormal_bits(); // 2^-149
        assert_eq!(add_with_flags(BINARY32, one, tiny, RNE), (one, NX));
        assert_eq!(sub_with_flags(BINARY32, one, tiny, RNE).1, NX);
        // Directed rounding moves the result, and the flag stays NX.
        let up = add_with_flags(BINARY32, one, tiny, RoundingMode::TowardPositive);
        assert_eq!(up, (one + 1, NX));
    }

    #[test]
    fn fflags_encoding_round_trips() {
        for bits in 0..32u32 {
            assert_eq!(FlagSet::from_bits(bits).to_bits(), bits);
        }
        let f = FlagSet {
            invalid: true,
            inexact: true,
            ..FlagSet::NONE
        };
        assert_eq!(f.to_bits(), 0b10001);
        assert_eq!(f.to_string(), "NV|NX");
        assert_eq!(FlagSet::NONE.to_string(), "-");
    }

    #[test]
    fn flags_accumulate_like_fcsr() {
        let mut fcsr = FlagSet::NONE;
        fcsr |= FlagSet {
            inexact: true,
            ..FlagSet::NONE
        };
        fcsr |= FlagSet {
            overflow: true,
            ..FlagSet::NONE
        };
        assert!(fcsr.inexact && fcsr.overflow && !fcsr.invalid);
    }
}
