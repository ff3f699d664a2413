//! The floating-point control and status register (`fcsr`).
//!
//! `fcsr` is the one CSR the platform frontend implements: the five
//! accrued exception flags (`fflags`, bits 4:0) and the dynamic rounding
//! mode (`frm`, bits 7:5). The executor accrues into `fflags` after every
//! FP instruction by folding in the active backend's [`FlagSet`], so at
//! any halt point `fcsr.fflags` equals the union of flags the backend
//! raised since the last `fflags` write — the reconciliation contract
//! pinned by the integration tests.

use flexfloat::backend::FlagSet;

/// fflags bit positions (RISC-V F extension).
pub mod fflags {
    /// NX — inexact.
    pub const NX: u32 = 1 << 0;
    /// UF — underflow.
    pub const UF: u32 = 1 << 1;
    /// OF — overflow.
    pub const OF: u32 = 1 << 2;
    /// DZ — divide by zero.
    pub const DZ: u32 = 1 << 3;
    /// NV — invalid operation.
    pub const NV: u32 = 1 << 4;
    /// All five flag bits.
    pub const MASK: u32 = 0x1F;
}

/// `frm` encoding for round-to-nearest-even — the only mode the
/// platform's datapaths implement.
pub const FRM_RNE: u32 = 0b000;

/// The fcsr register state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fcsr {
    /// Accrued exception flags (low 5 bits significant).
    pub fflags: u32,
    /// Dynamic rounding mode (low 3 bits significant). Resets to RNE;
    /// writing any other mode is accepted architecturally but a dynamic-rm
    /// instruction executed under it traps `UnsupportedRounding`.
    pub frm: u32,
}

impl Fcsr {
    /// The combined fcsr value: `frm` in bits 7:5 over `fflags` in 4:0.
    #[must_use]
    pub fn read(self) -> u32 {
        self.frm << 5 | self.fflags
    }

    /// Writes the combined fcsr value.
    pub fn write(&mut self, value: u32) {
        self.fflags = value & fflags::MASK;
        self.frm = (value >> 5) & 0b111;
    }

    /// Folds a backend flag set into the accrued fflags.
    pub fn accrue(&mut self, flags: FlagSet) {
        self.fflags |= flags.to_bits();
    }

    /// The accrued flags as a backend [`FlagSet`].
    #[must_use]
    pub fn flag_set(self) -> FlagSet {
        FlagSet::from_bits(self.fflags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FlagSet`'s bit encoding is the fflags layout, flag by flag, and
    /// every fflags value survives a trip through `Fcsr`'s flag set.
    #[test]
    fn flag_bits_round_trip() {
        let one = |set: fn(&mut FlagSet)| {
            let mut flags = FlagSet::NONE;
            set(&mut flags);
            flags
        };
        for (flags, bit) in [
            (one(|f| f.inexact = true), fflags::NX),
            (one(|f| f.underflow = true), fflags::UF),
            (one(|f| f.overflow = true), fflags::OF),
            (one(|f| f.div_by_zero = true), fflags::DZ),
            (one(|f| f.invalid = true), fflags::NV),
        ] {
            assert_eq!(flags.to_bits(), bit, "{flags}");
        }
        for bits in 0..=fflags::MASK {
            let mut fcsr = Fcsr::default();
            fcsr.accrue(
                Fcsr {
                    fflags: bits,
                    frm: 0,
                }
                .flag_set(),
            );
            assert_eq!(fcsr.fflags, bits);
        }
    }

    #[test]
    fn fcsr_packs_frm_over_fflags() {
        let mut fcsr = Fcsr::default();
        fcsr.write(0b111_10101);
        assert_eq!(fcsr.frm, 0b111);
        assert_eq!(fcsr.fflags, 0b10101);
        assert_eq!(fcsr.read(), 0b111_10101);
        // Out-of-field bits are ignored, as for a WARL CSR.
        fcsr.write(0xFFFF_FF00);
        assert_eq!(fcsr.read() & !0xFF, 0);
    }

    #[test]
    fn accrue_is_a_union() {
        let mut fcsr = Fcsr::default();
        fcsr.accrue(FlagSet {
            inexact: true,
            ..FlagSet::NONE
        });
        fcsr.accrue(FlagSet {
            overflow: true,
            ..FlagSet::NONE
        });
        assert_eq!(fcsr.fflags, fflags::NX | fflags::OF);
    }
}
