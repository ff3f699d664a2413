//! The named formats of the platform and the paper's V1/V2 type systems.

use std::fmt;

use crate::{FpFormat, BINARY16, BINARY16ALT, BINARY32, BINARY8};

/// One of the four storage formats supported by the transprecision platform
/// (Fig. 1 of the paper).
///
/// [`FormatKind`] is the *nominal* side of the type system — what the
/// hardware, the tuner and the statistics speak — while [`FpFormat`] is the
/// structural description (any `(e, m)` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatKind {
    /// 8-bit `binary8`: 5 exponent + 2 mantissa bits.
    Binary8,
    /// 16-bit IEEE `binary16`: 5 exponent + 10 mantissa bits.
    Binary16,
    /// 16-bit `binary16alt`: 8 exponent + 7 mantissa bits.
    Binary16Alt,
    /// 32-bit IEEE `binary32`: 8 exponent + 23 mantissa bits.
    Binary32,
}

/// All four kinds, narrowest first.
pub const ALL_KINDS: [FormatKind; 4] = [
    FormatKind::Binary8,
    FormatKind::Binary16,
    FormatKind::Binary16Alt,
    FormatKind::Binary32,
];

impl FormatKind {
    /// The structural format description.
    #[must_use]
    pub const fn format(self) -> FpFormat {
        match self {
            FormatKind::Binary8 => BINARY8,
            FormatKind::Binary16 => BINARY16,
            FormatKind::Binary16Alt => BINARY16ALT,
            FormatKind::Binary32 => BINARY32,
        }
    }

    /// Storage width in bits (8, 16 or 32).
    #[must_use]
    pub const fn width_bits(self) -> u32 {
        self.format().total_bits()
    }

    /// Storage width in bytes.
    #[must_use]
    pub const fn width_bytes(self) -> u32 {
        self.width_bits() / 8
    }

    /// SIMD lanes that fit in the 32-bit datapath of the transprecision FPU:
    /// 1× for 32-bit, 2× for 16-bit, 4× for 8-bit formats.
    #[must_use]
    pub const fn simd_lanes(self) -> u32 {
        32 / self.width_bits()
    }

    /// Identifies the kind of a structural format, if it is one of the four.
    #[must_use]
    pub fn of_format(fmt: FpFormat) -> Option<Self> {
        match (fmt.exp_bits(), fmt.man_bits()) {
            (5, 2) => Some(FormatKind::Binary8),
            (5, 10) => Some(FormatKind::Binary16),
            (8, 7) => Some(FormatKind::Binary16Alt),
            (8, 23) => Some(FormatKind::Binary32),
            _ => None,
        }
    }

    /// `true` for the smaller-than-32-bit formats (the paper's *minifloats*).
    #[must_use]
    pub const fn is_small(self) -> bool {
        self.width_bits() < 32
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FormatKind::Binary8 => "binary8",
            FormatKind::Binary16 => "binary16",
            FormatKind::Binary16Alt => "binary16alt",
            FormatKind::Binary32 => "binary32",
        };
        f.write_str(s)
    }
}

/// A type system assigns every *(precision bits, needs-wide-range)* demand to
/// a storage format. The paper evaluates two:
///
/// * **V1** = { binary8, binary16, binary32 }
/// * **V2** = V1 ∪ { binary16alt }
///
/// The mapping follows Section III-A: precisions in `(0, 3]` map to binary8
/// (5 exponent bits), `(0, 11]` to binary16, `(0, 8]` to binary16alt (8
/// exponent bits), everything else to binary32. When a variable also needs
/// the wide (8-bit-exponent) dynamic range, the 5-exponent-bit formats are
/// disqualified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeSystem {
    /// binary8 + binary16 + binary32.
    V1,
    /// binary8 + binary16 + binary16alt + binary32 (the paper's proposal).
    #[default]
    V2,
}

impl TypeSystem {
    /// The formats available under this type system, in assignment
    /// preference order (the paper's precision-interval mapping).
    ///
    /// Under V2, `binary16alt` precedes `binary16`: both occupy 16 bits, but
    /// the paper assigns precisions `(0, 8]` to the 8-bit-exponent format
    /// (same dynamic range as binary32 — conversions never saturate and are
    /// cheaper in hardware) and reserves `binary16` for the demands in
    /// `(8, 11]` that strictly need its extra mantissa bits.
    #[must_use]
    pub fn kinds(self) -> &'static [FormatKind] {
        match self {
            TypeSystem::V1 => &[
                FormatKind::Binary8,
                FormatKind::Binary16,
                FormatKind::Binary32,
            ],
            TypeSystem::V2 => &[
                FormatKind::Binary8,
                FormatKind::Binary16Alt,
                FormatKind::Binary16,
                FormatKind::Binary32,
            ],
        }
    }

    /// Maps a demand to the narrowest admissible storage format.
    ///
    /// `precision_bits` is the minimum number of significand bits (implicit
    /// bit included, as reported by precision tuning) the variable needs;
    /// `needs_wide_range` is `true` when its values exceed the dynamic range
    /// of the 5-exponent-bit formats (binary8/binary16).
    ///
    /// ```
    /// use tp_formats::{FormatKind, TypeSystem};
    ///
    /// assert_eq!(TypeSystem::V2.map(3, false), FormatKind::Binary8);
    /// assert_eq!(TypeSystem::V2.map(7, false), FormatKind::Binary16Alt);
    /// assert_eq!(TypeSystem::V1.map(7, false), FormatKind::Binary16);
    /// assert_eq!(TypeSystem::V2.map(10, true), FormatKind::Binary32);
    /// ```
    #[must_use]
    pub fn map(self, precision_bits: u32, needs_wide_range: bool) -> FormatKind {
        for &kind in self.kinds() {
            let fmt = kind.format();
            if precision_bits > fmt.precision_bits() {
                continue;
            }
            if needs_wide_range && fmt.exp_bits() < 8 {
                continue;
            }
            return kind;
        }
        FormatKind::Binary32
    }
}

impl fmt::Display for TypeSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeSystem::V1 => f.write_str("V1"),
            TypeSystem::V2 => f.write_str("V2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_lanes() {
        assert_eq!(FormatKind::Binary8.width_bits(), 8);
        assert_eq!(FormatKind::Binary16.width_bits(), 16);
        assert_eq!(FormatKind::Binary16Alt.width_bits(), 16);
        assert_eq!(FormatKind::Binary32.width_bits(), 32);
        assert_eq!(FormatKind::Binary8.simd_lanes(), 4);
        assert_eq!(FormatKind::Binary16.simd_lanes(), 2);
        assert_eq!(FormatKind::Binary16Alt.simd_lanes(), 2);
        assert_eq!(FormatKind::Binary32.simd_lanes(), 1);
    }

    #[test]
    fn of_format_round_trip() {
        for kind in ALL_KINDS {
            assert_eq!(FormatKind::of_format(kind.format()), Some(kind));
        }
        assert_eq!(
            FormatKind::of_format(crate::FpFormat::new(7, 12).unwrap()),
            None
        );
        // Every structural format: a kind exactly for the four.
        for e in 1..=11 {
            for m in 1..=52 {
                let Ok(fmt) = crate::FpFormat::new(e, m) else {
                    continue;
                };
                let want = ALL_KINDS.into_iter().find(|k| k.format() == fmt);
                assert_eq!(FormatKind::of_format(fmt), want, "{fmt}");
            }
        }
    }

    #[test]
    fn v1_mapping_intervals() {
        let v1 = TypeSystem::V1;
        // (0, 3] -> binary8 (precision = m+1 = 3).
        assert_eq!(v1.map(1, false), FormatKind::Binary8);
        assert_eq!(v1.map(3, false), FormatKind::Binary8);
        // (3, 11] -> binary16 (precision = 11).
        assert_eq!(v1.map(4, false), FormatKind::Binary16);
        assert_eq!(v1.map(11, false), FormatKind::Binary16);
        // above -> binary32.
        assert_eq!(v1.map(12, false), FormatKind::Binary32);
        assert_eq!(v1.map(24, false), FormatKind::Binary32);
    }

    #[test]
    fn v2_mapping_intervals() {
        let v2 = TypeSystem::V2;
        assert_eq!(v2.map(3, false), FormatKind::Binary8);
        // Paper's V2 mapping: (3, 8] -> binary16alt, (8, 11] -> binary16.
        assert_eq!(v2.map(4, false), FormatKind::Binary16Alt);
        assert_eq!(v2.map(8, false), FormatKind::Binary16Alt);
        assert_eq!(v2.map(9, false), FormatKind::Binary16);
        assert_eq!(v2.map(11, false), FormatKind::Binary16);
        assert_eq!(v2.map(12, false), FormatKind::Binary32);
    }

    #[test]
    fn wide_range_disqualifies_narrow_exponents() {
        assert_eq!(TypeSystem::V1.map(3, true), FormatKind::Binary32);
        assert_eq!(TypeSystem::V2.map(3, true), FormatKind::Binary16Alt);
        assert_eq!(TypeSystem::V2.map(8, true), FormatKind::Binary16Alt);
        assert_eq!(TypeSystem::V2.map(9, true), FormatKind::Binary32);
    }

    #[test]
    fn v2_dominates_v1_in_16bit_coverage() {
        // Every demand V1 maps below 32 bits, V2 also maps below 32 bits.
        for p in 1..=24 {
            for wide in [false, true] {
                let v1 = TypeSystem::V1.map(p, wide);
                let v2 = TypeSystem::V2.map(p, wide);
                if v1 != FormatKind::Binary32 {
                    assert_ne!(v2, FormatKind::Binary32, "p={p} wide={wide}");
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FormatKind::Binary16Alt.to_string(), "binary16alt");
        assert_eq!(TypeSystem::V2.to_string(), "V2");
    }
}
