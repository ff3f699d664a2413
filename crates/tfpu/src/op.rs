//! Operation vocabulary of the transprecision FPU.

use std::fmt;

use flexfloat::backend::BinOp;
use tp_formats::FormatKind;

/// Arithmetic operations hosted by the computational blocks of each slice
/// (Fig. 3: one ADD/SUB block and one MULT block per format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl ArithOp {
    /// Every arithmetic op, in slot order.
    pub const ALL: [ArithOp; 3] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul];

    /// The op's mnemonic (`"add"`, `"sub"`, `"mul"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ArithOp::Add => "add",
            ArithOp::Sub => "sub",
            ArithOp::Mul => "mul",
        }
    }
}

/// The backend operation an arithmetic block computes.
impl From<ArithOp> for BinOp {
    fn from(op: ArithOp) -> BinOp {
        match op {
            ArithOp::Add => BinOp::Add,
            ArithOp::Sub => BinOp::Sub,
            ArithOp::Mul => BinOp::Mul,
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every operation the unit can issue, for table-driven reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Arithmetic in a format.
    Arith(ArithOp, FormatKind),
    /// FP → FP conversion.
    CvtFF {
        /// Source format.
        from: FormatKind,
        /// Destination format.
        to: FormatKind,
    },
    /// FP → signed int32 conversion.
    CvtFI(FormatKind),
    /// Signed int32 → FP conversion.
    CvtIF(FormatKind),
}

impl fmt::Display for FpuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpuOp::Arith(op, fmt_) => write!(f, "{fmt_} {op}"),
            FpuOp::CvtFF { from, to } => write!(f, "{from} -> {to}"),
            FpuOp::CvtFI(fmt_) => write!(f, "{fmt_} -> int32"),
            FpuOp::CvtIF(fmt_) => write!(f, "int32 -> {fmt_}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(ArithOp::Add.to_string(), "add");
        assert_eq!(
            FpuOp::Arith(ArithOp::Mul, FormatKind::Binary16Alt).to_string(),
            "binary16alt mul"
        );
        assert_eq!(
            FpuOp::CvtFF {
                from: FormatKind::Binary32,
                to: FormatKind::Binary8
            }
            .to_string(),
            "binary32 -> binary8"
        );
        assert_eq!(
            FpuOp::CvtFI(FormatKind::Binary16).to_string(),
            "binary16 -> int32"
        );
    }
}
