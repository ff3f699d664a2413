//! Bit-accurate, pure-integer IEEE 754 emulation for arbitrary small
//! floating-point formats.
//!
//! This crate plays the role of *SoftFloat* in the DATE 2018 transprecision
//! platform paper: a slow-but-exact software implementation of floating-point
//! arithmetic. It is (a) the golden reference the fast `flexfloat`
//! emulation is verified against, and (b) the kernels behind `flexfloat`'s
//! `SoftFloat` backend, whose results and flags the transprecision FPU
//! model (`tp-fpu`) reports, standing in for the Synopsys DesignWare blocks
//! of the paper.
//!
//! Everything is computed with integer arithmetic only — no host
//! floating-point operation participates in producing a result, so the crate
//! would behave identically on a target without an FPU. That holds for the
//! IEEE exception flags too: each kernel reads them off its one
//! round-and-pack step instead of redoing the operation in host `f64`.
//!
//! # Layers
//!
//! [`ops`] is the whole API: free functions over raw encodings (`u64` bit
//! patterns plus an [`FpFormat`](tp_formats::FpFormat) and a
//! [`RoundingMode`](tp_formats::RoundingMode)). The `*_with_flags` kernels
//! also return the IEEE exception flags as a [`FlagSet`]; the plain ones
//! discard them. Operands and results share one format; [`ops::convert`]
//! moves an encoding between formats.
//!
//! # Example
//!
//! ```
//! use tp_formats::{RoundingMode, BINARY16, BINARY8};
//! use tp_softfloat::ops;
//!
//! let rne = RoundingMode::NearestEven;
//! let a = BINARY8.round_from_f64(1.5, rne).bits;
//! let b = BINARY8.round_from_f64(0.25, rne).bits;
//! assert_eq!(BINARY8.decode_to_f64(ops::add(BINARY8, a, b, rne)), 1.75);
//!
//! // Conversions between formats are explicit:
//! let wide = ops::convert(BINARY8, BINARY16, a, rne);
//! assert_eq!(BINARY16.decode_to_f64(wide), 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advanced;
mod arith;
mod cmp;
mod cvt;
mod flags;
mod internal;

pub use cmp::FpOrdering;
pub use flags::FlagSet;

/// Free functions over raw encodings, for callers that manage formats and
/// rounding modes themselves.
pub mod ops {
    pub use crate::advanced::{fused_mul_add, fused_mul_add_with_flags, sqrt, sqrt_with_flags};
    pub use crate::arith::{
        add, add_with_flags, div, div_with_flags, mul, mul_with_flags, sub, sub_with_flags,
    };
    pub use crate::cmp::{compare, eq, le, lt, max, min};
    pub use crate::cvt::convert;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{RoundingMode, BINARY8};

    #[test]
    fn comparisons() {
        let enc = |x: f64| BINARY8.round_from_f64(x, RoundingMode::NearestEven).bits;
        let (a, b) = (enc(1.0), enc(2.0));
        let n = BINARY8.quiet_nan_bits();
        assert!(ops::lt(BINARY8, a, b));
        assert!(ops::le(BINARY8, a, a));
        assert!(ops::eq(BINARY8, a, a));
        assert!(!ops::eq(BINARY8, n, n));
        assert_eq!(ops::compare(BINARY8, a, n), FpOrdering::Unordered);
        assert_eq!(ops::compare(BINARY8, a, b), FpOrdering::Less);
    }
}
