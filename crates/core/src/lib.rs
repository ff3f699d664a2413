//! FlexFloat — fast exploration of custom floating-point types for
//! transprecision computing.
//!
//! This crate is the Rust implementation of the software library at the
//! heart of *"A Transprecision Floating-Point Platform for Ultra-Low Power
//! Computing"* (Tagliavini, Mach, Rossi, Marongiu, Benini — DATE 2018). It
//! lets a program replace every `float`/`double` with a reduced-precision
//! type of arbitrary exponent/mantissa widths, run at near-native speed, and
//! report exactly which operations, casts and memory accesses the program
//! performed in each format.
//!
//! # The three layers
//!
//! * [`FlexFloat<E, M>`](FlexFloat) — the compile-time-format type, a direct
//!   port of the paper's `flexfloat<e,m>` template class. Mixed-format
//!   arithmetic is a *compile error*; conversions are explicit. Results are
//!   bit-identical to a hardware unit for every instantiable format (native
//!   f64 fast path where the 2m+2 double-rounding bound applies, integer
//!   softfloat fallback elsewhere).
//! * [`Fx`] / [`FxArray`] — the runtime-format twins used by the precision
//!   tuning flow, where formats are search parameters. Mixed-format
//!   arithmetic inserts (and records) the cast the C++ programmer would have
//!   to write.
//! * [`Recorder`] / [`TraceCounts`] — the statistics machinery (paper
//!   Section III-B step 4): per-format operation counts split into scalar
//!   and [vectorizable](VectorSection) work, the cast matrix, memory traffic
//!   per element width, and pipeline-dependency info consumed by the
//!   `tp-platform` cost models.
//! * [`backend`] — the pluggable execution datapaths. Every operation of
//!   the two value layers dispatches through the thread's active
//!   [`FpBackend`]: the zero-overhead native-`f64`
//!   [`Emulated`](backend::Emulated) path (the default), the pure-integer
//!   [`SoftFloat`](backend::SoftFloat) kernels with IEEE exception flags,
//!   or the `FpuModel` cycle/energy adapter from `tp-fpu`. Backends swap
//!   what is *measured*, never what is *computed* — results are
//!   bit-identical across all three.
//!
//! # Quick start
//!
//! ```
//! use flexfloat::{Binary16Alt, Binary8, FlexFloat};
//!
//! // A dot product in binary8 with a binary16alt accumulator. Note how
//! // 3.25 is not representable in binary8 and rounds to 3.0 on entry.
//! let xs = [1.5f64, 2.0, -0.75, 3.25];
//! let ws = [0.5f64, -1.0, 2.0, 0.25];
//! let mut acc = Binary16Alt::from(0.0);
//! for (&x, &w) in xs.iter().zip(&ws) {
//!     let p = Binary8::from(x) * Binary8::from(w);
//!     acc = acc + p.cast_to(); // explicit widening cast
//! }
//! assert_eq!(acc.to_f64(), -2.0); // exact: 0.75 - 2.0 - 1.5 + 0.75
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cell;
mod config;
mod flex;
mod fx;
mod stats;

pub use backend::{ArrayId, BinOp, Engine, FpBackend, TapeSink, ValueId};
pub use config::{TypeConfig, VarSpec};
pub use flex::{Binary16, Binary16Alt, Binary32, Binary8, FlexFloat};
pub use fx::{fx32, Fx, FxArray};
pub use stats::{EventId, OpCounts, OpKind, Recorder, TraceCounts, VectorSection};
