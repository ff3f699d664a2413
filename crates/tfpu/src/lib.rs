//! Transprecision floating-point unit model (paper Section IV, Fig. 3).
//!
//! A functional, timing and energy model of the `SmallFloatUnit`: a 32-bit
//! datapath built from three slice types —
//!
//! * **Slice32** — FP32 ADD/SUB/MUL plus the FP32↔{FP16, FP16alt, FP8,
//!   int32} converters;
//! * **Slice16 ×2** — FP16 and FP16alt ADD/SUB/MUL plus the 16-bit
//!   converters;
//! * **Slice8 ×4** — FP8 ADD/SUB and MUL plus the 8-bit converters —
//!
//! behind shared operand-distribution / operand-isolation and
//! output-selection networks. Replicated narrow slices provide sub-word
//! SIMD: two 16-bit or four 8-bit operations per issue. Unused slices are
//! *operand-silenced* (inputs forced to zero) so only the active slices draw
//! dynamic energy.
//!
//! Every result comes from `flexfloat`'s `SoftFloat` backend (the
//! bit-exact `tp-softfloat` kernels, our stand-in for the paper's Synopsys
//! DesignWare blocks): [`SmallFloatUnit`] and [`FpuModel`] both compute
//! through it, so they agree bit for bit with every other backend. The
//! FP ↔ int converters of Fig. 3 are modelled by cost only: they appear
//! in [`operation_modes`] but the unit issues no integer conversion.
//! Latencies follow
//! the paper: 32-bit and 16-bit arithmetic is pipelined with one stage
//! (2-cycle latency, one op per cycle); 8-bit arithmetic and all
//! conversions take a single cycle. Per-operation energies come from the
//! calibrated [`EnergyTable`] (see `energy` module docs and DESIGN.md §3
//! for the substitution rationale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod energy;
mod op;
mod slices;
mod unit;

pub use backend::{kind_name, AttributionSink, EnergyAccount, FpuModel, MeasuredStats};
pub use energy::{EnergyTable, ENERGY_QUANTUM_PJ};
pub use op::{ArithOp, FpuOp};
pub use slices::{SliceActivity, SliceKind};
pub use unit::{operation_modes, FpuStats, Issue, ModeRow, SmallFloatUnit};
