//! PULPino-like virtual platform cost model.
//!
//! The paper executes its benchmarks on the cycle-accurate PULPino virtual
//! platform and reports cycles, memory accesses and per-instruction-class
//! energy. This crate substitutes that platform with a trace-driven model:
//! instrumented kernels record [`flexfloat::TraceCounts`]
//! (operations per format with a scalar/vector split, the cast matrix,
//! memory traffic per width, integer bookkeeping and dependent-issue
//! pairs), and the three models here turn those counts into the quantities
//! of Figs. 6 and 7:
//!
//! * [`cycle_report`] — in-order single-issue pipeline with the paper's FP
//!   latency rules (2-cycle 32/16-bit FP with dependent-issue bubbles;
//!   1-cycle binary8 and casts; SIMD lane packing);
//! * [`memory_report`] — 32-bit TCDM accesses with sub-word SIMD packing;
//! * [`energy_report`] — per-instruction-class energy (core + I-mem +
//!   D-mem + FPU datapath + operand moves + stalls) split into the FP ops /
//!   memory ops / other ops components.
//!
//! ```
//! use flexfloat::{Fx, Recorder};
//! use tp_formats::BINARY16;
//! use tp_platform::{evaluate, PlatformParams};
//!
//! let (_, counts) = Recorder::scoped(|| {
//!     let a = Fx::new(1.5, BINARY16);
//!     let b = Fx::new(0.25, BINARY16);
//!     let _ = a * b + a;
//! });
//! let report = evaluate(&counts, &PlatformParams::paper());
//! assert!(report.cycles.total() > 0);
//! assert!(report.energy.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cross;
mod cycles;
mod energy;
mod memory;
mod params;

pub use cross::{cross_validate, scalar_hidden_latency_cycles, CrossReport};
pub use cycles::{cycle_report, CycleReport};
pub use energy::{energy_report, EnergyReport};
pub use memory::{memory_report, MemoryReport};
pub use params::PlatformParams;

use flexfloat::TraceCounts;

/// Combined platform evaluation of one recorded execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlatformReport {
    /// Execution-time model.
    pub cycles: CycleReport,
    /// Data-memory traffic model.
    pub memory: MemoryReport,
    /// Energy model.
    pub energy: EnergyReport,
}

/// Runs all three models over one set of trace counts.
#[must_use]
pub fn evaluate(counts: &TraceCounts, params: &PlatformParams) -> PlatformReport {
    PlatformReport {
        cycles: cycle_report(counts, params),
        memory: memory_report(counts),
        energy: energy_report(counts, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, Recorder, VectorSection};
    use tp_formats::{BINARY32, BINARY8};

    /// A miniature dot-product app, executed in two configurations.
    fn dot(fmt: tp_formats::FpFormat, vectorize: bool) -> TraceCounts {
        let (_, counts) = Recorder::scoped(|| {
            let a = FxArray::from_f64s(fmt, &[1.0; 32]);
            let b = FxArray::from_f64s(fmt, &[0.5; 32]);
            let guard = vectorize.then(VectorSection::enter);
            let mut acc = Fx::zero(fmt);
            for i in 0..32 {
                acc = acc + a.get(i) * b.get(i);
                Recorder::int_ops(2);
            }
            drop(guard);
            let _ = acc;
        });
        counts
    }

    #[test]
    fn transprecision_beats_baseline_everywhere() {
        let p = PlatformParams::paper();
        let baseline = evaluate(&dot(BINARY32, false), &p);
        let tuned = evaluate(&dot(BINARY8, true), &p);
        assert!(tuned.cycles.total() < baseline.cycles.total());
        assert!(tuned.memory.total() < baseline.memory.total());
        assert!(tuned.energy.total() < baseline.energy.total());
        // Memory accesses shrink by the full packing factor.
        assert!(tuned.memory.total() * 3 < baseline.memory.total());
    }

    #[test]
    fn reports_are_consistent() {
        let p = PlatformParams::paper();
        let counts = dot(BINARY32, false);
        let r = evaluate(&counts, &p);
        assert_eq!(r.cycles, cycle_report(&counts, &p));
        assert_eq!(r.memory, memory_report(&counts));
        assert_eq!(r.energy, energy_report(&counts, &p));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let r = evaluate(&TraceCounts::new(), &PlatformParams::paper());
        assert_eq!(r.cycles.total(), 0);
        assert_eq!(r.memory.total(), 0);
        assert_eq!(r.energy.total(), 0.0);
    }
}
