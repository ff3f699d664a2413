//! Cycle model: in-order single-issue core with FP write-back latency.
//!
//! Reproduces the paper's measurement procedure (Section V-A): every
//! instruction issues in one cycle; 32-bit and 16-bit FP operations have a
//! two-cycle latency, costing one bubble when the very next instruction
//! consumes their result; binary8 operations and all casts are
//! single-cycle, so they "always require a single cycle [and are]
//! accumulated analytically". SIMD collapses vector-section element
//! operations by the lane count.

use flexfloat::{OpKind, TraceCounts};
use tp_formats::FpFormat;

use crate::params::PlatformParams;

/// Cycle report of one execution (the right half of Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleReport {
    /// Issue cycles of scalar FP arithmetic.
    pub fp_scalar: u64,
    /// Issue cycles of vectorial FP arithmetic (after lane packing).
    pub fp_vector: u64,
    /// Issue cycles of cast operations (scalar + packed vector).
    pub casts: u64,
    /// Issue cycles of FP loads/stores (after packing).
    pub memory: u64,
    /// Issue cycles of integer/control instructions.
    pub integer: u64,
    /// Pipeline bubbles from back-to-back dependent FP operations.
    pub stalls: u64,
}

impl CycleReport {
    /// Total execution cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fp_scalar + self.fp_vector + self.casts + self.memory + self.integer + self.stalls
    }
}

fn lanes_of(fmt: FpFormat) -> u64 {
    u64::from((32 / fmt.total_bits().max(8)).max(1))
}

fn issue_cycles(params: &PlatformParams, kind: OpKind) -> u64 {
    match kind {
        OpKind::Div => u64::from(params.div_issue_cycles),
        OpKind::Sqrt => u64::from(params.sqrt_issue_cycles),
        _ => 1,
    }
}

/// `true` when results of this format take two cycles (one pipeline stage).
pub(crate) fn two_cycle(fmt: FpFormat) -> bool {
    fmt.total_bits() >= 16
}

/// Computes the cycle report from recorded trace counts.
#[must_use]
pub fn cycle_report(counts: &TraceCounts, params: &PlatformParams) -> CycleReport {
    let mut r = CycleReport::default();

    for (&(fmt, kind), oc) in &counts.ops {
        let per_op = issue_cycles(params, kind);
        r.fp_scalar += oc.scalar * per_op;
        r.fp_vector += oc.vector.div_ceil(lanes_of(fmt)) * per_op;
    }

    for (&(from, to), oc) in &counts.casts {
        // A vector cast handles as many elements as the wider format packs.
        let lanes = lanes_of(if from.total_bits() >= to.total_bits() {
            from
        } else {
            to
        });
        r.casts += oc.scalar + oc.vector.div_ceil(lanes);
    }

    for (&width, oc) in counts.loads.iter().chain(counts.stores.iter()) {
        let lanes = u64::from((32 / width.max(8)).max(1));
        r.memory += oc.scalar + oc.vector.div_ceil(lanes);
    }

    r.integer = (counts.int_ops as f64 * params.int_weight).round() as u64;

    for (&fmt, oc) in &counts.dependent_pairs {
        if two_cycle(fmt) {
            r.stalls += oc.scalar + oc.vector.div_ceil(lanes_of(fmt));
        }
    }

    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, Recorder, VectorSection};
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    fn params() -> PlatformParams {
        PlatformParams {
            int_weight: 1.0,
            ..PlatformParams::paper()
        }
    }

    #[test]
    fn scalar_fp_costs_issue_plus_stall() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            let b = Fx::new(2.5, BINARY32);
            let c = a * b; // producer (2-cycle)
            let _ = c + a; // dependent consumer -> one bubble
        });
        let r = cycle_report(&counts, &params());
        assert_eq!(r.fp_scalar, 2);
        assert_eq!(r.stalls, 1);
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn binary8_never_stalls() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY8);
            let b = Fx::new(2.5, BINARY8);
            let c = a * b;
            let _ = c + a; // dependent, but producer is 1-cycle
        });
        let r = cycle_report(&counts, &params());
        assert_eq!(r.stalls, 0);
    }

    #[test]
    fn vector_ops_pack_by_lanes() {
        let (_, counts) = Recorder::scoped(|| {
            let arr = FxArray::from_f64s(BINARY8, &[1.0; 8]);
            let _v = VectorSection::enter();
            let mut acc = Fx::zero(BINARY8);
            for i in 0..8 {
                acc = acc + arr.get(i); // 8 adds, 8 loads in vector section
            }
            let _ = acc;
        });
        let r = cycle_report(&counts, &params());
        assert_eq!(r.fp_vector, 2); // 8 b8 adds / 4 lanes
        assert_eq!(r.memory, 2); // 8 b8 loads / 4 lanes
        assert_eq!(r.fp_scalar, 0);
    }

    #[test]
    fn division_blocks_the_pipeline() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            let b = Fx::new(2.5, BINARY32);
            let _ = a / b;
        });
        let r = cycle_report(&counts, &params());
        assert_eq!(r.fp_scalar, u64::from(params().div_issue_cycles));
    }

    #[test]
    fn casts_are_single_cycle() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            let _ = a.to(BINARY16).to(BINARY8).to(BINARY32);
        });
        let r = cycle_report(&counts, &params());
        assert_eq!(r.casts, 3);
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn int_weight_scales_integer_cycles() {
        let (_, counts) = Recorder::scoped(|| Recorder::int_ops(10));
        let p = PlatformParams {
            int_weight: 2.5,
            ..PlatformParams::paper()
        };
        assert_eq!(cycle_report(&counts, &p).integer, 25);
    }
}
