//! Energy model: per-instruction-class accounting (core, I-mem, D-mem and
//! FPU contributions), split into the three components of Fig. 7.

use flexfloat::{OpKind, TraceCounts};
use tp_formats::{FormatKind, FpFormat};
use tp_fpu::ArithOp;

use crate::cycles::cycle_report;
use crate::memory::memory_report;
use crate::params::PlatformParams;

/// Energy report of one execution, in pJ (the components of Fig. 7).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// FP arithmetic instructions: FPU datapath + operand moves +
    /// instruction overheads + latency stalls.
    pub fp_ops_pj: f64,
    /// Cast instructions (kept separate for the Fig. 6 highlight; counted
    /// inside the FP component when reporting Fig. 7 totals).
    pub casts_pj: f64,
    /// FP data movement: D-mem accesses + their instruction overheads.
    pub memory_pj: f64,
    /// Everything else the core executes.
    pub other_pj: f64,
}

impl EnergyReport {
    /// Total energy.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.fp_ops_pj + self.casts_pj + self.memory_pj + self.other_pj
    }

    /// The Fig. 7 "FP ops" bar: arithmetic plus casts.
    #[must_use]
    pub fn fp_component(&self) -> f64 {
        self.fp_ops_pj + self.casts_pj
    }
}

/// Energy of one scalar FPU operation of the given kind, in pJ.
fn fpu_op_energy(params: &PlatformParams, fmt: FormatKind, kind: OpKind) -> f64 {
    let t = &params.energy_table;
    match kind {
        OpKind::AddSub => t.scalar_arith(ArithOp::Add, fmt),
        OpKind::Mul => t.scalar_arith(ArithOp::Mul, fmt),
        OpKind::Fma => t.scalar_arith(ArithOp::Add, fmt) + t.scalar_arith(ArithOp::Mul, fmt),
        OpKind::Div => params.div_energy_scale * t.scalar_arith(ArithOp::Mul, fmt),
        OpKind::Sqrt => params.sqrt_energy_scale * t.scalar_arith(ArithOp::Mul, fmt),
        OpKind::Cmp => params.cmp_energy_scale * t.scalar_arith(ArithOp::Add, fmt),
    }
}

fn kind_of(fmt: FpFormat) -> FormatKind {
    // Tuned evaluation formats that are not one of the four storage formats
    // are costed as the narrowest storage format that contains them.
    FormatKind::of_format(fmt).unwrap_or_else(|| {
        if fmt.total_bits() <= 8 {
            FormatKind::Binary8
        } else if fmt.total_bits() <= 16 {
            if fmt.exp_bits() >= 8 {
                FormatKind::Binary16Alt
            } else {
                FormatKind::Binary16
            }
        } else {
            FormatKind::Binary32
        }
    })
}

/// Computes the energy report from recorded trace counts.
#[must_use]
pub fn energy_report(counts: &TraceCounts, params: &PlatformParams) -> EnergyReport {
    let overhead = params.instr_overhead_pj();
    let mut r = EnergyReport::default();

    // FP arithmetic: datapath energy per element (vector lanes share issue
    // overheads), plus per-issue instruction overhead and operand moves.
    for (&(fmt, kind), oc) in &counts.ops {
        let fk = kind_of(fmt);
        let lanes = u64::from(fk.simd_lanes());
        let scalar_datapath = fpu_op_energy(params, fk, kind);
        // Scalar issues.
        r.fp_ops_pj += oc.scalar as f64 * (scalar_datapath + overhead + params.fpu_regmove_pj);
        // Vector issues: lane-shared control amortizes datapath energy.
        let issues = oc.vector.div_ceil(lanes);
        let vector_datapath = match kind {
            OpKind::AddSub | OpKind::Cmp => params.energy_table.vector_arith(ArithOp::Add, fk),
            _ => params.energy_table.vector_arith(ArithOp::Mul, fk),
        };
        r.fp_ops_pj += issues as f64 * (vector_datapath + overhead + params.fpu_regmove_pj);
    }

    // Casts.
    for (&(from, to), oc) in &counts.casts {
        let e = params
            .energy_table
            .conversion(from.total_bits(), to.total_bits());
        r.casts_pj += oc.scalar as f64 * (e + overhead + params.fpu_regmove_pj);
        let lanes = u64::from((32 / from.total_bits().max(to.total_bits()).max(8)).max(1));
        let issues = oc.vector.div_ceil(lanes);
        let ev =
            params
                .energy_table
                .vector_conversion(from.total_bits(), to.total_bits(), lanes as u32);
        r.casts_pj += issues as f64 * (ev + overhead + params.fpu_regmove_pj);
    }

    // FP data movement.
    let mem = memory_report(counts);
    r.memory_pj = mem.total() as f64 * (params.dmem_access_pj + overhead);

    // Integer / control work.
    r.other_pj = counts.int_ops as f64 * params.int_weight * overhead;

    // Latency bubbles burn idle energy; attribute them to the FP component
    // that caused them.
    let stalls = cycle_report(counts, params).stalls;
    r.fp_ops_pj += stalls as f64 * params.stall_cycle_pj;

    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, Recorder, VectorSection};
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    #[test]
    fn components_are_separated() {
        let (_, counts) = Recorder::scoped(|| {
            let mut arr = FxArray::zeros(BINARY32, 2);
            let a = Fx::new(1.5, BINARY32);
            let b = Fx::new(2.5, BINARY32);
            arr.set(0, a * b);
            let _ = arr.get(0).to(BINARY16);
            Recorder::int_ops(5);
        });
        let r = energy_report(&counts, &PlatformParams::paper());
        assert!(r.fp_ops_pj > 0.0);
        assert!(r.casts_pj > 0.0);
        assert!(r.memory_pj > 0.0);
        assert!(r.other_pj > 0.0);
        assert!((r.total() - (r.fp_component() + r.memory_pj + r.other_pj)).abs() < 1e-9);
    }

    #[test]
    fn narrow_formats_reduce_fp_energy() {
        let run = |fmt| {
            let (_, counts) = Recorder::scoped(|| {
                let a = Fx::new(1.5, fmt);
                let b = Fx::new(0.5, fmt);
                for _ in 0..100 {
                    let _ = a * b;
                }
            });
            energy_report(&counts, &PlatformParams::paper()).fp_ops_pj
        };
        let e32 = run(BINARY32);
        let e16 = run(BINARY16);
        let e8 = run(BINARY8);
        assert!(e8 < e16 && e16 < e32, "{e8} {e16} {e32}");
    }

    #[test]
    fn vectorization_reduces_energy_further() {
        let run = |vector: bool| {
            let (_, counts) = Recorder::scoped(|| {
                let arr = FxArray::from_f64s(BINARY8, &[1.0; 64]);
                let guard = vector.then(VectorSection::enter);
                let mut acc = Fx::zero(BINARY8);
                for i in 0..64 {
                    acc = acc + arr.get(i);
                }
                drop(guard);
                let _ = acc;
            });
            energy_report(&counts, &PlatformParams::paper()).total()
        };
        let scalar = run(false);
        let vector = run(true);
        assert!(
            vector < 0.5 * scalar,
            "4-lane SIMD should cut FP+mem energy deeply: {vector} vs {scalar}"
        );
    }

    #[test]
    fn casts_are_not_free() {
        // The PCA effect: heavy casting adds energy on top of the baseline.
        let (_, no_casts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            for _ in 0..10 {
                let _ = a * a;
            }
        });
        let (_, with_casts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            for _ in 0..10 {
                let _ = (a * a).to(BINARY16).to(BINARY32);
            }
        });
        let p = PlatformParams::paper();
        let base = energy_report(&no_casts, &p);
        let cast = energy_report(&with_casts, &p);
        assert!(
            cast.total() > base.total() * 1.5,
            "{} vs {}",
            cast.total(),
            base.total()
        );
    }
}
