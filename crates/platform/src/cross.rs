//! Cross-validation of the analytic cost model against
//! microarchitecturally-measured execution.
//!
//! The analytic models in this crate turn *recorded* [`TraceCounts`] into
//! cycles and energy through closed-form rules (issue cycles, SIMD lane
//! packing, dependent-pair stalls). The `FpuModel` backend in `tp-fpu`
//! produces an independent account of the *same* execution: it computes
//! every FP operation through `flexfloat`'s `SoftFloat` backend and counts
//! it, one op at a time, at the latency and energy the
//! [`SmallFloatUnit`](tp_fpu::SmallFloatUnit) charges for that instruction.
//! Comparing the two is how we check the analytic model against a
//! per-instruction account of the run instead of trusting it.
//!
//! The two accounts are deliberately *not* expected to be equal:
//!
//! * the measured side sums full **result latencies** (a 16/32-bit op is 2
//!   cycles, always), while the analytic side assumes the pipeline hides
//!   the second cycle except on back-to-back dependent pairs;
//! * the analytic side packs vector-section operations by the SIMD lane
//!   count, while the backend issues every `Fx` operation as a scalar
//!   (the `Fx` layer is scalar by construction);
//! * divisions and square roots are software-emulated on the core — the
//!   measured side counts occurrences, the analytic side charges
//!   `div_issue_cycles`/`sqrt_issue_cycles` each.
//!
//! [`cross_validate`] therefore reconciles them explicitly: it converts the
//! measured account into cycles using the same emulation charges, reports
//! both totals, and exposes the delta. A small delta on an unvectorized
//! kernel says the analytic FP model and the unit's latency model agree; a
//! large one on a vectorized kernel quantifies exactly what SIMD packing
//! and stall-hiding buy.

use flexfloat::{OpKind, TraceCounts};
use tp_fpu::MeasuredStats;

use crate::params::PlatformParams;

/// Measured-vs-analytic comparison of the FP portion of one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CrossReport {
    /// Cycles the `SmallFloatUnit` spent producing results (sum of
    /// per-instruction latencies: arithmetic + conversions).
    pub measured_fpu_cycles: u64,
    /// Cycles charged for the software-emulated operations (div, sqrt at
    /// the platform's emulation costs; FMA at one issue; comparisons at one
    /// cycle each).
    pub measured_emulation_cycles: u64,
    /// Energy the unit's datapaths actually toggled for, in pJ.
    pub measured_energy_pj: f64,
    /// The analytic FP cycles for the same run: scalar + vector issue
    /// cycles, casts, and dependent-pair stalls from the
    /// [`CycleReport`](crate::CycleReport).
    pub analytic_fp_cycles: u64,
    /// The analytic FP-datapath energy (FP ops + casts components).
    pub analytic_fp_energy_pj: f64,
    /// Operations that executed outside the platform's four storage
    /// formats (unaccounted by the unit; should be 0 for a storage-mapped
    /// configuration).
    pub off_grid_ops: u64,
}

impl CrossReport {
    /// Total measured FP cycles (unit latencies + emulation charges).
    #[must_use]
    pub fn measured_total(&self) -> u64 {
        self.measured_fpu_cycles + self.measured_emulation_cycles
    }

    /// Signed measured-vs-analytic cycle delta: positive when the measured
    /// account is costlier than the analytic one.
    #[must_use]
    pub fn cycle_delta(&self) -> i64 {
        self.measured_total() as i64 - self.analytic_fp_cycles as i64
    }

    /// The cycle delta as a fraction of the analytic total (0 when the
    /// analytic total is 0).
    #[must_use]
    pub fn cycle_delta_ratio(&self) -> f64 {
        if self.analytic_fp_cycles == 0 {
            return 0.0;
        }
        self.cycle_delta() as f64 / self.analytic_fp_cycles as f64
    }
}

/// The latency cycles a *scalar* instruction stream's measured account
/// contains but the analytic pipeline model hides.
///
/// Every scalar add/sub/mul in a two-cycle format (16 bits and wider) costs
/// the `SmallFloatUnit` two result cycles, while the analytic model charges
/// one issue cycle and only surfaces the second as a stall when the very
/// next operation consumes the result. The difference — two-cycle scalar
/// add/sub/mul operations minus the scalar dependent pairs in those
/// formats — is therefore exactly the [`CrossReport::cycle_delta`] of an
/// unvectorized run whose dependent pairs are all produced by add/sub/mul
/// (divisions, square roots and FMAs are emulation-charged identically on
/// both sides, so they never contribute). For a binary8-only stream the
/// value is 0 and the two accounts must match to the cycle.
#[must_use]
pub fn scalar_hidden_latency_cycles(counts: &TraceCounts) -> i64 {
    let mut two_cycle_ops: i64 = 0;
    for (&(fmt, kind), oc) in &counts.ops {
        if crate::cycles::two_cycle(fmt) && matches!(kind, OpKind::AddSub | OpKind::Mul) {
            two_cycle_ops += oc.scalar as i64;
        }
    }
    let mut hidden_pairs: i64 = 0;
    for (&fmt, oc) in &counts.dependent_pairs {
        if crate::cycles::two_cycle(fmt) {
            hidden_pairs += oc.scalar as i64;
        }
    }
    two_cycle_ops - hidden_pairs
}

/// Builds the measured-vs-analytic comparison for one execution: `measured`
/// is the [`MeasuredStats`] of the `FpuModel` backend the run was installed
/// on, `counts` the [`TraceCounts`] recorded during the *same* run.
#[must_use]
pub fn cross_validate(
    measured: &MeasuredStats,
    counts: &TraceCounts,
    params: &PlatformParams,
) -> CrossReport {
    let cycles = crate::cycles::cycle_report(counts, params);
    let energy = crate::energy::energy_report(counts, params);

    // The analytic cycle report folds the emulated div/sqrt issue charges
    // into fp_scalar/fp_vector, so the measured side must charge them the
    // same way to compare like with like; comparisons and FMAs are
    // single-issue on both sides.
    let emu = measured.emulated_div * u64::from(params.div_issue_cycles)
        + measured.emulated_sqrt * u64::from(params.sqrt_issue_cycles)
        + measured.emulated_fma
        + measured.cmp_ops;

    CrossReport {
        measured_fpu_cycles: measured.fpu.total_latency,
        measured_emulation_cycles: emu,
        measured_energy_pj: measured.fpu.total_energy_pj,
        analytic_fp_cycles: cycles.fp_scalar + cycles.fp_vector + cycles.casts + cycles.stalls,
        analytic_fp_energy_pj: energy.fp_component(),
        off_grid_ops: measured.off_grid_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Engine, Fx, Recorder};
    use std::sync::Arc;
    use tp_formats::{BINARY16, BINARY8};
    use tp_fpu::FpuModel;

    fn run_both(f: impl Fn()) -> (MeasuredStats, TraceCounts) {
        let fpu = Arc::new(FpuModel::new());
        let ((), counts) = Engine::with(fpu.clone(), || Recorder::scoped(&f));
        (fpu.stats(), counts)
    }

    #[test]
    fn unvectorized_scalar_run_reconciles_exactly() {
        // binary8 arithmetic is 1-cycle on the unit and 1 issue cycle with
        // no stalls in the analytic model, so both accounts must agree to
        // the cycle on a scalar binary8-only run.
        let (measured, counts) = run_both(|| {
            let a = Fx::new(1.5, BINARY8);
            let b = Fx::new(0.25, BINARY8);
            let c = a + b;
            let d = c * b;
            let _ = d - a;
        });
        let r = cross_validate(&measured, &counts, &PlatformParams::paper());
        assert_eq!(r.measured_fpu_cycles, 3);
        assert_eq!(r.analytic_fp_cycles, 3);
        assert_eq!(r.cycle_delta(), 0);
        assert_eq!(r.off_grid_ops, 0);
        assert!(r.measured_energy_pj > 0.0);
        assert!(r.analytic_fp_energy_pj > 0.0);
    }

    #[test]
    fn two_cycle_latency_shows_up_as_positive_delta() {
        // Independent 16-bit ops: the analytic model hides the second
        // cycle (no dependent pairs), the measured account cannot.
        let (measured, counts) = run_both(|| {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.25, BINARY16);
            let _ = a + b;
            let _ = a * b; // independent of the add
        });
        let r = cross_validate(&measured, &counts, &PlatformParams::paper());
        assert_eq!(r.measured_fpu_cycles, 4); // 2 + 2
        assert_eq!(r.analytic_fp_cycles, 2); // two hidden-latency issues
        assert_eq!(r.cycle_delta(), 2);
        assert!((r.cycle_delta_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emulated_ops_charged_at_platform_costs() {
        let params = PlatformParams::paper();
        let (measured, counts) = run_both(|| {
            let a = Fx::new(6.0, BINARY8);
            let b = Fx::new(1.5, BINARY8);
            let _ = a / b;
            let _ = a.sqrt();
        });
        let r = cross_validate(&measured, &counts, &params);
        assert_eq!(
            r.measured_emulation_cycles,
            u64::from(params.div_issue_cycles) + u64::from(params.sqrt_issue_cycles)
        );
        // The analytic model charges the identical issue cycles.
        assert_eq!(r.measured_total(), r.analytic_fp_cycles);
    }

    #[test]
    fn hidden_latency_explains_the_scalar_delta() {
        // A 16-bit chain: three two-cycle ops, two dependent pairs surfaced
        // as analytic stalls, so one latency cycle stays hidden — and the
        // helper must predict the cross-validation delta exactly.
        let (measured, counts) = run_both(|| {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.25, BINARY16);
            let c = a + b;
            let d = c * b; // dependent on the add
            let _ = a - d; // also dependent (pair #2)
        });
        let r = cross_validate(&measured, &counts, &PlatformParams::paper());
        assert_eq!(scalar_hidden_latency_cycles(&counts), 1);
        assert_eq!(r.cycle_delta(), scalar_hidden_latency_cycles(&counts));
    }

    #[test]
    fn binary8_streams_have_no_hidden_latency() {
        let (_, counts) = run_both(|| {
            let a = Fx::new(1.5, BINARY8);
            let b = Fx::new(0.25, BINARY8);
            let c = a + b;
            let _ = c * b;
        });
        assert_eq!(scalar_hidden_latency_cycles(&counts), 0);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let r = cross_validate(
            &MeasuredStats::default(),
            &TraceCounts::new(),
            &PlatformParams::paper(),
        );
        assert_eq!(r, CrossReport::default());
        assert_eq!(r.cycle_delta_ratio(), 0.0);
    }
}
