//! [`FpuModel`] — the [`SmallFloatUnit`](crate::SmallFloatUnit) as a
//! pluggable `flexfloat` execution backend.
//!
//! Installing this backend (via `flexfloat::Engine::with`) routes every
//! `Fx`/`FlexFloat` operation through the microarchitectural FPU model,
//! which is `SoftFloat` plus one counter: every result and IEEE flag comes
//! from an inner `flexfloat::backend::SoftFloat` (the `tp-softfloat`
//! kernels the unit's datapaths run), so results are **bit-identical** to
//! the other backends and `fflags` equal `SoftFloat`'s. The counter charges
//! add/sub/mul in the four platform formats what
//! [`SmallFloatUnit::scalar`](crate::SmallFloatUnit::scalar) charges and
//! conversions what [`SmallFloatUnit::convert`](crate::SmallFloatUnit::convert)
//! charges; division, square root (software-emulated on the PULPino core,
//! as in the paper) and comparisons are counted apart in [`MeasuredStats`].
//! `tp-platform` cross-validates that account against its analytic
//! [`CycleReport`](../tp_platform/struct.CycleReport.html).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexfloat::backend::{BinOp, FlagSet, FpBackend, SoftFloat};
use tp_formats::{FormatKind, FpFormat, ALL_KINDS};

use crate::energy::{EnergyTable, ENERGY_QUANTUM_PJ};
use crate::op::ArithOp;
use crate::unit::{conversion_cost, scalar_cost, FpuStats};

/// A tap observing every operation the backend accounts: the op class,
/// the formats involved, and the unit's cycle/energy charge (0 for
/// classes the unit has no hardware block for). Installed with
/// [`FpuModel::with_sink`]; with no sink the backend never builds or
/// reports any of this, so ordinary runs pay nothing.
///
/// The tap is **observational by contract**: it sees each op *after*
/// the result is computed and must not influence it. `tp_obs::attr` is
/// the intended receiver — its table is keyed on (kernel, phase,
/// op-class, format-pair) and reconciles exactly against
/// [`MeasuredStats`] (no dropped or double-counted ops: every backend
/// operation reaches the sink exactly once, in the same bucket
/// [`MeasuredStats`] counts it in).
pub trait AttributionSink: Send + Sync + std::fmt::Debug {
    /// Reports one accounted op. `from`/`to` are format names (equal
    /// for non-conversions; `"off-grid"` for formats outside the
    /// platform's four). `cycles`/`energy_pj` are the unit's charge —
    /// the exact quantities accumulated into [`FpuStats`] — and 0 for
    /// emulated/cmp/off-grid classes, which the unit does not account.
    fn record(
        &self,
        class: &'static str,
        from: &'static str,
        to: &'static str,
        cycles: u64,
        energy_pj: f64,
    );
}

/// Static display name of an in-grid format (the `FormatKind` Display
/// strings, as `&'static str` so sinks can key on them without
/// allocating).
#[must_use]
pub fn kind_name(kind: FormatKind) -> &'static str {
    match kind {
        FormatKind::Binary8 => "binary8",
        FormatKind::Binary16 => "binary16",
        FormatKind::Binary16Alt => "binary16alt",
        FormatKind::Binary32 => "binary32",
    }
}

fn fmt_label(fmt: FpFormat) -> &'static str {
    FormatKind::of_format(fmt).map_or("off-grid", kind_name)
}

/// Execution counts accumulated by an [`FpuModel`] backend: the unit's own
/// statistics plus the operations the unit has no hardware block for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredStats {
    /// Statistics of the instructions the `SmallFloatUnit` executed
    /// (arithmetic in the four platform formats, and conversions).
    pub fpu: FpuStats,
    /// Divisions, software-emulated (no divider slice in Fig. 3).
    pub emulated_div: u64,
    /// Square roots, software-emulated.
    pub emulated_sqrt: u64,
    /// Fused multiply-adds, software-emulated (the unit has no FMA block).
    pub emulated_fma: u64,
    /// Quiet comparisons / min / max (single-cycle, no datapath toggling).
    pub cmp_ops: u64,
    /// Operations in formats outside the platform's four storage kinds
    /// (e.g. tuning probes), computed bit-exactly in software with no
    /// hardware account.
    pub off_grid_ops: u64,
}

impl MeasuredStats {
    /// Total retired FP instructions: every backend operation counts in
    /// exactly one bucket (unit-executed, software-emulated, comparison,
    /// or off-grid), so the sum is the retired-instruction count an
    /// instruction-stream frontend can reconcile against — `tp-isa`'s
    /// `RunStats::backend_fp_ops` equals this by construction.
    #[must_use]
    pub fn retired_fp_instructions(&self) -> u64 {
        self.fpu.instructions
            + self.emulated_div
            + self.emulated_sqrt
            + self.emulated_fma
            + self.cmp_ops
            + self.off_grid_ops
    }

    /// The run's energy/cycle account in summary form — the totals the
    /// attribution plane reconciles against (see [`EnergyAccount`]).
    #[must_use]
    pub fn energy_account(&self) -> EnergyAccount {
        EnergyAccount {
            unit_ops: self.fpu.instructions,
            unit_cycles: self.fpu.total_latency,
            unit_energy_pj: self.fpu.total_energy_pj,
            emulated_ops: self.emulated_div + self.emulated_sqrt + self.emulated_fma,
            cmp_ops: self.cmp_ops,
            off_grid_ops: self.off_grid_ops,
        }
    }
}

/// Summary energy/cycle totals of a measured run, derived from
/// [`MeasuredStats`]: what the unit charged (ops, cycles, pJ) and how
/// many operations fell outside the unit (emulated, comparisons,
/// off-grid — all charged 0 by the hardware model). The attribution
/// plane's contract is that its per-(kernel, phase, op-class, format)
/// rows sum *exactly* to these totals — `unit_energy_pj` with `==`,
/// because `EnergyTable` quantizes to a dyadic grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyAccount {
    /// Instructions the `SmallFloatUnit` executed (arith + conversions).
    pub unit_ops: u64,
    /// Cycles the unit charged for those instructions.
    pub unit_cycles: u64,
    /// Picojoules the unit charged for those instructions.
    pub unit_energy_pj: f64,
    /// Software-emulated ops (div + sqrt + fma): counted, not charged.
    pub emulated_ops: u64,
    /// Quiet comparisons / min / max: counted, not charged.
    pub cmp_ops: u64,
    /// Ops in formats outside the platform grid: counted, not charged.
    pub off_grid_ops: u64,
}

impl EnergyAccount {
    /// Every operation in the account, across all classes — equals
    /// [`MeasuredStats::retired_fp_instructions`].
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.unit_ops + self.emulated_ops + self.cmp_ops + self.off_grid_ops
    }
}

/// Formats the unit has slices for.
const KINDS: usize = ALL_KINDS.len();
/// First conversion slot; the 12 arithmetic slots (op × kind) come before.
const CONVERT: usize = ArithOp::ALL.len() * KINDS;
/// Slots the unit charges: arithmetic, then conversions (from × to).
const UNIT_SLOTS: usize = CONVERT + KINDS * KINDS;
// Uncharged slots after the unit's: counted, never charged.
const DIV: usize = UNIT_SLOTS;
const SQRT: usize = UNIT_SLOTS + 1;
const FMA: usize = UNIT_SLOTS + 2;
const CMP: usize = UNIT_SLOTS + 3;
const OFF_GRID: usize = UNIT_SLOTS + 4;
const SLOTS: usize = OFF_GRID + 1;

fn arith_slot(op: ArithOp, kind: FormatKind) -> usize {
    op as usize * KINDS + kind as usize
}

fn convert_slot(from: FormatKind, to: FormatKind) -> usize {
    CONVERT + from as usize * KINDS + to as usize
}

/// The unit's `(latency, energy_pj)` per charged slot, from the same cost
/// functions [`SmallFloatUnit`](crate::SmallFloatUnit) charges.
fn unit_costs() -> [(u64, f64); UNIT_SLOTS] {
    let energy = EnergyTable::paper();
    let mut costs = [(0, 0.0); UNIT_SLOTS];
    for kind in ALL_KINDS {
        for op in ArithOp::ALL {
            let (latency, pj) = scalar_cost(&energy, op, kind);
            costs[arith_slot(op, kind)] = (u64::from(latency), pj);
        }
        for to in ALL_KINDS {
            let (latency, pj) = conversion_cost(&energy, kind, to);
            costs[convert_slot(kind, to)] = (u64::from(latency), pj);
        }
    }
    costs
}

/// The `SmallFloatUnit` adapter backend: routes `flexfloat` operations
/// through the FPU cycle/energy model, accumulating [`MeasuredStats`].
///
/// Each op computes its result and raises its flags through an inner
/// [`SoftFloat`] (whose flag register [`FpBackend::flags`] reads), then
/// bumps one relaxed `AtomicU64` counter: one per (op, format) arithmetic
/// slot, per (from, to) conversion, and per uncharged class (div, sqrt,
/// fma, cmp, off-grid). The per-slot latency
/// and energy are built once at construction from the costs
/// [`SmallFloatUnit`](crate::SmallFloatUnit) charges, and
/// [`FpuModel::stats`] derives the totals from the counts. The backend is
/// shared as `Arc<dyn FpBackend>` and may be installed on several threads
/// at once: no op takes a lock or allocates, and the counters are meant
/// to be read after the run (a read during one sees each counter at some
/// recent value).
///
/// ```
/// use std::sync::Arc;
/// use flexfloat::{Engine, Fx};
/// use tp_formats::BINARY8;
/// use tp_fpu::FpuModel;
///
/// let fpu = Arc::new(FpuModel::new());
/// let out = Engine::with(fpu.clone(), || {
///     let a = Fx::new(1.5, BINARY8);
///     let b = Fx::new(0.25, BINARY8);
///     (a + b).value()
/// });
/// assert_eq!(out, 1.75); // bit-identical to the emulated path
/// let stats = fpu.stats();
/// assert_eq!(stats.fpu.instructions, 1);
/// assert_eq!(stats.fpu.total_latency, 1); // binary8 add is single-cycle
/// assert!(stats.fpu.total_energy_pj > 0.0);
/// ```
#[derive(Debug)]
pub struct FpuModel {
    /// Computes every result and holds the flag register.
    soft: SoftFloat,
    counts: [AtomicU64; SLOTS],
    costs: [(u64, f64); UNIT_SLOTS],
    sink: Option<Arc<dyn AttributionSink>>,
}

impl Default for FpuModel {
    fn default() -> Self {
        FpuModel {
            soft: SoftFloat::new(),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            costs: unit_costs(),
            sink: None,
        }
    }
}

impl FpuModel {
    /// A backend over a unit with the paper-calibrated energy table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend that additionally reports every accounted op to `sink`
    /// (see [`AttributionSink`]).
    #[must_use]
    pub fn with_sink(sink: Arc<dyn AttributionSink>) -> Self {
        FpuModel {
            sink: Some(sink),
            ..Self::default()
        }
    }

    /// Counts one op in `slot` and reports it, with the slot's charge, to
    /// the sink if there is one.
    #[inline]
    fn count(&self, slot: usize, class: &'static str, from: &'static str, to: &'static str) {
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            let (cycles, energy_pj) = self.costs.get(slot).copied().unwrap_or((0, 0.0));
            sink.record(class, from, to, cycles, energy_pj);
        }
    }

    /// Counts a software-emulated op in `slot`, or an off-grid one, and
    /// passes its result through.
    fn emulated(&self, fmt: FpFormat, slot: usize, class: &'static str, out: f64) -> f64 {
        match FormatKind::of_format(fmt) {
            Some(kind) => self.count(slot, class, kind_name(kind), kind_name(kind)),
            None => self.off_grid(),
        }
        out
    }

    fn off_grid(&self) {
        self.count(OFF_GRID, "off_grid", "off-grid", "off-grid");
    }

    /// Counts a comparison and passes its result through; its format
    /// labels are looked up only for a sink.
    fn cmp<T>(&self, fmt: FpFormat, out: T) -> T {
        self.counts[CMP].fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.record("cmp", fmt_label(fmt), fmt_label(fmt), 0, 0.0);
        }
        out
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MeasuredStats {
        let n = |slot: usize| self.counts[slot].load(Ordering::Relaxed);
        let mut fpu = FpuStats::default();
        let mut quanta = 0u64;
        for (slot, &(latency, energy_pj)) in self.costs.iter().enumerate() {
            let count = n(slot);
            fpu.instructions += count;
            fpu.total_latency += count * latency;
            quanta += count * (energy_pj / ENERGY_QUANTUM_PJ) as u64;
        }
        // Every energy is a whole number of quanta (`energy` module doc),
        // so this equals the op-by-op `f64` sum bit for bit.
        fpu.total_energy_pj = quanta as f64 * ENERGY_QUANTUM_PJ;
        MeasuredStats {
            fpu,
            emulated_div: n(DIV),
            emulated_sqrt: n(SQRT),
            emulated_fma: n(FMA),
            cmp_ops: n(CMP),
            off_grid_ops: n(OFF_GRID),
        }
    }

    /// Resets all accumulated statistics.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl FpBackend for FpuModel {
    fn name(&self) -> &'static str {
        "fpu-model"
    }

    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        let out = self.soft.bin_op(fmt, op, a, b);
        let arith = match op {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            // No divider slice: emulated in software on the core.
            BinOp::Div => return self.emulated(fmt, DIV, "div_emulated", out),
        };
        match FormatKind::of_format(fmt) {
            Some(kind) => {
                let name = kind_name(kind);
                self.count(arith_slot(arith, kind), arith.name(), name, name);
            }
            None => self.off_grid(),
        }
        out
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        self.emulated(fmt, SQRT, "sqrt_emulated", self.soft.sqrt(fmt, x))
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        self.emulated(fmt, FMA, "fma_emulated", self.soft.fma(fmt, a, b, c))
    }

    fn cast(&self, from: FpFormat, to: FpFormat, x: f64) -> f64 {
        let out = self.soft.cast(from, to, x);
        match (FormatKind::of_format(from), FormatKind::of_format(to)) {
            (Some(fk), Some(tk)) => {
                self.count(
                    convert_slot(fk, tk),
                    "convert",
                    kind_name(fk),
                    kind_name(tk),
                );
            }
            _ => self.off_grid(),
        }
        out
    }

    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.cmp(fmt, self.soft.min(fmt, a, b))
    }

    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        self.cmp(fmt, self.soft.max(fmt, a, b))
    }

    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.cmp(fmt, self.soft.lt(fmt, a, b))
    }

    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.cmp(fmt, self.soft.le(fmt, a, b))
    }

    fn eq(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        self.cmp(fmt, self.soft.eq(fmt, a, b))
    }

    fn flags(&self) -> FlagSet {
        self.soft.flags()
    }

    fn clear_flags(&self) {
        self.soft.clear_flags();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::SmallFloatUnit;
    use flexfloat::{Engine, Fx};
    use std::sync::{Arc, Mutex};
    use tp_formats::{RoundingMode, BINARY16, BINARY32, BINARY8};

    #[test]
    fn arithmetic_matches_emulated_path() {
        let fpu = Arc::new(FpuModel::new());
        for (x, y) in [(1.5, 0.25), (1.75, 1.75), (-3.0, 2.0), (0.1, 0.2)] {
            for fmt in [BINARY8, BINARY16, BINARY32] {
                let plain = {
                    let (a, b) = (Fx::new(x, fmt), Fx::new(y, fmt));
                    [
                        (a + b).value(),
                        (a - b).value(),
                        (a * b).value(),
                        (a / b).value(),
                    ]
                };
                let measured = Engine::with(fpu.clone(), || {
                    let (a, b) = (Fx::new(x, fmt), Fx::new(y, fmt));
                    [
                        (a + b).value(),
                        (a - b).value(),
                        (a * b).value(),
                        (a / b).value(),
                    ]
                });
                assert_eq!(plain, measured, "{fmt} {x} {y}");
            }
        }
    }

    #[test]
    fn measured_stats_accumulate_per_class() {
        let fpu = Arc::new(FpuModel::new());
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b; // unit
            let _ = a * b; // unit
            let _ = a / b; // emulated
            let _ = a.sqrt(); // emulated
            let _ = a.min(b); // cmp
            let _ = a.lt(b); // cmp
            let _ = a.to(BINARY8); // unit conversion
        });
        let s = fpu.stats();
        assert_eq!(s.fpu.instructions, 3); // add, mul, convert
        assert_eq!(s.emulated_div, 1);
        assert_eq!(s.emulated_sqrt, 1);
        assert_eq!(s.cmp_ops, 2);
        assert_eq!(s.off_grid_ops, 0);
        // 16-bit arithmetic is 2-cycle, the conversion 1-cycle.
        assert_eq!(s.fpu.total_latency, 2 + 2 + 1);
        fpu.reset();
        assert_eq!(fpu.stats(), MeasuredStats::default());
    }

    #[test]
    fn retired_instruction_hooks_cover_every_bucket() {
        let fpu = Arc::new(FpuModel::new());
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b; // unit
            let _ = a / b; // emulated div
            let _ = a.lt(b); // cmp
        });
        let mid = fpu.stats();
        assert_eq!(mid.retired_fp_instructions(), 3);
        Engine::with(fpu.clone(), || {
            let a = Fx::new(2.0, BINARY8);
            let _ = a.sqrt(); // emulated sqrt
            let _ = a * a; // unit
        });
        let end = fpu.stats();
        assert_eq!(end.retired_fp_instructions(), 5);
        // The second run alone: counters are cumulative.
        assert_eq!(
            end.retired_fp_instructions() - mid.retired_fp_instructions(),
            2
        );
        assert_eq!(end.emulated_sqrt - mid.emulated_sqrt, 1);
        assert_eq!(end.fpu.instructions - mid.fpu.instructions, 1);
        assert_eq!(end.emulated_div - mid.emulated_div, 0);
        // binary8 arithmetic is single-cycle.
        assert_eq!(end.fpu.total_latency - mid.fpu.total_latency, 1);
    }

    #[test]
    fn feq_counts_as_a_comparison() {
        use flexfloat::backend::FpBackend;
        let fpu = FpuModel::new();
        assert!(fpu.eq(BINARY16, 1.5, 1.5));
        assert!(!fpu.eq(BINARY16, 1.5, 0.5));
        assert!(!fpu.eq(BINARY16, f64::NAN, f64::NAN), "quiet: NaN != NaN");
        assert!(fpu.eq(BINARY16, 0.0, -0.0), "-0 == +0");
        assert_eq!(fpu.stats().cmp_ops, 4);
    }

    type SinkRow = (&'static str, &'static str, &'static str, u64, f64);

    #[derive(Debug, Default)]
    struct TestSink {
        rows: Mutex<Vec<SinkRow>>,
    }

    impl AttributionSink for TestSink {
        fn record(
            &self,
            class: &'static str,
            from: &'static str,
            to: &'static str,
            cycles: u64,
            energy_pj: f64,
        ) {
            self.rows
                .lock()
                .unwrap()
                .push((class, from, to, cycles, energy_pj));
        }
    }

    #[test]
    fn sink_sees_every_op_exactly_once_and_totals_reconcile() {
        let sink = Arc::new(TestSink::default());
        let fpu = Arc::new(FpuModel::with_sink(sink.clone()));
        let odd = FpFormat::new(6, 5).unwrap();
        Engine::with(fpu.clone(), || {
            let a = Fx::new(1.5, BINARY16);
            let b = Fx::new(0.5, BINARY16);
            let _ = a + b;
            let _ = a - b;
            let _ = a * b;
            let _ = a / b;
            let _ = a.sqrt();
            let _ = a.min(b);
            let _ = a.lt(b);
            let _ = a.to(BINARY8);
            let (c, d) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            let _ = c * d;
        });
        let s = fpu.stats();
        let rows = sink.rows.lock().unwrap();
        assert_eq!(rows.len() as u64, s.retired_fp_instructions());
        let unit_classes = ["add", "sub", "mul", "convert"];
        let unit: Vec<_> = rows
            .iter()
            .filter(|(c, ..)| unit_classes.contains(c))
            .collect();
        assert_eq!(unit.len() as u64, s.fpu.instructions);
        assert_eq!(
            unit.iter().map(|(.., cy, _)| cy).sum::<u64>(),
            s.fpu.total_latency
        );
        // Exact, not approximate: dyadic-quantized energies sum exactly.
        assert_eq!(
            unit.iter().map(|(.., e)| e).sum::<f64>(),
            s.fpu.total_energy_pj
        );
        let count = |class: &str| rows.iter().filter(|(c, ..)| *c == class).count() as u64;
        assert_eq!(count("div_emulated"), s.emulated_div);
        assert_eq!(count("sqrt_emulated"), s.emulated_sqrt);
        assert_eq!(count("cmp"), s.cmp_ops);
        assert_eq!(count("off_grid"), s.off_grid_ops);
        // Non-unit classes carry no hardware charge.
        for (c, _, _, cy, e) in rows.iter() {
            if !unit_classes.contains(c) {
                assert_eq!((*cy, *e), (0, 0.0), "{c}");
            }
        }
        // Conversion rows carry the format pair.
        let conv = rows.iter().find(|(c, ..)| *c == "convert").unwrap();
        assert_eq!((conv.1, conv.2), ("binary16", "binary8"));
        // The summary account matches field-by-field.
        let account = s.energy_account();
        assert_eq!(account.total_ops(), s.retired_fp_instructions());
        assert_eq!(account.unit_energy_pj, s.fpu.total_energy_pj);
    }

    #[test]
    fn off_grid_formats_fall_back_bit_exactly() {
        let fpu = Arc::new(FpuModel::new());
        let odd = FpFormat::new(6, 5).unwrap();
        let plain = {
            let (a, b) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            (a * b).value()
        };
        let measured = Engine::with(fpu.clone(), || {
            let (a, b) = (Fx::new(1.3, odd), Fx::new(0.7, odd));
            (a * b).value()
        });
        assert_eq!(plain, measured);
        let s = fpu.stats();
        assert_eq!(s.off_grid_ops, 1);
        assert_eq!(s.fpu.instructions, 0);
    }

    #[test]
    fn model_accounts_like_the_unit() {
        let mut all_ops = SmallFloatUnit::new();
        let all_fpu = FpuModel::new();
        for kind in ALL_KINDS {
            let f = kind.format();
            let on_grid =
                |v: f64| f.decode_to_f64(f.round_from_f64(v, RoundingMode::default()).bits);
            let (x, y) = (on_grid(1.3), on_grid(-0.7));
            for op in ArithOp::ALL {
                let fpu = FpuModel::new();
                let got = fpu.bin_op(f, op.into(), x, y);
                let _ = all_fpu.bin_op(f, op.into(), x, y);
                let mut unit = SmallFloatUnit::new();
                let issue = unit.scalar(op, kind, f.encode_in_grid(x), f.encode_in_grid(y));
                let _ = all_ops.scalar(op, kind, f.encode_in_grid(x), f.encode_in_grid(y));
                assert_eq!(got.to_bits(), f.decode_to_f64(issue.lanes[0]).to_bits());
                let (model, unit) = (fpu.stats().fpu, unit.stats());
                assert_eq!(model.instructions, 1, "{kind} {op}");
                assert_eq!(model.total_latency, unit.total_latency, "{kind} {op}");
                assert_eq!(model.total_energy_pj, unit.total_energy_pj, "{kind} {op}");
            }
            for to in ALL_KINDS {
                let fpu = FpuModel::new();
                let got = fpu.cast(f, to.format(), x);
                let _ = all_fpu.cast(f, to.format(), x);
                let mut unit = SmallFloatUnit::new();
                let issue = unit.convert(kind, to, f.encode_in_grid(x));
                let _ = all_ops.convert(kind, to, f.encode_in_grid(x));
                assert_eq!(
                    got.to_bits(),
                    to.format().decode_to_f64(issue.lanes[0]).to_bits()
                );
                let (model, unit) = (fpu.stats().fpu, unit.stats());
                assert_eq!(model.instructions, 1, "{kind} -> {to}");
                assert_eq!(model.total_latency, unit.total_latency, "{kind} -> {to}");
                assert_eq!(
                    model.total_energy_pj, unit.total_energy_pj,
                    "{kind} -> {to}"
                );
            }
        }
        // Summed over every slot, too: the unit's op-by-op account.
        assert_eq!(all_fpu.stats().fpu, all_ops.stats());
    }

    /// Counts the sink's rows and sums their charge, without storing them.
    #[derive(Debug, Default)]
    struct CountingSink {
        rows: AtomicU64,
        cycles: AtomicU64,
        quanta: AtomicU64,
    }

    impl AttributionSink for CountingSink {
        fn record(&self, _: &'static str, _: &'static str, _: &'static str, cycles: u64, pj: f64) {
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.cycles.fetch_add(cycles, Ordering::Relaxed);
            self.quanta
                .fetch_add((pj / ENERGY_QUANTUM_PJ) as u64, Ordering::Relaxed);
        }
    }

    /// Hits every counter slot `rounds` times.
    fn op_mix(fpu: &dyn FpBackend, rounds: u32) {
        let odd = FpFormat::new(6, 5).unwrap();
        for i in 0..rounds {
            let x = 1.0 + f64::from(i % 4) * 0.25;
            for kind in ALL_KINDS {
                let f = kind.format();
                for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                    let _ = fpu.bin_op(f, op, x, 0.75);
                }
                let _ = fpu.sqrt(f, x);
                let _ = fpu.fma(f, x, 0.5, 0.25);
                let _ = fpu.lt(f, x, 0.5);
                for to in ALL_KINDS {
                    let _ = fpu.cast(f, to.format(), x);
                }
            }
            let _ = fpu.bin_op(odd, BinOp::Mul, x, 0.75);
        }
    }

    #[test]
    fn shared_backend_counts_every_op_across_threads() {
        const THREADS: u64 = 4;
        const ROUNDS: u32 = 10_000;
        let one = FpuModel::new();
        op_mix(&one, ROUNDS);
        let one_flags = FpBackend::flags(&one);
        assert!(one_flags.inexact, "{one_flags}");
        let one = one.stats();

        let sink = Arc::new(CountingSink::default());
        let fpu = Arc::new(FpuModel::with_sink(sink.clone()));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let fpu = fpu.clone();
                s.spawn(move || {
                    Engine::with(fpu, || {
                        op_mix(&*Engine::current().expect("installed"), ROUNDS);
                    });
                });
            }
        });
        let all = fpu.stats();
        let n = THREADS;
        assert_eq!(all.fpu.instructions, n * one.fpu.instructions);
        assert_eq!(all.fpu.total_latency, n * one.fpu.total_latency);
        assert_eq!(all.fpu.total_energy_pj, n as f64 * one.fpu.total_energy_pj);
        assert_eq!(all.emulated_div, n * one.emulated_div);
        assert_eq!(all.emulated_sqrt, n * one.emulated_sqrt);
        assert_eq!(all.emulated_fma, n * one.emulated_fma);
        assert_eq!(all.cmp_ops, n * one.cmp_ops);
        assert_eq!(all.off_grid_ops, n * one.off_grid_ops);
        assert_eq!(one.off_grid_ops, u64::from(ROUNDS));
        assert_eq!(
            sink.rows.load(Ordering::Relaxed),
            all.retired_fp_instructions()
        );
        assert_eq!(sink.cycles.load(Ordering::Relaxed), all.fpu.total_latency);
        assert_eq!(
            sink.quanta.load(Ordering::Relaxed) as f64 * ENERGY_QUANTUM_PJ,
            all.fpu.total_energy_pj
        );
        // The sticky flags are a union, so four threads raise what one does.
        assert_eq!(FpBackend::flags(&*fpu), one_flags);
    }

    #[test]
    fn flags_equal_softfloat_case_for_case() {
        let (soft, fpu) = (SoftFloat::new(), FpuModel::new());
        let mut seen = FlagSet::NONE;
        // One op on both backends, registers cleared first: results and
        // flags must match.
        let mut check = |what: &dyn Fn() -> String, op: &dyn Fn(&dyn FpBackend) -> u64| {
            soft.clear_flags();
            fpu.clear_flags();
            assert_eq!(op(&soft), op(&fpu), "{}: result", what());
            assert_eq!(soft.flags(), FpBackend::flags(&fpu), "{}: flags", what());
            seen |= soft.flags();
        };
        let f = BINARY8;
        for a in 0..=0xFFu64 {
            let va = f.decode_to_f64(a);
            for b in 0..=0xFFu64 {
                let vb = f.decode_to_f64(b);
                let what = |op: &'static str| move || format!("{op}({va:e}, {vb:e})");
                for (op, name) in [
                    (BinOp::Add, "add"),
                    (BinOp::Sub, "sub"),
                    (BinOp::Mul, "mul"),
                    (BinOp::Div, "div"),
                ] {
                    check(&what(name), &|bk| bk.bin_op(f, op, va, vb).to_bits());
                }
                check(&what("min"), &|bk| bk.min(f, va, vb).to_bits());
                check(&what("max"), &|bk| bk.max(f, va, vb).to_bits());
                check(&what("lt"), &|bk| u64::from(bk.lt(f, va, vb)));
                check(&what("le"), &|bk| u64::from(bk.le(f, va, vb)));
                check(&what("eq"), &|bk| u64::from(bk.eq(f, va, vb)));
                if (a + b) % 7 == 0 {
                    let vc = f.decode_to_f64((a * 31 + b) & 0xFF);
                    check(&what("fma"), &|bk| bk.fma(f, va, vb, vc).to_bits());
                }
            }
            check(&|| format!("sqrt({va:e})"), &|bk| bk.sqrt(f, va).to_bits());
            for to in ALL_KINDS {
                let what = || format!("cast({va:e}) to {to}");
                check(&what, &|bk| bk.cast(f, to.format(), va).to_bits());
            }
        }
        // Not vacuous: the sweep raised every flag.
        assert_eq!(seen, FlagSet::from_bits(0x1F), "{seen}");
    }
}
