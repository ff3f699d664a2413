//! Tape replay under a candidate configuration.
//!
//! The tape has two interpreters:
//!
//! * [`Trace::replay`] runs the **raw** loop of [`crate::batch`] with one
//!   lane when nothing is observing the thread (no [`Recorder`], no
//!   installed backend other than the native `Emulated`): values are plain
//!   `f64`s plus format slots and every operation inlines the emulated
//!   datapath — the arithmetic the uninstalled `Fx` fast path executes,
//!   minus the kernel's own index arithmetic and control flow. Live `Fx`
//!   ops inline that same arithmetic, so one replay costs about as much as
//!   one live run, not less (DESIGN.md §7, "Recording cost"). Replay pays
//!   where one pass serves several lanes: the same loop, with more lanes or
//!   resumed from a shared prefix, serves [`Trace::replay_batch`] and
//!   [`Trace::replay_candidates`].
//! * When a `Recorder` is running or a non-native backend is installed
//!   ([`Engine::is_active`](flexfloat::Engine::is_active)), replay drives
//!   the real [`Fx`]/[`FxArray`] API instead ([`Trace::replay_fx`] below),
//!   so recorded statistics and backend dispatch are exact by
//!   construction.
//!
//! Both interpreters are bit-identical in outputs and divergence decisions
//! (`raw_path_matches_fx_path` below, and the kernel-level suites
//! `tests/replay_equivalence.rs` and `tests/interpreter_equivalence.rs`,
//! pin this).
//!
//! This module also holds what the raw loop reads and reuses: the
//! per-replay dispatch tables ([`Tables`]) and the thread's recycled
//! scratch storage ([`Scratch`]).

use std::cell::RefCell;

use flexfloat::{Engine, Fx, FxArray, Recorder, TypeConfig, VectorSection};
use tp_formats::{FpFormat, BINARY32};

use crate::batch::SoaState;
use crate::tape::{FmtRef, OutputPlan, Packed, Tag, Trace};

/// One cell of the per-replay promotion table: what `Fx::promote` decides
/// for a pair of value format-slots under the current configuration —
/// computed once per replay (slots × slots is tiny), read once per
/// arithmetic entry. The resolved result format rides in the cell so the
/// hot loop never chases `fmts[result]` separately.
#[derive(Clone, Copy)]
pub(crate) struct Promo {
    /// Format slot of the promoted result.
    pub(crate) result: u16,
    /// Resolved format of `result` (== `Tables::fmt(result)`).
    pub(crate) fmt: FpFormat,
    /// Left operand must be re-rounded into the result format.
    pub(crate) san_a: bool,
    /// Right operand must be re-rounded into the result format.
    pub(crate) san_b: bool,
}

/// One cell of the cast dispatch table, keyed on an interned
/// `(destination-slot, source-slot)` format pair: everything the `Cast`,
/// `Store` and fused `Bin`+`Cast` paths need to round a value into its
/// destination, resolved once per replay.
#[derive(Clone, Copy)]
pub(crate) struct CastSpec {
    /// The destination is a superset of the source, so the re-rounding is
    /// an identity on in-grid values and is skipped.
    pub(crate) exact: bool,
    /// Resolved destination format.
    pub(crate) fmt: FpFormat,
}

/// The per-replay dispatch tables of the raw interpreter: the format-slot
/// table resolved against one candidate configuration, plus the
/// `slots × slots` promotion and cast tables derived from it. Rebuilt once
/// per replay (`O(slots²)`, slots are few), read once per tape entry.
#[derive(Default)]
pub(crate) struct Tables {
    /// Resolved format of each interned slot.
    pub(crate) fmts: Vec<FpFormat>,
    /// Promotion table, `slots × slots`, row-major (`[sa * n + sb]`).
    promo: Vec<Promo>,
    /// Cast table, `[dst * n + src]`.
    cast: Vec<CastSpec>,
}

impl Tables {
    /// Resolves `trace`'s interned slots against `config` and rebuilds the
    /// promotion and cast tables.
    ///
    /// The promotion rule here is **provably equivalent to `Fx::promote`**:
    /// both pick the winner by the lexicographic key
    /// `(man_bits, exp_bits)`, left operand on ties. An [`FpFormat`] is
    /// fully determined by `(exp_bits, man_bits)`, so equal keys imply *the
    /// same mantissa width* — and for the mixed pairs where one side has
    /// the wider mantissa but the narrower exponent (binary16 vs
    /// binary16alt), both rules pick the wider mantissa and saturate the
    /// loser's out-of-range values through the sanitize, exactly like the
    /// `convert` that `Fx::promote` inserts. The only liberty taken is
    /// skipping the sanitize when the winner is a *superset* of the loser
    /// (identity on in-grid values). `promotion_parity_with_fx_promote`
    /// below pins the equivalence exhaustively over every `FormatKind`
    /// pair plus randomized flexfloat formats.
    pub(crate) fn rebuild(&mut self, trace: &Trace, config: &TypeConfig) {
        self.fmts.clear();
        self.fmts
            .extend(trace.fmt_slots.iter().map(|slot| match *slot {
                FmtRef::Var(i) => config.format_of(trace.var_names[usize::from(i)]),
                FmtRef::Fixed(fmt) => fmt,
            }));
        let n = self.fmts.len();
        self.promo.clear();
        self.promo.reserve(n * n);
        self.cast.clear();
        self.cast.reserve(n * n);
        for sa in 0..n {
            for sb in 0..n {
                let (fa, fb) = (self.fmts[sa], self.fmts[sb]);
                // Re-rounding into a superset format is an identity on
                // in-grid values — skipping it is the one sanitize the
                // interpreter can prove away that the generic Fx path
                // pays unconditionally.
                self.cast.push(CastSpec {
                    exact: fa.is_superset_of(fb),
                    fmt: fa,
                });
                self.promo.push(if fa == fb {
                    Promo {
                        result: sa as u16,
                        fmt: fa,
                        san_a: false,
                        san_b: false,
                    }
                } else if (fa.man_bits(), fa.exp_bits()) >= (fb.man_bits(), fb.exp_bits()) {
                    Promo {
                        result: sa as u16,
                        fmt: fa,
                        san_a: false,
                        san_b: !fa.is_superset_of(fb),
                    }
                } else {
                    Promo {
                        result: sb as u16,
                        fmt: fb,
                        san_a: !fb.is_superset_of(fa),
                        san_b: false,
                    }
                });
            }
        }
    }

    /// Slot count of the current tables.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.fmts.len()
    }

    /// Resolved format of `slot`.
    #[inline]
    pub(crate) fn fmt(&self, slot: u16) -> FpFormat {
        self.fmts[usize::from(slot)]
    }

    /// The promotion cell for operand slots `(sa, sb)`.
    #[inline]
    pub(crate) fn promo(&self, sa: u16, sb: u16) -> Promo {
        self.promo[usize::from(sa) * self.fmts.len() + usize::from(sb)]
    }

    /// The cast cell for `(dst, src)` slots.
    #[inline]
    pub(crate) fn cast(&self, dst: u16, src: u16) -> CastSpec {
        self.cast[usize::from(dst) * self.fmts.len() + usize::from(src)]
    }
}

/// Most retired array buffers a thread's scratch will keep for reuse.
pub(crate) const MAX_SPARE_BUFFERS: usize = 16;

/// Most bytes of retired array capacity a thread's scratch will keep. A
/// long-lived `tp-serve` worker replays many differently-shaped traces;
/// without a cap it would retain the high-water mark of every kernel it
/// has ever tuned, per thread.
pub(crate) const MAX_SPARE_BYTES: usize = 4 << 20;

/// Retired array storage, recycled into later replays' arrays. Bounded by
/// [`MAX_SPARE_BUFFERS`] / [`MAX_SPARE_BYTES`].
#[derive(Default)]
pub(crate) struct Spare {
    pub(crate) bufs: Vec<Vec<f64>>,
    /// Total capacity bytes currently held in `bufs`.
    pub(crate) bytes: usize,
}

impl Spare {
    /// Takes a recycled buffer (emptied, capacity retained) or a fresh one.
    #[inline]
    pub(crate) fn take(&mut self) -> Vec<f64> {
        match self.bufs.pop() {
            Some(mut buf) => {
                self.bytes -= buf.capacity() * std::mem::size_of::<f64>();
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Recycles every array buffer of `arrays`, leaving it empty with its
    /// capacity kept for the next replay. A buffer that would exceed either
    /// retention cap (count or bytes) is simply dropped.
    pub(crate) fn retire(&mut self, arrays: &mut Vec<(u16, Vec<f64>)>) {
        for (_, buf) in arrays.drain(..) {
            let bytes = buf.capacity() * std::mem::size_of::<f64>();
            if self.bufs.len() < MAX_SPARE_BUFFERS && self.bytes + bytes <= MAX_SPARE_BYTES {
                self.bytes += bytes;
                self.bufs.push(buf);
            }
        }
    }
}

/// Reusable raw-interpreter buffers. A tuning run replays the same tape
/// dozens of times; the value table alone is hundreds of kilobytes, and a
/// fresh allocation per replay means an mmap/munmap round trip (plus the
/// page faults of first touch) per candidate. The scratch is thread-local:
/// replays on pool workers each reuse their own.
///
/// Invariant between replays: `soa.arrays` is empty — every exit path of
/// every raw replay (including lanes that diverge) retires its arrays into
/// `spare`, so no per-run state leaks into the next replay.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The raw loop's state.
    pub(crate) soa: SoaState,
    /// Retired array storage.
    pub(crate) spare: Spare,
    /// Resolved dispatch tables of the current replay.
    pub(crate) tables: Tables,
}

impl Scratch {
    /// Retires every live array buffer into the (bounded) spare pool —
    /// called on **every** raw replay exit path, divergent or not.
    pub(crate) fn retire_arrays(&mut self) {
        self.spare.retire(&mut self.soa.arrays);
    }

    /// Debug-build check of the between-replays invariants.
    pub(crate) fn debug_assert_clean(&self) {
        debug_assert!(
            self.soa.arrays.is_empty(),
            "scratch.soa.arrays leaked across replays"
        );
        debug_assert!(
            self.spare.bufs.len() <= MAX_SPARE_BUFFERS,
            "spare count cap violated"
        );
        debug_assert!(
            self.spare.bytes <= MAX_SPARE_BYTES,
            "spare byte cap violated"
        );
        debug_assert_eq!(
            self.spare.bytes,
            self.spare
                .bufs
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>(),
            "spare byte accounting drifted"
        );
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling thread's replay scratch, asserting (in debug
/// builds) the between-replays invariants on entry and exit. `f` must
/// leave `scratch.soa.arrays` retired.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.debug_assert_clean();
        let result = f(scratch);
        scratch.debug_assert_clean();
        result
    })
}

/// The result of one replay attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Replayed {
    /// The replay completed: these outputs are **bit-identical** to what a
    /// live run of the program under the same configuration (and the same
    /// backend) would have produced.
    Output(Vec<f64>),
    /// A recorded comparison outcome flipped under the candidate formats,
    /// so control flow may differ from the recorded path — the caller must
    /// fall back to live execution for this candidate.
    Divergent {
        /// Index of the flipping [`TapeOp::Cmp`](crate::TapeOp::Cmp) on the
        /// tape ([`Trace::op`] decodes it).
        at: usize,
    },
}

impl Replayed {
    /// The outputs, or `None` on divergence.
    #[must_use]
    pub fn output(self) -> Option<Vec<f64>> {
        match self {
            Replayed::Output(out) => Some(out),
            Replayed::Divergent { .. } => None,
        }
    }
}

impl Trace {
    /// Re-executes the tape under `config` and returns the program outputs
    /// — or [`Replayed::Divergent`] as soon as a recorded comparison
    /// outcome flips.
    ///
    /// When the thread is observed (a [`Recorder`] is running or a backend
    /// is installed), replay drives the real [`Fx`]/[`FxArray`] API in
    /// recorded order: operand promotion, array-store rounding, recorded
    /// statistics (every [`Recorder`] event, including `int_ops` and
    /// vector sections) and backend dispatch all happen exactly as a live
    /// run would perform them. Otherwise a raw interpreter executes the
    /// same arithmetic without the bookkeeping (see the module docs). In
    /// both cases a non-divergent replay is bit-identical to live
    /// execution in outputs — and, when observed, in
    /// [`TraceCounts`](flexfloat::TraceCounts) too.
    ///
    /// Callers that only want the counts of *successful* replays (the tuner
    /// does) should wrap the call in
    /// [`Recorder::scoped`](flexfloat::Recorder::scoped) and absorb the
    /// counts only when the replay completes; a divergent replay has
    /// recorded a prefix of the live run's events.
    #[must_use]
    pub fn replay(&self, config: &TypeConfig) -> Replayed {
        tp_obs::counter_inc("trace.replay_calls");
        if Recorder::is_enabled() || Engine::is_active() {
            self.replay_fx(config)
        } else {
            self.replay_one(config)
        }
    }

    /// The observed interpreter: drives the real `Fx`/`FxArray` API so the
    /// thread's `Recorder` and installed backend see exactly what a live
    /// run would show them.
    pub(crate) fn replay_fx(&self, config: &TypeConfig) -> Replayed {
        let fmts = self.resolve_formats(config);

        // Slot 0 of each table is a dummy so ids index directly.
        let mut values: Vec<Fx> = Vec::with_capacity(self.n_values as usize + 1);
        values.push(Fx::zero(BINARY32));
        let mut arrays: Vec<FxArray> = Vec::with_capacity(self.n_arrays as usize + 1);
        arrays.push(FxArray::zeros(BINARY32, 0));
        let mut sections: Vec<VectorSection> = Vec::new();
        let mut out: Vec<f64> = Vec::new();

        for (at, p) in self.ops.iter().enumerate() {
            let Packed { tag, fmt, a, b } = *p;
            match tag {
                Tag::Leaf => {
                    values.push(Fx::new(self.pool[a as usize], fmts[usize::from(fmt)]));
                }
                Tag::ArrayNew => {
                    let raw = &self.pool[a as usize..a as usize + b as usize];
                    arrays.push(FxArray::from_f64s(fmts[usize::from(fmt)], raw));
                }
                Tag::ArrayZeros => {
                    arrays.push(FxArray::zeros(fmts[usize::from(fmt)], a as usize));
                }
                Tag::ArrayDup => {
                    let dup = arrays[usize::from(fmt)].clone();
                    arrays.push(dup);
                }
                Tag::Load => values.push(arrays[usize::from(fmt)].get(a as usize)),
                Tag::Store => {
                    let value = values[b as usize];
                    arrays[usize::from(fmt)].set(a as usize, value);
                }
                Tag::Cast => values.push(values[a as usize].to(fmts[usize::from(fmt)])),
                Tag::Add => values.push(values[a as usize] + values[b as usize]),
                Tag::Sub => values.push(values[a as usize] - values[b as usize]),
                Tag::Mul => values.push(values[a as usize] * values[b as usize]),
                Tag::Div => values.push(values[a as usize] / values[b as usize]),
                Tag::Sqrt => values.push(values[a as usize].sqrt()),
                Tag::Min => values.push(values[a as usize].min(values[b as usize])),
                Tag::Max => values.push(values[a as usize].max(values[b as usize])),
                Tag::Neg => values.push(-values[a as usize]),
                Tag::Abs => values.push(values[a as usize].abs()),
                Tag::CmpLt | Tag::CmpLe => {
                    let (va, vb) = (values[a as usize], values[b as usize]);
                    let got = if tag == Tag::CmpLe {
                        va.le(vb)
                    } else {
                        va.lt(vb)
                    };
                    if got != (fmt != 0) {
                        // The recorded path is no longer the path this
                        // configuration would take: refuse, never guess.
                        return Replayed::Divergent { at };
                    }
                }
                Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                    unreachable!("fused tags only exist on the raw view")
                }
                Tag::Extract => out.push(values[a as usize].value()),
                Tag::ExtractArray => out.extend(arrays[usize::from(fmt)].to_f64s()),
                Tag::ExtractElement => out.push(arrays[usize::from(fmt)].peek(a as usize)),
                Tag::IntOps => Recorder::int_ops(u64::from(a)),
                Tag::VectorEnter => sections.push(VectorSection::enter()),
                Tag::VectorExit => {
                    sections.pop();
                }
            }
        }

        match self.plan {
            OutputPlan::FromExtracts => Replayed::Output(out),
            OutputPlan::Verbatim => Replayed::Output(self.outputs.clone()),
        }
    }

    /// Resolves the interned format-slot table against `config`, once per
    /// replay — per-op format access is then a plain array read.
    fn resolve_formats(&self, config: &TypeConfig) -> Vec<FpFormat> {
        self.fmt_slots
            .iter()
            .map(|slot| match *slot {
                FmtRef::Var(i) => config.format_of(self.var_names[usize::from(i)]),
                FmtRef::Fixed(fmt) => fmt,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordError;
    use flexfloat::{TraceCounts, VarSpec};
    use tp_formats::{BINARY16, BINARY16ALT, BINARY8};

    /// Σ (xᵢ · w) over an array and a scalar, outputs via `to_f64s`.
    fn dot_run(cfg: &TypeConfig) -> Vec<f64> {
        let xs = FxArray::from_f64s(cfg.format_of("x"), &[1.5, 2.0, -0.75, 3.25]);
        let w = Fx::new(0.3, cfg.format_of("w"));
        let mut out = FxArray::zeros(cfg.format_of("out"), 4);
        for i in 0..4 {
            Recorder::int_ops(2);
            out.set(i, xs.get(i) * w);
        }
        out.to_f64s()
    }

    fn dot_vars() -> Vec<VarSpec> {
        vec![
            VarSpec::array("x", 4),
            VarSpec::scalar("w"),
            VarSpec::array("out", 4),
        ]
    }

    fn configs() -> Vec<TypeConfig> {
        let mut cfgs = vec![TypeConfig::baseline()];
        for fx in [BINARY8, BINARY16, BINARY32] {
            for fw in [BINARY16ALT, BINARY32] {
                cfgs.push(TypeConfig::baseline().with("x", fx).with("w", fw));
            }
        }
        cfgs
    }

    #[test]
    fn straight_line_replay_is_bit_identical_to_live() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        assert_eq!(trace.comparisons(), 0);
        for cfg in configs() {
            let replayed = trace.replay(&cfg).output().expect("no comparisons");
            let live = dot_run(&cfg);
            assert_eq!(
                replayed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                live.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn replay_under_recorded_config_reproduces_recorded_outputs() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        let out = trace.replay(trace.recorded_config()).output().unwrap();
        assert_eq!(out, trace.recorded_outputs());
    }

    #[test]
    fn replay_counts_match_live_counts() {
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        for cfg in configs() {
            let (_, live) = Recorder::scoped(|| dot_run(&cfg));
            let (_, replayed) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(live, replayed, "{cfg}");
        }
    }

    #[test]
    fn recording_keeps_the_engine_active() {
        let trace = Trace::record(&dot_vars(), |cfg| {
            assert!(Engine::is_active());
            assert_eq!(Engine::active_name(), "trace-recorder");
            dot_run(cfg)
        });
        assert!(trace.is_ok());
    }

    #[test]
    fn recording_under_an_enclosing_recorder_counts_nothing() {
        let ((), counts) = Recorder::record(|| {
            let _ = Trace::record(&dot_vars(), dot_run).unwrap();
        });
        assert_eq!(counts, TraceCounts::new());
    }

    /// A value-dependent branch: output depends on whether x stays below a
    /// nearby threshold, which flips once precision drops.
    fn branchy_run(cfg: &TypeConfig) -> Vec<f64> {
        let x = Fx::new(1.0 + 3.0 / 1024.0, cfg.format_of("x"));
        let limit = Fx::new(1.0 + 4.0 / 1024.0, cfg.format_of("x"));
        let picked = if x.lt(limit) { x + x } else { x * x };
        vec![picked.value()]
    }

    #[test]
    fn divergence_guard_fires_when_a_comparison_flips() {
        let vars = [VarSpec::scalar("x")];
        let trace = Trace::record(&vars, branchy_run).unwrap();
        assert_eq!(trace.comparisons(), 1);

        // Wide enough to keep the ordering: replay stays on the tape.
        let fine = TypeConfig::baseline().with("x", BINARY16);
        assert_eq!(
            trace.replay(&fine).output().unwrap(),
            branchy_run(&fine),
            "no divergence at binary16"
        );

        // binary8 rounds both operands to 1.0: the `<` flips, and replay
        // must refuse rather than follow the stale path.
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        match trace.replay(&coarse) {
            Replayed::Divergent { at } => {
                assert!(matches!(trace.op(at), crate::TapeOp::Cmp { .. }));
            }
            Replayed::Output(out) => panic!("expected divergence, got {out:?}"),
        }
    }

    #[test]
    fn vector_sections_and_min_max_round_trip() {
        let vars = [VarSpec::array("a", 3), VarSpec::scalar("s")];
        let run = |cfg: &TypeConfig| {
            let a = FxArray::from_f64s(cfg.format_of("a"), &[0.7, -1.2, 2.5]);
            let s = Fx::new(0.1, cfg.format_of("s"));
            let _v = VectorSection::enter();
            let hi = a.get(0).max(a.get(1)).max(a.get(2));
            let lo = a.get(0).min(a.get(1)).min(a.get(2));
            drop(_v);
            vec![(hi - lo).sqrt().value(), (-(hi * s)).abs().value()]
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline()
                .with("a", BINARY8)
                .with("s", BINARY16),
        ] {
            let (live_out, live_counts) = Recorder::scoped(|| run(&cfg));
            let (replayed, counts) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(replayed.output().unwrap(), live_out);
            assert_eq!(counts, live_counts);
        }
    }

    #[test]
    fn raw_path_matches_fx_path() {
        // The unobserved (raw) and observed (Fx-driven) interpreters must
        // be bit-identical; an enclosing scoped Recorder forces the Fx
        // path without otherwise changing the arithmetic.
        let trace = Trace::record(&dot_vars(), dot_run).unwrap();
        for cfg in configs() {
            let raw = trace.replay(&cfg).output().unwrap();
            let (via_fx, _) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(
                raw.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                via_fx
                    .output()
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "{cfg}"
            );
        }
        // Divergence decisions agree too.
        let vars = [VarSpec::scalar("x")];
        let branchy = Trace::record(&vars, branchy_run).unwrap();
        for fmt in [BINARY8, BINARY16, BINARY16ALT, BINARY32] {
            let cfg = TypeConfig::baseline().with("x", fmt);
            let raw = branchy.replay(&cfg);
            let (via_fx, _) = Recorder::scoped(|| branchy.replay(&cfg));
            assert_eq!(raw, via_fx, "{cfg}");
        }
    }

    /// Exhaustive pairwise pin of the raw promotion table against
    /// `Fx::promote`: every `FormatKind` pair — including the mixed
    /// binary16 (wider mantissa, narrower exponent) vs binary16alt (the
    /// reverse) pair — a systematic `(e, m)` grid, and LCG-randomized
    /// flexfloat formats. The live run promotes through `Fx::promote`; the
    /// raw replay promotes through the `Promo` table; bit-identical
    /// outputs over +,−,×,÷,min,max prove the rules agree (see the
    /// equivalence argument on [`Tables::rebuild`]).
    #[test]
    fn promotion_parity_with_fx_promote() {
        let mut formats = vec![BINARY8, BINARY16, BINARY16ALT, BINARY32];
        for e in [2u32, 3, 5, 8, 11] {
            for m in [1u32, 2, 7, 9, 10, 23, 24, 30, 52] {
                if let Ok(f) = FpFormat::new(e, m) {
                    formats.push(f);
                }
            }
        }
        // xorshift64: deterministic "random" flexfloat formats.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..48 {
            let e = 1 + (next() % 11) as u32;
            let m = 1 + (next() % 52) as u32;
            if let Ok(f) = FpFormat::new(e, m) {
                formats.push(f);
            }
        }
        formats.dedup();

        // Operand values chosen to make the promotion visible: fine-grained
        // mantissas (round differently at every precision) and a magnitude
        // outside the small-exponent ranges (saturates when the winner has
        // the narrow exponent — the exact case where the tie-break rules
        // could disagree).
        let run = |cfg: &TypeConfig| {
            let x = Fx::new(1.0 + 317.0 / 4096.0, cfg.format_of("x"));
            let y = Fx::new(-196_608.0 * (1.0 + 1.0 / 1024.0), cfg.format_of("y"));
            vec![
                (x + y).value(),
                (x - y).value(),
                (x * y).value(),
                (x / y).value(),
                x.min(y).value(),
                x.max(y).value(),
            ]
        };
        let vars = [VarSpec::scalar("x"), VarSpec::scalar("y")];
        let trace = Trace::record(&vars, run).unwrap();
        for &fa in &formats {
            for &fb in &formats {
                let cfg = TypeConfig::baseline().with("x", fa).with("y", fb);
                let raw = trace.replay(&cfg).output().expect("straight-line");
                let live = run(&cfg);
                assert_eq!(
                    raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    live.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "promotion parity broke for {fa} vs {fb}"
                );
            }
        }
    }

    /// Replaying a large trace must not pin its buffers forever: the spare
    /// pool is capped by count and bytes, so a later small replay runs with
    /// a small footprint even on a thread that once replayed a huge kernel.
    #[test]
    fn scratch_spare_retention_is_bounded() {
        // One array over the byte cap: must be dropped, not retained.
        let big_len = MAX_SPARE_BYTES / std::mem::size_of::<f64>() + 4096;
        let vars = [VarSpec::array("a", big_len)];
        let big = Trace::record(&vars, |cfg| {
            let data = vec![1.0; big_len];
            let a = FxArray::from_f64s(cfg.format_of("a"), &data);
            vec![a.peek(0)]
        })
        .unwrap();
        let _ = big.replay(&TypeConfig::baseline()).output().unwrap();
        SCRATCH.with(|s| {
            let s = s.borrow();
            s.debug_assert_clean();
            assert!(
                s.spare.bytes <= MAX_SPARE_BYTES,
                "spare holds {} bytes",
                s.spare.bytes
            );
            assert!(
                s.spare.bufs.iter().all(|b| b.capacity() < big_len),
                "the over-cap buffer was retained"
            );
        });

        // Many small arrays: the count cap holds.
        let many_vars = [VarSpec::array("a", 4)];
        let many = Trace::record(&many_vars, |cfg| {
            let mut out = Vec::new();
            for _ in 0..3 * MAX_SPARE_BUFFERS {
                let a = FxArray::from_f64s(cfg.format_of("a"), &[1.0, 2.0, 3.0, 4.0]);
                out.push(a.peek(0));
            }
            out
        })
        .unwrap();
        let _ = many.replay(&TypeConfig::baseline()).output().unwrap();
        SCRATCH.with(|s| {
            let s = s.borrow();
            s.debug_assert_clean();
            assert!(
                s.spare.bufs.len() <= MAX_SPARE_BUFFERS,
                "{}",
                s.spare.bufs.len()
            );
        });
    }

    /// A divergent early return must retire its arrays like a completed
    /// replay does — per-run state must never leak into the next replay.
    #[test]
    fn divergent_replay_leaves_scratch_clean() {
        let vars = [VarSpec::array("x", 2)];
        let run = |cfg: &TypeConfig| {
            let x = FxArray::from_f64s(
                cfg.format_of("x"),
                &[1.0 + 3.0 / 1024.0, 1.0 + 4.0 / 1024.0],
            );
            let (a, b) = (x.get(0), x.get(1));
            let picked = if a.lt(b) { a + b } else { a * b };
            vec![picked.value()]
        };
        let trace = Trace::record(&vars, run).unwrap();
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        assert!(matches!(trace.replay(&coarse), Replayed::Divergent { .. }));
        SCRATCH.with(|s| {
            let s = s.borrow();
            assert!(s.soa.arrays.is_empty(), "divergent exit leaked arrays");
            s.debug_assert_clean();
        });
    }

    #[test]
    fn cloned_arrays_get_their_own_tape_identity() {
        // A derived Clone would alias the source's tape array; the manual
        // impl records an ArrayDup, so post-clone stores stay independent.
        let vars = [VarSpec::array("a", 2)];
        let run = |cfg: &TypeConfig| {
            let a = FxArray::from_f64s(cfg.format_of("a"), &[1.5, 2.5]);
            let mut b = a.clone();
            b.set(0, a.get(1) * a.get(1));
            let mut out = a.to_f64s();
            out.extend(b.to_f64s());
            out
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("a", BINARY8),
        ] {
            let (live_out, live_counts) = Recorder::scoped(|| run(&cfg));
            let (replayed, counts) = Recorder::scoped(|| trace.replay(&cfg));
            assert_eq!(replayed.output().unwrap(), live_out, "{cfg}");
            assert_eq!(counts, live_counts, "{cfg}");
        }
        // And the raw interpreter agrees.
        let cfg = TypeConfig::baseline().with("a", BINARY8);
        assert_eq!(trace.replay(&cfg).output().unwrap(), run(&cfg));
    }

    #[test]
    fn foreign_values_poison_the_trace() {
        // `outside` is created before the recorder exists, so its dataflow
        // identity is unknown — the trace must refuse, not guess.
        let outside = Fx::new(2.0, BINARY32);
        let vars = [VarSpec::scalar("x")];
        let err = Trace::record(&vars, |cfg| {
            let x = Fx::new(1.5, cfg.format_of("x"));
            vec![(x * outside).value()]
        })
        .unwrap_err();
        assert!(matches!(err, RecordError::Unreplayable(_)), "{err}");
    }

    #[test]
    fn transformed_outputs_are_rejected() {
        // The program post-processes an escaped value in plain f64, so the
        // escape taps cannot reconstruct the output vector.
        let vars = [VarSpec::scalar("x")];
        let err = Trace::record(&vars, |cfg| {
            let x = Fx::new(1.5, cfg.format_of("x"));
            vec![(x * x).value() * 2.0]
        })
        .unwrap_err();
        assert_eq!(err, RecordError::OutputsNotReplayable);
    }

    #[test]
    fn control_flow_only_outputs_replay_verbatim() {
        // KNN-style program: the output is an *index*, never an Fx value.
        let vars = [VarSpec::array("d", 3)];
        let run = |cfg: &TypeConfig| {
            let d = FxArray::from_f64s(cfg.format_of("d"), &[0.8, 0.3, 0.9]);
            let mut best = 0usize;
            for i in 1..3 {
                if d.get(i).lt(d.get(best)) {
                    best = i;
                }
            }
            vec![best as f64]
        };
        let trace = Trace::record(&vars, run).unwrap();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("d", BINARY8),
        ] {
            match trace.replay(&cfg) {
                Replayed::Output(out) => assert_eq!(out, run(&cfg), "{cfg}"),
                // A flip means live would pick another index: falling back
                // is exactly the contract.
                Replayed::Divergent { .. } => {}
            }
        }
    }

    #[test]
    fn too_many_variables_is_reported() {
        let vars: Vec<VarSpec> = (0..64)
            .map(|i| {
                // Leak a handful of names once; tests only.
                let name: &'static str = Box::leak(format!("v{i}").into_boxed_str());
                VarSpec::scalar(name)
            })
            .collect();
        let err = Trace::record(&vars, |_| vec![]).unwrap_err();
        assert!(matches!(err, RecordError::TooManyVariables { .. }), "{err}");
    }
}
