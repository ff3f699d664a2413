//! The raw interpreter: one structure-of-arrays loop over the tape, shared
//! by every replay.
//!
//! [`SoaState::run`] keeps values as plain `f64`s laid out as
//! `vals[id * lanes + lane]` with one format slot per value id, and every
//! operation inlines the emulated datapath ([`Emulated`]) — the arithmetic
//! of the uninstalled `Fx` fast path (promotion rule, store rounding,
//! RISC-V min/max, quiet comparisons) minus its per-op thread-local checks
//! and statistics bookkeeping. Decode, dispatch and
//! table reads happen once per tape entry; only the arithmetic is per
//! lane. Its two entry points:
//!
//! * [`Trace::replay`] runs it with one lane. That lane count is the
//!   compile-time constant [`One`], so single-trace replay gets its own
//!   monomorphised copy of the loop with every per-lane loop folded away.
//! * [`Trace::replay_batch`] runs all input sets of a kernel in one pass,
//!   one lane per trace. Traces of the same kernel on different inputs are
//!   structurally identical (same ops, slots, names — only pool payloads
//!   and recorded branch outcomes differ; checked in O(1) via
//!   [`Trace::same_shape`]). Divergence is **per lane**: a set whose
//!   recorded comparison flips drops out of the batch (its result is
//!   [`Replayed::Divergent`]); the remaining lanes keep going, and the pass
//!   ends early when no lane is alive.
//!
//! [`Trace::replay_batch`] falls back to per-trace [`Trace::replay`] for
//! traces of different shapes, so callers never need to pre-check.

use flexfloat::backend::Emulated;
use flexfloat::{BinOp, FpBackend, TypeConfig};

use crate::replay::{with_scratch, CastSpec, Promo, Replayed, Scratch, Spare, Tables};
use crate::tape::{OutputPlan, Packed, Tag, Trace};

/// A lane count of the raw loop: `usize` for a batch, [`One`] for a
/// single trace.
pub(crate) trait Lanes: Copy {
    /// The number of lanes.
    fn get(self) -> usize;
}

impl Lanes for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// The lane count 1, known at compile time.
#[derive(Clone, Copy)]
pub(crate) struct One;

impl Lanes for One {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

/// The raw loop's state: value and format tables, arrays, outputs and
/// per-lane divergence.
#[derive(Default)]
pub(crate) struct SoaState {
    /// Value table, `vals[id * lanes + lane]`; value id 0 is a dummy so
    /// ids index directly.
    vals: Vec<f64>,
    /// Format slot of each value id (a parallel column rather than a padded
    /// struct — the table is pure memory traffic).
    vslot: Vec<u16>,
    /// Arrays as (format slot, storage `data[idx * lanes + lane]`).
    pub(crate) arrays: Vec<(u16, Vec<f64>)>,
    /// Extracted outputs, `out[k * lanes + lane]`.
    out: Vec<f64>,
    /// Divergence site (tape index) of each lane, once it has diverged.
    diverged: Vec<Option<usize>>,
    /// Lanes that have not diverged.
    live: usize,
}

impl SoaState {
    /// Resets to the state before the first entry of `leader`'s tape.
    fn start(&mut self, leader: &Trace, lanes: usize, spare: &mut Spare) {
        let ids = leader.n_values as usize + 1;
        self.vals.clear();
        self.vals.reserve(ids * lanes);
        self.vals.resize(lanes, 0.0);
        self.vslot.clear();
        self.vslot.reserve(ids);
        self.vslot.push(0);
        self.arrays.push((0, spare.take()));
        self.out.clear();
        self.out.reserve(leader.outputs.len() * lanes);
        self.diverged.clear();
        self.diverged.resize(lanes, None);
        self.live = lanes;
    }

    /// Runs the tape shared by `traces` — one trace per lane,
    /// `traces[0]` the leader whose tape is walked — against
    /// `tables`. Lanes that diverge are marked and skipped at later
    /// comparisons (elsewhere they compute harmlessly — f64 arithmetic
    /// cannot fault). Stops early once every lane has diverged.
    #[allow(clippy::too_many_lines)]
    fn run<L: Lanes>(&mut self, lanes: L, traces: &[&Trace], tables: &Tables, spare: &mut Spare) {
        let lanes = lanes.get();
        let traces = &traces[..lanes];
        let SoaState {
            vals,
            vslot,
            arrays,
            out,
            diverged,
            live,
        } = self;
        let diverged = &mut diverged[..lanes];

        for (at, p) in traces[0].ops.iter().enumerate() {
            let Packed { tag, fmt, a, b } = *p;
            match tag {
                Tag::Leaf => {
                    let f = tables.fmt(fmt);
                    vals.extend(traces.iter().map(|t| f.sanitize_f64(t.pool[a as usize])));
                    vslot.push(fmt);
                }
                Tag::ArrayNew => {
                    let f = tables.fmt(fmt);
                    let (a, b) = (a as usize, b as usize);
                    let mut data = spare.take();
                    data.reserve(b * lanes);
                    for idx in a..a + b {
                        data.extend(traces.iter().map(|t| f.sanitize_f64(t.pool[idx])));
                    }
                    arrays.push((fmt, data));
                }
                Tag::ArrayZeros => {
                    let mut data = spare.take();
                    data.resize(a as usize * lanes, 0.0);
                    arrays.push((fmt, data));
                }
                Tag::ArrayDup => {
                    let (slot, ref src) = arrays[usize::from(fmt)];
                    let mut data = spare.take();
                    data.extend_from_slice(src);
                    arrays.push((slot, data));
                }
                Tag::Load => {
                    let (slot, ref data) = arrays[usize::from(fmt)];
                    let base = a as usize * lanes;
                    vals.extend_from_slice(&data[base..base + lanes]);
                    vslot.push(slot);
                }
                Tag::Store => {
                    let sv = vslot[b as usize];
                    let vbase = b as usize * lanes;
                    let (slot, ref mut data) = arrays[usize::from(fmt)];
                    let cs = tables.cast(slot, sv);
                    let abase = a as usize * lanes;
                    if cs.exact {
                        data[abase..abase + lanes].copy_from_slice(&vals[vbase..vbase + lanes]);
                    } else {
                        for l in 0..lanes {
                            data[abase + l] = cs.fmt.sanitize_f64(vals[vbase + l]);
                        }
                    }
                }
                Tag::Cast => {
                    let cs = tables.cast(fmt, vslot[a as usize]);
                    push_cast(vals, a as usize * lanes, lanes, cs);
                    vslot.push(fmt);
                }
                Tag::Add | Tag::Sub | Tag::Mul | Tag::Div => {
                    let e = push_bin(vals, vslot, tables, tag.bin_op(), a, b, lanes);
                    vslot.push(e.result);
                }
                Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                    // Fused bin + cast-of-result: two values, one entry. The
                    // cast side is one table cell keyed on the interned
                    // (result-slot, dst-slot) pair.
                    let e = push_bin(vals, vslot, tables, tag.bin_op(), a, b, lanes);
                    vslot.push(e.result);
                    let cs = tables.cast(fmt, e.result);
                    push_cast(vals, vals.len() - lanes, lanes, cs);
                    vslot.push(fmt);
                }
                Tag::Sqrt => {
                    let sv = vslot[a as usize];
                    let f = tables.fmt(sv);
                    let base = a as usize * lanes;
                    for l in 0..lanes {
                        let v = Emulated.sqrt(f, vals[base + l]);
                        vals.push(v);
                    }
                    vslot.push(sv);
                }
                Tag::Min | Tag::Max => {
                    let e = tables.promo(vslot[a as usize], vslot[b as usize]);
                    let (abase, bbase) = (a as usize * lanes, b as usize * lanes);
                    for l in 0..lanes {
                        let (va, vb) = promote(e, vals[abase + l], vals[bbase + l]);
                        vals.push(if tag == Tag::Min {
                            Emulated.min(e.fmt, va, vb)
                        } else {
                            Emulated.max(e.fmt, va, vb)
                        });
                    }
                    vslot.push(e.result);
                }
                Tag::Neg => {
                    let base = a as usize * lanes;
                    for l in 0..lanes {
                        let v = -vals[base + l];
                        vals.push(v);
                    }
                    vslot.push(vslot[a as usize]);
                }
                Tag::Abs => {
                    let base = a as usize * lanes;
                    for l in 0..lanes {
                        let v = vals[base + l].abs();
                        vals.push(v);
                    }
                    vslot.push(vslot[a as usize]);
                }
                Tag::CmpLt | Tag::CmpLe => {
                    let e = tables.promo(vslot[a as usize], vslot[b as usize]);
                    let (abase, bbase) = (a as usize * lanes, b as usize * lanes);
                    for (l, trace) in traces.iter().enumerate() {
                        if diverged[l].is_some() {
                            continue;
                        }
                        let (va, vb) = promote(e, vals[abase + l], vals[bbase + l]);
                        let got = if tag == Tag::CmpLe { va <= vb } else { va < vb };
                        // Each lane checks against its *own* recorded outcome
                        // — branch decisions are input-data-dependent even on
                        // a shared tape shape. Shape-equal tapes agree entry
                        // for entry, so it sits at the same index; the
                        // leader's is this entry's `fmt`.
                        let expected = if l == 0 {
                            fmt != 0
                        } else {
                            trace.ops[at].fmt != 0
                        };
                        if got != expected {
                            diverged[l] = Some(at);
                            *live -= 1;
                        }
                    }
                    if *live == 0 {
                        return;
                    }
                }
                Tag::Extract => {
                    let base = a as usize * lanes;
                    out.extend_from_slice(&vals[base..base + lanes]);
                }
                Tag::ExtractArray => out.extend_from_slice(&arrays[usize::from(fmt)].1),
                Tag::ExtractElement => {
                    let base = a as usize * lanes;
                    out.extend_from_slice(&arrays[usize::from(fmt)].1[base..base + lanes]);
                }
            }
        }
    }

    /// The result of lane `lane`, whose trace is `trace`, once the run has
    /// reached the end of the tape or every lane has diverged.
    fn result(&mut self, lane: usize, trace: &Trace) -> Replayed {
        if let Some(at) = self.diverged[lane] {
            return Replayed::Divergent { at };
        }
        let lanes = self.diverged.len();
        Replayed::Output(match trace.plan {
            OutputPlan::Verbatim => trace.outputs.clone(),
            // A single lane owns the whole output column.
            OutputPlan::FromExtracts if lanes == 1 => std::mem::take(&mut self.out),
            OutputPlan::FromExtracts => {
                self.out.iter().skip(lane).step_by(lanes).copied().collect()
            }
        })
    }
}

/// One lane's operands re-rounded into the promoted format, as `e` says.
#[inline(always)]
fn promote(e: Promo, va: f64, vb: f64) -> (f64, f64) {
    (
        if e.san_a { e.fmt.sanitize_f64(va) } else { va },
        if e.san_b { e.fmt.sanitize_f64(vb) } else { vb },
    )
}

/// Pushes `op` over the promoted operand columns `a` and `b`, returning the
/// promotion cell (the caller pushes the result slot).
#[inline(always)]
fn push_bin(
    vals: &mut Vec<f64>,
    vslot: &[u16],
    tables: &Tables,
    op: BinOp,
    a: u32,
    b: u32,
    lanes: usize,
) -> Promo {
    let e = tables.promo(vslot[a as usize], vslot[b as usize]);
    let (abase, bbase) = (a as usize * lanes, b as usize * lanes);
    for l in 0..lanes {
        let (va, vb) = promote(e, vals[abase + l], vals[bbase + l]);
        vals.push(Emulated.bin_op(e.fmt, op, va, vb));
    }
    e
}

/// Pushes the `lanes` values at `vals[base..]` re-rounded through `cs`.
#[inline(always)]
fn push_cast(vals: &mut Vec<f64>, base: usize, lanes: usize, cs: CastSpec) {
    if cs.exact {
        vals.extend_from_within(base..base + lanes);
    } else {
        for l in 0..lanes {
            let v = cs.fmt.sanitize_f64(vals[base + l]);
            vals.push(v);
        }
    }
}

impl Scratch {
    /// Replays the whole tape shared by `traces` under `config`, one lane
    /// per trace; the results are then read with [`SoaState::result`].
    fn replay_lanes<L: Lanes>(&mut self, lanes: L, traces: &[&Trace], config: &TypeConfig) {
        let leader = traces[0];
        self.tables.rebuild(leader, config);
        self.soa.start(leader, lanes.get(), &mut self.spare);
        self.soa.run(lanes, traces, &self.tables, &mut self.spare);
    }
}

impl Trace {
    /// Re-executes the tape under `config` and returns the program outputs
    /// — or [`Replayed::Divergent`] as soon as a recorded comparison
    /// outcome flips: the raw loop with one lane.
    ///
    /// A non-divergent replay is bit-identical to live execution in
    /// outputs. It records no [`TraceCounts`](flexfloat::TraceCounts) and
    /// drives no installed backend. The tuner never replays: this serves
    /// perfbench's `trace.*` layer timings and the equivalence tests.
    #[must_use]
    pub fn replay(&self, config: &TypeConfig) -> Replayed {
        tp_obs::counter_inc("trace.replay_calls");
        with_scratch(|scratch| {
            scratch.replay_lanes(One, &[self], config);
            let result = scratch.soa.result(0, self);
            scratch.retire_arrays();
            result
        })
    }

    /// Replays every trace in `traces` under `config` in one pass over the
    /// shared decoded tape, returning one [`Replayed`] per trace, in
    /// order. Each result is bit-identical to `traces[i].replay(config)` —
    /// including the divergence site when a lane's recorded comparison
    /// flips. Traces must be recordings of the same kernel over different
    /// input sets to batch; anything else transparently falls back to
    /// sequential replay.
    #[must_use]
    pub fn replay_batch(traces: &[&Trace], config: &TypeConfig) -> Vec<Replayed> {
        // One span per batched group: coarse enough to stay within the
        // trace buffer, fine enough that "replay" shows up as a phase's
        // children in the span tree.
        let _span = tp_obs::Span::enter("trace.replay_batch_ns");
        tp_obs::counter_inc("trace.replay_batch_calls");
        let [leader, rest @ ..] = traces else {
            return Vec::new();
        };
        if !rest.iter().all(|t| leader.same_shape(t)) {
            return traces.iter().map(|t| t.replay(config)).collect();
        }
        with_scratch(|scratch| {
            let lanes = traces.len();
            scratch.replay_lanes(lanes, traces, config);
            let results = traces
                .iter()
                .enumerate()
                .map(|(l, t)| scratch.soa.result(l, t))
                .collect();
            scratch.retire_arrays();
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{Fx, FxArray, VarSpec};
    use tp_formats::{BINARY16, BINARY8};

    /// A small straight-line kernel parameterized by its input data.
    fn taped(xs: [f64; 4], w: f64) -> Trace {
        let vars = vec![
            VarSpec::array("x", 4),
            VarSpec::scalar("w"),
            VarSpec::array("out", 4),
        ];
        Trace::record(&vars, move |cfg| {
            let x = FxArray::from_f64s(cfg.format_of("x"), &xs);
            let wv = Fx::new(w, cfg.format_of("w"));
            let mut out = FxArray::zeros(cfg.format_of("out"), 4);
            let mut acc = Fx::new(0.0, cfg.format_of("w"));
            for i in 0..4 {
                let t = (x.get(i) * wv).to(cfg.format_of("out"));
                out.set(i, t);
                acc = acc + x.get(i);
            }
            let mut o = out.to_f64s();
            o.push(acc.sqrt().abs().value());
            o
        })
        .unwrap()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let traces = [
            taped([1.5, 2.0, -0.75, 3.25], 0.3),
            taped([0.1, -0.2, 0.4, 8.0], 1.7),
            taped([9.0, 0.5, 0.25, -4.5], -0.9),
        ];
        let refs: Vec<&Trace> = traces.iter().collect();
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline()
                .with("x", BINARY8)
                .with("w", BINARY16),
            TypeConfig::baseline()
                .with("x", BINARY16)
                .with("out", BINARY8),
        ] {
            let batched = Trace::replay_batch(&refs, &cfg);
            for (t, b) in traces.iter().zip(&batched) {
                assert_eq!(t.replay(&cfg), *b, "{cfg}");
            }
        }
    }

    /// One lane diverges, the others complete: per-lane outcomes (and the
    /// divergence site) must match per-trace sequential replay.
    #[test]
    fn per_lane_divergence_matches_sequential() {
        let branchy = |x0: f64| {
            let vars = vec![VarSpec::array("x", 2)];
            Trace::record(&vars, move |cfg| {
                let x = FxArray::from_f64s(cfg.format_of("x"), &[x0, 1.0 + 4.0 / 1024.0]);
                let (a, b) = (x.get(0), x.get(1));
                let picked = if a.lt(b) { a + b } else { a * b };
                vec![picked.value()]
            })
            .unwrap()
        };
        // All lanes record the same branch (tape shapes must match to
        // batch); lane 1 sits right below the threshold and flips at
        // binary8, lanes 0 and 2 are comfortably below at any precision.
        let traces = [branchy(0.5), branchy(1.0 + 3.0 / 1024.0), branchy(0.25)];
        let refs: Vec<&Trace> = traces.iter().collect();
        assert!(refs[1..].iter().all(|t| refs[0].same_shape(t)));

        let coarse = TypeConfig::baseline().with("x", BINARY8);
        let batched = Trace::replay_batch(&refs, &coarse);
        let sequential: Vec<Replayed> = traces.iter().map(|t| t.replay(&coarse)).collect();
        assert_eq!(batched, sequential);
        assert!(matches!(batched[1], Replayed::Divergent { .. }));
        assert!(matches!(batched[0], Replayed::Output(_)));
        assert!(matches!(batched[2], Replayed::Output(_)));
    }

    /// Same-shape lanes whose recorded branch outcomes differ: each lane
    /// must be checked against its own outcome, not the leader's.
    #[test]
    fn lanes_check_their_own_recorded_outcomes() {
        let taped = |x0: f64| {
            let vars = vec![VarSpec::array("x", 2)];
            Trace::record(&vars, move |cfg| {
                let x = FxArray::from_f64s(cfg.format_of("x"), &[x0, 1.0]);
                vec![f64::from(u8::from(x.get(0).lt(x.get(1))))]
            })
            .unwrap()
        };
        // Lane 0 records `true`, lane 1 `false`, lane 2 `true` but flips
        // at binary8 (1 - 1/1024 rounds to 1.0).
        let traces = [taped(0.5), taped(2.0), taped(1.0 - 1.0 / 1024.0)];
        let refs: Vec<&Trace> = traces.iter().collect();
        assert!(refs[1..].iter().all(|t| refs[0].same_shape(t)));
        for cfg in [
            TypeConfig::baseline(),
            TypeConfig::baseline().with("x", BINARY8),
        ] {
            let sequential: Vec<Replayed> = traces.iter().map(|t| t.replay(&cfg)).collect();
            assert_eq!(Trace::replay_batch(&refs, &cfg), sequential, "{cfg}");
        }
        let coarse = TypeConfig::baseline().with("x", BINARY8);
        let outcomes = Trace::replay_batch(&refs, &coarse);
        assert_eq!(outcomes[1], Replayed::Output(vec![0.0]));
        assert!(matches!(outcomes[2], Replayed::Divergent { .. }));
    }

    #[test]
    fn shape_mismatch_falls_back_to_sequential() {
        let a = taped([1.5, 2.0, -0.75, 3.25], 0.3);
        let vars = vec![VarSpec::scalar("w")];
        let b = Trace::record(&vars, |cfg| {
            let w = Fx::new(0.25, cfg.format_of("w"));
            vec![(w * w).value()]
        })
        .unwrap();
        assert!(!a.same_shape(&b));
        let cfg = TypeConfig::baseline().with("w", BINARY16);
        let batched = Trace::replay_batch(&[&a, &b], &cfg);
        assert_eq!(batched[0], a.replay(&cfg));
        assert_eq!(batched[1], b.replay(&cfg));
    }
}
