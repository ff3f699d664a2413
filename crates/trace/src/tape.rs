//! The tape data model: a compact SSA-style rendering of one recorded run.

use flexfloat::{ArrayId, BinOp, TypeConfig, ValueId};
use tp_formats::FpFormat;

/// A format slot on the tape.
///
/// Formats are stored *symbolically* wherever they came from a tunable
/// variable: replay resolves `Var(i)` through the candidate
/// [`TypeConfig`], which is what lets one tape serve every candidate. A
/// format that did not come from a declared variable (e.g. an explicit
/// `fx32` literal) is pinned as `Fixed` and replays unchanged — exactly
/// what live execution does with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmtRef {
    /// The format of the `i`-th recorded variable (index into
    /// [`Trace::var_names`]).
    Var(u16),
    /// A configuration-independent format, replayed as recorded.
    Fixed(FpFormat),
}

/// One entry of the tape.
///
/// Ops that produce a value are assigned consecutive [`ValueId`]s (1-based)
/// in tape order; likewise array-producing ops and [`ArrayId`]s. Operand
/// ids always refer to earlier entries — the tape is SSA by construction,
/// because ids are handed out at execution time by identity, never inferred
/// from bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeOp {
    /// `Fx::new`/`Fx::zero`: a literal rounded into a variable's format.
    /// `raw` is the pre-rounding value (config-independent by the
    /// recording contract), so replay can re-round it into the candidate
    /// format. Produces a value.
    Leaf {
        /// Destination format slot.
        fmt: FmtRef,
        /// The literal before rounding.
        raw: f64,
    },
    /// `FxArray::from_f64s` (pre-rounding values). Produces an array.
    ArrayNew {
        /// Element format slot.
        fmt: FmtRef,
        /// The initializer before rounding.
        raw: Vec<f64>,
    },
    /// `FxArray::zeros`. Produces an array.
    ArrayZeros {
        /// Element format slot.
        fmt: FmtRef,
        /// Element count.
        len: u32,
    },
    /// `FxArray::clone`: a deep copy of `src`'s state at this point.
    /// Produces an array.
    ArrayDup {
        /// The cloned array.
        src: ArrayId,
    },
    /// `FxArray::get`. Produces a value.
    Load {
        /// Source array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
    },
    /// `FxArray::set` with the *pre-cast* value id (the rounding into the
    /// array's format is re-derived at replay).
    Store {
        /// Destination array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
        /// The stored value (pre-cast).
        v: ValueId,
    },
    /// An explicit `Fx::to`. Produces a value.
    Cast {
        /// The converted value.
        v: ValueId,
        /// Destination format slot.
        dst: FmtRef,
    },
    /// A binary arithmetic op on pre-promotion operands. Produces a value.
    Bin {
        /// Which operation.
        op: BinOp,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// `Fx::sqrt`. Produces a value.
    Sqrt {
        /// The operand.
        v: ValueId,
    },
    /// `Fx::min`/`Fx::max` (RISC-V semantics). Produces a value.
    MinMax {
        /// `true` for `min`.
        is_min: bool,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Sign negation. Produces a value.
    Neg {
        /// The operand.
        v: ValueId,
    },
    /// Absolute value. Produces a value.
    Abs {
        /// The operand.
        v: ValueId,
    },
    /// A quiet comparison and the outcome the recorded run observed — the
    /// anchor of the divergence guard.
    Cmp {
        /// `true` for `<=`, `false` for `<`.
        is_le: bool,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
        /// What the recorded run observed.
        outcome: bool,
    },
    /// `Fx::value` escaping a value as `f64` (an output tap).
    Extract {
        /// The escaping value.
        v: ValueId,
    },
    /// `FxArray::to_f64s` escaping a whole array (an output tap).
    ExtractArray {
        /// The escaping array.
        arr: ArrayId,
    },
    /// `FxArray::peek` escaping one element (an output tap).
    ExtractElement {
        /// The escaping array.
        arr: ArrayId,
        /// Element index.
        idx: u32,
    },
    /// `Recorder::int_ops` — preserved so replay reproduces the recorded
    /// statistics exactly.
    IntOps {
        /// Instruction count.
        n: u64,
    },
    /// A `VectorSection` opened.
    VectorEnter,
    /// A `VectorSection` closed.
    VectorExit,
}

/// How replay reconstructs the program's output vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputPlan {
    /// The recorded extract taps, flattened in tape order, were bitwise
    /// equal to the returned outputs: replay returns the replayed values of
    /// those taps.
    FromExtracts,
    /// No value ever escaped the `Fx` layer (e.g. KNN returns neighbour
    /// *indices*): the outputs are a function of control flow only, so
    /// under a non-divergent replay they equal the recorded outputs
    /// verbatim.
    Verbatim,
}

/// Discriminant of a [`Packed`] tape entry. Binary ops and comparisons get
/// one tag per flavour so the replay loop is a flat jump, not a nested
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Leaf,
    ArrayNew,
    ArrayZeros,
    ArrayDup,
    Load,
    Store,
    Cast,
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    Min,
    Max,
    Neg,
    Abs,
    CmpLt,
    CmpLe,
    /// Fused `Bin` + `Cast`-of-its-result (raw view only; the full tape
    /// keeps the two ops distinct for the observed interpreter). Produces
    /// TWO values — the bin result, then the cast result — preserving the
    /// tape's value numbering.
    AddCast,
    /// See [`Tag::AddCast`].
    SubCast,
    /// See [`Tag::AddCast`].
    MulCast,
    /// See [`Tag::AddCast`].
    DivCast,
    Extract,
    ExtractArray,
    ExtractElement,
    IntOps,
    VectorEnter,
    VectorExit,
}

/// One fixed-width (12-byte) tape entry.
///
/// The tape is the inner loop of every candidate evaluation, so its memory
/// footprint *is* its speed: a whole kernel trace has to stream through
/// cache once per replay. Variable payloads live out of line — literal and
/// initializer `f64`s in [`Trace::pool`], formats interned in
/// [`Trace::fmt_slots`] — and arrays are few enough that an [`ArrayId`]
/// rides in the 16-bit `fmt` field, so every entry is `tag + u16 + two u32
/// operands`. The public [`TapeOp`] enum is the decoded *view* of this
/// ([`Trace::op`]), not the storage.
///
/// Field meaning per tag ([`ValueId`]/[`ArrayId`] operands as named):
///
/// | tag | `fmt` | `a` | `b` |
/// |---|---|---|---|
/// | `Leaf` | slot | pool index of `raw` | — |
/// | `ArrayNew` | slot | pool offset | length |
/// | `ArrayZeros` | slot | length | — |
/// | `ArrayDup` | source array | — | — |
/// | `Load` | array | index | — |
/// | `Store` | array | index | value |
/// | `Cast` | dst slot | value | — |
/// | `Add..Div`, `Min`, `Max` | — | lhs | rhs |
/// | `AddCast..DivCast` (raw view) | dst slot | lhs | rhs |
/// | `Sqrt`, `Neg`, `Abs` | — | value | — |
/// | `CmpLt`/`CmpLe` | outcome (0/1) | lhs | rhs |
/// | `Extract` | — | value | — |
/// | `ExtractArray` | array | — | — |
/// | `ExtractElement` | array | index | — |
/// | `IntOps` | — | count | — |
/// | `VectorEnter`/`Exit` | — | — | — |
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed {
    pub(crate) tag: Tag,
    pub(crate) fmt: u16,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl Packed {
    pub(crate) fn new(tag: Tag) -> Self {
        Packed {
            tag,
            fmt: 0,
            a: 0,
            b: 0,
        }
    }
}

/// A recorded run of a tunable program on one input set, replayable under
/// any candidate [`TypeConfig`].
///
/// Produced by [`Trace::record`]; consumed by [`Trace::replay`]. A `Trace`
/// is plain data (`Send + Sync`), so one trace can be shared by any number
/// of concurrent replays.
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) ops: Vec<Packed>,
    /// The raw interpreter's stripped view of `ops`: statistics-only
    /// entries (`IntOps`, `VectorEnter`/`Exit`) removed and `Cast`s of a
    /// just-produced `Bin` result fused into `AddCast..DivCast` entries.
    /// Scanning fewer entries matters — the tape is memory-bound.
    pub(crate) raw_ops: Vec<Packed>,
    /// Full-tape index of each comparison, in tape order — maps the raw
    /// interpreter's k-th comparison back to a [`Replayed::Divergent`]
    /// address on the full tape.
    pub(crate) cmp_sites: Vec<u32>,
    /// Out-of-line `f64` payloads (leaf literals, array initializers).
    pub(crate) pool: Vec<f64>,
    /// Interned format slots; `Packed::fmt` indexes here. Replay resolves
    /// the whole table against the candidate config once, so the per-op
    /// cost is one array read instead of a config lookup.
    pub(crate) fmt_slots: Vec<FmtRef>,
    pub(crate) n_values: u32,
    pub(crate) n_arrays: u32,
    pub(crate) var_names: Vec<&'static str>,
    pub(crate) recorded_config: TypeConfig,
    pub(crate) plan: OutputPlan,
    pub(crate) outputs: Vec<f64>,
    pub(crate) comparisons: u32,
    /// Structural fingerprint ([`ShapeHash`]) over everything the batched
    /// interpreter needs in common across lanes: the raw op stream
    /// *excluding* recorded comparison outcomes (data-dependent, read
    /// per lane), format slots, variable names, table sizes, pool length
    /// and output plan. Computed once at record time, in the pass that
    /// builds `raw_ops`; see [`Trace::same_shape`].
    pub(crate) struct_hash: u64,
}

/// The word-wise fingerprint behind [`Trace::same_shape`].
///
/// Each raw entry is folded in as two 64-bit words, one per accumulator:
/// `tag | fmt << 8 | a << 32` and `b`. Every fold `h = (h ^ w) * K` is a
/// bijection of `h` (K is odd), so two streams that differ in exactly one
/// field of one entry always end in different fingerprints; the two
/// accumulators keep the multiply chains independent, so the fold costs
/// about one multiply latency per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeHash {
    lo: u64,
    hi: u64,
}

/// The fold multiplier: odd, with well-spread bits.
const SHAPE_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl ShapeHash {
    pub(crate) fn new() -> Self {
        ShapeHash {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x8422_2325_cbf2_9ce4,
        }
    }

    #[inline(always)]
    fn fold(&mut self, lo: u64, hi: u64) {
        self.lo = (self.lo ^ lo).wrapping_mul(SHAPE_K);
        self.hi = (self.hi ^ hi).wrapping_mul(SHAPE_K);
    }

    /// Folds in one finished raw entry.
    #[inline(always)]
    pub(crate) fn entry(&mut self, p: &Packed) {
        // A comparison's `fmt` field holds its *recorded outcome*, which
        // is input-data-dependent; lanes with different outcomes still
        // share the tape structure.
        let fmt = match p.tag {
            Tag::CmpLt | Tag::CmpLe => 0,
            _ => p.fmt,
        };
        let head = u64::from(p.tag as u8) | u64::from(fmt) << 8 | u64::from(p.a) << 32;
        self.fold(head, u64::from(p.b));
    }

    /// Folds in everything but the raw entries and returns the
    /// fingerprint.
    pub(crate) fn finish(mut self, trace: &Trace) -> u64 {
        for slot in &trace.fmt_slots {
            match *slot {
                FmtRef::Var(i) => self.fold(0, u64::from(i)),
                FmtRef::Fixed(fmt) => {
                    self.fold(
                        1,
                        u64::from(fmt.exp_bits()) | u64::from(fmt.man_bits()) << 32,
                    );
                }
            }
        }
        for name in &trace.var_names {
            self.fold(2, name.len() as u64);
            for chunk in name.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                self.fold(3, u64::from_le_bytes(word));
            }
        }
        self.fold(
            u64::from(trace.n_values),
            u64::from(trace.n_arrays) | u64::from(matches!(trace.plan, OutputPlan::Verbatim)) << 32,
        );
        self.fold(trace.pool.len() as u64, trace.outputs.len() as u64);
        // Injective in each accumulator given the other.
        self.lo.wrapping_mul(SHAPE_K) ^ self.hi
    }
}

impl Trace {
    /// `true` when `other` records the *same program shape* as `self`:
    /// identical raw op stream (comparison outcomes aside), format slots,
    /// variable names and table sizes — i.e. the same kernel taped on a
    /// different input set, with possibly different recorded branch
    /// outcomes. Shape-equal traces can ride one batched replay pass
    /// ([`Trace::replay_batch`]); shape-unequal ones fall back to
    /// per-trace replay. Fingerprint-based, so this is O(1).
    #[must_use]
    pub fn same_shape(&self, other: &Trace) -> bool {
        self.struct_hash == other.struct_hash
            && self.raw_ops.len() == other.raw_ops.len()
            && self.pool.len() == other.pool.len()
    }

    /// Number of tape entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the tape has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Decodes tape entry `i` into its public view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn op(&self, i: usize) -> TapeOp {
        let p = self.ops[i];
        let fmt = |slot: u16| self.fmt_slots[usize::from(slot)];
        match p.tag {
            Tag::Leaf => TapeOp::Leaf {
                fmt: fmt(p.fmt),
                raw: self.pool[p.a as usize],
            },
            Tag::ArrayNew => TapeOp::ArrayNew {
                fmt: fmt(p.fmt),
                raw: self.pool[p.a as usize..p.a as usize + p.b as usize].to_vec(),
            },
            Tag::ArrayZeros => TapeOp::ArrayZeros {
                fmt: fmt(p.fmt),
                len: p.a,
            },
            Tag::ArrayDup => TapeOp::ArrayDup {
                src: u32::from(p.fmt),
            },
            Tag::Load => TapeOp::Load {
                arr: u32::from(p.fmt),
                idx: p.a,
            },
            Tag::Store => TapeOp::Store {
                arr: u32::from(p.fmt),
                idx: p.a,
                v: p.b,
            },
            Tag::Cast => TapeOp::Cast {
                v: p.a,
                dst: fmt(p.fmt),
            },
            Tag::Add => TapeOp::Bin {
                op: BinOp::Add,
                a: p.a,
                b: p.b,
            },
            Tag::Sub => TapeOp::Bin {
                op: BinOp::Sub,
                a: p.a,
                b: p.b,
            },
            Tag::Mul => TapeOp::Bin {
                op: BinOp::Mul,
                a: p.a,
                b: p.b,
            },
            Tag::Div => TapeOp::Bin {
                op: BinOp::Div,
                a: p.a,
                b: p.b,
            },
            Tag::Sqrt => TapeOp::Sqrt { v: p.a },
            Tag::Min => TapeOp::MinMax {
                is_min: true,
                a: p.a,
                b: p.b,
            },
            Tag::Max => TapeOp::MinMax {
                is_min: false,
                a: p.a,
                b: p.b,
            },
            Tag::Neg => TapeOp::Neg { v: p.a },
            Tag::Abs => TapeOp::Abs { v: p.a },
            Tag::CmpLt => TapeOp::Cmp {
                is_le: false,
                a: p.a,
                b: p.b,
                outcome: p.fmt != 0,
            },
            Tag::CmpLe => TapeOp::Cmp {
                is_le: true,
                a: p.a,
                b: p.b,
                outcome: p.fmt != 0,
            },
            Tag::AddCast | Tag::SubCast | Tag::MulCast | Tag::DivCast => {
                unreachable!("fused tags only exist on the raw view")
            }
            Tag::Extract => TapeOp::Extract { v: p.a },
            Tag::ExtractArray => TapeOp::ExtractArray {
                arr: u32::from(p.fmt),
            },
            Tag::ExtractElement => TapeOp::ExtractElement {
                arr: u32::from(p.fmt),
                idx: p.a,
            },
            Tag::IntOps => TapeOp::IntOps { n: u64::from(p.a) },
            Tag::VectorEnter => TapeOp::VectorEnter,
            Tag::VectorExit => TapeOp::VectorExit,
        }
    }

    /// Number of recorded comparisons — each one is a potential divergence
    /// point. A trace with zero comparisons replays under *every*
    /// configuration (straight-line kernels like CONV/DWT/JACOBI).
    #[must_use]
    pub fn comparisons(&self) -> u32 {
        self.comparisons
    }

    /// The (injective) configuration the trace was recorded under. Each
    /// variable got a distinct wide format, which is how tape formats are
    /// resolved back to variables; replaying under this exact configuration
    /// reproduces the recorded run bit for bit.
    #[must_use]
    pub fn recorded_config(&self) -> &TypeConfig {
        &self.recorded_config
    }

    /// The names of the recorded variables, in tape [`FmtRef::Var`] index
    /// order.
    #[must_use]
    pub fn var_names(&self) -> &[&'static str] {
        &self.var_names
    }

    /// The outputs the recording run produced (under
    /// [`Trace::recorded_config`]).
    #[must_use]
    pub fn recorded_outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// The decoded tape, for inspection and reporting.
    pub fn ops(&self) -> impl Iterator<Item = TapeOp> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{fx32, Fx, FxArray, Recorder, VarSpec};
    use tp_formats::BINARY16;

    /// [`Trace::struct_hash`] folded afresh over the whole trace.
    fn rehash(trace: &Trace) -> u64 {
        let mut shape = ShapeHash::new();
        for p in &trace.raw_ops {
            shape.entry(p);
        }
        shape.finish(trace)
    }

    fn vars() -> [VarSpec; 3] {
        [
            VarSpec::array("x", 6),
            VarSpec::array("y", 6),
            VarSpec::scalar("acc"),
        ]
    }

    /// Straight-line code whose comparison outcomes depend on the input
    /// set: every entry kind the fingerprint sees, including a fixed
    /// (`fx32`) format slot, fused bin+cast entries and comparisons.
    fn run(cfg: &TypeConfig, set: usize) -> Vec<f64> {
        let acc_fmt = cfg.format_of("acc");
        let xs: Vec<f64> = (0..6).map(|i| (i + 7) as f64 / 4.0 - set as f64).collect();
        let x = FxArray::from_f64s(cfg.format_of("x"), &xs);
        let mut y = FxArray::zeros(cfg.format_of("y"), 6);
        let mut acc = Fx::zero(acc_fmt);
        let half = fx32(0.5);
        for i in 0..6 {
            let v = x.get(i);
            let _ = v.lt(half);
            acc = (acc + v * half).to(acc_fmt);
            y.set(i, -v.abs());
            Recorder::int_ops(1);
        }
        let mut out = y.to_f64s();
        out.push(acc.sqrt().to(BINARY16).value());
        out
    }

    fn record(set: usize) -> Trace {
        Trace::record(&vars(), |cfg| run(cfg, set)).expect("replayable")
    }

    #[test]
    fn one_kernel_on_other_inputs_has_the_same_shape() {
        let traces: Vec<Trace> = (0..3).map(record).collect();
        let outcomes = |t: &Trace| -> Vec<u16> {
            t.cmp_sites.iter().map(|&i| t.ops[i as usize].fmt).collect()
        };
        assert_ne!(
            outcomes(&traces[0]),
            outcomes(&traces[2]),
            "outcomes differ"
        );
        for t in &traces {
            assert_eq!(t.struct_hash, rehash(t), "one-pass fingerprint");
            assert!(t.same_shape(&traces[0]));
        }
    }

    #[test]
    fn every_raw_field_and_format_slot_is_in_the_shape() {
        let trace = record(0);
        assert!(trace.raw_ops.iter().any(|p| p.tag == Tag::AddCast));
        assert!(trace
            .fmt_slots
            .iter()
            .any(|s| matches!(s, FmtRef::Fixed(_))));
        let differs = |edit: &dyn Fn(&mut Trace), what: &str| {
            let mut other = trace.clone();
            edit(&mut other);
            other.struct_hash = rehash(&other);
            assert!(!other.same_shape(&trace), "{what} is not in the shape");
        };
        for i in 0..trace.raw_ops.len() {
            let p = trace.raw_ops[i];
            let tag = if p.tag == Tag::Add {
                Tag::Sub
            } else {
                Tag::Add
            };
            differs(
                &|t| t.raw_ops[i].tag = tag,
                &format!("tag of raw entry {i}"),
            );
            if !matches!(p.tag, Tag::CmpLt | Tag::CmpLe) {
                differs(
                    &|t| t.raw_ops[i].fmt ^= 1,
                    &format!("slot of raw entry {i}"),
                );
            }
            differs(&|t| t.raw_ops[i].a ^= 1, &format!("a of raw entry {i}"));
            differs(&|t| t.raw_ops[i].b ^= 1, &format!("b of raw entry {i}"));
        }
        for i in 0..trace.fmt_slots.len() {
            let other = match trace.fmt_slots[i] {
                FmtRef::Var(v) => FmtRef::Var(v ^ 1),
                FmtRef::Fixed(_) => FmtRef::Fixed(tp_formats::BINARY8),
            };
            differs(&|t| t.fmt_slots[i] = other, &format!("format slot {i}"));
        }
        // A recorded comparison outcome is data, not shape.
        let site = trace
            .raw_ops
            .iter()
            .position(|p| matches!(p.tag, Tag::CmpLt | Tag::CmpLe))
            .expect("comparisons recorded");
        let mut flipped = trace.clone();
        flipped.raw_ops[site].fmt ^= 1;
        flipped.struct_hash = rehash(&flipped);
        assert!(flipped.same_shape(&trace));
    }
}
