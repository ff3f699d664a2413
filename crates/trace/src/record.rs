//! The recording backend and [`Trace::record`].

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use flexfloat::backend::Emulated;
use flexfloat::{
    ArrayId, BinOp, Engine, FpBackend, Recorder, TapeSink, TypeConfig, ValueId, VarSpec,
};
use tp_formats::{FpFormat, BINARY32};

use crate::tape::{FmtRef, OutputPlan, Packed, ShapeHash, Tag, Trace};

/// Why a run could not be captured as a replayable trace.
///
/// None of these are errors in the *program* — they mark runs outside the
/// recording contract (DESIGN.md §7), for which the caller simply keeps
/// evaluating live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// More tunable variables than distinguishing formats: the recording
    /// configuration could not give every variable a unique format.
    TooManyVariables {
        /// Declared variable count.
        vars: usize,
        /// Available distinguishing formats.
        max: usize,
    },
    /// The op stream referenced a value or array created while the
    /// recorder was not installed (or otherwise outside the contract), so
    /// dataflow identity is unknown.
    Unreplayable(&'static str),
    /// Values escaped the `Fx` layer, but the escape taps do not line up
    /// with the returned outputs (reordered, transformed or partial), so
    /// replay could not reconstruct the output vector.
    OutputsNotReplayable,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TooManyVariables { vars, max } => {
                write!(
                    f,
                    "{vars} tunable variables, only {max} distinguishing formats"
                )
            }
            RecordError::Unreplayable(reason) => write!(f, "unreplayable op stream: {reason}"),
            RecordError::OutputsNotReplayable => {
                f.write_str("escape taps do not reconstruct the output vector")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// The distinguishing-format pool for recording configurations.
///
/// Requirements: distinct per variable (so a tape format resolves to
/// exactly one variable), at least binary32 precision and range (so the
/// recorded control flow matches the reference semantics as closely as
/// possible), and disjoint from every format a program would name
/// explicitly (the four platform formats all have `m <= 23`). The first
/// eight have `2m + 2 <= 52`, keeping the recording run on the native-f64
/// fast path; the tail (only reached by programs with more than eight
/// variables) is correct but slower.
fn format_pool() -> impl Iterator<Item = FpFormat> {
    let fast = [24u32, 25]
        .into_iter()
        .flat_map(|m| (8u32..=11).map(move |e| (e, m)));
    let wide = (26u32..=52).map(|m| (11u32, m));
    fast.chain(wide)
        .map(|(e, m)| FpFormat::new(e, m).expect("pool widths are valid"))
}

struct RecState {
    /// The tape, lowered as entries arrive (see [`RecState::push`]).
    ops: Vec<Packed>,
    /// Comparisons recorded so far.
    comparisons: u32,
    /// Fingerprint of `ops` minus its last entry, which a `Cast` may still
    /// fuse into.
    shape: ShapeHash,
    pool: Vec<f64>,
    fmt_slots: Vec<FmtRef>,
    /// The format each entry of `fmt_slots` interns. Kernels intern a
    /// handful of formats, so [`RecState::slot`] finds one by scanning.
    slot_fmts: Vec<FpFormat>,
    /// One-entry cache in front of the `slot_fmts` scan: the lookups
    /// cluster (every accumulator round-off names the same format).
    last_slot: (FpFormat, u16),
    next_value: ValueId,
    next_array: ArrayId,
    /// Every value that escaped the `Fx` layer, flattened in tape order —
    /// compared against the returned outputs to derive the output plan.
    extracted: Vec<f64>,
    poisoned: Option<&'static str>,
    /// The recording-config format of each variable, in variable order
    /// (injective by construction).
    var_fmts: Vec<FpFormat>,
}

impl RecState {
    /// Interns `fmt` as a tape format slot: a `Var` reference when it is a
    /// recording-config format, `Fixed` otherwise.
    #[inline]
    fn slot(&mut self, fmt: FpFormat) -> u16 {
        if self.last_slot.0 == fmt {
            return self.last_slot.1;
        }
        self.intern(fmt)
    }

    fn intern(&mut self, fmt: FpFormat) -> u16 {
        let i = match self.slot_fmts.iter().position(|&f| f == fmt) {
            Some(i) => i,
            None => {
                let slot = match self.var_fmts.iter().position(|&f| f == fmt) {
                    Some(v) => FmtRef::Var(u16::try_from(v).expect("pool is small")),
                    None => FmtRef::Fixed(fmt),
                };
                self.fmt_slots.push(slot);
                self.slot_fmts.push(fmt);
                self.fmt_slots.len() - 1
            }
        };
        // `FpFormat::new` admits at most 11 x 52 formats.
        let i = u16::try_from(i).expect("fewer than 65536 formats exist");
        self.last_slot = (fmt, i);
        i
    }

    /// Appends `raw` to the payload pool, returning its offset.
    fn pooled(&mut self, raw: &[f64]) -> u32 {
        let off = u32::try_from(self.pool.len()).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("payload pool exceeds u32");
            0
        });
        self.pool.extend_from_slice(raw);
        off
    }

    /// Validates an operand id: `0` (created outside the recorder) or a
    /// forward reference poisons the trace. The op stream keeps flowing —
    /// recording is an observer and must not disturb the run — but the
    /// finished trace is rejected.
    fn operand(&mut self, v: ValueId) -> ValueId {
        if v == 0 || v >= self.next_value {
            self.poisoned
                .get_or_insert("operand value created outside the recording");
        }
        v
    }

    /// Validates an array operand and narrows it to the 16-bit field it
    /// occupies in a [`Packed`] entry.
    fn array_operand(&mut self, a: ArrayId) -> u16 {
        if a == 0 || a >= self.next_array {
            self.poisoned
                .get_or_insert("array created outside the recording");
        }
        u16::try_from(a).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("more than 65535 arrays");
            0
        })
    }

    fn index(&mut self, i: usize) -> u32 {
        u32::try_from(i).unwrap_or_else(|_| {
            self.poisoned.get_or_insert("array index exceeds u32");
            0
        })
    }

    /// Appends `op` to the tape: a `Cast` of the value the last entry
    /// produced is fused into that entry when it is a plain `Bin` — the
    /// dominant accumulate-then-round idiom (`(acc + x*w).to(acc_fmt)`)
    /// then costs one entry less. Each entry is folded into the shape
    /// fingerprint once the next one arrives and it can no longer change.
    #[inline(always)]
    fn push(&mut self, op: Packed) {
        match op.tag {
            Tag::CmpLt | Tag::CmpLe => self.comparisons += 1,
            // `next_value` is the id this cast produces, so its operand is
            // the value produced last.
            Tag::Cast if op.a + 1 == self.next_value => {
                if let Some(last) = self.ops.last_mut() {
                    let fused = match last.tag {
                        Tag::Add => Some(Tag::AddCast),
                        Tag::Sub => Some(Tag::SubCast),
                        Tag::Mul => Some(Tag::MulCast),
                        Tag::Div => Some(Tag::DivCast),
                        _ => None,
                    };
                    if let Some(tag) = fused {
                        last.tag = tag;
                        last.fmt = op.fmt;
                        return;
                    }
                }
            }
            _ => {}
        }
        if let Some(last) = self.ops.last() {
            self.shape.entry(last);
        }
        self.ops.push(op);
    }

    #[inline(always)]
    fn push_value(&mut self, op: Packed) -> ValueId {
        self.push(op);
        let id = self.next_value;
        self.next_value += 1;
        id
    }

    #[inline(always)]
    fn push_array(&mut self, op: Packed) -> ArrayId {
        self.push(op);
        let id = self.next_array;
        self.next_array += 1;
        id
    }
}

/// The recording backend: a [native](FpBackend::is_native) [`FpBackend`]
/// that captures the logical op stream (via the [`TapeSink`] hook surface)
/// into a tape. Ops compute on their native helpers and reach the recorder
/// only for its tape, so its compute methods (the [`Emulated`] arithmetic)
/// are never called by `Fx` ops.
///
/// Install it with [`Engine::with`] — [`Trace::record`] does exactly that,
/// in place of whatever backend the calling thread has installed, so a
/// recording computes on the native datapath under any `TP_BACKEND` and
/// the tape is datapath-independent by construction.
///
/// The tape under construction lives in a thread-local slot, not behind a
/// lock: recording is a per-op hot path (one event per FP operation of the
/// recorded run), and an uncontended mutex acquisition per event was the
/// single largest recording cost. The recorded region must therefore stay
/// on the recording thread — an event arriving on any other thread finds
/// no state, flags the recorder, and the finished trace is rejected
/// rather than silently incomplete.
#[derive(Debug)]
pub struct TraceRecorder {
    foreign_ops: AtomicBool,
}

thread_local! {
    /// The [`RecState`] of the recording in progress on this thread.
    static TAPE: RefCell<Option<RecState>> = const { RefCell::new(None) };
}

/// The tape length of the latest recording of each recent program, keyed
/// by its declared variables (names and element counts, which tell
/// kernels and their sizes apart). A recording starts with that much room
/// instead of growing its tape by doubling, which copies it and touches
/// fresh pages at every step. The table is process-wide, so it serves
/// every worker thread: a tuner records one program on several input
/// sets, and a service records the same programs job after job. The
/// length is only a capacity guess; a wrong one costs a regrowth or a
/// shrink, never a different tape.
static TAPE_LENS: Mutex<Vec<(Vec<VarSpec>, usize)>> = Mutex::new(Vec::new());

/// Programs [`TAPE_LENS`] remembers; the oldest is forgotten first.
const TAPE_LENS_CAP: usize = 64;

/// The tape length to reserve for a recording of the program declaring
/// `vars`.
fn tape_len(vars: &[VarSpec]) -> usize {
    let lens = TAPE_LENS.lock().unwrap_or_else(PoisonError::into_inner);
    lens.iter()
        .find(|(key, _)| key.as_slice() == vars)
        .map_or(1024, |&(_, len)| len)
}

fn remember_tape_len(vars: &[VarSpec], len: usize) {
    let mut lens = TAPE_LENS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(entry) = lens.iter_mut().find(|(key, _)| key.as_slice() == vars) {
        entry.1 = len;
        return;
    }
    if lens.len() == TAPE_LENS_CAP {
        lens.remove(0);
    }
    lens.push((vars.to_vec(), len));
}

impl TraceRecorder {
    fn with_state<R: Default>(&self, f: impl FnOnce(&mut RecState) -> R) -> R {
        TAPE.with(|t| match &mut *t.borrow_mut() {
            Some(state) => f(state),
            None => {
                // The traced region fanned out (or outlived its recording):
                // this event cannot be placed on the tape, so the whole
                // trace is void.
                self.foreign_ops.store(true, Ordering::Relaxed);
                R::default()
            }
        })
    }
}

impl FpBackend for TraceRecorder {
    fn name(&self) -> &'static str {
        "trace-recorder"
    }

    fn bin_op(&self, fmt: FpFormat, op: BinOp, a: f64, b: f64) -> f64 {
        Emulated.bin_op(fmt, op, a, b)
    }

    fn sqrt(&self, fmt: FpFormat, x: f64) -> f64 {
        Emulated.sqrt(fmt, x)
    }

    fn fma(&self, fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
        Emulated.fma(fmt, a, b, c)
    }

    fn cast(&self, from: FpFormat, to: FpFormat, x: f64) -> f64 {
        Emulated.cast(from, to, x)
    }

    fn min(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        Emulated.min(fmt, a, b)
    }

    fn max(&self, fmt: FpFormat, a: f64, b: f64) -> f64 {
        Emulated.max(fmt, a, b)
    }

    fn lt(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        Emulated.lt(fmt, a, b)
    }

    fn le(&self, fmt: FpFormat, a: f64, b: f64) -> bool {
        Emulated.le(fmt, a, b)
    }

    fn is_native(&self) -> bool {
        true
    }

    fn tape(self: Arc<Self>) -> Option<Arc<dyn TapeSink>> {
        Some(self)
    }
}

impl TapeSink for TraceRecorder {
    fn leaf(&self, fmt: FpFormat, raw: f64) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Leaf);
            op.fmt = s.slot(fmt);
            op.a = s.pooled(&[raw]);
            s.push_value(op)
        })
    }

    fn array_new(&self, fmt: FpFormat, raw: &[f64]) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayNew);
            op.fmt = s.slot(fmt);
            op.a = s.pooled(raw);
            op.b = s.index(raw.len());
            s.push_array(op)
        })
    }

    fn array_zeros(&self, fmt: FpFormat, len: usize) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayZeros);
            op.fmt = s.slot(fmt);
            op.a = s.index(len);
            s.push_array(op)
        })
    }

    fn array_clone(&self, array: ArrayId) -> ArrayId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ArrayDup);
            op.fmt = s.array_operand(array);
            s.push_array(op)
        })
    }

    fn array_load(&self, array: ArrayId, index: usize) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Load);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            s.push_value(op)
        })
    }

    fn array_store(&self, array: ArrayId, index: usize, v: ValueId) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Store);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            op.b = s.operand(v);
            s.push(op);
        });
    }

    fn cast(&self, v: ValueId, dst: FpFormat) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Cast);
            op.a = s.operand(v);
            op.fmt = s.slot(dst);
            s.push_value(op)
        })
    }

    fn bin_op(&self, bin: BinOp, a: ValueId, b: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(match bin {
                BinOp::Add => Tag::Add,
                BinOp::Sub => Tag::Sub,
                BinOp::Mul => Tag::Mul,
                BinOp::Div => Tag::Div,
            });
            op.a = s.operand(a);
            op.b = s.operand(b);
            s.push_value(op)
        })
    }

    fn sqrt(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Sqrt);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn min_max(&self, is_min: bool, a: ValueId, b: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(if is_min { Tag::Min } else { Tag::Max });
            op.a = s.operand(a);
            op.b = s.operand(b);
            s.push_value(op)
        })
    }

    fn neg(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Neg);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn abs(&self, v: ValueId) -> ValueId {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Abs);
            op.a = s.operand(v);
            s.push_value(op)
        })
    }

    fn cmp(&self, is_le: bool, a: ValueId, b: ValueId, outcome: bool) {
        self.with_state(|s| {
            let mut op = Packed::new(if is_le { Tag::CmpLe } else { Tag::CmpLt });
            op.a = s.operand(a);
            op.b = s.operand(b);
            op.fmt = u16::from(outcome);
            s.push(op);
        });
    }

    fn extract(&self, v: ValueId, val: f64) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::Extract);
            op.a = s.operand(v);
            s.extracted.push(val);
            s.push(op);
        });
    }

    fn extract_array(&self, array: ArrayId, values: &[f64]) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ExtractArray);
            op.fmt = s.array_operand(array);
            s.extracted.extend_from_slice(values);
            s.push(op);
        });
    }

    fn extract_element(&self, array: ArrayId, index: usize, val: f64) {
        self.with_state(|s| {
            let mut op = Packed::new(Tag::ExtractElement);
            op.fmt = s.array_operand(array);
            op.a = s.index(index);
            s.extracted.push(val);
            s.push(op);
        });
    }
}

impl Trace {
    /// Records one run of a tunable program as a replayable tape.
    ///
    /// `vars` are the program's declared variables; `run` is the program
    /// body, invoked exactly once with the *recording configuration* — an
    /// injective assignment of distinguishing wide formats (≥ binary32
    /// precision and range) to the declared variables, which is how tape
    /// formats resolve back to variables.
    ///
    /// The run executes on the native datapath, with the recorder installed
    /// in place of the thread's backend: a tape holds the same entries
    /// whatever the datapath (`recording_is_datapath_independent` in
    /// `tests/backends.rs` pins this). If a
    /// [`Recorder`](flexfloat::Recorder) is running on this thread, the
    /// recording run is isolated in a scope and its counts are
    /// **discarded**: recording is tuning bookkeeping, not program workload.
    ///
    /// # Errors
    ///
    /// Returns a [`RecordError`] when the run is outside the recording
    /// contract (DESIGN.md §7): more variables than distinguishing formats,
    /// values flowing in from outside the recorded region, or escaped
    /// values that do not reconstruct the output vector. Callers treat any
    /// error as "keep evaluating live".
    pub fn record(
        vars: &[VarSpec],
        run: impl FnOnce(&TypeConfig) -> Vec<f64>,
    ) -> Result<Trace, RecordError> {
        tp_obs::counter_inc("trace.recordings");
        let pool_len = format_pool().count();
        if vars.len() > pool_len {
            return Err(RecordError::TooManyVariables {
                vars: vars.len(),
                max: pool_len,
            });
        }
        let mut config = TypeConfig::baseline();
        let mut var_fmts = Vec::with_capacity(vars.len());
        let mut var_names = Vec::with_capacity(vars.len());
        for (spec, fmt) in vars.iter().zip(format_pool()) {
            config.set(spec.name, fmt);
            var_fmts.push(fmt);
            var_names.push(spec.name);
        }

        // Install the builder state into this thread's tape slot for the
        // duration of the run (saving any enclosing recording; restored
        // also on panic via the guard below).
        struct TapeSlot(Option<RecState>);
        impl TapeSlot {
            fn take(mut self) -> RecState {
                let saved = self.0.take();
                TAPE.with(|t| std::mem::replace(&mut *t.borrow_mut(), saved))
                    .expect("recording state present until taken")
            }
        }
        impl Drop for TapeSlot {
            fn drop(&mut self) {
                if let Some(saved) = self.0.take() {
                    // Unwound mid-run: drop our half-built state, restore.
                    TAPE.with(|t| *t.borrow_mut() = Some(saved));
                } else if std::thread::panicking() {
                    TAPE.with(|t| *t.borrow_mut() = None);
                }
            }
        }
        // Slot 0 is always BINARY32, which lets the one-entry slot cache
        // start valid: `(BINARY32, 0)` is a true mapping from the first op.
        let state = RecState {
            ops: Vec::with_capacity(tape_len(vars)),
            comparisons: 0,
            shape: ShapeHash::new(),
            pool: Vec::new(),
            fmt_slots: vec![FmtRef::Fixed(BINARY32)],
            slot_fmts: vec![BINARY32],
            last_slot: (BINARY32, 0),
            next_value: 1,
            next_array: 1,
            extracted: Vec::new(),
            poisoned: None,
            var_fmts,
        };
        debug_assert!(!state.var_fmts.contains(&BINARY32), "pool is wide");
        let saved = TAPE.with(|t| t.borrow_mut().replace(state));
        let slot = TapeSlot(saved);

        let recorder = Arc::new(TraceRecorder {
            foreign_ops: AtomicBool::new(false),
        });
        let recorded = {
            let (recorder, config) = (recorder.clone(), config.clone());
            move || Engine::with(recorder, || run(&config))
        };
        let outputs = if Recorder::is_enabled() {
            // Isolate and drop the recording run's counts (see above).
            Recorder::scoped(recorded).0
        } else {
            recorded()
        };

        let mut state = slot.take();
        remember_tape_len(vars, state.ops.len());
        // A tape that outgrew or undershot its reservation hands back the
        // spare room rather than keep it for as long as the trace lives (a
        // tuner's replay context holds one per input set).
        state.ops.shrink_to_fit();
        if recorder.foreign_ops.load(Ordering::Relaxed) {
            return Err(RecordError::Unreplayable(
                "traced region ran operations off the recording thread",
            ));
        }
        if let Some(reason) = state.poisoned {
            return Err(RecordError::Unreplayable(reason));
        }
        let same_bits = state.extracted.len() == outputs.len()
            && state
                .extracted
                .iter()
                .zip(&outputs)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        let plan = if same_bits {
            OutputPlan::FromExtracts
        } else if state.extracted.is_empty() {
            OutputPlan::Verbatim
        } else {
            return Err(RecordError::OutputsNotReplayable);
        };

        let mut shape = state.shape;
        if let Some(last) = state.ops.last() {
            shape.entry(last);
        }
        let mut trace = Trace {
            comparisons: state.comparisons,
            ops: state.ops,
            pool: state.pool,
            fmt_slots: state.fmt_slots,
            n_values: state.next_value - 1,
            n_arrays: state.next_array - 1,
            var_names,
            recorded_config: config,
            plan,
            outputs,
            struct_hash: 0,
        };
        trace.struct_hash = shape.finish(&trace);
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program key no other test records: the element count tells them
    /// apart.
    fn program(elements: usize) -> Vec<VarSpec> {
        vec![VarSpec {
            name: "tape_lens_probe",
            elements,
        }]
    }

    #[test]
    fn tape_lens_remember_each_program_and_forget_the_oldest() {
        let base = 1 << 40;
        assert_eq!(tape_len(&program(base)), 1024, "unknown program");
        remember_tape_len(&program(base), 7);
        assert_eq!(tape_len(&program(base)), 7);
        remember_tape_len(&program(base), 9);
        assert_eq!(tape_len(&program(base)), 9, "latest recording wins");
        for i in 1..=TAPE_LENS_CAP {
            remember_tape_len(&program(base + i), i);
        }
        assert_eq!(tape_len(&program(base)), 1024, "oldest forgotten");
        assert_eq!(tape_len(&program(base + TAPE_LENS_CAP)), TAPE_LENS_CAP);
        assert!(TAPE_LENS.lock().unwrap().len() <= TAPE_LENS_CAP);
    }
}
