//! Operation statistics and trace accounting.
//!
//! The C++ FlexFloat library collects, per instantiated format, the number
//! of operations and casts a program performs, with a separate report for
//! manually-tagged *vectorizable* sections (Section III-B, step 4 of the
//! paper). This module reproduces that machinery: a thread-local
//! [`Recorder`] accumulates [`TraceCounts`] while instrumented code
//! (`FlexFloat`, [`Fx`](crate::Fx), [`FxArray`](crate::FxArray)) executes.
//!
//! The counts are exactly the quantities the PULPino-like platform model
//! (`tp-platform`) needs to reproduce Figures 5–7: FP operations per format
//! split into scalar/vector, the cast matrix, memory traffic by element
//! width, integer/control overhead and the number of *dependent issue
//! pairs* (an FP result consumed by the immediately following instruction,
//! which costs a pipeline bubble on 2-cycle FP operations).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

use tp_formats::FpFormat;

/// Kinds of floating-point operations the platform distinguishes.
///
/// `Ord` follows declaration order; serializers rely on it for a
/// deterministic rendering of count maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Addition or subtraction (one hardware block in the FPU slices).
    AddSub,
    /// Multiplication.
    Mul,
    /// Division (iterative in hardware; emulated on PULPino).
    Div,
    /// Square root.
    Sqrt,
    /// Fused multiply-add.
    Fma,
    /// Comparison / min / max.
    Cmp,
}

impl OpKind {
    /// All kinds, for report iteration.
    pub const ALL: [OpKind; 6] = [
        OpKind::AddSub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Sqrt,
        OpKind::Fma,
        OpKind::Cmp,
    ];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::AddSub => "add/sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Sqrt => "sqrt",
            OpKind::Fma => "fma",
            OpKind::Cmp => "cmp",
        };
        f.write_str(s)
    }
}

/// A scalar/vector pair of counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Events outside vectorizable sections.
    pub scalar: u64,
    /// Events inside manually-tagged vectorizable sections.
    pub vector: u64,
}

impl OpCounts {
    /// Total events.
    #[must_use]
    pub fn total(self) -> u64 {
        self.scalar + self.vector
    }

    fn bump(&mut self, vector: bool) {
        if vector {
            self.vector += 1;
        } else {
            self.scalar += 1;
        }
    }

    fn merge(&mut self, other: OpCounts) {
        self.scalar += other.scalar;
        self.vector += other.vector;
    }
}

/// Aggregated execution statistics of an instrumented region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Arithmetic/comparison operations, by (format, kind).
    pub ops: HashMap<(FpFormat, OpKind), OpCounts>,
    /// Format conversions, by (source, destination).
    pub casts: HashMap<(FpFormat, FpFormat), OpCounts>,
    /// Loads of FP data, by element width in bits.
    pub loads: HashMap<u32, OpCounts>,
    /// Stores of FP data, by element width in bits.
    pub stores: HashMap<u32, OpCounts>,
    /// Integer / control / address instructions (the paper's "other ops").
    pub int_ops: u64,
    /// FP operations whose result is consumed by the *immediately following*
    /// recorded instruction, keyed by the producer's format and split into
    /// scalar/vector occurrences. On the paper's core, 32-bit and 16-bit FP
    /// operations have a 2-cycle latency, so each such pair costs one
    /// pipeline bubble unless the producer is 1-cycle (vector occurrences
    /// are per element; the cycle model divides by the lane count).
    pub dependent_pairs: HashMap<FpFormat, OpCounts>,
}

impl TraceCounts {
    /// Creates an empty set of counts.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total FP arithmetic operations (all formats, scalar + vector),
    /// casts excluded.
    #[must_use]
    pub fn total_fp_ops(&self) -> u64 {
        self.ops.values().map(|c| c.total()).sum()
    }

    /// Total cast operations.
    #[must_use]
    pub fn total_casts(&self) -> u64 {
        self.casts.values().map(|c| c.total()).sum()
    }

    /// Total FP memory accesses (loads + stores, before SIMD packing).
    #[must_use]
    pub fn total_mem_accesses(&self) -> u64 {
        self.loads
            .values()
            .chain(self.stores.values())
            .map(|c| c.total())
            .sum()
    }

    /// FP operations executed in `fmt` (scalar + vector).
    #[must_use]
    pub fn fp_ops_in(&self, fmt: FpFormat) -> u64 {
        self.ops
            .iter()
            .filter(|((f, _), _)| *f == fmt)
            .map(|(_, c)| c.total())
            .sum()
    }

    /// Share of FP operations executed in formats narrower than 32 bits.
    ///
    /// This is the paper's headline "up to 90 % of FP operations can be
    /// scaled down to 8-bit or 16-bit formats" metric.
    #[must_use]
    pub fn small_format_op_share(&self) -> f64 {
        let total = self.total_fp_ops();
        if total == 0 {
            return 0.0;
        }
        let small: u64 = self
            .ops
            .iter()
            .filter(|((f, _), _)| f.total_bits() < 32)
            .map(|(_, c)| c.total())
            .sum();
        small as f64 / total as f64
    }

    /// Accumulates `other` into `self`.
    ///
    /// Merging is commutative and associative, so per-worker counts
    /// collected with [`Recorder::scoped`] can be combined in any order
    /// and still equal the counts a single-threaded run would have
    /// produced (dependent-pair adjacency aside, which is per-thread by
    /// construction).
    pub fn merge(&mut self, other: &TraceCounts) {
        for (k, v) in &other.ops {
            self.ops.entry(*k).or_default().merge(*v);
        }
        for (k, v) in &other.casts {
            self.casts.entry(*k).or_default().merge(*v);
        }
        for (k, v) in &other.loads {
            self.loads.entry(*k).or_default().merge(*v);
        }
        for (k, v) in &other.stores {
            self.stores.entry(*k).or_default().merge(*v);
        }
        self.int_ops += other.int_ops;
        for (k, v) in &other.dependent_pairs {
            self.dependent_pairs.entry(*k).or_default().merge(*v);
        }
    }
}

impl std::ops::Add for TraceCounts {
    type Output = TraceCounts;
    fn add(mut self, rhs: TraceCounts) -> TraceCounts {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for TraceCounts {
    fn add_assign(&mut self, rhs: TraceCounts) {
        self.merge(&rhs);
    }
}

impl std::ops::AddAssign<&TraceCounts> for TraceCounts {
    fn add_assign(&mut self, rhs: &TraceCounts) {
        self.merge(rhs);
    }
}

impl std::iter::Sum for TraceCounts {
    fn sum<I: Iterator<Item = TraceCounts>>(iter: I) -> TraceCounts {
        iter.fold(TraceCounts::new(), |acc, c| acc + c)
    }
}

/// Identifier of a recorded instruction, used to detect back-to-back
/// producer/consumer pairs. `0` means "no producer".
pub type EventId = u64;

#[derive(Debug, Default)]
struct RecorderState {
    counts: TraceCounts,
    /// Monotone instruction counter (1-based; 0 = none).
    next_id: EventId,
    /// Format of the most recent *FP arithmetic* instruction, if it was the
    /// most recent instruction overall.
    last_fp: Option<(EventId, FpFormat)>,
    vector_depth: u32,
}

thread_local! {
    /// Whether recording is on — a `const`, destructor-free `Cell` kept
    /// apart from the lazily-initialised `RECORDER` state, so the check
    /// guarding every op is a single thread-local load. `start`, `stop`,
    /// `scoped` (and its panic restore) keep it in sync.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<RecorderState> = RefCell::new(RecorderState::default());
}

/// Handle for the thread-local statistics recorder.
///
/// Recording is off by default. While it is off and the thread's datapath
/// is native (no backend, or [`Emulated`](crate::backend::Emulated)),
/// `Fx`/`FxArray`/`FlexFloat` ops take their inlined fast path, guarded by
/// two `const` thread-local loads: this recorder's flag and the backend
/// state. An enabled recorder sends every op to its outlined hooked path,
/// which emits the events below (DESIGN.md §6, "Dispatch cost").
///
/// # Interaction with a recording trace backend
///
/// The `Recorder` (statistics) and a tape-recording backend (the
/// `tp-trace` subsystem, plugged in through
/// [`TapeSink`](crate::backend::TapeSink)) are independent observers of
/// the same op stream, and the contract between them is that **every
/// operation is counted exactly once**:
///
/// * while a trace is being *recorded*, the trace layer isolates the
///   recording run in a [`Recorder::scoped`] scope and discards its
///   counts — the recording run is tuning bookkeeping, not workload;
/// * a trace *replay* emits no `Recorder` events at all, so replay runs
///   only where nothing observes: the tuner evaluates every candidate
///   live while a `Recorder` is running on its thread (DESIGN.md §7).
#[derive(Debug, Clone, Copy)]
pub struct Recorder;

impl Recorder {
    /// Enables recording and clears any previously-collected counts.
    pub fn start() {
        RECORDER.with(|r| *r.borrow_mut() = RecorderState::default());
        ENABLED.with(|e| e.set(true));
    }

    /// Stops recording and returns the collected counts.
    #[must_use]
    pub fn stop() -> TraceCounts {
        ENABLED.with(|e| e.set(false));
        RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().counts))
    }

    /// Runs `f` with recording enabled and returns its result together with
    /// the counts collected during the call.
    ///
    /// This clobbers any recording already in progress on the thread; use
    /// [`Recorder::scoped`] when the call must compose with an enclosing
    /// recording or run on a worker thread.
    pub fn record<T>(f: impl FnOnce() -> T) -> (T, TraceCounts) {
        Recorder::start();
        let out = f();
        (out, Recorder::stop())
    }

    /// Runs `f` in an isolated recording scope and returns its result
    /// together with the counts collected during the call.
    ///
    /// Unlike [`Recorder::record`], the thread's previous recorder state is
    /// saved first and restored afterwards (also on panic), so scopes nest:
    /// an enclosing recording continues unharmed, merely blind to the ops of
    /// the inner scope. The returned [`TraceCounts`] is plain data (`Send`),
    /// which is what makes recording work across threads — each worker
    /// wraps its slice of the work in `scoped`, ships the counts back, and
    /// the driver combines them with `+`/[`TraceCounts::merge`] (or feeds
    /// them to an enclosing recording via [`Recorder::absorb`]).
    ///
    /// ```
    /// use flexfloat::{Recorder, TraceCounts};
    ///
    /// let counts: TraceCounts = std::thread::scope(|s| {
    ///     let handles: Vec<_> = (0..4)
    ///         .map(|_| s.spawn(|| Recorder::scoped(|| { /* instrumented work */ }).1))
    ///         .collect();
    ///     handles.into_iter().map(|h| h.join().unwrap()).sum()
    /// });
    /// # let _ = counts;
    /// ```
    pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, TraceCounts) {
        /// Restores the saved recorder state when dropped, so a panicking
        /// scope cannot leave the thread recording into the wrong counts.
        struct Restore(bool, Option<RecorderState>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(saved) = self.1.take() {
                    RECORDER.with(|r| *r.borrow_mut() = saved);
                }
                ENABLED.with(|e| e.set(self.0));
            }
        }

        let saved = RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()));
        let restore = Restore(ENABLED.with(|e| e.replace(true)), Some(saved));
        let out = f();
        let counts = RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().counts));
        drop(restore);
        (out, counts)
    }

    /// Merges counts collected elsewhere — typically a worker thread's
    /// [`Recorder::scoped`] result — into this thread's recording, as if the
    /// operations had executed here. No-op while recording is disabled.
    ///
    /// The last-FP tracker is cleared: instruction adjacency has no meaning
    /// across a merge point, so a merged batch never forms a dependent pair
    /// with the surrounding instruction stream.
    pub fn absorb(counts: &TraceCounts) {
        if !Recorder::is_enabled() {
            return;
        }
        RECORDER.with(|r| {
            let mut s = r.borrow_mut();
            s.counts.merge(counts);
            s.last_fp = None;
        });
    }

    /// `true` while recording is enabled on this thread.
    #[inline(always)]
    #[must_use]
    pub fn is_enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// Records an FP arithmetic operation in `fmt` whose operands were
    /// produced by instructions `dep_a` and `dep_b` (0 = constant/none).
    /// Returns the id of the new instruction, to be attached to its result.
    pub fn fp_op(fmt: FpFormat, kind: OpKind, dep_a: EventId, dep_b: EventId) -> EventId {
        if !Recorder::is_enabled() {
            return 0;
        }
        RECORDER.with(|r| {
            let mut s = r.borrow_mut();
            s.next_id += 1;
            let id = s.next_id;
            let vector = s.vector_depth > 0;
            s.counts.ops.entry((fmt, kind)).or_default().bump(vector);
            if let Some((pid, pfmt)) = s.last_fp {
                if pid + 1 == id && (dep_a == pid || dep_b == pid) {
                    s.counts
                        .dependent_pairs
                        .entry(pfmt)
                        .or_default()
                        .bump(vector);
                }
            }
            s.last_fp = Some((id, fmt));
            id
        })
    }

    /// Records a conversion from `from` to `to`. Casts are 1-cycle
    /// operations and never stall a consumer.
    pub fn cast(from: FpFormat, to: FpFormat) {
        Recorder::unpaired(|c, vector| c.casts.entry((from, to)).or_default().bump(vector));
    }

    /// Records a load of an FP element of `width_bits`. TCDM loads are
    /// single-cycle, so the loaded value never stalls a consumer.
    pub fn load(width_bits: u32) {
        Recorder::unpaired(|c, vector| c.loads.entry(width_bits).or_default().bump(vector));
    }

    /// Records a store of an FP element of `width_bits`.
    pub fn store(width_bits: u32) {
        Recorder::unpaired(|c, vector| c.stores.entry(width_bits).or_default().bump(vector));
    }

    /// Records one instruction that produces no id to pair on and ends any
    /// producer→consumer adjacency; `bump` counts it.
    fn unpaired(bump: impl FnOnce(&mut TraceCounts, bool)) {
        if !Recorder::is_enabled() {
            return;
        }
        RECORDER.with(|r| {
            let mut s = r.borrow_mut();
            s.next_id += 1;
            let vector = s.vector_depth > 0;
            bump(&mut s.counts, vector);
            s.last_fp = None;
        });
    }

    /// Records `n` integer/control instructions (loop bookkeeping, address
    /// arithmetic, branches — the paper's "other ops").
    #[inline(always)]
    pub fn int_ops(n: u64) {
        if Recorder::is_enabled() {
            Recorder::count_int_ops(n);
        }
    }

    #[inline(never)]
    fn count_int_ops(n: u64) {
        RECORDER.with(|r| {
            let mut s = r.borrow_mut();
            s.next_id += n;
            s.counts.int_ops += n;
            s.last_fp = None;
        });
    }

    /// Takes a snapshot of the counts collected so far without stopping.
    #[must_use]
    pub fn snapshot() -> TraceCounts {
        RECORDER.with(|r| r.borrow().counts.clone())
    }

    fn enter_vector() {
        RECORDER.with(|r| r.borrow_mut().vector_depth += 1);
    }

    fn exit_vector() {
        RECORDER.with(|r| {
            let mut s = r.borrow_mut();
            debug_assert!(s.vector_depth > 0, "unbalanced vector section");
            s.vector_depth = s.vector_depth.saturating_sub(1);
        });
    }
}

/// RAII guard marking a *vectorizable* region, the Rust equivalent of the
/// paper's manual source tags. Every operation recorded while at least one
/// guard is alive is counted in the vector column of the reports.
///
/// ```
/// use flexfloat::{Recorder, VectorSection};
///
/// Recorder::start();
/// {
///     let _v = VectorSection::enter();
///     // ... element-wise loop the compiler could vectorize ...
/// }
/// let counts = Recorder::stop();
/// # let _ = counts;
/// ```
#[derive(Debug)]
pub struct VectorSection(());

impl VectorSection {
    /// Opens a vectorizable region; close it by dropping the guard.
    #[must_use]
    pub fn enter() -> Self {
        Recorder::enter_vector();
        VectorSection(())
    }
}

impl Drop for VectorSection {
    fn drop(&mut self) {
        Recorder::exit_vector();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    #[test]
    fn disabled_recorder_counts_nothing() {
        let _ = Recorder::stop(); // ensure off and clear
        let id = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        assert_eq!(id, 0);
        assert_eq!(Recorder::snapshot().total_fp_ops(), 0);
    }

    #[test]
    fn records_ops_and_casts() {
        let ((), counts) = Recorder::record(|| {
            let a = Recorder::fp_op(BINARY32, OpKind::AddSub, 0, 0);
            let _b = Recorder::fp_op(BINARY32, OpKind::Mul, a, 0); // dependent pair
            Recorder::cast(BINARY32, BINARY8);
            Recorder::load(16);
            Recorder::store(8);
            Recorder::int_ops(3);
        });
        assert_eq!(counts.total_fp_ops(), 2);
        assert_eq!(counts.total_casts(), 1);
        assert_eq!(counts.total_mem_accesses(), 2);
        assert_eq!(counts.int_ops, 3);
        assert_eq!(
            counts.dependent_pairs.get(&BINARY32).map(|c| c.total()),
            Some(1)
        );
        assert_eq!(counts.casts.get(&(BINARY32, BINARY8)).unwrap().total(), 1);
    }

    #[test]
    fn dependent_pair_requires_adjacency() {
        let ((), counts) = Recorder::record(|| {
            let a = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            Recorder::int_ops(1); // intervening instruction fills the slot
            let _ = Recorder::fp_op(BINARY32, OpKind::AddSub, a, 0);
        });
        assert!(counts.dependent_pairs.is_empty());
    }

    #[test]
    fn dependent_pair_requires_true_dependency() {
        let ((), counts) = Recorder::record(|| {
            let _a = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            // Adjacent but independent.
            let _b = Recorder::fp_op(BINARY32, OpKind::AddSub, 0, 0);
        });
        assert!(counts.dependent_pairs.is_empty());
    }

    #[test]
    fn vector_sections_split_counters() {
        let ((), counts) = Recorder::record(|| {
            Recorder::fp_op(BINARY16, OpKind::Mul, 0, 0);
            {
                let _v = VectorSection::enter();
                Recorder::fp_op(BINARY16, OpKind::Mul, 0, 0);
                Recorder::fp_op(BINARY16, OpKind::Mul, 0, 0);
                Recorder::load(16);
            }
            Recorder::load(16);
        });
        let ops = counts.ops.get(&(BINARY16, OpKind::Mul)).unwrap();
        assert_eq!(ops.scalar, 1);
        assert_eq!(ops.vector, 2);
        let loads = counts.loads.get(&16).unwrap();
        assert_eq!((loads.scalar, loads.vector), (1, 1));
    }

    #[test]
    fn nested_vector_sections() {
        let ((), counts) = Recorder::record(|| {
            let _a = VectorSection::enter();
            {
                let _b = VectorSection::enter();
                Recorder::fp_op(BINARY8, OpKind::AddSub, 0, 0);
            }
            // still inside the outer section
            Recorder::fp_op(BINARY8, OpKind::AddSub, 0, 0);
        });
        assert_eq!(
            counts.ops.get(&(BINARY8, OpKind::AddSub)).unwrap().vector,
            2
        );
    }

    #[test]
    fn small_format_share() {
        let ((), counts) = Recorder::record(|| {
            for _ in 0..9 {
                Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            }
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        assert!((counts.small_format_op_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let ((), a) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::int_ops(2);
        });
        let ((), b) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::load(32);
        });
        let mut sum = TraceCounts::new();
        sum.merge(&a);
        sum.merge(&b);
        assert_eq!(sum.total_fp_ops(), 2);
        assert_eq!(sum.int_ops, 2);
        assert_eq!(sum.total_mem_accesses(), 1);
    }

    #[test]
    fn add_and_add_assign_merge() {
        let ((), a) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::int_ops(2);
        });
        let ((), b) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::load(32);
        });
        let sum = a.clone() + b.clone();
        assert_eq!(sum.total_fp_ops(), 2);
        assert_eq!(sum.int_ops, 2);
        assert_eq!(sum.total_mem_accesses(), 1);
        let mut acc = TraceCounts::new();
        acc += a.clone();
        acc += &b;
        assert_eq!(acc, sum);
        let summed: TraceCounts = [a, b].into_iter().sum();
        assert_eq!(summed, sum);
    }

    #[test]
    fn scoped_nests_inside_record() {
        let ((), outer) = Recorder::record(|| {
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            let ((), inner) = Recorder::scoped(|| {
                Recorder::fp_op(BINARY8, OpKind::AddSub, 0, 0);
                Recorder::fp_op(BINARY8, OpKind::AddSub, 0, 0);
            });
            assert_eq!(inner.total_fp_ops(), 2);
            // The enclosing recording resumed and is blind to the scope.
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        assert_eq!(outer.total_fp_ops(), 2);
        assert_eq!(outer.fp_ops_in(BINARY8), 0);
    }

    #[test]
    fn scoped_counts_cross_threads_and_absorb() {
        let ((), outer) = Recorder::record(|| {
            let merged: TraceCounts = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            Recorder::scoped(|| {
                                Recorder::fp_op(BINARY16, OpKind::Fma, 0, 0);
                                Recorder::store(16);
                            })
                            .1
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(merged.total_fp_ops(), 4);
            Recorder::absorb(&merged);
        });
        assert_eq!(outer.fp_ops_in(BINARY16), 4);
        assert_eq!(outer.stores.get(&16).unwrap().total(), 4);
    }

    #[test]
    fn absorb_is_noop_when_disabled() {
        let ((), counts) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
        });
        Recorder::absorb(&counts); // recording is off: dropped
        assert_eq!(Recorder::snapshot().total_fp_ops(), 0);
    }

    #[test]
    fn absorb_breaks_dependent_pair_adjacency() {
        let ((), batch) = Recorder::record(|| {
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        let ((), counts) = Recorder::record(|| {
            let a = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            Recorder::absorb(&batch);
            // Adjacent in program order, but a merge intervened.
            let _ = Recorder::fp_op(BINARY32, OpKind::AddSub, a, 0);
        });
        assert!(counts.dependent_pairs.is_empty());
        assert_eq!(counts.total_fp_ops(), 3);
    }

    #[test]
    fn scoped_restores_on_panic() {
        let ((), outer) = Recorder::record(|| {
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            let result = std::panic::catch_unwind(|| {
                Recorder::scoped(|| panic!("scope dies"));
            });
            assert!(result.is_err());
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        assert_eq!(outer.total_fp_ops(), 2);
    }

    #[test]
    fn record_resets_between_runs() {
        let ((), a) = Recorder::record(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
        });
        let ((), b) = Recorder::record(|| {});
        assert_eq!(a.total_fp_ops(), 1);
        assert_eq!(b.total_fp_ops(), 0);
    }
}
