//! Operation statistics and trace accounting.
//!
//! The C++ FlexFloat library collects, per instantiated format, the number
//! of operations and casts a program performs, with a separate report for
//! manually-tagged *vectorizable* sections (Section III-B, step 4 of the
//! paper). This module reproduces that machinery: a thread-local
//! [`Recorder`] counts while instrumented code (`FlexFloat`,
//! [`Fx`](crate::Fx), [`FxArray`](crate::FxArray)) executes, and hands the
//! counts out as [`TraceCounts`].
//!
//! While a recording runs, each event bumps one counter of a flat table
//! of `Cell`s in a `const` thread-local (per format, per element width),
//! not a map entry: the [`TraceCounts`] maps are built only when counts
//! leave the recorder, and counts the table cannot hold wait in an
//! overflow map (see [`Recorder`], "How counts accumulate").
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
use std::hash::Hash;

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

/// Formats the counter table holds at once. A recording that meets more
/// moves the table's counts into the overflow map and starts it afresh.
const SLOTS: usize = 8;
/// Counter pairs per format slot: one per [`OpKind`], then the format's
/// dependent pairs.
const PER_SLOT: usize = OpKind::ALL.len() + 1;
/// Load and store widths with a counter pair each (`0..=64` bits); a
/// wider element is counted in the overflow map.
const WIDTHS: usize = 65;
/// Where the cast, load and store pairs start, and the pair count.
const CASTS: usize = SLOTS * PER_SLOT;
const LOADS: usize = CASTS + SLOTS * SLOTS;
const STORES: usize = LOADS + WIDTHS;
const PAIRS: usize = STORES + WIDTHS;
/// Format codes `exp_bits << 6 | man_bits`: an [`FpFormat`] has at most
/// 11 exponent and 52 mantissa bits.
const CODES: usize = 12 << 6;

#[inline]
fn format_code(fmt: FpFormat) -> usize {
    (fmt.exp_bits() as usize) << 6 | fmt.man_bits() as usize
}

/// Adds `n` to `key`'s entry of `map` when `n` counts anything.
fn add_to<K: Eq + Hash>(map: &mut HashMap<K, OpCounts>, key: K, n: OpCounts) {
    if n.total() > 0 {
        map.entry(key).or_default().merge(n);
    }
}

/// A recording's counters and cursor, all in `Cell`s of one `const`
/// thread-local, so an event is a handful of loads and stores with no
/// borrow flag, heap pointer or lazy initialisation on its way.
///
/// Counter pairs live in one flat table: per format slot, one pair per op
/// kind and one for dependent pairs; one per (source, destination) slot
/// pair for casts; one per element width for loads and stores. A format
/// gets the next free slot on first sight (`slot_of`).
struct Live {
    /// Monotone instruction counter (1-based; 0 = none).
    next_id: Cell<EventId>,
    /// Id and format of the most recent *FP arithmetic* instruction, if it
    /// was the most recent instruction overall.
    last_fp: Cell<Option<(EventId, FpFormat)>>,
    vector_depth: Cell<u32>,
    int_ops: Cell<u64>,
    /// Pair `i`'s scalar and vector counters, at `2i` and `2i + 1`.
    counts: Cell<[u64; 2 * PAIRS]>,
    /// `1 + slot` of each format holding one, by [`format_code`]; 0: none.
    slot_of: Cell<[u8; CODES]>,
    /// The format in each slot.
    formats: Cell<[Option<FpFormat>; SLOTS]>,
}

impl Live {
    const fn new() -> Self {
        Live {
            next_id: Cell::new(0),
            last_fp: Cell::new(None),
            vector_depth: Cell::new(0),
            int_ops: Cell::new(0),
            counts: Cell::new([0; 2 * PAIRS]),
            slot_of: Cell::new([0; CODES]),
            formats: Cell::new([None; SLOTS]),
        }
    }

    /// Exchanges every field with `other`'s.
    fn swap(&self, other: &Live) {
        self.next_id.swap(&other.next_id);
        self.last_fp.swap(&other.last_fp);
        self.vector_depth.swap(&other.vector_depth);
        self.int_ops.swap(&other.int_ops);
        self.counts.swap(&other.counts);
        self.slot_of.swap(&other.slot_of);
        self.formats.swap(&other.formats);
    }

    /// Starts the next instruction: returns its id and its counter column
    /// (0: scalar, 1: inside a vectorizable section).
    #[inline]
    fn next(&self) -> (EventId, usize) {
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        (id, usize::from(self.vector_depth.get() > 0))
    }

    /// Counts one event in column `col` of pair `pair`.
    #[inline]
    fn bump(&self, pair: usize, col: usize) {
        let c = &self.counts.as_array_of_cells()[2 * pair + col];
        c.set(c.get() + 1);
    }

    /// The slot of `fmt`, assigned on first sight.
    #[inline]
    fn slot(&self, fmt: FpFormat) -> usize {
        match self.slot_of.as_array_of_cells()[format_code(fmt)].get() {
            0 => self.new_slot(fmt),
            s => usize::from(s - 1),
        }
    }

    /// Gives `fmt` the first free slot. With none free, the table's counts
    /// move to the overflow map first, which empties every slot, so a slot
    /// taken before this call may have changed hands.
    #[cold]
    fn new_slot(&self, fmt: FpFormat) -> usize {
        let slot = match self.formats.get().iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                OVERFLOW.with_borrow_mut(|o| self.add_table_to(o));
                self.clear_table();
                0
            }
        };
        let mut formats = self.formats.get();
        formats[slot] = Some(fmt);
        self.formats.set(formats);
        // `slot < SLOTS`, so `1 + slot` fits.
        self.slot_of.as_array_of_cells()[format_code(fmt)].set(slot as u8 + 1);
        slot
    }

    /// The pair counting casts from `from` to `to`.
    #[inline]
    fn cast_pair(&self, from: FpFormat, to: FpFormat) -> usize {
        self.slot(from);
        let to_slot = self.slot(to);
        // A new slot for `to` may have emptied the table, `from`'s slot
        // included: look `from` up again (a hit unless that happened, and
        // then it takes a slot without emptying the table again).
        CASTS + self.slot(from) * SLOTS + to_slot
    }

    /// Counts a load or store of `width_bits` in column `col`: in the
    /// table from `base`, or in `field` of the overflow map when wider.
    #[inline]
    fn bump_width(
        &self,
        base: usize,
        field: fn(&mut TraceCounts) -> &mut HashMap<u32, OpCounts>,
        width_bits: u32,
        col: usize,
    ) {
        let w = width_bits as usize;
        if w < WIDTHS {
            self.bump(base + w, col);
        } else {
            OVERFLOW.with_borrow_mut(|o| field(o).entry(width_bits).or_default().bump(col == 1));
        }
    }

    /// Adds the table's counts to `c`.
    fn add_table_to(&self, c: &mut TraceCounts) {
        let counts = self.counts.get();
        let formats = self.formats.get();
        let pair = |i: usize| OpCounts {
            scalar: counts[2 * i],
            vector: counts[2 * i + 1],
        };
        let slots = || {
            formats
                .iter()
                .enumerate()
                .filter_map(|(slot, fmt)| Some((slot, (*fmt)?)))
        };
        for (s, fmt) in slots() {
            for (k, &kind) in OpKind::ALL.iter().enumerate() {
                add_to(&mut c.ops, (fmt, kind), pair(s * PER_SLOT + k));
            }
            add_to(
                &mut c.dependent_pairs,
                fmt,
                pair(s * PER_SLOT + OpKind::ALL.len()),
            );
            for (t, to) in slots() {
                add_to(&mut c.casts, (fmt, to), pair(CASTS + s * SLOTS + t));
            }
        }
        for w in 0..WIDTHS {
            add_to(&mut c.loads, w as u32, pair(LOADS + w));
            add_to(&mut c.stores, w as u32, pair(STORES + w));
        }
    }

    /// Empties the table, freeing every slot.
    fn clear_table(&self) {
        self.counts.set([0; 2 * PAIRS]);
        self.slot_of.set([0; CODES]);
        self.formats.set([None; SLOTS]);
    }

    /// Takes the counts out, table and overflow map together, leaving
    /// empty ones; the cursor stays.
    fn take_counts(&self) -> TraceCounts {
        let mut c = OVERFLOW.take();
        self.add_table_to(&mut c);
        self.clear_table();
        c.int_ops += self.int_ops.replace(0);
        c
    }
}

thread_local! {
    /// Whether recording is on — a `const`, destructor-free `Cell` kept
    /// apart from the `LIVE` state, so the check guarding every op is a
    /// single thread-local load. `scoped` sets it on entry and restores it
    /// on exit, also when its closure panics.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Live = const { Live::new() };
    /// Counts the table does not hold: those of formats that no longer
    /// had a slot, of loads and stores wider than 64 bits, and those merged
    /// in by [`Recorder::absorb`].
    static OVERFLOW: RefCell<TraceCounts> = RefCell::new(TraceCounts::new());
}

/// A recording's whole state, moved out of the thread-locals while a
/// [`Recorder::scoped`] call runs.
struct Saved {
    live: Live,
    overflow: TraceCounts,
}

impl Saved {
    /// The state of a thread that has recorded nothing.
    fn new() -> Self {
        Saved {
            live: Live::new(),
            overflow: TraceCounts::new(),
        }
    }

    /// Exchanges this state with the thread's.
    fn swap_with_thread(&mut self) {
        LIVE.with(|l| l.swap(&self.live));
        OVERFLOW.with_borrow_mut(|o| std::mem::swap(o, &mut self.overflow));
    }
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
/// # How counts accumulate
///
/// An event bumps one counter in a flat table of `Cell`s in a `const`
/// thread-local: per format (the first eight formats a recording meets
/// each get a slot), one counter pair per op kind, one for dependent pairs
/// and one per destination format for casts; per element width up to 64
/// bits, one for loads and one for stores. The [`TraceCounts`] maps are
/// built only when counts leave the recorder, at the end of a
/// [`scoped`](Recorder::scoped) call, or when they cannot stay in the
/// table: [`absorb`](Recorder::absorb) merges its counts into an
/// overflow map, wider loads and stores are counted there, and a format
/// met while all eight slots are taken moves the table's counts there
/// and starts the table afresh.
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
    /// Runs `f` in an isolated recording scope and returns its result
    /// together with the counts collected during the call. This is the only
    /// way to record.
    ///
    /// The thread's previous recorder state is saved first and restored
    /// afterwards (also on panic), so scopes nest:
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
        struct Restore(bool, Saved);
        impl Drop for Restore {
            fn drop(&mut self) {
                self.1.swap_with_thread();
                ENABLED.with(|e| e.set(self.0));
            }
        }

        let mut saved = Saved::new();
        saved.swap_with_thread();
        let restore = Restore(ENABLED.with(|e| e.replace(true)), saved);
        let out = f();
        let counts = LIVE.with(Live::take_counts);
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
        OVERFLOW.with_borrow_mut(|o| o.merge(counts));
        LIVE.with(|l| l.last_fp.set(None));
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
    #[inline]
    pub fn fp_op(fmt: FpFormat, kind: OpKind, dep_a: EventId, dep_b: EventId) -> EventId {
        if !Recorder::is_enabled() {
            return 0;
        }
        LIVE.with(|l| {
            let (id, col) = l.next();
            l.bump(l.slot(fmt) * PER_SLOT + kind as usize, col);
            if let Some((pid, pfmt)) = l.last_fp.get() {
                if pid + 1 == id && (dep_a == pid || dep_b == pid) {
                    l.bump(l.slot(pfmt) * PER_SLOT + OpKind::ALL.len(), col);
                }
            }
            l.last_fp.set(Some((id, fmt)));
            id
        })
    }

    /// Records a conversion from `from` to `to`. Casts are 1-cycle
    /// operations and never stall a consumer.
    #[inline]
    pub fn cast(from: FpFormat, to: FpFormat) {
        Recorder::unpaired(|l, col| l.bump(l.cast_pair(from, to), col));
    }

    /// Records a load of an FP element of `width_bits`. TCDM loads are
    /// single-cycle, so the loaded value never stalls a consumer.
    #[inline]
    pub fn load(width_bits: u32) {
        Recorder::unpaired(|l, col| l.bump_width(LOADS, |c| &mut c.loads, width_bits, col));
    }

    /// Records a store of an FP element of `width_bits`.
    #[inline]
    pub fn store(width_bits: u32) {
        Recorder::unpaired(|l, col| l.bump_width(STORES, |c| &mut c.stores, width_bits, col));
    }

    /// Records one instruction that produces no id to pair on and ends any
    /// producer→consumer adjacency; `count` counts it in the given column.
    #[inline]
    fn unpaired(count: impl FnOnce(&Live, usize)) {
        if Recorder::is_enabled() {
            LIVE.with(|l| {
                let (_, col) = l.next();
                count(l, col);
                l.last_fp.set(None);
            });
        }
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
        LIVE.with(|l| {
            l.next_id.set(l.next_id.get() + n);
            l.int_ops.set(l.int_ops.get() + n);
            l.last_fp.set(None);
        });
    }

    fn enter_vector() {
        LIVE.with(|l| l.vector_depth.set(l.vector_depth.get() + 1));
    }

    fn exit_vector() {
        LIVE.with(|l| {
            let depth = l.vector_depth.get();
            debug_assert!(depth > 0, "unbalanced vector section");
            l.vector_depth.set(depth.saturating_sub(1));
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
/// let ((), counts) = Recorder::scoped(|| {
///     let _v = VectorSection::enter();
///     // ... element-wise loop the compiler could vectorize ...
/// });
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
        // Outside every scope recording is off: an event gets no id.
        assert!(!Recorder::is_enabled());
        let id = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        assert_eq!(id, 0);
    }

    #[test]
    fn records_ops_and_casts() {
        let ((), counts) = Recorder::scoped(|| {
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
        let ((), counts) = Recorder::scoped(|| {
            let a = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            Recorder::int_ops(1); // intervening instruction fills the slot
            let _ = Recorder::fp_op(BINARY32, OpKind::AddSub, a, 0);
        });
        assert!(counts.dependent_pairs.is_empty());
    }

    #[test]
    fn dependent_pair_requires_true_dependency() {
        let ((), counts) = Recorder::scoped(|| {
            let _a = Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
            // Adjacent but independent.
            let _b = Recorder::fp_op(BINARY32, OpKind::AddSub, 0, 0);
        });
        assert!(counts.dependent_pairs.is_empty());
    }

    #[test]
    fn vector_sections_split_counters() {
        let ((), counts) = Recorder::scoped(|| {
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
        let ((), counts) = Recorder::scoped(|| {
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
        let ((), counts) = Recorder::scoped(|| {
            for _ in 0..9 {
                Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            }
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        assert!((counts.small_format_op_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let ((), a) = Recorder::scoped(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::int_ops(2);
        });
        let ((), b) = Recorder::scoped(|| {
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
        let ((), a) = Recorder::scoped(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
            Recorder::int_ops(2);
        });
        let ((), b) = Recorder::scoped(|| {
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
        let ((), outer) = Recorder::scoped(|| {
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
        let ((), outer) = Recorder::scoped(|| {
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
        let ((), counts) = Recorder::scoped(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
        });
        Recorder::absorb(&counts); // recording is off: dropped
        assert!(!Recorder::is_enabled());
    }

    #[test]
    fn absorb_breaks_dependent_pair_adjacency() {
        let ((), batch) = Recorder::scoped(|| {
            Recorder::fp_op(BINARY32, OpKind::Mul, 0, 0);
        });
        let ((), counts) = Recorder::scoped(|| {
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
        let ((), outer) = Recorder::scoped(|| {
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
        let ((), a) = Recorder::scoped(|| {
            Recorder::fp_op(BINARY8, OpKind::Mul, 0, 0);
        });
        let ((), b) = Recorder::scoped(|| {});
        assert_eq!(a.total_fp_ops(), 1);
        assert_eq!(b.total_fp_ops(), 0);
    }

    /// One recorded instruction, for [`replay`] and [`model`].
    #[derive(Clone, Copy)]
    enum Ev {
        /// An op; `true` when it consumes the previous instruction's result.
        Op(FpFormat, OpKind, bool),
        Cast(FpFormat, FpFormat),
        Load(u32),
        Store(u32),
        Int(u64),
        /// Opens a vectorizable section, or closes the innermost one.
        Vector(bool),
    }

    /// Emits `events` to the thread's recorder.
    fn replay(events: &[Ev]) {
        let (mut last, mut sections) = (0, Vec::new());
        for &e in events {
            last = match e {
                Ev::Op(f, k, dep) => Recorder::fp_op(f, k, if dep { last } else { 0 }, 0),
                Ev::Cast(a, b) => {
                    Recorder::cast(a, b);
                    0
                }
                Ev::Load(w) => {
                    Recorder::load(w);
                    0
                }
                Ev::Store(w) => {
                    Recorder::store(w);
                    0
                }
                Ev::Int(n) => {
                    Recorder::int_ops(n);
                    0
                }
                Ev::Vector(true) => {
                    sections.push(VectorSection::enter());
                    last
                }
                Ev::Vector(false) => {
                    sections.pop();
                    last
                }
            };
        }
    }

    /// The counts `events` must record, kept in plain maps.
    fn model(events: &[Ev]) -> TraceCounts {
        let mut c = TraceCounts::new();
        let (mut depth, mut last_fp) = (0, None);
        for &e in events {
            let v = depth > 0;
            let mut fp = None;
            match e {
                Ev::Op(f, k, dep) => {
                    c.ops.entry((f, k)).or_default().bump(v);
                    if let (true, Some(p)) = (dep, last_fp) {
                        c.dependent_pairs.entry(p).or_default().bump(v);
                    }
                    fp = Some(f);
                }
                Ev::Cast(a, b) => c.casts.entry((a, b)).or_default().bump(v),
                Ev::Load(w) => c.loads.entry(w).or_default().bump(v),
                Ev::Store(w) => c.stores.entry(w).or_default().bump(v),
                Ev::Int(n) => c.int_ops += n,
                Ev::Vector(open) => {
                    depth = if open { depth + 1 } else { depth - 1 };
                    fp = last_fp;
                }
            }
            last_fp = fp;
        }
        c
    }

    /// A stream over every format with 5 exponent and 1..=40 mantissa
    /// bits — more formats than the counter table has slots — with ops of
    /// each kind, dependent chains, casts between neighbours, memory
    /// traffic of each width, integer work and vector sections.
    fn many_formats() -> Vec<Ev> {
        let fmts: Vec<FpFormat> = (1..=40).map(|m| FpFormat::new(5, m).unwrap()).collect();
        let mut ev = Vec::new();
        for (i, &f) in fmts.iter().enumerate() {
            let prev = fmts[i.saturating_sub(1)];
            let vector = i % 3 == 0;
            if vector {
                ev.push(Ev::Vector(true));
            }
            ev.push(Ev::Load(f.total_bits()));
            ev.push(Ev::Cast(prev, f));
            for (j, &k) in OpKind::ALL.iter().enumerate() {
                ev.push(Ev::Op(f, k, j % 2 == 1));
            }
            // Reach back to a format that has left the table.
            ev.push(Ev::Op(fmts[i / 4], OpKind::Mul, true));
            ev.push(Ev::Cast(f, fmts[i / 2]));
            ev.push(Ev::Store(f.total_bits()));
            ev.push(Ev::Int(i as u64));
            if vector {
                ev.push(Ev::Vector(false));
            }
        }
        ev
    }

    #[test]
    fn model_matches_on_a_small_stream() {
        let ev = [
            Ev::Op(BINARY32, OpKind::Mul, false),
            Ev::Op(BINARY32, OpKind::AddSub, true),
            Ev::Vector(true),
            Ev::Op(BINARY16, OpKind::Fma, true),
            Ev::Cast(BINARY16, BINARY8),
            Ev::Op(BINARY8, OpKind::Cmp, true),
            Ev::Vector(false),
            Ev::Load(16),
            Ev::Int(3),
        ];
        let ((), counts) = Recorder::scoped(|| replay(&ev));
        let want = model(&ev);
        assert_eq!(counts, want);
        // Mul→AddSub and AddSub→Fma pair; the cast breaks Fma→Cmp.
        assert_eq!(
            want.dependent_pairs[&BINARY32],
            OpCounts {
                scalar: 1,
                vector: 1
            }
        );
    }

    #[test]
    fn more_formats_than_slots_count_exactly() {
        let ev = many_formats();
        let ((), counts) = Recorder::scoped(|| replay(&ev));
        assert_eq!(counts.ops.len(), 40 * OpKind::ALL.len());
        assert_eq!(counts, model(&ev));
        // The same stream inside a scope, and in a scope on a worker.
        assert_eq!(Recorder::scoped(|| replay(&ev)).1, counts);
        let worker = std::thread::spawn(move || Recorder::scoped(|| replay(&ev)).1);
        assert_eq!(worker.join().unwrap(), counts);
    }

    #[test]
    fn widths_beyond_the_table_count_exactly() {
        let ev = [
            Ev::Load(64),
            Ev::Load(65),
            Ev::Store(128),
            Ev::Store(u32::MAX),
        ];
        let ((), counts) = Recorder::scoped(|| replay(&ev));
        assert_eq!(counts, model(&ev));
    }

    #[test]
    fn absorb_adds_to_tallied_keys() {
        let batch_ev = [
            Ev::Op(BINARY16, OpKind::Mul, false),
            Ev::Op(BINARY16, OpKind::Mul, true),
            Ev::Cast(BINARY16, BINARY32),
            Ev::Load(16),
            Ev::Int(2),
        ];
        let ((), batch) = Recorder::scoped(|| replay(&batch_ev));
        let own = [
            Ev::Op(BINARY16, OpKind::Mul, false),
            Ev::Op(BINARY16, OpKind::Mul, true),
            Ev::Cast(BINARY16, BINARY32),
            Ev::Load(16),
        ];
        let ((), counts) = Recorder::scoped(|| {
            replay(&own);
            Recorder::absorb(&batch);
            replay(&own);
        });
        let mut want = model(&own);
        want += model(&own);
        want += &batch;
        assert_eq!(counts, want);
        assert_eq!(counts.ops[&(BINARY16, OpKind::Mul)].scalar, 6);
        assert_eq!(counts.dependent_pairs[&BINARY16].scalar, 3);
    }

    #[test]
    fn nested_scope_on_the_enclosing_key() {
        let ev = [
            Ev::Op(BINARY8, OpKind::AddSub, false),
            Ev::Op(BINARY8, OpKind::AddSub, true),
            Ev::Store(8),
        ];
        let ((), outer) = Recorder::scoped(|| {
            replay(&ev);
            let ((), inner) = Recorder::scoped(|| {
                replay(&ev);
                let ((), innermost) = Recorder::scoped(|| replay(&ev));
                assert_eq!(innermost, model(&ev));
                replay(&ev);
            });
            let mut twice = model(&ev);
            twice += model(&ev);
            assert_eq!(inner, twice);
            replay(&ev);
        });
        let mut twice = model(&ev);
        twice += model(&ev);
        assert_eq!(outer, twice);
    }

    #[test]
    fn panicking_scope_leaves_enclosing_tallies_intact() {
        let ev = many_formats();
        let (head, tail) = ev.split_at(ev.len() / 2);
        let ((), outer) = Recorder::scoped(|| {
            replay(head);
            let result = std::panic::catch_unwind(|| {
                Recorder::scoped(|| {
                    replay(&ev);
                    panic!("scope dies");
                })
            });
            assert!(result.is_err());
            replay(tail);
        });
        assert_eq!(outer, model(&ev));
    }
}
