//! Runtime-format values ([`Fx`]) and arrays ([`FxArray`]) — the dynamic
//! twin of [`FlexFloat`](crate::FlexFloat) used by the precision-tuning flow,
//! where formats are search parameters rather than compile-time constants.
//!
//! # Semantics
//!
//! * Every value carries its [`FpFormat`]; its backing `f64` is always
//!   exactly representable in that format.
//! * Arithmetic between *equal* formats executes in that format.
//! * Arithmetic between *different* formats promotes the less precise
//!   operand (fewer mantissa bits; ties broken toward fewer exponent bits)
//!   to the more precise format, **recording the cast** — this models the
//!   explicit conversion the C++ programmer is forced to write, and makes
//!   cast overhead observable (critical for reproducing PCA's behaviour in
//!   Figs. 6–7 of the paper).
//! * Storing into an [`FxArray`] rounds to the array's format, recording a
//!   cast when the source format differs; loads and stores record memory
//!   events of the element's width.
//!
//! # Two paths per op
//!
//! Every op that records or dispatches is split in two. An inlined fast
//! path runs while [`backend::hooked`] is false — no `Recorder`, native
//! datapath — and computes with the shared native helpers
//! ([`common_format`], [`Fx::native_in`], [`Emulated`]'s methods). The
//! outlined `*_hooked` twin taps the tape, promotes its operands and
//! hands them to the op's [cell](crate::cell), which records the
//! `Recorder` event, dispatches to the backend and falls back to the same
//! `Emulated` methods; with no hook live it returns exactly what the fast
//! path returns. Ops that only report to the tape keep one body:
//! [`backend::tap`] is itself split that way.
//!
//! The outlined bodies take and return scalars, never an [`Fx`]: each
//! operand as its format and its value with its producer id, both tape
//! ids packed in one word, and the result as `(value, producer id)`,
//! which comes back in registers. The caller rebuilds the `Fx` in the
//! format it already knows, and the result's tape id comes back through
//! a thread-local. A body that returned the 32-byte `Fx` would return it
//! through a stack slot, and the fast path, which merges its result into
//! the same value, would spill every result to that slot too (DESIGN.md
//! §6, "Dispatch cost").

use std::cell::Cell;

use tp_formats::{FpFormat, BINARY32};

use crate::backend::{self, native_min_max, ArrayId, BinOp, Emulated, FpBackend, ValueId};
use crate::cell::{self, CmpOp};
use crate::stats::{EventId, Recorder};

/// A floating-point value with a runtime-chosen format.
///
/// ```
/// use flexfloat::Fx;
/// use tp_formats::{BINARY16, BINARY8};
///
/// let a = Fx::new(1.2, BINARY8);          // rounds to 1.25
/// let b = Fx::new(0.1, BINARY16);
/// let c = a + b;                           // a is promoted to binary16
/// assert_eq!(c.format(), BINARY16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fx {
    val: f64,
    fmt: FpFormat,
    /// Id of the FP instruction that produced this value (0 = none), used
    /// for pipeline-stall accounting.
    prod: EventId,
    /// Id of this value on the active tape (0 = untraced), used by the
    /// `tp-trace` recording backend for dataflow-exact replay.
    vid: ValueId,
}

impl Fx {
    /// Creates a value by rounding `x` into `fmt` (no event recorded — this
    /// is a literal / initialization, not a runtime cast).
    #[inline]
    #[must_use]
    pub fn new(x: f64, fmt: FpFormat) -> Self {
        Fx {
            val: fmt.sanitize_f64(x),
            fmt,
            prod: 0,
            vid: backend::tap(|t| t.leaf(fmt, x)).unwrap_or(0),
        }
    }

    /// Zero in `fmt`.
    #[inline]
    #[must_use]
    pub fn zero(fmt: FpFormat) -> Self {
        Fx {
            val: 0.0,
            fmt,
            prod: 0,
            vid: backend::tap(|t| t.leaf(fmt, 0.0)).unwrap_or(0),
        }
    }

    /// The backing value (exactly representable in [`Fx::format`]).
    #[inline]
    #[must_use]
    pub fn value(self) -> f64 {
        let _ = backend::tap(|t| t.extract(self.vid, self.val));
        self.val
    }

    /// The value's format.
    #[inline]
    #[must_use]
    pub fn format(self) -> FpFormat {
        self.fmt
    }

    /// Converts to `dst`, recording a cast event when the format changes.
    ///
    /// The tape sees this call even when `dst` equals the current format:
    /// under a different candidate configuration the same program point may
    /// be a real conversion, so replay must re-decide it (see the
    /// [`TapeSink`](crate::backend::TapeSink) contract).
    #[inline(always)]
    #[must_use]
    pub fn to(self, dst: FpFormat) -> Self {
        if backend::hooked() {
            return Fx::hooked(Fx::to_hooked(self.fmt, self.operand(), self.vid, dst), dst);
        }
        if dst == self.fmt {
            return Fx { vid: 0, ..self };
        }
        Fx::native(self.native_in(dst), dst)
    }

    #[inline(never)]
    fn to_hooked(fmt: FpFormat, x: Operand, src: ValueId, dst: FpFormat) -> Operand {
        let vid = backend::tap_hooked(|t| t.cast(src, dst)).unwrap_or(0);
        hooked_result(convert(fmt, x, dst), vid)
    }

    /// A fast-path result: no producing event, no tape id.
    #[inline(always)]
    fn native(val: f64, fmt: FpFormat) -> Self {
        Fx {
            val,
            fmt,
            prod: 0,
            vid: 0,
        }
    }

    /// A hooked path's result: the value and producer id its outlined
    /// body returned, in `fmt`, with the tape id the body left behind.
    #[inline(always)]
    fn hooked((val, prod): Operand, fmt: FpFormat) -> Self {
        Fx {
            val,
            fmt,
            prod,
            vid: HOOKED_VID.with(Cell::get),
        }
    }

    /// The value and its producer id, as the outlined bodies take them.
    #[inline(always)]
    fn operand(self) -> Operand {
        (self.val, self.prod)
    }

    /// This value rounded into `fmt` on the native datapath — the fast
    /// paths' conversion, and the cast cell's fallback when no backend
    /// computes the cast.
    #[inline(always)]
    fn native_in(self, fmt: FpFormat) -> f64 {
        if fmt == self.fmt {
            self.val
        } else {
            Emulated.cast(self.fmt, fmt, self.val)
        }
    }

    /// Square root in this value's format.
    #[inline(always)]
    #[must_use]
    pub fn sqrt(self) -> Self {
        if backend::hooked() {
            return Fx::hooked(
                Fx::sqrt_hooked(self.fmt, self.operand(), self.vid),
                self.fmt,
            );
        }
        Fx::native(Emulated.sqrt(self.fmt, self.val), self.fmt)
    }

    #[inline(never)]
    fn sqrt_hooked(fmt: FpFormat, (x, dep): Operand, src: ValueId) -> Operand {
        let vid = backend::tap_hooked(|t| t.sqrt(src)).unwrap_or(0);
        hooked_result(cell::sqrt(fmt, x, dep), vid)
    }

    /// Absolute value (sign manipulation; free, not recorded).
    #[inline]
    #[must_use]
    pub fn abs(self) -> Self {
        Fx {
            val: self.val.abs(),
            vid: backend::tap(|t| t.abs(self.vid)).unwrap_or(0),
            ..self
        }
    }

    /// The smaller of two values — RISC-V `fmin` semantics: NaN loses to a
    /// number, `-0 < +0` (records one comparison op).
    #[inline(always)]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        self.min_max(other, true)
    }

    /// The larger of two values — RISC-V `fmax` semantics: NaN loses to a
    /// number, `-0 < +0` (records one comparison op).
    #[inline(always)]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        self.min_max(other, false)
    }

    #[inline(always)]
    fn min_max(self, other: Self, want_min: bool) -> Self {
        let fmt = common_format(self.fmt, other.fmt);
        if backend::hooked() {
            let (a, b) = (self.operand(), other.operand());
            let out =
                Fx::min_max_hooked(want_min, self.fmt, a, other.fmt, b, tape_ids(self, other));
            return Fx::hooked(out, fmt);
        }
        let (a, b) = (self.native_in(fmt), other.native_in(fmt));
        Fx::native(native_min_max(a, b, want_min), fmt)
    }

    #[inline(never)]
    fn min_max_hooked(
        want_min: bool,
        a_fmt: FpFormat,
        a: Operand,
        b_fmt: FpFormat,
        b: Operand,
        srcs: u64,
    ) -> Operand {
        let (src_a, src_b) = split_tape_ids(srcs);
        let vid = backend::tap_hooked(|t| t.min_max(want_min, src_a, src_b)).unwrap_or(0);
        let (fmt, (a, dep_a), (b, dep_b)) = promote(a_fmt, a, b_fmt, b);
        hooked_result(cell::min_max(fmt, a, b, want_min, (dep_a, dep_b)), vid)
    }

    /// `self < other` as a hardware comparison — IEEE quiet predicate,
    /// false on unordered (records one op).
    #[inline(always)]
    #[must_use]
    pub fn lt(self, other: Self) -> bool {
        if backend::hooked() {
            let (a, b) = (self.operand(), other.operand());
            return Fx::cmp_hooked(CmpOp::Lt, self.fmt, a, other.fmt, b, tape_ids(self, other));
        }
        let fmt = common_format(self.fmt, other.fmt);
        Emulated.lt(fmt, self.native_in(fmt), other.native_in(fmt))
    }

    /// `self <= other` as a hardware comparison — IEEE quiet predicate,
    /// false on unordered (records one op).
    #[inline(always)]
    #[must_use]
    pub fn le(self, other: Self) -> bool {
        if backend::hooked() {
            let (a, b) = (self.operand(), other.operand());
            return Fx::cmp_hooked(CmpOp::Le, self.fmt, a, other.fmt, b, tape_ids(self, other));
        }
        let fmt = common_format(self.fmt, other.fmt);
        Emulated.le(fmt, self.native_in(fmt), other.native_in(fmt))
    }

    #[inline(never)]
    fn cmp_hooked(
        op: CmpOp,
        a_fmt: FpFormat,
        a: Operand,
        b_fmt: FpFormat,
        b: Operand,
        srcs: u64,
    ) -> bool {
        let (fmt, (a, dep_a), (b, dep_b)) = promote(a_fmt, a, b_fmt, b);
        let out = cell::cmp(fmt, op, a, b, (dep_a, dep_b));
        let (src_a, src_b) = split_tape_ids(srcs);
        let _ = backend::tap_hooked(|t| t.cmp(op == CmpOp::Le, src_a, src_b, out));
        out
    }

    #[inline(always)]
    fn bin_op(self, rhs: Fx, op: BinOp) -> Fx {
        let fmt = common_format(self.fmt, rhs.fmt);
        if backend::hooked() {
            let (a, b) = (self.operand(), rhs.operand());
            let out = Fx::bin_op_hooked(op, self.fmt, a, rhs.fmt, b, tape_ids(self, rhs));
            return Fx::hooked(out, fmt);
        }
        let (a, b) = (self.native_in(fmt), rhs.native_in(fmt));
        Fx::native(Emulated.bin_op(fmt, op, a, b), fmt)
    }

    #[inline(never)]
    fn bin_op_hooked(
        op: BinOp,
        a_fmt: FpFormat,
        a: Operand,
        b_fmt: FpFormat,
        b: Operand,
        srcs: u64,
    ) -> Operand {
        let (src_a, src_b) = split_tape_ids(srcs);
        let vid = backend::tap_hooked(|t| t.bin_op(op, src_a, src_b)).unwrap_or(0);
        let (fmt, (a, dep_a), (b, dep_b)) = promote(a_fmt, a, b_fmt, b);
        hooked_result(cell::bin_op(fmt, op, a, b, (dep_a, dep_b)), vid)
    }
}

/// A value and its producer id (`0`: none), as the outlined hooked bodies
/// take their operands and return their results: two scalars, which pass
/// in registers where a whole [`Fx`] would pass through memory.
type Operand = (f64, EventId);

thread_local! {
    /// The tape id of the value the last hooked body produced. A body
    /// returns an [`Operand`], not an [`Fx`], so that neither path of the
    /// op spills its result (DESIGN.md §6, "Dispatch cost"); the id comes
    /// back here instead. Every value-producing body sets it last, and
    /// only the hooked branch of its caller reads it, at once
    /// ([`Fx::hooked`]).
    static HOOKED_VID: Cell<ValueId> = const { Cell::new(0) };
}

/// Ends a value-producing hooked body: leaves the result's tape id for
/// [`Fx::hooked`] and returns the value and its producer id.
#[inline(always)]
fn hooked_result(out: Operand, vid: ValueId) -> Operand {
    HOOKED_VID.with(|c| c.set(vid));
    out
}

/// Both operands' tape ids in one word (`a` high, `b` low), so a binary
/// op's hooked body takes six arguments.
#[inline(always)]
fn tape_ids(a: Fx, b: Fx) -> u64 {
    u64::from(a.vid) << 32 | u64::from(b.vid)
}

/// The inverse of [`tape_ids`].
#[inline(always)]
fn split_tape_ids(ids: u64) -> (ValueId, ValueId) {
    ((ids >> 32) as ValueId, ids as ValueId)
}

/// Operand `x` of format `fmt` converted to `dst` by the [cast
/// cell](cell::cast), *without* the tape event — the hooked paths' implicit
/// casts (operand promotion, array-store rounding), which a tape replay
/// re-derives from the formats in force instead of copying from the
/// recorded run. A converted value has no producer; an unconverted one
/// keeps its own.
#[inline(always)]
fn convert(fmt: FpFormat, x: Operand, dst: FpFormat) -> Operand {
    if fmt == dst {
        x
    } else {
        (cast(fmt, dst, x.0), 0)
    }
}

/// The cast cell, outlined once for every hooked body that converts.
#[inline(never)]
fn cast(from: FpFormat, to: FpFormat, x: f64) -> f64 {
    cell::cast(from, to, x)
}

/// Promotes the less precise operand to the [`common_format`] (the hooked
/// path), recording a cast if one is inserted. Returns the common format
/// and both operands in it.
#[inline(always)]
fn promote(
    a_fmt: FpFormat,
    a: Operand,
    b_fmt: FpFormat,
    b: Operand,
) -> (FpFormat, Operand, Operand) {
    if a_fmt == b_fmt {
        return (a_fmt, a, b);
    }
    let fmt = common_format(a_fmt, b_fmt);
    (fmt, convert(a_fmt, a, fmt), convert(b_fmt, b, fmt))
}

/// The format two operands are promoted to: more mantissa bits wins; on
/// equal mantissa, more exponent bits wins; equal formats stay. For the
/// platform's four formats this picks:
///   b8 vs b16     -> b16      b8 vs b16alt -> b16alt
///   b16 vs b16alt -> b16      anything vs b32 -> b32
#[inline(always)]
fn common_format(a: FpFormat, b: FpFormat) -> FpFormat {
    if (a.man_bits(), a.exp_bits()) >= (b.man_bits(), b.exp_bits()) {
        a
    } else {
        b
    }
}

impl std::ops::Add for Fx {
    type Output = Fx;
    #[inline(always)]
    fn add(self, rhs: Fx) -> Fx {
        self.bin_op(rhs, BinOp::Add)
    }
}

impl std::ops::Sub for Fx {
    type Output = Fx;
    #[inline(always)]
    fn sub(self, rhs: Fx) -> Fx {
        self.bin_op(rhs, BinOp::Sub)
    }
}

impl std::ops::Mul for Fx {
    type Output = Fx;
    #[inline(always)]
    fn mul(self, rhs: Fx) -> Fx {
        self.bin_op(rhs, BinOp::Mul)
    }
}

impl std::ops::Div for Fx {
    type Output = Fx;
    #[inline(always)]
    fn div(self, rhs: Fx) -> Fx {
        self.bin_op(rhs, BinOp::Div)
    }
}

impl std::ops::Neg for Fx {
    type Output = Fx;
    #[inline]
    fn neg(self) -> Fx {
        Fx {
            val: -self.val,
            vid: backend::tap(|t| t.neg(self.vid)).unwrap_or(0),
            ..self
        }
    }
}

impl PartialEq for Fx {
    fn eq(&self, other: &Self) -> bool {
        self.val == other.val
    }
}

impl PartialOrd for Fx {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.val.partial_cmp(&other.val)
    }
}

impl std::fmt::Display for Fx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.val)
    }
}

/// An array of values stored in a single runtime-chosen format — a tunable
/// "memory location" in the paper's sense (Fig. 4 counts the elements of
/// these arrays).
///
/// Loads and stores record memory-traffic events of the element width,
/// which is how narrower formats translate into fewer data-memory bytes
/// (and, inside vector sections, into packed SIMD accesses).
#[derive(Debug)]
pub struct FxArray {
    fmt: FpFormat,
    data: Vec<f64>,
    /// Id of this array on the active tape (0 = untraced).
    tid: ArrayId,
}

impl Clone for FxArray {
    /// Deep copy. Under an active tape recording the duplicate gets its
    /// own tape identity (an `ArrayDup` entry) — a derived clone would
    /// silently *alias* the original's tape array and corrupt the store
    /// tracking.
    fn clone(&self) -> Self {
        FxArray {
            fmt: self.fmt,
            data: self.data.clone(),
            tid: backend::tap(|t| t.array_clone(self.tid)).unwrap_or(0),
        }
    }
}

impl FxArray {
    /// Creates an array by rounding `values` into `fmt` (initialization;
    /// no events recorded).
    #[must_use]
    pub fn from_f64s(fmt: FpFormat, values: &[f64]) -> Self {
        let data = values.iter().map(|&x| fmt.sanitize_f64(x)).collect();
        FxArray {
            fmt,
            data,
            tid: backend::tap(|t| t.array_new(fmt, values)).unwrap_or(0),
        }
    }

    /// Creates a zero-filled array of `len` elements.
    #[must_use]
    pub fn zeros(fmt: FpFormat, len: usize) -> Self {
        FxArray {
            fmt,
            data: vec![0.0; len],
            tid: backend::tap(|t| t.array_zeros(fmt, len)).unwrap_or(0),
        }
    }

    /// The element format.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.fmt
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Loads element `i`, recording a load of the element width.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline(always)]
    #[must_use]
    pub fn get(&self, i: usize) -> Fx {
        if backend::hooked() {
            return Fx::hooked(self.get_hooked(i), self.fmt);
        }
        Fx::native(self.data[i], self.fmt)
    }

    #[inline(never)]
    fn get_hooked(&self, i: usize) -> Operand {
        let vid = backend::tap_hooked(|t| t.array_load(self.tid, i)).unwrap_or(0);
        // Loads complete in one cycle on the PULPino TCDM, so the loaded
        // value never stalls a consumer (no producer id).
        Recorder::load(self.fmt.total_bits());
        hooked_result((self.data[i], 0), vid)
    }

    /// Stores `v` into element `i`, rounding to the array's format
    /// (recording a cast when `v`'s format differs) and recording a store.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: Fx) {
        if backend::hooked() {
            self.set_hooked(i, v.fmt, v.val, v.vid);
        } else {
            self.data[i] = v.native_in(self.fmt);
        }
    }

    #[inline(never)]
    fn set_hooked(&mut self, i: usize, fmt: FpFormat, val: f64, src: ValueId) {
        let _ = backend::tap_hooked(|t| t.array_store(self.tid, i, src));
        let (val, _) = convert(fmt, (val, 0), self.fmt);
        Recorder::store(self.fmt.total_bits());
        self.data[i] = val;
    }

    /// Reads the raw values without recording events (for result
    /// extraction and quality evaluation).
    #[must_use]
    pub fn to_f64s(&self) -> Vec<f64> {
        let _ = backend::tap(|t| t.extract_array(self.tid, &self.data));
        self.data.clone()
    }

    /// Reads element `i` without recording events.
    #[inline]
    #[must_use]
    pub fn peek(&self, i: usize) -> f64 {
        let _ = backend::tap(|t| t.extract_element(self.tid, i, self.data[i]));
        self.data[i]
    }
}

/// A convenience binary32 literal: the format every off-the-shelf program
/// starts from before tuning.
#[must_use]
pub fn fx32(x: f64) -> Fx {
    Fx::new(x, BINARY32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Recorder, VectorSection};
    use tp_formats::{BINARY16, BINARY16ALT, BINARY8};

    #[test]
    fn construction_rounds_into_format() {
        assert_eq!(Fx::new(0.3, BINARY8).value(), 0.3125);
        assert_eq!(Fx::new(0.3, BINARY32).value(), 0.3f32 as f64);
    }

    #[test]
    fn same_format_arithmetic() {
        let a = Fx::new(1.5, BINARY8);
        let b = Fx::new(0.25, BINARY8);
        let c = a + b;
        assert_eq!(c.value(), 1.75);
        assert_eq!(c.format(), BINARY8);
    }

    #[test]
    fn promotion_picks_more_precise() {
        let a = Fx::new(1.0, BINARY8);
        let b = Fx::new(1.0, BINARY16);
        assert_eq!((a + b).format(), BINARY16);
        let c = Fx::new(1.0, BINARY16ALT);
        assert_eq!((a + c).format(), BINARY16ALT);
        // binary16 (m=10) beats binary16alt (m=7).
        assert_eq!((b * c).format(), BINARY16);
        assert_eq!((c * fx32(1.0)).format(), BINARY32);
    }

    #[test]
    fn promotion_records_cast() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.0, BINARY8);
            let b = Fx::new(1.0, BINARY16);
            let _ = a + b;
        });
        assert_eq!(counts.total_casts(), 1);
        assert_eq!(counts.casts.get(&(BINARY8, BINARY16)).unwrap().total(), 1);
        assert_eq!(counts.fp_ops_in(BINARY16), 1);
    }

    #[test]
    fn to_same_format_is_free() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.0, BINARY8);
            let _ = a.to(BINARY8);
        });
        assert_eq!(counts.total_casts(), 0);
    }

    #[test]
    fn dependent_pair_detection_through_values() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            let b = Fx::new(2.5, BINARY32);
            let c = a * b; // producer
            let _d = c + a; // consumer immediately follows
        });
        assert_eq!(
            counts.dependent_pairs.get(&BINARY32).map(|c| c.total()),
            Some(1)
        );

        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.5, BINARY32);
            let b = Fx::new(2.5, BINARY32);
            let c = a * b;
            let _x = b * b; // independent op fills the latency slot
            let _d = c + a; // consumer no longer adjacent to its producer
        });
        assert_eq!(counts.dependent_pairs.get(&BINARY32), None);
    }

    #[test]
    fn array_loads_and_stores() {
        let (_, counts) = Recorder::scoped(|| {
            let mut arr = FxArray::from_f64s(BINARY16, &[1.0, 2.0, 3.0]);
            let a = arr.get(0);
            let b = arr.get(1);
            arr.set(2, a + b);
            assert_eq!(arr.peek(2), 3.0);
        });
        assert_eq!(counts.loads.get(&16).unwrap().total(), 2);
        assert_eq!(counts.stores.get(&16).unwrap().total(), 1);
        assert_eq!(counts.total_fp_ops(), 1);
    }

    #[test]
    fn store_casts_when_formats_differ() {
        let (_, counts) = Recorder::scoped(|| {
            let mut arr = FxArray::zeros(BINARY8, 1);
            let v = Fx::new(1.0, BINARY32);
            arr.set(0, v);
        });
        assert_eq!(counts.casts.get(&(BINARY32, BINARY8)).unwrap().total(), 1);
        assert_eq!(counts.stores.get(&8).unwrap().total(), 1);
    }

    #[test]
    fn vector_section_marks_array_traffic() {
        let (_, counts) = Recorder::scoped(|| {
            let arr = FxArray::from_f64s(BINARY8, &[1.0, 2.0, 3.0, 4.0]);
            let _v = VectorSection::enter();
            let mut acc = Fx::zero(BINARY8);
            for i in 0..4 {
                acc = acc + arr.get(i);
            }
            assert_eq!(acc.value(), 10.0);
        });
        assert_eq!(counts.loads.get(&8).unwrap().vector, 4);
        assert_eq!(
            counts
                .ops
                .get(&(BINARY8, crate::OpKind::AddSub))
                .unwrap()
                .vector,
            4
        );
    }

    #[test]
    fn saturation_on_narrowing_cast() {
        // binary16alt value outside binary16 range saturates to infinity —
        // the effect that disqualifies binary16 for wide-range variables.
        let big = Fx::new(1e10, BINARY16ALT);
        let narrow = big.to(BINARY16);
        assert!(narrow.value().is_infinite());
    }

    #[test]
    fn comparisons_record_ops() {
        let (_, counts) = Recorder::scoped(|| {
            let a = Fx::new(1.0, BINARY8);
            let b = Fx::new(2.0, BINARY8);
            assert!(a.lt(b));
            assert!(a.le(a));
            let _ = a.min(b);
            let _ = a.max(b);
        });
        assert_eq!(
            counts
                .ops
                .get(&(BINARY8, crate::OpKind::Cmp))
                .unwrap()
                .total(),
            4
        );
    }

    #[test]
    fn wide_format_fx_is_correctly_rounded() {
        // m = 40 > 25: computing in f64 and rounding again would
        // double-round. True sum = 1 + 2^-41 + 2^-80, just above the
        // halfway point of the 41-bit grid: correct rounding goes up to
        // 1 + 2^-40, while the naive f64-then-sanitize path loses the
        // 2^-80 sticky bit and ties-to-even back down to 1.0. The
        // uninstalled path must share `Emulated`'s integer-kernel fallback.
        let wide = FpFormat::new(11, 40).unwrap();
        let a = Fx::new(1.0, wide);
        let b = Fx::new(2f64.powi(-41) + 2f64.powi(-80), wide);
        assert_eq!(b.value(), 2f64.powi(-41) + 2f64.powi(-80)); // exact operand
        assert_eq!((a + b).value(), 1.0 + 2f64.powi(-40));
    }

    #[test]
    fn min_max_values() {
        let a = Fx::new(-1.0, BINARY16);
        let b = Fx::new(2.0, BINARY16);
        assert_eq!(a.min(b).value(), -1.0);
        assert_eq!(a.max(b).value(), 2.0);
    }
}
