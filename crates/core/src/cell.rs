//! Op cells: the observable half of every FP op, written once per op
//! class. A cell records the op's [`Recorder`] event, then computes on the
//! thread's active backend, or on [`Emulated`] when the thread computes
//! natively. The hooked paths of [`Fx`](crate::Fx) and
//! [`FlexFloat`](crate::FlexFloat) and the FP arms of the `tp-isa`
//! executor all call them; the inlined fast paths, which run while
//! nothing observes, compute with the same `Emulated` methods directly
//! (DESIGN.md §6, "Dispatch cost").
//!
//! Operands are in-grid values of one format: promotion, store rounding
//! and tape taps stay with the caller. Cells take the operands' producer
//! ids (`0`: none) and return the result's, which the `Recorder` pairs
//! into `dependent_pairs`; a cast's result has no producer.

use tp_formats::FpFormat;

use crate::backend::{dispatch, native_min_max, BinOp, Emulated, FpBackend};
use crate::stats::{EventId, OpKind, Recorder};

/// A comparison predicate, false on unordered operands. `Le` and `Lt` are
/// the signaling RISC-V `fle`/`flt` (a flag-raising backend raises NV on a
/// NaN operand); `Eq` is the quiet `feq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `a <= b`.
    Le,
    /// `a < b`.
    Lt,
    /// `a == b` (`-0 == +0`), quiet.
    Eq,
}

/// Records one FP op in `fmt` whose operands came from `deps`.
#[inline(always)]
fn record(fmt: FpFormat, kind: OpKind, (a, b): (EventId, EventId)) -> EventId {
    if Recorder::is_enabled() {
        Recorder::fp_op(fmt, kind, a, b)
    } else {
        0
    }
}

/// `f` on the active backend, or on [`Emulated`] when the thread computes
/// natively.
#[inline(always)]
fn compute<R>(f: impl Fn(&dyn FpBackend) -> R) -> R {
    dispatch(&f).unwrap_or_else(|| f(&Emulated))
}

/// `a op b` in `fmt`; returns the result and its producer id.
#[inline]
#[must_use]
pub fn bin_op(
    fmt: FpFormat,
    op: BinOp,
    a: f64,
    b: f64,
    deps: (EventId, EventId),
) -> (f64, EventId) {
    let kind = match op {
        BinOp::Add | BinOp::Sub => OpKind::AddSub,
        BinOp::Mul => OpKind::Mul,
        BinOp::Div => OpKind::Div,
    };
    let id = record(fmt, kind, deps);
    (compute(|bk| bk.bin_op(fmt, op, a, b)), id)
}

/// Square root of `x` in `fmt`; returns the result and its producer id.
#[inline]
#[must_use]
pub fn sqrt(fmt: FpFormat, x: f64, dep: EventId) -> (f64, EventId) {
    let id = record(fmt, OpKind::Sqrt, (dep, 0));
    (compute(|bk| bk.sqrt(fmt, x)), id)
}

/// Fused `a * b + c` in `fmt`, one rounding. Its one caller,
/// [`FlexFloat`](crate::FlexFloat), carries no producer ids, so the event
/// names none.
#[inline]
#[must_use]
pub fn fma(fmt: FpFormat, a: f64, b: f64, c: f64) -> f64 {
    record(fmt, OpKind::Fma, (0, 0));
    compute(|bk| bk.fma(fmt, a, b, c))
}

/// `x` converted from `from` to `to`, recorded as a cast. The result has
/// no producer.
#[inline]
#[must_use]
pub fn cast(from: FpFormat, to: FpFormat, x: f64) -> f64 {
    if Recorder::is_enabled() {
        Recorder::cast(from, to);
    }
    compute(|bk| bk.cast(from, to, x))
}

/// RISC-V `fmin` (`want_min`) or `fmax` in `fmt`, recorded as a
/// comparison; returns the result and its producer id.
#[inline]
#[must_use]
pub fn min_max(
    fmt: FpFormat,
    a: f64,
    b: f64,
    want_min: bool,
    deps: (EventId, EventId),
) -> (f64, EventId) {
    let id = record(fmt, OpKind::Cmp, deps);
    let val = dispatch(|bk| {
        if want_min {
            bk.min(fmt, a, b)
        } else {
            bk.max(fmt, a, b)
        }
    })
    .unwrap_or_else(|| native_min_max(a, b, want_min));
    (val, id)
}

/// The predicate `a op b` in `fmt`, recorded as a comparison.
#[inline]
#[must_use]
pub fn cmp(fmt: FpFormat, op: CmpOp, a: f64, b: f64, deps: (EventId, EventId)) -> bool {
    // Generic, not `&dyn`: with the method picked at run time, a call
    // through `Emulated`'s vtable would not inline.
    fn on(bk: &(impl FpBackend + ?Sized), fmt: FpFormat, op: CmpOp, a: f64, b: f64) -> bool {
        match op {
            CmpOp::Le => bk.le(fmt, a, b),
            CmpOp::Lt => bk.lt(fmt, a, b),
            CmpOp::Eq => bk.eq(fmt, a, b),
        }
    }
    record(fmt, OpKind::Cmp, deps);
    dispatch(|bk| on(bk, fmt, op, a, b)).unwrap_or_else(|| on(&Emulated, fmt, op, a, b))
}
