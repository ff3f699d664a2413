//! Record/replay evaluation engine for the precision tuner.
//!
//! The tuning loop evaluates every candidate type assignment by re-running
//! the whole kernel, so tuning cost scales as
//! `kernels × candidates × kernel-runtime`. But the kernel's *dynamic
//! floating-point dataflow* is the same for every candidate — only the
//! formats change — so it can be captured **once** per input set and then
//! re-executed per candidate as a linear pass over an op tape, skipping
//! input generation, index arithmetic and all other non-FP work.
//!
//! The subsystem has two halves (DESIGN.md §7):
//!
//! * **Recording** — [`Trace::record`] runs the program once with a
//!   [`TraceRecorder`] installed as the thread's execution backend
//!   ([`Engine::with`]). The recorder implements the
//!   [`TapeSink`](flexfloat::TapeSink) hook surface, so the
//!   `Fx`/`FxArray` layer reports every *logical* operation — SSA value
//!   ids, pre-promotion operands, the boolean outcome of every comparison —
//!   while the arithmetic runs on the thread's datapath: natively, or on
//!   the backend the recorder wraps.
//! * **Replay** — [`Trace::replay`] re-executes the tape under a
//!   *different* candidate [`TypeConfig`], through whatever backend the
//!   calling thread has installed. Replay drives the real `Fx`/`FxArray`
//!   API, so promotion casts, recorded statistics
//!   ([`TraceCounts`](flexfloat::TraceCounts)) and backend dispatch are
//!   exact by construction, not by transcription.
//!
//! # The divergence guard
//!
//! A tape is straight-line: it is the op stream of *one* control-flow path.
//! If a recorded comparison outcome flips under the candidate's formats,
//! the program might have branched differently, so replay aborts with
//! [`Replayed::Divergent`] and the caller falls back to live execution for
//! that candidate. This is what makes replay-based tuning choose
//! **bit-identical formats** to live tuning: a replay either reproduces the
//! live run's outputs exactly (bit for bit) or refuses.
//!
//! ```
//! use flexfloat::{Fx, TypeConfig, VarSpec};
//! use tp_formats::{BINARY16, BINARY8};
//! use tp_trace::{Replayed, Trace};
//!
//! let vars = [VarSpec::scalar("x")];
//! let run = |cfg: &TypeConfig| {
//!     let x = Fx::new(1.2, cfg.format_of("x"));
//!     vec![(x * x).value()]
//! };
//!
//! let trace = Trace::record(&vars, |cfg| run(cfg)).unwrap();
//! for fmt in [BINARY8, BINARY16] {
//!     let cfg = TypeConfig::baseline().with("x", fmt);
//!     match trace.replay(&cfg) {
//!         Replayed::Output(out) => assert_eq!(out, run(&cfg)), // bit-identical
//!         Replayed::Divergent { .. } => unreachable!("straight-line program"),
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod record;
mod replay;
mod tape;

pub use record::{RecordError, TraceRecorder};
pub use replay::Replayed;
pub use tape::{FmtRef, TapeOp, Trace};

// Names used by the module docs above.
#[allow(unused_imports)]
use flexfloat::{Engine, TypeConfig};
