//! Record/replay engine: a kernel's floating-point dataflow captured once
//! per input set as an op tape, then re-executed under other type
//! configurations.
//!
//! The precision tuner does not use it: it runs every candidate live
//! behind a per-search verdict memo (DESIGN.md §10). This crate serves
//! only perfbench's `trace.*` layer timings and the equivalence tests
//! (`tests/replay_equivalence.rs`, `tests/interpreter_equivalence.rs`);
//! ROADMAP item 2 deletes it once perfbench stops naming it.
//!
//! The subsystem has two halves (DESIGN.md §7):
//!
//! * **Recording** — [`Trace::record`] runs the program once with a
//!   [`TraceRecorder`] installed as the thread's execution backend
//!   ([`Engine::with`]). The recorder implements the
//!   [`TapeSink`](flexfloat::TapeSink) hook surface, so the
//!   `Fx`/`FxArray` layer reports every *logical* operation — SSA value
//!   ids, pre-promotion operands, the boolean outcome of every comparison —
//!   while the arithmetic runs on the native datapath.
//! * **Replay** — [`Trace::replay`] re-executes the tape under a
//!   *different* candidate [`TypeConfig`] in a raw interpreter: plain
//!   `f64` values and format slots, with the promotion, rounding and
//!   comparison rules of the native `Fx` datapath inlined. A replay emits
//!   no [`Recorder`](flexfloat::Recorder) events and calls no installed
//!   backend.
//!
//! # The divergence guard
//!
//! A tape is straight-line: it is the op stream of *one* control-flow path.
//! If a recorded comparison outcome flips under the candidate's formats,
//! the program might have branched differently, so replay aborts with
//! [`Replayed::Divergent`] and the caller falls back to live execution for
//! that candidate. A replay therefore either reproduces the live run's
//! outputs exactly (bit for bit) or refuses.
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
