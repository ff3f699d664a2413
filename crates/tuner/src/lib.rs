//! Floating-point precision tuning under output-quality constraints.
//!
//! This crate reimplements the role the fpPrecisionTuning toolsuite (and its
//! DistributedSearch tool) plays in the DATE 2018 transprecision platform
//! paper: given an instrumented program ([`Tunable`]), find the minimum
//! number of precision bits each program variable needs so that the output
//! still meets a quality threshold, then map the tuned variables onto the
//! platform's storage formats (`binary8` / `binary16` / `binary16alt` /
//! `binary32`) under the V1 or V2 type system.
//!
//! The transprecision programming flow (paper Fig. 2) is:
//!
//! 1. replace FP types with per-variable [`Fx`](flexfloat::Fx) formats —
//!    done by implementing [`Tunable`], or without an impl block via
//!    [`TunableBuilder`]; programs register in a [`Registry`] so suites
//!    and the tuning service resolve them by name;
//! 2. run precision tuning — [`distributed_search`];
//! 3. map variables onto supported FP types — [`storage_config`];
//! 4. collect per-format operation statistics —
//!    [`flexfloat::Recorder`] while re-running under the mapped config;
//! 5. deploy with native types — on this platform, execute on the
//!    `tp-fpu` / `tp-platform` models.
//!
//! ```
//! use flexfloat::{Fx, TypeConfig, VarSpec};
//! use tp_tuner::{distributed_search, storage_config, SearchParams, Tunable};
//! use tp_formats::TypeSystem;
//!
//! struct Scale;
//! impl Tunable for Scale {
//!     fn name(&self) -> &str { "SCALE" }
//!     fn variables(&self) -> Vec<VarSpec> { vec![VarSpec::array("x", 16)] }
//!     fn run(&self, cfg: &TypeConfig, set: usize) -> Vec<f64> {
//!         let f = cfg.format_of("x");
//!         (0..16).map(|i| {
//!             let x = Fx::new(0.1 * (i + set) as f64, f);
//!             (x * x).value()
//!         }).collect()
//!     }
//! }
//!
//! let outcome = distributed_search(&Scale, SearchParams::paper(1e-1));
//! let config = storage_config(&outcome, TypeSystem::V2);
//! // `config` now assigns one of the four storage formats to `x`.
//! # let _ = config;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cast_aware;
mod metrics;
mod pool;
mod registry;
mod report;
mod search;
mod tunable;

/// Version of the precision-search algorithm, as seen by result caches.
///
/// A persisted [`TuningOutcome`] is only reusable while the search that
/// produced it would still produce the same answer, so `tp-store` folds
/// this number into every job key. Bump it whenever a change to this crate
/// can alter chosen formats, evaluation counts or replay summaries for
/// *some* input (new phases, different probe order, changed join rules…);
/// cached results from older versions then simply stop being found instead
/// of being served stale.
pub const TUNER_VERSION: u32 = 3;

pub use builder::{BuildError, TunableBuilder};
pub use cast_aware::{cast_aware_refine, CastAwareOutcome};
pub use metrics::{max_relative_error, relative_rms_error, sqnr_db};
pub use pool::{parallel_map, resolve_workers};
pub use registry::{KernelFactory, Registry, RegistryError, SizeVariant};
pub use report::{
    classify_variables, storage_config, validated_storage_config, PrecisionHistogram,
};
pub use search::{
    distributed_search, eval_format, ReplaySummary, SearchParams, TunedVar, TunerMode,
    TuningOutcome,
};
pub use tunable::Tunable;
