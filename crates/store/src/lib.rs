//! Persistent, content-addressed storage of transprecision tuning results.
//!
//! The expensive half of the transprecision flow is the precision search;
//! its output — a per-variable format assignment plus the cycle/energy
//! accounting of the tuned program — is a small, stable artifact worth
//! computing once and serving many times (the platform-service framing of
//! the DATE 2018 paper). This crate is that artifact's home:
//!
//! * [`JobKey`] — the content address: a hash of everything the result
//!   can depend on (kernel identity and variable set, input-set count,
//!   threshold, search shape, tuner version, backend, tuner mode), and
//!   deliberately *not* the worker count (results are worker-invariant);
//! * [`TuningRecord`] — the persisted unit: tuning outcome + validated
//!   storage config + baseline/tuned trace counts, i.e. enough to rebuild
//!   a full bench result with **zero** kernel executions;
//! * [`json`] / [`ser`] — a dependency-free deterministic JSON subset and
//!   the record serializer on top of it (shared by the on-disk entries,
//!   the `tp-serve` wire protocol and the `exp_* --json` artifacts);
//! * [`Store`] — the on-disk store: atomic writes, per-entry checksums,
//!   an advisory index, LRU size-capped eviction, and
//!   corruption-tolerant reads (damaged entries are misses, never
//!   panics, never garbage);
//! * [`tuned_record`] / [`tuned_record_cached`] — the job pipeline that
//!   makes a record (search, storage mapping, baseline and tuned
//!   [`record_run`]s), optionally served from and persisted to a store;
//! * [`store_dir`] / [`store_cap`] — the `TP_STORE_DIR` / `TP_STORE_CAP`
//!   knobs, fail-fast like every `TP_*` variable.
//!
//! ```
//! use tp_store::{JobKey, Store};
//! use tp_tuner::SearchParams;
//!
//! # fn demo(record: tp_store::TuningRecord, dir: &std::path::Path) -> std::io::Result<()> {
//! let store = Store::open_default(dir)?;
//! let params = SearchParams::paper(1e-3);
//! let key = JobKey::of("CONV", &[], &params, "emulated");
//! store.put(key, &record)?;
//! assert_eq!(store.get(key).as_ref(), Some(&record));
//! # Ok(())
//! # }
//! ```
//!
//! `DESIGN.md §8` documents the layout, the keying rationale and the
//! crash-consistency argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
pub mod json;
mod key;
pub mod obs_json;
pub mod ser;
mod store;

pub use job::{record_run, tuned_record, tuned_record_cached, MEASURE_SET};
pub use key::{fnv64, JobKey};
pub use obs_json::{metrics_json, spans_json};
pub use ser::{record_from_json, record_to_json, DecodeError, TuningRecord, FORMAT_VERSION};
pub use store::{
    parse_cap, store_cap, store_dir, Store, StoreReport, StoreStats, DEFAULT_CAP_BYTES,
};

/// Test fixtures shared between this crate's unit tests and its
/// integration tests (and `tp-serve`'s). Not part of the public API.
#[doc(hidden)]
pub mod test_util {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    use flexfloat::{Recorder, TypeConfig, VarSpec};
    use tp_formats::{TypeSystem, BINARY16, BINARY32, BINARY8};
    use tp_tuner::{ReplaySummary, TunedVar, TuningOutcome};

    use crate::TuningRecord;

    /// A self-deleting temporary directory (no `tempfile` crate in the
    /// build environment).
    #[derive(Debug)]
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// Creates a unique directory under the system temp dir.
        #[must_use]
        pub fn new(tag: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "tp-store-test-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        /// The directory path.
        #[must_use]
        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fixed, fully-populated record exercising every serialized field.
    #[must_use]
    pub fn sample_record() -> TuningRecord {
        let outcome = TuningOutcome {
            app: "SAMPLE".to_owned(),
            threshold: 1e-3,
            type_system: TypeSystem::V2,
            vars: vec![
                TunedVar {
                    spec: VarSpec::array("x", 25),
                    precision_bits: 8,
                    needs_wide_range: false,
                },
                TunedVar {
                    spec: VarSpec::scalar("acc"),
                    precision_bits: 11,
                    needs_wide_range: true,
                },
            ],
            evaluations: 123,
            replay: ReplaySummary {
                traces: 3,
                replayed: 100,
                diverged: 7,
            },
        };
        let storage = TypeConfig::baseline()
            .with("x", BINARY8)
            .with("acc", BINARY16);
        let ((), baseline_counts) = Recorder::scoped(|| {
            let a = Recorder::fp_op(BINARY32, flexfloat::OpKind::Mul, 0, 0);
            let _ = Recorder::fp_op(BINARY32, flexfloat::OpKind::AddSub, a, 0);
            Recorder::load(32);
            Recorder::store(32);
            Recorder::int_ops(5);
        });
        let ((), tuned_counts) = Recorder::scoped(|| {
            let _v = flexfloat::VectorSection::enter();
            Recorder::fp_op(BINARY8, flexfloat::OpKind::Mul, 0, 0);
            Recorder::cast(BINARY32, BINARY8);
            Recorder::load(8);
        });
        TuningRecord {
            outcome,
            storage,
            baseline_counts,
            tuned_counts,
        }
    }
}
