//! The tuning-job pipeline: search, storage mapping and the two recorded
//! runs that make one [`TuningRecord`], optionally routed through a
//! [`Store`].
//!
//! This is the paper's flow end to end (Sections II–III): DistributedSearch
//! tunes every variable's precision, the result is mapped onto the
//! platform's storage formats, and the baseline and tuned runs are
//! recorded. The `tp-serve` daemon, the `exp_*` harness and the tests all
//! call it here.

use flexfloat::{Engine, Recorder, TraceCounts, TypeConfig};
use tp_tuner::{distributed_search, validated_storage_config, SearchParams, Tunable};

use crate::{JobKey, Store, TuningRecord};

/// Input set used for the measured (post-tuning) runs.
pub const MEASURE_SET: usize = 0;

/// Records one run of `app` under `config` on the measurement input set.
///
/// Uses [`Recorder::scoped`], so it is safe on worker threads and inside an
/// enclosing recording (which continues unharmed, blind to this run).
#[must_use]
pub fn record_run(app: &dyn Tunable, config: &TypeConfig) -> TraceCounts {
    let ((), counts) = Recorder::scoped(|| {
        let _ = app.run(config, MEASURE_SET);
    });
    counts
}

/// Tunes `app` under `search` and captures the full persistable artifact:
/// the outcome, the *validated* storage mapping, and the baseline/tuned
/// trace counts — everything a warm consumer needs to rebuild a bench
/// result without executing the kernel again.
#[must_use]
pub fn tuned_record(app: &dyn Tunable, search: SearchParams) -> TuningRecord {
    let outcome = distributed_search(app, search);
    let storage = validated_storage_config(app, &outcome, search.type_system, search.input_sets);
    let baseline_counts = record_run(app, &TypeConfig::baseline());
    let tuned_counts = record_run(app, &storage);
    TuningRecord {
        outcome,
        storage,
        baseline_counts,
        tuned_counts,
    }
}

/// [`tuned_record`], routed through an optional result [`Store`]: a hit
/// skips the search (and every other kernel execution) entirely; a miss
/// computes and persists. Returns the record and whether it was a hit.
///
/// The [`JobKey`] covers the app's identity (name + variable set), the
/// search parameters, the calling thread's active backend and the tuner
/// version — and deliberately not the worker count (results are
/// worker-invariant; see the key module). A failed `put` is swallowed: a
/// broken cache must degrade to "compute every time", not take the
/// evaluation down with it.
#[must_use]
pub fn tuned_record_cached(
    store: Option<&Store>,
    app: &dyn Tunable,
    search: SearchParams,
) -> (TuningRecord, bool) {
    let Some(store) = store else {
        return (tuned_record(app, search), false);
    };
    let key = JobKey::of(app.name(), &app.variables(), &search, Engine::active_name());
    if let Some(record) = store.get(key) {
        return (record, true);
    }
    let record = tuned_record(app, search);
    let _ = store.put(key, &record);
    (record, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use crate::FORMAT_VERSION;
    use flexfloat::{Fx, VarSpec};

    /// Two variables, one product: enough for a search to narrow something.
    struct Tiny;

    impl Tunable for Tiny {
        fn name(&self) -> &str {
            "TINY"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::scalar("a"), VarSpec::scalar("b")]
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            let a = Fx::new(1.1 + input_set as f64, config.format_of("a"));
            let b = Fx::new(0.3, config.format_of("b"));
            vec![(a * b).value()]
        }
    }

    #[test]
    fn failed_put_is_swallowed() {
        let dir = TempDir::new("job-failed-put");
        let store = Store::open_default(dir.path()).unwrap();
        std::fs::remove_dir_all(dir.path().join(format!("v{FORMAT_VERSION}/entries"))).unwrap();
        let search = SearchParams::paper(1e-2).with_workers(1);

        let (record, hit) = tuned_record_cached(Some(&store), &Tiny, search);
        assert!(!hit);
        assert_eq!(record, tuned_record(&Tiny, search));
        // Nothing was stored, so the same job misses again.
        let (again, hit) = tuned_record_cached(Some(&store), &Tiny, search);
        assert!(!hit);
        assert_eq!(again, record);
    }
}
