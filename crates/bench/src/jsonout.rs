//! Machine-readable experiment output (`exp_* --json`).
//!
//! Reuses the `tp-store` serializer, so a bench-smoke artifact, an
//! on-disk store entry and a `tp-serve` wire payload all have the same
//! field names and the same exact-`f64` conventions — one schema across
//! every machine-readable surface. On top of each record this adds the
//! bench-level derived quantities (the normalized ratios the paper's
//! figures plot) and the cache-hit flag.

use tp_store::json::Value;
use tp_store::ser::record_to_value;
use tp_store::TuningRecord;

use crate::AppResult;

/// `true` when the binary was invoked with a `--json` argument (the only
/// flag the experiment binaries accept).
#[must_use]
pub fn want_json() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Renders a batch of evaluations as one JSON document: an array of
/// per-app objects, each embedding its full tuning record plus the
/// derived ratios.
#[must_use]
pub fn results_to_json(results: &[AppResult]) -> String {
    Value::Arr(results.iter().map(result_to_value).collect()).to_json()
}

fn result_to_value(r: &AppResult) -> Value {
    let record = TuningRecord {
        outcome: r.outcome.clone(),
        storage: r.storage.clone(),
        baseline_counts: r.baseline_counts.clone(),
        tuned_counts: r.tuned_counts.clone(),
    };
    Value::obj()
        .field("app", Value::Str(r.app.clone()))
        .field("threshold", Value::f64(r.threshold))
        .field("cache_hit", Value::Bool(r.cache_hit))
        .field("cycle_ratio", Value::f64(r.cycle_ratio()))
        .field("memory_ratio", Value::f64(r.memory_ratio()))
        .field("energy_ratio", Value::f64(r.energy_ratio()))
        .field("record", record_to_value(&record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_kernels::Conv;
    use tp_platform::PlatformParams;

    #[test]
    fn results_render_and_parse_as_store_records() {
        let r = crate::evaluate_app_in(None, &Conv::small(), 1e-1, &PlatformParams::paper(), 1);
        let text = results_to_json(std::slice::from_ref(&r));
        let doc = Value::parse(&text).expect("emitted JSON parses");
        let items = doc.as_arr().unwrap();
        assert_eq!(items.len(), 1);
        let item = &items[0];
        assert_eq!(item.get("app").unwrap().as_str(), Some("CONV"));
        assert_eq!(item.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(item.get("cycle_ratio").unwrap().as_f64().unwrap() > 0.0);
        // The embedded record is a full store record: it decodes with the
        // store deserializer and round-trips the outcome.
        let rec = tp_store::ser::record_from_value(item.get("record").unwrap()).unwrap();
        assert_eq!(rec.outcome, r.outcome);
        assert_eq!(rec.storage, r.storage);
        assert_eq!(rec.tuned_counts, r.tuned_counts);
    }
}
