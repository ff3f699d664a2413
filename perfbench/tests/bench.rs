//! The benchmark's own tests: every workload at minimal size, seeded
//! request lists, exact counts that repeat, and metric names that match
//! `BENCHMARK.json`. Run with `cargo test --release` from `perfbench/`.

use std::sync::{Mutex, PoisonError};

use perfbench::layers::per_layer;
use perfbench::plan::{Kind, Request};
use perfbench::run::{end_to_end, Prepared};
use perfbench::{Outcome, Plan, Workload};

/// Metrics that are counts or deterministic ratios: identical on every
/// run and seed.
const EXACT: [&str; 12] = [
    "energy_ratio",
    "tuner.evaluations",
    "tuner.replayed",
    "tuner.diverged",
    "trace.entries",
    "core.ops_per_run",
    "isa.retired",
    "serve.store_hits",
    "serve.store_misses",
    "serve.deduped",
    "kernels.runs",
    "store.hit_ratio",
];

/// Runs that time things take turns, so parallel tests do not skew the
/// reconciliation.
static SERIAL: Mutex<()> = Mutex::new(());

/// Both runs of a minimal plan; the traced run gets a second so its
/// fastest observations settle.
fn run(workload: Workload, seed: u64) -> (Outcome, Outcome) {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let e2e = end_to_end(&Plan::minimal(workload), seed, 0.0).expect("untraced run");
    let prepared = Prepared::new(Plan::minimal(workload), seed).expect("prepare");
    let layers = per_layer(&prepared, 1.0).expect("traced run");
    (e2e, layers)
}

/// The metric names `BENCHMARK.json` lists under `section` (the file
/// lists `workloads`, `end_to_end` and `per_layer` in that order, every
/// entry led by its `"name"`).
fn listed(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = ["\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|next| text[start + 1..].find(next).map(|at| start + 1 + at))
        .min()
        .unwrap_or(text.len());
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_owned())
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn every_workload_runs_correctly_at_minimal_size() {
    for workload in Workload::ALL {
        let (e2e, layers) = run(workload, 3);
        for outcome in [&e2e, &layers] {
            assert!(outcome.correct(), "{workload:?}: {}", outcome.table());
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{workload:?}"
            );
        }
        assert_eq!(names(&e2e), listed("end_to_end"), "{workload:?}");
        assert_eq!(names(&layers), listed("per_layer"), "{workload:?}");
        for name in ["round_s", "cold_p50_ms", "setup_s"] {
            assert!(e2e.get(name).unwrap() > 0.0, "{workload:?} {name}");
        }
        assert_eq!(layers.get("store.hit_ratio"), Some(1.0), "{workload:?}");
        assert_eq!(layers.get("serve.failed"), Some(0.0), "{workload:?}");
        let unattributed = layers.get("bench.unattributed_share").unwrap();
        assert!(
            unattributed.abs() < 0.5,
            "{workload:?}: cold jobs do not reconcile: {unattributed}"
        );
    }
}

#[test]
fn exact_metrics_repeat_across_runs_and_seeds() {
    for workload in Workload::ALL {
        let runs = [run(workload, 1), run(workload, 1), run(workload, 2)];
        for name in EXACT {
            let values: Vec<f64> = runs
                .iter()
                .map(|(e2e, layers)| e2e.get(name).or_else(|| layers.get(name)).expect(name))
                .collect();
            assert!(
                values.iter().all(|v| *v == values[0]),
                "{workload:?} {name}: {values:?}"
            );
        }
    }
}

#[test]
fn one_seed_gives_one_request_list() {
    for workload in Workload::ALL {
        let plan = Plan::new(workload);
        for round in 0..3 {
            assert_eq!(plan.round(9, round), plan.round(9, round), "{workload:?}");
        }
        assert_ne!(
            plan.round(9, 0),
            plan.round(10, 0),
            "{workload:?}: the seed shuffles"
        );
        assert_ne!(
            plan.round(9, 0),
            plan.round(9, 1),
            "{workload:?}: each round reshuffles"
        );
    }
}

#[test]
fn every_round_sends_the_same_multiset() {
    let multiset = |plan: &Plan, seed, round| {
        let mut requests: Vec<(usize, Kind)> = plan
            .round(seed, round)
            .iter()
            .flat_map(|s| s.requests.iter().map(|&Request { job, kind }| (job, kind)))
            .collect();
        requests.sort_unstable();
        requests
    };
    for workload in Workload::ALL {
        let plan = Plan::new(workload);
        let first = multiset(&plan, 4, 0);
        for round in 1..4 {
            assert_eq!(
                multiset(&plan, 4, round),
                first,
                "{workload:?} round {round}"
            );
        }
    }
}

#[test]
fn warm_repeats_follow_their_first_request() {
    for seed in 0..20 {
        let plan = Plan::new(Workload::Service);
        for segment in plan.round(seed, 0) {
            for (at, request) in segment.requests.iter().enumerate() {
                if request.kind == Kind::Warm {
                    assert!(
                        segment.requests[..at]
                            .iter()
                            .any(|r| r.job == request.job && r.kind != Kind::Warm),
                        "seed {seed}: warm repeat before its job was sent"
                    );
                }
            }
        }
    }
}
