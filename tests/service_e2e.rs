//! End-to-end acceptance of the tuning service (ISSUE 5):
//!
//! * ≥ 8 concurrent client submissions (mixed kernels, duplicate keys
//!   included) against a server with concurrency 8;
//! * served formats bit-identical to cold direct `evaluate_app_with`-path
//!   calls at several worker counts;
//! * a repeated `SUBMIT` against a warm store executes **zero** kernel
//!   evaluations (asserted via a run counter that counts every kernel
//!   execution: searches, references, validation and trace recording);
//! * graceful shutdown accounts for every request;
//! * (ISSUE 9) the live `STATS` plane: with metrics on, a running server
//!   reports per-frame-type latency histograms and store hit/miss
//!   counters over the wire, including after a restart-and-hit pass.

use std::sync::atomic::Ordering;

use tp_bench::evaluate_app_in;
use tp_kernels::registry;
use tp_platform::PlatformParams;
use tp_serve::test_util::counting_resolver;
use tp_serve::{Client, ServeConfig, Server};
use tp_store::test_util::TempDir;
use tp_store::{tuned_record, Store};
use tp_tuner::SearchParams;

/// The eight concurrent submissions of the acceptance scenario: six
/// distinct jobs plus two duplicates (CONV and DWT appear twice).
const SUBMISSIONS: [&str; 8] = [
    "SUBMIT app=CONV:small threshold=1e-1",
    "SUBMIT app=DWT:small threshold=1e-1",
    "SUBMIT app=JACOBI:small threshold=1e-1",
    "SUBMIT app=CONV:small threshold=1e-1", // duplicate key
    "SUBMIT app=SVM:small threshold=1e-2",
    "SUBMIT app=KNN:small threshold=1e-1",
    "SUBMIT app=DWT:small threshold=1e-1", // duplicate key
    "SUBMIT app=PCA:small threshold=1e-1",
];

/// Fires all eight submissions from eight concurrent client threads and
/// returns `(spec, key, record, cache_hit)` per submission.
fn concurrent_pass(addr: &str) -> Vec<(String, String, tp_serve::JobResult)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = SUBMISSIONS
            .iter()
            .map(|spec| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (key, _state) = client.submit(spec).expect("submit");
                    let result = client.result_wait(&key).expect("result");
                    (spec.to_string(), key, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn service_acceptance_concurrent_clients_warm_store_zero_evaluations() {
    let dir = TempDir::new("e2e");
    let (resolver, runs) = counting_resolver();

    // ---- Pass 1: cold server, 8 concurrent clients, duplicates included.
    let server = Server::bind(ServeConfig {
        concurrency: 8,
        resolver: resolver.clone(),
        store: Some(Store::open_default(dir.path()).unwrap()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let pass1 = concurrent_pass(&addr);
    // Duplicate specs keyed identically and share one record.
    for (spec_a, key_a, res_a) in &pass1 {
        for (spec_b, key_b, res_b) in &pass1 {
            if spec_a == spec_b {
                assert_eq!(key_a, key_b, "{spec_a}");
                assert_eq!(res_a.record, res_b.record, "{spec_a}");
            }
        }
    }
    let mut client = Client::connect(&addr).unwrap();
    let bye = client.shutdown().unwrap();
    let stats1 = handle.join().unwrap();
    assert!(bye.starts_with("BYE"), "{bye}");
    // 6 distinct jobs; 2 joins — whether a duplicate joined in-flight or
    // arrived after completion, it never occupies a second queue slot.
    assert_eq!(stats1.submitted + stats1.deduped, 8);
    assert_eq!(stats1.submitted, 6, "duplicate keys must single-flight");
    assert_eq!(stats1.completed, 6);
    assert_eq!(stats1.failed, 0);
    assert_eq!(stats1.store_misses, 6, "cold pass must compute everything");
    let cold_runs = runs.load(Ordering::SeqCst);
    assert!(cold_runs > 0);

    // ---- Served formats are bit-identical to cold direct library calls,
    // at worker counts 1 and 3 (worker-invariance of the direct path).
    for workers in [1usize, 3] {
        for (spec, _key, result) in &pass1 {
            let app_spec = spec
                .split_whitespace()
                .find_map(|t| t.strip_prefix("app="))
                .unwrap();
            let threshold: f64 = spec
                .split_whitespace()
                .find_map(|t| t.strip_prefix("threshold="))
                .unwrap()
                .parse()
                .unwrap();
            let app = registry().resolve(app_spec).unwrap();
            let direct = tuned_record(
                app.as_ref(),
                SearchParams::paper(threshold).with_workers(workers),
            );
            assert_eq!(
                tp_serve::format_summary(&direct),
                tp_serve::format_summary(&result.record),
                "{spec} workers={workers}: served formats differ from direct"
            );
            assert_eq!(direct.storage, result.record.storage, "{spec}");
            assert_eq!(
                direct.tuned_counts, result.record.tuned_counts,
                "{spec}: tuned accounting differs"
            );
        }
    }

    // ---- Pass 2: fresh server on the same store. 100% hit rate, zero
    // kernel evaluations, bit-identical results.
    let before_warm = runs.load(Ordering::SeqCst);
    let server = Server::bind(ServeConfig {
        concurrency: 8,
        resolver,
        store: Some(Store::open_default(dir.path()).unwrap()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let pass2 = concurrent_pass(&addr);
    for (spec, key2, warm) in &pass2 {
        assert!(warm.cache_hit, "{spec}: second pass must be a store hit");
        let (_, key1, cold) = pass1.iter().find(|(s, _, _)| s == spec).unwrap();
        assert_eq!(key1, key2, "{spec}: key changed across restarts");
        assert_eq!(
            cold.record, warm.record,
            "{spec}: record not bit-stable across restarts"
        );
    }
    assert_eq!(
        runs.load(Ordering::SeqCst),
        before_warm,
        "warm pass executed kernel evaluations"
    );

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let stats2 = handle.join().unwrap();
    assert_eq!(stats2.store_hits, 6, "second pass must be 100% hits");
    assert_eq!(stats2.store_misses, 0);
    assert_eq!(stats2.failed, 0);
}

/// The live observability plane, end to end: server counters, the store
/// report and per-frame-type latency histograms all ride one `STATS`
/// frame, and they survive (indeed, demonstrate) a warm-store restart.
///
/// `force_mode` is the programmatic spelling of `TP_METRICS=on` — both
/// route through the same mode parser — and avoids mutating the process
/// environment while sibling tests run.
#[test]
fn stats_plane_reports_latency_histograms_and_store_counters() {
    use tp_store::json::Value;
    tp_obs::force_mode(tp_obs::MetricsMode::On);
    let dir = TempDir::new("e2e-stats");
    let (resolver, _runs) = counting_resolver();

    // Cold pass: compute and persist one record.
    let server = Server::bind(ServeConfig {
        concurrency: 2,
        resolver: resolver.clone(),
        store: Some(Store::open_default(dir.path()).unwrap()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=BLACKSCHOLES:small threshold=1e-1")
        .unwrap();
    let cold = client.result_wait(&key).unwrap();
    assert!(!cold.cache_hit);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Warm restart: the same SUBMIT is a store hit, and STATS sees it.
    let server = Server::bind(ServeConfig {
        concurrency: 2,
        resolver,
        store: Some(Store::open_default(dir.path()).unwrap()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    let (_, _) = client
        .submit("SUBMIT app=BLACKSCHOLES:small threshold=1e-1")
        .unwrap();
    let warm = client.result_wait(&key).unwrap();
    assert!(warm.cache_hit, "restart must serve from the store");

    let raw = client.stats().unwrap();
    let payload = Value::parse(&raw).expect("STATS must be valid JSON");
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap_or(0);

    let store = payload.get("store").expect("store section");
    assert_eq!(num(store, "hits"), 1, "{raw}");
    assert_eq!(num(store, "misses"), 0, "{raw}");
    assert_eq!(
        payload.get("metrics_mode").and_then(Value::as_str),
        Some("on"),
        "{raw}"
    );

    // Latency histograms per frame type: the SUBMIT and RESULT requests
    // above were timed, absorbed, and are visible live with non-trivial
    // quantile bounds.
    let metrics = payload.get("metrics").expect("metrics section when on");
    let hists = metrics.get("hists").expect("hists");
    for verb in ["SUBMIT", "RESULT"] {
        let hist = hists
            .get(&format!("serve.request_ns.{verb}"))
            .unwrap_or_else(|| panic!("no latency histogram for {verb}: {raw}"));
        assert!(num(hist, "count") >= 1, "{verb}: {raw}");
        let (p50, p99, p999) = (num(hist, "p50"), num(hist, "p99"), num(hist, "p999"));
        assert!(p50 > 0, "{verb}: {raw}");
        assert!(p50 <= p99 && p99 <= p999, "{verb}: {raw}");
    }
    // The decision outputs were identical all along (the determinism
    // matrix pins this); here the records must simply round-trip.
    assert_eq!(cold.record, warm.record);

    client.shutdown().unwrap();
    handle.join().unwrap();
    tp_obs::force_mode(tp_obs::MetricsMode::Off);
}

/// (ISSUE 10) Causal tracing, end to end: a traced `SUBMIT` yields one
/// span tree — the `serve.request.SUBMIT` root (no parent), the
/// cross-thread `serve.queued` wait and the worker's `serve.job_ns` as
/// its children, and the tuner's phase spans beneath — retrievable over
/// the wire with `TRACE <key>`. The trace id never enters the `JobKey`
/// (a duplicate submit with a different id joins the same job and keeps
/// the first id), and an untraced job answers `ERR no-trace`.
#[test]
fn trace_verb_returns_a_submit_rooted_span_tree() {
    use tp_store::json::Value;
    tp_obs::force_tracing(true);
    let (resolver, _runs) = counting_resolver();
    let server = Server::bind(ServeConfig {
        concurrency: 2,
        resolver,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=KNN:small threshold=1e-1 trace=ab54")
        .unwrap();
    let _ = client.result_wait(&key).unwrap();

    let raw = client.trace(&key).unwrap();
    let payload = Value::parse(&raw).expect("TRACE must be valid JSON");
    assert_eq!(
        payload.get("trace").and_then(Value::as_str),
        Some("ab54"),
        "{raw}"
    );
    let Some(Value::Arr(spans)) = payload.get("spans") else {
        panic!("no spans array: {raw}")
    };
    fn name_of(s: &Value) -> &str {
        s.get("name").and_then(Value::as_str).unwrap_or("")
    }
    let root = spans
        .iter()
        .find(|s| name_of(s) == "serve.request.SUBMIT")
        .unwrap_or_else(|| panic!("no SUBMIT root: {raw}"));
    assert!(
        root.get("parent").is_none(),
        "SUBMIT root must have no parent: {raw}"
    );
    let root_id = root.get("id").and_then(Value::as_num).unwrap();
    for child in ["serve.queued", "serve.job_ns"] {
        let span = spans
            .iter()
            .find(|s| name_of(s) == child)
            .unwrap_or_else(|| panic!("no {child} span: {raw}"));
        assert_eq!(
            span.get("parent").and_then(Value::as_num),
            Some(root_id),
            "{child} must hang off the SUBMIT root: {raw}"
        );
    }
    // The search ran inside the job: its phase spans join the same tree.
    assert!(
        spans.iter().any(|s| name_of(s).starts_with("tuner.")),
        "no tuner phase spans in the trace: {raw}"
    );

    // A duplicate submit with a *different* trace id joins the same job
    // (the id is JobKey-excluded) and the job keeps its first id.
    let (key2, _) = client
        .submit("SUBMIT app=KNN:small threshold=1e-1 trace=ffff")
        .unwrap();
    assert_eq!(key, key2, "trace id must not enter the JobKey");
    let raw2 = client.trace(&key).unwrap();
    assert_eq!(
        Value::parse(&raw2)
            .unwrap()
            .get("trace")
            .and_then(Value::as_str),
        Some("ab54"),
        "dedup join must keep the first trace id: {raw2}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
    tp_obs::force_tracing(false);

    // With tracing off and no client-supplied id, jobs carry no trace.
    let (resolver, _runs) = counting_resolver();
    let server = Server::bind(ServeConfig {
        concurrency: 1,
        resolver,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=KNN:small threshold=1e-1")
        .unwrap();
    let _ = client.result_wait(&key).unwrap();
    let err = client.trace(&key).expect_err("untraced job must not trace");
    assert!(err.to_string().contains("no-trace"), "{err}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn warm_bench_evaluation_is_bit_identical_at_any_worker_count() {
    // The library-level acceptance twin: evaluate_app_in (the entry point
    // evaluate_app_with routes through, with the store injected instead
    // of read from TP_STORE_DIR) against a warm store, at server-scale
    // worker counts.
    let dir = TempDir::new("e2e-bench");
    let store = Store::open_default(dir.path()).unwrap();
    let params = PlatformParams::paper();
    let (resolver, runs) = counting_resolver();
    let app = resolver("CONV:small").unwrap();

    let cold = evaluate_app_in(Some(&store), app.as_ref(), 1e-1, &params, 2);
    assert!(!cold.cache_hit);
    let cold_runs = runs.load(Ordering::SeqCst);

    for workers in [1usize, 4, 8, 16] {
        let warm = evaluate_app_in(Some(&store), app.as_ref(), 1e-1, &params, workers);
        assert!(warm.cache_hit, "workers={workers}");
        assert_eq!(warm.outcome, cold.outcome, "workers={workers}");
        assert_eq!(warm.storage, cold.storage, "workers={workers}");
        assert_eq!(
            warm.tuned.energy.total(),
            cold.tuned.energy.total(),
            "workers={workers}"
        );
        assert_eq!(
            runs.load(Ordering::SeqCst),
            cold_runs,
            "workers={workers}: zero-evaluation contract broken"
        );
    }
}
