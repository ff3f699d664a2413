//! In-process service tests: protocol behavior, single-flight dedup,
//! bounded queue, store-backed warmth across server restarts, graceful
//! shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use tp_kernels::registry;
use tp_serve::test_util::counting_resolver;
use tp_serve::{Client, KernelResolver, ServeConfig, Server, ServerStats};
use tp_store::test_util::TempDir;
use tp_store::Store;
use tp_tuner::{Tunable, TuningOutcome};

/// Spawns a server on a free port; returns its address and the join
/// handle yielding the final stats.
fn spawn_server(config: ServeConfig) -> (String, JoinHandle<ServerStats>) {
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: &str) -> String {
    Client::connect(addr).unwrap().shutdown().unwrap()
}

#[test]
fn submit_result_status_list_shutdown_round_trip() {
    let (resolver, _runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        concurrency: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    let (key, state) = client
        .submit("SUBMIT app=CONV:small threshold=1e-1")
        .unwrap();
    assert_eq!(key.len(), 16);
    assert!(
        ["queued", "running", "done"].contains(&state.as_str()),
        "{state}"
    );

    let result = client.result_wait(&key).unwrap();
    assert!(!result.cache_hit, "no store configured: must be computed");
    assert_eq!(result.record.outcome.app, "CONV");
    assert!(!result.record.outcome.vars.is_empty());

    assert_eq!(client.status(&key).unwrap(), "done");
    let listing = client.list().unwrap();
    assert!(listing.starts_with("OK n=1 "), "{listing}");
    assert!(listing.contains(&key), "{listing}");
    assert!(listing.contains("done CONV:small"), "{listing}");

    // Errors are answered, not dropped.
    assert!(client.status("no-such-key-here").is_err());
    assert!(client
        .submit("SUBMIT app=NOPE threshold=1e-1")
        .unwrap_err()
        .to_string()
        .contains("unknown kernel"));

    let bye = shutdown(&addr);
    assert!(bye.contains("submitted=1"), "{bye}");
    assert!(bye.contains("completed=1"), "{bye}");
    let stats = handle.join().unwrap();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn served_result_matches_direct_library_call() {
    let (resolver, _runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        concurrency: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=DWT:small threshold=1e-2")
        .unwrap();
    let served = client.result_wait(&key).unwrap();
    shutdown(&addr);
    handle.join().unwrap();

    // The cold direct library call, at a different worker count.
    let app = registry().resolve("DWT:small").unwrap();
    let direct = tp_store::tuned_record(
        app.as_ref(),
        tp_tuner::SearchParams::paper(1e-2).with_workers(1),
    );
    let formats = |o: &TuningOutcome| {
        o.vars
            .iter()
            .map(|v| (v.spec.clone(), v.precision_bits, v.needs_wide_range))
            .collect::<Vec<_>>()
    };
    assert_eq!(formats(&served.record.outcome), formats(&direct.outcome));
    assert_eq!(served.record.storage, direct.storage);
    assert_eq!(served.record.baseline_counts, direct.baseline_counts);
    assert_eq!(served.record.tuned_counts, direct.tuned_counts);
    // And the diffable CI summary agrees too.
    assert_eq!(
        tp_serve::format_summary(&served.record),
        tp_serve::format_summary(&direct)
    );
}

#[test]
fn single_flight_dedups_identical_inflight_submissions() {
    // One worker + a slow-ish kernel: the duplicates arrive while the
    // first submission is still queued or running.
    let (resolver, runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        concurrency: 1,
        ..ServeConfig::default()
    });

    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&addr).unwrap()).collect();
    let mut keys = Vec::new();
    for client in &mut clients {
        let (key, _) = client
            .submit("SUBMIT app=PCA:small threshold=1e-1")
            .unwrap();
        keys.push(key);
    }
    assert!(keys.windows(2).all(|w| w[0] == w[1]), "{keys:?}");

    // Every client gets the one shared result.
    let results: Vec<_> = clients
        .iter_mut()
        .map(|c| c.result_wait(&keys[0]).unwrap())
        .collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]));

    shutdown(&addr);
    let stats = handle.join().unwrap();
    assert_eq!(stats.submitted, 1, "one job for four submissions");
    assert_eq!(stats.deduped, 3);
    assert_eq!(stats.completed, 1);
    assert!(runs.load(Ordering::SeqCst) > 0);
}

#[test]
fn bounded_queue_refuses_excess_submissions() {
    // Slow resolver: the kernel sleeps, so the queue fills deterministically.
    let inner_resolver: KernelResolver = Arc::new(|spec: &str| {
        struct Slow(Box<dyn Tunable>);
        impl Tunable for Slow {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn variables(&self) -> Vec<flexfloat::VarSpec> {
                self.0.variables()
            }
            fn run(&self, config: &flexfloat::TypeConfig, set: usize) -> Vec<f64> {
                std::thread::sleep(std::time::Duration::from_millis(5));
                self.0.run(config, set)
            }
        }
        registry()
            .resolve(spec)
            .map(|k| Box::new(Slow(k)) as Box<dyn Tunable>)
    });
    let (addr, handle) = spawn_server(ServeConfig {
        resolver: inner_resolver,
        concurrency: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    // Distinct thresholds => distinct keys => no dedup. With cap 1 and one
    // worker, at most two jobs are admitted (one running + one queued) —
    // the rest must be refused with ERR full.
    let mut accepted = Vec::new();
    let mut refused = 0;
    for i in 0..6 {
        let spec = format!("SUBMIT app=CONV:small threshold=1e-{}", i + 1);
        match client.submit(&spec) {
            Ok((key, _)) => accepted.push(key),
            Err(e) => {
                assert!(e.to_string().contains("full"), "{e}");
                refused += 1;
            }
        }
    }
    assert!(refused >= 1, "queue bound never engaged");
    for key in &accepted {
        let _ = client.result_wait(key).unwrap();
    }
    shutdown(&addr);
    let stats = handle.join().unwrap();
    assert_eq!(stats.rejected, refused);
    assert_eq!(stats.completed as usize, accepted.len());
}

#[test]
fn warm_store_serves_across_restarts_with_zero_kernel_executions() {
    let dir = TempDir::new("serve-restart");
    let (resolver, runs) = counting_resolver();

    // First server: cold, computes and persists.
    let (addr, handle) = spawn_server(ServeConfig {
        resolver: resolver.clone(),
        store: Some(Store::open_default(dir.path()).unwrap()),
        concurrency: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key1, _) = client
        .submit("SUBMIT app=JACOBI:small threshold=1e-1")
        .unwrap();
    let cold = client.result_wait(&key1).unwrap();
    assert!(!cold.cache_hit);
    shutdown(&addr);
    handle.join().unwrap();
    let cold_runs = runs.load(Ordering::SeqCst);
    assert!(cold_runs > 0);

    // Second server, same store directory: the repeated SUBMIT is served
    // from the store with zero kernel executions.
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        store: Some(Store::open_default(dir.path()).unwrap()),
        concurrency: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key2, _) = client
        .submit("SUBMIT app=JACOBI:small threshold=1e-1")
        .unwrap();
    assert_eq!(key1, key2, "same job must key identically across restarts");
    let warm = client.result_wait(&key2).unwrap();
    assert!(warm.cache_hit, "restarted server must hit the store");
    assert_eq!(
        warm.record, cold.record,
        "served record changed across restarts"
    );
    assert_eq!(
        runs.load(Ordering::SeqCst),
        cold_runs,
        "warm SUBMIT executed the kernel"
    );
    shutdown(&addr);
    let stats = handle.join().unwrap();
    assert_eq!(stats.store_hits, 1);
    assert_eq!(stats.store_misses, 0);
}

#[test]
fn stats_frame_reports_counters_store_and_queue_hwm() {
    let dir = TempDir::new("serve-stats");
    let (resolver, _runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        store: Some(Store::open_default(dir.path()).unwrap()),
        concurrency: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=CONV:small threshold=1e-1")
        .unwrap();
    let _ = client.result_wait(&key).unwrap();

    let raw = client.stats().unwrap();
    let payload = tp_store::json::Value::parse(&raw).expect("STATS must be valid JSON");
    let server = payload.get("server").expect("server section");
    let num = |v: &tp_store::json::Value, k: &str| {
        v.get(k)
            .and_then(tp_store::json::Value::as_num)
            .unwrap_or_else(|| panic!("missing numeric field {k}"))
    };
    assert_eq!(num(server, "submitted"), 1);
    assert_eq!(num(server, "completed"), 1);
    assert!(num(server, "queue_hwm") >= 1, "{raw}");
    let store = payload.get("store").expect("store section");
    assert_eq!(
        store
            .get("enabled")
            .and_then(tp_store::json::Value::as_bool),
        Some(true)
    );
    assert_eq!(num(store, "misses"), 1, "cold submit must miss the store");
    // The metrics mode is always reported, even when metrics are off
    // (this test runs without TP_METRICS, so no `metrics` section).
    assert!(payload.get("metrics_mode").is_some(), "{raw}");

    // The queue high-water mark also rides the BYE line and final stats.
    let bye = shutdown(&addr);
    assert!(bye.contains("queue_hwm="), "{bye}");
    let stats = handle.join().unwrap();
    assert!(stats.queue_hwm >= 1);
    assert!(
        bye.contains(&format!("queue_hwm={}", stats.queue_hwm)),
        "{bye} vs {stats:?}"
    );
}

#[test]
fn failed_jobs_report_and_can_be_retried() {
    // A resolver whose kernel panics on first execution, then works.
    let attempts = Arc::new(AtomicU64::new(0));
    let counter = attempts.clone();
    let resolver: KernelResolver = Arc::new(move |spec: &str| {
        struct FlakyOnce {
            inner: Box<dyn Tunable>,
            attempts: Arc<AtomicU64>,
        }
        impl Tunable for FlakyOnce {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn variables(&self) -> Vec<flexfloat::VarSpec> {
                self.inner.variables()
            }
            fn run(&self, config: &flexfloat::TypeConfig, set: usize) -> Vec<f64> {
                if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected kernel failure");
                }
                self.inner.run(config, set)
            }
        }
        registry().resolve(spec).map(|inner| {
            Box::new(FlakyOnce {
                inner,
                attempts: counter.clone(),
            }) as Box<dyn Tunable>
        })
    });
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        concurrency: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=SVM:small threshold=1e-1")
        .unwrap();
    let err = client.result_wait(&key).unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");
    assert_eq!(client.status(&key).unwrap(), "failed");

    // A refused retry must not erase the failed job's state: fill the
    // pipeline (one running + one queued slow job saturate concurrency 1
    // and the queue bound below), then resubmit the failed key while the
    // queue is full.
    let (busy_a, _) = client
        .submit("SUBMIT app=CONV:small threshold=1e-1")
        .unwrap();
    let mut busy_b = None;
    let mut saw_full = false;
    for threshold in ["1e-2", "1e-3", "1e-4"] {
        match client.submit(&format!("SUBMIT app=CONV:small threshold={threshold}")) {
            Ok((k, _)) => busy_b = Some(k),
            Err(e) => {
                assert!(e.to_string().contains("full"), "{e}");
                // The queue really was full at this instant; the failed
                // job must still be visible, not erased by the refusal.
                match client.submit("SUBMIT app=SVM:small threshold=1e-1") {
                    Err(e2) => {
                        assert!(e2.to_string().contains("full"), "{e2}");
                        assert_eq!(
                            client.status(&key).unwrap(),
                            "failed",
                            "refused retry erased the failed job"
                        );
                        saw_full = true;
                    }
                    // The worker drained a slot between the two submits;
                    // the retry was admitted — also correct, just not
                    // the refusal window this block is probing.
                    Ok((k, _)) => assert_eq!(k, key),
                }
                break;
            }
        }
    }
    // Let the pipeline drain before the real retry below.
    let _ = client.result_wait(&busy_a).unwrap();
    if let Some(b) = busy_b {
        let _ = client.result_wait(&b).unwrap();
    }
    let _ = saw_full; // best-effort window: scheduling may close it

    // A worker survived the panic; resubmitting retries and succeeds
    // (or joins the already-successful retry from the probe above).
    let (key2, _) = client
        .submit("SUBMIT app=SVM:small threshold=1e-1")
        .unwrap();
    assert_eq!(key, key2);
    let ok = client.result_wait(&key2).unwrap();
    assert_eq!(ok.record.outcome.app, "SVM");

    shutdown(&addr);
    let stats = handle.join().unwrap();
    assert_eq!(stats.failed, 1);
    // Completed: the SVM retry plus however many CONV fillers were
    // admitted (scheduling-dependent; at least busy_a and the retry).
    assert!(stats.completed >= 2, "completed={}", stats.completed);
}

#[test]
fn shutdown_drains_queued_jobs_and_survives_idle_connections() {
    let (resolver, _runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        concurrency: 1,
        ..ServeConfig::default()
    });

    // An idle client that never speaks: must not hang the shutdown join.
    let _idle = Client::connect(&addr).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let mut keys = Vec::new();
    for threshold in ["1e-1", "1e-2"] {
        let (key, _) = client
            .submit(&format!("SUBMIT app=KNN:small threshold={threshold}"))
            .unwrap();
        keys.push(key);
    }
    // SHUTDOWN from a separate connection while jobs may still be queued:
    // the drain must complete them all before BYE.
    let bye = shutdown(&addr);
    assert!(bye.contains("completed=2"), "{bye}");
    let stats = handle.join().unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);

    // Post-drain, jobs had settled before BYE (the states were final).
    // New connections are refused (the listener is gone).
    assert!(
        Client::connect(&addr).is_err() || {
            // On some platforms the OS may briefly accept; a request must
            // then fail.
            Client::connect(&addr)
                .and_then(|mut c| c.call("LIST"))
                .is_err()
        }
    );
}

/// A long-running daemon must not hold a descriptor for every connection
/// it has ever accepted: each closed connection releases its stream once
/// its handler exits, while the server keeps running.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    use std::time::{Duration, Instant};

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }
    // Other tests in this process open and close descriptors concurrently;
    // the slack absorbs them and stays far below the 200 a leak would add.
    const SLACK: usize = 64;

    let (resolver, _runs) = counting_resolver();
    let (addr, handle) = spawn_server(ServeConfig {
        resolver,
        ..ServeConfig::default()
    });
    let baseline = open_fds();
    for _ in 0..200 {
        // One answered request per connection: it was accepted and handled.
        Client::connect(&addr).unwrap().list().unwrap();
    }
    // Handlers see EOF and exit asynchronously.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut open = open_fds();
    while open > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_fds();
    }
    assert!(
        open <= baseline + SLACK,
        "{open} descriptors open after 200 closed connections (baseline {baseline})"
    );
    shutdown(&addr);
    handle.join().unwrap();
}

#[test]
fn draining_server_refuses_new_submissions() {
    // Start a slow job, issue SHUTDOWN concurrently, then try to submit.
    let inner_resolver: KernelResolver = Arc::new(|spec: &str| {
        struct Slow(Box<dyn Tunable>);
        impl Tunable for Slow {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn variables(&self) -> Vec<flexfloat::VarSpec> {
                self.0.variables()
            }
            fn run(&self, config: &flexfloat::TypeConfig, set: usize) -> Vec<f64> {
                std::thread::sleep(std::time::Duration::from_millis(20));
                self.0.run(config, set)
            }
        }
        registry()
            .resolve(spec)
            .map(|k| Box::new(Slow(k)) as Box<dyn Tunable>)
    });
    let (addr, handle) = spawn_server(ServeConfig {
        resolver: inner_resolver,
        concurrency: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (key, _) = client
        .submit("SUBMIT app=CONV:small threshold=1e-1")
        .unwrap();

    let addr2 = addr.clone();
    let shutter = std::thread::spawn(move || shutdown(&addr2));
    // A SUBMIT racing the drain is either admitted (it beat the flag —
    // the drain then completes it), refused with "draining", or finds the
    // connection already torn down. Whatever the interleaving, nothing is
    // lost and nothing hangs.
    let late = client.submit("SUBMIT app=DWT:small threshold=1e-3");
    if let Err(e) = &late {
        let msg = e.to_string();
        assert!(
            msg.contains("draining") || !msg.contains("OK"),
            "unexpected refusal shape: {msg}"
        );
    }
    let bye = shutter.join().unwrap();
    assert!(bye.starts_with("BYE"), "{bye}");
    let stats = handle.join().unwrap();
    // The slow first job always completes; the racy second only if it was
    // admitted before the drain flag flipped.
    let admitted = 1 + u64::from(late.is_ok());
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.failed, 0);
    let _ = key;
}
