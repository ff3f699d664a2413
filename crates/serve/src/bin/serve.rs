//! The tuning daemon.
//!
//! ```text
//! serve [--addr HOST:PORT] [--store-dir DIR] [--store-cap BYTES[K|M|G]]
//!       [--concurrency N] [--queue-cap N] [--workers N]
//! ```
//!
//! Flags default to the environment knobs (`TP_STORE_DIR`,
//! `TP_STORE_CAP`, `TP_WORKERS` — see `tp_store::store_dir`,
//! `tp_store::store_cap` and `tp_tuner::resolve_workers`); without a store
//! directory the daemon still deduplicates in-memory but results do not
//! outlive the process. Prints `tp-serve listening on <addr>` once ready
//! (scripts wait for that line), serves until a client sends `SHUTDOWN`,
//! then prints the lifetime statistics and exits 0.

use std::process::ExitCode;

use tp_serve::{ServeConfig, Server};
use tp_store::Store;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut concurrency = 8usize;
    let mut store_dir = tp_store::store_dir();
    let mut store_cap = tp_store::store_cap();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--store-dir" => store_dir = Some(value("--store-dir")?.into()),
            "--store-cap" => store_cap = tp_store::parse_cap(&value("--store-cap")?)?,
            "--concurrency" => {
                concurrency = parse_positive(&value("--concurrency")?, "--concurrency")?;
            }
            "--queue-cap" => {
                config.queue_cap = parse_positive(&value("--queue-cap")?, "--queue-cap")?;
            }
            "--workers" => {
                config.total_workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an unsigned integer (0 = auto)".to_owned())?;
            }
            "--help" | "-h" => {
                println!(
                    "serve [--addr HOST:PORT] [--store-dir DIR] [--store-cap BYTES[K|M|G]]\n      [--concurrency N] [--queue-cap N] [--workers N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    config.concurrency = concurrency;
    config.store = match store_dir {
        Some(dir) => Some(
            Store::open(&dir, store_cap)
                .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))?,
        ),
        None => None,
    };

    let store_desc = match &config.store {
        Some(s) => format!("{} entries", s.stats().entries),
        None => "disabled (results die with the process)".to_owned(),
    };
    // Print the budget actually in effect (--workers resolved), not the
    // machine/env default.
    let workers_total = tp_tuner::resolve_workers(config.total_workers);
    // Resolve TP_METRICS and TP_TRACE_EVENTS up front so a bad value
    // fails at startup, not on the first instrumented request.
    let metrics = tp_obs::MetricsMode::from_env();
    let trace_desc = tp_obs::trace::trace_events_path()
        .map_or_else(|| "off".to_owned(), |path| format!("on -> {path}"));
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    println!(
        "tp-serve config: concurrency={concurrency} workers-total={workers_total} metrics={metrics} tracing={trace_desc} store: {store_desc}"
    );
    println!("tp-serve listening on {}", server.local_addr());
    let stats = server.run();
    // Writes the session's span forest as Chrome trace-event JSON when
    // TP_TRACE_EVENTS is set (no-op otherwise) — after run() so every
    // worker and handler thread has finished its spans.
    tp_obs::trace::maybe_dump();
    println!(
        "tp-serve stopped: submitted={} deduped={} rejected={} completed={} failed={} hits={} misses={} queue_hwm={}",
        stats.submitted,
        stats.deduped,
        stats.rejected,
        stats.completed,
        stats.failed,
        stats.store_hits,
        stats.store_misses,
        stats.queue_hwm
    );
    Ok(())
}

fn parse_positive(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .ok()
        .filter(|n| *n >= 1)
        .ok_or(format!("{flag} needs a positive integer"))
}
