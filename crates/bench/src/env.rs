//! The platform's environment knobs, in one place.
//!
//! Every `TP_*` variable the workspace reacts to is documented and
//! resolved here (the README's "Environment knobs" table renders this
//! module). All of them **fail fast** on invalid values — a typo must be
//! a crash at startup, not a silent fallback that shows up as a
//! mysterious performance or behavior change:
//!
//! | Variable | Values | Default | Effect |
//! |---|---|---|---|
//! | `TP_BACKEND` | `emulated`, `softfloat` | `emulated` | Process-default execution datapath (resolved in `flexfloat::Engine`; [`config`] forces that resolution up front) |
//! | `TP_WORKERS` | positive integer | `available_parallelism` | Worker threads for the tuning search and suite fan-out (`tp_tuner::resolve_workers`) |
//! | `TP_STORE_DIR` | directory path | unset (store off) | Persistent tuning-result store root; set it and warm runs skip the search |
//! | `TP_STORE_CAP` | bytes, with optional `K`/`M`/`G` suffix | `256M` | Store eviction cap (LRU beyond it) |
//! | `TP_METRICS` | `off`, `on`, `json`, `prom` | `off` | Metrics collection (`tp_obs`); `json`/`prom` also make harness binaries print a snapshot at exit. Observational only — never affects results or `JobKey`s |
//! | `TP_TRACE_EVENTS` | file path | unset (tracing off) | Causal span-tree tracing (`tp_obs::trace`); harness binaries and the daemon write the session's spans to the path as Chrome trace-event JSON at exit (load in `chrome://tracing`/Perfetto). Observational only, same contract as `TP_METRICS` |
//!
//! Each knob is *dispatch-site* parsed by the lower crate that owns it
//! (`TP_BACKEND` folds into the thread's backend slot inside `flexfloat`;
//! `TP_WORKERS` resolves inside `tp_tuner::pool`; `TP_STORE_DIR` and
//! `TP_STORE_CAP` inside `tp_store`; `TP_METRICS` and `TP_TRACE_EVENTS`
//! inside `tp_obs`), with identical spellings and the same fail-fast
//! contract. [`config`] resolves them all so the `exp_*` binaries can
//! validate and print the whole configuration up front.

use std::path::PathBuf;

use flexfloat::Engine;
use tp_store::{store_cap, store_dir, Store};

/// Resolved view of every knob, for logging a run's configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// The effective backend name as core dispatches it
    /// (`Engine::active_name`): the thread's installed backend, else
    /// `TP_BACKEND`, else `"emulated"`.
    pub backend: String,
    /// The effective worker count (`TP_WORKERS` / auto).
    pub workers: usize,
    /// The store root, if the store is enabled (`TP_STORE_DIR`).
    pub store_dir: Option<PathBuf>,
    /// The store eviction cap in bytes (`TP_STORE_CAP`).
    pub store_cap: u64,
    /// The metrics mode (`TP_METRICS` / off).
    pub metrics: tp_obs::MetricsMode,
    /// The trace-events dump path, if tracing is on (`TP_TRACE_EVENTS`).
    pub trace_events: Option<String>,
}

impl std::fmt::Display for EnvConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend={} workers={} store={} metrics={} tracing={}",
            self.backend,
            self.workers,
            match &self.store_dir {
                Some(dir) => format!("{} (cap {} bytes)", dir.display(), self.store_cap),
                None => "off".to_owned(),
            },
            self.metrics,
            match &self.trace_events {
                Some(path) => format!("on -> {path}"),
                None => "off".to_owned(),
            },
        )
    }
}

/// Resolves and validates every knob at once. Harness binaries call this
/// first, so an invalid variable aborts before any work happens.
#[must_use]
pub fn config() -> EnvConfig {
    EnvConfig {
        // Core's own `TP_BACKEND` parser, so a name core would reject at
        // the first FP op (the in-process-only `fpu`) panics here instead.
        backend: Engine::active_name().to_owned(),
        workers: crate::effective_workers(),
        store_dir: store_dir(),
        store_cap: store_cap(),
        metrics: tp_obs::MetricsMode::from_env(),
        trace_events: tp_obs::trace::trace_events_path(),
    }
}

/// Opens a fresh handle on the store `TP_STORE_DIR`/`TP_STORE_CAP`
/// describe, or `None` when the store is disabled. Each call re-reads
/// the environment and re-scans the directory — use [`shared_store`] on
/// hot paths.
///
/// # Panics
///
/// If the directory is set but cannot be opened — a configured store that
/// silently degrades to "no cache" would defeat the point of configuring
/// it.
#[must_use]
pub fn store() -> Option<Store> {
    let dir = store_dir()?;
    Some(
        Store::open(&dir, store_cap())
            .unwrap_or_else(|e| panic!("TP_STORE_DIR={}: {e}", dir.display())),
    )
}

/// The process-wide store handle the evaluation entry points route
/// through: `TP_STORE_DIR`/`TP_STORE_CAP` are resolved **once**, on
/// first use, and every subsequent caller shares the one handle (a
/// `Store` is `Sync`). Opening per call would re-scan the entries
/// directory and race index rewrites once per kernel per threshold
/// under `evaluate_suite`'s fan-out. Consequence: changing
/// `TP_STORE_DIR` mid-process is not observed on this path — use
/// [`store`] (or `evaluate_app_in`) for explicit, per-call handles.
#[must_use]
pub fn shared_store() -> Option<&'static Store> {
    static SHARED: std::sync::OnceLock<Option<Store>> = std::sync::OnceLock::new();
    SHARED.get_or_init(store).as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolves_without_env() {
        // In the default test environment no TP_* variable is set (or CI
        // sets valid ones), so the snapshot must simply resolve.
        let cfg = config();
        assert!(cfg.workers >= 1);
        assert!(!cfg.backend.is_empty());
        let shown = cfg.to_string();
        assert!(shown.contains("workers="), "{shown}");
        assert!(shown.contains("metrics="), "{shown}");
    }
}
