//! Scoped-thread fan-out primitives shared by the parallel search driver
//! and `tp-bench`'s suite evaluation.
//!
//! The paper runs DistributedSearch on an HPC cluster (Section V); this
//! module is the single-node rendering of that fan-out: plain
//! [`std::thread::scope`] workers pulling indices off an atomic counter.
//! No work queue survives the call, no threads outlive it, and results are
//! always returned **in index order**, which is what lets the callers
//! guarantee bit-identical outcomes at any worker count (see `DESIGN.md §5`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use flexfloat::Engine;

/// Resolves a requested worker count.
///
/// `0` means *auto*: the `TP_WORKERS` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// Any other value is taken as-is.
///
/// # Panics
///
/// A set-but-invalid `TP_WORKERS` (not a positive integer) fails fast,
/// like every other `TP_*` knob: silently falling back to the machine
/// default would hide a typo as a mysterious performance change. The full
/// knob table lives in `tp_bench::env`.
#[must_use]
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var("TP_WORKERS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("TP_WORKERS={s:?} is not a positive worker count"),
        },
        Err(std::env::VarError::NotPresent) => {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
        Err(e) => panic!("TP_WORKERS is set but unreadable: {e}"),
    }
}

/// Maps `f` over `0..n` with up to `workers` scoped threads and returns the
/// results in index order.
///
/// With `workers <= 1` (or `n <= 1`) no thread is spawned and `f` runs
/// inline, in order — the sequential and parallel paths execute the exact
/// same per-index work, only the interleaving differs. A panicking worker
/// propagates out of the call (via [`std::thread::scope`]).
///
/// The caller's active execution backend ([`flexfloat::Engine::current`])
/// is re-installed on every worker thread, so a fan-out under
/// `Engine::with(backend, ...)` evaluates every index on that backend —
/// this is what keeps tuning runs backend-generic *and* worker-count
/// invariant (backends are bit-identical, so the interleaving still cannot
/// change any result). The caller's trace context
/// ([`tp_obs::SpanContext`]) is handed over the same way, so spans
/// recorded inside workers stay children of the span that fanned out —
/// inert when tracing is off, and observational either way.
pub fn parallel_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let w = workers.min(n);
    if w <= 1 {
        return (0..n).map(f).collect();
    }
    let backend = Engine::current();
    let trace_ctx = tp_obs::SpanContext::current();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (f, next, slots) = (&f, &next, &slots);
        for _ in 0..w {
            let backend = backend.clone();
            scope.spawn(move || {
                let _trace = trace_ctx.adopt();
                let work = || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                };
                match backend {
                    Some(b) => Engine::with(b, work),
                    None => work(),
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        for workers in [0, 1, 2, 8, 64] {
            let out = parallel_map(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "{workers}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn parallel_map_runs_every_index_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = parallel_map(4, 100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn workers_inherit_the_active_backend() {
        use flexfloat::backend::SoftFloat;
        use std::sync::Arc;

        let names = Engine::with(Arc::new(SoftFloat::new()), || {
            parallel_map(4, 8, |_| Engine::active_name().to_owned())
        });
        assert!(names.iter().all(|n| n == "softfloat"), "{names:?}");
    }

    #[test]
    fn workers_inherit_the_trace_context() {
        tp_obs::force_tracing(true);
        let trace_id = tp_obs::trace::mint_id();
        let parent_id;
        {
            let _root = tp_obs::SpanContext::root_of(trace_id).adopt();
            let parent = tp_obs::Span::enter("pool.test.parent_ns");
            let ctx = tp_obs::SpanContext::current();
            assert_eq!(ctx.trace_id(), Some(trace_id));
            let _ = parallel_map(4, 8, |_| {
                drop(tp_obs::Span::enter("pool.test.child_ns"));
            });
            drop(parent);
            parent_id = tp_obs::trace::spans_for_trace(trace_id)
                .iter()
                .find(|s| s.name == "pool.test.parent_ns")
                .map(|s| s.id);
        }
        tp_obs::force_tracing(false);
        let spans = tp_obs::trace::spans_for_trace(trace_id);
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("pool.test.child"))
            .collect();
        assert_eq!(children.len(), 8, "{spans:?}");
        assert!(parent_id.is_some(), "{spans:?}");
        for child in children {
            assert_eq!(child.parent, parent_id, "{child:?}");
            assert_eq!(child.trace, Some(trace_id));
        }
    }

    #[test]
    fn resolve_workers_passthrough() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1); // auto resolves to something usable
    }
}
