//! The tuning daemon: accept loop, bounded single-flight job queue,
//! worker pool, graceful drain.
//!
//! # Architecture (DESIGN.md §8)
//!
//! ```text
//! clients ──TCP──▶ handler threads ──▶ job map (single-flight by JobKey)
//!                                        │ new keys
//!                                        ▼
//!                                  bounded FIFO queue ──▶ N workers
//!                                                          │
//!                                              store.get ──┤── hit: done
//!                                              (tp-store)  └── miss: search
//!                                                               + store.put
//! ```
//!
//! *Single-flight*: the job map is keyed by [`JobKey`], so a `SUBMIT`
//! whose key is already queued, running or done joins the existing job
//! instead of occupying a second queue slot — identical concurrent
//! requests cost one search, total, ever (the store extends "ever" across
//! restarts).
//!
//! *Worker budget*: like `evaluate_suite`'s two-level fan-out, the
//! server splits a total thread budget between job-level concurrency and
//! each job's own search: `concurrency` workers pull jobs, and every
//! search runs with `ceil(total_workers / concurrency)` tuner workers
//! (the search fans out over `tp_tuner::pool`). Chosen formats are
//! worker-invariant, so this split affects latency only.
//!
//! *Graceful drain*: `SHUTDOWN` flips the server into draining mode (new
//! `SUBMIT`s are refused with `ERR draining`), waits for the queue to
//! empty and every running job to settle, answers `BYE` with the final
//! statistics, and only then stops the accept loop and joins every
//! thread — no job is abandoned mid-search, no accepted request goes
//! unanswered.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tp_store::{JobKey, Store, TuningRecord};
use tp_tuner::Tunable;

use crate::proto::{parse_request, read_frame, write_frame, Request, SubmitRequest};

/// Resolves a kernel spelling to a runnable [`Tunable`]. Injectable so
/// tests can count kernel executions and deployments can serve
/// user-defined kernels; defaults to the shared kernel registry
/// ([`tp_kernels::registry`]). To serve custom kernels next to the
/// built-ins, build a [`tp_tuner::Registry`] (e.g. from
/// [`tp_kernels::default_registry`], extended with
/// [`register`](tp_tuner::Registry::register)) and wrap its
/// [`resolve`](tp_tuner::Registry::resolve) in an `Arc`.
pub type KernelResolver = Arc<dyn Fn(&str) -> Option<Box<dyn Tunable>> + Send + Sync>;

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Job-level concurrency: how many tuning jobs run at once.
    pub concurrency: usize,
    /// Queue bound: `SUBMIT`s beyond it are refused with `ERR full`.
    pub queue_cap: usize,
    /// Total tuner-thread budget, split per job (`0` = auto via
    /// `tp_tuner::resolve_workers`).
    pub total_workers: usize,
    /// The persistent result store (`None` = in-memory dedup only).
    pub store: Option<Store>,
    /// Kernel lookup.
    pub resolver: KernelResolver,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            concurrency: 2,
            queue_cap: 64,
            total_workers: 0,
            store: None,
            resolver: Arc::new(|spec: &str| tp_kernels::registry().resolve(spec)),
        }
    }
}

/// Aggregate counters, snapshotted into [`ServerStats`]. Always on
/// (plain relaxed/seq-cst atomics, independent of `TP_METRICS`); the
/// same events are mirrored into `tp_obs` when metrics are enabled.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    deduped: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    /// Deepest the queue has ever been (updated with `fetch_max` at each
    /// push, so it is exact even under concurrent submits).
    queue_hwm: AtomicU64,
}

/// A snapshot of the server's lifetime statistics (the `BYE`/`LIST`
/// numbers, and [`Server::run`]'s return value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// `SUBMIT`s that created a new job.
    pub submitted: u64,
    /// `SUBMIT`s that joined an existing job (single-flight dedup).
    pub deduped: u64,
    /// `SUBMIT`s refused because the queue was full or draining.
    pub rejected: u64,
    /// Jobs that settled successfully.
    pub completed: u64,
    /// Jobs that settled with an error.
    pub failed: u64,
    /// Completed jobs served from the persistent store.
    pub store_hits: u64,
    /// Completed jobs that had to run the search.
    pub store_misses: u64,
    /// Queue-depth high-water mark: the deepest the job queue ever got.
    /// The instantaneous depth is transient; this is the number that says
    /// whether `queue_cap` was ever close to biting.
    pub queue_hwm: u64,
}

impl ServerStats {
    fn line(self, prefix: &str) -> String {
        format!(
            "{prefix} submitted={} deduped={} rejected={} completed={} failed={} hits={} misses={} queue_hwm={}",
            self.submitted,
            self.deduped,
            self.rejected,
            self.completed,
            self.failed,
            self.store_hits,
            self.store_misses,
            self.queue_hwm
        )
    }
}

#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done {
        record: Arc<TuningRecord>,
        cache_hit: bool,
    },
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

struct Job {
    key: JobKey,
    request: SubmitRequest,
    /// Canonical kernel spec (`NAME:variant`, registered spelling) —
    /// `request.app` as the client typed it, normalized at admission.
    kernel: String,
    /// Trace id the job's spans are filed under (client-supplied or
    /// server-minted at the first SUBMIT). Observational only: a dedup
    /// join keeps the first job's id, and the id never enters the
    /// [`JobKey`]. `None` when tracing was off at admission.
    trace: Option<u64>,
    /// The SUBMIT handler's span context at admission; workers adopt it
    /// so the queue wait and the job execution stay children of the
    /// `serve.request.SUBMIT` root even though they run on other threads.
    trace_ctx: tp_obs::SpanContext,
    /// Enqueue instant for the queue-wait measurement (`serve.queue_ns`
    /// histogram + `serve.queued` span). `None` when both metrics and
    /// tracing were off at admission — then no clock is read at all.
    enqueued: Option<std::time::Instant>,
    state: Mutex<JobState>,
    settled: Condvar,
}

impl Job {
    fn state_name(&self) -> &'static str {
        self.state.lock().expect("job state poisoned").name()
    }

    fn settle(&self, next: JobState) {
        *self.state.lock().expect("job state poisoned") = next;
        self.settled.notify_all();
    }

    /// Blocks until the job is done or failed, returning the final state.
    fn wait_settled(&self) -> JobState {
        let mut state = self.state.lock().expect("job state poisoned");
        loop {
            match &*state {
                JobState::Done { .. } | JobState::Failed(_) => return state.clone(),
                _ => state = self.settled.wait(state).expect("job state poisoned"),
            }
        }
    }
}

struct Core {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Submission order, for `LIST`.
    order: Mutex<Vec<u64>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Workers sleep here; the drain waiter and shutdown also pulse it.
    queue_cv: Condvar,
    queue_cap: usize,
    running: AtomicUsize,
    draining: AtomicBool,
    stop: AtomicBool,
    counters: Counters,
    store: Option<Store>,
    resolver: KernelResolver,
    /// Per-job tuner-worker budget (the `evaluate_suite`-style split).
    workers_per_job: usize,
    /// A clone of every open connection's stream, keyed by accept order,
    /// so shutdown can unblock handler threads parked in a read on an idle
    /// connection. Each handler removes its own entry when it exits.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Core {
    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            submitted: c.submitted.load(Ordering::SeqCst),
            deduped: c.deduped.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            store_hits: c.store_hits.load(Ordering::SeqCst),
            store_misses: c.store_misses.load(Ordering::SeqCst),
            queue_hwm: c.queue_hwm.load(Ordering::SeqCst),
        }
    }

    fn lookup(&self, key_hex: &str) -> Option<Arc<Job>> {
        let key = JobKey::from_hex(key_hex)?;
        self.jobs
            .lock()
            .expect("job map poisoned")
            .get(&key.as_u64())
            .cloned()
    }

    /// `SUBMIT`: single-flight admission. Failed jobs are retried (the
    /// failure may have been transient); everything else joins.
    ///
    /// `trace_id` is the resolved id for this request (client-supplied or
    /// freshly minted by the handler); it is stored on the job for the
    /// `TRACE` verb but deliberately kept out of the key derivation.
    fn submit(
        &self,
        request: SubmitRequest,
        trace_id: Option<u64>,
    ) -> Result<(JobKey, &'static str), String> {
        let app = (self.resolver)(&request.app)
            .ok_or_else(|| format!("unknown kernel {:?}", request.app))?;
        let params = request.search_params(self.workers_per_job);
        let key = JobKey::of(
            app.name(),
            &app.variables(),
            &params,
            flexfloat::Engine::active_name(),
        );

        let mut jobs = self.jobs.lock().expect("job map poisoned");
        let retry_of_failed = match jobs.get(&key.as_u64()) {
            Some(existing) => {
                let failed = matches!(
                    &*existing.state.lock().expect("job state poisoned"),
                    JobState::Failed(_)
                );
                if !failed {
                    self.counters.deduped.fetch_add(1, Ordering::SeqCst);
                    tp_obs::counter_inc("serve.deduped");
                    return Ok((key, existing.state_name()));
                }
                // Failed jobs are retried — but the old entry is only
                // replaced once admission is assured below, so a refused
                // retry ("full"/"draining") leaves the failed state
                // observable instead of erasing it.
                true
            }
            None => false,
        };

        // Admission. `draining` transitions happen under the queue lock
        // (see `drain`), so checking it here — under the same lock — is
        // race-free: either this push lands before the drain flag flips
        // (and the drain waits for it), or the flag is visible and the
        // submit is refused. A bare atomic read outside the lock could
        // enqueue after every worker had already exited, deadlocking the
        // drain.
        let mut queue = self.queue.lock().expect("queue poisoned");
        if self.draining.load(Ordering::SeqCst) {
            self.counters.rejected.fetch_add(1, Ordering::SeqCst);
            tp_obs::counter_inc("serve.rejected_draining");
            return Err("draining".to_owned());
        }
        if queue.len() >= self.queue_cap {
            self.counters.rejected.fetch_add(1, Ordering::SeqCst);
            tp_obs::counter_inc("serve.rejected_full");
            return Err("full".to_owned());
        }

        if retry_of_failed {
            jobs.remove(&key.as_u64());
            self.order
                .lock()
                .expect("order poisoned")
                .retain(|k| *k != key.as_u64());
        }
        // Canonicalize the kernel spelling for `LIST`: the resolved
        // kernel's registered name plus an explicit variant suffix, so
        // clients see which job a lowercase/bare spec actually keyed to.
        let variant = match request.app.split_once(':') {
            Some((_, v)) => v,
            None => "paper",
        };
        let kernel = format!("{}:{variant}", app.name());
        let job = Arc::new(Job {
            key,
            request,
            kernel,
            trace: trace_id,
            trace_ctx: tp_obs::SpanContext::current(),
            enqueued: (tp_obs::enabled() || tp_obs::tracing_enabled())
                .then(std::time::Instant::now),
            state: Mutex::new(JobState::Queued),
            settled: Condvar::new(),
        });
        jobs.insert(key.as_u64(), job.clone());
        self.order
            .lock()
            .expect("order poisoned")
            .push(key.as_u64());
        queue.push_back(job);
        let depth = queue.len() as u64;
        drop(queue);
        drop(jobs);
        // Exact even under concurrent submits: every push records its own
        // observed depth, and max() over all observations is the true HWM.
        self.counters.queue_hwm.fetch_max(depth, Ordering::SeqCst);
        self.counters.submitted.fetch_add(1, Ordering::SeqCst);
        tp_obs::counter_inc("serve.submitted");
        tp_obs::gauge_set("serve.queue_depth", depth);
        self.queue_cv.notify_one();
        Ok((key, "queued"))
    }

    /// One worker's loop: pull, execute, settle; exit once stopping (or
    /// draining with an empty queue).
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        self.running.fetch_add(1, Ordering::SeqCst);
                        tp_obs::gauge_set("serve.queue_depth", queue.len() as u64);
                        break Some(job);
                    }
                    if self.stop.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue poisoned");
                }
            };
            let Some(job) = job else { return };
            // The queue wait, measured once and surfaced twice: as the
            // `serve.queue_ns` histogram (STATS) and as an explicit
            // `serve.queued` span bridging the handler thread's enqueue
            // to this worker's pickup (both no-ops when their plane is
            // off).
            if let Some(enqueued) = job.enqueued {
                let picked = std::time::Instant::now();
                let ns =
                    u64::try_from(picked.duration_since(enqueued).as_nanos()).unwrap_or(u64::MAX);
                tp_obs::observe_ns("serve.queue_ns", ns);
                tp_obs::trace::record_complete_span(
                    "serve.queued",
                    enqueued,
                    picked,
                    job.trace_ctx,
                );
            }
            job.settle(JobState::Running);
            let outcome = {
                let _trace = job.trace_ctx.adopt();
                let _span = tp_obs::Span::enter("serve.job_ns");
                self.execute(&job)
            };
            match outcome {
                Ok((record, cache_hit)) => {
                    self.counters.completed.fetch_add(1, Ordering::SeqCst);
                    tp_obs::counter_inc("serve.completed");
                    if cache_hit {
                        self.counters.store_hits.fetch_add(1, Ordering::SeqCst);
                    } else {
                        self.counters.store_misses.fetch_add(1, Ordering::SeqCst);
                    }
                    job.settle(JobState::Done {
                        record: Arc::new(record),
                        cache_hit,
                    });
                }
                Err(reason) => {
                    self.counters.failed.fetch_add(1, Ordering::SeqCst);
                    tp_obs::counter_inc("serve.failed");
                    job.settle(JobState::Failed(reason));
                }
            }
            // Flush this worker's shard (job span, completion counters,
            // and everything the search recorded on this thread) so a
            // concurrent STATS sees settled jobs, not just exited threads.
            tp_obs::absorb();
            // Decrement-and-notify under the queue mutex (the condvar's
            // predicate lock): a bare-atomic decrement could land between
            // drain()'s predicate check and its wait(), and the notify
            // would be lost — the last worker's exit would then leave the
            // drain waiting forever.
            let _queue = self.queue.lock().expect("queue poisoned");
            self.running.fetch_sub(1, Ordering::SeqCst);
            self.queue_cv.notify_all();
        }
    }

    /// Runs one job: store lookup first, search on a miss. Panics inside
    /// the search (a kernel bug, an invalid combination the parser let
    /// through) are converted to a failed job — one poisoned request must
    /// not take a worker down.
    fn execute(&self, job: &Job) -> Result<(TuningRecord, bool), String> {
        let app = (self.resolver)(&job.request.app)
            .ok_or_else(|| format!("unknown kernel {:?}", job.request.app))?;
        let params = job.request.search_params(self.workers_per_job);
        let store = self.store.as_ref();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tp_store::tuned_record_cached(store, app.as_ref(), params)
        }))
        .map_err(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "search panicked".to_owned());
            format!("search panicked: {msg}")
        })
    }

    /// `SHUTDOWN`: refuse new work, wait for queue + running to reach
    /// zero, then flip `stop`. Returns the final stats for the `BYE` line.
    ///
    /// The `draining` flag flips *under the queue lock*: it is the
    /// condvar's predicate, shared with `submit`'s admission check and
    /// the workers' exit check, so no submit can slip a job in after the
    /// workers have seen the flag and exited (see `submit`).
    fn drain(&self) -> ServerStats {
        let mut queue = self.queue.lock().expect("queue poisoned");
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        while !(queue.is_empty() && self.running.load(Ordering::SeqCst) == 0) {
            queue = self.queue_cv.wait(queue).expect("queue poisoned");
        }
        drop(queue);
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.stats()
    }
}

/// A bound (but not yet serving) tuning server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    core: Arc<Core>,
    concurrency: usize,
}

impl Server {
    /// Binds the listener and prepares the core.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let concurrency = config.concurrency.max(1);
        let total = tp_tuner::resolve_workers(config.total_workers);
        // The evaluate_suite split: job-level concurrency first, the
        // (ceiling-divided) surplus to each job's own search.
        let workers_per_job = total.div_ceil(concurrency).max(1);
        Ok(Server {
            listener,
            addr,
            core: Arc::new(Core {
                jobs: Mutex::new(HashMap::new()),
                order: Mutex::new(Vec::new()),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                queue_cap: config.queue_cap.max(1),
                running: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                counters: Counters::default(),
                store: config.store,
                resolver: config.resolver,
                workers_per_job,
                conns: Mutex::new(HashMap::new()),
            }),
            concurrency,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a client issues `SHUTDOWN`; returns the lifetime
    /// statistics. Joins every worker and handler thread before
    /// returning, so when this call exits the process owns no stray
    /// threads and every accepted request has been answered.
    pub fn run(self) -> ServerStats {
        let core = &self.core;
        std::thread::scope(|scope| {
            for _ in 0..self.concurrency {
                scope.spawn(|| core.worker_loop());
            }
            for (id, stream) in (0u64..).zip(self.listener.incoming()) {
                if core.stop.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if let Ok(clone) = stream.try_clone() {
                            core.conns.lock().expect("conns poisoned").insert(id, clone);
                        }
                        scope.spawn(move || {
                            handle_connection(core, stream);
                            core.conns.lock().expect("conns poisoned").remove(&id);
                        });
                    }
                    Err(_) => continue,
                }
            }
            // Unblock every handler still parked in a read on an idle
            // connection, so the scope join below cannot hang on a client
            // that never says goodbye.
            for (_, conn) in core.conns.lock().expect("conns poisoned").drain() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        });
        self.core.stats()
    }
}

/// Serves one client connection: frames in, frames out, until EOF.
fn handle_connection(core: &Core, stream: TcpStream) {
    let peer_writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(peer_writer);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // EOF or a broken peer
        };
        // One enabled check per request; with metrics off no clock is read.
        let started = tp_obs::enabled().then(std::time::Instant::now);
        let (verb, response) = match parse_request(&payload) {
            Err(reason) => ("INVALID", format!("ERR {reason}")),
            Ok(request) => {
                let verb = request.verb();
                (verb, respond(core, request))
            }
        };
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tp_obs::observe_ns(&format!("serve.request_ns.{verb}"), ns);
            // Handlers are long-lived (one per connection): flush per
            // request so a STATS on another connection sees this one.
            tp_obs::absorb();
        }
        let is_bye = response.starts_with("BYE");
        let written = write_frame(&mut writer, &response);
        if is_bye {
            // The acceptor may be parked in accept(); a self-connection
            // wakes it so it can observe `stop` and exit. (An accepted
            // stream's local address *is* the listener address.) This
            // must happen even when the BYE write failed — e.g. the
            // shutdown client died during the drain — or Server::run
            // would stay parked in accept() with the drain already
            // complete.
            if let Ok(addr) = reader.get_ref().local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

fn respond(core: &Core, request: Request) -> String {
    match request {
        Request::Submit(submit) => {
            // Resolve the request's trace id: the client's if it sent one
            // (joining the client-side tree), otherwise a fresh mint when
            // tracing is on server-side, otherwise none. The root span is
            // trace-only — the request histogram is recorded by
            // `handle_connection`, and arming it here too would
            // double-count SUBMIT latencies.
            let trace_id = submit
                .trace
                .or_else(|| tp_obs::tracing_enabled().then(tp_obs::trace::mint_id));
            let _root = trace_id.map(|t| tp_obs::Span::enter_traced("serve.request.SUBMIT", t));
            match core.submit(submit, trace_id) {
                Ok((key, state)) => format!("OK {} {state}", key.hex()),
                Err(reason) => format!("ERR {reason}"),
            }
        }
        Request::Status(key) => match core.lookup(&key) {
            Some(job) => format!("OK {}", job.state_name()),
            None => "ERR unknown-key".to_owned(),
        },
        Request::Result { key, wait } => match core.lookup(&key) {
            None => "ERR unknown-key".to_owned(),
            Some(job) => {
                let state = if wait {
                    job.wait_settled()
                } else {
                    job.state.lock().expect("job state poisoned").clone()
                };
                match state {
                    JobState::Done { record, cache_hit } => format!(
                        "OK cache_hit={}\n{}",
                        u8::from(cache_hit),
                        tp_store::record_to_json(&record)
                    ),
                    JobState::Failed(reason) => format!("ERR {reason}"),
                    JobState::Queued | JobState::Running => "PENDING".to_owned(),
                }
            }
        },
        Request::List => {
            let order = core.order.lock().expect("order poisoned").clone();
            let jobs = core.jobs.lock().expect("job map poisoned");
            let mut out = core.stats().line(&format!("OK n={}", order.len()));
            for key in order {
                if let Some(job) = jobs.get(&key) {
                    out.push_str(&format!(
                        "\n{} {} {} kernel={} threshold={:?}",
                        job.key.hex(),
                        job.state_name(),
                        job.request.app,
                        job.kernel,
                        job.request.threshold,
                    ));
                }
            }
            out
        }
        Request::Stats => format!("OK {}", stats_payload(core).to_json()),
        Request::Trace(key) => match core.lookup(&key) {
            None => "ERR unknown-key".to_owned(),
            Some(job) => match job.trace {
                None => "ERR no-trace".to_owned(),
                Some(trace) => format!(
                    "OK {}",
                    tp_store::spans_json(trace, &tp_obs::trace::spans_for_trace(trace)).to_json()
                ),
            },
        },
        Request::Shutdown => core.drain().line("BYE"),
    }
}

/// The `STATS` payload: server counters + live queue depth, the store's
/// [`tp_store::StoreReport`], and — when metrics are on — the process's
/// `tp_obs` snapshot in the store's deterministic JSON schema. The
/// `server` and `store` sections work with `TP_METRICS=off` too (they
/// come from always-on atomics); only `metrics` requires collection.
fn stats_payload(core: &Core) -> tp_store::json::Value {
    use tp_store::json::Value;
    let stats = core.stats();
    let queue_depth = core.queue.lock().expect("queue poisoned").len() as u64;
    let server = Value::obj()
        .field("submitted", Value::Num(stats.submitted))
        .field("deduped", Value::Num(stats.deduped))
        .field("rejected", Value::Num(stats.rejected))
        .field("completed", Value::Num(stats.completed))
        .field("failed", Value::Num(stats.failed))
        .field("store_hits", Value::Num(stats.store_hits))
        .field("store_misses", Value::Num(stats.store_misses))
        .field("queue_depth", Value::Num(queue_depth))
        .field("queue_hwm", Value::Num(stats.queue_hwm));
    let store = match core.store.as_ref() {
        Some(store) => {
            let report = store.report();
            Value::obj()
                .field("enabled", Value::Bool(true))
                .field("entries", Value::Num(report.entries))
                .field("bytes", Value::Num(report.bytes))
                .field("hits", Value::Num(report.hits))
                .field("misses", Value::Num(report.misses))
                .field("evictions", Value::Num(report.evictions))
                .field(
                    "corrupt_quarantined",
                    Value::Num(report.corrupt_quarantined),
                )
        }
        None => Value::obj().field("enabled", Value::Bool(false)),
    };
    let mode = tp_obs::mode();
    let mut payload = Value::obj()
        .field("server", server)
        .field("store", store)
        .field("metrics_mode", Value::Str(mode.as_str().to_owned()));
    if mode.is_enabled() {
        payload = payload.field("metrics", tp_store::metrics_json(&tp_obs::snapshot()));
    }
    payload
}
