//! Driving an in-process `tp_serve::Server` over one closed-loop client
//! connection: server lifecycles, store preparation, and the checked
//! SUBMIT→RESULT exchange.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tp_serve::{Client, KernelResolver, ServeConfig, Server, ServerStats};
use tp_store::{Store, TuningRecord};

use crate::plan::{Kind, Plan, Request, Segment, StorePrep};

/// The default resolver: the shared kernel registry.
#[must_use]
pub fn registry_resolver() -> KernelResolver {
    Arc::new(|spec: &str| tp_kernels::registry().resolve(spec))
}

/// The run's scratch directories, removed when dropped.
pub struct Workdir {
    root: PathBuf,
}

impl Workdir {
    /// Creates a fresh directory under `.perfbench_work/` in the current
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create() -> io::Result<Workdir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = Path::new(".perfbench_work").join(format!("{}-{nanos}", std::process::id()));
        fs::create_dir_all(&root)?;
        Ok(Workdir { root })
    }

    /// The live store directory servers open.
    #[must_use]
    pub fn store(&self) -> PathBuf {
        self.root.join("store")
    }

    /// The pre-filled snapshot the service mix restores each round.
    #[must_use]
    pub fn snapshot(&self) -> PathBuf {
        self.root.join("snapshot")
    }

    /// A directory for direct store calls.
    #[must_use]
    pub fn scratch(&self) -> PathBuf {
        self.root.join("scratch")
    }

    /// Prepares the live store, untimed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn prepare(&self, prep: StorePrep) -> io::Result<()> {
        match prep {
            StorePrep::Keep => Ok(()),
            StorePrep::Fresh => remove_if_present(&self.store()),
            StorePrep::Snapshot => {
                remove_if_present(&self.store())?;
                copy_tree(&self.snapshot(), &self.store())
            }
        }
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Removes the parent too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn remove_if_present(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// A started server and the benchmark's one client connection to it.
pub struct Running {
    client: Client,
    thread: JoinHandle<ServerStats>,
}

impl Running {
    /// Opens the store at `dir`, binds a server with one job worker and
    /// one tuner worker, and waits for its first reply. Also returns how
    /// long `Server::bind` alone took.
    ///
    /// # Errors
    ///
    /// Propagates store, bind and connection failures.
    pub fn start(dir: &Path, resolver: KernelResolver) -> io::Result<(Running, Duration)> {
        let store = Store::open_default(dir)?;
        let bind_started = Instant::now();
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            concurrency: 1,
            queue_cap: 64,
            total_workers: 1,
            store: Some(store),
            resolver,
        })?;
        let bind = bind_started.elapsed();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr)?;
        client.stats()?;
        Ok((Running { client, thread }, bind))
    }

    /// The client connection.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Drains the server and joins its thread.
    ///
    /// # Errors
    ///
    /// Propagates the `SHUTDOWN` exchange's failure; a panicked server
    /// thread is reported as an error too.
    pub fn stop(mut self) -> io::Result<ServerStats> {
        self.client.shutdown()?;
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))
    }
}

/// One timed SUBMIT→RESULT exchange.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    /// SUBMIT round trip.
    pub submit: Duration,
    /// RESULT round trip, including the client's record decode.
    pub result: Duration,
}

impl Exchange {
    /// SUBMIT→RESULT.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.submit + self.result
    }
}

/// Sends `line` and waits for its result; returns the timing, the record
/// and the server's `cache_hit` flag.
///
/// # Errors
///
/// Any `ERR`, refusal or I/O failure.
fn exchange(client: &mut Client, line: &str) -> io::Result<(Exchange, TuningRecord, bool)> {
    let started = Instant::now();
    let (key, _state) = client.submit(line)?;
    let submitted = Instant::now();
    let result = client.result_wait(&key)?;
    let done = Instant::now();
    Ok((
        Exchange {
            submit: submitted - started,
            result: done - submitted,
        },
        result.record,
        result.cache_hit,
    ))
}

/// The outcome of one request, as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`Plan::jobs`].
    pub job: usize,
    /// The expected kind.
    pub kind: Kind,
    /// Timing, or `None` if the request failed or was wrong.
    pub timing: Option<Exchange>,
}

/// What one segment produced.
#[derive(Debug, Clone)]
pub struct SegmentRun {
    /// `Server::bind` of the segment's server.
    pub bind: Duration,
    /// One sample per request, in sending order.
    pub samples: Vec<Sample>,
    /// The server's lifetime statistics.
    pub stats: ServerStats,
    /// Store hits the server reported just before shutdown.
    pub store_hits: u64,
    /// Requests that failed, or whose result or counters were wrong.
    pub failed: u64,
}

/// Called after every successful exchange.
pub type AfterExchange<'a> = &'a mut dyn FnMut(&Request, &Exchange);

/// Runs one segment: prepares the store, starts a server, sends every
/// request, checks every reply against `expected`, stops the server and
/// checks its counters.
///
/// # Errors
///
/// Infrastructure failures (store preparation, server start/stop). Wrong
/// or refused replies are counted in [`SegmentRun::failed`] instead.
pub fn run_segment(
    plan: &Plan,
    segment: &Segment,
    workdir: &Workdir,
    resolver: KernelResolver,
    expected: &[TuningRecord],
    after: AfterExchange<'_>,
) -> io::Result<SegmentRun> {
    workdir.prepare(segment.prep)?;
    let (mut server, bind) = Running::start(&workdir.store(), resolver)?;
    let mut samples = Vec::with_capacity(segment.requests.len());
    let mut failed = 0;
    // A job's first request on this server decides its cache_hit flag.
    let mut first_hit: HashMap<usize, bool> = HashMap::new();
    for request in &segment.requests {
        let job = &plan.jobs[request.job];
        let expect_hit = match request.kind {
            Kind::Cold => false,
            Kind::Hit => true,
            Kind::Warm => *first_hit.get(&request.job).unwrap_or(&true),
        };
        first_hit.entry(request.job).or_insert(expect_hit);
        let timing = match exchange(server.client(), &job.submit_line()) {
            Ok((timing, record, hit)) if hit == expect_hit && record == expected[request.job] => {
                after(request, &timing);
                Some(timing)
            }
            Ok((_, _, hit)) => {
                eprintln!(
                    "mismatch: {} ({:?}) cache_hit={hit} or record differs",
                    job.label(),
                    request.kind
                );
                None
            }
            Err(e) => {
                eprintln!("failed: {} ({:?}): {e}", job.label(), request.kind);
                None
            }
        };
        failed += u64::from(timing.is_none());
        samples.push(Sample {
            job: request.job,
            kind: request.kind,
            timing,
        });
    }
    let store_hits = store_hits(server.client())?;
    let stats = server.stop()?;
    let count = |kind: Kind| samples.iter().filter(|s| s.kind == kind).count() as u64;
    let want = (count(Kind::Cold), count(Kind::Hit), count(Kind::Warm));
    let got = (stats.store_misses, stats.store_hits, stats.deduped);
    if got != want || stats.failed != 0 || stats.rejected != 0 || store_hits != want.1 {
        eprintln!(
            "server counters: misses/hits/deduped {got:?}, store hits {store_hits}, \
             failed {}, rejected {}; expected {want:?}",
            stats.failed, stats.rejected
        );
        failed += 1;
    }
    Ok(SegmentRun {
        bind,
        samples,
        stats,
        store_hits,
        failed,
    })
}

/// The store's lifetime hit tally from the server's `STATS` reply.
fn store_hits(client: &mut Client) -> io::Result<u64> {
    let text = client.stats()?;
    tp_store::json::Value::parse(&text)
        .ok()
        .and_then(|v| v.get("store")?.get("hits")?.as_num())
        .ok_or_else(|| io::Error::other(format!("STATS reply without store hits: {text}")))
}
