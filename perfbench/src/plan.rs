//! What a run sends: the workloads, their jobs, and the seeded request
//! list of every round.
//!
//! A round is identical work every time — the same multiset of requests
//! against a store prepared outside the timed window. The seed only
//! shuffles the order per round and picks which repeats the service mix
//! sends (once per run, so every round sends the same repeats).

use tp_bench::THRESHOLDS;
use tp_tuner::{SearchParams, Tunable, TunerMode};

/// The seven kernels whose recordings hold no comparisons.
const STRAIGHT: [&str; 7] = ["CONV", "DWT", "JACOBI", "GEMM", "FFT", "MLP", "SVM"];
/// The three kernels whose recorded comparisons flip under narrow formats.
const BRANCHY: [&str; 3] = ["KNN", "PCA", "BLACKSCHOLES"];
/// Threshold of the service mix's cold jobs: a key no snapshot holds.
const SERVICE_COLD_THRESHOLD: f64 = 3e-2;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Straight-line kernels at paper size: replay-dominated tuning.
    Straight,
    /// Branchy kernels at paper size: live-fallback-dominated tuning.
    Branchy,
    /// Every kernel at small size, mostly stored keys: serve and store.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Straight, Workload::Branchy, Workload::Service];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Straight => "straight",
            Workload::Branchy => "branchy",
            Workload::Service => "service",
        }
    }
}

/// One tuning job: a kernel spelling, a threshold and a tuner mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Registry spelling (`"CONV"`, `"KNN:small"`).
    pub app: String,
    /// Quality threshold.
    pub threshold: f64,
    /// Tuner mode.
    pub mode: TunerMode,
}

impl Job {
    fn new(app: String, threshold: f64, mode: TunerMode) -> Job {
        Job {
            app,
            threshold,
            mode,
        }
    }

    /// The `SUBMIT` payload for this job.
    #[must_use]
    pub fn submit_line(&self) -> String {
        format!(
            "SUBMIT app={} threshold={} mode={}",
            self.app, self.threshold, self.mode
        )
    }

    /// The search parameters the server derives from [`Job::submit_line`]
    /// with one tuner worker.
    #[must_use]
    pub fn params(&self) -> SearchParams {
        SearchParams::paper(self.threshold)
            .with_workers(1)
            .with_mode(self.mode)
            .with_batch(true)
    }

    /// A fresh instance of the job's kernel.
    ///
    /// # Panics
    ///
    /// Panics if the registry does not know the spelling (a plan bug).
    #[must_use]
    pub fn tunable(&self) -> Box<dyn Tunable> {
        tp_kernels::registry()
            .resolve(&self.app)
            .unwrap_or_else(|| panic!("registry resolves {}", self.app))
    }

    /// A short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}/{}", self.app, self.threshold, self.mode)
    }
}

/// How the store directory is prepared, untimed, before a server starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePrep {
    /// An empty store.
    Fresh,
    /// The previous segment's store, as it left it.
    Keep,
    /// A copy of the pre-filled snapshot.
    Snapshot,
}

/// What a request should find on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Neither store nor memory holds it: a search runs.
    Cold,
    /// The store holds it; the freshly started server reads it.
    Hit,
    /// Already settled in the running server's memory.
    Warm,
}

/// One SUBMIT→RESULT exchange: a job (index into [`Plan::jobs`]) and the
/// kind the benchmark expects it to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Plan::jobs`].
    pub job: usize,
    /// What the server should find.
    pub kind: Kind,
}

/// One server lifetime: store preparation, then requests in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// How the store is prepared before the server starts.
    pub prep: StorePrep,
    /// The requests, in sending order.
    pub requests: Vec<Request>,
}

/// A workload made concrete: its distinct jobs and round shape.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Every distinct job.
    pub jobs: Vec<Job>,
    /// Jobs the store holds when a round's hits are sent.
    pub stored: Vec<usize>,
    /// Jobs that miss store and memory every round.
    pub cold: Vec<usize>,
    /// Restart passes per round (`straight`/`branchy`).
    pub restarts: usize,
    /// Warm passes per round on the last restarted server.
    pub warm_passes: usize,
    /// Warm repeats per round in the service mix.
    pub repeats: usize,
    /// Whether the ISA twins and kernels run at small size.
    pub small: bool,
}

impl Plan {
    /// The full-size plan of `workload`.
    #[must_use]
    pub fn new(workload: Workload) -> Plan {
        match workload {
            Workload::Straight => Plan::tuning(workload, &STRAIGHT, "", &THRESHOLDS, 3, 3),
            Workload::Branchy => Plan::tuning(workload, &BRANCHY, "", &THRESHOLDS, 4, 4),
            Workload::Service => {
                let names: Vec<&str> = STRAIGHT.iter().chain(&BRANCHY).copied().collect();
                Plan::service(&names, &THRESHOLDS, 60)
            }
        }
    }

    /// A minimal plan of `workload` with the same round shape, for tests.
    #[must_use]
    pub fn minimal(workload: Workload) -> Plan {
        match workload {
            Workload::Straight => Plan::tuning(workload, &["DWT", "FFT"], ":small", &[1e-1], 1, 1),
            Workload::Branchy => Plan::tuning(workload, &["KNN"], ":small", &[1e-1], 1, 1),
            Workload::Service => Plan::service(&["DWT", "KNN"], &[1e-1], 4),
        }
    }

    fn tuning(
        workload: Workload,
        names: &[&str],
        variant: &str,
        thresholds: &[f64],
        restarts: usize,
        warm_passes: usize,
    ) -> Plan {
        let jobs: Vec<Job> = names
            .iter()
            .flat_map(|name| {
                thresholds
                    .iter()
                    .map(move |&t| Job::new(format!("{name}{variant}"), t, TunerMode::Replay))
            })
            .collect();
        let all: Vec<usize> = (0..jobs.len()).collect();
        Plan {
            workload,
            jobs,
            stored: all.clone(),
            cold: all,
            restarts,
            warm_passes,
            repeats: 0,
            small: !variant.is_empty(),
        }
    }

    fn service(names: &[&str], thresholds: &[f64], repeats: usize) -> Plan {
        let mut jobs = Vec::new();
        for name in names {
            for &t in thresholds {
                for mode in [TunerMode::Live, TunerMode::Replay] {
                    jobs.push(Job::new(format!("{name}:small"), t, mode));
                }
            }
        }
        let stored: Vec<usize> = (0..jobs.len()).collect();
        let cold_from = jobs.len();
        for name in names {
            jobs.push(Job::new(
                format!("{name}:small"),
                SERVICE_COLD_THRESHOLD,
                TunerMode::Replay,
            ));
        }
        Plan {
            workload: Workload::Service,
            cold: (cold_from..jobs.len()).collect(),
            jobs,
            stored,
            restarts: 0,
            warm_passes: 0,
            repeats,
            small: true,
        }
    }

    /// The segments of round `round` under `seed`.
    #[must_use]
    pub fn round(&self, seed: u64, round: u64) -> Vec<Segment> {
        let mut rng = Rng::new(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pass = |rng: &mut Rng, jobs: &[usize], kind: Kind| {
            let mut requests: Vec<Request> =
                jobs.iter().map(|&job| Request { job, kind }).collect();
            rng.shuffle(&mut requests);
            requests
        };
        match self.workload {
            Workload::Straight | Workload::Branchy => {
                let mut segments = vec![Segment {
                    prep: StorePrep::Fresh,
                    requests: pass(&mut rng, &self.cold, Kind::Cold),
                }];
                for _ in 0..self.restarts {
                    segments.push(Segment {
                        prep: StorePrep::Keep,
                        requests: pass(&mut rng, &self.stored, Kind::Hit),
                    });
                }
                let last = segments.last_mut().expect("at least the cold segment");
                for _ in 0..self.warm_passes {
                    let warm = pass(&mut rng, &self.stored, Kind::Warm);
                    last.requests.extend(warm);
                }
                segments
            }
            Workload::Service => {
                let mut requests = pass(&mut rng, &self.stored, Kind::Hit);
                requests.extend(pass(&mut rng, &self.cold, Kind::Cold));
                rng.shuffle(&mut requests);
                // Each repeat lands somewhere after its job's first request.
                for job in self.service_repeats(seed) {
                    let first = requests
                        .iter()
                        .position(|r| r.job == job)
                        .expect("every repeated job is sent once first");
                    let at = first + 1 + rng.below(requests.len() - first);
                    requests.insert(
                        at,
                        Request {
                            job,
                            kind: Kind::Warm,
                        },
                    );
                }
                vec![Segment {
                    prep: StorePrep::Snapshot,
                    requests,
                }]
            }
        }
    }

    /// The jobs the service mix repeats, picked once per run from `seed`.
    fn service_repeats(&self, seed: u64) -> Vec<usize> {
        let mut rng = Rng::new(seed);
        (0..self.repeats)
            .map(|_| rng.below(self.jobs.len()))
            .collect()
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
