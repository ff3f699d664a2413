//! The untraced run: the benchmark's set-up, timed several times; then
//! rounds through the server, each followed by one pass of the kernel and
//! ISA loops and of the reference loop, for `--seconds`; reported as the
//! end-to-end metrics.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::time::Instant;

use flexfloat::TypeConfig;
use tp_platform::{evaluate, PlatformParams};
use tp_serve::KernelResolver;
use tp_store::TuningRecord;
use tp_tuner::Tunable;

use crate::micro;
use crate::plan::{Kind, Plan, Request, Segment, StorePrep, Workload};
use crate::reference;
use crate::report::{fastest_per_item, peak_rss_mb, quantile, Metric, Outcome};
use crate::serve::{registry_resolver, run_segment, AfterExchange, SegmentRun, Workdir};

/// A run's fixed inputs, prepared before the rounds are timed.
pub struct Prepared {
    /// The workload's plan.
    pub plan: Plan,
    /// The run's seed.
    pub seed: u64,
    /// Scratch directories.
    pub workdir: Workdir,
    /// The correctness reference: a direct `tp_bench::tuned_record` of
    /// every distinct job.
    pub expected: Vec<TuningRecord>,
    /// Seconds each step of [`Prepared::new`] took: every job's direct
    /// record, then (service mix) the snapshot fill.
    pub steps: Vec<f64>,
    /// Requests sent while preparing (the service snapshot fill).
    pub attempted: u64,
    /// Of those, the failed ones.
    pub failed: u64,
}

impl Prepared {
    /// Computes the direct records and, for the service mix, fills the
    /// snapshot through a server (so stored keys were served once too).
    ///
    /// # Errors
    ///
    /// Infrastructure failures.
    pub fn new(plan: Plan, seed: u64) -> io::Result<Prepared> {
        let workdir = Workdir::create()?;
        let mut steps = Vec::new();
        let expected = plan
            .jobs
            .iter()
            .map(|job| {
                let started = Instant::now();
                let record = tp_bench::tuned_record(job.tunable().as_ref(), job.params());
                steps.push(started.elapsed().as_secs_f64());
                record
            })
            .collect();
        let mut prepared = Prepared {
            plan,
            seed,
            workdir,
            expected,
            steps,
            attempted: 0,
            failed: 0,
        };
        if prepared.plan.workload == Workload::Service {
            let started = Instant::now();
            prepared.fill_snapshot()?;
            prepared.steps.push(started.elapsed().as_secs_f64());
        }
        Ok(prepared)
    }

    fn fill_snapshot(&mut self) -> io::Result<()> {
        let segment = Segment {
            prep: StorePrep::Fresh,
            requests: self
                .plan
                .stored
                .iter()
                .map(|&job| Request {
                    job,
                    kind: Kind::Cold,
                })
                .collect(),
        };
        let run = self.segment(&segment, registry_resolver(), &mut |_, _| {})?;
        self.attempted += run.samples.len() as u64;
        self.failed += run.failed;
        std::fs::rename(self.workdir.store(), self.workdir.snapshot())
    }

    /// Runs one segment, checking every reply against [`Prepared::expected`].
    ///
    /// # Errors
    ///
    /// Infrastructure failures.
    pub fn segment(
        &self,
        segment: &Segment,
        resolver: KernelResolver,
        after: AfterExchange<'_>,
    ) -> io::Result<SegmentRun> {
        run_segment(
            &self.plan,
            segment,
            &self.workdir,
            resolver,
            &self.expected,
            after,
        )
    }

    /// Tuned/binary32 platform energy, averaged over the jobs.
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        let params = PlatformParams::paper();
        let ratios: Vec<f64> = self
            .expected
            .iter()
            .map(|r| {
                evaluate(&r.tuned_counts, &params).energy.total()
                    / evaluate(&r.baseline_counts, &params).energy.total()
            })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// What one round measured.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Every successful exchange in sending order: kind, job and
    /// SUBMIT→RESULT seconds.
    pub samples: Vec<(Kind, usize, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed or wrong.
    pub failed: u64,
}

impl Round {
    /// Folds one segment's samples in.
    pub fn add(&mut self, run: &SegmentRun) {
        self.attempted += run.samples.len() as u64;
        self.failed += run.failed;
        for sample in &run.samples {
            if let Some(timing) = sample.timing {
                let t = timing.total().as_secs_f64();
                self.samples.push((sample.kind, sample.job, t));
            }
        }
    }
}

/// Runs round `round` with the registry resolver.
///
/// # Errors
///
/// Infrastructure failures.
pub fn run_round(prepared: &Prepared, round: u64) -> io::Result<Round> {
    let mut data = Round::default();
    for segment in prepared.plan.round(prepared.seed, round) {
        data.add(&prepared.segment(&segment, registry_resolver(), &mut |_, _| {})?);
    }
    Ok(data)
}

/// The fixed inputs of the kernel and ISA loops.
pub struct MicroInputs {
    /// Every job's kernel with its tuned storage configuration.
    pub configs: Vec<(Box<dyn Tunable>, TypeConfig)>,
    /// FP operations of one pass over `configs`.
    pub ops: u64,
    /// The ISA twins at the workload's size.
    pub isa: Vec<tp_isa::IsaKernel>,
    /// What one pass over `isa` retires.
    pub isa_run: micro::IsaRun,
}

impl MicroInputs {
    /// Builds the loops' inputs from the run's tuned configurations.
    #[must_use]
    pub fn new(prepared: &Prepared) -> MicroInputs {
        let configs: Vec<_> = prepared
            .plan
            .jobs
            .iter()
            .zip(&prepared.expected)
            .map(|(job, record)| (job.tunable(), record.storage.clone()))
            .collect();
        let ops = micro::fp_ops(&configs);
        let isa = micro::isa_kernels(prepared.plan.small);
        let isa_run = micro::isa_counts(&isa);
        MicroInputs {
            configs,
            ops,
            isa,
            isa_run,
        }
    }

    /// One timed pass of every loop: seconds per item, for each backend
    /// and then the ISA twins.
    #[must_use]
    pub fn pass(&self) -> [Vec<f64>; 4] {
        let [a, b, c] = micro::BACKENDS.map(|name| micro::kernel_pass(&self.configs, name));
        [a, b, c, micro::isa_pass(&self.isa)]
    }
}

/// Everything the untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// One entry per round.
    pub rounds: Vec<Round>,
    /// One kernel/ISA loop pass per round, seconds per item.
    pub passes: Vec<[Vec<f64>; 4]>,
    /// One reference loop pass per round, seconds.
    pub reference: Vec<f64>,
    /// The step seconds of each [`set_up`], the run's own first.
    pub setups: Vec<Vec<f64>>,
    /// Requests the repeated set-ups sent, and of those the failed ones
    /// (a repeated set-up whose direct records differ counts one more).
    pub setup_requests: (u64, u64),
}

/// How many times the untraced run sets up.
pub const SETUPS: usize = 8;

/// The benchmark's set-up, timed step by step: [`Prepared::new`] (the
/// direct records of every job, and the service snapshot fill), then the
/// loops' inputs together with one server start to its first reply on a
/// fresh store and its stop.
///
/// # Errors
///
/// Infrastructure failures.
pub fn set_up(plan: &Plan, seed: u64) -> io::Result<(Prepared, MicroInputs, Vec<f64>)> {
    let mut prepared = Prepared::new(plan.clone(), seed)?;
    let started = Instant::now();
    let inputs = MicroInputs::new(&prepared);
    let start = Segment {
        prep: StorePrep::Fresh,
        requests: Vec::new(),
    };
    let run = prepared.segment(&start, registry_resolver(), &mut |_, _| {})?;
    prepared.failed += run.failed;
    let mut steps = prepared.steps.clone();
    steps.push(started.elapsed().as_secs_f64());
    Ok((prepared, inputs, steps))
}

/// Runs rounds, each followed by one pass of the kernel and ISA loops and
/// one of the reference loop, until `seconds` have passed (at least
/// `min_rounds`). Between rounds it sets up again, spread evenly over the
/// window, until [`SETUPS`] set-ups are timed with `first` among them:
/// contention comes in bursts of seconds, so set-ups done back to back
/// would all land in the same one.
///
/// # Errors
///
/// Infrastructure failures.
pub fn measure(
    prepared: &Prepared,
    inputs: &MicroInputs,
    first: Vec<f64>,
    seconds: f64,
    min_rounds: u64,
) -> io::Result<Measured> {
    let mut measured = Measured {
        setups: vec![first],
        ..Measured::default()
    };
    let started = Instant::now();
    let mut round = 0;
    while round < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let due = seconds * measured.setups.len() as f64 / SETUPS as f64;
        if measured.setups.len() < SETUPS && started.elapsed().as_secs_f64() >= due {
            let (again, _, steps) = set_up(&prepared.plan, prepared.seed)?;
            measured.setups.push(steps);
            measured.setup_requests.0 += again.attempted;
            measured.setup_requests.1 +=
                again.failed + u64::from(again.expected != prepared.expected);
        }
        measured.rounds.push(run_round(prepared, round)?);
        measured.passes.push(inputs.pass());
        measured.reference.push(reference::pass());
        round += 1;
    }
    Ok(measured)
}

/// The untraced run: every end-to-end metric. How much was measured and
/// the reference scale go to stderr.
///
/// # Errors
///
/// Infrastructure failures.
pub fn end_to_end(plan: &Plan, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let (prepared, inputs, first) = set_up(plan, seed)?;
    let measured = measure(&prepared, &inputs, first, seconds, 1)?;
    let samples: usize = measured.rounds.iter().map(|r| r.samples.len()).sum();
    eprintln!(
        "set-ups {:.3?} s; {} rounds, {samples} timed requests; \
         reference loop fastest {:.4} ms, timings scaled by {:.4} to its nominal {:.4} ms",
        measured
            .setups
            .iter()
            .map(|steps| steps.iter().sum::<f64>())
            .collect::<Vec<_>>(),
        measured.rounds.len(),
        reference::NOMINAL_S / reference::scale(&measured.reference) * 1e3,
        reference::scale(&measured.reference),
        reference::NOMINAL_S * 1e3
    );
    Ok(summarize(&prepared, &inputs, &measured))
}

/// Each request slot's fastest SUBMIT→RESULT over all rounds, in
/// seconds. A slot is (kind, job, occurrence within the round): every
/// round sends the same multiset of requests, so slots match up across
/// rounds whatever the order.
#[must_use]
pub fn slot_minima(rounds: &[Round]) -> BTreeMap<(Kind, usize, usize), f64> {
    let mut minima = BTreeMap::new();
    for round in rounds {
        let mut seen: HashMap<(Kind, usize), usize> = HashMap::new();
        for &(kind, job, t) in &round.samples {
            let occurrence = seen.entry((kind, job)).or_insert(0);
            let slot = (kind, job, *occurrence);
            *occurrence += 1;
            minima
                .entry(slot)
                .and_modify(|m: &mut f64| *m = m.min(t))
                .or_insert(t);
        }
    }
    minima
}

/// The end-to-end metrics of a measured run.
///
/// Contention from outside the process only ever adds time, in bursts
/// shorter than a round. So every latency is first reduced to its slot's
/// fastest observation over the run, and quantiles are taken over slots
/// (a tail is the worst slot's best time); `round_s` is the sum of all
/// slots, the round as it runs uncontended. The kernel and ISA loops
/// likewise sum each item's fastest pass, and `setup_s` sums each set-up
/// step's fastest time: set-up time is bimodal on a shared host, so a
/// median of a few set-ups flips between the modes. Slower stretches of the whole
/// machine are then taken out with [`reference::scale`]: every timing is
/// reported at the reference loop's nominal speed.
#[must_use]
pub fn summarize(prepared: &Prepared, inputs: &MicroInputs, measured: &Measured) -> Outcome {
    let rounds = &measured.rounds;
    let scale = reference::scale(&measured.reference);
    let minima = slot_minima(rounds);
    let cold: Vec<f64> = minima
        .iter()
        .filter(|(slot, _)| slot.0 == Kind::Cold)
        .map(|(_, t)| t * 1e3 * scale)
        .collect();
    let passes = measured.passes.len();
    let fastest = |i: usize| -> f64 {
        let passes: Vec<Vec<f64>> = measured.passes.iter().map(|p| p[i].clone()).collect();
        fastest_per_item(&passes, |&t| t).iter().sum::<f64>() * scale
    };
    let mops = |i| inputs.ops as f64 / fastest(i) / 1e6;
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let metrics = vec![
        metric(
            "setup_s",
            fastest_per_item(&measured.setups, |&t| t)
                .iter()
                .sum::<f64>()
                * scale,
            "s",
            measured.setups.len(),
        ),
        metric(
            "round_s",
            minima.values().sum::<f64>() * scale,
            "s",
            minima.len(),
        ),
        metric("cold_p50_ms", quantile(&cold, 0.5), "ms", cold.len()),
        metric("cold_p90_ms", quantile(&cold, 0.9), "ms", cold.len()),
        metric(
            "energy_ratio",
            prepared.energy_ratio(),
            "ratio",
            prepared.expected.len(),
        ),
        metric("mops_emulated", mops(0), "Mop/s", passes),
        metric("mops_softfloat", mops(1), "Mop/s", passes),
        metric("mops_fpu", mops(2), "Mop/s", passes),
        metric(
            "isa_mips",
            inputs.isa_run.retired as f64 / fastest(3) / 1e6,
            "Minsn/s",
            passes,
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    Outcome {
        attempted: prepared.attempted
            + measured.setup_requests.0
            + rounds.iter().map(|r| r.attempted).sum::<u64>(),
        failed: prepared.failed
            + measured.setup_requests.1
            + rounds.iter().map(|r| r.failed).sum::<u64>(),
        metrics,
    }
}
