//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Nothing inside the program changes. The benchmark injects a timing
//! [`Tunable`] wrapper through `ServeConfig::resolver`, so the server's
//! kernel executions are timed where they happen, and calls every other
//! layer's public functions directly on the same jobs.

use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use flexfloat::{Engine, TypeConfig, VarSpec};
use tp_serve::KernelResolver;
use tp_store::{record_from_json, record_to_json, JobKey, Store};
use tp_trace::Trace;
use tp_tuner::{distributed_search, relative_rms_error, validated_storage_config, Tunable};

use crate::micro;
use crate::plan::Kind;
use crate::report::{fastest_per_item, median, Metric, Outcome};
use crate::run::{run_round, slot_minima, MicroInputs, Prepared, Round};

/// Kernel time spent inside `Tunable` calls, split by purpose.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Live `run` calls: candidate evaluations, storage validation and
    /// measurement runs.
    pub run: Duration,
    /// How many live `run` calls.
    pub runs: u64,
    /// `reference` calls.
    pub reference: Duration,
    /// `run` calls made while `Trace::record` had its recorder installed.
    pub record: Duration,
}

impl Tally {
    /// All kernel time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.run + self.reference + self.record
    }
}

/// A shared tally the timing wrapper adds to.
pub type SharedTally = Arc<Mutex<Tally>>;

/// Takes the tally and resets it.
pub fn take(tally: &SharedTally) -> Tally {
    std::mem::take(&mut *tally.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Times every call into the wrapped kernel.
struct Timed {
    inner: Box<dyn Tunable>,
    tally: SharedTally,
}

impl Tunable for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn variables(&self) -> Vec<VarSpec> {
        self.inner.variables()
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let started = Instant::now();
        let out = self.inner.run(config, input_set);
        let spent = started.elapsed();
        let mut tally = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        // Only `Trace::record` installs a backend during a search.
        if Engine::is_active() {
            tally.record += spent;
        } else {
            tally.run += spent;
            tally.runs += 1;
        }
        out
    }

    fn reference(&self, input_set: usize) -> Vec<f64> {
        let started = Instant::now();
        let out = self.inner.reference(input_set);
        self.tally
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reference += started.elapsed();
        out
    }
}

fn timed(inner: Box<dyn Tunable>, tally: &SharedTally) -> Timed {
    Timed {
        inner,
        tally: tally.clone(),
    }
}

/// A resolver whose kernels add their time to `tally`.
#[must_use]
pub fn timed_resolver(tally: &SharedTally) -> KernelResolver {
    let tally = tally.clone();
    Arc::new(move |spec: &str| {
        tp_kernels::registry()
            .resolve(spec)
            .map(|inner| Box::new(timed(inner, &tally)) as Box<dyn Tunable>)
    })
}

/// What the traced rounds saw through the server.
#[derive(Debug, Default)]
struct Served {
    /// Untraced rounds, interleaved with the traced ones.
    plain: Vec<Round>,
    /// Traced rounds.
    traced: Vec<Round>,
    submit_us: Vec<f64>,
    result_hit_us: Vec<f64>,
    result_warm_us: Vec<f64>,
    bind_ms: Vec<f64>,
    /// Per job: the fastest traced cold SUBMIT→RESULT and its kernel tally.
    cold: Vec<Option<(Duration, Tally)>>,
    /// Server counters of the first traced round: store hits, store
    /// misses, deduped, failed, rejected.
    counters: [u64; 5],
    store_hits: u64,
    hits_sent: u64,
}

impl Served {
    /// Runs round `round` untraced and traced, alternating which goes
    /// first.
    fn round(&mut self, prepared: &Prepared, round: u64, tally: &SharedTally) -> io::Result<()> {
        if round.is_multiple_of(2) {
            self.plain.push(run_round(prepared, round)?);
        }
        let mut data = Round::default();
        for segment in prepared.plan.round(prepared.seed, round) {
            take(tally);
            let run =
                prepared.segment(&segment, timed_resolver(tally), &mut |request, exchange| {
                    let kernels = take(tally);
                    self.submit_us.push(exchange.submit.as_secs_f64() * 1e6);
                    let result_us = exchange.result.as_secs_f64() * 1e6;
                    match request.kind {
                        Kind::Cold => {
                            let best = &mut self.cold[request.job];
                            if best.is_none_or(|(latency, _)| exchange.total() < latency) {
                                *best = Some((exchange.total(), kernels));
                            }
                        }
                        Kind::Hit => self.result_hit_us.push(result_us),
                        Kind::Warm => self.result_warm_us.push(result_us),
                    }
                })?;
            self.bind_ms.push(run.bind.as_secs_f64() * 1e3);
            self.store_hits += run.store_hits;
            self.hits_sent += run.samples.iter().filter(|s| s.kind == Kind::Hit).count() as u64;
            if round == 0 {
                let s = run.stats;
                let add = [
                    s.store_hits,
                    s.store_misses,
                    s.deduped,
                    s.failed,
                    s.rejected,
                ];
                for (total, n) in self.counters.iter_mut().zip(add) {
                    *total += n;
                }
            }
            data.add(&run);
        }
        self.traced.push(data);
        if !round.is_multiple_of(2) {
            self.plain.push(run_round(prepared, round)?);
        }
        Ok(())
    }
}

/// One cold job's fixed inputs for the direct calls.
struct Fixture {
    app: Box<dyn Tunable>,
    timed: Timed,
    tally: SharedTally,
    params: tp_tuner::SearchParams,
    outcome: tp_tuner::TuningOutcome,
    /// Kernel outputs of the reference and the tuned storage config.
    reference: Vec<f64>,
    actual: Vec<f64>,
    /// One recording per input set, when the kernel can be recorded.
    traces: Option<Vec<Trace>>,
}

impl Fixture {
    fn new(prepared: &Prepared, job: usize) -> Fixture {
        let spec = &prepared.plan.jobs[job];
        let app = spec.tunable();
        let params = spec.params();
        let tally = SharedTally::default();
        let vars = app.variables();
        let traces = (0..params.input_sets)
            .map(|set| Trace::record(&vars, |cfg| app.run(cfg, set)).ok())
            .collect();
        Fixture {
            timed: timed(spec.tunable(), &tally),
            tally,
            params,
            outcome: prepared.expected[job].outcome.clone(),
            reference: app.reference(tp_bench::MEASURE_SET),
            actual: app.run(&prepared.expected[job].storage, tp_bench::MEASURE_SET),
            traces,
            app,
        }
    }

    /// Times each layer's public call once.
    fn pass(&self) -> Pass {
        let time = |f: &mut dyn FnMut()| {
            let started = Instant::now();
            f();
            started.elapsed()
        };
        let app = self.app.as_ref();
        let params = self.params;
        let tuned_record = time(&mut || {
            black_box(tp_bench::tuned_record(app, params));
        });
        take(&self.tally);
        let search = time(&mut || {
            black_box(distributed_search(&self.timed, params));
        });
        let kernels = take(&self.tally);
        let storage = time(&mut || {
            black_box(validated_storage_config(
                app,
                &self.outcome,
                params.type_system,
                params.input_sets,
            ));
        });
        let rms = time(&mut || {
            for _ in 0..RMS_CALLS {
                black_box(relative_rms_error(
                    black_box(&self.reference),
                    black_box(&self.actual),
                ));
            }
        });
        let mut pass = Pass {
            tuned_record,
            search,
            kernels,
            storage,
            rms_us: rms.as_secs_f64() * 1e6 / f64::from(RMS_CALLS),
            replay_ns_per_entry: None,
            batch_ns_per_lane_entry: None,
        };
        if let Some(traces) = &self.traces {
            let cfg = self.outcome.eval_config();
            let one = time(&mut || {
                black_box(traces[0].replay(&cfg));
            });
            let lanes: Vec<&Trace> = traces.iter().collect();
            let batch = time(&mut || {
                black_box(Trace::replay_batch(&lanes, &cfg));
            });
            let lane_entries: usize = traces.iter().map(Trace::len).sum();
            pass.replay_ns_per_entry = Some(one.as_secs_f64() * 1e9 / traces[0].len() as f64);
            pass.batch_ns_per_lane_entry = Some(batch.as_secs_f64() * 1e9 / lane_entries as f64);
        }
        pass
    }

    fn entries(&self) -> u64 {
        self.traces
            .as_ref()
            .map_or(0, |t| t.iter().map(Trace::len).sum::<usize>() as u64)
    }
}

/// One timing of each direct call for one cold job.
#[derive(Debug, Clone, Copy)]
struct Pass {
    tuned_record: Duration,
    search: Duration,
    kernels: Tally,
    storage: Duration,
    rms_us: f64,
    replay_ns_per_entry: Option<f64>,
    batch_ns_per_lane_entry: Option<f64>,
}

impl Pass {
    /// Search time outside kernel calls: replay dispatch, the quality
    /// check and bookkeeping.
    fn remainder(&self) -> Duration {
        self.search.saturating_sub(self.kernels.total())
    }
}

/// Calls of the quality check per pass.
const RMS_CALLS: u32 = 200;

/// One timing of each store call per distinct job, µs.
fn store_pass(prepared: &Prepared, pass: u64) -> io::Result<Vec<[f64; 4]>> {
    let dir = prepared.workdir.scratch().join(pass.to_string());
    let store = Store::open_default(&dir)?;
    let us = |started: Instant| started.elapsed().as_secs_f64() * 1e6;
    let mut calls = Vec::new();
    for (job, record) in prepared.plan.jobs.iter().zip(&prepared.expected) {
        let app = job.tunable();
        let key = JobKey::of(
            app.name(),
            &app.variables(),
            &job.params(),
            Engine::active_name(),
        );
        let started = Instant::now();
        let missed = store.get(key).is_none();
        let miss = us(started);
        let started = Instant::now();
        store.put(key, record)?;
        let put = us(started);
        let started = Instant::now();
        let got = store.get(key);
        let get = us(started);
        let body = record_to_json(record);
        let started = Instant::now();
        let decoded = record_from_json(&body);
        let decode = us(started);
        if !missed || got.as_ref() != Some(record) || decoded.as_ref() != Ok(record) {
            return Err(io::Error::other(format!(
                "store round trip differs for {}",
                job.label()
            )));
        }
        calls.push([get, miss, put, decode]);
    }
    drop(store);
    std::fs::remove_dir_all(dir)?;
    Ok(calls)
}

/// The traced run: every per-layer metric, with the reconciliation of
/// each cold job's latency printed to stderr.
///
/// Iterations alternate an untraced round, the same round traced, one
/// direct call of every layer per cold job and one pass of store calls,
/// until three quarters of `seconds` pass; each timing then keeps its
/// fastest observation, as the untraced run does.
///
/// # Errors
///
/// Infrastructure failures.
pub fn per_layer(prepared: &Prepared, seconds: f64) -> io::Result<Outcome> {
    let cold_jobs = &prepared.plan.cold;
    let fixtures: Vec<Fixture> = cold_jobs
        .iter()
        .map(|&job| Fixture::new(prepared, job))
        .collect();
    let tally = SharedTally::default();
    let mut served = Served {
        cold: vec![None; prepared.plan.jobs.len()],
        ..Served::default()
    };
    let mut passes: Vec<Vec<Pass>> = Vec::new();
    let mut store_passes = Vec::new();
    let started = Instant::now();
    let mut iteration = 0;
    while iteration < 2 || started.elapsed().as_secs_f64() < seconds * 0.75 {
        served.round(prepared, iteration, &tally)?;
        passes.push(fixtures.iter().map(Fixture::pass).collect());
        store_passes.push(store_pass(prepared, iteration)?);
        iteration += 1;
    }
    let inputs = MicroInputs::new(prepared);
    let backends = micro::backends().map(|b| micro::backend_ns(b.as_ref(), prepared.seed));

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let secs = |d: &Duration| d.as_secs_f64();
    let search_ms: Vec<f64> = fastest_per_item(&passes, |p| secs(&p.search) * 1e3);
    let best = |key: &dyn Fn(&Pass) -> f64| median(&fastest_per_item(&passes, key));
    // The kernel split of each job's fastest search.
    let split: Vec<Tally> = (0..fixtures.len())
        .map(|j| {
            passes
                .iter()
                .map(|p| p[j])
                .min_by_key(|p| p.search)
                .map_or_else(Tally::default, |p| p.kernels)
        })
        .collect();
    let split_ms =
        |f: fn(&Tally) -> Duration| median(&split.iter().map(|t| ms(f(t))).collect::<Vec<_>>());
    let remainder_ms = fastest_per_item(&passes, |p| ms(p.remainder()));
    let replay: Vec<f64> = fastest_per_item(&passes, |p| p.replay_ns_per_entry.unwrap_or(f64::NAN))
        .into_iter()
        .filter(|x| x.is_finite())
        .collect();
    let batch: Vec<f64> =
        fastest_per_item(&passes, |p| p.batch_ns_per_lane_entry.unwrap_or(f64::NAN))
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
    let store_call = |i: usize| fastest_per_item(&store_passes, |c: &[f64; 4]| c[i]);
    let (get_us, miss_us, put_us, decode_us) =
        (store_call(0), store_call(1), store_call(2), store_call(3));
    let submit_us = median(&served.submit_us);
    let result_warm_us = median(&served.result_warm_us);

    // Reconciliation: each cold job's fastest traced latency against the
    // layer times that should cover it.
    let tuned_record_ms = fastest_per_item(&passes, |p| ms(p.tuned_record));
    let mut overhead_ms = Vec::new();
    let mut unattributed = Vec::new();
    eprintln!(
        "reconciliation of cold jobs (ms): latency = kernels + search remainder + store + serve + unattributed"
    );
    for (j, &job) in cold_jobs.iter().enumerate() {
        let Some((latency, kernels)) = served.cold[job] else {
            continue;
        };
        let store_ms = (put_us[job] + miss_us[job]) / 1e3;
        let serve_ms = (submit_us + result_warm_us) / 1e3;
        let covered = ms(kernels.total()) + remainder_ms[j] + store_ms + serve_ms;
        let share = 1.0 - covered / ms(latency);
        eprintln!(
            "  {:<28} {:>9.3} = {:>9.3} + {:>7.3} + {:>6.3} + {:>6.3} + {:>7.3} ({:+.3})",
            prepared.plan.jobs[job].label(),
            ms(latency),
            ms(kernels.total()),
            remainder_ms[j],
            store_ms,
            serve_ms,
            ms(latency) - covered,
            share
        );
        overhead_ms.push(ms(latency) - tuned_record_ms[j]);
        unattributed.push(share);
    }
    let plain: f64 = slot_minima(&served.plain).values().sum();
    let traced: f64 = slot_minima(&served.traced).values().sum();
    let trace_overhead = traced / plain;
    eprintln!("tracing overhead: traced/untraced round_s = {trace_overhead:.4}");

    let outcomes = || fixtures.iter().map(|f| &f.outcome);
    let replayed = outcomes().map(|o| o.replay.replayed).sum::<u64>() as f64;
    let diverged = outcomes().map(|o| o.replay.diverged).sum::<u64>() as f64;
    let n = fixtures.len();
    let isa = inputs.isa_run;
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let [emulated, softfloat, fpu] = backends;
    let c = served.counters;
    let bytes: Vec<f64> = prepared
        .expected
        .iter()
        .map(|r| record_to_json(r).len() as f64)
        .collect();
    let metrics = vec![
        metric("serve.submit_us", submit_us, "us", served.submit_us.len()),
        metric(
            "serve.result_hit_us",
            median(&served.result_hit_us),
            "us",
            served.result_hit_us.len(),
        ),
        metric(
            "serve.result_warm_us",
            result_warm_us,
            "us",
            served.result_warm_us.len(),
        ),
        metric(
            "serve.overhead_ms",
            median(&overhead_ms),
            "ms",
            overhead_ms.len(),
        ),
        metric(
            "serve.bind_ms",
            median(&served.bind_ms),
            "ms",
            served.bind_ms.len(),
        ),
        metric("serve.store_hits", c[0] as f64, "count", 1),
        metric("serve.store_misses", c[1] as f64, "count", 1),
        metric("serve.deduped", c[2] as f64, "count", 1),
        metric("serve.failed", c[3] as f64, "count", 1),
        metric("serve.rejected", c[4] as f64, "count", 1),
        metric("store.get_us", median(&get_us), "us", get_us.len()),
        metric("store.miss_us", median(&miss_us), "us", miss_us.len()),
        metric("store.decode_us", median(&decode_us), "us", decode_us.len()),
        metric("store.record_bytes", median(&bytes), "bytes", bytes.len()),
        metric("store.put_us", median(&put_us), "us", put_us.len()),
        metric(
            "store.hit_ratio",
            served.store_hits as f64 / served.hits_sent.max(1) as f64,
            "ratio",
            served.hits_sent as usize,
        ),
        metric("tuner.search_ms", median(&search_ms), "ms", n),
        metric("tuner.rms_us", best(&|p| p.rms_us), "us", n),
        metric("tuner.storage_ms", best(&|p| ms(p.storage)), "ms", n),
        metric(
            "tuner.evaluations",
            outcomes().map(|o| o.evaluations).sum::<u64>() as f64,
            "count",
            n,
        ),
        metric("tuner.replayed", replayed, "count", n),
        metric("tuner.diverged", diverged, "count", n),
        metric(
            "tuner.replay_yield",
            if replayed + diverged > 0.0 {
                replayed / (replayed + diverged)
            } else {
                0.0
            },
            "ratio",
            n,
        ),
        metric("tuner.reference_ms", split_ms(|t| t.reference), "ms", n),
        metric(
            "kernels.runs",
            split.iter().map(|t| t.runs).sum::<u64>() as f64,
            "count",
            n,
        ),
        metric("kernels.run_ms", split_ms(|t| t.run), "ms", n),
        metric(
            "kernels.run_share",
            median(
                &split
                    .iter()
                    .zip(&search_ms)
                    .map(|(t, s)| ms(t.run) / s)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
            n,
        ),
        metric(
            "trace.replay_ns_per_entry",
            median(&replay),
            "ns",
            replay.len(),
        ),
        metric(
            "trace.batch_ns_per_lane_entry",
            median(&batch),
            "ns",
            batch.len(),
        ),
        metric(
            "trace.entries",
            fixtures.iter().map(Fixture::entries).sum::<u64>() as f64,
            "count",
            n,
        ),
        metric("trace.record_ms", split_ms(|t| t.record), "ms", n),
        metric("trace.remainder_ms", median(&remainder_ms), "ms", n),
        metric("core.emulated_bin_ns", emulated.bin, "ns", 1),
        metric("core.emulated_cast_ns", emulated.cast, "ns", 1),
        metric("softfloat.bin_ns", softfloat.bin, "ns", 1),
        metric("softfloat.div_ns", softfloat.div, "ns", 1),
        metric("softfloat.cast_ns", softfloat.cast, "ns", 1),
        metric("tfpu.bin_ns", fpu.bin, "ns", 1),
        metric("tfpu.cast_ns", fpu.cast, "ns", 1),
        metric(
            "core.ops_per_run",
            inputs.ops as f64 / inputs.configs.len() as f64,
            "count",
            inputs.configs.len(),
        ),
        metric("isa.retired", isa.retired as f64, "count", 1),
        metric("isa.fp_share", isa.fp_share, "ratio", 1),
        metric(
            "bench.unattributed_share",
            median(&unattributed),
            "ratio",
            unattributed.len(),
        ),
        metric(
            "bench.trace_overhead",
            trace_overhead,
            "ratio",
            served.traced.len(),
        ),
    ];
    let rounds = served.plain.iter().chain(&served.traced);
    let (attempted, failed) = rounds.fold((prepared.attempted, prepared.failed), |(a, f), r| {
        (a + r.attempted, f + r.failed)
    });
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
