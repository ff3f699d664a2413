//! The DistributedSearch-style heuristic precision search.
//!
//! Reimplements the contract of fpPrecisionTuning's DistributedSearch tool
//! (paper Section II): given a target program, a golden output and a quality
//! threshold, find for each program variable the minimum number of precision
//! bits that still meets the threshold — first per input set, then joined
//! across input sets by a statistical refinement phase.
//!
//! # Parallel driver and the determinism contract
//!
//! The paper fans this search out over an HPC cluster (Section V); here the
//! fan-out is [`crate::pool`] scoped threads, in two places:
//!
//! 1. **Input sets** (phase 1) are tuned independently and joined by
//!    per-variable maximum — a commutative, associative reduction applied in
//!    set order, so the join cannot observe scheduling.
//! 2. **Hypothesis probes**: when enough workers remain beyond the input-set
//!    fan-out, the narrow- and wide-exponent hypotheses of one binary-search
//!    probe are evaluated *speculatively* in parallel. The narrow result
//!    always takes priority, exactly as in the sequential short-circuit, so
//!    the decision — though not the number of program evaluations — is
//!    unchanged.
//!
//! The contract: [`distributed_search`] returns **bit-identical chosen
//! formats** (precisions, wide-range flags, and therefore storage mappings)
//! for any `workers` value. Only [`TuningOutcome::evaluations`] may differ,
//! because speculative probes evaluate hypotheses the sequential driver
//! short-circuits past. `tests/determinism.rs` pins both halves of this
//! contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use flexfloat::{Engine, Recorder, TraceCounts, TypeConfig, VarSpec};
use tp_formats::{FpFormat, TypeSystem};
use tp_trace::{Replayed, Trace};

use crate::metrics::relative_rms_error;
use crate::pool;
use crate::tunable::Tunable;

/// How candidate evaluations are executed.
///
/// In `Replay` mode the search records each input set's dynamic op stream
/// once (a [`Trace`] per set, fanned out over the worker pool) and
/// evaluates candidates by replaying the tape under the candidate's
/// formats — falling back to a live kernel run whenever the trace is
/// unavailable or the replay hits the divergence guard. The fallback is
/// what keeps the two modes **bit-identical in chosen formats** (and in
/// [`TuningOutcome::evaluations`]); `tests/replay_equivalence.rs` pins
/// this across the kernel suite, every backend and several worker counts.
///
/// A replay is invisible to a [`Recorder`] and to an installed backend, so
/// a search whose thread is observed by either (a running `Recorder`, or
/// [`Engine::is_active`]) runs live in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerMode {
    /// Every candidate evaluation runs the kernel.
    Live,
    /// Record once per input set, replay per candidate (the default).
    Replay,
}

impl TunerMode {
    /// The canonical spelling (`"live"` / `"replay"`), used in job keys
    /// and wire requests.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            TunerMode::Live => "live",
            TunerMode::Replay => "replay",
        }
    }
}

impl std::str::FromStr for TunerMode {
    type Err = String;

    /// Parses the canonical spelling; anything else is an error (callers
    /// are expected to fail fast).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "live" => Ok(TunerMode::Live),
            "replay" => Ok(TunerMode::Replay),
            other => Err(format!(
                "{other:?} is not a tuner mode (use \"live\" or \"replay\")"
            )),
        }
    }
}

impl std::fmt::Display for TunerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much of a tuning run the replay engine carried. All zero in
/// [`TunerMode::Live`], and for every search whose thread is observed (a
/// running [`Recorder`] or [`Engine::is_active`]), which runs live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Input sets whose op stream was successfully recorded.
    pub traces: usize,
    /// Candidate evaluations served from a tape replay.
    pub replayed: u64,
    /// Candidate evaluations that hit the divergence guard (a recorded
    /// comparison flipped under the candidate formats) and fell back to a
    /// live kernel run.
    pub diverged: u64,
}

impl ReplaySummary {
    /// Share of replay attempts that had to fall back to live execution
    /// (`0.0` when nothing was attempted).
    #[must_use]
    pub fn fallback_rate(&self) -> f64 {
        let attempts = self.replayed + self.diverged;
        if attempts == 0 {
            return 0.0;
        }
        self.diverged as f64 / attempts as f64
    }
}

/// Shared tally behind [`ReplaySummary`] — atomics, because speculative
/// probes evaluate candidates on pool workers.
#[derive(Debug, Default)]
struct ReplayCounters {
    replayed: AtomicU64,
    diverged: AtomicU64,
}

/// After this many *consecutive* divergent replays of one input set's
/// trace, stop attempting replays for that set: a kernel whose control
/// flow is this precision-sensitive (KNN's selection scan, PCA's rotation
/// thresholds) would otherwise pay a wasted replay prefix per candidate on
/// top of the live fallback it needs anyway. A later successful replay
/// resets the latch. This is performance-only — a skipped replay *is* the
/// live evaluation, so verdicts and chosen formats are unchanged.
const DIVERGENCE_LATCH: u32 = 8;

/// A cached per-set replay verdict from a batched pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Replay completed and the output met the threshold.
    Pass,
    /// Replay completed and the output missed the threshold.
    Fail,
    /// Replay hit the divergence guard; the consumer must evaluate live.
    Diverged,
}

/// What the batched fast path served for one `(set, candidate)` query.
enum Served {
    /// A completed-replay verdict (counted as a replay for `set`).
    Done(bool),
    /// Replay diverged for this set (counted); the caller runs live.
    Diverged,
    /// The set cannot batch here — fall through to per-trace replay.
    NoBatch,
}

/// Sibling lanes are speculative: phase 1 tunes each input set
/// independently, so a sibling set only profits from a batched lane if its
/// own search later asks for the *same* candidate (which happens when the
/// per-set trajectories coincide — common on straight-line kernels with
/// similar input sets, rare when pass/fail patterns differ). Each group
/// carries a debt counter: an extra lane costs [`LANE_COST`] and a
/// consumed extra credits [`HIT_CREDIT`]. Full-group passes stop while
/// the debt exceeds this limit, falling back to memoized single-lane
/// replay; consumption pays debt down, so a group whose hit rate stays
/// above `LANE_COST / HIT_CREDIT` batches indefinitely, while a
/// never-hitting group wastes at most `LANE_DEBT_LIMIT / LANE_COST`
/// lanes. Measured with the repository benchmark (`perfbench`, workload
/// `straight`, 6 alternating pairs of 20 s runs, 2-vCPU Xeon host):
/// removing this throttle together with the done-set mask raised the
/// median `round_s` from 0.498 s to 0.624 s (+25%, slower in 6 of 6
/// pairs); turning batching off altogether raised it from 0.490 s to
/// 0.558 s (+14%, 6 of 6). Throttled speculation is the fastest of the
/// three (DESIGN.md §10). Performance-only: verdicts and tallies are
/// identical on every path.
const LANE_DEBT_LIMIT: i64 = 16;
/// Debt charged per speculative extra lane in a batched pass.
const LANE_COST: i64 = 1;
/// Debt repaid when a sibling consumes a speculatively computed lane.
const HIT_CREDIT: i64 = 2;

/// One cached verdict per input set (by set index), each tagged with
/// whether it is a still-unconsumed speculative extra lane.
type LaneVerdicts = Vec<Option<(Verdict, bool)>>;

/// Per-run replay context: one optional tape and one divergence latch per
/// input set, the shared tally, and — when batching is on — the same-shape
/// set groups plus a candidate-keyed verdict cache so one structure-of-
/// arrays pass over a group's tapes serves every member's quality check.
/// Empty (all-`None`) in [`TunerMode::Live`] and on an observed thread.
struct ReplayCtx<'a> {
    traces: Vec<Option<Trace>>,
    gates: Vec<std::sync::atomic::AtomicU32>,
    stats: ReplayCounters,
    /// Golden outputs per input set — the batched pass checks quality
    /// directly (the sequential path keeps doing it at the call site).
    references: &'a [Vec<f64>],
    /// Quality threshold the verdicts encode.
    threshold: f64,
    /// Same-shape group id per set (`None` = no tape, or batching off).
    group: Vec<Option<usize>>,
    /// Members of each group, in set order. Only groups with ≥ 2 members
    /// ever batch; singletons use the ordinary per-trace path.
    groups: Vec<Vec<usize>>,
    /// candidate key → per-set verdicts computed by an earlier batched
    /// pass, each tagged with whether it is still an unconsumed *extra*
    /// lane (counted in the group's debt). Entries are kept (not
    /// consumed): re-validations of the same candidate serve the same
    /// verdict, exactly like re-replaying would.
    cache: Mutex<HashMap<Vec<u8>, LaneVerdicts>>,
    /// Speculative-lane debt per group (see [`LANE_DEBT_LIMIT`]).
    lane_debt: Vec<std::sync::atomic::AtomicI64>,
    /// Sets whose phase-1 search has completed. A done set only re-asks
    /// for the (typically fresh) joined candidate in phase 2, so batching
    /// speculative lanes for it is near-pure waste — the driver marks
    /// sets done and [`ReplayCtx::batched`] stops computing their lanes.
    done: Vec<std::sync::atomic::AtomicBool>,
    /// Batched evaluation enabled ([`SearchParams::batch`]).
    batch: bool,
    /// The kernel under search — labels the per-kernel `trace.*` metrics
    /// (`trace.replayed.CONV`, …). Observational only.
    app_name: String,
}

impl<'a> ReplayCtx<'a> {
    fn new(
        app_name: &str,
        traces: Vec<Option<Trace>>,
        references: &'a [Vec<f64>],
        threshold: f64,
        batch: bool,
    ) -> Self {
        let gates = traces
            .iter()
            .map(|_| std::sync::atomic::AtomicU32::new(0))
            .collect();
        // Group the sets whose tapes share a program shape: same kernel,
        // different inputs (and possibly different recorded branch
        // outcomes) batch into one structure-of-arrays pass.
        let mut group: Vec<Option<usize>> = vec![None; traces.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if batch {
            for set in 0..traces.len() {
                let Some(trace) = traces[set].as_ref() else {
                    continue;
                };
                let gid = groups.iter().position(|members: &Vec<usize>| {
                    traces[members[0]]
                        .as_ref()
                        .is_some_and(|leader| leader.same_shape(trace))
                });
                match gid {
                    Some(g) => {
                        groups[g].push(set);
                        group[set] = Some(g);
                    }
                    None => {
                        group[set] = Some(groups.len());
                        groups.push(vec![set]);
                    }
                }
            }
        }
        let lane_debt = groups
            .iter()
            .map(|_| std::sync::atomic::AtomicI64::new(0))
            .collect();
        let done = (0..traces.len())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        ReplayCtx {
            traces,
            gates,
            stats: ReplayCounters::default(),
            references,
            threshold,
            group,
            groups,
            cache: Mutex::new(HashMap::new()),
            lane_debt,
            done,
            batch,
            app_name: app_name.to_owned(),
        }
    }

    /// Marks `set`'s phase-1 search complete (perf-only; see `done`).
    fn mark_done(&self, set: usize) {
        self.done[set].store(true, Ordering::Relaxed);
    }

    fn live(app_name: &str, input_sets: usize, references: &'a [Vec<f64>]) -> Self {
        Self::new(
            app_name,
            vec![None; input_sets],
            references,
            f64::INFINITY,
            false,
        )
    }

    /// The tape to try for `set`, unless none was recorded or the
    /// divergence latch tripped.
    fn trace_for(&self, set: usize) -> Option<&Trace> {
        let trace = self.traces.get(set)?.as_ref()?;
        if self.gates[set].load(Ordering::Relaxed) >= DIVERGENCE_LATCH {
            return None;
        }
        Some(trace)
    }

    fn note_outcome(&self, set: usize, diverged: bool) {
        if diverged {
            self.stats.diverged.fetch_add(1, Ordering::Relaxed);
            let gate = self.gates[set].fetch_add(1, Ordering::Relaxed) + 1;
            if tp_obs::enabled() {
                tp_obs::counter_inc(&format!("trace.diverged.{}", self.app_name));
                if gate == DIVERGENCE_LATCH {
                    // The exact divergence that latched this set back to
                    // live evaluation — rare, and worth seeing per kernel.
                    tp_obs::counter_inc(&format!("trace.divergence_latch.{}", self.app_name));
                }
            }
        } else {
            self.stats.replayed.fetch_add(1, Ordering::Relaxed);
            self.gates[set].store(0, Ordering::Relaxed);
            if tp_obs::enabled() {
                tp_obs::counter_inc(&format!("trace.replayed.{}", self.app_name));
            }
        }
    }

    /// Converts one lane's replay result into a cacheable verdict.
    fn verdict_of(&self, set: usize, result: &Replayed) -> Verdict {
        match result {
            Replayed::Output(out) => {
                if relative_rms_error(&self.references[set], out) <= self.threshold {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                }
            }
            Replayed::Divergent { .. } => Verdict::Diverged,
        }
    }

    /// Tallies a consumed verdict for `set` and translates it for the
    /// caller. The tally discipline mirrors the sequential path exactly:
    /// one note per evaluation call that attempted replay — which is what
    /// keeps the [`ReplaySummary`] bit-identical with batching off.
    fn serve(&self, set: usize, verdict: Verdict) -> Served {
        match verdict {
            Verdict::Pass => {
                self.note_outcome(set, false);
                Served::Done(true)
            }
            Verdict::Fail => {
                self.note_outcome(set, false);
                Served::Done(false)
            }
            Verdict::Diverged => {
                self.note_outcome(set, true);
                Served::Diverged
            }
        }
    }

    /// The batched fast path for one `(set, candidate)` quality check.
    ///
    /// On a cache hit the stored verdict is served (paying down the
    /// group's speculative-lane debt if the hit consumed a sibling-
    /// computed extra lane). On a miss with the debt under
    /// [`LANE_DEBT_LIMIT`], **all** currently-replayable lanes of `set`'s
    /// same-shape group are evaluated in one [`Trace::replay_batch`] pass
    /// and their verdicts cached; with the debt over the limit, only
    /// `set`'s own lane is replayed (still cached — re-validations of the
    /// same candidate stay free). Either way only `set`'s own verdict is
    /// tallied now — each other member's is tallied when (and only when)
    /// that member's own evaluation call consumes it, so per-set attempt
    /// sequences (and the divergence latches they drive) evolve exactly
    /// as without batching.
    fn batched(
        &self,
        params: &SearchParams,
        vars: &[VarSpec],
        cand: &Candidate,
        set: usize,
    ) -> Served {
        if !self.batch {
            return Served::NoBatch;
        }
        let Some(gid) = self.group[set] else {
            return Served::NoBatch;
        };
        if self.groups[gid].len() < 2 {
            return Served::NoBatch;
        }
        // A latched set would not attempt replay sequentially; it must not
        // consume (or compute) batched verdicts either.
        if self.trace_for(set).is_none() {
            return Served::NoBatch;
        }
        let key = cand_key(cand);
        {
            let mut cache = self.cache.lock().expect("verdict cache poisoned");
            if let Some(slot) = cache.get_mut(&key).and_then(|entry| entry[set].as_mut()) {
                let (verdict, extra) = *slot;
                if extra {
                    // A sibling's speculative lane paid off; credit the
                    // consumed extra lane = one full sequential pass this
                    // set did not have to run; credit it at full value so
                    // a group whose hit rate stays above the marginal
                    // lane cost keeps batching indefinitely.
                    slot.1 = false;
                    self.lane_debt[gid].fetch_sub(HIT_CREDIT, Ordering::Relaxed);
                    tp_obs::counter_inc("tuner.speculation_hits");
                }
                drop(cache);
                return self.serve(set, verdict);
            }
        }

        let cfg = cand.config(params.type_system, vars);
        let throttled = self.lane_debt[gid].load(Ordering::Relaxed) >= LANE_DEBT_LIMIT;
        if throttled {
            tp_obs::counter_inc("tuner.speculation_throttled");
        }
        let (members, results) = if throttled {
            // Siblings have not been consuming their lanes: replay only
            // the requesting set (one sequential tape pass), but keep
            // caching so identical future requests still hit.
            let trace = self.traces[set].as_ref().expect("grouped sets have tapes");
            (vec![set], vec![trace.replay(&cfg)])
        } else {
            // One structure-of-arrays pass over every lane of the group
            // that is currently allowed to replay and still searching (a
            // done set's speculative lane would almost surely go unread).
            let members: Vec<usize> = self.groups[gid]
                .iter()
                .copied()
                .filter(|&s| {
                    s == set
                        || (!self.done[s].load(Ordering::Relaxed) && self.trace_for(s).is_some())
                })
                .collect();
            if members.len() < 2 {
                let trace = self.traces[set].as_ref().expect("grouped sets have tapes");
                (vec![set], vec![trace.replay(&cfg)])
            } else {
                let lane_traces: Vec<&Trace> = members
                    .iter()
                    .map(|&s| self.traces[s].as_ref().expect("grouped sets have tapes"))
                    .collect();
                let results = Trace::replay_batch(&lane_traces, &cfg);
                self.lane_debt[gid]
                    .fetch_add((members.len() as i64 - 1) * LANE_COST, Ordering::Relaxed);
                tp_obs::counter_add("tuner.speculation_lanes", members.len() as u64 - 1);
                (members, results)
            }
        };

        let mut own = None;
        let mut entry: LaneVerdicts = vec![None; self.traces.len()];
        for (&s, result) in members.iter().zip(&results) {
            let verdict = self.verdict_of(s, result);
            entry[s] = Some((verdict, s != set));
            if s == set {
                own = Some(verdict);
            }
        }
        let mut cache = self.cache.lock().expect("verdict cache poisoned");
        let slot = cache.entry(key).or_insert_with(|| vec![None; entry.len()]);
        for (have, computed) in slot.iter_mut().zip(entry) {
            if have.is_none() {
                *have = computed;
            }
        }
        drop(cache);
        self.serve(set, own.expect("own set is always a member"))
    }

    /// Evaluates the narrow and wide hypotheses of one speculative probe
    /// as a two-candidate pass over `set`'s tape ([`Trace::replay_candidates`]
    /// shares the tape prefix on which the two configurations agree),
    /// falling back to live execution per hypothesis on divergence.
    /// Decision- and tally-equivalent to two independent `eval_candidate`
    /// calls.
    #[allow(clippy::too_many_arguments)]
    fn speculative_pair(
        &self,
        app: &dyn Tunable,
        params: &SearchParams,
        vars: &[VarSpec],
        narrow: &Candidate,
        wide: &Candidate,
        reference: &[f64],
        set: usize,
    ) -> (bool, bool) {
        let trace = self.trace_for(set).expect("caller checked trace_for");
        let ncfg = narrow.config(params.type_system, vars);
        let wcfg = wide.config(params.type_system, vars);
        let results = trace.replay_candidates(&[&ncfg, &wcfg]);
        let resolve = |cand: &Candidate, result: &Replayed| match result {
            Replayed::Output(out) => {
                self.note_outcome(set, false);
                relative_rms_error(reference, out) <= params.threshold
            }
            Replayed::Divergent { .. } => {
                self.note_outcome(set, true);
                candidate_passes(app, params, vars, cand, reference, set)
            }
        };
        let narrow_ok = resolve(narrow, &results[0]);
        let wide_ok = resolve(wide, &results[1]);
        (narrow_ok, wide_ok)
    }

    fn summary(&self) -> ReplaySummary {
        ReplaySummary {
            traces: self.traces.iter().flatten().count(),
            replayed: self.stats.replayed.load(Ordering::Relaxed),
            diverged: self.stats.diverged.load(Ordering::Relaxed),
        }
    }
}

/// The verdict cache's candidate key: the `(precision, wide)` assignment,
/// two bytes per variable (precision ≤ 24 fits a byte).
fn cand_key(cand: &Candidate) -> Vec<u8> {
    let mut key = Vec::with_capacity(cand.precision.len() * 2);
    for (&p, &w) in cand.precision.iter().zip(&cand.wide) {
        key.push(p as u8);
        key.push(u8::from(w));
    }
    key
}

/// Parameters of a tuning run.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Maximum relative RMS output error (the paper's `SQNR = 10⁻ᵏ`
    /// thresholds).
    pub threshold: f64,
    /// Number of input sets for the statistical refinement phase.
    pub input_sets: usize,
    /// Type system whose dynamic-range hypotheses drive the exponent choice
    /// per precision interval (Section III-A).
    pub type_system: TypeSystem,
    /// Upper precision bound; 24 is binary32's significand width.
    pub max_precision: u32,
    /// Number of descent passes over the variable list per input set
    /// (later passes exploit interactions unlocked by earlier ones).
    pub passes: usize,
    /// Worker threads for the parallel driver. `0` (the default) resolves
    /// via [`crate::resolve_workers`]: the `TP_WORKERS` environment variable
    /// if set, otherwise [`std::thread::available_parallelism`]. The chosen
    /// formats are bit-identical at any worker count; only the evaluation
    /// count varies (speculative probes — see the module docs).
    pub workers: usize,
    /// Candidate evaluation strategy: live kernel runs, or record/replay
    /// with live fallback. Chosen formats are bit-identical either way,
    /// and an observed search runs live in both (see [`TunerMode`]).
    pub mode: TunerMode,
    /// Batched replay ([`TunerMode::Replay`] only): evaluate all
    /// same-shape input sets of a candidate in one structure-of-arrays
    /// pass, and speculative hypothesis pairs in one multi-candidate pass.
    /// Decision-transparent — formats, evaluation counts and the
    /// [`ReplaySummary`] are bit-identical on or off — so it is excluded
    /// from the store's `JobKey`, like `workers`.
    pub batch: bool,
}

impl SearchParams {
    /// Parameters used throughout the paper's evaluation: the given error
    /// threshold, three input sets, the V2 type system, auto worker count,
    /// replay mode with batched replay on.
    #[must_use]
    pub fn paper(threshold: f64) -> Self {
        SearchParams {
            threshold,
            input_sets: 3,
            type_system: TypeSystem::V2,
            max_precision: 24,
            passes: 2,
            workers: 0,
            mode: TunerMode::Replay,
            batch: true,
        }
    }

    /// Builder-style override of the worker count (`0` = auto).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style override of the evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, mode: TunerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style override of the batched-replay switch.
    #[must_use]
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
        self
    }
}

/// Result of tuning a single variable.
///
/// `PartialEq` is field-by-field: two results are equal exactly when the
/// variable, the chosen precision and the wide-range verdict all match —
/// this is what the store's round-trip tests and the service's
/// bit-identity assertions compare.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedVar {
    /// The variable, with its element count.
    pub spec: VarSpec,
    /// Minimum significand bits (implicit bit included) meeting the
    /// threshold; between 2 and `max_precision`.
    pub precision_bits: u32,
    /// `true` if the variable needed the 8-bit-exponent dynamic range even
    /// though its precision interval maps to a 5-bit exponent (saturation
    /// was observed otherwise).
    pub needs_wide_range: bool,
}

impl TunedVar {
    /// The evaluation format this tuning implies under `ts`.
    #[must_use]
    pub fn eval_format(&self, ts: TypeSystem) -> FpFormat {
        eval_format(ts, self.precision_bits, self.needs_wide_range)
    }
}

/// Outcome of a full tuning run.
///
/// Every field is public and plain data, so outcomes are constructible by
/// deserializers (`tp-store` persists them field-by-field) and comparable
/// with `==`. Adding a field here changes the persisted shape: the store's
/// golden round-trip test will fail, forcing a conscious bump of the store
/// format version (and of [`TUNER_VERSION`](crate::TUNER_VERSION) if the
/// search behavior changed too).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// Application name.
    pub app: String,
    /// Threshold the outcome satisfies (on every input set).
    pub threshold: f64,
    /// Type system used for the dynamic-range hypotheses.
    pub type_system: TypeSystem,
    /// Per-variable results, in the application's declaration order.
    pub vars: Vec<TunedVar>,
    /// Number of program evaluations spent (live and replayed alike).
    pub evaluations: u64,
    /// How much of the run the replay engine carried (all zero under
    /// [`TunerMode::Live`] and for observed searches; see
    /// [`ReplaySummary`]).
    pub replay: ReplaySummary,
}

impl TuningOutcome {
    /// The per-variable evaluation configuration (tuned `(e, m)` formats,
    /// before mapping onto the named storage formats).
    #[must_use]
    pub fn eval_config(&self) -> TypeConfig {
        let mut cfg = TypeConfig::baseline();
        for v in &self.vars {
            cfg.set(v.spec.name, v.eval_format(self.type_system));
        }
        cfg
    }

    /// Looks up one variable's result by name.
    #[must_use]
    pub fn var(&self, name: &str) -> Option<&TunedVar> {
        self.vars.iter().find(|v| v.spec.name == name)
    }
}

/// The exponent-width hypothesis per precision interval (Section III-A).
///
/// Precisions above 11 bits always evaluate with binary32's 8-bit exponent.
/// Under V1 the 16-bit hypothesis is binary16 (5-bit exponent); under V2 the
/// `(3, 8]` interval gets binary16alt's 8-bit exponent. A variable flagged
/// wide-range is always evaluated with an 8-bit exponent.
///
/// This is the **canonical** evaluation-format rule:
/// [`TunedVar::eval_format`] delegates here, and the interval table itself
/// is not restated — the exponent hypothesis is, by definition, the
/// exponent width of the storage format the demand would map to, so it is
/// read off [`TypeSystem::map`] (one interval table for both the evaluation
/// and the storage side of the flow).
#[must_use]
pub fn eval_format(ts: TypeSystem, precision_bits: u32, wide: bool) -> FpFormat {
    let p = precision_bits.clamp(2, 24);
    let e = ts.map(p, wide).format().exp_bits();
    FpFormat::new(e, p - 1).expect("validated widths")
}

/// One candidate assignment of `(precision, wide)` to every variable —
/// the unit the search explores and the workers evaluate.
#[derive(Debug, Clone)]
struct Candidate {
    precision: Vec<u32>,
    wide: Vec<bool>,
}

impl Candidate {
    /// The per-variable evaluation configuration this candidate implies.
    fn config(&self, ts: TypeSystem, vars: &[VarSpec]) -> TypeConfig {
        let mut cfg = TypeConfig::baseline();
        for (i, v) in vars.iter().enumerate() {
            cfg.set(v.name, eval_format(ts, self.precision[i], self.wide[i]));
        }
        cfg
    }
}

/// Pure candidate evaluation — the function the parallel driver fans out.
///
/// Runs `app` under the candidate's configuration on `set` and checks the
/// quality constraint against `reference`. Touches no search state, so any
/// number of these can execute concurrently on shared `&` data.
fn candidate_passes(
    app: &dyn Tunable,
    params: &SearchParams,
    vars: &[VarSpec],
    cand: &Candidate,
    reference: &[f64],
    set: usize,
) -> bool {
    if tp_obs::enabled() {
        tp_obs::counter_inc(&format!("trace.live.{}", app.name()));
    }
    let out = app.run(&cand.config(params.type_system, vars), set);
    relative_rms_error(reference, &out) <= params.threshold
}

/// Replay-first candidate evaluation: serve the quality check from `set`'s
/// recorded tape when one exists and the replay does not diverge, else run
/// the kernel live ([`candidate_passes`]).
///
/// Bit-identical to [`candidate_passes`] by the replay contract (a
/// non-divergent replay reproduces the live outputs exactly), so the two
/// paths are interchangeable decision-wise — which is what makes
/// [`TunerMode`] invisible in the chosen formats.
fn eval_candidate(
    app: &dyn Tunable,
    params: &SearchParams,
    vars: &[VarSpec],
    cand: &Candidate,
    reference: &[f64],
    set: usize,
    replay: &ReplayCtx<'_>,
) -> bool {
    // Batched fast path: serve this set's verdict from (or compute into)
    // the group verdict cache.
    match replay.batched(params, vars, cand, set) {
        Served::Done(passes) => return passes,
        Served::Diverged => return candidate_passes(app, params, vars, cand, reference, set),
        Served::NoBatch => {}
    }
    if let Some(trace) = replay.trace_for(set) {
        let cfg = cand.config(params.type_system, vars);
        match trace.replay(&cfg).output() {
            Some(out) => {
                replay.note_outcome(set, false);
                return relative_rms_error(reference, &out) <= params.threshold;
            }
            None => replay.note_outcome(set, true),
        }
    }
    candidate_passes(app, params, vars, cand, reference, set)
}

/// Internal mutable search state for one `(application, input set)` pair.
struct SearchState<'a> {
    app: &'a dyn Tunable,
    params: SearchParams,
    vars: &'a [VarSpec],
    cand: Candidate,
    evaluations: u64,
    /// Evaluate the narrow- and wide-exponent hypotheses of a probe
    /// concurrently instead of short-circuiting. Decision-neutral;
    /// inflates `evaluations` (see the module docs).
    speculate: bool,
    /// Per-input-set tapes + divergence latches for replay-first
    /// evaluation (all-`None` in [`TunerMode::Live`] and when observed).
    replay: &'a ReplayCtx<'a>,
}

impl<'a> SearchState<'a> {
    fn passes(&mut self, reference: &[f64], set: usize) -> bool {
        self.evaluations += 1;
        eval_candidate(
            self.app,
            &self.params,
            self.vars,
            &self.cand,
            reference,
            set,
            self.replay,
        )
    }

    /// Does precision `p` work for variable `i`? Tries the narrow-exponent
    /// hypothesis first, then the wide one; returns the accepted `wide`
    /// flag and leaves `self.cand` set to the accepted (or last-tried)
    /// hypothesis. The wide retry only exists when the narrow hypothesis
    /// actually has a narrow exponent (otherwise the two are identical).
    fn try_p(&mut self, i: usize, p: u32, reference: &[f64], set: usize) -> Option<bool> {
        self.cand.precision[i] = p;
        self.cand.wide[i] = false;
        let has_wide_retry = eval_format(self.params.type_system, p, false).exp_bits() < 8;

        if self.speculate && has_wide_retry {
            // Speculative probe: evaluate both hypotheses concurrently.
            // Narrow still wins ties, so the decision matches the
            // sequential short-circuit exactly; only the evaluation count
            // differs (the wide run happens even when narrow passes).
            let narrow = self.cand.clone();
            let mut wide = self.cand.clone();
            wide.wide[i] = true;
            let (app, params, vars) = (self.app, self.params, self.vars);
            let replay = self.replay;
            let batch_pair = replay.batch && replay.trace_for(set).is_some();
            let (narrow_ok, wide_ok) = if batch_pair {
                // Both hypotheses always get evaluated on this branch, so
                // a shared-prefix multi-candidate pass over the tape is a
                // strict win over two threads replaying it in full.
                replay.speculative_pair(app, &params, vars, &narrow, &wide, reference, set)
            } else if Recorder::is_enabled() {
                // The caller is recording: capture both probes' counts in
                // their own scopes (the spawned thread's recorder starts
                // disabled). Absorb the narrow counts always, the wide
                // counts only when the narrow hypothesis failed — exactly
                // the evaluations a sequential run executes — so recorded
                // totals stay worker-count invariant even though the
                // speculative wide run happened (it is dropped when narrow
                // passes, like the speculated work it is).
                let ((narrow_ok, nc), (wide_ok, wc)) = pool::join2(
                    || {
                        Recorder::scoped(|| {
                            eval_candidate(app, &params, vars, &narrow, reference, set, replay)
                        })
                    },
                    || {
                        Recorder::scoped(|| {
                            eval_candidate(app, &params, vars, &wide, reference, set, replay)
                        })
                    },
                );
                Recorder::absorb(&nc);
                if !narrow_ok {
                    Recorder::absorb(&wc);
                }
                (narrow_ok, wide_ok)
            } else {
                pool::join2(
                    || eval_candidate(app, &params, vars, &narrow, reference, set, replay),
                    || eval_candidate(app, &params, vars, &wide, reference, set, replay),
                )
            };
            self.evaluations += 2;
            if narrow_ok {
                Some(false)
            } else if wide_ok {
                self.cand.wide[i] = true;
                Some(true)
            } else {
                None
            }
        } else {
            if self.passes(reference, set) {
                return Some(false);
            }
            if has_wide_retry {
                self.cand.wide[i] = true;
                if self.passes(reference, set) {
                    return Some(true);
                }
            }
            None
        }
    }

    /// Minimal passing precision for variable `i` with all others fixed.
    /// Leaves the state updated to the winner. Ties between hypotheses are
    /// broken deterministically — smallest precision first (binary search),
    /// narrow exponent preferred — so the winner is scheduling-independent.
    fn descend_var(&mut self, i: usize, reference: &[f64], set: usize) {
        let original = (self.cand.precision[i], self.cand.wide[i]);

        // Binary search for the smallest passing precision in [2, current].
        let (mut lo, mut hi) = (2u32, original.0);
        let mut best: Option<(u32, bool)> = Some(original);
        while lo <= hi {
            let mid = (lo + hi) / 2;
            match self.try_p(i, mid, reference, set) {
                Some(wide) => {
                    best = Some((mid, wide));
                    if mid == 2 {
                        break;
                    }
                    hi = mid - 1;
                }
                None => lo = mid + 1,
            }
        }
        let (p, w) = best.expect("original precision always passes");
        self.cand.precision[i] = p;
        self.cand.wide[i] = w;
    }

    /// Repairs a failing configuration by raising precisions round-robin,
    /// lowest first, until the set passes again.
    fn repair(&mut self, reference: &[f64], set: usize) {
        while !self.passes(reference, set) {
            // Raise the currently lowest-precision raisable variable.
            let candidate = (0..self.vars.len())
                .filter(|&i| self.cand.precision[i] < self.params.max_precision)
                .min_by_key(|&i| self.cand.precision[i]);
            match candidate {
                Some(i) => {
                    self.cand.precision[i] =
                        (self.cand.precision[i] + 2).min(self.params.max_precision);
                }
                None => break, // everything is at maximum already
            }
        }
    }
}

/// Phase 1 for one input set: descend every variable by binary search for
/// [`SearchParams::passes`] rounds, repairing after each round. Returns the
/// tuned candidate and the number of evaluations spent.
#[allow(clippy::too_many_arguments)]
fn tune_one_set(
    app: &dyn Tunable,
    params: SearchParams,
    vars: &[VarSpec],
    order: &[usize],
    set: usize,
    speculate: bool,
    replay: &ReplayCtx<'_>,
    reference: &[f64],
) -> (Candidate, u64) {
    let mut st = SearchState {
        app,
        params,
        vars,
        cand: Candidate {
            precision: vec![params.max_precision; vars.len()],
            wide: vec![false; vars.len()],
        },
        evaluations: 0,
        speculate,
        replay,
    };
    for _ in 0..params.passes {
        for &i in order {
            st.descend_var(i, reference, set);
        }
        st.repair(reference, set);
    }
    debug_assert!(candidate_passes(
        app, &params, vars, &st.cand, reference, set
    ));
    (st.cand, st.evaluations)
}

/// Runs the full two-phase search for `app` under `params`.
///
/// Phase 1 tunes each input set independently — fanned out over
/// [`SearchParams::workers`] scoped threads: variables are visited in
/// descending element count (largest memory impact first) and lowered by
/// binary search, for [`SearchParams::passes`] rounds, with a repair step
/// whenever interactions break the full-configuration check. Phase 2 joins
/// the per-set bindings (maximum precision, OR of the wide-range flags —
/// both order-free reductions, applied in set order) and re-validates on
/// every set, repairing if needed.
///
/// The chosen formats are **bit-identical at any worker count**; only
/// [`TuningOutcome::evaluations`] may vary (see the module docs). If the
/// caller has a [`Recorder`](flexfloat::Recorder) running, operations
/// executed by worker threads are absorbed back into its counts.
#[must_use]
pub fn distributed_search(app: &dyn Tunable, params: SearchParams) -> TuningOutcome {
    let vars = app.variables();
    assert!(!vars.is_empty(), "tunable program declares no variables");
    assert!(params.input_sets >= 1, "need at least one input set");
    assert!(params.threshold > 0.0, "threshold must be positive");

    // Visit order: biggest arrays first.
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(vars[i].elements));

    let workers = pool::resolve_workers(params.workers);
    // Budget: one worker per input set; speculative hypothesis probes only
    // when a second full wave of workers is available beyond that.
    let speculate = workers >= 2 * params.input_sets && workers > 1;

    // Golden outputs, one per input set, computed once and shared by both
    // phases (implementations are deterministic by the `Tunable` contract,
    // so re-deriving them per phase was pure waste). Computed before the
    // replay context, which borrows them to grade batched lanes. Under an
    // enclosing Recorder each reference run is scoped on its worker and
    // absorbed in set order, exactly like the phase-1 fan-out below, so
    // recorded totals stay worker-count invariant.
    let recording = Recorder::is_enabled();
    let references: Vec<Vec<f64>> = {
        let _span = tp_obs::Span::enter("tuner.phase_references_ns");
        let per_set: Vec<(Vec<f64>, Option<TraceCounts>)> =
            pool::parallel_map(workers.min(params.input_sets), params.input_sets, |set| {
                if recording {
                    let (r, counts) = Recorder::scoped(|| app.reference(set));
                    (r, Some(counts))
                } else {
                    (app.reference(set), None)
                }
            });
        per_set
            .into_iter()
            .map(|(r, counts)| {
                if let Some(counts) = counts {
                    Recorder::absorb(&counts);
                }
                r
            })
            .collect()
    };

    // Replay mode: record each input set's op stream once, up front, fanned
    // out over the same worker pool. A set that cannot be recorded (outside
    // the trace contract) simply keeps evaluating live — `None` entries are
    // the per-set fallback switch. Replay runs only where nothing observes:
    // a replay feeds no Recorder and drives no installed backend, so an
    // observed search evaluates every candidate live and records nothing.
    // Replay is decision-transparent, so formats and evaluations are the
    // same either way.
    let live = params.mode == TunerMode::Live || recording || Engine::is_active();
    let replay = {
        let _span = tp_obs::Span::enter("tuner.phase_record_ns");
        if live {
            ReplayCtx::live(app.name(), params.input_sets, &references)
        } else {
            ReplayCtx::new(
                app.name(),
                pool::parallel_map(workers.min(params.input_sets), params.input_sets, |set| {
                    Trace::record(&vars, |cfg| app.run(cfg, set)).ok()
                }),
                &references,
                params.threshold,
                params.batch,
            )
        }
    };

    // Phase 1: tune every input set independently, in parallel. Recording
    // is left alone in the common (not-recording) case — the per-op
    // `is_enabled` fast path stays a cold branch. Only when the caller has
    // a Recorder running does each worker capture its ops in a scope, and
    // the driver re-absorb the counts in set order, so the enclosing
    // recording sees the same totals a sequential run would have produced.
    let phase1_span = tp_obs::Span::enter("tuner.phase1_ns");
    let per_set: Vec<(Candidate, u64, Option<TraceCounts>)> =
        pool::parallel_map(workers.min(params.input_sets), params.input_sets, |set| {
            if recording {
                let ((cand, evals), counts) = Recorder::scoped(|| {
                    tune_one_set(
                        app,
                        params,
                        &vars,
                        &order,
                        set,
                        speculate,
                        &replay,
                        &references[set],
                    )
                });
                replay.mark_done(set);
                (cand, evals, Some(counts))
            } else {
                let (cand, evals) = tune_one_set(
                    app,
                    params,
                    &vars,
                    &order,
                    set,
                    speculate,
                    &replay,
                    &references[set],
                );
                replay.mark_done(set);
                (cand, evals, None)
            }
        });

    let mut joined = Candidate {
        precision: vec![2u32; vars.len()],
        wide: vec![false; vars.len()],
    };
    let mut evaluations = 0u64;
    for (cand, evals, counts) in &per_set {
        for i in 0..vars.len() {
            joined.precision[i] = joined.precision[i].max(cand.precision[i]);
            joined.wide[i] = joined.wide[i] || cand.wide[i];
        }
        evaluations += evals;
        if let Some(counts) = counts {
            Recorder::absorb(counts);
        }
    }
    drop(phase1_span);

    // Phase 2: validate the joined binding on every set; repair when the
    // max-join is not sufficient due to cross-variable interactions.
    // Because quality is not perfectly monotone in precision, repairing one
    // set can nudge another back over the threshold, so iterate until a
    // full pass over all sets is clean (termination is guaranteed: repairs
    // only raise precisions, and the all-maximum configuration reproduces
    // the reference exactly). This phase is a handful of evaluations and
    // runs sequentially — its trajectory must not depend on scheduling.
    let phase2_span = tp_obs::Span::enter("tuner.phase2_ns");
    let mut st = SearchState {
        app,
        params,
        vars: &vars,
        cand: joined,
        evaluations: 0,
        speculate: false,
        replay: &replay,
    };
    loop {
        let mut clean = true;
        for (set, reference) in references.iter().enumerate() {
            if !st.passes(reference, set) {
                clean = false;
                st.repair(reference, set);
            }
        }
        if clean || st.cand.precision.iter().all(|&p| p == params.max_precision) {
            break;
        }
    }
    evaluations += st.evaluations;
    drop(phase2_span);
    tp_obs::counter_add("tuner.evaluations", evaluations);

    TuningOutcome {
        app: app.name().to_owned(),
        threshold: params.threshold,
        type_system: params.type_system,
        vars: vars
            .iter()
            .enumerate()
            .map(|(i, spec)| TunedVar {
                spec: spec.clone(),
                precision_bits: st.cand.precision[i],
                needs_wide_range: st.cand.wide[i],
            })
            .collect(),
        evaluations,
        replay: replay.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::backend::Emulated;
    use flexfloat::Fx;
    use std::sync::Arc;
    use tp_formats::{BINARY16, BINARY16ALT, BINARY32, BINARY8};

    /// y = Σ xᵢ·wᵢ with two variables; x needs little precision, w needs a
    /// lot (its values are close together, differences matter).
    struct TwoVars;

    impl Tunable for TwoVars {
        fn name(&self) -> &str {
            "TWOVARS"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::array("x", 8), VarSpec::scalar("delta")]
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            let fx = config.format_of("x");
            let fd = config.format_of("delta");
            let base = 1.0 + input_set as f64 * 0.25;
            // delta carries fine detail: result = Σ (x_i + delta) where
            // delta = 1/512 needs ~9+ bits of precision relative to x_i.
            let delta = Fx::new(1.0 + 1.0 / 512.0, fd);
            let mut out = Vec::new();
            for i in 0..8 {
                let x = Fx::new(base + i as f64 * 0.5, fx);
                out.push((x * delta).value());
            }
            out
        }
    }

    #[test]
    fn loose_threshold_drives_precisions_down() {
        let outcome = distributed_search(
            &TwoVars,
            SearchParams {
                input_sets: 2,
                ..SearchParams::paper(1e-1)
            },
        );
        // At 10% error both variables can be tiny.
        for v in &outcome.vars {
            assert!(
                v.precision_bits <= 4,
                "{}: {}",
                v.spec.name,
                v.precision_bits
            );
        }
    }

    #[test]
    fn tight_threshold_keeps_delta_precise() {
        let outcome = distributed_search(
            &TwoVars,
            SearchParams {
                input_sets: 2,
                ..SearchParams::paper(1e-4)
            },
        );
        let delta = outcome.var("delta").unwrap();
        let x = outcome.var("x").unwrap();
        // delta = 1 + 2^-9 needs ~10 significand bits to even exist.
        assert!(
            delta.precision_bits >= 10,
            "delta: {}",
            delta.precision_bits
        );
        // x values are coarse (halves); they need far fewer bits than delta.
        assert!(
            x.precision_bits < delta.precision_bits,
            "x: {}",
            x.precision_bits
        );
    }

    #[test]
    fn outcome_satisfies_threshold_on_all_sets() {
        for threshold in [1e-1, 1e-2, 1e-3] {
            let params = SearchParams {
                input_sets: 3,
                ..SearchParams::paper(threshold)
            };
            let outcome = distributed_search(&TwoVars, params);
            let cfg = outcome.eval_config();
            for set in 0..3 {
                let reference = TwoVars.reference(set);
                let out = TwoVars.run(&cfg, set);
                let err = relative_rms_error(&reference, &out);
                assert!(err <= threshold, "set {set}: {err} > {threshold}");
            }
        }
    }

    /// A program whose single variable holds values around 1e6 — far outside
    /// binary16's range — but needs almost no precision.
    struct WideRange;

    impl Tunable for WideRange {
        fn name(&self) -> &str {
            "WIDERANGE"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::array("big", 4)]
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            let f = config.format_of("big");
            (0..4)
                .map(|i| {
                    let x = Fx::new(1.0e6 * (1.0 + 0.5 * (i + input_set) as f64), f);
                    (x + x).value()
                })
                .collect()
        }
    }

    #[test]
    fn wide_range_is_detected() {
        let outcome = distributed_search(
            &WideRange,
            SearchParams {
                input_sets: 2,
                ..SearchParams::paper(1e-1)
            },
        );
        let v = outcome.var("big").unwrap();
        // Low precision suffices, but a 5-bit exponent saturates at ~57344/65504,
        // so the search must either flag wide-range or land in an 8-bit-exponent
        // interval.
        let fmt = v.eval_format(TypeSystem::V2);
        assert_eq!(
            fmt.exp_bits(),
            8,
            "evaluation format must have binary32 range"
        );
        assert!(v.precision_bits <= 8, "precision: {}", v.precision_bits);
    }

    #[test]
    fn eval_format_intervals() {
        use TypeSystem::{V1, V2};
        assert_eq!(eval_format(V2, 3, false), FpFormat::new(5, 2).unwrap());
        assert_eq!(eval_format(V2, 6, false), FpFormat::new(8, 5).unwrap());
        assert_eq!(eval_format(V2, 10, false), FpFormat::new(5, 9).unwrap());
        assert_eq!(eval_format(V2, 24, false), BINARY32);
        assert_eq!(eval_format(V1, 6, false), FpFormat::new(5, 5).unwrap());
        assert_eq!(eval_format(V2, 3, true).exp_bits(), 8);
        // The named formats fall out at the interval edges.
        assert_eq!(eval_format(V2, 3, false), BINARY8);
        assert_eq!(eval_format(V2, 8, false), BINARY16ALT);
        assert_eq!(eval_format(V2, 11, false), BINARY16);
    }

    #[test]
    fn enclosing_recorder_absorbs_worker_ops() {
        use flexfloat::Recorder;
        let run = |workers: usize| {
            Recorder::record(|| {
                distributed_search(
                    &TwoVars,
                    SearchParams {
                        input_sets: 2,
                        ..SearchParams::paper(1e-1).with_workers(workers)
                    },
                )
            })
        };
        // Worker-thread evaluations were absorbed back: the recording saw
        // at least one FP op per counted evaluation (TwoVars does 8 muls
        // per run; at workers=1 no speculation inflates the count).
        let (seq_outcome, seq_counts) = run(1);
        assert!(
            seq_counts.total_fp_ops() >= seq_outcome.evaluations * 8,
            "{} ops for {} evaluations",
            seq_counts.total_fp_ops(),
            seq_outcome.evaluations
        );
        // Recorded counts are worker-count invariant: speculative wide
        // probes that a sequential run short-circuits past are evaluated
        // but *not* absorbed, so the totals match exactly even though the
        // evaluation counters differ.
        let (_, par_counts) = run(8);
        assert_eq!(seq_counts, par_counts);
    }

    #[test]
    fn workers_do_not_change_the_outcome() {
        let seq = distributed_search(&TwoVars, SearchParams::paper(1e-3).with_workers(1));
        for workers in [2usize, 4, 8] {
            let par = distributed_search(&TwoVars, SearchParams::paper(1e-3).with_workers(workers));
            for (a, b) in seq.vars.iter().zip(&par.vars) {
                assert_eq!(a.precision_bits, b.precision_bits, "workers={workers}");
                assert_eq!(a.needs_wide_range, b.needs_wide_range, "workers={workers}");
            }
            assert!(par.evaluations >= seq.evaluations, "workers={workers}");
        }
    }

    #[test]
    fn replay_mode_matches_live_mode() {
        for threshold in [1e-1, 1e-4] {
            let params = SearchParams {
                input_sets: 2,
                ..SearchParams::paper(threshold)
            };
            // The native installation keeps the thread unobserved (so
            // replay runs) under any `TP_BACKEND`.
            let (live, replay) = Engine::with(Arc::new(Emulated), || {
                (
                    distributed_search(&TwoVars, params.with_mode(TunerMode::Live)),
                    distributed_search(&TwoVars, params.with_mode(TunerMode::Replay)),
                )
            });
            for (a, b) in live.vars.iter().zip(&replay.vars) {
                assert_eq!(a.precision_bits, b.precision_bits, "{threshold:e}");
                assert_eq!(a.needs_wide_range, b.needs_wide_range, "{threshold:e}");
            }
            // Replay is decision-transparent: even the evaluation counter
            // matches, because every replay serves the same verdict the
            // live run would have.
            assert_eq!(live.evaluations, replay.evaluations);
            // And the summary shows the tape actually carried the run.
            assert_eq!(live.replay, ReplaySummary::default());
            assert_eq!(replay.replay.traces, 2);
            assert!(replay.replay.replayed > 0, "{:?}", replay.replay);
            assert_eq!(replay.replay.diverged, 0, "TwoVars is straight-line");
        }
    }

    #[test]
    fn replay_summary_fallback_rate() {
        let mut s = ReplaySummary::default();
        assert_eq!(s.fallback_rate(), 0.0);
        s.replayed = 3;
        s.diverged = 1;
        assert!((s.fallback_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no variables")]
    fn empty_program_panics() {
        struct Empty;
        impl Tunable for Empty {
            fn name(&self) -> &str {
                "EMPTY"
            }
            fn variables(&self) -> Vec<VarSpec> {
                vec![]
            }
            fn run(&self, _: &TypeConfig, _: usize) -> Vec<f64> {
                vec![]
            }
        }
        let _ = distributed_search(&Empty, SearchParams::paper(0.1));
    }
}
