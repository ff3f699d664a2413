//! The DistributedSearch-style heuristic precision search.
//!
//! Reimplements the contract of fpPrecisionTuning's DistributedSearch tool
//! (paper Section II): given a target program, a golden output and a quality
//! threshold, find for each program variable the minimum number of precision
//! bits that still meets the threshold — first per input set, then joined
//! across input sets by a statistical refinement phase.
//!
//! Every candidate is evaluated the way the paper's flow does it: by running
//! the program on FlexFloat types under the candidate's formats. A search
//! asks the same (input set, candidate) question more than once — a repair
//! re-validates a binding phase 1 already tried, phase 2 re-asks a set's own
//! phase-1 winner — so a per-search [`Memo`] answers repeats without running
//! the kernel again.
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
use std::sync::{Mutex, MutexGuard};

use flexfloat::{Recorder, TraceCounts, TypeConfig, VarSpec};
use tp_formats::{FpFormat, TypeSystem};

use crate::metrics::relative_rms_error;
use crate::pool;
use crate::tunable::Tunable;

/// The retired choice between live and record/replay evaluation.
///
/// It selects nothing: every search runs each candidate live, in either
/// mode, with the same formats and evaluation count. It stays in
/// [`SearchParams`], the store's job key and the `mode=` SUBMIT token
/// until the benchmark stops naming it; then it goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerMode {
    /// Every candidate evaluation runs the kernel.
    Live,
    /// Same as `Live`; the value [`SearchParams::paper`] sets.
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

/// How much of a tuning run the retired replay engine carried: always all
/// zero, because every search now runs its candidates live. It stays in
/// [`TuningOutcome`] (and in the store's record shape) until the benchmark
/// stops reading it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Input sets whose op stream was recorded.
    pub traces: usize,
    /// Candidate evaluations served from a tape replay.
    pub replayed: u64,
    /// Candidate evaluations whose replay diverged and ran live instead.
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

/// The memo's candidate key: the `(precision, wide)` assignment, two bytes
/// per variable (precision ≤ 24 fits a byte).
fn cand_key(cand: &Candidate) -> Vec<u8> {
    let mut key = Vec::with_capacity(cand.precision.len() * 2);
    for (&p, &w) in cand.precision.iter().zip(&cand.wide) {
        key.push(p as u8);
        key.push(u8::from(w));
    }
    key
}

/// Per-search verdict memo: one map per input set from a candidate
/// ([`cand_key`]) to whether it met the threshold on that set.
///
/// Decision-transparent, because a kernel run is a pure function of
/// (configuration, input set) by the [`Tunable`] contract. A verdict enters
/// only for an ask the sequential driver makes (see [`SearchState::try_p`]),
/// so which asks hit — and so which kernel runs an enclosing [`Recorder`]
/// sees — does not depend on the worker count.
struct Memo {
    sets: Vec<Mutex<HashMap<Vec<u8>, bool>>>,
}

impl Memo {
    fn new(input_sets: usize) -> Self {
        Memo {
            sets: (0..input_sets)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn set(&self, set: usize) -> MutexGuard<'_, HashMap<Vec<u8>, bool>> {
        self.sets[set].lock().expect("verdict memo poisoned")
    }

    fn knows(&self, set: usize, cand: &Candidate) -> bool {
        self.set(set).contains_key(&cand_key(cand))
    }

    fn insert(&self, set: usize, cand: &Candidate, passes: bool) {
        self.set(set).insert(cand_key(cand), passes);
    }

    /// The stored verdict for `cand` on `set`, or a live run's, stored.
    fn passes(
        &self,
        app: &dyn Tunable,
        params: &SearchParams,
        vars: &[VarSpec],
        cand: &Candidate,
        reference: &[f64],
        set: usize,
    ) -> bool {
        let key = cand_key(cand);
        let known = self.set(set).get(&key).copied();
        if let Some(passes) = known {
            if tp_obs::enabled() {
                tp_obs::counter_inc(&format!("tuner.memo_hits.{}", app.name()));
            }
            return passes;
        }
        let passes = candidate_passes(app, params, vars, cand, reference, set);
        self.set(set).insert(key, passes);
        passes
    }
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
    /// Selects nothing (see [`TunerMode`]); kept in the store's job key
    /// until the benchmark stops naming it.
    pub mode: TunerMode,
}

impl SearchParams {
    /// Parameters used throughout the paper's evaluation: the given error
    /// threshold, three input sets, the V2 type system, binary32's 24 bits
    /// as the precision bound, two descent passes and the auto worker
    /// count. `mode` reads [`TunerMode::Replay`], which keeps job keys of
    /// earlier versions spelled the same.
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
        }
    }

    /// Builder-style override of the worker count (`0` = auto).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style override of [`SearchParams::mode`], which selects
    /// nothing.
    #[must_use]
    pub fn with_mode(mut self, mode: TunerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Does nothing: batched replay is gone with the replay engine. Kept
    /// for the benchmark's one call until it drops it, then removed.
    #[must_use]
    pub fn with_batch(self, _batch: bool) -> Self {
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
    /// Number of program evaluations asked for, whether a kernel run or
    /// the search's verdict memo answered them.
    pub evaluations: u64,
    /// Always all zero (see [`ReplaySummary`]).
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
        tp_obs::counter_inc(&format!("tuner.runs.{}", app.name()));
    }
    let out = app.run(&cand.config(params.type_system, vars), set);
    relative_rms_error(reference, &out) <= params.threshold
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
    memo: &'a Memo,
}

impl<'a> SearchState<'a> {
    /// Does the current candidate meet the threshold on `set`? Counted as
    /// an evaluation whether the memo or a kernel run answers.
    fn passes(&mut self, reference: &[f64], set: usize) -> bool {
        self.evaluations += 1;
        self.memo.passes(
            self.app,
            &self.params,
            self.vars,
            &self.cand,
            reference,
            set,
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
            // differs (two, even when narrow passes).
            let narrow = self.cand.clone();
            let mut wide = self.cand.clone();
            wide.wide[i] = true;
            let (app, params, vars, memo) = (self.app, self.params, self.vars, self.memo);
            let (narrow_ok, wide_ok) = if memo.knows(set, &narrow) || memo.knows(set, &wide) {
                // One answer is free, so nothing is worth running ahead:
                // ask in the sequential order.
                let narrow_ok = memo.passes(app, &params, vars, &narrow, reference, set);
                let wide_ok = !narrow_ok && memo.passes(app, &params, vars, &wide, reference, set);
                (narrow_ok, wide_ok)
            } else {
                let run =
                    |cand: &Candidate| candidate_passes(app, &params, vars, cand, reference, set);
                let (narrow_ok, wide_ok) = if Recorder::is_enabled() {
                    // The caller is recording: capture both probes' counts
                    // in their own scopes (the spawned thread's recorder
                    // starts disabled), then absorb what a sequential run
                    // executes — see the memo rule below.
                    let ((narrow_ok, nc), (wide_ok, wc)) = pool::join2(
                        || Recorder::scoped(|| run(&narrow)),
                        || Recorder::scoped(|| run(&wide)),
                    );
                    Recorder::absorb(&nc);
                    if !narrow_ok {
                        Recorder::absorb(&wc);
                    }
                    (narrow_ok, wide_ok)
                } else {
                    pool::join2(|| run(&narrow), || run(&wide))
                };
                // The narrow verdict always enters the memo, the wide one
                // only when narrow failed — exactly the asks a sequential
                // run makes — so the memo, and with it every later hit and
                // the recorded totals, stay worker-count invariant. A
                // speculative wide run after a narrow pass is dropped, like
                // the speculated work it is.
                memo.insert(set, &narrow, narrow_ok);
                if !narrow_ok {
                    memo.insert(set, &wide, wide_ok);
                }
                (narrow_ok, wide_ok)
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
    memo: &Memo,
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
        memo,
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
    // so re-deriving them per phase was pure waste). Under an enclosing
    // Recorder each reference run is scoped on its worker and
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

    let memo = Memo::new(params.input_sets);

    // Phase 1: tune every input set independently, in parallel. Recording
    // is left alone in the common (not-recording) case — the per-op
    // `is_enabled` fast path stays a cold branch. Only when the caller has
    // a Recorder running does each worker capture its ops in a scope, and
    // the driver re-absorb the counts in set order, so the enclosing
    // recording sees the same totals a sequential run would have produced.
    let phase1_span = tp_obs::Span::enter("tuner.phase1_ns");
    let per_set: Vec<(Candidate, u64, Option<TraceCounts>)> =
        pool::parallel_map(workers.min(params.input_sets), params.input_sets, |set| {
            let tune = || {
                tune_one_set(
                    app,
                    params,
                    &vars,
                    &order,
                    set,
                    speculate,
                    &memo,
                    &references[set],
                )
            };
            if recording {
                let ((cand, evals), counts) = Recorder::scoped(tune);
                (cand, evals, Some(counts))
            } else {
                let (cand, evals) = tune();
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
        memo: &memo,
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
        replay: ReplaySummary::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::backend::Emulated;
    use flexfloat::{Engine, Fx};
    use std::sync::atomic::{AtomicU64, Ordering};
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

    /// Wraps a program and counts its `run` and `reference` calls.
    struct Counted<T> {
        inner: T,
        runs: AtomicU64,
        references: AtomicU64,
    }

    impl<T> Counted<T> {
        fn new(inner: T) -> Self {
            Counted {
                inner,
                runs: AtomicU64::new(0),
                references: AtomicU64::new(0),
            }
        }

        fn runs(&self) -> u64 {
            self.runs.load(Ordering::Relaxed)
        }

        fn references(&self) -> u64 {
            self.references.load(Ordering::Relaxed)
        }
    }

    impl<T: Tunable> Tunable for Counted<T> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn variables(&self) -> Vec<VarSpec> {
            self.inner.variables()
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.run(config, input_set)
        }
        fn reference(&self, input_set: usize) -> Vec<f64> {
            self.references.fetch_add(1, Ordering::Relaxed);
            self.inner.reference(input_set)
        }
    }

    #[test]
    fn enclosing_recorder_absorbs_worker_ops() {
        use flexfloat::Recorder;
        let run = |workers: usize| {
            let app = Counted::new(TwoVars);
            let (outcome, counts) = Recorder::record(|| {
                distributed_search(
                    &app,
                    SearchParams {
                        input_sets: 2,
                        ..SearchParams::paper(1e-1).with_workers(workers)
                    },
                )
            });
            (outcome, counts, app.runs() + app.references())
        };
        // Worker-thread kernel runs were absorbed back: the recording saw
        // exactly TwoVars's 8 muls per kernel execution, candidate or
        // reference (at workers=1 nothing runs speculatively).
        let (_, seq_counts, executions) = run(1);
        assert_eq!(
            seq_counts.total_fp_ops(),
            executions * 8,
            "{} ops for {executions} kernel executions",
            seq_counts.total_fp_ops()
        );
        // Recorded counts are worker-count invariant: speculative wide
        // probes that a sequential run short-circuits past are evaluated
        // but *not* absorbed, so the totals match exactly even though the
        // evaluation counters differ.
        let (_, par_counts, _) = run(8);
        assert_eq!(seq_counts, par_counts);
    }

    /// A micro-kernel whose output rides on a comparison that flips once
    /// `x` drops below ~10 significand bits.
    struct Branchy;

    impl Tunable for Branchy {
        fn name(&self) -> &str {
            "BRANCHY"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::array("x", 8)]
        }
        fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
            let fmt = config.format_of("x");
            let limit = Fx::new(1.0 + 4.0 / 1024.0, fmt);
            (0..8)
                .map(|i| {
                    let x = Fx::new(1.0 + 3.0 / 1024.0 + (i + input_set) as f64 * 0.25, fmt);
                    let y = if x.lt(limit) { x + x } else { x * x };
                    y.value()
                })
                .collect()
        }
    }

    /// The verdict memo answers repeated asks without running the kernel,
    /// and every ask still counts as an evaluation: the counts below are
    /// those of the record/replay engine the memo replaced.
    #[test]
    fn memo_serves_repeats_and_keeps_evaluation_counts() {
        fn check(app: &dyn Tunable, runs: impl Fn() -> u64, threshold: f64, evaluations: u64) {
            let params = SearchParams {
                input_sets: 2,
                ..SearchParams::paper(threshold).with_workers(1)
            };
            for mode in [TunerMode::Live, TunerMode::Replay] {
                let before = runs();
                let outcome = distributed_search(app, params.with_mode(mode));
                let ran = runs() - before;
                let at = format!("{} {threshold:e} {mode}", app.name());
                assert_eq!(outcome.evaluations, evaluations, "{at}");
                assert!(ran < outcome.evaluations, "{at}: {ran} runs");
            }
        }
        let two_vars = Counted::new(TwoVars);
        let branchy = Counted::new(Branchy);
        for (threshold, evaluations) in [(1e-1, 34), (1e-4, 48)] {
            check(&two_vars, || two_vars.runs(), threshold, evaluations);
        }
        for (threshold, evaluations) in [(1e-1, 25), (1e-3, 28)] {
            check(&branchy, || branchy.runs(), threshold, evaluations);
        }
    }

    /// A speculative probe stores the narrow verdict always and the wide
    /// one only when narrow failed — the asks a sequential run makes —
    /// so later hits, and the runs a `Recorder` sees, do not depend on
    /// the worker count.
    #[test]
    fn speculative_probe_memoizes_only_sequential_asks() {
        let vars = TwoVars.variables();
        let reference = TwoVars.reference(0);
        for (threshold, var, p, narrow_passes) in [(1e-1, 0, 10, true), (1e-4, 1, 3, false)] {
            let memo = Memo::new(1);
            let mut st = SearchState {
                app: &TwoVars,
                params: SearchParams::paper(threshold),
                vars: &vars,
                cand: Candidate {
                    precision: vec![24; vars.len()],
                    wide: vec![false; vars.len()],
                },
                evaluations: 0,
                speculate: true,
                memo: &memo,
            };
            let accepted = st.try_p(var, p, &reference, 0);
            assert_eq!(accepted == Some(false), narrow_passes, "{threshold:e}");
            assert_eq!(st.evaluations, 2, "{threshold:e}");
            let mut narrow = st.cand.clone();
            narrow.wide[var] = false;
            let mut wide = narrow.clone();
            wide.wide[var] = true;
            assert!(memo.knows(0, &narrow), "{threshold:e}");
            assert_eq!(memo.knows(0, &wide), !narrow_passes, "{threshold:e}");
        }
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
            // Both modes run every candidate live now; they must agree.
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
            // Even the evaluation counter matches.
            assert_eq!(live.evaluations, replay.evaluations);
            assert_eq!(live.replay, ReplaySummary::default());
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
