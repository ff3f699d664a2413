//! Cast-aware precision tuning — the paper's proposed future work
//! (Section VI: "the study of new techniques of precision tuning, that take
//! into account the costs of casts with the aim to formulate a
//! multi-objective optimization problem").
//!
//! DistributedSearch minimizes per-variable precision bits in isolation; as
//! the paper's PCA results show (Figs. 6–7), the format *mismatches* it
//! leaves behind can cost more in conversions than the narrower storage
//! saves. This module refines a tuned storage assignment by greedy local
//! search directly on the platform's **energy model**: each move re-types
//! one variable to a different storage format, is accepted only if the
//! output-quality constraint still holds on every input set, and is chosen
//! to maximally reduce modelled energy — casts, vectorization and memory
//! width included.

use flexfloat::{Recorder, TypeConfig};
use tp_formats::{FormatKind, TypeSystem, ALL_KINDS};
use tp_platform::{evaluate, PlatformParams};

use crate::metrics::relative_rms_error;
use crate::report::validated_storage_config;
use crate::search::TuningOutcome;
use crate::tunable::Tunable;

/// One accepted re-typing move: `(variable, from, to)`.
pub type RetypeMove = (String, FormatKind, FormatKind);

/// Result of a cast-aware refinement pass.
#[derive(Debug, Clone)]
pub struct CastAwareOutcome {
    /// The refined storage configuration (quality-validated).
    pub config: TypeConfig,
    /// Modelled energy of the starting (DistributedSearch-mapped)
    /// configuration, in pJ.
    pub initial_energy_pj: f64,
    /// Modelled energy after refinement, in pJ.
    pub final_energy_pj: f64,
    /// Cast instructions executed by the starting configuration.
    pub initial_casts: u64,
    /// Cast instructions executed after refinement.
    pub final_casts: u64,
    /// Accepted re-typing moves, as `(variable, from, to)`.
    pub moves: Vec<RetypeMove>,
}

impl CastAwareOutcome {
    /// Energy improvement over the precision-only mapping (0.07 = 7 %).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.initial_energy_pj == 0.0 {
            return 0.0;
        }
        1.0 - self.final_energy_pj / self.initial_energy_pj
    }
}

/// Modelled energy of one configuration, or `None` if it violates the
/// quality threshold on any input set; `references[set]` is the reference
/// output of input set `set`.
fn cost_of(
    app: &dyn Tunable,
    cfg: &TypeConfig,
    threshold: f64,
    references: &[Vec<f64>],
    params: &PlatformParams,
) -> Option<(f64, u64)> {
    for (set, reference) in references.iter().enumerate() {
        let out = app.run(cfg, set);
        if relative_rms_error(reference, &out) > threshold {
            return None;
        }
    }
    let ((), counts) = Recorder::scoped(|| {
        let _ = app.run(cfg, 0);
    });
    Some((
        evaluate(&counts, params).energy.total(),
        counts.total_casts(),
    ))
}

/// Refines the storage mapping of `outcome` by cast-aware greedy descent on
/// the platform energy model.
///
/// Starts from [`validated_storage_config`]; each round evaluates, for every
/// variable, re-typing it to each alternative storage format of `ts`, and applies
/// the single best energy-reducing move whose configuration still meets the
/// quality threshold on all `input_sets`. Terminates when no move improves
/// energy by at least 0.1 % or after eight rounds.
#[must_use]
pub fn cast_aware_refine(
    app: &dyn Tunable,
    outcome: &TuningOutcome,
    ts: TypeSystem,
    params: &PlatformParams,
    input_sets: usize,
) -> CastAwareOutcome {
    let input_sets = input_sets.max(1);
    let mut cfg = validated_storage_config(app, outcome, ts, input_sets);
    let references: Vec<Vec<f64>> = (0..input_sets).map(|set| app.reference(set)).collect();
    let (initial_energy, initial_casts) =
        cost_of(app, &cfg, outcome.threshold, &references, params)
            .expect("validated starting configuration meets the threshold");

    let mut best_energy = initial_energy;
    let mut casts = initial_casts;
    let mut moves = Vec::new();

    for _ in 0..8 {
        let mut round_best: Option<(TypeConfig, f64, u64, RetypeMove)> = None;
        for v in &outcome.vars {
            let current = cfg.format_of(v.spec.name);
            let current_kind = match FormatKind::of_format(current) {
                Some(k) => k,
                None => continue,
            };
            // The type system's formats, walked in `ALL_KINDS` order: the
            // strict `<` below keeps the first of equal-energy moves, so the
            // order is part of the result.
            for kind in ALL_KINDS.into_iter().filter(|k| ts.kinds().contains(k)) {
                if kind == current_kind {
                    continue;
                }
                let mut candidate = cfg.clone();
                candidate.set(v.spec.name, kind.format());
                if let Some((energy, n_casts)) =
                    cost_of(app, &candidate, outcome.threshold, &references, params)
                {
                    let improves =
                        energy < round_best.as_ref().map_or(best_energy, |(_, e, _, _)| *e);
                    if improves {
                        round_best = Some((
                            candidate,
                            energy,
                            n_casts,
                            (v.spec.name.to_owned(), current_kind, kind),
                        ));
                    }
                }
            }
        }
        match round_best {
            Some((candidate, energy, n_casts, mv)) if energy < best_energy * 0.999 => {
                cfg = candidate;
                best_energy = energy;
                casts = n_casts;
                moves.push(mv);
            }
            _ => break,
        }
    }

    CastAwareOutcome {
        config: cfg,
        initial_energy_pj: initial_energy,
        final_energy_pj: best_energy,
        initial_casts,
        final_casts: casts,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{distributed_search, SearchParams};
    use flexfloat::{Fx, FxArray, VarSpec};
    use tp_formats::{BINARY16, BINARY32};

    /// A program engineered to fool a precision-only tuner: `weights` can
    /// drop to binary8 precision-wise, but every use multiplies a binary32
    /// accumulator, so typing it binary8 buys a cast per operation.
    struct CastTrap;

    impl Tunable for CastTrap {
        fn name(&self) -> &str {
            "CASTTRAP"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::array("weights", 16), VarSpec::array("state", 16)]
        }
        fn run(&self, cfg: &TypeConfig, set: usize) -> Vec<f64> {
            let weights = FxArray::from_f64s(
                cfg.format_of("weights"),
                &(0..16)
                    .map(|i| 1.0 + 0.25 * ((i + set) % 3) as f64)
                    .collect::<Vec<_>>(),
            );
            let state = FxArray::from_f64s(
                cfg.format_of("state"),
                &(0..16).map(|i| 0.001 + 0.37 * i as f64).collect::<Vec<_>>(),
            );
            // The state chain needs precision; weights are coarse.
            let mut acc = Fx::new(0.0, BINARY32);
            for i in 0..16 {
                acc = acc + state.get(i) * weights.get(i);
            }
            vec![acc.value()]
        }
    }

    #[test]
    fn refinement_never_hurts_and_respects_quality() {
        let params = PlatformParams::paper();
        let search = SearchParams {
            input_sets: 2,
            ..SearchParams::paper(1e-3)
        };
        let outcome = distributed_search(&CastTrap, search);
        let refined = cast_aware_refine(&CastTrap, &outcome, TypeSystem::V2, &params, 2);
        assert!(refined.final_energy_pj <= refined.initial_energy_pj);
        // The refined config still satisfies the threshold.
        for set in 0..2 {
            let reference = CastTrap.reference(set);
            let out = CastTrap.run(&refined.config, set);
            assert!(relative_rms_error(&reference, &out) <= 1e-3);
        }
    }

    /// `x = 1.3; x * x`, at a threshold every 16-bit format meets.
    struct Square;

    impl Tunable for Square {
        fn name(&self) -> &str {
            "SQUARE"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::scalar("x")]
        }
        fn run(&self, cfg: &TypeConfig, _: usize) -> Vec<f64> {
            let x = Fx::new(1.3, cfg.format_of("x"));
            vec![(x * x).value()]
        }
    }

    /// `Square` tuned to binary16 precision in `TypeSystem::V1`.
    fn square_outcome() -> TuningOutcome {
        TuningOutcome {
            app: "SQUARE".into(),
            threshold: 1e-2,
            type_system: TypeSystem::V1,
            vars: vec![crate::search::TunedVar {
                spec: VarSpec::scalar("x"),
                precision_bits: 11,
                needs_wide_range: false,
            }],
            evaluations: 0,
            replay: crate::search::ReplaySummary::default(),
        }
    }

    #[test]
    fn refinement_stays_inside_the_type_system() {
        let refined = cast_aware_refine(
            &Square,
            &square_outcome(),
            TypeSystem::V1,
            &PlatformParams::paper(),
            1,
        );
        let kind = FormatKind::of_format(refined.config.format_of("x")).expect("a storage format");
        assert!(TypeSystem::V1.kinds().contains(&kind), "{kind}");
        for (name, _, to) in &refined.moves {
            assert!(TypeSystem::V1.kinds().contains(to), "{name}: {to}");
        }
    }

    #[test]
    fn refinement_composes_with_an_enclosing_recording() {
        let tuned = square_outcome();
        let half = |v| Fx::new(v, BINARY16);
        let (on_after, counts) = Recorder::scoped(|| {
            let _ = half(1.5) * half(2.0);
            let _ = cast_aware_refine(&Square, &tuned, TypeSystem::V1, &PlatformParams::paper(), 1);
            let on_after = Recorder::is_enabled();
            let _ = half(1.5) * half(2.0);
            on_after
        });
        assert!(on_after, "the refinement turned recording off");
        assert!(counts.fp_ops_in(BINARY16) >= 2, "{counts:?}");
    }

    #[test]
    fn improvement_accessor() {
        let o = CastAwareOutcome {
            config: TypeConfig::baseline(),
            initial_energy_pj: 200.0,
            final_energy_pj: 150.0,
            initial_casts: 10,
            final_casts: 2,
            moves: vec![],
        };
        assert!((o.improvement() - 0.25).abs() < 1e-12);
    }
}
