//! Report generation: the static views of a tuning outcome used by
//! Table I and Fig. 4 of the paper, and the final mapping of tuned
//! variables onto the platform's storage formats (programming-flow step 3).

use std::collections::BTreeMap;

use flexfloat::TypeConfig;
use tp_formats::{FormatKind, TypeSystem};

use crate::search::TuningOutcome;

/// Fig. 4 row: how many memory locations (array elements + scalars) need
/// each minimum precision, for one application at one threshold.
#[derive(Debug, Clone)]
pub struct PrecisionHistogram {
    /// Application name.
    pub app: String,
    /// Quality threshold of the underlying tuning run.
    pub threshold: f64,
    /// `precision bits -> memory locations` (missing keys mean zero).
    pub buckets: BTreeMap<u32, usize>,
}

impl PrecisionHistogram {
    /// Builds the histogram from a tuning outcome, weighting each variable
    /// by its element count (the paper counts memory locations, not
    /// variables, in Fig. 4).
    #[must_use]
    pub fn from_outcome(outcome: &TuningOutcome) -> Self {
        let mut buckets = BTreeMap::new();
        for v in &outcome.vars {
            *buckets.entry(v.precision_bits).or_insert(0) += v.spec.elements;
        }
        PrecisionHistogram {
            app: outcome.app.clone(),
            threshold: outcome.threshold,
            buckets,
        }
    }

    /// Memory locations requiring exactly `p` precision bits.
    #[must_use]
    pub fn at(&self, p: u32) -> usize {
        self.buckets.get(&p).copied().unwrap_or(0)
    }

    /// Total memory locations.
    #[must_use]
    pub fn total(&self) -> usize {
        self.buckets.values().sum()
    }

    /// Memory locations in a closed precision interval.
    #[must_use]
    pub fn in_range(&self, lo: u32, hi: u32) -> usize {
        self.buckets.range(lo..=hi).map(|(_, n)| n).sum()
    }
}

/// Classifies the tuned variables of an application under a type system,
/// counting *variables* per storage format (one Table I cell group).
#[must_use]
pub fn classify_variables(outcome: &TuningOutcome, ts: TypeSystem) -> BTreeMap<FormatKind, usize> {
    let mut counts = BTreeMap::new();
    for v in &outcome.vars {
        let kind = ts.map(v.precision_bits, v.needs_wide_range);
        *counts.entry(kind).or_insert(0) += 1;
    }
    counts
}

/// Maps the tuned variables onto the platform's storage formats, producing
/// the configuration the application deploys with (programming-flow step 3:
/// "program variables are uniquely mapped to supported FP types").
///
/// Note: because rounding errors interact, quality is not perfectly
/// monotone in per-variable precision — replacing the tuned `(e, m)`
/// evaluation formats by (wider) storage formats occasionally lands just
/// outside the threshold. Use [`validated_storage_config`] when the mapped
/// configuration must provably satisfy the constraint.
#[must_use]
pub fn storage_config(outcome: &TuningOutcome, ts: TypeSystem) -> TypeConfig {
    let mut cfg = TypeConfig::baseline();
    for v in &outcome.vars {
        let kind = ts.map(v.precision_bits, v.needs_wide_range);
        cfg.set(v.spec.name, kind.format());
    }
    cfg
}

/// Like [`storage_config`], then re-validates the mapped configuration on
/// the given input sets and repairs it by promoting variables to wider
/// storage formats until the threshold holds again (the final check of the
/// programming flow).
///
/// Promotion ladder: a variable moves to the first format (in the type
/// system's preference order) with strictly more mantissa bits and at least
/// as many exponent bits; `binary32` is the fixed point.
#[must_use]
pub fn validated_storage_config(
    app: &dyn crate::Tunable,
    outcome: &TuningOutcome,
    ts: TypeSystem,
    input_sets: usize,
) -> TypeConfig {
    let mut cfg = storage_config(outcome, ts);
    let threshold = outcome.threshold;

    let promote = |fmt: tp_formats::FpFormat| -> Option<FormatKind> {
        ts.kinds().iter().copied().find(|k| {
            let f = k.format();
            f.man_bits() > fmt.man_bits() && f.exp_bits() >= fmt.exp_bits()
        })
    };

    for set in 0..input_sets.max(1) {
        let reference = app.reference(set);
        loop {
            let out = app.run(&cfg, set);
            if crate::relative_rms_error(&reference, &out) <= threshold {
                break;
            }
            // Promote the narrowest promotable variable (ties: the one
            // covering the most memory locations, where widening helps most).
            let target = outcome
                .vars
                .iter()
                .filter_map(|v| {
                    let cur = cfg.format_of(v.spec.name);
                    promote(cur).map(|next| (v, cur, next))
                })
                .min_by_key(|(v, cur, _)| (cur.man_bits(), std::cmp::Reverse(v.spec.elements)));
            match target {
                Some((v, _, next)) => cfg.set(v.spec.name, next.format()),
                None => break, // everything already at binary32
            }
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{TunedVar, TuningOutcome};
    use flexfloat::VarSpec;
    use tp_formats::{BINARY16, BINARY16ALT, BINARY32, BINARY8};

    fn outcome() -> TuningOutcome {
        TuningOutcome {
            app: "TEST".into(),
            threshold: 0.1,
            type_system: TypeSystem::V2,
            vars: vec![
                TunedVar {
                    spec: VarSpec::array("a", 100),
                    precision_bits: 3,
                    needs_wide_range: false,
                },
                TunedVar {
                    spec: VarSpec::array("b", 50),
                    precision_bits: 7,
                    needs_wide_range: false,
                },
                TunedVar {
                    spec: VarSpec::scalar("c"),
                    precision_bits: 10,
                    needs_wide_range: false,
                },
                TunedVar {
                    spec: VarSpec::scalar("d"),
                    precision_bits: 20,
                    needs_wide_range: false,
                },
                TunedVar {
                    spec: VarSpec::scalar("e"),
                    precision_bits: 3,
                    needs_wide_range: true,
                },
            ],
            evaluations: 0,
            replay: crate::search::ReplaySummary::default(),
        }
    }

    #[test]
    fn histogram_weights_by_elements() {
        let h = PrecisionHistogram::from_outcome(&outcome());
        assert_eq!(h.at(3), 101); // a (100 elements) + e (scalar)
        assert_eq!(h.at(7), 50);
        assert_eq!(h.at(10), 1);
        assert_eq!(h.at(20), 1);
        assert_eq!(h.at(4), 0);
        assert_eq!(h.total(), 153);
        assert_eq!(h.in_range(1, 8), 151);
    }

    #[test]
    fn classification_under_v2() {
        let c = classify_variables(&outcome(), TypeSystem::V2);
        assert_eq!(c.get(&FormatKind::Binary8), Some(&1)); // a
        assert_eq!(c.get(&FormatKind::Binary16Alt), Some(&2)); // b, e (wide)
        assert_eq!(c.get(&FormatKind::Binary16), Some(&1)); // c
        assert_eq!(c.get(&FormatKind::Binary32), Some(&1)); // d
    }

    #[test]
    fn classification_under_v1() {
        let c = classify_variables(&outcome(), TypeSystem::V1);
        assert_eq!(c.get(&FormatKind::Binary8), Some(&1)); // a
        assert_eq!(c.get(&FormatKind::Binary16), Some(&2)); // b, c

        // d (precision) and e (wide range, no 8-exp 16-bit format) fall to 32.
        assert_eq!(c.get(&FormatKind::Binary32), Some(&2));
    }

    /// `x = 1.3; x * x`: binary8 misses a 1e-2 threshold, anything wider
    /// meets it.
    struct Square;

    impl crate::Tunable for Square {
        fn name(&self) -> &str {
            "SQUARE"
        }
        fn variables(&self) -> Vec<VarSpec> {
            vec![VarSpec::scalar("x")]
        }
        fn run(&self, cfg: &TypeConfig, _: usize) -> Vec<f64> {
            let x = flexfloat::Fx::new(1.3, cfg.format_of("x"));
            vec![(x * x).value()]
        }
    }

    #[test]
    fn promotion_stays_inside_the_type_system() {
        for (ts, want) in [(TypeSystem::V1, BINARY16), (TypeSystem::V2, BINARY16ALT)] {
            let tuned = TuningOutcome {
                app: "SQUARE".into(),
                threshold: 1e-2,
                type_system: ts,
                vars: vec![TunedVar {
                    spec: VarSpec::scalar("x"),
                    precision_bits: 3,
                    needs_wide_range: false,
                }],
                evaluations: 0,
                replay: crate::search::ReplaySummary::default(),
            };
            assert_eq!(storage_config(&tuned, ts).format_of("x"), BINARY8, "{ts}");
            let cfg = validated_storage_config(&Square, &tuned, ts, 1);
            assert_eq!(cfg.format_of("x"), want, "{ts}");
            let kind = FormatKind::of_format(cfg.format_of("x")).expect("a storage format");
            assert!(ts.kinds().contains(&kind), "{ts}: {kind}");
        }
    }

    #[test]
    fn storage_config_uses_named_formats() {
        let cfg = storage_config(&outcome(), TypeSystem::V2);
        assert_eq!(cfg.format_of("a"), BINARY8);
        assert_eq!(cfg.format_of("b"), BINARY16ALT);
        assert_eq!(cfg.format_of("c"), BINARY16);
        assert_eq!(cfg.format_of("d"), BINARY32);
        assert_eq!(cfg.format_of("e"), BINARY16ALT);
    }
}
