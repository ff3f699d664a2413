//! Property tests spanning crates: recording determinism, trace/cost-model
//! algebra, and tuner soundness on randomized miniature programs.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use proptest::prelude::*;
use tp_formats::{FpFormat, BINARY16, BINARY32, BINARY8};
use tp_platform::{evaluate, PlatformParams};
use tp_tuner::{distributed_search, relative_rms_error, SearchParams, Tunable};

/// A randomized element-wise miniature program: out[i] = (a[i]*w + b[i])*s.
#[derive(Debug, Clone)]
struct MiniProgram {
    a: Vec<f64>,
    b: Vec<f64>,
    w: f64,
    s: f64,
    vectorize: bool,
}

impl Tunable for MiniProgram {
    fn name(&self) -> &str {
        "MINI"
    }
    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("a", self.a.len()),
            VarSpec::array("b", self.b.len()),
            VarSpec::scalar("w"),
            VarSpec::scalar("s"),
        ]
    }
    fn run(&self, cfg: &TypeConfig, set: usize) -> Vec<f64> {
        let shift = set as f64 * 0.125;
        let a = FxArray::from_f64s(
            cfg.format_of("a"),
            &self.a.iter().map(|x| x + shift).collect::<Vec<_>>(),
        );
        let b = FxArray::from_f64s(cfg.format_of("b"), &self.b);
        let w = Fx::new(self.w, cfg.format_of("w"));
        let s = Fx::new(self.s, cfg.format_of("s"));
        let guard = self.vectorize.then(VectorSection::enter);
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            out.push(((a.get(i) * w + b.get(i)) * s).value());
        }
        drop(guard);
        out
    }
}

fn mini_strategy() -> impl Strategy<Value = MiniProgram> {
    (
        proptest::collection::vec(-4.0f64..4.0, 4..16),
        proptest::collection::vec(-2.0f64..2.0, 16),
        0.25f64..4.0,
        0.25f64..2.0,
        any::<bool>(),
    )
        .prop_map(|(a, b, w, s, vectorize)| {
            let n = a.len();
            MiniProgram {
                a,
                b: b[..n].to_vec(),
                w,
                s,
                vectorize,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tuner's outcome always satisfies its threshold on every set.
    #[test]
    fn tuner_outcome_is_sound(prog in mini_strategy(), thr_exp in 1u32..4) {
        let threshold = 10f64.powi(-(thr_exp as i32));
        let params = SearchParams { input_sets: 2, ..SearchParams::paper(threshold) };
        let outcome = distributed_search(&prog, params);
        let cfg = outcome.eval_config();
        for set in 0..2 {
            let reference = prog.reference(set);
            let out = prog.run(&cfg, set);
            let err = relative_rms_error(&reference, &out);
            prop_assert!(err <= threshold, "set {}: {} > {}", set, err, threshold);
        }
    }

    /// Recording the same run twice yields identical counts, and the
    /// platform model is a pure function of those counts.
    #[test]
    fn recording_and_models_are_deterministic(prog in mini_strategy()) {
        let cfg = TypeConfig::baseline();
        let ((), c1) = Recorder::scoped(|| { let _ = prog.run(&cfg, 0); });
        let ((), c2) = Recorder::scoped(|| { let _ = prog.run(&cfg, 0); });
        prop_assert_eq!(&c1, &c2);
        let params = PlatformParams::paper();
        prop_assert_eq!(evaluate(&c1, &params), evaluate(&c2, &params));
    }

    /// Narrowing a program's formats never increases cycles, memory
    /// accesses or energy under the platform model.
    #[test]
    fn narrower_formats_never_cost_more(prog in mini_strategy()) {
        let params = PlatformParams::paper();
        let run = |fmt: FpFormat| {
            let cfg = TypeConfig::uniform(fmt);
            let ((), counts) = Recorder::scoped(|| { let _ = prog.run(&cfg, 0); });
            evaluate(&counts, &params)
        };
        let r32 = run(BINARY32);
        let r16 = run(BINARY16);
        let r8 = run(BINARY8);
        prop_assert!(r16.cycles.total() <= r32.cycles.total());
        prop_assert!(r8.cycles.total() <= r16.cycles.total());
        prop_assert!(r8.memory.total() <= r16.memory.total());
        prop_assert!(r16.memory.total() <= r32.memory.total());
        prop_assert!(r16.energy.total() <= r32.energy.total());
        prop_assert!(r8.energy.total() <= r16.energy.total());
    }

    /// Merging two traces is equivalent to recording the concatenated run.
    #[test]
    fn trace_merge_is_additive(prog in mini_strategy()) {
        let cfg = TypeConfig::baseline();
        let ((), once) = Recorder::scoped(|| { let _ = prog.run(&cfg, 0); });
        let ((), twice) = Recorder::scoped(|| {
            let _ = prog.run(&cfg, 0);
            let _ = prog.run(&cfg, 0);
        });
        let mut doubled = flexfloat::TraceCounts::new();
        doubled.merge(&once);
        doubled.merge(&once);
        // Op, cast and memory counts are exactly additive; dependent pairs
        // can differ by at most one at the seam between the two runs.
        prop_assert_eq!(doubled.total_fp_ops(), twice.total_fp_ops());
        prop_assert_eq!(doubled.total_casts(), twice.total_casts());
        prop_assert_eq!(doubled.total_mem_accesses(), twice.total_mem_accesses());
        prop_assert_eq!(doubled.int_ops, twice.int_ops);
    }

    /// Vector tagging changes packing, never results: outputs are identical
    /// with and without the vector sections.
    #[test]
    fn vector_tagging_is_semantically_transparent(prog in mini_strategy()) {
        let mut scalar = prog.clone();
        scalar.vectorize = false;
        let mut vector = prog;
        vector.vectorize = true;
        let cfg = TypeConfig::uniform(BINARY8);
        prop_assert_eq!(scalar.run(&cfg, 0), vector.run(&cfg, 0));
    }
}
