//! SVM — support-vector-machine prediction stage.
//!
//! Multi-class scoring with a degree-2 polynomial kernel:
//! `score_c = Σ_i alpha[c][i] · (gamma·⟨sv_i, x⟩ + coef)² + bias_c`.
//! The dot products dominate and are unit-stride — the paper reports ~60 %
//! of SVM's FP operations as vectorizable and the largest memory-access
//! reduction of the suite (−48 %, Fig. 6).

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// The SVM benchmark.
#[derive(Debug, Clone)]
pub struct Svm {
    /// Number of support vectors.
    pub support_vectors: usize,
    /// Feature dimensions.
    pub dims: usize,
    /// Output classes.
    pub classes: usize,
    /// Queries scored per run.
    pub queries: usize,
}

impl Svm {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Svm {
            support_vectors: 48,
            dims: 8,
            classes: 3,
            queries: 8,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Svm {
            support_vectors: 12,
            dims: 4,
            classes: 2,
            queries: 3,
        }
    }

    /// Features are raw sensor values in the hundreds, so the kernel
    /// evaluations `(gamma·⟨sv,x⟩ + coef)²` reach the millions: the
    /// accumulator variables need binary32's dynamic range (binary16
    /// saturates), while the features themselves are narrow-friendly.
    #[allow(clippy::type_complexity)]
    fn model(&self, input_set: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = rng_for("SVM", input_set);
        let sv = uniform(&mut rng, self.support_vectors * self.dims, -100.0, 100.0);
        let alpha = uniform(&mut rng, self.classes * self.support_vectors, -0.5, 0.5);
        let bias = uniform(&mut rng, self.classes, -25.0, 25.0);
        let queries = uniform(&mut rng, self.queries * self.dims, -100.0, 100.0);
        (sv, alpha, bias, queries)
    }
}

impl Tunable for Svm {
    fn name(&self) -> &str {
        "SVM"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("sv", self.support_vectors * self.dims),
            VarSpec::array("alpha", self.classes * self.support_vectors),
            VarSpec::array("bias", self.classes),
            VarSpec::array("query", self.queries * self.dims),
            VarSpec::scalar("gamma"),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (sv_raw, alpha_raw, bias_raw, q_raw) = self.model(input_set);
        let sv = FxArray::from_f64s(config.format_of("sv"), &sv_raw);
        let alpha = FxArray::from_f64s(config.format_of("alpha"), &alpha_raw);
        let bias = FxArray::from_f64s(config.format_of("bias"), &bias_raw);
        let queries = FxArray::from_f64s(config.format_of("query"), &q_raw);
        let acc_fmt = config.format_of("acc");
        let gamma = Fx::new(0.5, config.format_of("gamma"));
        let coef = Fx::new(1.0, config.format_of("gamma"));

        let mut out = Vec::with_capacity(self.queries * self.classes);
        for q in 0..self.queries {
            // Kernel evaluations for this query (vectorizable dot products).
            let mut kvals = Vec::with_capacity(self.support_vectors);
            for i in 0..self.support_vectors {
                let _v = VectorSection::enter();
                let mut dot = Fx::zero(acc_fmt);
                for d in 0..self.dims {
                    // Assignment to the typed accumulator rounds into its
                    // format (the C++ flow's explicit conversion).
                    dot = (dot + sv.get(i * self.dims + d) * queries.get(q * self.dims + d))
                        .to(acc_fmt);
                    Recorder::int_ops(2);
                }
                // Polynomial kernel: (gamma*dot + coef)^2 — scalar tail.
                drop(_v);
                let t = (gamma * dot + coef).to(acc_fmt);
                kvals.push((t * t).to(acc_fmt));
                Recorder::int_ops(1);
            }
            // Weighted sums per class.
            for c in 0..self.classes {
                let mut score = Fx::zero(acc_fmt);
                for (i, &k) in kvals.iter().enumerate() {
                    score = (score + alpha.get(c * self.support_vectors + i) * k).to(acc_fmt);
                    Recorder::int_ops(2);
                }
                score = (score + bias.get(c)).to(acc_fmt);
                out.push(score.value());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32};
    use tp_tuner::relative_rms_error;

    /// f64 reference scoring.
    fn f64_svm(app: &Svm, set: usize) -> Vec<f64> {
        let (sv, alpha, bias, queries) = app.model(set);
        let mut out = Vec::new();
        for q in 0..app.queries {
            let kvals: Vec<f64> = (0..app.support_vectors)
                .map(|i| {
                    let dot: f64 = (0..app.dims)
                        .map(|d| sv[i * app.dims + d] * queries[q * app.dims + d])
                        .sum();
                    let t = 0.5 * dot + 1.0;
                    t * t
                })
                .collect();
            for c in 0..app.classes {
                let score: f64 = kvals
                    .iter()
                    .enumerate()
                    .map(|(i, k)| alpha[c * app.support_vectors + i] * k)
                    .sum::<f64>()
                    + bias[c];
                out.push(score);
            }
        }
        out
    }

    #[test]
    fn binary32_matches_f64_reference() {
        let app = Svm::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        let want = f64_svm(&app, 0);
        let err = relative_rms_error(&want, &out);
        assert!(err < 1e-5, "{err}");
    }

    #[test]
    fn binary16_saturates_but_binary16alt_does_not() {
        // The paper's argument for binary16alt: the kernel accumulators
        // exceed binary16's ±65504 range, so the IEEE half format saturates
        // and fails any quality bound, while the same-width binary16alt
        // (binary32 range) stays usable.
        let app = Svm::small();
        let reference = app.reference(0);
        let half = app.run(&TypeConfig::baseline().with("acc", BINARY16), 0);
        let err_half = relative_rms_error(&reference, &half);
        assert!(
            err_half > 0.5,
            "binary16 accumulator must saturate: {err_half}"
        );
        let alt = app.run(
            &TypeConfig::baseline().with("acc", tp_formats::BINARY16ALT),
            0,
        );
        let err_alt = relative_rms_error(&reference, &alt);
        assert!(
            err_alt < 0.05,
            "binary16alt accumulator must work: {err_alt}"
        );
    }

    #[test]
    fn sixty_percent_of_ops_vectorize() {
        let app = Svm::paper();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let total = counts.total_fp_ops();
        let share = vector as f64 / total as f64;
        assert!(
            (0.5..0.75).contains(&share),
            "vector share {share} should be around the paper's 60%"
        );
        assert!(counts.fp_ops_in(BINARY32) > 0);
    }

    #[test]
    fn deterministic_and_set_dependent() {
        let app = Svm::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 0)
        );
        assert_ne!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 1)
        );
    }
}
