//! MLP — small multi-layer-perceptron inference.
//!
//! A two-layer neural network (`d0 → d1 → d2`) run over a small batch:
//! the machine-learning inference profile the transprecision platform
//! targets — matvec MAC loops (vectorizable, like GEMM) interleaved with
//! per-neuron activations (scalar). The activation is *softsign*
//! `t / (1 + |t|)`, chosen over ReLU deliberately: `abs` is a sign-bit
//! operation with no recorded comparison, so MLP stays straight-line and
//! replays without divergence, while ReLU's `max` would latch the trace
//! on every sign flip near zero.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{gaussian_ish, rng_for, uniform};

/// The MLP benchmark: `out = W2 · softsign(W1 · x + b1) + b2` for a
/// batch of input vectors.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Input features per sample.
    pub d0: usize,
    /// Hidden-layer width.
    pub d1: usize,
    /// Output classes per sample.
    pub d2: usize,
    /// Number of samples in the batch.
    pub batch: usize,
}

impl Mlp {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Mlp {
            d0: 12,
            d1: 16,
            d2: 4,
            batch: 4,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Mlp {
            d0: 6,
            d1: 8,
            d2: 3,
            batch: 2,
        }
    }

    /// Deterministic weights and inputs: `(w1, b1, w2, b2, x)`. Weights
    /// use the classic `1/√fan_in` scale so hidden pre-activations stay
    /// O(1) regardless of layer width.
    #[allow(clippy::type_complexity)]
    fn inputs(&self, input_set: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = rng_for("MLP", input_set);
        let w1 = gaussian_ish(
            &mut rng,
            self.d1 * self.d0,
            0.0,
            1.0 / (self.d0 as f64).sqrt(),
        );
        let b1 = uniform(&mut rng, self.d1, -0.5, 0.5);
        let w2 = gaussian_ish(
            &mut rng,
            self.d2 * self.d1,
            0.0,
            1.0 / (self.d1 as f64).sqrt(),
        );
        let b2 = uniform(&mut rng, self.d2, -0.5, 0.5);
        let x = uniform(&mut rng, self.batch * self.d0, -2.0, 2.0);
        (w1, b1, w2, b2, x)
    }
}

impl Tunable for Mlp {
    fn name(&self) -> &str {
        "MLP"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("x", self.batch * self.d0),
            VarSpec::array("w1", self.d1 * self.d0),
            VarSpec::array("b1", self.d1),
            VarSpec::array("w2", self.d2 * self.d1),
            VarSpec::array("b2", self.d2),
            VarSpec::array("out", self.batch * self.d2),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (d0, d1, d2, batch) = (self.d0, self.d1, self.d2, self.batch);
        let (w1_raw, b1_raw, w2_raw, b2_raw, x_raw) = self.inputs(input_set);
        let w1 = FxArray::from_f64s(config.format_of("w1"), &w1_raw);
        let b1 = FxArray::from_f64s(config.format_of("b1"), &b1_raw);
        let w2 = FxArray::from_f64s(config.format_of("w2"), &w2_raw);
        let b2 = FxArray::from_f64s(config.format_of("b2"), &b2_raw);
        let x = FxArray::from_f64s(config.format_of("x"), &x_raw);
        let mut out = FxArray::zeros(config.format_of("out"), batch * d2);
        let acc_fmt = config.format_of("acc");
        let one = Fx::new(1.0, acc_fmt);

        for q in 0..batch {
            // Hidden layer: matvec plus softsign, kept in the
            // accumulator format between layers (a live intermediate,
            // not a stored tensor).
            let mut hidden = Vec::with_capacity(d1);
            for i in 0..d1 {
                let mut acc = b1.get(i).to(acc_fmt);
                {
                    let _v = VectorSection::enter();
                    for p in 0..d0 {
                        acc = (acc + w1.get(i * d0 + p) * x.get(q * d0 + p)).to(acc_fmt);
                        Recorder::int_ops(2);
                    }
                }
                // softsign(t) = t / (1 + |t|): abs is a sign-bit flip
                // (free, comparison-less), so the activation adds no
                // control-flow divergence to the trace.
                let denom = (one + acc.abs()).to(acc_fmt);
                hidden.push((acc / denom).to(acc_fmt));
            }
            // Output layer: matvec over the hidden activations.
            for o in 0..d2 {
                let mut acc = b2.get(o).to(acc_fmt);
                {
                    let _v = VectorSection::enter();
                    for (i, h) in hidden.iter().enumerate() {
                        acc = (acc + w2.get(o * d1 + i) * *h).to(acc_fmt);
                        Recorder::int_ops(2);
                    }
                }
                out.set(q * d2 + o, acc);
            }
        }
        out.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::BINARY32;
    use tp_tuner::relative_rms_error;

    fn f64_mlp(app: &Mlp, set: usize) -> Vec<f64> {
        let (d0, d1, d2, batch) = (app.d0, app.d1, app.d2, app.batch);
        let (w1, b1, w2, b2, x) = app.inputs(set);
        let mut out = vec![0.0; batch * d2];
        for q in 0..batch {
            let hidden: Vec<f64> = (0..d1)
                .map(|i| {
                    let t = b1[i] + (0..d0).map(|p| w1[i * d0 + p] * x[q * d0 + p]).sum::<f64>();
                    t / (1.0 + t.abs())
                })
                .collect();
            for o in 0..d2 {
                out[q * d2 + o] = b2[o] + (0..d1).map(|i| w2[o * d1 + i] * hidden[i]).sum::<f64>();
            }
        }
        out
    }

    #[test]
    fn binary32_matches_f64_reference() {
        for set in 0..2 {
            let app = Mlp::small();
            let out = app.run(&TypeConfig::baseline(), set);
            let want = f64_mlp(&app, set);
            assert!(relative_rms_error(&want, &out) < 1e-5);
        }
    }

    #[test]
    fn hidden_activations_are_bounded() {
        // softsign maps ℝ → (−1, 1); with bounded hidden values the
        // output layer stays in a range small formats can cover.
        let app = Mlp::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        assert_eq!(out.len(), app.batch * app.d2);
        for v in &out {
            assert!(v.abs() < 10.0, "{v}");
        }
    }

    #[test]
    fn matvec_loops_vectorize() {
        let app = Mlp::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let total = counts.total_fp_ops();
        let share = vector as f64 / total as f64;
        // MAC loops dominate; activations run scalar.
        assert!(share > 0.8, "{share}");
        assert!(counts.fp_ops_in(BINARY32) > 0);
    }

    #[test]
    fn straight_line_records_no_comparisons() {
        let app = Mlp::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let cmps: u64 = counts
            .ops
            .iter()
            .filter(|((_, k), _)| matches!(k, flexfloat::OpKind::Cmp))
            .map(|(_, c)| c.total())
            .sum();
        assert_eq!(cmps, 0, "softsign must not record comparisons");
    }

    #[test]
    fn deterministic() {
        let app = Mlp::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 1),
            app.run(&TypeConfig::baseline(), 1)
        );
    }
}
