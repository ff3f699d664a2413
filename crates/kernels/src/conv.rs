//! CONV — 5×5 convolution kernel.
//!
//! The standard near-sensor imaging primitive: a 5×5 filter slid over an
//! image (valid region only). The multiply-accumulate rows are unit-stride
//! and tagged vectorizable.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::{Tunable, TunableBuilder};

use crate::common::{rng_for, uniform};

/// Filter side (the paper's kernel is fixed at 5×5).
pub const K: usize = 5;

/// The CONV benchmark.
#[derive(Debug, Clone)]
pub struct Conv {
    /// Image side.
    pub n: usize,
}

impl Conv {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Conv { n: 24 }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Conv { n: 10 }
    }

    /// Sensor-like image: smooth gradient plus texture, values `[0, 255]`.
    ///
    /// Public so instruction-level twins (`tp-isa`) can run on the exact
    /// input stream the closure kernel sees for the same `input_set`.
    #[must_use]
    pub fn image(&self, input_set: usize) -> Vec<f64> {
        let mut rng = rng_for("CONV", input_set);
        let texture = uniform(&mut rng, self.n * self.n, -12.0, 12.0);
        let mut img = vec![0.0f64; self.n * self.n];
        for r in 0..self.n {
            for c in 0..self.n {
                let base = 96.0
                    + 64.0 * ((r + input_set) as f64 / self.n as f64)
                    + 32.0 * (c as f64 / self.n as f64);
                img[r * self.n + c] = (base + texture[r * self.n + c]).clamp(0.0, 255.0);
            }
        }
        img
    }

    /// This kernel constructed through [`TunableBuilder`] — the
    /// closure-registration path — instead of the hand-written
    /// `impl Tunable` block. This is the form the default kernel
    /// [`Registry`](tp_tuner::Registry) registers, proving the builder
    /// reproduces a real kernel end to end; the impl block stays as the
    /// equivalence oracle (and for code that wants the concrete type).
    #[must_use]
    pub fn via_builder(self) -> Box<dyn Tunable> {
        TunableBuilder::new("CONV")
            .variables(self.variables())
            .run(move |config, input_set| self.run(config, input_set))
            .build()
            .expect("CONV declares a valid variable set")
    }

    /// A normalized blur-like 5×5 filter with mild asymmetry.
    ///
    /// Public for the same reason as [`Conv::image`]: shared input
    /// plumbing with the instruction-level twin.
    #[must_use]
    pub fn filter(&self, input_set: usize) -> Vec<f64> {
        let mut w = vec![0.0f64; K * K];
        let mut sum = 0.0;
        for r in 0..K {
            for c in 0..K {
                let dr = r as f64 - 2.0;
                let dc = c as f64 - 2.0 + 0.1 * input_set as f64;
                let v = (-(dr * dr + dc * dc) / 4.0).exp();
                w[r * K + c] = v;
                sum += v;
            }
        }
        for v in &mut w {
            *v /= sum;
        }
        w
    }
}

impl Tunable for Conv {
    fn name(&self) -> &str {
        "CONV"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("image", self.n * self.n),
            VarSpec::array("coeff", K * K),
            VarSpec::array("out", (self.n - K + 1) * (self.n - K + 1)),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let n = self.n;
        let m = n - K + 1; // valid output side
        let image = FxArray::from_f64s(config.format_of("image"), &self.image(input_set));
        let coeff = FxArray::from_f64s(config.format_of("coeff"), &self.filter(input_set));
        let mut out = FxArray::zeros(config.format_of("out"), m * m);
        let acc_fmt = config.format_of("acc");

        for r in 0..m {
            for c in 0..m {
                // The 5-wide MAC rows are unit-stride: vectorizable.
                let _v = VectorSection::enter();
                let mut acc = Fx::zero(acc_fmt);
                for kr in 0..K {
                    for kc in 0..K {
                        acc = (acc + image.get((r + kr) * n + c + kc) * coeff.get(kr * K + kc))
                            .to(acc_fmt);
                        Recorder::int_ops(2);
                    }
                }
                drop(_v);
                out.set(r * m + c, acc);
                Recorder::int_ops(2);
            }
        }
        out.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16ALT, BINARY32, BINARY8};
    use tp_tuner::relative_rms_error;

    fn f64_conv(app: &Conv, set: usize) -> Vec<f64> {
        let n = app.n;
        let m = n - K + 1;
        let img = app.image(set);
        let w = app.filter(set);
        let mut out = vec![0.0; m * m];
        for r in 0..m {
            for c in 0..m {
                let mut acc = 0.0;
                for kr in 0..K {
                    for kc in 0..K {
                        acc += img[(r + kr) * n + c + kc] * w[kr * K + kc];
                    }
                }
                out[r * m + c] = acc;
            }
        }
        out
    }

    #[test]
    fn binary32_matches_f64_reference() {
        let app = Conv::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        let want = f64_conv(&app, 0);
        assert!(relative_rms_error(&want, &out) < 1e-5);
    }

    #[test]
    fn blur_output_stays_in_image_range() {
        let app = Conv::small();
        let out = app.run(&TypeConfig::baseline(), 1);
        assert!(out.iter().all(|&x| (0.0..=255.0).contains(&x)));
    }

    #[test]
    fn image_in_binary8_is_usable_at_loose_quality() {
        let app = Conv::small();
        let reference = app.reference(0);
        let cfg = TypeConfig::baseline()
            .with("image", BINARY8)
            .with("coeff", BINARY16ALT);
        let out = app.run(&cfg, 0);
        let err = relative_rms_error(&reference, &out);
        assert!(err < 0.1, "{err}");
    }

    #[test]
    fn mac_loops_dominate_and_vectorize() {
        let app = Conv::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let total = counts.total_fp_ops();
        assert!(vector as f64 / total as f64 > 0.9, "{vector}/{total}");
        assert!(counts.fp_ops_in(BINARY32) > 0);
        // 2 ops (mul + add) per tap, 25 taps, 36 output cells.
        assert_eq!(total, 2 * 25 * 36);
    }

    #[test]
    fn builder_form_is_equivalent_to_the_impl() {
        let app = Conv::small();
        let built = app.clone().via_builder();
        assert_eq!(built.name(), app.name());
        assert_eq!(built.variables(), app.variables());
        assert_eq!(
            built.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 0)
        );
        assert_eq!(built.reference(1), app.reference(1));
    }

    #[test]
    fn deterministic() {
        let app = Conv::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 0)
        );
    }
}
