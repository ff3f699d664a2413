//! DWT — 2-D discrete wavelet transform (Haar, multi-level).
//!
//! Separable row/column transform: each pair of samples becomes an
//! average (approximation) and a difference (detail); the approximation
//! quadrant is recursively transformed. Row passes are unit-stride and
//! tagged vectorizable; column passes are strided and stay scalar.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// The DWT benchmark.
#[derive(Debug, Clone)]
pub struct Dwt {
    /// Image side; must be divisible by `2^levels`.
    pub n: usize,
    /// Decomposition levels.
    pub levels: usize,
}

impl Dwt {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Dwt { n: 32, levels: 2 }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Dwt { n: 8, levels: 2 }
    }

    /// A smooth synthetic image (sensor-like ramp + texture), values in
    /// roughly `[0, 64)`.
    fn image(&self, input_set: usize) -> Vec<f64> {
        let mut rng = rng_for("DWT", input_set);
        let texture = uniform(&mut rng, self.n * self.n, -2.0, 2.0);
        let mut img = vec![0.0f64; self.n * self.n];
        for r in 0..self.n {
            for c in 0..self.n {
                let ramp = (r as f64 * 1.3 + c as f64 * 0.7) * 0.5 + input_set as f64;
                img[r * self.n + c] = 16.0 + ramp + texture[r * self.n + c];
            }
        }
        img
    }
}

impl Tunable for Dwt {
    fn name(&self) -> &str {
        "DWT"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("image", self.n * self.n),
            VarSpec::array("tmp", self.n * self.n),
            VarSpec::scalar("half"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let n = self.n;
        assert!(
            n.is_multiple_of(1 << self.levels),
            "image side must be divisible by 2^levels"
        );
        let mut image = FxArray::from_f64s(config.format_of("image"), &self.image(input_set));
        let mut tmp = FxArray::zeros(config.format_of("tmp"), n * n);
        let half = Fx::new(0.5, config.format_of("half"));

        let mut size = n;
        for _ in 0..self.levels {
            // Row transform: unit-stride pairs — vectorizable.
            {
                let _v = VectorSection::enter();
                for r in 0..size {
                    for c in 0..size / 2 {
                        let a = image.get(r * n + 2 * c);
                        let b = image.get(r * n + 2 * c + 1);
                        tmp.set(r * n + c, (a + b) * half);
                        tmp.set(r * n + size / 2 + c, (a - b) * half);
                        Recorder::int_ops(3);
                    }
                }
            }
            // Column transform: strided — scalar.
            for c in 0..size {
                for r in 0..size / 2 {
                    let a = tmp.get(2 * r * n + c);
                    let b = tmp.get((2 * r + 1) * n + c);
                    image.set(r * n + c, (a + b) * half);
                    image.set((size / 2 + r) * n + c, (a - b) * half);
                    Recorder::int_ops(3);
                }
            }
            size /= 2;
            Recorder::int_ops(2);
        }
        image.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32};
    use tp_tuner::relative_rms_error;

    /// Plain-f64 Haar DWT for reference.
    fn f64_dwt(img: &[f64], n: usize, levels: usize) -> Vec<f64> {
        let mut image = img.to_vec();
        let mut tmp = vec![0.0; n * n];
        let mut size = n;
        for _ in 0..levels {
            for r in 0..size {
                for c in 0..size / 2 {
                    let a = image[r * n + 2 * c];
                    let b = image[r * n + 2 * c + 1];
                    tmp[r * n + c] = (a + b) * 0.5;
                    tmp[r * n + size / 2 + c] = (a - b) * 0.5;
                }
            }
            for c in 0..size {
                for r in 0..size / 2 {
                    let a = tmp[2 * r * n + c];
                    let b = tmp[(2 * r + 1) * n + c];
                    image[r * n + c] = (a + b) * 0.5;
                    image[(size / 2 + r) * n + c] = (a - b) * 0.5;
                }
            }
            size /= 2;
        }
        image
    }

    #[test]
    fn matches_f64_reference_closely() {
        let app = Dwt::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        let want = f64_dwt(&app.image(0), app.n, app.levels);
        let err = relative_rms_error(&want, &out);
        assert!(err < 1e-6, "binary32 DWT error vs f64: {err}");
    }

    #[test]
    fn energy_is_preserved_per_level() {
        // Haar with 0.5 scaling halves the L2 norm per level on average;
        // sanity-check the top-left approximation carries most energy.
        let app = Dwt::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        let n = app.n;
        let approx_side = n >> app.levels;
        let approx_energy: f64 = (0..approx_side)
            .flat_map(|r| (0..approx_side).map(move |c| (r, c)))
            .map(|(r, c)| out[r * n + c] * out[r * n + c])
            .sum();
        let total_energy: f64 = out.iter().map(|x| x * x).sum();
        assert!(
            approx_energy > 0.5 * total_energy,
            "approximation band too weak: {approx_energy} / {total_energy}"
        );
    }

    #[test]
    fn sixteen_bit_error_is_small() {
        let app = Dwt::small();
        let reference = app.reference(1);
        let out = app.run(&TypeConfig::uniform(BINARY16), 1);
        let err = relative_rms_error(&reference, &out);
        assert!(err < 0.01, "{err}");
    }

    #[test]
    fn row_passes_are_vectorizable() {
        let app = Dwt::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let scalar: u64 = counts.ops.values().map(|c| c.scalar).sum();
        // Row and column passes do the same op count: ~50/50 split.
        assert!(vector > 0 && scalar > 0);
        let share = vector as f64 / (vector + scalar) as f64;
        assert!((0.4..0.6).contains(&share), "vector share {share}");
        assert!(counts.fp_ops_in(BINARY32) > 0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_size_panics() {
        let app = Dwt { n: 6, levels: 2 };
        let _ = app.run(&TypeConfig::baseline(), 0);
    }
}
