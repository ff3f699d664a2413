//! PCA — principal component analysis.
//!
//! Mean-centering, covariance accumulation, a cyclic-Jacobi eigen solver
//! and projection of the data onto the principal axes. The paper's
//! cautionary tale: the eigen solver's rotation math keeps its variables in
//! binary32, while the bulk arrays can drop to 16 bits — so every boundary
//! crossing inserts a cast. After tuning, casts exceed 10–20 % of FP
//! operations and the energy consumption *rises above* the baseline at the
//! tight thresholds (Fig. 7), until the centering/projection loops are
//! manually vectorized (the figure's ①②③ labels, reproduced by
//! [`Pca::manual_vectorization`]).

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{gaussian_ish, rng_for};

/// The PCA benchmark.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Number of samples.
    pub samples: usize,
    /// Dimensions per sample.
    pub dims: usize,
    /// Jacobi eigen-solver sweeps.
    pub sweeps: usize,
    /// When `true`, the centering and projection loops are tagged
    /// vectorizable (the paper's manual-vectorization experiment).
    pub manual_vectorization: bool,
}

impl Pca {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Pca {
            samples: 48,
            dims: 6,
            sweeps: 4,
            manual_vectorization: false,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Pca {
            samples: 16,
            dims: 4,
            sweeps: 3,
            manual_vectorization: false,
        }
    }

    /// Correlated synthetic data: a few latent factors plus noise, so the
    /// covariance matrix has a meaningful eigenstructure.
    ///
    /// Sample magnitudes are in the hundreds (raw sensor units), so the
    /// covariance entries reach beyond binary16's ±65504 range: the
    /// accumulator variables need a *wide dynamic range* even where little
    /// precision suffices — exactly the demand binary16alt exists for
    /// (under V1 those variables are stuck in binary32).
    fn data(&self, input_set: usize) -> Vec<f64> {
        let mut rng = rng_for("PCA", input_set);
        let factors = gaussian_ish(&mut rng, self.samples * 2, 0.0, 300.0);
        let noise = gaussian_ish(&mut rng, self.samples * self.dims, 0.0, 40.0);
        let mut out = vec![0.0f64; self.samples * self.dims];
        for n in 0..self.samples {
            let f0 = factors[n * 2];
            let f1 = factors[n * 2 + 1];
            for d in 0..self.dims {
                let w0 = 1.0 + 0.5 * d as f64;
                let w1 = if d % 2 == 0 { 0.8 } else { -0.6 };
                out[n * self.dims + d] = w0 * f0 + w1 * f1 + noise[n * self.dims + d] + 500.0;
            }
        }
        out
    }

    fn guard(&self) -> Option<VectorSection> {
        self.manual_vectorization.then(VectorSection::enter)
    }
}

impl Tunable for Pca {
    fn name(&self) -> &str {
        "PCA"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("data", self.samples * self.dims),
            VarSpec::array("mean", self.dims),
            VarSpec::array("cov", self.dims * self.dims),
            VarSpec::array("eig", self.dims * self.dims),
            VarSpec::array("proj", self.samples * self.dims),
            VarSpec::scalar("inv_n"),
            VarSpec::scalar("rot"),
        ]
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (n, d) = (self.samples, self.dims);
        let raw = self.data(input_set);
        let mut data = FxArray::from_f64s(config.format_of("data"), &raw);
        let mut mean = FxArray::zeros(config.format_of("mean"), d);
        let mut cov = FxArray::zeros(config.format_of("cov"), d * d);
        let mut eig = FxArray::zeros(config.format_of("eig"), d * d);
        let mut proj = FxArray::zeros(config.format_of("proj"), n * d);
        let inv_n = Fx::new(1.0 / n as f64, config.format_of("inv_n"));
        let rot_fmt = config.format_of("rot");

        // 1. Column means.
        for j in 0..d {
            let mut acc = Fx::zero(mean.format());
            for i in 0..n {
                acc = (acc + data.get(i * d + j)).to(mean.format());
                Recorder::int_ops(2);
            }
            mean.set(j, acc * inv_n);
        }

        // 2. Center the data in place (vectorizable only in the manual
        //    variant — rows are unit-stride).
        {
            let _v = self.guard();
            for i in 0..n {
                for j in 0..d {
                    let x = data.get(i * d + j) - mean.get(j);
                    data.set(i * d + j, x);
                    Recorder::int_ops(2);
                }
            }
        }

        // 3. Covariance (upper triangle, mirrored).
        for a in 0..d {
            for b in a..d {
                let mut acc = Fx::zero(cov.format());
                for i in 0..n {
                    acc = (acc + data.get(i * d + a) * data.get(i * d + b)).to(cov.format());
                    Recorder::int_ops(2);
                }
                let v = acc * inv_n;
                cov.set(a * d + b, v);
                if a != b {
                    cov.set(b * d + a, v);
                }
            }
        }

        // 4. Cyclic Jacobi eigen solver on the (small) covariance matrix.
        for j in 0..d {
            eig.set(j * d + j, Fx::new(1.0, eig.format()));
        }
        let eps = Fx::new(1e-12, rot_fmt);
        let half = Fx::new(0.5, rot_fmt);
        let one = Fx::new(1.0, rot_fmt);
        for _ in 0..self.sweeps {
            for p in 0..d - 1 {
                for q in p + 1..d {
                    Recorder::int_ops(4);
                    let apq = cov.get(p * d + q).to(rot_fmt);
                    if !apq.abs().lt(eps) {
                        let app = cov.get(p * d + p).to(rot_fmt);
                        let aqq = cov.get(q * d + q).to(rot_fmt);
                        // theta = (aqq - app) / (2 apq); t = sign/(|th|+sqrt(th^2+1)).
                        let theta = (aqq - app) * half / apq;
                        let t_mag = one / (theta.abs() + (theta * theta + one).sqrt());
                        let t = if theta.lt(Fx::zero(rot_fmt)) {
                            -t_mag
                        } else {
                            t_mag
                        };
                        let c = one / (t * t + one).sqrt();
                        let s = t * c;
                        // Rotate rows/columns p and q of cov.
                        for kk in 0..d {
                            let akp = cov.get(kk * d + p).to(rot_fmt);
                            let akq = cov.get(kk * d + q).to(rot_fmt);
                            cov.set(kk * d + p, c * akp - s * akq);
                            cov.set(kk * d + q, s * akp + c * akq);
                            Recorder::int_ops(2);
                        }
                        for kk in 0..d {
                            let apk = cov.get(p * d + kk).to(rot_fmt);
                            let aqk = cov.get(q * d + kk).to(rot_fmt);
                            cov.set(p * d + kk, c * apk - s * aqk);
                            cov.set(q * d + kk, s * apk + c * aqk);
                            Recorder::int_ops(2);
                        }
                        // Accumulate the rotation into the eigenvector basis.
                        for kk in 0..d {
                            let ekp = eig.get(kk * d + p).to(rot_fmt);
                            let ekq = eig.get(kk * d + q).to(rot_fmt);
                            eig.set(kk * d + p, c * ekp - s * ekq);
                            eig.set(kk * d + q, s * ekp + c * ekq);
                            Recorder::int_ops(2);
                        }
                    }
                }
            }
        }

        // 5. Project the centred data onto the eigenvector basis
        //    (vectorizable only in the manual variant).
        {
            let _v = self.guard();
            for i in 0..n {
                for j in 0..d {
                    let mut acc = Fx::zero(proj.format());
                    for kk in 0..d {
                        acc = (acc + data.get(i * d + kk) * eig.get(kk * d + j)).to(proj.format());
                        Recorder::int_ops(2);
                    }
                    proj.set(i * d + j, acc);
                }
            }
        }

        proj.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32};

    /// f64 reference PCA for correctness checking.
    fn f64_pca(app: &Pca, set: usize) -> (Vec<f64>, Vec<f64>) {
        let (n, d) = (app.samples, app.dims);
        let mut data = app.data(set);
        let mut mean = vec![0.0; d];
        for j in 0..d {
            mean[j] = (0..n).map(|i| data[i * d + j]).sum::<f64>() / n as f64;
        }
        for i in 0..n {
            for j in 0..d {
                data[i * d + j] -= mean[j];
            }
        }
        let mut cov = vec![0.0; d * d];
        for a in 0..d {
            for b in 0..d {
                cov[a * d + b] = (0..n)
                    .map(|i| data[i * d + a] * data[i * d + b])
                    .sum::<f64>()
                    / n as f64;
            }
        }
        (data, cov)
    }

    #[test]
    fn covariance_is_diagonalized() {
        // Run the instrumented kernel in binary32 and verify that the final
        // covariance has small off-diagonal mass by reconstructing it from
        // the projections: proj columns should be nearly uncorrelated.
        let app = Pca::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        let (n, d) = (app.samples, app.dims);
        let mut cross_mass = 0.0;
        let mut diag_mass = 0.0;
        for a in 0..d {
            for b in 0..d {
                let c: f64 =
                    (0..n).map(|i| out[i * d + a] * out[i * d + b]).sum::<f64>() / n as f64;
                if a == b {
                    diag_mass += c.abs();
                } else {
                    cross_mass += c.abs();
                }
            }
        }
        assert!(
            cross_mass < 0.05 * diag_mass,
            "projections not decorrelated: cross {cross_mass} vs diag {diag_mass}"
        );
    }

    #[test]
    fn projection_preserves_variance() {
        // Rotations are orthogonal: total variance of projections equals
        // total variance of centred data.
        let app = Pca::small();
        let out = app.run(&TypeConfig::baseline(), 1);
        let (centred, _) = f64_pca(&app, 1);
        let var_in: f64 = centred.iter().map(|x| x * x).sum();
        let var_out: f64 = out.iter().map(|x| x * x).sum();
        assert!(
            (var_in - var_out).abs() / var_in < 1e-3,
            "variance not preserved: {var_in} vs {var_out}"
        );
    }

    #[test]
    fn sixteen_bit_arrays_force_casts() {
        let app = Pca::small();
        let cfg = TypeConfig::baseline()
            .with("data", BINARY16)
            .with("proj", BINARY16)
            .with("cov", BINARY32)
            .with("eig", BINARY32);
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&cfg, 0));
        let casts = counts.total_casts();
        let ops = counts.total_fp_ops();
        assert!(
            casts as f64 > 0.1 * ops as f64,
            "PCA cast overhead must exceed 10%: {casts} casts vs {ops} ops"
        );
    }

    #[test]
    fn manual_vectorization_tags_loops() {
        let mut app = Pca::small();
        let (_, scalar_counts) =
            flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vec_before: u64 = scalar_counts.ops.values().map(|c| c.vector).sum();
        assert_eq!(vec_before, 0);
        app.manual_vectorization = true;
        let (_, vec_counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vec_after: u64 = vec_counts.ops.values().map(|c| c.vector).sum();
        assert!(vec_after > 0);
        // Totals are unchanged — only the tagging differs.
        assert_eq!(scalar_counts.total_fp_ops(), vec_counts.total_fp_ops());
    }

    #[test]
    fn deterministic() {
        let app = Pca::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 0)
        );
    }
}
