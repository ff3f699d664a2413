//! GEMM — dense matrix–matrix multiplication.
//!
//! The linear-algebra workhorse: `out = alpha * A × B` with the inner
//! multiply-accumulate loop running over unit-stride rows (`B` is stored
//! transposed for exactly that reason, the classic GEMM data layout
//! trick), so the MAC loops are almost fully vectorizable — the
//! vector-unit-heavy profile that complements CONV's stencil.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{gaussian_ish, rng_for, uniform};

/// The GEMM benchmark: `out[m×n] = alpha * a[m×k] × b[k×n]`.
#[derive(Debug, Clone)]
pub struct Gemm {
    /// Rows of `a` and `out`.
    pub m: usize,
    /// Columns of `b` and `out`.
    pub n: usize,
    /// The contraction depth (columns of `a`, rows of `b`).
    pub k: usize,
}

impl Gemm {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Gemm {
            m: 16,
            n: 12,
            k: 20,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Gemm { m: 5, n: 4, k: 6 }
    }

    /// Deterministic inputs: `(a, b_transposed, alpha)`. `b` is generated
    /// directly in transposed (n×k) layout so both MAC operands are
    /// unit-stride.
    fn inputs(&self, input_set: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let mut rng = rng_for("GEMM", input_set);
        let a = gaussian_ish(&mut rng, self.m * self.k, 0.0, 1.0);
        let bt = uniform(&mut rng, self.n * self.k, -1.0, 1.0);
        let alpha = uniform(&mut rng, 1, 0.5, 1.5)[0];
        (a, bt, alpha)
    }
}

impl Tunable for Gemm {
    fn name(&self) -> &str {
        "GEMM"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("a", self.m * self.k),
            VarSpec::array("b", self.n * self.k),
            VarSpec::array("out", self.m * self.n),
            VarSpec::scalar("alpha"),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (m, n, k) = (self.m, self.n, self.k);
        let (a_raw, bt_raw, alpha_raw) = self.inputs(input_set);
        let a = FxArray::from_f64s(config.format_of("a"), &a_raw);
        let bt = FxArray::from_f64s(config.format_of("b"), &bt_raw);
        let alpha = Fx::new(alpha_raw, config.format_of("alpha"));
        let mut out = FxArray::zeros(config.format_of("out"), m * n);
        let acc_fmt = config.format_of("acc");

        for i in 0..m {
            for j in 0..n {
                // Both operand rows are unit-stride: vectorizable MACs.
                let _v = VectorSection::enter();
                let mut acc = Fx::zero(acc_fmt);
                for p in 0..k {
                    acc = (acc + a.get(i * k + p) * bt.get(j * k + p)).to(acc_fmt);
                    Recorder::int_ops(2);
                }
                drop(_v);
                out.set(i * n + j, (alpha * acc).to(acc_fmt));
                Recorder::int_ops(2);
            }
        }
        out.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY16, BINARY32};
    use tp_tuner::relative_rms_error;

    fn f64_gemm(app: &Gemm, set: usize) -> Vec<f64> {
        let (m, n, k) = (app.m, app.n, app.k);
        let (a, bt, alpha) = app.inputs(set);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * bt[j * k + p];
                }
                out[i * n + j] = alpha * acc;
            }
        }
        out
    }

    #[test]
    fn binary32_matches_f64_reference() {
        for set in 0..2 {
            let app = Gemm::small();
            let out = app.run(&TypeConfig::baseline(), set);
            let want = f64_gemm(&app, set);
            assert!(relative_rms_error(&want, &out) < 1e-5);
        }
    }

    #[test]
    fn sixteen_bit_inputs_hold_loose_quality() {
        let app = Gemm::small();
        let reference = app.reference(0);
        let cfg = TypeConfig::baseline()
            .with("a", BINARY16)
            .with("b", BINARY16);
        let err = relative_rms_error(&reference, &app.run(&cfg, 0));
        assert!(err < 0.1, "{err}");
    }

    #[test]
    fn mac_loops_dominate_and_vectorize() {
        let app = Gemm::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let total = counts.total_fp_ops();
        assert!(vector as f64 / total as f64 > 0.9, "{vector}/{total}");
        assert!(counts.fp_ops_in(BINARY32) > 0);
        // 2 ops per MAC over k, plus the alpha scaling, per output cell.
        assert_eq!(total as usize, (2 * app.k + 1) * app.m * app.n);
    }

    #[test]
    fn deterministic() {
        let app = Gemm::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 1),
            app.run(&TypeConfig::baseline(), 1)
        );
    }
}
