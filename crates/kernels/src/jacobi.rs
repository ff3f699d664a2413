//! JACOBI — Jacobi relaxation on a 2-D heat grid.
//!
//! The classic iterative stencil: every interior cell becomes the average of
//! its four neighbours; boundary cells hold fixed temperatures. The paper
//! uses this kernel as the pathological case for transprecision: its stencil
//! access pattern offers **no vectorizable sections**, and its iterative
//! averaging keeps most of the state at high precision, so cycles and energy
//! stay close to the binary32 baseline (Figs. 5–7).

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// The JACOBI benchmark.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Grid side (including the fixed boundary).
    pub n: usize,
    /// Number of relaxation sweeps.
    pub iterations: usize,
}

impl Jacobi {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Jacobi {
            n: 24,
            iterations: 20,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Jacobi {
            n: 8,
            iterations: 6,
        }
    }

    /// The initial temperature grid (fixed hot/cold boundaries, interior
    /// noise) for `input_set`.
    ///
    /// Public so instruction-level twins (`tp-isa`) can run on the exact
    /// input stream the closure kernel sees for the same `input_set`.
    #[must_use]
    pub fn initial_grid(&self, input_set: usize) -> Vec<f64> {
        let n = self.n;
        let mut rng = rng_for("JACOBI", input_set);
        let mut grid = vec![0.0f64; n * n];
        // Fixed hot/cold boundaries with set-dependent temperatures.
        let hot = 80.0 + 10.0 * input_set as f64;
        let cold = 5.0 + input_set as f64;
        for i in 0..n {
            grid[i] = hot; // top row
            grid[(n - 1) * n + i] = cold; // bottom row
            grid[i * n] = hot * 0.5; // left column
            grid[i * n + n - 1] = cold * 2.0; // right column
        }
        // Interior starts at mild random temperatures.
        let interior = uniform(&mut rng, (n - 2) * (n - 2), 10.0, 30.0);
        let mut k = 0;
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                grid[r * n + c] = interior[k];
                k += 1;
            }
        }
        grid
    }
}

impl Tunable for Jacobi {
    fn name(&self) -> &str {
        "JACOBI"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("grid", self.n * self.n),
            VarSpec::array("next", self.n * self.n),
            VarSpec::scalar("quarter"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let n = self.n;
        let init = self.initial_grid(input_set);
        let mut grid = FxArray::from_f64s(config.format_of("grid"), &init);
        let mut next = FxArray::from_f64s(config.format_of("next"), &init);
        let quarter = Fx::new(0.25, config.format_of("quarter"));

        for _ in 0..self.iterations {
            // Stencil sweep: no vector section — neighbour accesses are not
            // unit-stride, matching the paper's observation that JACOBI
            // performs no vectorial operations.
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    let up = grid.get((r - 1) * n + c);
                    let down = grid.get((r + 1) * n + c);
                    let left = grid.get(r * n + c - 1);
                    let right = grid.get(r * n + c + 1);
                    let sum = up + down + left + right;
                    next.set(r * n + c, sum * quarter);
                    Recorder::int_ops(3); // index arithmetic + branch
                }
            }
            std::mem::swap(&mut grid, &mut next);
            Recorder::int_ops(2); // pointer swap + loop control
        }
        grid.to_f64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::Recorder;
    use tp_formats::{BINARY16ALT, BINARY32};
    use tp_tuner::relative_rms_error;

    #[test]
    fn converges_toward_boundary_average() {
        let app = Jacobi {
            n: 8,
            iterations: 200,
        };
        let out = app.run(&TypeConfig::baseline(), 0);
        // After many sweeps the interior must be smooth: every interior
        // value strictly between the global min and max boundary values.
        let (lo, hi) = (5.0 * 0.9, 90.0 * 2.1);
        for r in 1..7 {
            for c in 1..7 {
                let v = out[r * 8 + c];
                assert!(v > lo && v < hi, "cell ({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn deterministic_per_input_set() {
        let app = Jacobi::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 1),
            app.run(&TypeConfig::baseline(), 1)
        );
        assert_ne!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 1)
        );
    }

    #[test]
    fn reduced_precision_grid_stays_close() {
        let app = Jacobi::small();
        let reference = app.reference(0);
        let cfg = TypeConfig::baseline()
            .with("grid", BINARY16ALT)
            .with("next", BINARY16ALT);
        let out = app.run(&cfg, 0);
        let err = relative_rms_error(&reference, &out);
        assert!(err < 0.02, "binary16alt grid error: {err}");
        assert!(err > 0.0, "must differ from binary32");
    }

    #[test]
    fn records_no_vector_ops() {
        let app = Jacobi::small();
        let (_, counts) = Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vec_ops: u64 = counts.ops.values().map(|c| c.vector).sum();
        assert_eq!(vec_ops, 0, "JACOBI must not have vectorizable sections");
        assert!(counts.fp_ops_in(BINARY32) > 0);
        // 4 ops per cell update (3 adds + 1 mul), 36 interior cells, 6 sweeps.
        assert_eq!(counts.total_fp_ops(), 4 * 36 * 6);
    }

    #[test]
    fn variable_declaration_matches_usage() {
        let app = Jacobi::small();
        let vars = app.variables();
        assert_eq!(vars.len(), 3);
        assert_eq!(vars[0].elements, 64);
    }
}
