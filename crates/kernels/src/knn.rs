//! KNN — k-nearest neighbours by Euclidean distance.
//!
//! Computes the distance from a query point to every point of a dataset and
//! returns the (sorted) indices of the `k` closest. The paper's star
//! transprecision citizen: because the output is a *selection*, coarse
//! binary8 distances do not change it as long as the nearest cluster is
//! separated from the rest by more than the quantization error, so **all
//! program variables scale down to binary8** at every quality threshold
//! (Fig. 4), the distance loops vectorize 4-wide, and KNN posts the largest
//! energy saving (−30 %, Fig. 7).

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// The KNN benchmark.
#[derive(Debug, Clone)]
pub struct Knn {
    /// Number of dataset points.
    pub points: usize,
    /// Dimensions per point.
    pub dims: usize,
    /// Neighbours to report.
    pub k: usize,
}

impl Knn {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Knn {
            points: 128,
            dims: 8,
            k: 8,
        }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Knn {
            points: 24,
            dims: 4,
            k: 3,
        }
    }

    /// Builds `(points, query)`. Exactly `k` points form a tight cluster
    /// around the query; all others lie at least 3× further away. Real
    /// near-sensor KNN classification has exactly this geometry (a match is
    /// a match by a wide margin), and it is what makes the selection robust
    /// under aggressive quantization.
    fn dataset(&self, input_set: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = rng_for("KNN", input_set);
        let query = uniform(&mut rng, self.dims, 3.0, 5.0);
        let mut pts = vec![0.0f64; self.points * self.dims];
        // Deterministic scatter of the k near indices across the dataset.
        let stride = self.points / self.k;
        let near: Vec<usize> = (0..self.k)
            .map(|i| i * stride + (input_set % stride))
            .collect();
        for p in 0..self.points {
            let is_near = near.contains(&p);
            for d in 0..self.dims {
                let offset = if is_near {
                    // Within ~0.5 of the query per dimension.
                    uniform(&mut rng, 1, -0.5, 0.5)[0]
                } else {
                    // Far shell: 3..6 away per dimension, random side.
                    let side = if uniform(&mut rng, 1, 0.0, 1.0)[0] < 0.5 {
                        -1.0
                    } else {
                        1.0
                    };
                    side * uniform(&mut rng, 1, 3.0, 6.0)[0]
                };
                pts[p * self.dims + d] = query[d] + offset;
            }
        }
        (pts, query)
    }
}

impl Tunable for Knn {
    fn name(&self) -> &str {
        "KNN"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("points", self.points * self.dims),
            VarSpec::array("query", self.dims),
            VarSpec::array("dist", self.points),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (pts_raw, query_raw) = self.dataset(input_set);
        let points = FxArray::from_f64s(config.format_of("points"), &pts_raw);
        let query = FxArray::from_f64s(config.format_of("query"), &query_raw);
        let mut dist = FxArray::zeros(config.format_of("dist"), self.points);

        // Distance computation: unit-stride over the point coordinates —
        // vectorizable (the paper reports most KNN ops in the vector bars).
        for p in 0..self.points {
            let _v = VectorSection::enter();
            let dist_fmt = config.format_of("dist");
            let mut acc = Fx::zero(dist_fmt);
            for d in 0..self.dims {
                let x = points.get(p * self.dims + d);
                let q = query.get(d);
                let diff = x - q;
                acc = (acc + diff * diff).to(dist_fmt);
                Recorder::int_ops(2); // index increment + bound check
            }
            dist.set(p, acc);
        }

        // Selection: k rounds of scan-for-minimum. Comparisons only —
        // scalar, with integer bookkeeping.
        let mut taken = vec![false; self.points];
        let mut out = Vec::with_capacity(self.k);
        for _ in 0..self.k {
            let mut best = usize::MAX;
            let mut best_d = Fx::new(f64::INFINITY, dist.format());
            for (p, &is_taken) in taken.iter().enumerate() {
                Recorder::int_ops(2);
                if is_taken {
                    continue;
                }
                let d = dist.get(p);
                if d.lt(best_d) {
                    best_d = d;
                    best = p;
                }
            }
            taken[best] = true;
            out.push(best as f64);
        }
        // The neighbour *set* is the program output; order is irrelevant.
        out.sort_by(|a, b| a.partial_cmp(b).expect("indices are finite"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::{BINARY32, BINARY8};

    #[test]
    fn finds_true_nearest_neighbours() {
        let app = Knn::small();
        let out = app.run(&TypeConfig::baseline(), 0);
        // Recompute with plain f64 and compare index sets.
        let (pts, q) = app.dataset(0);
        let mut d: Vec<(f64, usize)> = (0..app.points)
            .map(|p| {
                let dd: f64 = (0..app.dims)
                    .map(|i| {
                        let t = pts[p * app.dims + i] - q[i];
                        t * t
                    })
                    .sum();
                (dd, p)
            })
            .collect();
        d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut expect: Vec<f64> = d[..app.k].iter().map(|&(_, p)| p as f64).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(out, expect);
    }

    #[test]
    fn binary8_preserves_the_selection_exactly() {
        // The key paper result: everything in binary8, output unchanged.
        for app in [Knn::small(), Knn::paper()] {
            for set in 0..3 {
                let reference = app.reference(set);
                let out = app.run(&TypeConfig::uniform(BINARY8), set);
                assert_eq!(out, reference, "{}x{} set {set}", app.points, app.dims);
            }
        }
    }

    #[test]
    fn most_ops_are_vectorizable() {
        let app = Knn::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let total = counts.total_fp_ops();
        assert!(
            vector as f64 / total as f64 > 0.5,
            "vector share {vector}/{total} too low"
        );
        assert!(counts.fp_ops_in(BINARY32) > 0);
    }

    #[test]
    fn deterministic() {
        let app = Knn::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 2),
            app.run(&TypeConfig::baseline(), 2)
        );
    }
}
