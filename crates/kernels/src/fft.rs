//! FFT — radix-2 decimation-in-time fast Fourier transform.
//!
//! A spectral kernel whose accuracy hinges on the *twiddle-factor table*:
//! the roots of unity are precomputed in `f64` (like CONV's Gaussian
//! filter) and then stored in a tunable format of their own, so the tuner
//! decides how coarsely the table may be quantized independently of the
//! signal. The butterfly arithmetic is straight-line (no data-dependent
//! comparisons), so a recorded tape replays under any formats without
//! diverging.

use flexfloat::{FxArray, Recorder, TypeConfig, VarSpec, VectorSection};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// The FFT benchmark: an `n`-point (power of two) in-place radix-2 DIT
/// transform of a two-tone test signal.
#[derive(Debug, Clone)]
pub struct Fft {
    /// Transform length (must be a power of two).
    pub n: usize,
}

impl Fft {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        Fft { n: 64 }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        Fft { n: 16 }
    }

    /// Two sinusoids plus noise, already in bit-reversed order (the
    /// input permutation of a DIT FFT is pure integer index work and is
    /// applied while the signal is generated). Returns `(re, im)`.
    fn signal(&self, input_set: usize) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let mut rng = rng_for("FFT", input_set);
        let noise_re = uniform(&mut rng, n, -0.1, 0.1);
        let noise_im = uniform(&mut rng, n, -0.1, 0.1);
        let f1 = (3 + input_set) as f64;
        let f2 = 7.0;
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        for i in 0..n {
            let phase = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let r = bit_reverse(i, n);
            re[r] = 0.75 * (f1 * phase).cos() + 0.5 * (f2 * phase).sin() + noise_re[i];
            im[r] = 0.25 * (f1 * phase).sin() + noise_im[i];
            Recorder::int_ops(1); // the bit-reversal index swap
        }
        (re, im)
    }

    /// The twiddle table `w_j = e^(-2πi·j/n)` for `j < n/2`, interleaved
    /// `[re₀, im₀, re₁, im₁, …]` — precomputed in `f64`, quantized by the
    /// `"twiddle"` storage format.
    fn twiddles(&self) -> Vec<f64> {
        (0..self.n / 2)
            .flat_map(|j| {
                let theta = -2.0 * std::f64::consts::PI * j as f64 / self.n as f64;
                [theta.cos(), theta.sin()]
            })
            .collect()
    }
}

/// Reverses the low `log2(n)` bits of `i`.
fn bit_reverse(i: usize, n: usize) -> usize {
    i.reverse_bits() >> (usize::BITS - n.trailing_zeros())
}

impl Tunable for Fft {
    fn name(&self) -> &str {
        "FFT"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("re", self.n),
            VarSpec::array("im", self.n),
            VarSpec::array("twiddle", self.n),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let n = self.n;
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let (re_raw, im_raw) = self.signal(input_set);
        let mut re = FxArray::from_f64s(config.format_of("re"), &re_raw);
        let mut im = FxArray::from_f64s(config.format_of("im"), &im_raw);
        let tw = FxArray::from_f64s(config.format_of("twiddle"), &self.twiddles());
        let acc_fmt = config.format_of("acc");

        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for base in (0..n).step_by(len) {
                // Butterflies within a block are independent and their
                // data halves are unit-stride; blocks of at least two
                // butterflies are worth the vector unit (the first stage
                // runs scalar, like a real SIMD FFT's fringe).
                let _v = (half >= 2).then(VectorSection::enter);
                for j in 0..half {
                    let w_re = tw.get(2 * (j * step));
                    let w_im = tw.get(2 * (j * step) + 1);
                    let (i0, i1) = (base + j, base + j + half);
                    let (b_re, b_im) = (re.get(i1), im.get(i1));
                    let t_re = (w_re * b_re - w_im * b_im).to(acc_fmt);
                    let t_im = (w_re * b_im + w_im * b_re).to(acc_fmt);
                    let (a_re, a_im) = (re.get(i0), im.get(i0));
                    re.set(i0, (a_re + t_re).to(acc_fmt));
                    im.set(i0, (a_im + t_im).to(acc_fmt));
                    re.set(i1, (a_re - t_re).to(acc_fmt));
                    im.set(i1, (a_im - t_im).to(acc_fmt));
                    Recorder::int_ops(2);
                }
            }
            len *= 2;
        }

        let mut out = re.to_f64s();
        out.extend(im.to_f64s());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_formats::BINARY32;
    use tp_tuner::relative_rms_error;

    /// The same radix-2 algorithm in plain `f64`.
    fn f64_fft(app: &Fft, set: usize) -> Vec<f64> {
        let n = app.n;
        let (mut re, mut im) = app.signal(set);
        let tw = app.twiddles();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for base in (0..n).step_by(len) {
                for j in 0..half {
                    let (w_re, w_im) = (tw[2 * (j * step)], tw[2 * (j * step) + 1]);
                    let (i0, i1) = (base + j, base + j + half);
                    let t_re = w_re * re[i1] - w_im * im[i1];
                    let t_im = w_re * im[i1] + w_im * re[i1];
                    let (a_re, a_im) = (re[i0], im[i0]);
                    re[i0] = a_re + t_re;
                    im[i0] = a_im + t_im;
                    re[i1] = a_re - t_re;
                    im[i1] = a_im - t_im;
                }
            }
            len *= 2;
        }
        re.extend(im);
        re
    }

    /// Naive O(n²) DFT of the *natural-order* signal, to prove the
    /// radix-2 implementation (bit-reversal included) computes a DFT.
    fn f64_dft(app: &Fft, set: usize) -> Vec<f64> {
        let n = app.n;
        let (re_rev, im_rev) = app.signal(set);
        // Undo the generation-time bit-reversal to get the natural order.
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        for i in 0..n {
            re[i] = re_rev[bit_reverse(i, n)];
            im[i] = im_rev[bit_reverse(i, n)];
        }
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for (k, (or, oi)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
            for i in 0..n {
                let theta = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                *or += re[i] * theta.cos() - im[i] * theta.sin();
                *oi += re[i] * theta.sin() + im[i] * theta.cos();
            }
        }
        out_re.extend(out_im);
        out_re
    }

    #[test]
    fn radix2_is_a_dft() {
        let app = Fft::small();
        let fast = f64_fft(&app, 0);
        let naive = f64_dft(&app, 0);
        assert!(relative_rms_error(&naive, &fast) < 1e-12);
    }

    #[test]
    fn binary32_matches_f64_reference() {
        for set in 0..2 {
            let app = Fft::small();
            let out = app.run(&TypeConfig::baseline(), set);
            let want = f64_fft(&app, set);
            assert!(relative_rms_error(&want, &out) < 1e-5);
        }
    }

    #[test]
    fn butterfly_count_and_vector_share() {
        let app = Fft::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let total = counts.total_fp_ops();
        // 10 FP ops per butterfly, n/2·log2(n) butterflies.
        let n = app.n as u64;
        assert_eq!(total, 10 * (n / 2) * n.trailing_zeros() as u64);
        // The first stage runs scalar, the rest vectorize.
        let vector: u64 = counts.ops.values().map(|c| c.vector).sum();
        let share = vector as f64 / total as f64;
        assert!((0.5..1.0).contains(&share), "{share}");
        assert!(counts.fp_ops_in(BINARY32) > 0);
    }

    #[test]
    fn straight_line_records_no_comparisons() {
        let app = Fft::small();
        let trace = tp_trace_probe(&app);
        assert_eq!(trace, 0, "FFT must be comparison-free (replay-friendly)");
    }

    /// Counts recorded comparison ops in one baseline run.
    fn tp_trace_probe(app: &Fft) -> u64 {
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        counts
            .ops
            .iter()
            .filter(|((_, k), _)| matches!(k, flexfloat::OpKind::Cmp))
            .map(|(_, c)| c.total())
            .sum()
    }

    #[test]
    fn deterministic() {
        let app = Fft::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 0),
            app.run(&TypeConfig::baseline(), 0)
        );
    }
}
