//! BLACKSCHOLES — European option pricing.
//!
//! The classic financial kernel: for each option the closed-form
//! Black–Scholes price needs `sqrt`, `exp`, `ln` and the normal CDF.
//! The softfloat backend only accelerates `sqrt` and FMA, so the
//! transcendentals here are *composed from basic Fx arithmetic* —
//! `exp` via the compound-interest limit `(1 + x/256)^256` (eight
//! squarings), `ln` via the atanh series — which keeps all three
//! execution backends bit-identical by construction and makes every
//! intermediate visible to the precision tuner.
//!
//! The Abramowitz–Stegun CDF approximation branches on the sign of its
//! argument (`d.lt(zero)` is a *recorded* comparison), so a recorded
//! BLACKSCHOLES tape trips the replay divergence guard under aggressive
//! formats, exactly like KNN and PCA.

use flexfloat::{Fx, FxArray, Recorder, TypeConfig, VarSpec};
use tp_tuner::Tunable;

use crate::common::{rng_for, uniform};

/// Abramowitz & Stegun 26.2.17 polynomial coefficients (b1..b5).
const NCOEF: [f64; 5] = [
    0.319_381_530,
    -0.356_563_782,
    1.781_477_937,
    -1.821_255_978,
    1.330_274_429,
];

/// 1/√(2π), the normal-pdf normalization constant.
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// The Black–Scholes benchmark: call and put prices for a portfolio of
/// `n` European options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    /// Number of options priced.
    pub n: usize,
}

impl BlackScholes {
    /// The configuration used by the experiment harness.
    #[must_use]
    pub fn paper() -> Self {
        BlackScholes { n: 24 }
    }

    /// A miniature instance for fast tests.
    #[must_use]
    pub fn small() -> Self {
        BlackScholes { n: 6 }
    }

    /// Deterministic market data: `(spot, strike, time, vol, rate)`.
    /// The ranges keep every intermediate well inside the span of the
    /// approximations below (|d| stays modest, `vol·√t ≥ 0.075`).
    fn inputs(&self, input_set: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, f64) {
        let mut rng = rng_for("BLACKSCHOLES", input_set);
        let spot = uniform(&mut rng, self.n, 40.0, 120.0);
        let strike = uniform(&mut rng, self.n, 40.0, 120.0);
        let time = uniform(&mut rng, self.n, 0.25, 2.0);
        let vol = uniform(&mut rng, self.n, 0.15, 0.6);
        let rate = uniform(&mut rng, 1, 0.01, 0.08)[0];
        (spot, strike, time, vol, rate)
    }
}

/// `e^x` for `x ≤ 0` via `(1 + x/256)^256`: one scaled add, then eight
/// squarings — basic ops only, so it records as ordinary mul/add traffic.
fn exp_small(x: Fx, fmt: tp_formats::FpFormat) -> Fx {
    let scaled = Fx::new(1.0, fmt) + (x / Fx::new(256.0, fmt)).to(fmt);
    let mut acc = scaled.to(fmt);
    for _ in 0..8 {
        acc = (acc * acc).to(fmt);
    }
    acc
}

/// `ln(y)` for `y > 0` via the atanh series: with `z = (y−1)/(y+1)`,
/// `ln(y) = 2z·(1 + z²/3 + z⁴/5 + z⁶/7 + z⁸/9)` — fast-converging for
/// the spot/strike ratios the input generator produces (0.3..3).
fn ln_series(y: Fx, fmt: tp_formats::FpFormat) -> Fx {
    let one = Fx::new(1.0, fmt);
    let z = ((y - one).to(fmt) / (y + one).to(fmt)).to(fmt);
    let z2 = (z * z).to(fmt);
    // Horner over 1 + z²/3 + z⁴/5 + z⁶/7 + z⁸/9.
    let mut sum = Fx::new(1.0 / 9.0, fmt);
    for c in [1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0] {
        sum = (sum * z2 + Fx::new(c, fmt)).to(fmt);
    }
    (Fx::new(2.0, fmt) * z * sum).to(fmt)
}

/// Standard normal CDF via Abramowitz–Stegun 26.2.17. The sign test is
/// a recorded comparison — the one data-dependent branch in this kernel.
fn norm_cdf(d: Fx, ncoef: &FxArray, fmt: tp_formats::FpFormat) -> Fx {
    let zero = Fx::new(0.0, fmt);
    let one = Fx::new(1.0, fmt);
    let neg = d.lt(zero);
    let x = d.abs();
    let kk = (one / (one + (Fx::new(0.231_641_9, fmt) * x).to(fmt)).to(fmt)).to(fmt);
    // Horner over the five A&S coefficients in k.
    let mut poly = ncoef.get(4);
    for i in (0..4).rev() {
        poly = (poly * kk + ncoef.get(i)).to(fmt);
    }
    poly = (poly * kk).to(fmt);
    let half_x2 = (x * x * Fx::new(-0.5, fmt)).to(fmt);
    let pdf = (Fx::new(INV_SQRT_2PI, fmt) * exp_small(half_x2, fmt)).to(fmt);
    let tail = (pdf * poly).to(fmt);
    if neg {
        tail
    } else {
        (one - tail).to(fmt)
    }
}

impl Tunable for BlackScholes {
    fn name(&self) -> &str {
        "BLACKSCHOLES"
    }

    fn variables(&self) -> Vec<VarSpec> {
        vec![
            VarSpec::array("spot", self.n),
            VarSpec::array("strike", self.n),
            VarSpec::array("time", self.n),
            VarSpec::array("vol", self.n),
            VarSpec::scalar("rate"),
            VarSpec::array("ncoef", NCOEF.len()),
            VarSpec::scalar("acc"),
        ]
    }

    fn run(&self, config: &TypeConfig, input_set: usize) -> Vec<f64> {
        let (spot_raw, strike_raw, time_raw, vol_raw, rate_raw) = self.inputs(input_set);
        let spot = FxArray::from_f64s(config.format_of("spot"), &spot_raw);
        let strike = FxArray::from_f64s(config.format_of("strike"), &strike_raw);
        let time = FxArray::from_f64s(config.format_of("time"), &time_raw);
        let vol = FxArray::from_f64s(config.format_of("vol"), &vol_raw);
        let rate = Fx::new(rate_raw, config.format_of("rate"));
        let ncoef = FxArray::from_f64s(config.format_of("ncoef"), &NCOEF);
        let accf = config.format_of("acc");

        let mut out = Vec::with_capacity(2 * self.n);
        for i in 0..self.n {
            let s = spot.get(i);
            let k = strike.get(i);
            let t = time.get(i);
            let v = vol.get(i);
            let st = t.to(accf).sqrt().to(accf);
            let vst = (v * st).to(accf);
            let lnr = ln_series((s / k).to(accf), accf);
            let sig2h = (v * v * Fx::new(0.5, accf)).to(accf);
            let drift = ((rate + sig2h).to(accf) * t).to(accf);
            let d1 = ((lnr + drift).to(accf) / vst).to(accf);
            let d2 = (d1 - vst).to(accf);
            let disc = exp_small(((rate * t).to(accf) * Fx::new(-1.0, accf)).to(accf), accf);
            let nd1 = norm_cdf(d1, &ncoef, accf);
            let nd2 = norm_cdf(d2, &ncoef, accf);
            let kdisc = (k * disc).to(accf);
            let call = ((s * nd1).to(accf) - (kdisc * nd2).to(accf)).to(accf);
            // Put from put–call parity: put = call − S + K·e^(−rt).
            let put = ((call - s.to(accf)).to(accf) + kdisc).to(accf);
            out.push(call.value());
            out.push(put.value());
            Recorder::int_ops(2);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_tuner::relative_rms_error;

    /// The same approximations (exp-by-squaring, atanh ln, A&S CDF) in
    /// plain `f64`.
    fn f64_bs(app: &BlackScholes, set: usize) -> Vec<f64> {
        fn exp_small(x: f64) -> f64 {
            let mut acc = 1.0 + x / 256.0;
            for _ in 0..8 {
                acc *= acc;
            }
            acc
        }
        fn ln_series(y: f64) -> f64 {
            let z = (y - 1.0) / (y + 1.0);
            let z2 = z * z;
            let mut sum = 1.0 / 9.0;
            for c in [1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0] {
                sum = sum * z2 + c;
            }
            2.0 * z * sum
        }
        fn cdf(d: f64) -> f64 {
            let x = d.abs();
            let kk = 1.0 / (1.0 + 0.231_641_9 * x);
            let mut poly = NCOEF[4];
            for i in (0..4).rev() {
                poly = poly * kk + NCOEF[i];
            }
            poly *= kk;
            let tail = INV_SQRT_2PI * exp_small(-0.5 * x * x) * poly;
            if d < 0.0 {
                tail
            } else {
                1.0 - tail
            }
        }
        let (spot, strike, time, vol, rate) = app.inputs(set);
        let mut out = Vec::with_capacity(2 * app.n);
        for i in 0..app.n {
            let (s, k, t, v) = (spot[i], strike[i], time[i], vol[i]);
            let vst = v * t.sqrt();
            let d1 = (ln_series(s / k) + (rate + 0.5 * v * v) * t) / vst;
            let d2 = d1 - vst;
            let kdisc = k * exp_small(-rate * t);
            let call = s * cdf(d1) - kdisc * cdf(d2);
            out.push(call);
            out.push(call - s + kdisc);
        }
        out
    }

    #[test]
    fn binary32_matches_f64_reference() {
        for set in 0..2 {
            let app = BlackScholes::small();
            let out = app.run(&TypeConfig::baseline(), set);
            let want = f64_bs(&app, set);
            assert!(relative_rms_error(&want, &out) < 1e-5);
        }
    }

    #[test]
    fn approximations_track_analytic_prices() {
        // Cross-check against std-library exp/ln and the same A&S CDF:
        // the composed approximations must price within a fraction of a
        // percent of the analytic formula over the generated portfolio.
        fn cdf(d: f64) -> f64 {
            let x = d.abs();
            let kk = 1.0 / (1.0 + 0.231_641_9 * x);
            let mut poly = NCOEF[4];
            for i in (0..4).rev() {
                poly = poly * kk + NCOEF[i];
            }
            poly *= kk;
            let tail = INV_SQRT_2PI * (-0.5 * x * x).exp() * poly;
            if d < 0.0 {
                tail
            } else {
                1.0 - tail
            }
        }
        let app = BlackScholes::small();
        let (spot, strike, time, vol, rate) = app.inputs(0);
        let got = f64_bs(&app, 0);
        for i in 0..app.n {
            let (s, k, t, v) = (spot[i], strike[i], time[i], vol[i]);
            let vst = v * t.sqrt();
            let d1 = ((s / k).ln() + (rate + 0.5 * v * v) * t) / vst;
            let d2 = d1 - vst;
            let call = s * cdf(d1) - k * (-rate * t).exp() * cdf(d2);
            assert!(
                (got[2 * i] - call).abs() < 2e-2 * s,
                "option {i}: {} vs {call}",
                got[2 * i]
            );
        }
    }

    #[test]
    fn put_call_parity_and_bounds() {
        let app = BlackScholes::small();
        let (spot, strike, time, _, rate) = app.inputs(0);
        let out = app.run(&TypeConfig::baseline(), 0);
        for i in 0..app.n {
            let (call, put) = (out[2 * i], out[2 * i + 1]);
            // A call is worth at most the spot; both legs are ≥ ~0
            // (tiny negatives can appear from the CDF approximation).
            assert!(call > -1e-3 && call < spot[i] * 1.01, "{call}");
            assert!(put > -1e-3, "{put}");
            // Parity: call − put = S − K·e^(−rt).
            let forward = spot[i] - strike[i] * (-rate * time[i]).exp();
            assert!((call - put - forward).abs() < 0.05 * spot[i].max(1.0));
        }
    }

    #[test]
    fn records_the_cdf_sign_comparison() {
        // The divergence-latch candidate: each option prices two CDFs,
        // each with one recorded sign comparison.
        let app = BlackScholes::small();
        let (_, counts) = flexfloat::Recorder::scoped(|| app.run(&TypeConfig::baseline(), 0));
        let cmps: u64 = counts
            .ops
            .iter()
            .filter(|((_, k), _)| matches!(k, flexfloat::OpKind::Cmp))
            .map(|(_, c)| c.total())
            .sum();
        assert_eq!(cmps as usize, 2 * app.n);
    }

    #[test]
    fn deterministic() {
        let app = BlackScholes::small();
        assert_eq!(
            app.run(&TypeConfig::baseline(), 1),
            app.run(&TypeConfig::baseline(), 1)
        );
    }
}
