//! Order statistics and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many values the metric is taken over: slots for the latency
    /// quantiles, server starts, loop passes, jobs (1 for a single number).
    pub samples: usize,
}

/// A run's verdict and metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused or returned a wrong result.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every request succeeded with the right result.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// A human-readable table, one metric per line with its sample count.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>14.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "failed {} of {} requests ({:.4} share)",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        out
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`null` is not a number, so
/// a non-finite value is written as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest of each item over passes: `passes[p][item]` → per item.
#[must_use]
pub fn fastest_per_item<T>(passes: &[Vec<T>], key: impl Fn(&T) -> f64) -> Vec<f64> {
    let items = passes.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| {
            passes
                .iter()
                .map(|p| key(&p[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The peak resident set of this process in MB (`VmHWM`), 0 if unknown.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
