//! Statistics and the result line.

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(!self.0.iter().any(|m| m.name == name), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }
}

/// The benchmark's last line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One-sided level of the coverage test: a coverage this unlikely under
/// Binomial(n, 1 − α) fails the run.
pub const COVERAGE_TEST_LEVEL: f64 = 1e-3;

/// The smallest covered share of `n` intervals that a one-sided binomial
/// test at [`COVERAGE_TEST_LEVEL`] does not reject against a true coverage
/// of `1 − alpha`: the least `k / n` with `P[X ≤ k] > level` for
/// `X ~ Binomial(n, 1 − alpha)`.
pub fn coverage_lower_bound(n: u64, alpha: f64) -> f64 {
    assert!(n > 0, "coverage bound over no intervals");
    let p = 1.0 - alpha;
    let (ln_p, ln_q) = (p.ln(), alpha.ln());
    // ln C(n, k) built up incrementally alongside the CDF.
    let mut ln_choose = 0.0f64;
    let mut cdf = 0.0f64;
    for k in 0..=n {
        if k > 0 {
            ln_choose += ((n - k + 1) as f64).ln() - (k as f64).ln();
        }
        // cdf = P[X < k] before adding k's own mass.
        if cdf > COVERAGE_TEST_LEVEL {
            return k.saturating_sub(1) as f64 / n as f64;
        }
        cdf += (ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_q).exp();
    }
    1.0
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_bound_sits_below_the_target_and_tightens_with_n() {
        let small = coverage_lower_bound(400, 0.1);
        let large = coverage_lower_bound(40_000, 0.1);
        assert!(small < large && large < 0.9, "{small} {large}");
        // Normal approximation: 0.9 − 3.09·sqrt(0.09 / n).
        assert!((large - (0.9 - 3.09 * (0.09f64 / 40_000.0).sqrt())).abs() < 0.002);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
