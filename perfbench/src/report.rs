//! The run's result: named metrics with units, printed as a readable
//! table and as the one-line JSON object that ends standard output.

use std::fmt::Write as _;

/// One metric: name, value and unit, plus the sample count behind it
/// when it is a percentile or a median.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<u64>,
}

/// Everything one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed above the metric table (checks, ledgers,
    /// layers a workload does not exercise).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_n(name, value, unit, None);
    }

    pub fn push_n(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<u64>) {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect and says why.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<32} {:>16.4} {:<6}{samples}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit it carries and always
            // as a valid JSON number for finite values.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Sub-buckets per power of two: values are kept to 1/128 (0.8%).
const SUB: u64 = 128;

/// A fixed-size log-linear latency histogram: memory does not grow with
/// the number of samples, so peak RSS does not track throughput.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; (SUB * 58) as usize],
            total: 0,
        }
    }
}

impl LatHist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as u64 - 7;
        (SUB * (e + 1) + ((v >> e) - SUB)) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let e = i / SUB - 1;
        let m = i % SUB + SUB;
        ((m << e) as f64) + ((1u64 << e) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total")
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 10;
        r.push_n("p99_us", 12.5, "us", Some(10));
        r.push("setup_s", 0.25, "s");
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"p99_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_stay_within_a_percent() {
        let mut h = LatHist::default();
        for v in 1..=100_000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.len(), 100_000);
        for (q, exact) in [(0.5, 50_000_000.0), (0.99, 99_000_000.0)] {
            let got = h.percentile(q);
            assert!((got - exact).abs() / exact < 0.01, "p{q}: {got} vs {exact}");
        }
        let mut small = LatHist::default();
        small.record(7);
        assert_eq!(small.percentile(0.5), 7.0);
        assert_eq!(LatHist::default().percentile(0.5), 0.0);
        let mut big = LatHist::default();
        big.record(u64::MAX);
        assert!(big.percentile(1.0) > 1e19);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_rejected() {
        let mut r = Report::new();
        r.push("qps", 1.0, "1/s");
        r.push("qps", 2.0, "1/s");
    }
}
