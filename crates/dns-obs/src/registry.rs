//! A registry of named monotone counters and log-scale histograms.
//!
//! Metrics are registered once at setup time, yielding copyable
//! [`CounterId`] / [`HistId`] handles; the record path (`inc`, `add`,
//! `observe`) then indexes straight into pre-sized vectors and never
//! allocates or formats. Rendering — Prometheus text for scrapes,
//! compact `name=value` lines for `CHAOS TXT` exposition — happens only
//! on the (cold) read path.

use crate::hist::LogHistogram;

/// Handle to a registered counter; cheap to copy and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram; cheap to copy and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone)]
struct Counter {
    name: &'static str,
    help: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct Hist {
    name: &'static str,
    help: &'static str,
    hist: LogHistogram,
}

/// A registry of pre-registered counters and histograms.
///
/// Registration allocates; recording does not, and neither does
/// `clone_from` onto a registry with the same metrics (the `Resolved`
/// daemon copies each worker resolver's registry this way after every
/// resolution). The registry is not internally synchronised — embed it
/// behind whatever lock already guards the component it instruments.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<Counter>,
    hists: Vec<Hist>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            counters: self.counters.clone(),
            hists: self.hists.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.counters.clone_from(&source.counters);
        self.hists.clone_from(&source.hists);
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a monotone counter. Names must be unique and valid
    /// Prometheus metric names (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or invalid name.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> CounterId {
        self.assert_fresh(name);
        self.counters.push(Counter {
            name,
            help,
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a histogram. Same naming rules as [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or invalid name.
    pub fn histogram(&mut self, name: &'static str, help: &'static str) -> HistId {
        self.assert_fresh(name);
        self.hists.push(Hist {
            name,
            help,
            hist: LogHistogram::new(),
        });
        HistId(self.hists.len() - 1)
    }

    fn assert_fresh(&self, name: &str) {
        assert!(is_metric_name(name), "invalid metric name: {name:?}");
        assert!(
            self.counters.iter().all(|c| c.name != name)
                && self.hists.iter().all(|h| h.name != name),
            "duplicate metric name: {name:?}"
        );
    }

    /// Increments a counter by 1. Allocation-free.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].value += 1;
    }

    /// Adds `delta` to a counter. Allocation-free.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].value += delta;
    }

    /// Sets a counter to an absolute value (for gauges mirrored from an
    /// external source such as `DaemonStats`). Allocation-free.
    #[inline]
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.counters[id.0].value = value;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Records one histogram sample. Allocation-free.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].hist.record(v);
    }

    /// Read access to a registered histogram.
    pub fn hist(&self, id: HistId) -> &LogHistogram {
        &self.hists[id.0].hist
    }

    /// Mutable access to a registered histogram (for merging
    /// per-worker histograms on the cold path).
    pub fn hist_mut(&mut self, id: HistId) -> &mut LogHistogram {
        &mut self.hists[id.0].hist
    }

    /// Folds `other` into this registry by name: counters are summed
    /// (saturating) and histograms merged. A metric this registry lacks
    /// is registered with `other`'s help text, after the ones it already
    /// has. Read path only — allocates.
    ///
    /// # Panics
    ///
    /// Panics when a name is a counter in one registry and a histogram
    /// in the other.
    pub fn merge(&mut self, other: &Registry) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value = m.value.saturating_add(c.value),
                None => {
                    self.assert_fresh(c.name);
                    self.counters.push(c.clone());
                }
            }
        }
        for h in &other.hists {
            match self.hists.iter_mut().find(|m| m.name == h.name) {
                Some(m) => m.hist.merge(&h.hist),
                None => {
                    self.assert_fresh(h.name);
                    self.hists.push(h.clone());
                }
            }
        }
    }

    /// Renders the whole registry in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` preamble per metric, cumulative `le` buckets
    /// at the non-empty bucket boundaries plus `+Inf`, `_sum` and
    /// `_count` series for histograms. Read path only — allocates.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!("# HELP {} {}\n", c.name, c.help));
            out.push_str(&format!("# TYPE {} counter\n", c.name));
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for h in &self.hists {
            out.push_str(&format!("# HELP {} {}\n", h.name, h.help));
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (_, hi, n) in h.hist.iter_nonzero() {
                cumulative += n;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    h.name, hi, cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{{le=\"+Inf\"}} {}\n",
                h.name,
                h.hist.count()
            ));
            out.push_str(&format!("{}_sum {}\n", h.name, h.hist.sum()));
            out.push_str(&format!("{}_count {}\n", h.name, h.hist.count()));
        }
        out
    }

    /// Renders a compact one-line-per-metric snapshot for `CHAOS TXT`
    /// exposition, where each line must fit a 255-byte character-string
    /// and the whole message a 4 KiB UDP datagram. Counters render as
    /// `name=value`; histograms as
    /// `name count=N sum=S p50=A p90=B p99=C`.
    pub fn render_compact(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.counters.len() + self.hists.len());
        for c in &self.counters {
            out.push(format!("{}={}", c.name, c.value));
        }
        for h in &self.hists {
            let hist = &h.hist;
            out.push(format!(
                "{} count={} sum={} p50={} p90={} p99={}",
                h.name,
                hist.count(),
                hist.sum(),
                hist.p50(),
                hist.p90(),
                hist.p99()
            ));
        }
        out
    }
}

/// Whether `name` is a valid Prometheus metric name.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates a Prometheus text exposition body: every non-comment line
/// must be `name[{labels}] value`, metric names must be well-formed,
/// values must parse as finite numbers, and no series (name + label
/// set) may repeat. Returns the number of sample lines on success.
///
/// Used by the netd exposition test and the CI smoke step to keep the
/// `CHAOS TXT` / scrape output honest.
pub fn validate_prometheus_text(body: &str) -> Result<usize, String> {
    let mut seen: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", lineno + 1))?;
        let name = match series.split_once('{') {
            Some((name, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!(
                        "line {}: unterminated label set: {line:?}",
                        lineno + 1
                    ));
                }
                name
            }
            None => series,
        };
        if !is_metric_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        if !parsed.is_finite() {
            return Err(format!("line {}: non-finite value {value:?}", lineno + 1));
        }
        if seen.iter().any(|s| s == series) {
            return Err(format!("line {}: duplicate series {series:?}", lineno + 1));
        }
        seen.push(series.to_string());
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_roundtrip() {
        let mut reg = Registry::new();
        let c = reg.counter("queries_total", "Queries received");
        let h = reg.histogram("latency_ms", "Resolution latency");
        reg.inc(c);
        reg.add(c, 2);
        reg.observe(h, 40);
        reg.observe(h, 1000);
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.hist(h).count(), 2);
    }

    #[test]
    fn prometheus_output_validates() {
        let mut reg = Registry::new();
        let c = reg.counter("served_total", "Answers sent");
        let h = reg.histogram("wall_latency_ms", "Wall-clock latency");
        reg.add(c, 7);
        for v in [3u64, 40, 40, 2000] {
            reg.observe(h, v);
        }
        let text = reg.render_prometheus();
        let samples = validate_prometheus_text(&text).expect("valid exposition");
        // served_total + 3 nonzero buckets + +Inf + _sum + _count.
        assert_eq!(samples, 7);
        assert!(text.contains("# TYPE wall_latency_ms histogram"));
        assert!(text.contains("wall_latency_ms_count 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
    }

    #[test]
    fn compact_lines_fit_txt_strings() {
        let mut reg = Registry::new();
        let c = reg.counter("retries", "Retries");
        let h = reg.histogram("resolve_latency_ms", "Virtual latency");
        reg.set(c, u64::MAX);
        reg.observe(h, u64::MAX);
        for line in reg.render_compact() {
            assert!(line.len() <= 255, "TXT line too long: {line}");
        }
    }

    #[test]
    fn checker_rejects_garbage() {
        assert!(validate_prometheus_text("1bad_name 3\n").is_err());
        assert!(validate_prometheus_text("x notanumber\n").is_err());
        assert!(validate_prometheus_text("x 1\nx 2\n").is_err());
        assert!(validate_prometheus_text("x{le=\"1\"} 1\nx{le=\"2\"} 2\n").is_ok());
        assert!(validate_prometheus_text("x{le=\"1\"} 1\nx{le=\"1\"} 2\n").is_err());
        assert!(validate_prometheus_text("# just a comment\n\n").unwrap() == 0);
    }

    #[test]
    fn merge_sums_counters_and_histograms_by_name() {
        let mut a = Registry::new();
        let hits = a.counter("hits", "Hits");
        let lat = a.histogram("latency_ms", "Latency");
        a.add(hits, 2);
        a.observe(lat, 40);

        let mut b = Registry::new();
        let misses = b.counter("misses", "Misses");
        let b_lat = b.histogram("latency_ms", "Latency");
        let b_hits = b.counter("hits", "Hits");
        b.add(b_hits, 3);
        b.add(misses, 1);
        b.observe(b_lat, 1000);

        a.merge(&b);
        assert_eq!(a.counter_value(hits), 5);
        assert_eq!(a.hist(lat).count(), 2);
        // Metrics only `b` had are appended after `a`'s own.
        assert_eq!(a.render_compact()[..2], ["hits=5", "misses=1"]);
        validate_prometheus_text(&a.render_prometheus()).expect("merged registry renders");
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn merge_rejects_kind_clash() {
        let mut a = Registry::new();
        a.counter("x", "counter");
        let mut b = Registry::new();
        b.histogram("x", "histogram");
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_rejected() {
        let mut reg = Registry::new();
        reg.counter("twice", "first");
        reg.histogram("twice", "second");
    }
}
