//! Query workload synthesis over a generated universe.

use crate::stream::StreamShape;
use crate::{TargetSource, Trace, TraceStream, Universe, UniverseTargets};
use std::fmt;

/// Builds a [`Trace`] over a [`Universe`]: Zipf name popularity, diurnal
/// rate modulation, a sprinkling of MX and non-existent-name queries.
///
/// ```rust
/// use dns_trace::{UniverseSpec, WorkloadBuilder};
///
/// let universe = UniverseSpec::small().build(7);
/// let trace = WorkloadBuilder::new("demo", 1, 10, 5_000)
///     .zipf_alpha(0.9)
///     .generate(&universe, 42);
/// assert_eq!(trace.queries.len(), 5_000);
/// assert!(trace.is_sorted());
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    days: u64,
    clients: u32,
    total_queries: u64,
    zipf_alpha: f64,
    nxdomain_fraction: f64,
    mx_fraction: f64,
    diurnal_amplitude: f64,
}

impl WorkloadBuilder {
    /// Starts a workload: `days` of traffic from `clients` clients,
    /// `total_queries` queries in total.
    pub fn new(name: &str, days: u64, clients: u32, total_queries: u64) -> Self {
        WorkloadBuilder {
            name: name.to_string(),
            days,
            clients,
            total_queries,
            zipf_alpha: 1.05,
            nxdomain_fraction: 0.03,
            mx_fraction: 0.05,
            diurnal_amplitude: 0.5,
        }
    }

    /// Sets the popularity skew (default 1.05; DNS name popularity is
    /// classically Zipf with alpha near 1, Jung et al. IMW 2001).
    pub fn zipf_alpha(mut self, alpha: f64) -> Self {
        self.zipf_alpha = alpha;
        self
    }

    /// Sets the fraction of queries for names that do not exist.
    pub fn nxdomain_fraction(mut self, f: f64) -> Self {
        self.nxdomain_fraction = f;
        self
    }

    /// Sets the fraction of apex queries asking for MX instead of A.
    pub fn mx_fraction(mut self, f: f64) -> Self {
        self.mx_fraction = f;
        self
    }

    /// Sets the day/night swing of the arrival rate (0 = flat,
    /// 1 = nights are silent).
    pub fn diurnal_amplitude(mut self, a: f64) -> Self {
        self.diurnal_amplitude = a.clamp(0.0, 1.0);
        self
    }

    /// Generates the trace deterministically from `seed`.
    ///
    /// This is a collected [`TraceStream`] — materialized and streamed
    /// traces are byte-identical for the same seed by construction.
    ///
    /// # Panics
    ///
    /// Panics if the universe has no queryable names or `clients == 0`.
    pub fn generate(&self, universe: &Universe, seed: u64) -> Trace {
        self.stream(UniverseTargets::new(universe), seed)
            .collect_trace()
    }

    /// Starts a [`TraceStream`] over `source`, yielding the trace's
    /// queries on demand without materializing them — `O(zones)`
    /// resident memory at any trace length.
    ///
    /// # Panics
    ///
    /// Panics if the source has no target groups or `clients == 0`.
    pub fn stream<S: TargetSource>(&self, source: S, seed: u64) -> TraceStream<S> {
        TraceStream::new(self.shape(), source, seed)
    }

    fn shape(&self) -> StreamShape {
        StreamShape {
            name: self.name.clone(),
            days: self.days,
            clients: self.clients,
            total_queries: self.total_queries,
            zipf_alpha: self.zipf_alpha,
            nxdomain_fraction: self.nxdomain_fraction,
            mx_fraction: self.mx_fraction,
            diurnal_amplitude: self.diurnal_amplitude,
        }
    }
}

impl fmt::Display for WorkloadBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload {} ({}d, {} clients, {} queries)",
            self.name, self.days, self.clients, self.total_queries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseSpec;
    use dns_core::{Name, RecordType, SimTime};

    fn universe() -> Universe {
        UniverseSpec::small().build(7)
    }

    fn gen(total: u64) -> Trace {
        WorkloadBuilder::new("T", 2, 20, total).generate(&universe(), 42)
    }

    #[test]
    fn exact_query_count_and_sorted() {
        let t = gen(10_000);
        assert_eq!(t.queries.len(), 10_000);
        assert!(t.is_sorted());
        // All timestamps within the trace horizon.
        let horizon = SimTime::from_days(2);
        assert!(t.queries.iter().all(|q| q.at < horizon));
    }

    #[test]
    fn deterministic_given_seed() {
        let u = universe();
        let a = WorkloadBuilder::new("T", 1, 5, 2_000).generate(&u, 1);
        let b = WorkloadBuilder::new("T", 1, 5, 2_000).generate(&u, 1);
        assert_eq!(a, b);
        let c = WorkloadBuilder::new("T", 1, 5, 2_000).generate(&u, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn popularity_is_skewed() {
        let t = gen(20_000);
        let mut counts: std::collections::HashMap<&Name, usize> = std::collections::HashMap::new();
        for q in &t.queries {
            *counts.entry(&q.question.name).or_default() += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top name should dwarf the median (Zipf head).
        let median = sorted[sorted.len() / 2];
        assert!(
            sorted[0] > median * 10,
            "head {} median {}",
            sorted[0],
            median
        );
    }

    #[test]
    fn diurnal_variation_present() {
        let t = WorkloadBuilder::new("T", 2, 20, 48_000)
            .diurnal_amplitude(0.8)
            .generate(&universe(), 9);
        let hour = |h: u64| {
            t.queries_between(SimTime::from_hours(h), SimTime::from_hours(h + 1))
                .len()
        };
        // 15:00 (peak) vs 03:00 (trough) on day one.
        assert!(
            hour(15) > hour(3) * 2,
            "peak {} trough {}",
            hour(15),
            hour(3)
        );
    }

    #[test]
    fn query_mix_includes_mx_and_nxdomain() {
        let t = WorkloadBuilder::new("T", 1, 10, 20_000)
            .nxdomain_fraction(0.05)
            .mx_fraction(0.05)
            .generate(&universe(), 3);
        let mx = t
            .queries
            .iter()
            .filter(|q| q.question.rtype == RecordType::Mx)
            .count();
        let nx = t
            .queries
            .iter()
            .filter(|q| {
                q.question
                    .name
                    .labels()
                    .next()
                    .is_some_and(|l| l.starts_with(b"nx"))
            })
            .count();
        assert!((600..=1_400).contains(&mx), "mx {mx}");
        assert!((600..=1_400).contains(&nx), "nx {nx}");
    }

    #[test]
    fn clients_all_appear() {
        let t = gen(20_000);
        let distinct: std::collections::HashSet<u32> = t.queries.iter().map(|q| q.client).collect();
        assert_eq!(distinct.len(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        WorkloadBuilder::new("T", 1, 0, 10).generate(&universe(), 1);
    }
}
