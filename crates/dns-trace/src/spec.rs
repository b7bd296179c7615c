//! Preset trace specifications mirroring Table 1.

use crate::{Trace, Universe, WorkloadBuilder};
use std::fmt;

/// A named trace preset. The six presets `TRC1`–`TRC6` mirror the shape of
/// the paper's Table 1: five one-week university traces of widely varying
/// size plus one one-month trace, with client populations spanning two
/// orders of magnitude.
///
/// Absolute sizes are scaled to keep a full experiment sweep tractable on
/// one machine while preserving the ratios that matter (queries per client
/// per day, trace-to-trace spread).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trace label.
    pub name: &'static str,
    /// Days of traffic.
    pub days: u64,
    /// Client population.
    pub clients: u32,
    /// Total stub-resolver queries.
    pub total_queries: u64,
}

impl TraceSpec {
    /// `TRC1` — mid-sized university, one week.
    pub const TRC1: TraceSpec = TraceSpec {
        name: "TRC1",
        days: 7,
        clients: 120,
        total_queries: 150_000,
    };
    /// `TRC2` — large client population, one week.
    pub const TRC2: TraceSpec = TraceSpec {
        name: "TRC2",
        days: 7,
        clients: 1_300,
        total_queries: 350_000,
    };
    /// `TRC3` — small campus, one week.
    pub const TRC3: TraceSpec = TraceSpec {
        name: "TRC3",
        days: 7,
        clients: 200,
        total_queries: 110_000,
    };
    /// `TRC4` — the heaviest one-week load.
    pub const TRC4: TraceSpec = TraceSpec {
        name: "TRC4",
        days: 7,
        clients: 2_900,
        total_queries: 500_000,
    };
    /// `TRC5` — mid-sized, one week.
    pub const TRC5: TraceSpec = TraceSpec {
        name: "TRC5",
        days: 7,
        clients: 700,
        total_queries: 220_000,
    };
    /// `TRC6` — the one-month trace used for the memory-overhead series
    /// (Figure 12).
    pub const TRC6: TraceSpec = TraceSpec {
        name: "TRC6",
        days: 30,
        clients: 400,
        total_queries: 600_000,
    };

    /// The five one-week traces evaluated in Figures 4–11.
    pub fn weekly() -> [TraceSpec; 5] {
        [
            TraceSpec::TRC1,
            TraceSpec::TRC2,
            TraceSpec::TRC3,
            TraceSpec::TRC4,
            TraceSpec::TRC5,
        ]
    }

    /// All six traces (Table 1).
    pub fn all() -> [TraceSpec; 6] {
        [
            TraceSpec::TRC1,
            TraceSpec::TRC2,
            TraceSpec::TRC3,
            TraceSpec::TRC4,
            TraceSpec::TRC5,
            TraceSpec::TRC6,
        ]
    }

    /// A tiny spec for documentation examples and smoke tests.
    pub fn demo() -> TraceSpec {
        TraceSpec {
            name: "DEMO",
            days: 7,
            clients: 10,
            total_queries: 20_000,
        }
    }

    /// A scaled copy: all volumes multiplied by `factor` (clients and
    /// queries), used for quick experiment previews.
    pub fn scaled(&self, factor: f64) -> TraceSpec {
        TraceSpec {
            name: self.name,
            days: self.days,
            clients: ((self.clients as f64 * factor).ceil() as u32).max(1),
            total_queries: ((self.total_queries as f64 * factor).ceil() as u64).max(1),
        }
    }

    /// The workload builder this spec describes — the entry point for
    /// streaming replay ([`WorkloadBuilder::stream`]).
    pub fn workload(&self) -> WorkloadBuilder {
        WorkloadBuilder::new(self.name, self.days, self.clients, self.total_queries)
    }

    /// Generates the trace over `universe` with the given seed.
    pub fn generate(&self, universe: &Universe, seed: u64) -> Trace {
        self.workload().generate(universe, seed)
    }
}

impl fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}d, {} clients, {} queries)",
            self.name, self.days, self.clients, self.total_queries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseSpec;

    #[test]
    fn presets_cover_the_papers_shape() {
        let all = TraceSpec::all();
        assert_eq!(all.len(), 6);
        assert!(all.iter().take(5).all(|t| t.days == 7));
        assert_eq!(all[5].days, 30);
        // Client spread of more than an order of magnitude.
        let min = all.iter().map(|t| t.clients).min().unwrap();
        let max = all.iter().map(|t| t.clients).max().unwrap();
        assert!(max / min >= 10);
    }

    #[test]
    fn scaled_reduces_volume() {
        let s = TraceSpec::TRC4.scaled(0.1);
        assert_eq!(s.clients, 290);
        assert_eq!(s.total_queries, 50_000);
        assert_eq!(s.days, 7);
    }

    #[test]
    fn generate_produces_matching_trace() {
        let u = UniverseSpec::small().build(7);
        let t = TraceSpec::demo().scaled(0.1).generate(&u, 5);
        assert_eq!(t.days, 7);
        assert_eq!(t.queries.len(), 2_000);
        assert!(t.is_sorted());
    }
}
