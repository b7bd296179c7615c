//! Resolver-side counters and occupancy sampling.

use dns_core::SimTime;
use std::fmt;

dns_obs::counter_set! {
    /// Monotone counters maintained by a [`crate::CachingServer`].
    ///
    /// All fields are public passive data; the experiment harness snapshots
    /// the struct at attack-window boundaries and subtracts (`-` saturates
    /// field by field) to obtain per-window counts. Each row below is the
    /// counter's only declaration: the daemon's `CHAOS TXT` and Prometheus
    /// series (`resolver_<field>`) and the run-manifest columns (`<field>`)
    /// all iterate [`ResolverMetrics::fields`].
    pub struct ResolverMetrics, prefix "resolver_" {
        queries_in: "Client (stub-resolver) queries received",
        failed_in: "Client queries that could not be resolved (SERVFAIL-equivalent)",
        cache_hits: "Client queries answered purely from cache",
        queries_out: "Queries sent to authoritative servers (demand plus renewal)",
        failed_out: "Outgoing queries that got no usable response (lost or mismatched)",
        referrals: "Referral responses processed",
        refreshes: "Infrastructure-record TTLs refreshed from a response (the paper's TTL refresh)",
        renewals_sent: "Renewal re-fetches attempted",
        renewals_ok: "Renewal re-fetches that succeeded",
        negative_answers: "Negative answers (NXDOMAIN or NODATA) returned to clients",
        retries: "Retry rounds entered by the exchange loop, each re-walking the server list after a backoff",
        backoff_wait_ms: "Backoff requested between retry rounds in milliseconds (slept by the daemon, virtual in the simulator)",
        deadline_exhausted: "Exchanges abandoned because the next backoff would pass the retry deadline",
        mismatched_responses: "Responses discarded for not matching the outstanding query's ID and question",
        fetches_clamped: "NS-address fetches skipped by the per-query MaxFetch(k) budget",
        flood_suppressed: "Negative-cache inserts refused at a zero budget plus upstream walks refused by the per-zone inflight cap",
        neg_evictions_pressure: "Negative-cache entries evicted early under the entry or byte budget",
        stale_served: "Expired answers served inside the serve-stale window after the demand fetch failed (RFC 8767)",
        stale_expired_unserved: "Failed queries whose expired record had aged past the serve-stale window",
        refresh_ahead: "Proactive refreshes of hot entries that had consumed the configured share of their TTL",
        prefetch_issued: "Prefetches issued by the inter-arrival predictor",
        prefetch_hits: "Prefetched names whose next query was answered fresh from cache",
        prefetch_wasted: "Prefetched names whose next query still missed the cache",
    }
}

impl ResolverMetrics {
    /// Fraction of client queries that failed; 0 when none were received.
    pub fn failed_in_ratio(&self) -> f64 {
        ratio(self.failed_in, self.queries_in)
    }

    /// Fraction of outgoing queries that went unanswered.
    pub fn failed_out_ratio(&self) -> f64 {
        ratio(self.failed_out, self.queries_out)
    }

    /// Cache hit rate over client queries.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.queries_in)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ResolverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in={}/{} failed, out={}/{} failed, hits={}, renewals={}/{}, \
             retries={} ({}ms backoff, {} deadline-exhausted)",
            self.failed_in,
            self.queries_in,
            self.failed_out,
            self.queries_out,
            self.cache_hits,
            self.renewals_ok,
            self.renewals_sent,
            self.retries,
            self.backoff_wait_ms,
            self.deadline_exhausted
        )
    }
}

/// A point-in-time measurement of cache occupancy (Figure 12's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Sampling instant.
    pub at: SimTime,
    /// Zones with fresh infrastructure entries.
    pub zones: usize,
    /// Individual infrastructure records across those zones.
    pub infra_records: usize,
    /// Fresh data RRsets in the record cache.
    pub data_rrsets: usize,
    /// Individual records across those RRsets.
    pub data_records: usize,
}

impl OccupancySample {
    /// Total cached records, infrastructure + data.
    pub fn total_records(&self) -> usize {
        self.infra_records + self.data_records
    }
}

impl fmt::Display for OccupancySample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} zones={} records={}",
            self.at,
            self.zones,
            self.total_records()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominator() {
        let m = ResolverMetrics::default();
        assert_eq!(m.failed_in_ratio(), 0.0);
        assert_eq!(m.failed_out_ratio(), 0.0);
        assert_eq!(m.hit_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = ResolverMetrics {
            queries_in: 10,
            failed_in: 2,
            cache_hits: 5,
            queries_out: 4,
            failed_out: 1,
            ..ResolverMetrics::default()
        };
        assert!((m.failed_in_ratio() - 0.2).abs() < 1e-12);
        assert!((m.failed_out_ratio() - 0.25).abs() < 1e-12);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_subtraction() {
        let start = ResolverMetrics {
            queries_in: 100,
            failed_in: 1,
            ..ResolverMetrics::default()
        };
        let end = ResolverMetrics {
            queries_in: 150,
            failed_in: 11,
            ..ResolverMetrics::default()
        };
        let window = end - start;
        assert_eq!(window.queries_in, 50);
        assert_eq!(window.failed_in, 10);
        assert!((window.failed_in_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn window_subtraction_saturates_across_reset() {
        // A snapshot taken before a counter reset is *larger* than one
        // taken after; the window delta must clamp to zero, not wrap to
        // ~u64::MAX and poison downstream ratios.
        let before_reset = ResolverMetrics {
            queries_in: 100,
            failed_in: 10,
            queries_out: 250,
            failed_out: 40,
            retries: 7,
            backoff_wait_ms: 12_000,
            ..ResolverMetrics::default()
        };
        let after_reset = ResolverMetrics {
            queries_in: 3,
            queries_out: 5,
            ..ResolverMetrics::default()
        };
        let window = after_reset - before_reset;
        assert_eq!(window, ResolverMetrics::default());
        assert_eq!(window.failed_in_ratio(), 0.0);

        // Mixed regression: fields that did advance still subtract.
        let partial = ResolverMetrics {
            queries_in: 120,
            failed_in: 2, // regressed
            ..before_reset
        };
        let window = partial - before_reset;
        assert_eq!(window.queries_in, 20);
        assert_eq!(window.failed_in, 0);
        assert_eq!(window.retries, 0);
    }

    #[test]
    fn occupancy_total() {
        let s = OccupancySample {
            at: SimTime::ZERO,
            zones: 3,
            infra_records: 9,
            data_rrsets: 5,
            data_records: 7,
        };
        assert_eq!(s.total_records(), 16);
    }
}
