//! Schemes, outcome types and the paper's experiment constants.
//!
//! Sweeps themselves run through the [`crate::sweep::ExperimentSpec`]
//! engine: warm a simulation over the first six days of a trace, fork it
//! per attack duration, and measure failure ratios inside the attack
//! window — exactly the paper's §5.1 methodology.

use crate::SimConfig;
use dns_core::{SimDuration, Ttl};
use dns_obs::LogHistogram;
use dns_resolver::{
    DefensePolicy, OccupancySample, RenewalPolicy, ResolverConfig, ResolverMetrics, StalePolicy,
};
use std::fmt;

/// A complete scheme under evaluation: the caching-server configuration
/// plus the operator-side long-TTL override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    /// Resolver-side configuration.
    pub resolver: ResolverConfig,
    /// Zone-side long TTL, if any.
    pub long_ttl: Option<Ttl>,
}

impl Scheme {
    /// The current DNS (Figure 4 baseline).
    pub fn vanilla() -> Self {
        Scheme {
            resolver: ResolverConfig::vanilla(),
            long_ttl: None,
        }
    }

    /// TTL refresh only (Figure 5).
    pub fn refresh() -> Self {
        Scheme {
            resolver: ResolverConfig::with_refresh(),
            long_ttl: None,
        }
    }

    /// TTL refresh + a renewal policy (Figures 6–9).
    pub fn renewal(policy: RenewalPolicy) -> Self {
        Scheme {
            resolver: ResolverConfig::with_renewal(policy),
            long_ttl: None,
        }
    }

    /// TTL refresh + long TTL (Figure 10).
    pub fn refresh_long_ttl(ttl: Ttl) -> Self {
        Scheme {
            resolver: ResolverConfig::with_refresh(),
            long_ttl: Some(ttl),
        }
    }

    /// All three combined (Figure 11).
    pub fn combined(policy: RenewalPolicy, ttl: Ttl) -> Self {
        Scheme {
            resolver: ResolverConfig::with_renewal(policy),
            long_ttl: Some(ttl),
        }
    }

    /// The same scheme with a resolver-side [`DefensePolicy`] applied —
    /// the head-to-head axis of the adversarial sweeps. The defense
    /// knobs show up in the label (`vanilla+maxfetch4`, …).
    pub fn with_defense(mut self, defense: DefensePolicy) -> Self {
        self.resolver.defense = defense;
        self
    }

    /// The same scheme with a resolver-side [`StalePolicy`] applied —
    /// the serve-stale / proactive-refresh / prefetch axis of the stale
    /// sweeps. The stale knobs show up in the label
    /// (`vanilla+stale3600s`, `refresh+proactive80`, …).
    pub fn with_stale(mut self, stale: StalePolicy) -> Self {
        self.resolver.stale = stale;
        self
    }

    /// The scheme's display label.
    pub fn label(&self) -> String {
        self.sim_config().label()
    }

    /// The corresponding simulation configuration.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::new(self.resolver);
        if let Some(ttl) = self.long_ttl {
            config = config.long_ttl(ttl);
        }
        config
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Failure measurement for one (scheme, trace, attack duration) cell.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Trace label.
    pub trace: String,
    /// Attack duration.
    pub duration: SimDuration,
    /// % of stub-resolver queries failing during the attack window
    /// (the paper's "queries from SRs" series).
    pub sr_failed_pct: f64,
    /// % of caching-server → authoritative queries failing during the
    /// window (the paper's "queries from CSs" series).
    pub cs_failed_pct: f64,
    /// Raw counters accumulated inside the window.
    pub window: ResolverMetrics,
    /// Modelled resolution-latency distribution inside the window
    /// (virtual ms; the Fig. 12-style CDF input).
    pub latency: LogHistogram,
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {}h: SR {:.2}% CS {:.2}%",
            self.scheme,
            self.trace,
            self.duration.as_secs() / 3600,
            self.sr_failed_pct,
            self.cs_failed_pct
        )
    }
}

/// Measurement for one (scheme, trace, adversary) cell: a baseline fork
/// (legitimate traffic only) and an attacked fork (the same traffic with
/// the adversary's flood merged in) replayed over the same window from
/// one warmed-up state.
#[derive(Debug, Clone)]
pub struct AdversarialOutcome {
    /// Scheme label (defense knobs included, e.g. `vanilla+maxfetch4`).
    pub scheme: String,
    /// Trace label.
    pub trace: String,
    /// Adversary label (`nxns-q50`, `torture-v8-q25`, …).
    pub adversary: String,
    /// Attack-window length.
    pub duration: SimDuration,
    /// Adversary queries replayed inside the window.
    pub attack_queries: u64,
    /// Upstream queries the baseline fork sent inside the window.
    pub base_upstream: u64,
    /// % of *legitimate* queries failing in the baseline window.
    pub base_legit_failed_pct: f64,
    /// % of *legitimate* queries failing in the attacked window
    /// (adversary queries and their failures subtracted out).
    pub legit_failed_pct: f64,
    /// Raw resolver counters accumulated inside the attacked window
    /// (upstream queries, defense and serve-stale counters included).
    pub window: ResolverMetrics,
}

impl AdversarialOutcome {
    /// Extra upstream queries the attack induced, per attack query —
    /// the amplification factor the defenses are judged on.
    pub fn amplification(&self) -> f64 {
        if self.attack_queries == 0 {
            return 0.0;
        }
        self.window.queries_out.saturating_sub(self.base_upstream) as f64
            / self.attack_queries as f64
    }

    /// Percentage-point increase in legitimate failures versus the
    /// baseline fork — the collateral-damage cost of attack + defense.
    pub fn legit_failed_delta_pct(&self) -> f64 {
        self.legit_failed_pct - self.base_legit_failed_pct
    }
}

impl fmt::Display for AdversarialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {}: x{:.1} amplification, legit fail {:.2}% ({:+.2}pp)",
            self.scheme,
            self.trace,
            self.adversary,
            self.amplification(),
            self.legit_failed_pct,
            self.legit_failed_delta_pct()
        )
    }
}

/// The attack durations evaluated in Figures 4–5 (3, 6, 12, 24 hours).
pub fn paper_durations() -> [SimDuration; 4] {
    [
        SimDuration::from_hours(3),
        SimDuration::from_hours(6),
        SimDuration::from_hours(12),
        SimDuration::from_hours(24),
    ]
}

/// The 6-hour window used by the policy-comparison figures (6–11).
pub const POLICY_FIGURE_DURATION: SimDuration = SimDuration::from_hours(6);

/// The attack onset: the start of day 7, after six days of warm-up.
pub const ATTACK_START_DAY: u64 = 6;

/// Outcome of a full no-attack run, used for Table 2 (message overhead)
/// and Figure 12 (memory overhead).
#[derive(Debug, Clone)]
pub struct OverheadOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Trace label.
    pub trace: String,
    /// Final counters for the whole run.
    pub metrics: ResolverMetrics,
    /// Occupancy series (hourly unless overridden).
    pub occupancy: Vec<OccupancySample>,
    /// Modelled resolution-latency distribution over the whole run
    /// (virtual ms).
    pub latency: LogHistogram,
}

impl OverheadOutcome {
    /// % change in outgoing messages relative to `baseline` (negative
    /// means fewer messages — the hoped-for result for refresh and
    /// long-TTL).
    pub fn message_overhead_pct(&self, baseline: &OverheadOutcome) -> f64 {
        let base = baseline.metrics.queries_out;
        if base == 0 {
            return 0.0;
        }
        (self.metrics.queries_out as f64 - base as f64) / base as f64 * 100.0
    }

    /// Mean fresh-zone count over the occupancy series.
    pub fn mean_zones(&self) -> f64 {
        mean(self.occupancy.iter().map(|o| o.zones as f64))
    }

    /// Mean cached-record count over the occupancy series.
    pub fn mean_records(&self) -> f64 {
        mean(self.occupancy.iter().map(|o| o.total_records() as f64))
    }

    /// Ratio of mean cached zones vs a baseline run.
    pub fn zone_ratio(&self, baseline: &OverheadOutcome) -> f64 {
        safe_ratio(self.mean_zones(), baseline.mean_zones())
    }

    /// Ratio of mean cached records vs a baseline run.
    pub fn record_ratio(&self, baseline: &OverheadOutcome) -> f64 {
        safe_ratio(self.mean_records(), baseline.mean_records())
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ExperimentSpec;
    use dns_core::SimTime;
    use dns_trace::{Trace, TraceSpec, Universe, UniverseSpec};

    fn setup() -> (Universe, Trace) {
        let u = UniverseSpec::small().build(7);
        let t = TraceSpec::demo().scaled(0.15).generate(&u, 5);
        (u, t)
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::vanilla().label(), "vanilla");
        assert_eq!(Scheme::refresh().label(), "refresh");
        assert_eq!(
            Scheme::renewal(RenewalPolicy::lru(3)).label(),
            "refresh+LRU_3"
        );
        assert_eq!(
            Scheme::refresh_long_ttl(Ttl::from_days(5)).label(),
            "refresh+longttl5d"
        );
        assert_eq!(
            Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3)).label(),
            "refresh+A-LFU_3+longttl3d"
        );
    }

    #[test]
    fn sweep_longer_attacks_fail_more_for_vanilla() {
        let (u, t) = setup();
        let outcomes = ExperimentSpec::new(&u)
            .trace(t)
            .scheme(Scheme::vanilla())
            .attack(SimTime::from_days(ATTACK_START_DAY), &paper_durations())
            .run()
            .attacks;
        assert_eq!(outcomes.len(), 4);
        // Failures are roughly monotone in attack duration. The demo
        // trace is sparse (little cache reuse), so failure saturates near
        // its ceiling and we only require monotonicity up to small noise.
        for pair in outcomes.windows(2) {
            assert!(
                pair[1].sr_failed_pct >= pair[0].sr_failed_pct - 5.0,
                "{} then {}",
                pair[0],
                pair[1]
            );
        }
        // The 24h attack must hurt a vanilla resolver badly.
        assert!(outcomes[3].sr_failed_pct > 10.0);
        // CS-side failures exceed SR-side ones (cache shields clients,
        // not the caching server itself) — the paper's Fig. 4 asymmetry.
        assert!(outcomes[3].cs_failed_pct > outcomes[3].sr_failed_pct);
    }

    #[test]
    fn schemes_order_as_in_the_paper() {
        let (u, t) = setup();
        let start = SimTime::from_days(ATTACK_START_DAY);
        let durations = [SimDuration::from_hours(6)];
        let fail = |s: Scheme| {
            ExperimentSpec::new(&u)
                .trace(t.clone())
                .scheme(s)
                .attack(start, &durations)
                .run()
                .attacks[0]
                .sr_failed_pct
        };
        let vanilla = fail(Scheme::vanilla());
        let refresh = fail(Scheme::refresh());
        let combined = fail(Scheme::combined(
            RenewalPolicy::adaptive_lfu(3),
            Ttl::from_days(3),
        ));
        assert!(vanilla > 0.0);
        assert!(refresh <= vanilla);
        assert!(combined <= refresh);
        // The headline claim: combined is roughly an order of magnitude
        // better than vanilla (allow generous slack on the small trace).
        assert!(
            combined < vanilla / 2.0,
            "combined {combined} vanilla {vanilla}"
        );
    }

    #[test]
    fn overhead_run_collects_metrics_and_occupancy() {
        let (u, t) = setup();
        let run = |s: Scheme| {
            ExperimentSpec::new(&u)
                .trace(t.clone())
                .scheme(s)
                .overhead(SimDuration::from_hours(12))
                .run()
                .overheads
                .remove(0)
        };
        let vanilla = run(Scheme::vanilla());
        assert!(vanilla.metrics.queries_out > 0);
        assert!(!vanilla.occupancy.is_empty());
        assert_eq!(vanilla.message_overhead_pct(&vanilla), 0.0);

        // Refresh reduces message volume (fewer referral walks).
        let refresh = run(Scheme::refresh());
        assert!(
            refresh.message_overhead_pct(&vanilla) < 5.0,
            "refresh should not add much traffic: {:+.1}%",
            refresh.message_overhead_pct(&vanilla)
        );

        // Renewal adds traffic but also adds cached zones.
        let renew = run(Scheme::renewal(RenewalPolicy::adaptive_lru(3)));
        assert!(renew.metrics.renewals_sent > 0);
        assert!(renew.zone_ratio(&vanilla) > 1.0);
    }
}
