//! The simulation driver: trace replay with interleaved renewal events,
//! occupancy sampling and cache maintenance.

use crate::adversary::{AdversaryEvents, CompiledAdversary, ADVERSARY_CLIENT};
use crate::{CompiledAttack, ServerFarm, SimNet};
use dns_core::{SimDuration, SimTime, Ttl};
use dns_resolver::{
    CachingServer, GapSample, OccupancySample, ResolverConfig, ResolverMetrics, RootHints,
};
use dns_trace::{QueryEvent, QueryStream, Trace, TraceReplay, Universe};
use std::fmt;
use std::iter::Peekable;
use std::sync::Arc;

/// The single source of scheme display labels, shared by
/// [`SimConfig::label`] and [`Scheme::label`](crate::experiment::Scheme):
/// the resolver label plus a `+longttl{ttl}` suffix when the
/// operator-side long-TTL scheme is active
/// (`refresh+A-LFU_3+longttl3d`, …). Memoisation keys in `dns-bench` and
/// every CSV's scheme column go through this one function, so the format
/// must stay stable.
pub fn scheme_label(resolver: &ResolverConfig, long_ttl: Option<Ttl>) -> String {
    match long_ttl {
        Some(ttl) => format!("{}+longttl{}", resolver.label(), ttl),
        None => resolver.label(),
    }
}

/// Configuration of one simulation run: the resolver scheme plus the
/// zone-operator-side long-TTL override and sampling cadence.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Caching-server configuration (refresh / renewal schemes).
    pub resolver: ResolverConfig,
    /// Long-TTL override applied to every zone's infrastructure records.
    pub long_ttl: Option<Ttl>,
    /// Occupancy sampling interval (`None` disables sampling).
    pub occupancy_interval: Option<SimDuration>,
    /// How often expired cache entries are purged.
    pub purge_interval: SimDuration,
}

impl SimConfig {
    /// A run with the given resolver scheme and default cadences.
    pub fn new(resolver: ResolverConfig) -> Self {
        SimConfig {
            resolver,
            long_ttl: None,
            occupancy_interval: None,
            purge_interval: SimDuration::from_hours(6),
        }
    }

    /// Applies the operator-side long-TTL scheme.
    pub fn long_ttl(mut self, ttl: Ttl) -> Self {
        self.long_ttl = Some(ttl);
        self
    }

    /// Enables occupancy sampling every `interval`.
    pub fn occupancy_every(mut self, interval: SimDuration) -> Self {
        self.occupancy_interval = Some(interval);
        self
    }

    /// Human-readable scheme label (`refresh+A-LFU_3+longttl3d`, …); see
    /// [`scheme_label`].
    pub fn label(&self) -> String {
        scheme_label(&self.resolver, self.long_ttl)
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Summary of one finished run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme label.
    pub scheme: String,
    /// Trace label.
    pub trace: String,
    /// Final counters.
    pub metrics: ResolverMetrics,
    /// Occupancy series (empty unless sampling was enabled).
    pub occupancy: Vec<OccupancySample>,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}: {}", self.scheme, self.trace, self.metrics)
    }
}

/// Where replayed queries come from: a [`QueryStream`] pulled with a
/// lookahead of exactly one event — `O(1)` replay memory for a
/// generated stream at any trace length — plus, optionally, an
/// adversary flood merged in by time (see [`Simulation::set_adversary`]).
struct Feed {
    stream: Box<dyn QueryStream>,
    /// The next undelivered stream event (bounded lookahead of one).
    next: Option<QueryEvent>,
    /// Events delivered since the trace start, adversary events
    /// included; forks carry it on.
    pulled: u64,
    flood: Option<Peekable<AdversaryEvents>>,
    /// Events the flood emits in total.
    flood_total: u64,
}

impl Feed {
    fn new(mut stream: Box<dyn QueryStream>) -> Self {
        let next = stream.next_event();
        Feed {
            stream,
            next,
            pulled: 0,
            flood: None,
            flood_total: 0,
        }
    }

    /// An independent copy at the same position.
    fn fork(&self) -> Feed {
        Feed {
            stream: self.stream.fork(),
            next: self.next.clone(),
            pulled: self.pulled,
            flood: self.flood.clone(),
            flood_total: self.flood_total,
        }
    }

    /// Timestamp of the next event, if any.
    fn peek_at(&mut self) -> Option<SimTime> {
        let base = self.next.as_ref().map(|q| q.at);
        let flood = self.flood.as_mut().and_then(|f| f.peek()).map(|q| q.at);
        base.into_iter().chain(flood).min()
    }

    /// Delivers the next event if it is due before `until`: events in
    /// time order, stream events first on ties.
    fn pop_before(&mut self, until: SimTime) -> Option<QueryEvent> {
        let next = &self.next;
        let due = |q: &QueryEvent| q.at < until && next.as_ref().is_none_or(|b| q.at < b.at);
        let event = match self.flood.as_mut().and_then(|f| f.next_if(due)) {
            Some(q) => q,
            None => {
                if self.next.as_ref().is_none_or(|q| q.at >= until) {
                    return None;
                }
                std::mem::replace(&mut self.next, self.stream.next_event())?
            }
        };
        self.pulled += 1;
        Some(event)
    }
}

impl fmt::Debug for Feed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Feed")
            .field("trace", &self.stream.trace_name())
            .field("pulled", &self.pulled)
            .finish_non_exhaustive()
    }
}

/// A deterministic trace replay: one caching server resolving a trace's
/// queries against the universe's server farm, with renewal timers firing
/// between queries.
///
/// Replay can be paused at any virtual time ([`Simulation::run_until`])
/// and forked ([`Simulation::fork`]); the attack-duration sweeps share a
/// single warmed-up simulation this way. Forks deep-copy the caching
/// server ([`CachingServer::fork`]) and fork the query stream
/// ([`QueryStream::fork`]); the type is not `Clone`, so no copy can share
/// its cache with the original.
///
/// Queries come from one boxed [`QueryStream`] replayed with a lookahead
/// of one event: a materialized [`Trace`] through [`TraceReplay`]
/// ([`Simulation::new`]), or a generated stream
/// ([`Simulation::shared_streaming`]) that never holds the trace in
/// memory.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    cs: CachingServer,
    net: SimNet,
    feed: Feed,
    now: SimTime,
    occupancy: Vec<OccupancySample>,
    next_occupancy: Option<SimTime>,
    next_purge: SimTime,
    /// Adversary-tagged queries replayed / failed (see
    /// [`ADVERSARY_CLIENT`]); zero without an adversary flood.
    adversary: AdversaryStats,
}

/// Attacker-side accounting for one replay: queries tagged with
/// [`ADVERSARY_CLIENT`] are counted here *in addition to* the resolver's
/// own metrics, so legitimate-traffic failure ratios can be recovered by
/// subtraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Adversary queries replayed.
    pub sent: u64,
    /// Adversary queries whose resolution failed (for NXNS floods this
    /// is nearly all of them — the bombs never resolve).
    pub failed: u64,
}

impl Simulation {
    /// Builds a simulation: materialises the farm (applying any long-TTL
    /// override) and seeds the resolver with the universe's root hints.
    pub fn new(universe: &Universe, trace: Trace, config: SimConfig) -> Self {
        let farm = ServerFarm::build(universe, config.long_ttl);
        let replay = Box::new(TraceReplay::new(trace));
        Simulation::shared_streaming(Arc::new(farm), universe, replay, config)
    }

    /// The constructor behind the sweep engine: replays `stream` over an
    /// already-built farm. The farm is immutable during replay, so
    /// concurrent runs over the same universe share one allocation of it
    /// (farm construction dominates setup cost).
    ///
    /// The caller is responsible for passing a farm built with the same
    /// `long_ttl` as `config` (see [`ServerFarm::build`]); the label and
    /// behaviour diverge otherwise.
    pub fn shared_streaming(
        farm: Arc<ServerFarm>,
        universe: &Universe,
        stream: Box<dyn QueryStream>,
        config: SimConfig,
    ) -> Self {
        let hints = RootHints::new(universe.root_servers().to_vec());
        let cs = CachingServer::new(config.resolver, hints);
        let next_occupancy = config.occupancy_interval.map(|_| SimTime::ZERO);
        let next_purge = SimTime::ZERO + config.purge_interval;
        Simulation {
            config,
            cs,
            net: SimNet::with_shared(farm),
            feed: Feed::new(stream),
            now: SimTime::ZERO,
            occupancy: Vec::new(),
            next_occupancy,
            next_purge,
            adversary: AdversaryStats::default(),
        }
    }

    /// Installs the attack schedule (replacing any previous one).
    pub fn set_attack(&mut self, attack: CompiledAttack) {
        self.net.set_attack(attack);
    }

    /// Enables deterministic random packet loss on the simulated network
    /// (see [`SimNet::set_loss`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn set_loss(&mut self, rate: f64, seed: u64) {
        self.net.set_loss(rate, seed);
    }

    /// Merges `adversary`'s flood over `[start, end)` into the replay
    /// (replacing any previous one), the way [`Simulation::set_attack`]
    /// configures the network: events arrive in time order, trace queries
    /// first on ties. The window should not start before
    /// [`Simulation::now`].
    pub fn set_adversary(&mut self, adversary: &CompiledAdversary, start: SimTime, end: SimTime) {
        self.feed.flood = Some(adversary.events(start, end).peekable());
        self.feed.flood_total = adversary.total_events(start, end);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Resolver counters so far.
    pub fn metrics(&self) -> ResolverMetrics {
        *self.cs.metrics()
    }

    /// The caching server under test.
    pub fn cs(&self) -> &CachingServer {
        &self.cs
    }

    /// Mutable access to the caching server (occupancy sampling advances
    /// cache expiry heaps, so it needs `&mut`).
    pub fn cs_mut(&mut self) -> &mut CachingServer {
        &mut self.cs
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Queries processed so far, adversary events included; a fork
    /// carries its original's count on, so it counts from the trace
    /// start.
    pub fn processed(&self) -> usize {
        self.feed.pulled as usize
    }

    /// Attacker-side accounting: adversary-tagged queries replayed and
    /// failed so far (all zero without an adversary flood).
    pub fn adversary_stats(&self) -> AdversaryStats {
        self.adversary
    }

    /// Occupancy samples collected so far.
    pub fn occupancy(&self) -> &[OccupancySample] {
        &self.occupancy
    }

    /// Drains the Figure-3 gap samples collected so far.
    pub fn take_gap_samples(&mut self) -> Vec<GapSample> {
        self.cs.take_gap_samples()
    }

    /// An independent copy of the warmed-up state continuing from the
    /// same position: the caching server is deep-copied and the query
    /// stream forked — used to sweep attack durations from one warm-up.
    pub fn fork(&self) -> Simulation {
        Simulation {
            config: self.config.clone(),
            cs: self.cs.fork(),
            net: self.net.clone(),
            feed: self.feed.fork(),
            now: self.now,
            occupancy: self.occupancy.clone(),
            next_occupancy: self.next_occupancy,
            next_purge: self.next_purge,
            adversary: self.adversary,
        }
    }

    /// Replays all queries with `at < until`, firing due renewal timers,
    /// occupancy samples and purges in timestamp order, then advances the
    /// clock to `until`. The clock never moves backwards: an `until`
    /// before [`Simulation::now`] replays nothing, fires nothing and
    /// leaves the clock where it is.
    pub fn run_until(&mut self, until: SimTime) {
        if until < self.now {
            return;
        }
        while let Some(event) = self.feed.pop_before(until) {
            let at = event.at;
            self.advance_background(at);
            let outcome = self.cs.resolve(&event.question, at, &mut self.net);
            if event.client == ADVERSARY_CLIENT {
                self.adversary.sent += 1;
                if outcome.is_failure() {
                    self.adversary.failed += 1;
                }
            }
            self.now = at;
        }
        self.advance_background(until);
        self.now = until;
    }

    /// Replays the remainder of the trace: up to 1 s past its `days`
    /// horizon, then on while queries remain (a hand-built trace may run
    /// past its horizon), ending 1 s after the last one. Splitting
    /// [`Simulation::run_until`] this way is exact: background events
    /// fire at their own virtual times either way.
    pub fn run_to_end(&mut self) {
        let mut end = SimTime::from_days(self.feed.stream.days());
        loop {
            self.run_until(end + SimDuration::from_secs(1));
            match self.feed.peek_at() {
                Some(at) => end = at,
                None => return,
            }
        }
    }

    /// Produces the run summary.
    pub fn report(&self) -> SimReport {
        SimReport {
            scheme: self.config.label(),
            trace: self.feed.stream.trace_name().to_string(),
            metrics: self.metrics(),
            occupancy: self.occupancy.clone(),
        }
    }

    /// Fires every background event (renewal, occupancy sample, purge) due
    /// at or before `t`, each at its own virtual time.
    fn advance_background(&mut self, t: SimTime) {
        loop {
            let next_marker = [Some(self.next_purge), self.next_occupancy]
                .into_iter()
                .flatten()
                .filter(|&m| m <= t)
                .min();
            let Some(marker) = next_marker else {
                self.cs.run_renewals_until(t, &mut self.net);
                return;
            };
            self.cs.run_renewals_until(marker, &mut self.net);
            if self.next_occupancy == Some(marker) {
                self.occupancy.push(self.cs.occupancy(marker));
                let interval = self
                    .config
                    .occupancy_interval
                    .expect("sampling enabled if scheduled");
                self.next_occupancy = Some(marker + interval);
            }
            if self.next_purge == marker {
                self.cs.purge(marker);
                self.next_purge = marker + self.config.purge_interval;
            }
        }
    }
}

impl fmt::Display for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation {} on {} at {} ({}/{} queries)",
            self.config.label(),
            self.feed.stream.trace_name(),
            self.now,
            self.feed.pulled,
            self.feed.stream.total_queries() + self.feed.flood_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdversarySpec, AttackScenario};
    use dns_core::{Question, RecordType};
    use dns_resolver::RenewalPolicy;
    use dns_trace::{TraceSpec, UniverseSpec, UniverseTargets};

    fn universe() -> Universe {
        UniverseSpec::small().build(7)
    }

    fn small_trace(u: &Universe) -> Trace {
        TraceSpec::demo().scaled(0.1).generate(u, 5)
    }

    #[test]
    fn replay_processes_every_query() {
        let u = universe();
        let t = small_trace(&u);
        let n = t.queries.len();
        let mut sim = Simulation::new(&u, t, SimConfig::new(ResolverConfig::vanilla()));
        sim.run_to_end();
        assert_eq!(sim.processed(), n);
        assert_eq!(sim.metrics().queries_in, n as u64);
        // Without an attack nothing fails.
        assert_eq!(sim.metrics().failed_in, 0);
    }

    #[test]
    fn run_until_is_incremental() {
        let u = universe();
        let t = small_trace(&u);
        let mut sim = Simulation::new(&u, t, SimConfig::new(ResolverConfig::vanilla()));
        sim.run_until(SimTime::from_days(3));
        let mid = sim.processed();
        assert!(mid > 0);
        sim.run_to_end();
        assert!(sim.processed() > mid);
    }

    #[test]
    fn run_until_never_moves_the_clock_backwards() {
        let u = universe();
        let config = SimConfig::new(ResolverConfig::vanilla());
        let mut sim = Simulation::new(&u, small_trace(&u), config);
        sim.run_until(SimTime::from_days(10));
        let (processed, metrics) = (sim.processed(), sim.metrics());
        // The 7-day trace is spent: both calls lie in the past, so they
        // replay nothing and leave the clock alone.
        sim.run_to_end();
        assert_eq!(sim.now(), SimTime::from_days(10));
        sim.run_until(SimTime::from_days(2));
        assert_eq!(sim.now(), SimTime::from_days(10));
        assert_eq!((sim.processed(), sim.metrics()), (processed, metrics));
    }

    #[test]
    fn deterministic_replay() {
        let u = universe();
        let t = small_trace(&u);
        let run = || {
            let mut sim = Simulation::new(&u, t.clone(), SimConfig::new(ResolverConfig::vanilla()));
            sim.run_to_end();
            sim.metrics()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fork_diverges_independently() {
        let u = universe();
        let t = small_trace(&u);
        let mut sim = Simulation::new(&u, t, SimConfig::new(ResolverConfig::vanilla()));
        sim.run_until(SimTime::from_days(6));
        let mut attacked = sim.fork();
        attacked.set_attack(
            AttackScenario::root_and_tlds(SimTime::from_days(6), SimDuration::from_hours(24))
                .compile(&u),
        );
        sim.run_to_end();
        attacked.run_to_end();
        assert_eq!(sim.metrics().failed_in, 0);
        assert!(attacked.metrics().failed_in > 0);
        assert!(attacked.metrics().failed_in < attacked.metrics().queries_in);
    }

    #[test]
    fn attack_increases_failures_and_schemes_reduce_them() {
        let u = universe();
        let t = small_trace(&u);
        let attack =
            AttackScenario::root_and_tlds(SimTime::from_days(6), SimDuration::from_hours(12));
        let run = |config: SimConfig| {
            let mut sim = Simulation::new(&u, t.clone(), config);
            sim.set_attack(attack.compile(&u));
            sim.run_until(SimTime::from_days(6));
            let before = sim.metrics();
            sim.run_until(SimTime::from_days(6) + SimDuration::from_hours(12));
            let window = sim.metrics() - before;
            window.failed_in_ratio()
        };
        let vanilla = run(SimConfig::new(ResolverConfig::vanilla()));
        let refresh = run(SimConfig::new(ResolverConfig::with_refresh()));
        let combined = run(SimConfig::new(ResolverConfig::with_renewal(
            RenewalPolicy::adaptive_lfu(3),
        ))
        .long_ttl(Ttl::from_days(3)));
        assert!(vanilla > 0.0, "vanilla must fail under attack");
        assert!(refresh <= vanilla, "refresh {refresh} vs vanilla {vanilla}");
        assert!(
            combined < vanilla,
            "combined {combined} vs vanilla {vanilla}"
        );
    }

    /// A trace built by hand: one query per timestamp, for names the
    /// universe serves.
    fn hand_trace(u: &Universe, days: u64, at: &[SimTime]) -> Trace {
        let names = u.query_targets();
        Trace {
            name: "HAND".into(),
            days,
            clients: 1,
            queries: at
                .iter()
                .zip(names)
                .map(|(&at, (name, _))| QueryEvent {
                    at,
                    client: 0,
                    question: Question::new(name, RecordType::A),
                })
                .collect(),
        }
    }

    fn streamed(u: &Universe, config: SimConfig) -> Simulation {
        let farm = Arc::new(ServerFarm::build(u, config.long_ttl));
        let wb = TraceSpec::demo().scaled(0.1).workload();
        let stream = Box::new(wb.stream(UniverseTargets::new(u), 5));
        Simulation::shared_streaming(farm, u, stream, config)
    }

    #[test]
    fn streaming_replay_matches_materialized() {
        let u = universe();
        let t = small_trace(&u);
        let n = t.queries.len();
        let mut mat = Simulation::new(&u, t, SimConfig::new(ResolverConfig::vanilla()));
        mat.run_to_end();

        let mut streamed = streamed(&u, SimConfig::new(ResolverConfig::vanilla()));
        streamed.run_to_end();

        assert_eq!(streamed.processed(), n);
        assert_eq!(mat.metrics(), streamed.metrics());
        assert_eq!(mat.now(), streamed.now());
    }

    #[test]
    fn run_to_end_replays_queries_past_the_horizon() {
        let u = universe();
        let at = [
            SimTime::from_hours(2),
            SimTime::from_days(2),
            SimTime::from_days(3) + SimDuration::from_secs(7),
        ];
        let config = || SimConfig::new(ResolverConfig::vanilla());
        let mut sim = Simulation::new(&u, hand_trace(&u, 1, &at), config());
        sim.run_to_end();
        assert_eq!(sim.processed(), 3);
        assert_eq!(sim.metrics().queries_in, 3);
        assert_eq!(sim.now(), at[2] + SimDuration::from_secs(1));

        let mut sim = Simulation::new(&u, hand_trace(&u, 5, &at), config());
        sim.run_to_end();
        assert_eq!(sim.processed(), 3);
        assert_eq!(sim.now(), SimTime::from_days(5) + SimDuration::from_secs(1));
    }

    #[test]
    fn adversary_events_merge_in_time_order() {
        let u = universe();
        let secs = |s: u64| SimTime::from_secs(s);
        let trace = hand_trace(&u, 1, &[secs(10), secs(20), secs(25), secs(40)]);
        let adversary = AdversarySpec::water_torture(2, 2, 1).compile(&u);
        let (start, end) = (secs(20), secs(23));

        let mut feed = Feed::new(Box::new(TraceReplay::new(trace.clone())));
        feed.flood = Some(adversary.events(start, end).peekable());
        let merged: Vec<QueryEvent> =
            std::iter::from_fn(|| feed.pop_before(SimTime::MAX)).collect();
        let at: Vec<u64> = merged.iter().map(|q| q.at.as_secs()).collect();
        assert_eq!(at, [10, 20, 20, 20, 21, 21, 22, 22, 25, 40]);
        // The trace query comes first on the tie at 20 s.
        assert_ne!(merged[1].client, ADVERSARY_CLIENT);
        let flood: Vec<&QueryEvent> = merged
            .iter()
            .filter(|q| q.client == ADVERSARY_CLIENT)
            .collect();
        assert_eq!(flood.len(), 6);
        assert!(flood.iter().all(|q| q.at >= start && q.at < end));

        let mut sim = Simulation::new(&u, trace, SimConfig::new(ResolverConfig::vanilla()));
        sim.set_adversary(&adversary, start, end);
        sim.run_until(secs(21));
        assert_eq!(sim.adversary_stats().sent, 2);
        assert_eq!(sim.processed(), 4);
        sim.run_to_end();
        assert_eq!(sim.adversary_stats().sent, 6);
        assert_eq!(sim.processed(), 10);
        assert_eq!(sim.metrics().queries_in, 10);
    }

    #[test]
    fn streamed_fork_matches_materialized_fork() {
        let u = universe();
        let attack =
            AttackScenario::root_and_tlds(SimTime::from_days(6), SimDuration::from_hours(24));
        let config = || SimConfig::new(ResolverConfig::vanilla());

        // Warm each replay to the attack, fork it, attack the fork.
        let attacked = |mut warm: Simulation| {
            warm.run_until(SimTime::from_days(6));
            let processed = warm.processed();
            let mut fork = warm.fork();
            assert_eq!(fork.processed(), processed);
            fork.set_attack(attack.compile(&u));
            fork.run_to_end();
            fork
        };
        let mat = attacked(Simulation::new(&u, small_trace(&u), config()));
        let streamed = attacked(streamed(&u, config()));

        assert_eq!(mat.processed(), streamed.processed());
        assert_eq!(mat.metrics(), streamed.metrics());
        assert!(mat.metrics().failed_in > 0);
    }

    #[test]
    fn occupancy_sampling_produces_series() {
        let u = universe();
        let t = small_trace(&u);
        let mut sim = Simulation::new(
            &u,
            t,
            SimConfig::new(ResolverConfig::vanilla()).occupancy_every(SimDuration::from_days(1)),
        );
        sim.run_to_end();
        // Sampled at 0,1,…,7 days.
        assert_eq!(sim.occupancy().len(), 8);
        assert!(sim.occupancy().windows(2).all(|w| w[0].at < w[1].at));
        // Caches fill up over the warm-up.
        assert!(sim.occupancy().last().unwrap().zones > sim.occupancy()[0].zones);
    }

    #[test]
    fn report_carries_labels() {
        let u = universe();
        let t = small_trace(&u);
        let mut sim = Simulation::new(
            &u,
            t,
            SimConfig::new(ResolverConfig::with_refresh()).long_ttl(Ttl::from_days(3)),
        );
        sim.run_until(SimTime::from_days(1));
        let report = sim.report();
        assert_eq!(report.scheme, "refresh+longttl3d");
        assert_eq!(report.trace, "DEMO");
    }
}
