//! The simulation driver: trace replay with interleaved renewal events,
//! occupancy sampling and cache maintenance.

use crate::{CompiledAttack, ServerFarm, SimNet};
use dns_core::{SimDuration, SimTime, Ttl};
use dns_resolver::{
    CachingServer, GapSample, OccupancySample, ResolverConfig, ResolverMetrics, RootHints,
};
use dns_trace::{QueryEvent, QueryStream, Trace, TraceCursor, Universe};
use std::fmt;
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

/// Where replayed queries come from: a materialized [`Trace`] indexed in
/// place, or a [`QueryStream`] pulled with a lookahead of exactly one
/// event — `O(1)` replay memory at any trace length.
#[derive(Debug)]
enum Feed {
    Trace { trace: Arc<Trace>, pos: usize },
    Stream(StreamFeed),
}

struct StreamFeed {
    stream: Box<dyn QueryStream>,
    /// The next undelivered event (bounded lookahead of one).
    next: Option<QueryEvent>,
    /// Stream position *before* `next` — resuming from it regenerates
    /// the buffered event first, so a paused simulation's cursor is
    /// exact.
    cursor: TraceCursor,
    pulled: u64,
}

impl StreamFeed {
    fn new(mut stream: Box<dyn QueryStream>) -> Self {
        let cursor = stream.cursor();
        // Count from the trace start, not the resume point, so a fork
        // resumed mid-trace reports `processed()` like a materialized
        // replay would.
        let pulled = cursor.emitted();
        let next = stream.next_event();
        StreamFeed {
            stream,
            next,
            cursor,
            pulled,
        }
    }
}

impl fmt::Debug for StreamFeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamFeed")
            .field("trace", &self.stream.trace_name())
            .field("pulled", &self.pulled)
            .finish_non_exhaustive()
    }
}

impl Feed {
    /// Timestamp of the next query, if any.
    fn peek_at(&self) -> Option<SimTime> {
        match self {
            Feed::Trace { trace, pos } => trace.queries.get(*pos).map(|q| q.at),
            Feed::Stream(s) => s.next.as_ref().map(|q| q.at),
        }
    }

    /// Delivers the next query.
    fn pop(&mut self) -> Option<QueryEvent> {
        match self {
            Feed::Trace { trace, pos } => {
                let q = trace.queries.get(*pos)?.clone();
                *pos += 1;
                Some(q)
            }
            Feed::Stream(s) => {
                let q = s.next.take()?;
                s.cursor = s.stream.cursor();
                s.next = s.stream.next_event();
                s.pulled += 1;
                Some(q)
            }
        }
    }

    fn name(&self) -> &str {
        match self {
            Feed::Trace { trace, .. } => &trace.name,
            Feed::Stream(s) => s.stream.trace_name(),
        }
    }

    fn days(&self) -> u64 {
        match self {
            Feed::Trace { trace, .. } => trace.days,
            Feed::Stream(s) => s.stream.days(),
        }
    }

    fn processed(&self) -> usize {
        match self {
            Feed::Trace { pos, .. } => *pos,
            Feed::Stream(s) => s.pulled as usize,
        }
    }

    fn total_queries(&self) -> u64 {
        match self {
            Feed::Trace { trace, .. } => trace.queries.len() as u64,
            Feed::Stream(s) => s.stream.total_queries(),
        }
    }

    /// The latest virtual time replay must reach to cover every query
    /// and the full trace horizon. Streamed events never leave the
    /// `days` horizon by construction (hour < days × 24, offset < 1 h).
    fn end_horizon(&self) -> SimTime {
        let horizon = SimTime::from_days(self.days());
        match self {
            Feed::Trace { trace, .. } => trace
                .queries
                .last()
                .map(|q| q.at)
                .unwrap_or(horizon)
                .max(horizon),
            Feed::Stream(_) => horizon,
        }
    }
}

/// A deterministic trace replay: one caching server resolving a trace's
/// queries against the universe's server farm, with renewal timers firing
/// between queries.
///
/// Replay can be paused at any virtual time ([`Simulation::run_until`])
/// and forked ([`Simulation::fork`]); the attack-duration sweeps share a
/// single warmed-up simulation this way. Forks deep-copy the caching
/// server ([`CachingServer::fork`]); the type is not `Clone`, so no copy
/// can share its cache with the original.
///
/// The query source is either a materialized [`Trace`] or a boxed
/// [`QueryStream`] ([`Simulation::shared_streaming`]) replayed with a
/// lookahead of one event; streamed replay never holds the trace in
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
    /// [`crate::adversary::ADVERSARY_CLIENT`]); zero without an
    /// adversary feed.
    adversary: AdversaryStats,
}

/// Attacker-side accounting for one replay: queries tagged with
/// [`crate::adversary::ADVERSARY_CLIENT`] are counted here *in addition
/// to* the resolver's own metrics, so legitimate-traffic failure ratios
/// can be recovered by subtraction.
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
        Simulation::with_farm(farm, universe, trace, config)
    }

    /// Like [`Simulation::new`] but reuses an already-built farm — farm
    /// construction dominates setup cost, so sweeps that run many schemes
    /// over the same universe build each farm once and clone it here.
    ///
    /// The caller is responsible for passing a farm built with the same
    /// `long_ttl` as `config` (see [`ServerFarm::build`]); the label and
    /// behaviour diverge otherwise.
    pub fn with_farm(
        farm: ServerFarm,
        universe: &Universe,
        trace: Trace,
        config: SimConfig,
    ) -> Self {
        Simulation::shared(Arc::new(farm), universe, Arc::new(trace), config)
    }

    /// The zero-copy constructor behind the sweep engine: both the farm
    /// and the trace are immutable during replay, so concurrent runs over
    /// the same universe share one allocation of each instead of cloning.
    ///
    /// As with [`Simulation::with_farm`], the farm must have been built
    /// with the same `long_ttl` as `config`.
    pub fn shared(
        farm: Arc<ServerFarm>,
        universe: &Universe,
        trace: Arc<Trace>,
        config: SimConfig,
    ) -> Self {
        Simulation::build(farm, universe, Feed::Trace { trace, pos: 0 }, config)
    }

    /// Builds a streaming replay: queries are pulled from `stream` one
    /// at a time instead of a materialized trace, so replay memory stays
    /// `O(1)` in trace length (the sweep engine's path to month-long,
    /// million-zone traces).
    pub fn streaming(universe: &Universe, stream: Box<dyn QueryStream>, config: SimConfig) -> Self {
        let farm = ServerFarm::build(universe, config.long_ttl);
        Simulation::shared_streaming(Arc::new(farm), universe, stream, config)
    }

    /// Like [`Simulation::streaming`] over an already-built farm; the
    /// farm must match `config.long_ttl` (see [`Simulation::with_farm`]).
    pub fn shared_streaming(
        farm: Arc<ServerFarm>,
        universe: &Universe,
        stream: Box<dyn QueryStream>,
        config: SimConfig,
    ) -> Self {
        let feed = Feed::Stream(StreamFeed::new(stream));
        Simulation::build(farm, universe, feed, config)
    }

    /// A fresh replay of `feed` by a caching server seeded with the
    /// universe's root hints.
    fn build(farm: Arc<ServerFarm>, universe: &Universe, feed: Feed, config: SimConfig) -> Self {
        let hints = RootHints::new(universe.root_servers().to_vec());
        let cs = CachingServer::new(config.resolver, hints);
        let next_occupancy = config.occupancy_interval.map(|_| SimTime::ZERO);
        let next_purge = SimTime::ZERO + config.purge_interval;
        Simulation {
            config,
            cs,
            net: SimNet::with_shared(farm),
            feed,
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

    /// The materialized trace being replayed (`None` for streaming
    /// replays, which never hold one).
    pub fn trace(&self) -> Option<&Trace> {
        match &self.feed {
            Feed::Trace { trace, .. } => Some(trace),
            Feed::Stream(_) => None,
        }
    }

    /// For a streaming replay, the resumable position of the next
    /// unprocessed query (`None` for materialized replays). Resuming a
    /// stream from this cursor and [`Simulation::fork_streaming`]-ing
    /// continues exactly where this simulation paused.
    pub fn stream_cursor(&self) -> Option<TraceCursor> {
        match &self.feed {
            Feed::Trace { .. } => None,
            Feed::Stream(s) => Some(s.cursor.clone()),
        }
    }

    /// Queries processed so far.
    pub fn processed(&self) -> usize {
        self.feed.processed()
    }

    /// Attacker-side accounting: adversary-tagged queries replayed and
    /// failed so far (all zero unless the feed carries adversary
    /// events).
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

    /// An independent copy sharing the (immutable) trace — used to sweep
    /// attack durations from one warmed-up state.
    ///
    /// # Panics
    ///
    /// Panics on a streaming replay (the stream cannot be cloned); use
    /// [`Simulation::fork_streaming`] with a stream resumed from
    /// [`Simulation::stream_cursor`] instead.
    pub fn fork(&self) -> Simulation {
        let Feed::Trace { trace, pos } = &self.feed else {
            panic!(
                "a streaming simulation cannot be forked in place; resume a stream \
                 from stream_cursor() and call fork_streaming()"
            );
        };
        let feed = Feed::Trace {
            trace: Arc::clone(trace),
            pos: *pos,
        };
        self.fork_onto(feed)
    }

    /// Forks a streaming replay: an independent copy of the warmed-up
    /// state that continues from `stream` — normally one resumed from
    /// [`Simulation::stream_cursor`] so the fork replays exactly the
    /// queries this simulation has not yet processed.
    pub fn fork_streaming(&self, stream: Box<dyn QueryStream>) -> Simulation {
        self.fork_onto(Feed::Stream(StreamFeed::new(stream)))
    }

    /// Forks a materialized replay onto a *different* trace: an
    /// independent copy of the warmed-up state that replays `trace` from
    /// its start (event timestamps are absolute, so the caller passes
    /// the unreplayed tail — typically with adversary events merged in,
    /// see [`crate::adversary::merge_into_tail`]).
    pub fn fork_with_trace(&self, trace: Arc<Trace>) -> Simulation {
        self.fork_onto(Feed::Trace { trace, pos: 0 })
    }

    /// The warmed-up state, deep-copied, continuing from `feed`.
    fn fork_onto(&self, feed: Feed) -> Simulation {
        Simulation {
            config: self.config.clone(),
            cs: self.cs.fork(),
            net: self.net.clone(),
            feed,
            now: self.now,
            occupancy: self.occupancy.clone(),
            next_occupancy: self.next_occupancy,
            next_purge: self.next_purge,
            adversary: self.adversary,
        }
    }

    /// Replays all queries with `at < until`, firing due renewal timers,
    /// occupancy samples and purges in timestamp order, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(at) = self.feed.peek_at() {
            if at >= until {
                break;
            }
            self.advance_background(at);
            let event = self.feed.pop().expect("peeked event exists");
            let outcome = self.cs.resolve(&event.question, at, &mut self.net);
            if event.client == crate::adversary::ADVERSARY_CLIENT {
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

    /// Replays the remainder of the trace.
    pub fn run_to_end(&mut self) {
        self.run_until(self.feed.end_horizon() + SimDuration::from_secs(1));
    }

    /// Produces the run summary.
    pub fn report(&self) -> SimReport {
        SimReport {
            scheme: self.config.label(),
            trace: self.feed.name().to_string(),
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
            self.feed.name(),
            self.now,
            self.feed.processed(),
            self.feed.total_queries()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackScenario;
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

    #[test]
    fn streaming_replay_matches_materialized() {
        let u = universe();
        let t = small_trace(&u);
        let n = t.queries.len();
        let mut mat = Simulation::new(&u, t, SimConfig::new(ResolverConfig::vanilla()));
        mat.run_to_end();

        let wb = TraceSpec::demo().scaled(0.1).workload();
        let stream = Box::new(wb.stream(UniverseTargets::new(&u), 5));
        let mut streamed =
            Simulation::streaming(&u, stream, SimConfig::new(ResolverConfig::vanilla()));
        assert!(streamed.trace().is_none());
        streamed.run_to_end();

        assert_eq!(streamed.processed(), n);
        assert_eq!(mat.metrics(), streamed.metrics());
    }

    #[test]
    fn fork_streaming_from_cursor_matches_materialized_fork() {
        let u = universe();
        let targets = UniverseTargets::new(&u);
        let wb = TraceSpec::demo().scaled(0.1).workload();
        let attack =
            AttackScenario::root_and_tlds(SimTime::from_days(6), SimDuration::from_hours(24));

        // Materialized reference: warm, fork, attack.
        let mut warm = Simulation::new(
            &u,
            small_trace(&u),
            SimConfig::new(ResolverConfig::vanilla()),
        );
        warm.run_until(SimTime::from_days(6));
        let mut attacked = warm.fork();
        attacked.set_attack(attack.compile(&u));
        attacked.run_to_end();

        // Streaming: warm, resume the stream at the paused cursor, fork.
        let stream = Box::new(wb.stream(targets.clone(), 5));
        let mut swarm =
            Simulation::streaming(&u, stream, SimConfig::new(ResolverConfig::vanilla()));
        swarm.run_until(SimTime::from_days(6));
        assert_eq!(swarm.processed(), warm.processed());
        let cursor = swarm.stream_cursor().expect("streaming feed has a cursor");
        assert_eq!(cursor.emitted(), swarm.processed() as u64);
        let mut sattacked = swarm.fork_streaming(Box::new(wb.resume(targets, 5, &cursor)));
        sattacked.set_attack(attack.compile(&u));
        sattacked.run_to_end();

        assert_eq!(attacked.processed(), sattacked.processed());
        assert_eq!(attacked.metrics(), sattacked.metrics());
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
