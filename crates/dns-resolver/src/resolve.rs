//! The caching server: iterative resolution plus the resilience schemes.

use crate::cache::NegativeKind;
use crate::inflight::Flight;
use crate::{
    Credibility, InfraSource, OccupancySample, ResolverConfig, ResolverMetrics, ResolverObs,
    RootHints, ShardedCache, Upstream,
};
use dns_core::{
    Message, Name, Question, RData, Record, RecordType, ResponseKind, RrKey, RrKeyView,
    SimDuration, SimTime, Ttl,
};
use dns_obs::{LogHistogram, TraceEvent, TraceOutcome};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Depth bound for nested resolutions (CNAME targets, out-of-bailiwick NS
/// addresses).
const MAX_RECURSION_DEPTH: usize = 8;
/// Bound on referral steps within a single resolution.
const MAX_REFERRAL_STEPS: usize = 24;
/// Bound on CNAME links followed.
const MAX_CNAME_CHAIN: usize = 8;
/// How long consumed gap tombstones are retained before purging.
const TOMBSTONE_RETENTION: SimDuration = SimDuration::from_days(7);
/// TTL ceiling advertised on stale answers (RFC 8767 §5.2 recommends a
/// small value so clients come back soon after the outage ends).
const STALE_ANSWER_TTL: Ttl = Ttl::from_secs(30);
/// Bound on the names the prefetch predictor tracks; arrivals for new
/// names beyond the bound are not learned (existing state is unaffected).
const PREFETCH_TRACKED_NAMES: usize = 4096;

/// Per-name inter-arrival learner driving the prefetch scheme: it
/// observes the access stream at the resolver's front door and predicts
/// each name's next arrival with an integer EWMA (alpha = 1/4), so a
/// fetch can be issued ahead of expiry when the next access would
/// otherwise miss. Fully deterministic — no randomness, no clocks.
#[derive(Debug, Clone)]
struct PrefetchPredictor {
    /// Arrivals required for a name before predictions fire (floored at
    /// two: one inter-arrival gap needs two observations).
    min_samples: u32,
    states: HashMap<RrKey, PrefetchState>,
}

#[derive(Debug, Clone, Copy)]
struct PrefetchState {
    last_seen: SimTime,
    /// EWMA of inter-arrival seconds.
    ewma_secs: u64,
    samples: u32,
    /// An issued prefetch awaiting classification at the next arrival.
    pending: bool,
}

impl PrefetchPredictor {
    fn new(min_samples: u32) -> Self {
        PrefetchPredictor {
            min_samples: min_samples.max(2),
            states: HashMap::new(),
        }
    }

    /// Records one arrival for `(name, rtype)` at `now`.
    ///
    /// Returns `(verdict, predicted_gap)`: `verdict` classifies a pending
    /// prefetch (`Some(true)` = this arrival was answered fresh from
    /// cache, the prefetch paid off; `Some(false)` = it still missed),
    /// and `predicted_gap` is the EWMA inter-arrival once the name has
    /// enough samples.
    fn observe(
        &mut self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        fresh_hit: bool,
    ) -> (Option<bool>, Option<SimDuration>) {
        let Some(state) = self.states.get_mut(&(name, rtype) as &dyn RrKeyView) else {
            if self.states.len() < PREFETCH_TRACKED_NAMES {
                self.states.insert(
                    RrKey::new(name.clone(), rtype),
                    PrefetchState {
                        last_seen: now,
                        ewma_secs: 0,
                        samples: 1,
                        pending: false,
                    },
                );
            }
            return (None, None);
        };
        let verdict = state.pending.then_some(fresh_hit);
        state.pending = false;
        let gap = now.since(state.last_seen).as_secs();
        state.last_seen = now;
        state.ewma_secs = if state.samples == 1 {
            gap
        } else {
            (state.ewma_secs.saturating_mul(3).saturating_add(gap)) / 4
        };
        state.samples = state.samples.saturating_add(1);
        let predicted =
            (state.samples >= self.min_samples).then(|| SimDuration::from_secs(state.ewma_secs));
        (verdict, predicted)
    }

    /// Marks a prefetch as issued for `(name, rtype)`; the next arrival
    /// classifies it as hit or wasted.
    fn mark_issued(&mut self, name: &Name, rtype: RecordType) {
        if let Some(s) = self.states.get_mut(&(name, rtype) as &dyn RrKeyView) {
            s.pending = true;
        }
    }
}

/// Result of resolving one client query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Positive answer (possibly via a CNAME chain).
    Answer {
        /// The records answering the query, alias links first.
        records: Vec<Record>,
        /// Whether the answer came entirely from cache.
        from_cache: bool,
    },
    /// The name does not exist.
    NxDomain {
        /// Whether served from the negative cache.
        from_cache: bool,
    },
    /// The name exists but has no records of the queried type.
    NoData {
        /// Whether served from the negative cache.
        from_cache: bool,
    },
    /// Resolution failed: no authoritative server could be reached (the
    /// outcome a DDoS attack produces).
    Fail,
}

impl Outcome {
    /// Whether the query failed to resolve.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Fail)
    }

    /// Whether the DNS produced a definitive result (including negative
    /// answers — those are the system *working*).
    pub fn is_success(&self) -> bool {
        !self.is_failure()
    }

    /// Whether the outcome was served entirely from cache.
    pub fn from_cache(&self) -> bool {
        match self {
            Outcome::Answer { from_cache, .. }
            | Outcome::NxDomain { from_cache }
            | Outcome::NoData { from_cache } => *from_cache,
            Outcome::Fail => false,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Answer {
                records,
                from_cache,
            } => {
                write!(
                    f,
                    "answer ({} records{})",
                    records.len(),
                    cache_tag(*from_cache)
                )
            }
            Outcome::NxDomain { from_cache } => write!(f, "nxdomain{}", cache_tag(*from_cache)),
            Outcome::NoData { from_cache } => write!(f, "nodata{}", cache_tag(*from_cache)),
            Outcome::Fail => write!(f, "fail"),
        }
    }
}

fn cache_tag(from_cache: bool) -> &'static str {
    if from_cache {
        ", cached"
    } else {
        ""
    }
}

/// A caching DNS server (the paper's *CS*): iterative resolver, record
/// cache, infrastructure cache and the configured resilience schemes.
///
/// The caches live in a [`ShardedCache`] handle. A server built with
/// [`CachingServer::new`] owns its cache; [`CachingServer::sibling`]
/// builds another server over the same cache (a daemon's worker pool),
/// and [`CachingServer::fork`] deep-copies server and cache (the
/// simulator's window forks). The server is deliberately not `Clone`, so
/// no caller can share a cache by accident.
///
/// See the crate-level documentation for an example and the scheme
/// descriptions.
#[derive(Debug)]
pub struct CachingServer {
    config: ResolverConfig,
    backend: ShardedCache,
    metrics: ResolverMetrics,
    /// Deterministic RNG seeded from [`ResolverConfig::seed`]; drives
    /// query-ID randomization (the anti-spoofing fix — sequential IDs are
    /// trivially predictable off-path) and retry-backoff jitter.
    rng: StdRng,
    /// Latency histogram + optional per-query trace. Never touches
    /// `rng` and never changes resolution behaviour, so enabling it
    /// cannot perturb deterministic experiments.
    obs: ResolverObs,
    /// NS-address fetches charged against the MaxFetch(k) budget during
    /// the current client query; reset on every [`Self::resolve`].
    ns_fetches_used: u32,
    /// Per-name inter-arrival learner for the prefetch scheme; present
    /// only when [`crate::StalePolicy::prefetch_min_samples`] is set, so
    /// the default configuration carries no extra state.
    prefetch: Option<PrefetchPredictor>,
}

impl CachingServer {
    /// Creates a caching server with the given configuration and root
    /// hints over a cache of its own with `config.shards` shards.
    pub fn new(config: ResolverConfig, hints: RootHints) -> Self {
        let cache = ShardedCache::with_shards(config.shards);
        CachingServer::with_backend(config, hints, cache)
    }

    /// Creates a caching server over an explicit cache handle, installs
    /// the root hints into it and applies the configuration's cache knobs
    /// (negative-cache budget, inflight cap, stale retention).
    pub fn with_backend(config: ResolverConfig, hints: RootHints, backend: ShardedCache) -> Self {
        backend.infra().install_root_hints(hints.servers());
        // Apply flood-defense knobs only when set: an off policy leaves the
        // backend exactly as the pinned transcripts expect.
        if !config.defense.is_off() {
            let d = config.defense;
            backend.set_negative_budget(
                d.neg_cache_max_entries.map(|n| n as usize),
                d.neg_cache_max_bytes.map(|b| b as usize),
            );
            backend.set_zone_inflight_cap(d.zone_inflight_cap);
        }
        // Serve-stale retains expired entries for exactly the window they
        // may still be served in; off leaves the eviction schedule alone.
        if let Some(window) = config.stale.max_stale {
            backend.set_stale_retention(Some(window));
        }
        CachingServer::over(config, backend)
    }

    /// A fresh server over `backend` as it stands: counters, RNG,
    /// observability and prefetch state all start from `config`.
    fn over(config: ResolverConfig, backend: ShardedCache) -> Self {
        let prefetch = config
            .stale
            .prefetch_min_samples
            .map(PrefetchPredictor::new);
        let rng = StdRng::seed_from_u64(config.seed);
        CachingServer {
            config,
            backend,
            metrics: ResolverMetrics::default(),
            rng,
            obs: ResolverObs::new(),
            ns_fetches_used: 0,
            prefetch,
        }
    }

    /// Another server over this server's cache — shared, not copied —
    /// with the same configuration but `seed`, and fresh counters,
    /// observability and prefetch state. The cache is already set up, so
    /// the root hints are not installed again (that would overwrite the
    /// cached root entry). A daemon's worker pool runs one sibling per
    /// worker.
    pub fn sibling(&self, seed: u64) -> CachingServer {
        let config = self.config.to_builder().seed(seed).build();
        CachingServer::over(config, self.backend.clone())
    }

    /// An independent deep copy: the cache is [`ShardedCache::fork`]ed
    /// and everything else — counters, RNG state, observability, the
    /// prefetch learner — copied, so the fork resolves exactly as this
    /// server would have from here on.
    pub fn fork(&self) -> CachingServer {
        CachingServer {
            config: self.config,
            backend: self.backend.fork(),
            metrics: self.metrics,
            rng: self.rng.clone(),
            obs: self.obs.clone(),
            ns_fetches_used: self.ns_fetches_used,
            prefetch: self.prefetch.clone(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn metrics(&self) -> &ResolverMetrics {
        &self.metrics
    }

    /// The cache handle (reads through `with_record`/`with_infra`, the
    /// shard and coalescing registry).
    pub fn backend(&self) -> &ShardedCache {
        &self.backend
    }

    /// Drains the Figure-3 gap samples collected so far.
    pub fn take_gap_samples(&mut self) -> Vec<crate::infra::GapSample> {
        self.backend.infra().take_gap_samples()
    }

    /// Negative-cache entries currently stored (flood-pressure
    /// introspection for experiments and tests).
    pub fn negative_entries(&self) -> usize {
        self.backend.negative_entries()
    }

    /// Observability state: latency histogram and optional trace.
    pub fn obs(&self) -> &ResolverObs {
        &self.obs
    }

    /// Mutable observability state (enable tracing, swap the latency
    /// model).
    pub fn obs_mut(&mut self) -> &mut ResolverObs {
        &mut self.obs
    }

    /// Modelled resolution-latency histogram (virtual milliseconds),
    /// one sample per [`CachingServer::resolve`] call.
    pub fn latency_histogram(&self) -> &LogHistogram {
        self.obs.latency_histogram()
    }

    /// Records a trace event if tracing is enabled; the closure runs
    /// only in that case, so disabled tracing costs a branch.
    #[inline]
    fn trace_push(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.obs.trace_mut() {
            t.push(event());
        }
    }

    /// Resolves one client query at virtual time `now`.
    ///
    /// This is the entry point the simulator drives with stub-resolver
    /// queries; it updates [`ResolverMetrics`] (`queries_in`, `failed_in`,
    /// `cache_hits`, …).
    pub fn resolve<U: Upstream>(
        &mut self,
        question: &Question,
        now: SimTime,
        up: &mut U,
    ) -> Outcome {
        self.metrics.queries_in += 1;
        self.ns_fetches_used = 0;
        if let Some(t) = self.obs.trace_mut() {
            t.begin();
            t.push(TraceEvent::Query {
                qname: question.name.clone(),
                rtype: question.rtype,
                at: now,
            });
        }
        let before = (
            self.metrics.queries_out,
            self.metrics.failed_out,
            self.metrics.backoff_wait_ms,
        );
        let mut outcome = self.lookup_or_fetch(question, now, up, 0);
        // RFC 8767 fallback: the failed demand fetch above doubles as the
        // (coalesced) refresh attempt; if an expired record is still
        // inside the serve-stale window, answer with it instead.
        if outcome.is_failure() && self.config.stale.max_stale.is_some() {
            if let Some(stale) = self.serve_stale(question, now) {
                outcome = stale;
            }
        }
        if outcome.is_failure() {
            self.metrics.failed_in += 1;
        } else if outcome.from_cache() {
            self.metrics.cache_hits += 1;
        }
        if matches!(outcome, Outcome::NxDomain { .. } | Outcome::NoData { .. }) {
            self.metrics.negative_answers += 1;
        }
        // Model this resolution's latency from the upstream work it did
        // (see `LatencyModel`); pure cache hits cost 0 ms.
        let latency_ms = self.obs.latency_model().latency_ms(
            self.metrics.queries_out - before.0,
            self.metrics.failed_out - before.1,
            self.metrics.backoff_wait_ms - before.2,
        );
        self.obs.record_latency(latency_ms);
        self.trace_push(|| TraceEvent::Outcome {
            outcome: match outcome {
                Outcome::Answer { .. } => TraceOutcome::Answer,
                Outcome::NxDomain { .. } => TraceOutcome::NxDomain,
                Outcome::NoData { .. } => TraceOutcome::NoData,
                Outcome::Fail => TraceOutcome::Fail,
            },
            from_cache: outcome.from_cache(),
            latency_ms,
        });
        // Background maintenance (proactive refresh, learned prefetch)
        // runs after the latency sample: its upstream work keeps hot
        // entries warm but is not part of what this client waited for.
        if !self.config.stale.is_off() {
            self.stale_followups(question, &outcome, now, up);
        }
        outcome
    }

    /// Convenience: resolve `name`'s `A` record.
    pub fn resolve_a<U: Upstream>(&mut self, name: &Name, now: SimTime, up: &mut U) -> Outcome {
        self.resolve(&Question::new(name.clone(), RecordType::A), now, up)
    }

    /// Earliest absolute expiry among the cache entries that currently
    /// answer `question` from cache, following cached CNAME links exactly
    /// like resolution does. `None` when the cache cannot (fully) answer.
    ///
    /// This bounds the lifetime of any response *compiled* from those
    /// entries — the daemon's pre-serialized wire cache keys its
    /// invalidation on it, so patched-TTL replays never outlive the
    /// records they were built from.
    pub fn answer_expiry(&mut self, question: &Question, now: SimTime) -> Option<SimTime> {
        let mut qname = question.name.clone();
        let mut chain_min: Option<SimTime> = None;
        for _ in 0..MAX_CNAME_CHAIN {
            if let Some(expiry) = self.backend.record_expiry(&qname, question.rtype, now) {
                return Some(chain_min.map_or(expiry, |m| m.min(expiry)));
            }
            if question.rtype == RecordType::Cname {
                return None;
            }
            let link = self
                .backend
                .with_record(&qname, RecordType::Cname, now, |e| {
                    e.and_then(|entry| match entry.set.rdatas().first() {
                        Some(RData::Cname(t)) => Some((entry.expires_at, t.clone())),
                        _ => None,
                    })
                });
            let (expiry, target) = link?;
            chain_min = Some(chain_min.map_or(expiry, |m| m.min(expiry)));
            qname = target;
        }
        None
    }

    /// Earliest pending renewal instant, if the renewal scheme is active
    /// and any cached zone holds credit.
    pub fn next_renewal_due(&mut self) -> Option<SimTime> {
        self.config.renewal?;
        self.backend.infra().peek_renewal_due()
    }

    /// Executes every renewal due at or before `upto`, each at its own due
    /// time. Returns the number of renewal fetches attempted.
    pub fn run_renewals_until<U: Upstream>(&mut self, upto: SimTime, up: &mut U) -> usize {
        if self.config.renewal.is_none() {
            return 0;
        }
        let mut attempted = 0;
        loop {
            // Pop under a lock released before the exchange below.
            let next = self.backend.infra().next_renewal_due(upto);
            let Some((due, zone)) = next else {
                break;
            };
            let Some(entry) = self.backend.infra().consume_renewal_credit(&zone) else {
                continue;
            };
            attempted += 1;
            self.metrics.renewals_sent += 1;
            let addrs: Vec<Ipv4Addr> = entry.server_addrs().collect();
            let question = Question::new(zone.clone(), RecordType::Ns);
            let renewed = match self.exchange(&addrs, &question, due, up) {
                Some((resp, _)) => {
                    self.harvest_response(&resp, &zone, due, false);
                    let ok = resp.kind() == ResponseKind::Answer;
                    if ok {
                        self.metrics.renewals_ok += 1;
                    }
                    ok
                }
                None => false,
            };
            self.trace_push(|| TraceEvent::Renewal {
                zone: zone.clone(),
                ok: renewed,
            });
        }
        attempted
    }

    /// Point-in-time cache occupancy (Figure 12's series). Takes `&mut`
    /// because sampling advances the caches' expiry heaps; `now` must not
    /// move backwards across calls.
    pub fn occupancy(&mut self, now: SimTime) -> OccupancySample {
        let (zones, infra_records) = {
            let mut infra = self.backend.infra();
            (infra.fresh_zone_count(now), infra.fresh_record_count(now))
        };
        OccupancySample {
            at: now,
            zones,
            infra_records,
            data_rrsets: self.backend.data_fresh_rrsets(now),
            data_records: self.backend.data_fresh_records(now),
        }
    }

    /// Evicts expired cache entries and aged-out tombstones.
    pub fn purge(&mut self, now: SimTime) {
        self.backend.purge_data(now);
        self.backend
            .infra()
            .purge_tombstones(now, TOMBSTONE_RETENTION);
    }

    // ------------------------------------------------------------------
    // Serve-stale, proactive refresh and prefetch
    // ------------------------------------------------------------------

    /// Serves an expired entry inside the `max_stale` window after a
    /// failed demand fetch. The advertised TTL is clamped to
    /// [`STALE_ANSWER_TTL`] and never exceeds the record's original TTL.
    fn serve_stale(&mut self, question: &Question, now: SimTime) -> Option<Outcome> {
        let window = self.config.stale.max_stale?;
        let hit = self
            .backend
            .with_stale_record(&question.name, question.rtype, now, |e| {
                e.map(|e| (e.expires_at, e.set.clone()))
            });
        let (expired_at, set) = hit?;
        if now >= expired_at + window {
            // Retained by the cache's lazy eviction, but aged past the
            // window this policy allows: refuse, and say so.
            self.metrics.stale_expired_unserved += 1;
            return None;
        }
        let ttl = set.ttl().min(STALE_ANSWER_TTL);
        let records = set.with_ttl(ttl).to_records();
        self.metrics.stale_served += 1;
        self.trace_push(|| TraceEvent::StaleServed { expired_at });
        Some(Outcome::Answer {
            records,
            from_cache: true,
        })
    }

    /// Post-answer maintenance for the stale policy: proactive refresh of
    /// entries that consumed their TTL fraction, then the learned
    /// prefetch tick. Runs outside the latency sample.
    fn stale_followups<U: Upstream>(
        &mut self,
        question: &Question,
        outcome: &Outcome,
        now: SimTime,
        up: &mut U,
    ) {
        if let Some(pct) = self.config.stale.proactive_percent {
            // Decoupled update timing: a fresh entry past `pct`% of its
            // TTL is re-fetched now, so its expiry is pushed out before
            // any client sees a miss. The re-fetch lands at equal
            // credibility, which refreshes the entry's expiry, so the
            // next hit sits below the threshold — self-limiting.
            let due = self
                .backend
                .with_record(&question.name, question.rtype, now, |e| {
                    e.is_some_and(|e| {
                        let ttl = u64::from(e.set.ttl().as_secs());
                        let remaining = e.expires_at.since(now).as_secs();
                        ttl > 0
                            && remaining.saturating_mul(100)
                                <= ttl.saturating_mul(100u64.saturating_sub(u64::from(pct)))
                    })
                });
            if due {
                self.metrics.refresh_ahead += 1;
                let _ = self.fetch(question, now, up, 0);
            }
        }
        if let Some(mut pred) = self.prefetch.take() {
            let fresh_hit = matches!(
                outcome,
                Outcome::Answer {
                    from_cache: true,
                    ..
                }
            );
            let (verdict, predicted) = pred.observe(&question.name, question.rtype, now, fresh_hit);
            match verdict {
                Some(true) => self.metrics.prefetch_hits += 1,
                Some(false) => self.metrics.prefetch_wasted += 1,
                None => {}
            }
            if let Some(gap) = predicted {
                let expiry = self
                    .backend
                    .with_record(&question.name, question.rtype, now, |e| {
                        e.map(|e| e.expires_at)
                    });
                // Prefetch when the predicted next arrival would miss.
                if expiry.is_some_and(|expires_at| now + gap >= expires_at) {
                    pred.mark_issued(&question.name, question.rtype);
                    self.metrics.prefetch_issued += 1;
                    let _ = self.fetch(question, now, up, 0);
                }
            }
            self.prefetch = Some(pred);
        }
    }

    // ------------------------------------------------------------------
    // Resolution internals
    // ------------------------------------------------------------------

    fn lookup_or_fetch<U: Upstream>(
        &mut self,
        question: &Question,
        now: SimTime,
        up: &mut U,
        depth: usize,
    ) -> Outcome {
        if depth > MAX_RECURSION_DEPTH {
            return Outcome::Fail;
        }

        // Negative cache.
        if let Some(kind) = self.backend.negative(&question.name, question.rtype, now) {
            self.trace_push(|| TraceEvent::NegativeCacheHit);
            return match kind {
                NegativeKind::NxDomain => Outcome::NxDomain { from_cache: true },
                NegativeKind::NoData => Outcome::NoData { from_cache: true },
            };
        }

        // Positive cache, following cached CNAME links.
        let mut chain: Vec<Record> = Vec::new();
        let mut qname = question.name.clone();
        for _ in 0..MAX_CNAME_CHAIN {
            let hit = self.backend.with_record(&qname, question.rtype, now, |e| {
                e.map(|e| e.set.to_records())
            });
            if let Some(recs) = hit {
                let mut records = chain;
                records.extend(recs);
                self.trace_push(|| TraceEvent::CacheHit);
                return Outcome::Answer {
                    records,
                    from_cache: true,
                };
            }
            if question.rtype == RecordType::Cname {
                break;
            }
            let link = self
                .backend
                .with_record(&qname, RecordType::Cname, now, |e| {
                    e.and_then(|entry| match entry.set.rdatas().first() {
                        Some(RData::Cname(t)) => Some((entry.set.to_records(), t.clone())),
                        _ => None,
                    })
                });
            let Some((link_records, target)) = link else {
                break;
            };
            chain.extend(link_records);
            qname = target;
        }

        // Cache cannot answer: walk the hierarchy for `qname` (the end of
        // any cached alias chain). Top-level misses go through the
        // cache's single-flight gate when coalescing is enabled; nested
        // resolutions never wait on a flight (a leader blocking on another
        // leader could deadlock).
        self.trace_push(|| TraceEvent::CacheMiss);
        let tail = Question::new(qname, question.rtype);
        let outcome = if depth == 0 && self.config.coalesce {
            self.coalesced_fetch(&tail, now, up)
        } else {
            self.fetch(&tail, now, up, depth)
        };
        match outcome {
            Outcome::Answer { records, .. } if !chain.is_empty() => {
                chain.extend(records);
                Outcome::Answer {
                    records: chain,
                    from_cache: false,
                }
            }
            other => other,
        }
    }

    /// Fetches under the cache's single-flight gate: either this
    /// resolution leads (performs the fetch and publishes the outcome for
    /// followers) or it shares an already-open flight's outcome.
    ///
    /// A leader re-probes both caches before going upstream: between this
    /// thread's cache miss and winning the lead, the *previous* leader may
    /// have published and populated the caches, and fetching again would
    /// defeat the coalescing the herd is counting on.
    fn coalesced_fetch<U: Upstream>(
        &mut self,
        question: &Question,
        now: SimTime,
        up: &mut U,
    ) -> Outcome {
        let token = match self.backend.begin_flight(&question.name, question.rtype) {
            Flight::Shared(outcome) => return outcome,
            Flight::Lead(token) => token,
            Flight::Suppressed => {
                // The target zone's inflight cap is exhausted: fail fast
                // without upstream work so a flood against one victim zone
                // cannot monopolize the worker pool.
                self.metrics.flood_suppressed += 1;
                return Outcome::Fail;
            }
        };
        if let Some(kind) = self.backend.negative(&question.name, question.rtype, now) {
            let outcome = match kind {
                NegativeKind::NxDomain => Outcome::NxDomain { from_cache: true },
                NegativeKind::NoData => Outcome::NoData { from_cache: true },
            };
            token.publish(&outcome);
            return outcome;
        }
        let cached = self
            .backend
            .with_record(&question.name, question.rtype, now, |e| {
                e.map(|e| e.set.to_records())
            });
        if let Some(records) = cached {
            let outcome = Outcome::Answer {
                records,
                from_cache: true,
            };
            token.publish(&outcome);
            return outcome;
        }
        let outcome = self.fetch(question, now, up, 0);
        token.publish(&outcome);
        outcome
    }

    /// Iterative resolution over the network, starting from the deepest
    /// fresh infrastructure entry.
    fn fetch<U: Upstream>(
        &mut self,
        question: &Question,
        now: SimTime,
        up: &mut U,
        depth: usize,
    ) -> Outcome {
        let start = self
            .backend
            .infra()
            .deepest_usable_ancestor(&question.name, now, self.config.parent_recheck)
            .map(|e| e.zone.clone());
        let Some(start) = start else {
            self.trace_push(|| TraceEvent::NoInfra);
            return Outcome::Fail;
        };
        self.trace_push(|| TraceEvent::InfraStart {
            zone: start.clone(),
        });

        let mut zone = start;
        for _ in 0..MAX_REFERRAL_STEPS {
            let addrs = self.addresses_for(&zone, now, up, depth);
            if addrs.is_empty() {
                return Outcome::Fail;
            }
            let Some((resp, responder)) = self.exchange(&addrs, question, now, up) else {
                return Outcome::Fail;
            };
            // Prefer the responsive server next time instead of re-paying
            // timeouts on dead ones ahead of it in the list.
            if Some(responder) != addrs.first().copied() {
                self.backend.infra().promote_address(&zone, responder);
            }
            self.harvest_response(&resp, &zone, now, true);

            match resp.kind() {
                ResponseKind::Answer => return self.finish_answer(&resp, question, now, up, depth),
                ResponseKind::Referral => {
                    self.metrics.referrals += 1;
                    let Some(child) = referral_child(&resp, &zone, &question.name) else {
                        return Outcome::Fail; // lame or sideways referral
                    };
                    self.trace_push(|| TraceEvent::Referral {
                        child: child.clone(),
                    });
                    zone = child;
                }
                ResponseKind::NxDomain => {
                    let ttl = self.negative_ttl(&resp);
                    let stored = self.backend.insert_negative(
                        question.name.clone(),
                        question.rtype,
                        NegativeKind::NxDomain,
                        ttl,
                        now,
                    );
                    self.note_negative_pressure(stored);
                    return Outcome::NxDomain { from_cache: false };
                }
                ResponseKind::NoData => {
                    let ttl = self.negative_ttl(&resp);
                    let stored = self.backend.insert_negative(
                        question.name.clone(),
                        question.rtype,
                        NegativeKind::NoData,
                        ttl,
                        now,
                    );
                    self.note_negative_pressure(stored);
                    return Outcome::NoData { from_cache: false };
                }
                ResponseKind::Error(_) => return Outcome::Fail,
            }
        }
        Outcome::Fail
    }

    /// Extracts the final answer from a positive response, chasing any
    /// CNAME chain (within the message, then recursively if the chain
    /// leaves the responding zone).
    fn finish_answer<U: Upstream>(
        &mut self,
        resp: &Message,
        question: &Question,
        now: SimTime,
        up: &mut U,
        depth: usize,
    ) -> Outcome {
        let mut records: Vec<Record> = Vec::new();
        let mut qname = question.name.clone();
        for _ in 0..MAX_CNAME_CHAIN {
            let chain_len = records.len();
            records.extend(
                resp.answers
                    .iter()
                    .filter(|r| r.name() == &qname && r.rtype() == question.rtype)
                    .cloned(),
            );
            if records.len() > chain_len {
                return Outcome::Answer {
                    records,
                    from_cache: false,
                };
            }
            let alias = resp
                .answers
                .iter()
                .find(|r| r.name() == &qname && r.rtype() == RecordType::Cname)
                .cloned();
            match alias {
                Some(rec) => {
                    let target = match rec.rdata() {
                        RData::Cname(t) => t.clone(),
                        _ => return Outcome::Fail,
                    };
                    records.push(rec);
                    qname = target;
                }
                None => break,
            }
        }
        if records.is_empty() {
            // Positive response that doesn't actually answer the question.
            return Outcome::Fail;
        }
        // The chain left the message: resolve the final target.
        let sub = self.lookup_or_fetch(&Question::new(qname, question.rtype), now, up, depth + 1);
        match sub {
            Outcome::Answer { records: tail, .. } => {
                records.extend(tail);
                Outcome::Answer {
                    records,
                    from_cache: false,
                }
            }
            Outcome::NxDomain { .. } => Outcome::NxDomain { from_cache: false },
            Outcome::NoData { .. } => Outcome::NoData { from_cache: false },
            Outcome::Fail => Outcome::Fail,
        }
    }

    /// Addresses for contacting `zone`'s servers, resolving server names
    /// out-of-band when the entry carries no glue.
    fn addresses_for<U: Upstream>(
        &mut self,
        zone: &Name,
        now: SimTime,
        up: &mut U,
        depth: usize,
    ) -> Vec<Ipv4Addr> {
        /// What the infra entry offers for contacting a zone, extracted
        /// under the infra cache's lock.
        enum ZoneServers {
            Unknown,
            Ready(Vec<Ipv4Addr>),
            NeedGlue(Vec<Name>),
        }
        let servers = self.backend.with_infra(zone, |entry| match entry {
            None => ZoneServers::Unknown,
            Some(e) if !e.addrs.is_empty() => ZoneServers::Ready(e.server_addrs().collect()),
            Some(e) => ZoneServers::NeedGlue(e.ns_names.clone()),
        });
        let ns_names = match servers {
            ZoneServers::Unknown => return Vec::new(),
            ZoneServers::Ready(addrs) => return addrs,
            ZoneServers::NeedGlue(ns_names) => ns_names,
        };
        let mut learned: Vec<(Name, Ipv4Addr)> = Vec::new();
        for ns in &ns_names {
            // Cached address?
            let cached = self.backend.with_record(ns, RecordType::A, now, |e| {
                e.map(|e| {
                    e.set
                        .rdatas()
                        .iter()
                        .filter_map(|rd| match rd {
                            RData::A(a) => Some((ns.clone(), *a)),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                })
            });
            if let Some(pairs) = cached {
                learned.extend(pairs);
                continue;
            }
            // Out-of-bailiwick server: resolve its address recursively.
            if depth < MAX_RECURSION_DEPTH {
                // MaxFetch(k): every recursive NS-address fetch charges the
                // per-client-query budget. Once spent, remaining NS names
                // are only served from cache — the query degrades to
                // whatever resolved within budget instead of amplifying a
                // delegation bomb's full fan-out (NXNSAttack defense).
                if let Some(k) = self.config.defense.max_ns_fetch {
                    if self.ns_fetches_used >= k {
                        self.metrics.fetches_clamped += 1;
                        continue;
                    }
                    self.ns_fetches_used += 1;
                }
                if let Outcome::Answer { records, .. } = self.lookup_or_fetch(
                    &Question::new(ns.clone(), RecordType::A),
                    now,
                    up,
                    depth + 1,
                ) {
                    for r in records {
                        if let RData::A(a) = r.rdata() {
                            learned.push((ns.clone(), *a));
                        }
                    }
                }
            }
            if !learned.is_empty() {
                break; // one reachable server is enough to proceed
            }
        }
        self.backend.infra().add_addresses(zone, &learned);
        learned.into_iter().map(|(_, a)| a).collect()
    }

    /// Sends `question` to each address in turn until one answers, then —
    /// under the configured [`crate::RetryPolicy`] — re-walks the list
    /// with exponential, jittered backoff between rounds, up to the
    /// policy's wait budget. Returns the response together with the
    /// responding server.
    ///
    /// Responses are accepted only when both the query ID *and* the echoed
    /// question match the outstanding query: matching on the ID alone
    /// leaves a 1-in-65536 off-path spoofing target, and matching the
    /// question closes the remainder of the window for answers crossed
    /// between concurrent resolutions.
    fn exchange<U: Upstream>(
        &mut self,
        addrs: &[Ipv4Addr],
        question: &Question,
        now: SimTime,
        up: &mut U,
    ) -> Option<(Message, Ipv4Addr)> {
        let policy = self.config.retry;
        let mut waited_ms: u64 = 0;
        for round in 0..policy.rounds() {
            if round > 0 {
                let base = policy.backoff_ms(round - 1);
                let jitter = match policy.max_jitter_ms(base) {
                    0 => 0,
                    max => self.rng.random_range(0..=max),
                };
                let backoff = base + jitter;
                if waited_ms.saturating_add(backoff) > policy.deadline_ms {
                    self.metrics.deadline_exhausted += 1;
                    self.trace_push(|| TraceEvent::DeadlineExhausted);
                    break;
                }
                self.metrics.retries += 1;
                self.metrics.backoff_wait_ms += backoff;
                self.trace_push(|| TraceEvent::Backoff {
                    round: round - 1,
                    wait_ms: backoff,
                });
                up.wait(backoff);
                waited_ms += backoff;
            }
            // Fresh ID per round: a late answer to an earlier round's ID
            // is treated as the stray it is.
            let query = Message::query(self.take_id(), question.clone());
            // The resolver is clock-free; surface the waited time to the
            // upstream as an advanced virtual `now` (whole seconds).
            let vnow = now + SimDuration::from_secs(waited_ms / 1_000);
            for &addr in addrs {
                self.metrics.queries_out += 1;
                self.trace_push(|| TraceEvent::UpstreamSend { server: addr });
                match up.query(addr, &query, vnow) {
                    Some(resp) if response_matches(&query, &resp) => {
                        self.trace_push(|| TraceEvent::UpstreamResponse {
                            server: addr,
                            kind: resp.kind(),
                        });
                        return Some((resp, addr));
                    }
                    Some(_) => {
                        self.metrics.mismatched_responses += 1;
                        self.metrics.failed_out += 1;
                        self.trace_push(|| TraceEvent::UpstreamMismatch { server: addr });
                    }
                    None => {
                        self.metrics.failed_out += 1;
                        self.trace_push(|| TraceEvent::UpstreamTimeout { server: addr });
                    }
                }
            }
        }
        None
    }

    /// Caches every usable record in a response and maintains the
    /// infrastructure cache (installs, refreshes, credit).
    ///
    /// `demand` marks client-driven traffic: only demand responses grant
    /// renewal credit (a renewal re-fetch must not refill its own budget).
    fn harvest_response(
        &mut self,
        resp: &Message,
        zone_queried: &Name,
        now: SimTime,
        demand: bool,
    ) {
        if demand {
            let policy = self.config.renewal;
            self.backend
                .infra()
                .record_use(zone_queried, now, policy.as_ref());
        }

        // Answer section → record cache (authoritative data only). Its NS
        // sets go to the infrastructure cache below.
        if resp.header.authoritative {
            for set in section_rrsets(&resp.answers) {
                if set.rtype() == RecordType::Ns || !set.name().is_subdomain_of(zone_queried) {
                    continue; // infrastructure, or out of bailiwick
                }
                self.backend.insert_record(
                    set.name(),
                    set.rtype(),
                    set.ttl.min(self.config.ttl_cap),
                    set.rdatas(),
                    now,
                    Credibility::AuthAnswer,
                );
            }
        }

        // Additional section → glue addresses (low credibility).
        for set in section_rrsets(&resp.additionals) {
            if !matches!(set.rtype(), RecordType::A | RecordType::Aaaa)
                || !set.name().is_subdomain_of(zone_queried)
            {
                continue;
            }
            self.backend.insert_record(
                set.name(),
                set.rtype(),
                set.ttl.min(self.config.ttl_cap),
                set.rdatas(),
                now,
                Credibility::Additional,
            );
        }

        // NS sets (authority section, and answer section for explicit NS
        // queries such as renewals) → infrastructure cache.
        let source = if resp.header.authoritative {
            InfraSource::Child
        } else {
            InfraSource::Parent
        };
        let answer_ns: &[Record] = if resp.header.authoritative {
            &resp.answers
        } else {
            &[]
        };
        let ns_sets = section_rrsets(&resp.authorities)
            .chain(section_rrsets(answer_ns))
            .filter(|set| set.rtype() == RecordType::Ns);
        for set in ns_sets {
            let owner = set.name();
            if !owner.is_subdomain_of(zone_queried) {
                continue;
            }
            let ns_names = set.rdatas().filter_map(|rd| match rd {
                RData::Ns(n) => Some(n),
                _ => None,
            });
            // Servers the response carries no address for: fill the gap
            // from the record cache.
            let mut cached: Vec<(Name, Ipv4Addr)> = Vec::new();
            for ns in ns_names.clone() {
                if response_addrs(resp, ns).next().is_none() {
                    self.backend.with_record(ns, RecordType::A, now, |e| {
                        for rd in e.into_iter().flat_map(|e| e.set.rdatas()) {
                            if let RData::A(a) = rd {
                                cached.push((ns.clone(), *a));
                            }
                        }
                    });
                }
            }
            let addrs = ns_names.clone().flat_map(|ns| {
                let filled = cached.iter().filter(move |(n, _)| n == ns);
                response_addrs(resp, ns)
                    .map(move |a| (ns, a))
                    .chain(filled.map(|(n, a)| (n, *a)))
            });
            let installed = self.backend.infra().install(
                owner,
                ns_names,
                addrs,
                set.ttl.min(self.config.ttl_cap),
                now,
                source,
                self.config.refresh,
            );
            if installed == Some(true) && self.config.refresh {
                self.metrics.refreshes += 1;
            }
        }

        // DS records travelling with a referral (signed delegations) are
        // DNSSEC infrastructure records: attach them to the zone entry so
        // the resilience schemes cover them too (paper §6).
        let mut ds_by_owner: HashMap<Name, Vec<(u16, u32)>> = HashMap::new();
        for rec in &resp.authorities {
            if let RData::Ds { key_tag, digest } = rec.rdata() {
                if rec.name().is_subdomain_of(zone_queried) {
                    ds_by_owner
                        .entry(rec.name().clone())
                        .or_default()
                        .push((*key_tag, *digest));
                }
            }
        }
        for (owner, ds) in ds_by_owner {
            self.backend.infra().set_ds(&owner, ds);
        }
    }

    /// Folds a budgeted negative-cache insert's outcome into the flood
    /// counters.
    fn note_negative_pressure(&mut self, out: crate::cache::NegativeInsertOutcome) {
        self.metrics.neg_evictions_pressure += out.evicted_pressure;
        if !out.stored {
            self.metrics.flood_suppressed += 1;
        }
    }

    fn negative_ttl(&self, resp: &Message) -> Ttl {
        resp.authorities
            .iter()
            .find_map(|r| match r.rdata() {
                RData::Soa { minimum, .. } => Some(Ttl::from_secs(*minimum).min(r.ttl())),
                _ => None,
            })
            .unwrap_or(Ttl::from_mins(5))
            .min(self.config.negative_ttl_cap)
    }

    /// A fresh, unpredictable query ID from the seeded RNG.
    fn take_id(&mut self) -> u16 {
        self.rng.random::<u16>()
    }
}

/// Whether `resp` answers `query`: response bit set, IDs equal and the
/// echoed question identical.
fn response_matches(query: &Message, resp: &Message) -> bool {
    resp.header.response && resp.header.id == query.header.id && resp.question() == query.question()
}

/// One RRset of a response section, grouped where it lies: the records
/// sharing the owner and type of the section's record at `records[0]`.
#[derive(Clone, Copy)]
struct SectionRrSet<'a> {
    /// The section from the set's first record on.
    records: &'a [Record],
    /// The minimum TTL across the set's records.
    ttl: Ttl,
}

impl<'a> SectionRrSet<'a> {
    fn name(&self) -> &'a Name {
        self.records[0].name()
    }

    fn rtype(&self) -> RecordType {
        self.records[0].rtype()
    }

    /// Each distinct RDATA once, in order of first appearance.
    fn rdatas(&self) -> impl Iterator<Item = &'a RData> + Clone {
        let (name, rtype) = (self.name(), self.rtype());
        let members = self
            .records
            .iter()
            .filter(move |r| r.rtype() == rtype && r.name() == name)
            .map(Record::rdata);
        members
            .clone()
            .enumerate()
            .filter(move |&(i, rd)| !members.clone().take(i).any(|seen| seen == rd))
            .map(|(_, rd)| rd)
    }
}

/// The RRsets of one response section by (name, type), in order of first
/// appearance. As in [`dns_core::RrSet::from_records`], a set takes the minimum TTL
/// of its records and keeps each distinct RDATA once, in order. Sets
/// borrow the section instead of copying it: each record is compared with
/// the records before it, which one section keeps to a handful.
fn section_rrsets(records: &[Record]) -> impl Iterator<Item = SectionRrSet<'_>> {
    (0..records.len()).filter_map(move |i| {
        let first = &records[i];
        let same = |r: &&Record| r.rtype() == first.rtype() && r.name() == first.name();
        if records[..i].iter().any(|r| same(&r)) {
            return None; // an earlier record opened this set
        }
        let ttl = records[i..].iter().filter(same).map(Record::ttl).min()?;
        Some(SectionRrSet {
            records: &records[i..],
            ttl,
        })
    })
}

/// The addresses `resp` carries for server `ns`: its A records in the
/// additional and then the answer section.
fn response_addrs<'a>(
    resp: &'a Message,
    ns: &'a Name,
) -> impl Iterator<Item = Ipv4Addr> + Clone + 'a {
    resp.additionals
        .iter()
        .chain(&resp.answers)
        .filter(move |r| r.name() == ns)
        .filter_map(|r| match r.rdata() {
            RData::A(a) => Some(*a),
            _ => None,
        })
}

/// From a referral response, the child zone to descend into: the deepest
/// NS owner in the authority section that encloses the query name and is
/// strictly below the zone that answered.
fn referral_child(resp: &Message, zone: &Name, qname: &Name) -> Option<Name> {
    resp.authorities
        .iter()
        .filter(|r| r.rtype() == RecordType::Ns)
        .map(|r| r.name().clone())
        .filter(|owner| qname.is_subdomain_of(owner) && owner.is_proper_subdomain_of(zone))
        .max_by_key(|owner| owner.label_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RetryPolicy, RootHints};
    use dns_core::RrSet;

    /// Upstream where every server is dead; records the query IDs and
    /// backoff waits it sees.
    #[derive(Default)]
    struct DeadRecorder {
        ids: Vec<u16>,
        waits: Vec<u64>,
    }

    impl Upstream for DeadRecorder {
        fn query(&mut self, _server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
            self.ids.push(query.header.id);
            None
        }

        fn wait(&mut self, millis: u64) {
            self.waits.push(millis);
        }
    }

    fn hints() -> RootHints {
        RootHints::new(vec![(
            "a.root-servers.net".parse().unwrap(),
            Ipv4Addr::new(198, 41, 0, 4),
        )])
    }

    fn ids_for_seed(seed: u64) -> Vec<u16> {
        let mut cs = CachingServer::new(ResolverConfig::builder().seed(seed).build(), hints());
        let mut up = DeadRecorder::default();
        for q in ["a.test", "b.test", "c.test", "d.test", "e.test"] {
            let _ = cs.resolve_a(&q.parse().unwrap(), SimTime::ZERO, &mut up);
        }
        up.ids
    }

    #[test]
    fn query_ids_are_randomized_and_seed_deterministic() {
        let a = ids_for_seed(7);
        assert_eq!(a.len(), 5);
        // Not the old sequential 1, 2, 3, … pattern.
        assert!(
            a.windows(2).any(|w| w[1] != w[0].wrapping_add(1)),
            "ids still sequential: {a:?}"
        );
        // Same seed → same stream; different seed → different stream.
        assert_eq!(a, ids_for_seed(7));
        assert_ne!(a, ids_for_seed(8));
    }

    #[test]
    fn retry_policy_drives_backoff_and_metrics() {
        let policy = RetryPolicy {
            attempts: 3,
            initial_backoff_ms: 100,
            backoff_multiplier: 2,
            max_backoff_ms: 1_000,
            jitter_pct: 0,
            deadline_ms: 10_000,
        };
        let config = ResolverConfig::builder().retry(policy).build();
        let mut cs = CachingServer::new(config, hints());
        let mut up = DeadRecorder::default();
        let outcome = cs.resolve_a(&"www.test".parse().unwrap(), SimTime::ZERO, &mut up);
        assert!(outcome.is_failure());
        let m = cs.metrics();
        assert_eq!(m.retries, 2);
        assert_eq!(m.backoff_wait_ms, 300); // 100 + 200
        assert_eq!(m.queries_out, 3); // one root server, three rounds
        assert_eq!(m.failed_out, 3);
        assert_eq!(m.deadline_exhausted, 0);
        assert_eq!(up.waits, vec![100, 200]);
        // Each round uses a fresh ID.
        assert_eq!(up.ids.len(), 3);
        assert!(up.ids[0] != up.ids[1] || up.ids[1] != up.ids[2]);
    }

    #[test]
    fn deadline_budget_caps_cumulative_backoff() {
        let policy = RetryPolicy {
            attempts: 5,
            initial_backoff_ms: 100,
            backoff_multiplier: 2,
            max_backoff_ms: 10_000,
            jitter_pct: 0,
            deadline_ms: 150, // admits the first 100 ms wait, not 100+200
        };
        let config = ResolverConfig::builder().retry(policy).build();
        let mut cs = CachingServer::new(config, hints());
        let mut up = DeadRecorder::default();
        let _ = cs.resolve_a(&"www.test".parse().unwrap(), SimTime::ZERO, &mut up);
        let m = cs.metrics();
        assert_eq!(m.retries, 1);
        assert_eq!(m.backoff_wait_ms, 100);
        assert_eq!(m.deadline_exhausted, 1);
        assert_eq!(up.waits, vec![100]);
        assert_eq!(m.queries_out, 2);
    }

    #[test]
    fn responses_must_match_id_and_question() {
        let q = Message::query(7, Question::new("www.test".parse().unwrap(), RecordType::A));
        let good = Message::response_to(&q);
        assert!(response_matches(&q, &good));

        let mut wrong_id = good.clone();
        wrong_id.header.id = 8;
        assert!(!response_matches(&q, &wrong_id));

        let mut wrong_question = good.clone();
        wrong_question.questions = vec![Question::new("evil.test".parse().unwrap(), RecordType::A)];
        assert!(!response_matches(&q, &wrong_question));

        let mut not_a_response = good.clone();
        not_a_response.header.response = false;
        assert!(!response_matches(&q, &not_a_response));
    }

    #[test]
    fn mismatched_responses_are_counted_and_rejected() {
        /// Answers every query with the right ID but a different question
        /// (a crossed/spoofed answer).
        struct WrongQuestion;
        impl Upstream for WrongQuestion {
            fn query(
                &mut self,
                _server: Ipv4Addr,
                query: &Message,
                _now: SimTime,
            ) -> Option<Message> {
                let mut resp = Message::response_to(query);
                resp.questions = vec![Question::new(
                    "spoofed.test".parse().unwrap(),
                    RecordType::A,
                )];
                Some(resp)
            }
        }
        let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints());
        let outcome = cs.resolve_a(
            &"www.test".parse().unwrap(),
            SimTime::ZERO,
            &mut WrongQuestion,
        );
        assert!(outcome.is_failure());
        assert_eq!(cs.metrics().mismatched_responses, 1);
    }

    #[test]
    fn answer_expiry_tracks_cache_entries_and_cname_chains() {
        let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints());
        let q = Question::new("www.test".parse().unwrap(), RecordType::A);
        assert_eq!(cs.answer_expiry(&q, SimTime::ZERO), None, "cold cache");

        let a = Record::new(
            "www.test".parse().unwrap(),
            Ttl::from_hours(1),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let backend = cs.backend.clone();
        let insert = |rec: &Record| {
            backend.insert_record(
                rec.name(),
                rec.rtype(),
                rec.ttl(),
                [rec.rdata()],
                SimTime::ZERO,
                Credibility::AuthAnswer,
            )
        };
        insert(&a);
        let direct = cs
            .backend
            .record_expiry(&q.name, RecordType::A, SimTime::ZERO)
            .expect("entry just inserted");
        assert_eq!(cs.answer_expiry(&q, SimTime::ZERO), Some(direct));

        // An alias chain reports the minimum expiry across its links: the
        // compiled response dies with its shortest-lived ingredient.
        let cname = Record::new(
            "alias.test".parse().unwrap(),
            Ttl::from_mins(30),
            RData::Cname("www.test".parse().unwrap()),
        );
        insert(&cname);
        let alias_q = Question::new("alias.test".parse().unwrap(), RecordType::A);
        let link = cs
            .backend
            .record_expiry(&alias_q.name, RecordType::Cname, SimTime::ZERO)
            .expect("cname link inserted");
        assert_eq!(
            cs.answer_expiry(&alias_q, SimTime::ZERO),
            Some(direct.min(link))
        );

        // At the expiry instant the entry is gone (exclusive expiry), so
        // the hook reports absence — never a stale bound.
        assert_eq!(cs.answer_expiry(&q, direct), None);
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Fail.is_failure());
        assert!(!Outcome::Fail.is_success());
        assert!(!Outcome::Fail.from_cache());
        let a = Outcome::Answer {
            records: vec![],
            from_cache: true,
        };
        assert!(a.is_success());
        assert!(a.from_cache());
        assert!(Outcome::NxDomain { from_cache: false }.is_success());
    }

    #[test]
    fn group_rrsets_merges_by_key() {
        let n: Name = "x.com".parse().unwrap();
        let w: Name = "w.x.com".parse().unwrap();
        let ns =
            |host: &str, ttl: Ttl| Record::new(n.clone(), ttl, RData::Ns(host.parse().unwrap()));
        let recs = vec![
            ns("a.x.com", Ttl::from_hours(1)),
            Record::new(n.clone(), Ttl::from_hours(1), RData::A(Ipv4Addr::LOCALHOST)),
            // Not adjacent to its set, with a lower TTL.
            ns("b.x.com", Ttl::from_mins(30)),
            Record::new(w.clone(), Ttl::from_hours(2), RData::A(Ipv4Addr::LOCALHOST)),
            // Duplicate RDATA under another TTL.
            ns("a.x.com", Ttl::from_hours(2)),
        ];
        let sets: Vec<RrSet> = section_rrsets(&recs)
            .map(|s| {
                let key = RrKey::new(s.name().clone(), s.rtype());
                RrSet::new(key, s.ttl, s.rdatas().cloned().collect())
            })
            .collect();
        let keys: Vec<(&Name, RecordType)> = sets.iter().map(|s| (s.name(), s.rtype())).collect();
        assert_eq!(
            keys,
            [
                (&n, RecordType::Ns),
                (&n, RecordType::A),
                (&w, RecordType::A)
            ],
            "first-appearance order"
        );
        let ns_set = &sets[0];
        assert_eq!(ns_set.ttl(), Ttl::from_mins(30), "minimum TTL");
        assert_eq!(
            ns_set.rdatas(),
            &[
                RData::Ns("a.x.com".parse().unwrap()),
                RData::Ns("b.x.com".parse().unwrap())
            ],
            "duplicate RDATA kept once"
        );
        // Each set is what `RrSet::from_records` builds from its records.
        for set in &sets {
            let own: Vec<Record> = recs
                .iter()
                .filter(|r| r.name() == set.name() && r.rtype() == set.rtype())
                .cloned()
                .collect();
            assert_eq!(Some(set), RrSet::from_records(&own).as_ref());
        }
    }

    #[test]
    fn referral_child_picks_deepest_enclosing_owner() {
        let mut resp = Message::default();
        let add_ns = |resp: &mut Message, owner: &str| {
            resp.authorities.push(Record::new(
                owner.parse().unwrap(),
                Ttl::from_hours(1),
                RData::Ns("ns.x".parse().unwrap()),
            ));
        };
        add_ns(&mut resp, "edu");
        add_ns(&mut resp, "ucla.edu");
        let zone = Name::root();
        let qname: Name = "www.ucla.edu".parse().unwrap();
        assert_eq!(
            referral_child(&resp, &zone, &qname),
            Some("ucla.edu".parse().unwrap())
        );
        // Sideways referral (owner not enclosing qname) is rejected.
        let other: Name = "www.mit.edu".parse().unwrap();
        let child = referral_child(&resp, &zone, &other);
        assert_eq!(child, Some("edu".parse().unwrap()));
        // Referral not below the answering zone is rejected.
        let deep_zone: Name = "ucla.edu".parse().unwrap();
        assert_eq!(referral_child(&resp, &deep_zone, &qname), None);
    }
}
