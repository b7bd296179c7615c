//! The resolver's cache: lock-sharded record caches, the infrastructure
//! cache and single-flight coalescing behind one handle.
//!
//! A [`ShardedCache`] is a clonable handle (`Arc` inside). Cloning shares
//! the cache, so the [`crate::CachingServer`]s of a daemon's worker pool —
//! one per worker thread — resolve against one cache, while
//! [`ShardedCache::fork`] deep-copies it for the simulator's window
//! forks. The simulator and the daemon therefore run the same cache code;
//! the shard count sets lock granularity, never answers.
//!
//! Data-cache state is split across N shards, each behind its own mutex,
//! selected by an FNV-1a hash of the owner name's canonical suffix bytes
//! (the same bytes [`Name`]'s `Hash` uses, so equal names always land on
//! the same shard regardless of how they were constructed). Lookups and
//! inserts for different names contend only when they collide on a
//! shard; with one shard no hash is computed at all.
//!
//! The infrastructure cache stays behind a single mutex: renewal
//! scheduling, gap sampling and the parent-recheck walk are cross-zone
//! state that sharding would tear apart, and infra traffic is orders of
//! magnitude rarer than data lookups (this mirrors unbound's separate
//! infra cache). Single-flight coalescing lives in an
//! [`InflightTable`](crate::inflight): the first thread to miss on a
//! question fetches; concurrent identical questions block and share the
//! leader's outcome.
//!
//! Reads hand the caller a borrow *inside a closure* (`with_record`,
//! `with_infra`) rather than returning a reference: the shard lock must
//! be released when the read ends, which a returned borrow cannot
//! express. The closure style keeps the borrowed-key `(&Name,
//! RecordType)` probe — no key allocation on the hot path.
//!
//! Each shard keeps its own [`dns_obs::Registry`] so counting a hit never
//! touches another shard's cache line; [`ShardedCache::merged_registry`]
//! folds them into one registry (histograms via
//! [`LogHistogram::merge`](dns_obs::LogHistogram::merge)) for scraping.

use crate::cache::{CacheEntry, Credibility, NegativeInsertOutcome, NegativeKind, RecordCache};
use crate::inflight::{Flight, InflightTable};
use crate::infra::{InfraCache, InfraEntry};
use dns_core::{Name, RData, RecordType, SimDuration, SimTime, Ttl};
use dns_obs::{CounterId, HistId, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One lock-sharded slice of the data cache with its private counters.
#[derive(Debug, Clone)]
struct Shard {
    cache: RecordCache,
    obs: Registry,
    hits: CounterId,
    misses: CounterId,
    negative_hits: CounterId,
    inserts: CounterId,
    occupancy: HistId,
}

impl Shard {
    fn new() -> Self {
        let mut obs = Registry::new();
        let hits = obs.counter("shard_record_hits", "fresh record-cache hits");
        let misses = obs.counter("shard_record_misses", "record-cache misses");
        let negative_hits = obs.counter("shard_negative_hits", "fresh negative-cache hits");
        let inserts = obs.counter("shard_record_inserts", "RRsets stored");
        let occupancy = obs.histogram(
            "shard_fresh_rrsets",
            "fresh RRsets per shard at occupancy samples",
        );
        Shard {
            cache: RecordCache::new(),
            obs,
            hits,
            misses,
            negative_hits,
            inserts,
            occupancy,
        }
    }
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Mutex<Shard>>,
    infra: Mutex<InfraCache>,
    inflight: Arc<InflightTable>,
    /// Fetches led on behalf of a flight (coalescing enabled).
    flights_led: AtomicU64,
    /// Resolutions that shared another thread's in-flight fetch.
    flights_shared: AtomicU64,
}

/// The record, negative and infrastructure caches of a
/// [`crate::CachingServer`], shareable across worker threads.
///
/// Cloning is cheap (an `Arc` bump); every clone observes and mutates the
/// same caches. [`ShardedCache::fork`] makes an independent deep copy.
/// See the module docs for the sharding and single-flight design.
#[derive(Debug, Clone)]
pub struct ShardedCache {
    inner: Arc<Inner>,
}

impl Default for ShardedCache {
    fn default() -> Self {
        ShardedCache::new()
    }
}

impl ShardedCache {
    /// An empty single-shard cache: one lock, no shard hashing.
    pub fn new() -> Self {
        ShardedCache::with_shards(1)
    }

    /// An empty cache with `shards` data-cache shards (minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedCache {
            inner: Arc::new(Inner {
                shards: (0..n).map(|_| Mutex::new(Shard::new())).collect(),
                infra: Mutex::new(InfraCache::new()),
                inflight: Arc::new(InflightTable::default()),
                flights_led: AtomicU64::new(0),
                flights_shared: AtomicU64::new(0),
            }),
        }
    }

    /// An independent deep copy: the shards, the infrastructure cache,
    /// the counters and the per-zone inflight cap are copied, and the
    /// fork starts with no open flights (those belong to the threads
    /// leading them). Mutating either side never shows in the other.
    pub fn fork(&self) -> ShardedCache {
        let inner = &self.inner;
        ShardedCache {
            inner: Arc::new(Inner {
                shards: inner
                    .shards
                    .iter()
                    .map(|s| Mutex::new(s.lock().unwrap().clone()))
                    .collect(),
                infra: Mutex::new(self.infra().clone()),
                inflight: Arc::new(inner.inflight.fork()),
                flights_led: AtomicU64::new(self.flights_led()),
                flights_shared: AtomicU64::new(self.flights_shared()),
            }),
        }
    }

    /// Number of data-cache shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Resolutions that joined another thread's in-flight fetch instead of
    /// going upstream themselves.
    pub fn flights_shared(&self) -> u64 {
        self.inner.flights_shared.load(Ordering::Relaxed)
    }

    /// Fetches performed as a flight's leader.
    pub fn flights_led(&self) -> u64 {
        self.inner.flights_led.load(Ordering::Relaxed)
    }

    /// Folds every shard's registry (counters summed, histograms merged)
    /// plus the coalescing counters into one registry for scraping.
    pub fn merged_registry(&self) -> Registry {
        let mut merged = Registry::new();
        for shard in &self.inner.shards {
            merged.merge(&shard.lock().unwrap().obs);
        }
        let led = merged.counter(
            "singleflight_leads",
            "fetches performed as a flight's leader",
        );
        let shared = merged.counter(
            "singleflight_shared",
            "resolutions that shared a leader's in-flight fetch",
        );
        merged.set(led, self.flights_led());
        merged.set(shared, self.flights_shared());
        merged
    }

    /// Sums `f` over every shard, each locked in turn.
    fn sum_shards(&self, mut f: impl FnMut(&mut Shard) -> usize) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| f(&mut s.lock().unwrap()))
            .sum()
    }

    fn shard_for(&self, name: &Name) -> &Mutex<Shard> {
        let shards = &self.inner.shards;
        if shards.len() == 1 {
            return &shards[0];
        }
        &shards[fnv1a(name.as_suffix_bytes()) as usize % shards.len()]
    }

    // --- record + negative cache --------------------------------------

    /// Looks up the fresh entry for `(name, rtype)` at `now` and passes it
    /// to `f`. The shard lock is held until `f` returns.
    pub fn with_record<R>(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(Option<&CacheEntry>) -> R,
    ) -> R {
        let mut shard = self.shard_for(name).lock().unwrap();
        let shard = &mut *shard;
        let entry = shard.cache.get(name, rtype, now);
        let id = if entry.is_some() {
            shard.hits
        } else {
            shard.misses
        };
        let out = f(entry);
        shard.obs.inc(id);
        out
    }

    /// Absolute expiry of the fresh entry for `(name, rtype)` at `now`,
    /// if one exists.
    ///
    /// This is the invalidation hook for byte-level response caches
    /// layered above the resolver (the daemon's wire fast lane): a
    /// pre-serialized answer must never outlive the record-cache entries
    /// it was compiled from.
    pub fn record_expiry(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<SimTime> {
        self.with_record(name, rtype, now, |e| e.map(|e| e.expires_at))
    }

    /// Stores the RRset `(name, rtype)` under
    /// [`RecordCache::insert_rdatas`]'s rules.
    pub(crate) fn insert_record<'a, R>(
        &self,
        name: &Name,
        rtype: RecordType,
        ttl: Ttl,
        rdatas: R,
        now: SimTime,
        credibility: Credibility,
    ) -> bool
    where
        R: IntoIterator<Item = &'a RData>,
        R::IntoIter: Clone,
    {
        let mut shard = self.shard_for(name).lock().unwrap();
        let stored = shard
            .cache
            .insert_rdatas(name, rtype, ttl, rdatas, now, credibility);
        if stored {
            let id = shard.inserts;
            shard.obs.inc(id);
        }
        stored
    }

    /// Fresh negative-cache lookup.
    pub(crate) fn negative(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<NegativeKind> {
        let mut shard = self.shard_for(name).lock().unwrap();
        let kind = shard.cache.get_negative(name, rtype, now);
        if kind.is_some() {
            let id = shard.negative_hits;
            shard.obs.inc(id);
        }
        kind
    }

    /// Stores a negative answer for `ttl`, enforcing any configured
    /// negative-cache budget (see [`Self::set_negative_budget`]).
    pub(crate) fn insert_negative(
        &self,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        ttl: Ttl,
        now: SimTime,
    ) -> NegativeInsertOutcome {
        self.shard_for(&name)
            .lock()
            .unwrap()
            .cache
            .insert_negative(name, rtype, kind, ttl, now)
    }

    /// Configures the negative-cache budget (entries/bytes; `None` =
    /// unbounded), divided across the shards.
    pub(crate) fn set_negative_budget(&self, entries: Option<usize>, bytes: Option<usize>) {
        // Divide the budget across shards (rounding up so a nonzero budget
        // never truncates to zero per shard). The shard hash spreads flood
        // names uniformly, so the global bound holds within rounding.
        let n = self.inner.shards.len();
        let split = |b: Option<usize>| b.map(|b| b.div_ceil(n));
        let (entries, bytes) = (split(entries), split(bytes));
        for shard in &self.inner.shards {
            shard
                .lock()
                .unwrap()
                .cache
                .set_negative_budget(entries, bytes);
        }
    }

    /// Configures how long expired positive entries remain resident for
    /// serve-stale lookups; `None` evicts at expiry (the default).
    pub(crate) fn set_stale_retention(&self, retention: Option<SimDuration>) {
        for shard in &self.inner.shards {
            shard.lock().unwrap().cache.set_stale_retention(retention);
        }
    }

    /// Looks up the expired-but-retained entry for `(name, rtype)` at
    /// `now` and passes it to `f`. Without stale retention `f` always
    /// sees `None`; fresh entries never appear here (they are
    /// [`Self::with_record`]'s domain).
    pub(crate) fn with_stale_record<R>(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(Option<&CacheEntry>) -> R,
    ) -> R {
        let shard = self.shard_for(name).lock().unwrap();
        f(shard.cache.get_stale(name, rtype, now))
    }

    /// Negative entries currently stored (flood-pressure introspection).
    pub(crate) fn negative_entries(&self) -> usize {
        self.sum_shards(|s| s.cache.negative_len())
    }

    /// Evicts expired data entries; returns how many were evicted.
    pub(crate) fn purge_data(&self, now: SimTime) -> usize {
        self.sum_shards(|s| s.cache.purge_expired(now))
    }

    /// Fresh positive RRsets at `now` (`now` must not move backwards).
    pub(crate) fn data_fresh_rrsets(&self, now: SimTime) -> usize {
        self.sum_shards(|s| {
            let fresh = s.cache.fresh_len(now);
            s.obs.observe(s.occupancy, fresh as u64);
            fresh
        })
    }

    /// Individual records across fresh positive RRsets at `now`.
    pub(crate) fn data_fresh_records(&self, now: SimTime) -> usize {
        self.sum_shards(|s| s.cache.fresh_record_count(now))
    }

    // --- infrastructure cache -----------------------------------------

    /// The infrastructure cache, locked. Bind the guard to no name that
    /// outlives the statement using it: holding it across an upstream
    /// exchange (or a second `infra()` call) would stall or deadlock.
    pub(crate) fn infra(&self) -> MutexGuard<'_, InfraCache> {
        self.inner.infra.lock().unwrap()
    }

    /// Looks up `zone`'s infrastructure entry (fresh or not) and passes it
    /// to `f`.
    pub fn with_infra<R>(&self, zone: &Name, f: impl FnOnce(Option<&InfraEntry>) -> R) -> R {
        f(self.infra().get(zone))
    }

    // --- single flight -------------------------------------------------

    /// Claims or joins the in-flight fetch for `(name, rtype)`, or
    /// refuses it when the target zone's inflight cap is exhausted.
    pub(crate) fn begin_flight(&self, name: &Name, rtype: RecordType) -> Flight {
        let flight = self.inner.inflight.join_or_lead(name, rtype);
        let counter = match flight {
            Flight::Lead(_) => &self.inner.flights_led,
            Flight::Shared(_) => &self.inner.flights_shared,
            Flight::Suppressed => return flight,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        flight
    }

    /// Caps concurrent open flights per target-zone bucket; `None` =
    /// uncapped.
    pub(crate) fn set_zone_inflight_cap(&self, cap: Option<u32>) {
        self.inner.inflight.set_zone_cap(cap);
    }
}

/// FNV-1a 64-bit over the name's canonical (lowercased, length-prefixed)
/// suffix bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn insert_a(c: &ShardedCache, owner: &str, last: u8) {
        let rdata = RData::A(Ipv4Addr::new(192, 0, 2, last));
        let owner = name(owner);
        let ttl = Ttl::from_hours(1);
        c.insert_record(
            &owner,
            RecordType::A,
            ttl,
            [&rdata],
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
    }

    fn has_record(c: &ShardedCache, owner: &str) -> bool {
        c.with_record(&name(owner), RecordType::A, SimTime::from_mins(1), |e| {
            e.is_some()
        })
    }

    #[test]
    fn clones_share_state_and_forks_copy_it() {
        for shards in [1, 4] {
            let a = ShardedCache::with_shards(shards);
            insert_a(&a, "old.x.com", 1);
            a.set_zone_inflight_cap(Some(1));
            let (clone, fork) = (a.clone(), a.fork());
            assert_eq!(fork.shard_count(), shards);
            assert!(has_record(&fork, "old.x.com"), "the fork starts warm");
            insert_a(&fork, "new.x.com", 2);
            insert_a(&a, "own.x.com", 3);
            assert!(has_record(&clone, "own.x.com"), "a clone shares the cache");
            assert!(!has_record(&a, "new.x.com"), "fork writes stay in the fork");
            assert!(!has_record(&fork, "own.x.com"), "parent writes stay out");
            // The cap is copied, but not the parent's open flights.
            let _lead = a.begin_flight(&name("nx1.victim.x"), RecordType::A);
            let fork_lead = fork.begin_flight(&name("nx2.victim.x"), RecordType::A);
            assert!(matches!(fork_lead, Flight::Lead(_)));
            let third = fork.begin_flight(&name("nx3.victim.x"), RecordType::A);
            assert!(matches!(third, Flight::Suppressed));
        }
    }

    #[test]
    fn shard_count_floors_at_one() {
        assert_eq!(ShardedCache::new().shard_count(), 1);
        assert_eq!(ShardedCache::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedCache::with_shards(8).shard_count(), 8);
    }

    #[test]
    fn occupancy_sums_across_shards() {
        let c = ShardedCache::with_shards(8);
        for i in 0..20u8 {
            insert_a(&c, &format!("h{i}.x.com"), i);
        }
        assert_eq!(c.data_fresh_rrsets(SimTime::from_mins(1)), 20);
        assert_eq!(c.data_fresh_records(SimTime::from_mins(1)), 20);
        // Expiry drains every shard.
        assert_eq!(c.purge_data(SimTime::from_hours(2)), 20);
        assert_eq!(c.data_fresh_rrsets(SimTime::from_hours(2)), 0);
    }

    #[test]
    fn merged_registry_folds_shard_counters() {
        let c = ShardedCache::with_shards(4);
        insert_a(&c, "a.x.com", 1);
        insert_a(&c, "b.y.org", 2);
        c.with_record(
            &name("a.x.com"),
            RecordType::A,
            SimTime::from_mins(1),
            |_| (),
        );
        c.with_record(
            &name("nope.z"),
            RecordType::A,
            SimTime::from_mins(1),
            |_| (),
        );
        let reg = c.merged_registry();
        let text = reg.render_prometheus();
        assert!(text.contains("shard_record_inserts 2"));
        assert!(text.contains("shard_record_hits 1"));
        assert!(text.contains("shard_record_misses 1"));
        dns_obs::validate_prometheus_text(&text).expect("merged registry renders valid text");
    }

    #[test]
    fn same_name_maps_to_same_shard_any_construction() {
        let c = ShardedCache::with_shards(8);
        let parsed = name("WWW.Example.COM");
        let lower = name("www.example.com");
        let a = std::ptr::from_ref(c.shard_for(&parsed));
        let b = std::ptr::from_ref(c.shard_for(&lower));
        assert_eq!(a, b, "case-insensitive equality must shard identically");
    }
}
