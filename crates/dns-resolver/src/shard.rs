//! The shared concurrent backend: lock-sharded record caches plus
//! single-flight coalescing.
//!
//! A [`ShardedCache`] is a clonable handle (`Arc` inside) that many
//! [`crate::CachingServer`]s — one per worker thread — share. Data-cache
//! state is split across N shards, each behind its own mutex, selected by
//! an FNV-1a hash of the owner name's canonical suffix bytes (the same
//! bytes [`Name`]'s `Hash` uses, so equal names always land on the same
//! shard regardless of how they were constructed). Lookups and inserts
//! for different names contend only when they collide on a shard.
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
//! Each shard keeps its own [`dns_obs::Registry`] so counting a hit never
//! touches another shard's cache line; [`ShardedCache::merged_registry`]
//! folds them into one registry (histograms via
//! [`LogHistogram::merge`](dns_obs::LogHistogram::merge)) for scraping.

use crate::backend::CacheBackend;
use crate::cache::{CacheEntry, Credibility, NegativeInsertOutcome, NegativeKind, RecordCache};
use crate::inflight::{Admission, Flight, InflightTable};
use crate::infra::{GapSample, InfraCache, InfraEntry, InfraSource};
use crate::RenewalPolicy;
use dns_core::{Name, RecordType, RrSet, SimDuration, SimTime, Ttl};
use dns_obs::{CounterId, HistId, Registry};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One lock-sharded slice of the data cache with its private counters.
#[derive(Debug)]
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

/// A concurrent cache backend shared by many resolver workers.
///
/// Cloning is cheap (an `Arc` bump); every clone observes and mutates the
/// same caches. See the module docs for the sharding and single-flight
/// design.
#[derive(Debug, Clone)]
pub struct ShardedCache {
    inner: Arc<Inner>,
}

impl ShardedCache {
    /// Creates a backend with `shards` data-cache shards (minimum 1).
    pub fn new(shards: usize) -> Self {
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

    fn shard_for(&self, name: &Name) -> &Mutex<Shard> {
        let idx = fnv1a(name.as_suffix_bytes()) as usize % self.inner.shards.len();
        &self.inner.shards[idx]
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

impl CacheBackend for ShardedCache {
    fn with_record<R>(
        &mut self,
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

    fn insert_record(&mut self, set: RrSet, now: SimTime, credibility: Credibility) -> bool {
        let mut shard = self.shard_for(set.name()).lock().unwrap();
        let stored = shard.cache.insert(set, now, credibility);
        if stored {
            let id = shard.inserts;
            shard.obs.inc(id);
        }
        stored
    }

    fn negative(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> Option<NegativeKind> {
        let mut shard = self.shard_for(name).lock().unwrap();
        let kind = shard.cache.get_negative(name, rtype, now);
        if kind.is_some() {
            let id = shard.negative_hits;
            shard.obs.inc(id);
        }
        kind
    }

    fn insert_negative(
        &mut self,
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

    fn set_negative_budget(&mut self, entries: Option<usize>, bytes: Option<usize>) {
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

    fn set_stale_retention(&mut self, retention: Option<SimDuration>) {
        for shard in &self.inner.shards {
            shard.lock().unwrap().cache.set_stale_retention(retention);
        }
    }

    fn with_stale_record<R>(
        &mut self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(Option<&CacheEntry>) -> R,
    ) -> R {
        let shard = self.shard_for(name).lock().unwrap();
        f(shard.cache.get_stale(name, rtype, now))
    }

    fn negative_entries(&mut self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().cache.negative_len())
            .sum()
    }

    fn purge_data(&mut self, now: SimTime) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().cache.purge_expired(now))
            .sum()
    }

    fn data_fresh_rrsets(&mut self, now: SimTime) -> usize {
        let mut total = 0;
        for shard in &self.inner.shards {
            let mut shard = shard.lock().unwrap();
            let fresh = shard.cache.fresh_len(now);
            let id = shard.occupancy;
            shard.obs.observe(id, fresh as u64);
            total += fresh;
        }
        total
    }

    fn data_fresh_records(&mut self, now: SimTime) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().cache.fresh_record_count(now))
            .sum()
    }

    fn install_root_hints(&mut self, servers: &[(Name, Ipv4Addr)]) {
        self.inner.infra.lock().unwrap().install_root_hints(servers);
    }

    fn with_infra<R>(&mut self, zone: &Name, f: impl FnOnce(Option<&InfraEntry>) -> R) -> R {
        f(self.inner.infra.lock().unwrap().get(zone))
    }

    fn deepest_usable_zone(
        &mut self,
        name: &Name,
        now: SimTime,
        max_parent_age: Option<SimDuration>,
    ) -> Option<Name> {
        self.inner
            .infra
            .lock()
            .unwrap()
            .deepest_usable_ancestor(name, now, max_parent_age)
            .map(|e| e.zone.clone())
    }

    fn install_infra(
        &mut self,
        zone: Name,
        ns_names: Vec<Name>,
        addrs: Vec<(Name, Ipv4Addr)>,
        ttl: Ttl,
        now: SimTime,
        source: InfraSource,
        refresh: bool,
    ) -> bool {
        self.inner
            .infra
            .lock()
            .unwrap()
            .install(zone, ns_names, addrs, ttl, now, source, refresh)
    }

    fn record_zone_use(&mut self, zone: &Name, now: SimTime, policy: Option<&RenewalPolicy>) {
        self.inner
            .infra
            .lock()
            .unwrap()
            .record_use(zone, now, policy);
    }

    fn consume_renewal_credit(&mut self, zone: &Name) -> Option<InfraEntry> {
        self.inner
            .infra
            .lock()
            .unwrap()
            .consume_renewal_credit(zone)
    }

    fn next_renewal_due(&mut self, upto: SimTime) -> Option<(SimTime, Name)> {
        self.inner.infra.lock().unwrap().next_renewal_due(upto)
    }

    fn peek_renewal_due(&mut self) -> Option<SimTime> {
        self.inner.infra.lock().unwrap().peek_renewal_due()
    }

    fn take_gap_samples(&mut self) -> Vec<GapSample> {
        self.inner.infra.lock().unwrap().take_gap_samples()
    }

    fn set_zone_ds(&mut self, zone: &Name, ds: Vec<(u16, u32)>) {
        self.inner.infra.lock().unwrap().set_ds(zone, ds);
    }

    fn promote_zone_address(&mut self, zone: &Name, addr: Ipv4Addr) {
        self.inner.infra.lock().unwrap().promote_address(zone, addr);
    }

    fn add_zone_addresses(&mut self, zone: &Name, pairs: &[(Name, Ipv4Addr)]) {
        self.inner.infra.lock().unwrap().add_addresses(zone, pairs);
    }

    fn purge_infra_tombstones(&mut self, now: SimTime, retention: SimDuration) -> usize {
        self.inner
            .infra
            .lock()
            .unwrap()
            .purge_tombstones(now, retention)
    }

    fn infra_fresh_zones(&mut self, now: SimTime) -> usize {
        self.inner.infra.lock().unwrap().fresh_zone_count(now)
    }

    fn infra_fresh_records(&mut self, now: SimTime) -> usize {
        self.inner.infra.lock().unwrap().fresh_record_count(now)
    }

    fn begin_flight(&mut self, name: &Name, rtype: RecordType) -> Flight {
        match self.inner.inflight.join_or_lead(name, rtype) {
            Admission::Lead(token) => {
                self.inner.flights_led.fetch_add(1, Ordering::Relaxed);
                Flight::Lead(token)
            }
            Admission::Shared(outcome) => {
                self.inner.flights_shared.fetch_add(1, Ordering::Relaxed);
                Flight::Shared(outcome)
            }
            Admission::Suppressed => Flight::Suppressed,
        }
    }

    fn set_zone_inflight_cap(&mut self, cap: Option<u32>) {
        self.inner.inflight.set_zone_cap(cap);
    }

    fn obs_registry(&self) -> Option<Registry> {
        Some(self.merged_registry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{RData, Record};

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a_set(owner: &str, last: u8) -> RrSet {
        let rr = Record::new(
            name(owner),
            Ttl::from_hours(1),
            RData::A(Ipv4Addr::new(192, 0, 2, last)),
        );
        RrSet::from_records(&[rr]).unwrap()
    }

    #[test]
    fn clones_share_state() {
        let mut a = ShardedCache::new(4);
        let mut b = a.clone();
        a.insert_record(
            a_set("www.x.com", 1),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        let hit = b.with_record(
            &name("www.x.com"),
            RecordType::A,
            SimTime::from_mins(1),
            |e| e.is_some(),
        );
        assert!(hit);
    }

    #[test]
    fn shard_count_floors_at_one() {
        assert_eq!(ShardedCache::new(0).shard_count(), 1);
        assert_eq!(ShardedCache::new(8).shard_count(), 8);
    }

    #[test]
    fn occupancy_sums_across_shards() {
        let mut c = ShardedCache::new(8);
        for i in 0..20u8 {
            c.insert_record(
                a_set(&format!("h{i}.x.com"), i),
                SimTime::ZERO,
                Credibility::AuthAnswer,
            );
        }
        assert_eq!(c.data_fresh_rrsets(SimTime::from_mins(1)), 20);
        assert_eq!(c.data_fresh_records(SimTime::from_mins(1)), 20);
        // Expiry drains every shard.
        assert_eq!(c.purge_data(SimTime::from_hours(2)), 20);
        assert_eq!(c.data_fresh_rrsets(SimTime::from_hours(2)), 0);
    }

    #[test]
    fn merged_registry_folds_shard_counters() {
        let mut c = ShardedCache::new(4);
        c.insert_record(a_set("a.x.com", 1), SimTime::ZERO, Credibility::AuthAnswer);
        c.insert_record(a_set("b.y.org", 2), SimTime::ZERO, Credibility::AuthAnswer);
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
        let c = ShardedCache::new(8);
        let parsed = name("WWW.Example.COM");
        let lower = name("www.example.com");
        let a = std::ptr::from_ref(c.shard_for(&parsed));
        let b = std::ptr::from_ref(c.shard_for(&lower));
        assert_eq!(a, b, "case-insensitive equality must shard identically");
    }
}
