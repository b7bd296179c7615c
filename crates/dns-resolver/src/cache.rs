//! The generic RRset cache with RFC 2181 credibility ranking.
//!
//! This cache holds *data* records (addresses, CNAMEs, negative entries);
//! infrastructure records live in [`crate::InfraCache`], which the
//! resilience policies operate on.

use dns_core::{Name, RData, RecordType, RrKey, RrKeyView, RrSet, SimDuration, SimTime, Ttl};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Trustworthiness ranking of cached data (RFC 2181 §5.4.1, condensed).
///
/// Higher ranks may overwrite lower ranks; a lower-ranked copy never
/// replaces a fresh higher-ranked one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Credibility {
    /// Glue / additional-section data.
    Additional = 1,
    /// Authority-section data from a non-authoritative response (referral
    /// NS sets).
    NonAuthAuthority = 2,
    /// Authority-section data from an authoritative answer.
    AuthAuthority = 3,
    /// Answer-section data from an authoritative answer.
    AuthAnswer = 4,
}

/// One cached RRset plus caching metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The cached data.
    pub set: RrSet,
    /// Absolute expiry.
    pub expires_at: SimTime,
    /// Trustworthiness of this copy.
    pub credibility: Credibility,
}

impl CacheEntry {
    /// Whether the entry is still fresh at `now` (exclusive expiry).
    pub fn is_fresh(&self, now: SimTime) -> bool {
        now < self.expires_at
    }
}

/// A negative-cache entry: proof that a name/type has no data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegativeKind {
    /// The name does not exist at all.
    NxDomain,
    /// The name exists but not with this type.
    NoData,
}

/// What [`RecordCache::insert_negative`] did under the configured budget.
///
/// A water-torture flood drives the negative cache toward its byte/entry
/// budget; the resolver turns these outcomes into `flood_suppressed` and
/// `neg_evictions_pressure` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NegativeInsertOutcome {
    /// Whether the new entry is still present after budget enforcement (a
    /// zero or tiny budget can evict the entry it just admitted).
    pub stored: bool,
    /// Negative entries evicted to make room, the new entry included.
    pub evicted_pressure: u64,
}

/// A stored positive entry and the due time of its one pair on the expiry
/// heap.
#[derive(Debug, Clone)]
struct Slot {
    entry: CacheEntry,
    /// When this entry's pair on [`RecordCache`]'s expiry heap falls due;
    /// never after `entry.expires_at`.
    queued: SimTime,
}

/// Collects `items` into a vector holding exactly their number: cache
/// entries keep their lists for their whole lifetime, and most hold one
/// or two items.
pub(crate) fn exact_vec<T>(items: impl Iterator<Item = T> + Clone) -> Vec<T> {
    let mut out = Vec::with_capacity(items.clone().count());
    out.extend(items);
    out
}

/// Approximate heap cost of one negative entry: its key's wire-format name
/// length plus fixed map/heap overhead.
fn negative_cost(key: &RrKey) -> usize {
    key.name.wire_len() + 48
}

/// TTL-driven RRset cache.
///
/// ```rust
/// use dns_resolver::{Credibility, RecordCache};
/// use dns_core::{Name, RData, Record, RrSet, SimTime, Ttl};
/// use std::net::Ipv4Addr;
///
/// # fn main() -> Result<(), dns_core::DnsError> {
/// let mut cache = RecordCache::new();
/// let rr = Record::new("www.ucla.edu".parse()?, Ttl::from_hours(4), RData::A(Ipv4Addr::LOCALHOST));
/// let set = RrSet::from_records(std::slice::from_ref(&rr)).unwrap();
/// cache.insert(set, SimTime::ZERO, Credibility::AuthAnswer);
///
/// let hit = cache.get(&"www.ucla.edu".parse()?, dns_core::RecordType::A, SimTime::from_hours(3));
/// assert!(hit.is_some());
/// let miss = cache.get(&"www.ucla.edu".parse()?, dns_core::RecordType::A, SimTime::from_hours(5));
/// assert!(miss.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordCache {
    entries: HashMap<RrKey, Slot>,
    negatives: HashMap<RrKey, (SimTime, NegativeKind)>,
    /// Expiry min-heap over `entries`, one pair per entry at its slot's
    /// `queued` time. A re-insert that extends an entry pushes nothing:
    /// the due pair re-queues the entry at its current expiry. Only a
    /// re-insert that moves the expiry earlier pushes a second pair, and
    /// the superseded one is dropped when it falls due.
    expiry: BinaryHeap<Reverse<(SimTime, RrKey)>>,
    /// Expiry min-heap over `negatives`, lazy-deleted: every insert pushes
    /// a pair, and a pair whose entry was since re-inserted with a
    /// different expiry is skipped on pop. Budget eviction pops it in
    /// expiry order.
    neg_expiry: BinaryHeap<Reverse<(SimTime, RrKey)>>,
    /// Individual records across stored positive entries, maintained on
    /// insert/evict so occupancy sampling never scans the table.
    record_total: usize,
    /// Approximate bytes across stored negative entries, maintained on
    /// insert/evict (see [`negative_cost`]).
    neg_bytes: usize,
    /// Hard entry budget for the negative cache; `None` = unbounded.
    neg_budget_entries: Option<usize>,
    /// Hard byte budget for the negative cache; `None` = unbounded.
    neg_budget_bytes: Option<usize>,
    /// How long expired *positive* entries stay resident for serve-stale
    /// lookups; `None` (the default) evicts at expiry exactly as before.
    /// Negative entries are never retained past expiry.
    stale_retention: Option<SimDuration>,
}

impl RecordCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RecordCache::default()
    }

    /// Inserts an RRset received at `now`, subject to credibility rules:
    /// a fresh entry of strictly higher credibility is never overwritten.
    ///
    /// Returns `true` when the set was stored.
    pub fn insert(&mut self, set: RrSet, now: SimTime, credibility: Credibility) -> bool {
        self.insert_rdatas(
            set.name(),
            set.rtype(),
            set.ttl(),
            set.rdatas(),
            now,
            credibility,
        )
    }

    /// [`RecordCache::insert`] for the RRset `(name, rtype)` with `ttl`
    /// and `rdatas`, borrowed from wherever they arrived. An [`RrSet`] is
    /// built only when the cached copy differs: a copy equal to the cached
    /// one, as a TTL refresh re-delivers it, renews the entry in place.
    pub fn insert_rdatas<'a, R>(
        &mut self,
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
        let rdatas = rdatas.into_iter();
        let expires_at = ttl.expires_at(now);
        match self.entries.get_mut(&(name, rtype) as &dyn RrKeyView) {
            Some(slot) => {
                if slot.entry.is_fresh(now) && slot.entry.credibility > credibility {
                    return false;
                }
                let set = &mut slot.entry.set;
                if expires_at < slot.queued {
                    slot.queued = expires_at;
                    self.expiry.push(Reverse((expires_at, set.key().clone())));
                }
                if set.ttl() != ttl || !set.rdatas().iter().eq(rdatas.clone()) {
                    let stored = RrSet::new(set.key().clone(), ttl, exact_vec(rdatas.cloned()));
                    self.record_total = self.record_total - set.len() + stored.len();
                    *set = stored;
                }
                slot.entry.expires_at = expires_at;
                slot.entry.credibility = credibility;
            }
            None => {
                let key = RrKey::new(name.clone(), rtype);
                let set = RrSet::new(key.clone(), ttl, exact_vec(rdatas.cloned()));
                self.record_total += set.len();
                self.expiry.push(Reverse((expires_at, key.clone())));
                let entry = CacheEntry {
                    set,
                    expires_at,
                    credibility,
                };
                self.entries.insert(
                    key,
                    Slot {
                        entry,
                        queued: expires_at,
                    },
                );
            }
        }
        true
    }

    /// Evicts every entry that expired at or before `now`, in O(log n)
    /// per due heap pair rather than a full-table scan. Returns how many
    /// entries (positive + negative) were evicted.
    fn advance(&mut self, now: SimTime) -> usize {
        let mut evicted = 0;
        // With stale retention, a positive entry lives `retention` past its
        // expiry before eviction (it answers `get_stale` in between). The
        // default (`None`) is a zero grace period — identical to the
        // historical schedule, so pinned transcripts are unaffected.
        let grace = self.stale_retention.unwrap_or(SimDuration::ZERO);
        while self
            .expiry
            .peek()
            .is_some_and(|Reverse((at, _))| *at + grace <= now)
        {
            let Reverse((at, key)) = self.expiry.pop().expect("peeked");
            let Entry::Occupied(mut slot) = self.entries.entry(key) else {
                continue;
            };
            if slot.get().queued != at {
                continue; // superseded when a re-insert moved the expiry earlier
            }
            let expires_at = slot.get().entry.expires_at;
            if expires_at + grace <= now {
                self.record_total -= slot.remove().entry.set.len();
                evicted += 1;
            } else {
                // Extended since it was queued: due again at its expiry.
                slot.get_mut().queued = expires_at;
                self.expiry.push(Reverse((expires_at, slot.key().clone())));
            }
        }
        while self
            .neg_expiry
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= now)
        {
            let Reverse((at, key)) = self.neg_expiry.pop().expect("peeked");
            if self.negatives.get(&key).is_some_and(|&(exp, _)| exp == at) {
                self.negatives.remove(&key);
                self.neg_bytes -= negative_cost(&key);
                evicted += 1;
            }
        }
        evicted
    }

    /// Fresh lookup; expired entries are treated as absent (and are
    /// evicted lazily). The probe borrows `name` — no key is built and no
    /// allocation or refcount traffic occurs.
    pub fn get(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<&CacheEntry> {
        self.entries
            .get(&(name, rtype) as &dyn RrKeyView)
            .map(|slot| &slot.entry)
            .filter(|e| e.is_fresh(now))
    }

    /// Configures the negative-cache budget; `None` means unbounded. The
    /// budget applies to future inserts — it does not synchronously shrink
    /// an already-over-budget cache.
    pub fn set_negative_budget(&mut self, entries: Option<usize>, bytes: Option<usize>) {
        self.neg_budget_entries = entries;
        self.neg_budget_bytes = bytes;
    }

    /// Configures how long expired positive entries remain resident for
    /// serve-stale lookups; `None` (the default) restores eviction exactly
    /// at expiry. Applies from the next [`Self::purge_expired`] /
    /// occupancy advance onward.
    pub fn set_stale_retention(&mut self, retention: Option<SimDuration>) {
        self.stale_retention = retention;
    }

    /// Expired-but-retained lookup: the entry for `(name, rtype)` that is
    /// *no longer fresh* at `now` but has not yet been evicted. Returns
    /// `None` for fresh entries (use [`Self::get`]) and for entries aged
    /// past the retention window (already evicted). The caller decides how
    /// much staleness is acceptable from [`CacheEntry::expires_at`].
    pub fn get_stale(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<&CacheEntry> {
        self.entries
            .get(&(name, rtype) as &dyn RrKeyView)
            .map(|slot| &slot.entry)
            .filter(|e| !e.is_fresh(now))
    }

    /// Stores a negative answer (NXDOMAIN / NODATA) for `ttl`.
    ///
    /// When a budget is set (see [`Self::set_negative_budget`]) the cache
    /// evicts the soonest-expiring negative entries until it is back
    /// within budget. Positive records are never evicted under negative
    /// pressure, so a water-torture flood cannot displace legitimate
    /// cached state.
    pub fn insert_negative(
        &mut self,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        ttl: Ttl,
        now: SimTime,
    ) -> NegativeInsertOutcome {
        let key = RrKey::new(name, rtype);
        let expires_at = ttl.expires_at(now);
        if self
            .negatives
            .insert(key.clone(), (expires_at, kind))
            .is_none()
        {
            self.neg_bytes += negative_cost(&key);
        }
        self.neg_expiry.push(Reverse((expires_at, key.clone())));

        // Enforce the budget: pop live soonest-expiring negatives until we
        // are back under. Each heap pop either retires a stale pair or
        // evicts a live entry, so the loop terminates.
        let mut evicted_pressure = 0u64;
        while self.over_negative_budget() {
            let Some(Reverse((at, victim))) = self.neg_expiry.pop() else {
                break;
            };
            if self
                .negatives
                .get(&victim)
                .is_some_and(|&(exp, _)| exp == at)
            {
                self.negatives.remove(&victim);
                self.neg_bytes -= negative_cost(&victim);
                evicted_pressure += 1;
            }
        }
        NegativeInsertOutcome {
            stored: self
                .negatives
                .get(&key)
                .is_some_and(|&(exp, _)| exp == expires_at),
            evicted_pressure,
        }
    }

    fn over_negative_budget(&self) -> bool {
        self.neg_budget_entries
            .is_some_and(|max| self.negatives.len() > max)
            || self
                .neg_budget_bytes
                .is_some_and(|max| self.neg_bytes > max)
    }

    /// Fresh negative lookup.
    pub fn get_negative(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<NegativeKind> {
        self.negatives
            .get(&(name, rtype) as &dyn RrKeyView)
            .filter(|(exp, _)| now < *exp)
            .map(|&(_, kind)| kind)
    }

    /// Removes entries that expired at or before `now`; returns how many
    /// were evicted since the cache last advanced. The resolver calls this
    /// periodically so occupancy metrics reflect live content. Amortized:
    /// cost scales with the number of expired entries, not cache size.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.advance(now)
    }

    /// Number of positive entries currently stored (entries expired before
    /// the last advance are already evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache stores nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.negatives.is_empty()
    }

    /// Number of negative entries currently stored (including any that
    /// expired since the cache last advanced).
    pub fn negative_len(&self) -> usize {
        self.negatives.len()
    }

    /// Approximate bytes across stored negative entries.
    pub fn negative_bytes(&self) -> usize {
        self.neg_bytes
    }

    /// Number of positive entries fresh at `now` (O(expired) via the
    /// expiry heap, not a scan; `now` must not move backwards).
    ///
    /// With stale retention active the table also holds expired-but-
    /// retained entries, so freshness is scan-filtered; the default
    /// (`None`) path keeps the O(1) maintained count.
    pub fn fresh_len(&mut self, now: SimTime) -> usize {
        self.advance(now);
        if self.stale_retention.is_some() {
            self.entries
                .values()
                .filter(|slot| slot.entry.is_fresh(now))
                .count()
        } else {
            self.entries.len()
        }
    }

    /// Total individual records across fresh positive entries at `now`
    /// (maintained counter; `now` must not move backwards).
    pub fn fresh_record_count(&mut self, now: SimTime) -> usize {
        self.advance(now);
        if self.stale_retention.is_some() {
            self.entries
                .values()
                .filter(|slot| slot.entry.is_fresh(now))
                .map(|slot| slot.entry.set.len())
                .sum()
        } else {
            self.record_total
        }
    }
}

impl fmt::Display for RecordCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record cache ({} rrsets, {} negatives)",
            self.entries.len(),
            self.negatives.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{RData, Record};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a_set(owner: &str, last: u8, ttl: Ttl) -> RrSet {
        let rr = Record::new(name(owner), ttl, RData::A(Ipv4Addr::new(192, 0, 2, last)));
        RrSet::from_records(&[rr]).unwrap()
    }

    #[test]
    fn fresh_until_ttl_then_gone() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("www.x.com", 1, Ttl::from_hours(1)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        assert!(c
            .get(&name("www.x.com"), RecordType::A, SimTime::from_mins(59))
            .is_some());
        // Expiry is exclusive: at exactly TTL the entry is stale.
        assert!(c
            .get(&name("www.x.com"), RecordType::A, SimTime::from_hours(1))
            .is_none());
    }

    #[test]
    fn lower_credibility_cannot_displace_fresh_entry() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("ns.x.com", 1, Ttl::from_hours(4)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        let stored = c.insert(
            a_set("ns.x.com", 9, Ttl::from_hours(4)),
            SimTime::from_mins(10),
            Credibility::Additional,
        );
        assert!(!stored);
        let entry = c
            .get(&name("ns.x.com"), RecordType::A, SimTime::from_mins(20))
            .unwrap();
        assert_eq!(entry.set.rdatas(), &[RData::A(Ipv4Addr::new(192, 0, 2, 1))]);
    }

    #[test]
    fn higher_or_equal_credibility_replaces() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("ns.x.com", 1, Ttl::from_hours(4)),
            SimTime::ZERO,
            Credibility::Additional,
        );
        assert!(c.insert(
            a_set("ns.x.com", 2, Ttl::from_hours(4)),
            SimTime::from_mins(1),
            Credibility::AuthAnswer,
        ));
        assert!(c.insert(
            a_set("ns.x.com", 3, Ttl::from_hours(4)),
            SimTime::from_mins(2),
            Credibility::AuthAnswer,
        ));
    }

    #[test]
    fn expired_entry_replaceable_by_any_credibility() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("ns.x.com", 1, Ttl::from_mins(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        assert!(c.insert(
            a_set("ns.x.com", 2, Ttl::from_hours(1)),
            SimTime::from_hours(1),
            Credibility::Additional,
        ));
    }

    #[test]
    fn negative_cache_roundtrip() {
        let mut c = RecordCache::new();
        c.insert_negative(
            name("missing.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(5),
            SimTime::ZERO,
        );
        assert_eq!(
            c.get_negative(&name("missing.x.com"), RecordType::A, SimTime::from_mins(4)),
            Some(NegativeKind::NxDomain)
        );
        assert_eq!(
            c.get_negative(&name("missing.x.com"), RecordType::A, SimTime::from_mins(6)),
            None
        );
    }

    #[test]
    fn purge_drops_only_expired() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("a.x.com", 1, Ttl::from_mins(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        c.insert(
            a_set("b.x.com", 2, Ttl::from_hours(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        c.insert_negative(
            name("n.x.com"),
            RecordType::A,
            NegativeKind::NoData,
            Ttl::from_mins(1),
            SimTime::ZERO,
        );
        let evicted = c.purge_expired(SimTime::from_hours(1));
        assert_eq!(evicted, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn occupancy_counts_fresh_only() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("a.x.com", 1, Ttl::from_mins(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        c.insert(
            a_set("b.x.com", 2, Ttl::from_hours(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        assert_eq!(c.fresh_len(SimTime::from_hours(1)), 1);
        assert_eq!(c.fresh_record_count(SimTime::from_hours(1)), 1);
        assert_eq!(c.len(), 1); // sampling advanced the heap and evicted a.x.com
    }

    #[test]
    fn negative_budget_evicts_soonest_expiring_negative_only() {
        let mut c = RecordCache::new();
        c.set_negative_budget(Some(2), None);
        // A fresh positive record that must survive any negative pressure.
        c.insert(
            a_set("www.x.com", 1, Ttl::from_hours(4)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        c.insert_negative(
            name("nx1.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(5),
            SimTime::ZERO,
        );
        c.insert_negative(
            name("nx2.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(30),
            SimTime::ZERO,
        );
        let out = c.insert_negative(
            name("nx3.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(30),
            SimTime::ZERO,
        );
        assert!(out.stored);
        assert_eq!(out.evicted_pressure, 1);
        assert_eq!(c.negative_len(), 2);
        // The soonest-expiring negative went first; the others survive.
        assert!(c
            .get_negative(&name("nx1.x.com"), RecordType::A, SimTime::from_mins(1))
            .is_none());
        assert!(c
            .get_negative(&name("nx3.x.com"), RecordType::A, SimTime::from_mins(1))
            .is_some());
        // The positive record is untouched.
        assert!(c
            .get(&name("www.x.com"), RecordType::A, SimTime::from_mins(1))
            .is_some());
    }

    #[test]
    fn zero_negative_budget_refuses_storage() {
        let mut c = RecordCache::new();
        c.set_negative_budget(Some(0), None);
        let out = c.insert_negative(
            name("nx.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(5),
            SimTime::ZERO,
        );
        assert!(!out.stored);
        assert_eq!(out.evicted_pressure, 1);
        assert_eq!(c.negative_len(), 0);
        assert_eq!(c.negative_bytes(), 0);
    }

    #[test]
    fn negative_byte_ledger_tracks_expiry_and_pressure() {
        let mut c = RecordCache::new();
        c.insert_negative(
            name("nx.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(5),
            SimTime::ZERO,
        );
        assert!(c.negative_bytes() > 0);
        // Re-inserting the same key must not double-count.
        let bytes = c.negative_bytes();
        c.insert_negative(
            name("nx.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(10),
            SimTime::ZERO,
        );
        assert_eq!(c.negative_bytes(), bytes);
        c.purge_expired(SimTime::from_hours(1));
        assert_eq!(c.negative_bytes(), 0);
        assert_eq!(c.negative_len(), 0);
    }

    #[test]
    fn stale_retention_keeps_expired_entries_for_get_stale_only() {
        let mut c = RecordCache::new();
        c.set_stale_retention(Some(SimDuration::from_hours(1)));
        c.insert(
            a_set("www.x.com", 1, Ttl::from_mins(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        // Fresh: `get` answers, `get_stale` does not.
        assert!(c
            .get(&name("www.x.com"), RecordType::A, SimTime::from_mins(4))
            .is_some());
        assert!(c
            .get_stale(&name("www.x.com"), RecordType::A, SimTime::from_mins(4))
            .is_none());
        // Expired but retained: only `get_stale` answers, and purge keeps it.
        assert_eq!(c.purge_expired(SimTime::from_mins(10)), 0);
        assert!(c
            .get(&name("www.x.com"), RecordType::A, SimTime::from_mins(10))
            .is_none());
        let stale = c
            .get_stale(&name("www.x.com"), RecordType::A, SimTime::from_mins(10))
            .expect("retained for serve-stale");
        assert_eq!(stale.expires_at, SimTime::from_mins(5));
        // Occupancy counts fresh entries only.
        assert_eq!(c.fresh_len(SimTime::from_mins(10)), 0);
        assert_eq!(c.fresh_record_count(SimTime::from_mins(10)), 0);
        // Past expiry + retention the entry is really gone.
        assert_eq!(c.purge_expired(SimTime::from_mins(66)), 1);
        assert!(c
            .get_stale(&name("www.x.com"), RecordType::A, SimTime::from_mins(66))
            .is_none());
    }

    #[test]
    fn stale_retention_does_not_hold_negative_entries() {
        let mut c = RecordCache::new();
        c.set_stale_retention(Some(SimDuration::from_hours(4)));
        c.insert_negative(
            name("nx.x.com"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_mins(5),
            SimTime::ZERO,
        );
        // Negatives evict on the historical schedule regardless of
        // retention — proofs of absence must not outlive their TTL.
        assert_eq!(c.purge_expired(SimTime::from_mins(10)), 1);
        assert_eq!(c.negative_len(), 0);
    }

    #[test]
    fn extending_reinsert_requeues_instead_of_evicting() {
        let mut c = RecordCache::new();
        c.insert(
            a_set("a.x.com", 1, Ttl::from_mins(5)),
            SimTime::ZERO,
            Credibility::AuthAnswer,
        );
        // Re-insert with a longer TTL: the entry keeps its 5-minute pair.
        c.insert(
            a_set("a.x.com", 2, Ttl::from_hours(2)),
            SimTime::from_mins(1),
            Credibility::AuthAnswer,
        );
        // The due pair must not evict the refreshed entry...
        assert_eq!(c.purge_expired(SimTime::from_mins(10)), 0);
        assert_eq!(c.fresh_len(SimTime::from_mins(10)), 1);
        assert_eq!(c.fresh_record_count(SimTime::from_mins(10)), 1);
        // ...and the refreshed entry still expires on its own schedule.
        assert_eq!(c.purge_expired(SimTime::from_hours(3)), 1);
        assert_eq!(c.fresh_record_count(SimTime::from_hours(3)), 0);
    }

    #[test]
    fn live_key_reinserted_1000_times_holds_one_heap_pair() {
        let mut c = RecordCache::new();
        for i in 0..1000 {
            c.insert(
                a_set("a.x.com", 1, Ttl::from_hours(1)),
                SimTime::from_secs(i),
                Credibility::AuthAnswer,
            );
        }
        assert_eq!(c.expiry.len(), 1);
        // The one pair falls due at the first expiry and re-queues the
        // entry at its current one.
        assert_eq!(c.purge_expired(SimTime::from_hours(1)), 0);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.purge_expired(SimTime::from_secs(3600 + 999)), 1);
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn earlier_expiry_reinsert_leaves_at_most_two_pairs() {
        let mut c = RecordCache::new();
        for i in 0..1000 {
            c.insert(
                a_set("a.x.com", 1, Ttl::from_hours(2)),
                SimTime::from_secs(i),
                Credibility::AuthAnswer,
            );
        }
        // A shorter TTL moves the expiry earlier than the queued pair.
        c.insert(
            a_set("a.x.com", 2, Ttl::from_mins(5)),
            SimTime::from_secs(1000),
            Credibility::AuthAnswer,
        );
        assert_eq!(c.expiry.len(), 2);
        // The earlier pair evicts on time; the superseded one is dropped
        // when it falls due.
        assert_eq!(c.purge_expired(SimTime::from_secs(1299)), 0);
        assert_eq!(c.purge_expired(SimTime::from_secs(1300)), 1);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.purge_expired(SimTime::from_hours(3)), 0);
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn superseded_pair_of_a_live_entry_is_dropped_not_requeued() {
        let mut c = RecordCache::new();
        let insert = |c: &mut RecordCache, at: u64, ttl: Ttl| {
            c.insert(
                a_set("a.x.com", 1, ttl),
                SimTime::from_secs(at),
                Credibility::AuthAnswer,
            )
        };
        insert(&mut c, 0, Ttl::from_hours(2)); // queued at 7200 s
        insert(&mut c, 1000, Ttl::from_mins(5)); // earlier: queued at 1300 s
        insert(&mut c, 1100, Ttl::from_hours(3)); // extended to 11,900 s
        assert_eq!(c.expiry.len(), 2);
        // The live pair re-queues the entry at its expiry...
        assert_eq!(c.purge_expired(SimTime::from_secs(1300)), 0);
        assert_eq!(c.expiry.len(), 2);
        // ...and the superseded 7200 s pair is dropped when it falls due.
        assert_eq!(c.purge_expired(SimTime::from_hours(2)), 0);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.purge_expired(SimTime::from_secs(11_900)), 1);
        assert!(c.expiry.is_empty());
    }
}
