//! The infrastructure-record cache: per-zone NS + glue entries, the data
//! structure the paper's resilience schemes operate on.
//!
//! Unlike the generic [`crate::RecordCache`], entries here are *per zone*
//! (one entry bundles the zone's NS set with its servers' addresses), carry
//! the renewal *credit*, and keep expired tombstones around long enough to
//! measure the paper's Figure-3 "time gap" between IRR expiry and the next
//! use of the zone.

use crate::RenewalPolicy;
use dns_core::{Name, SimDuration, SimTime, Ttl};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

/// Where a cached infrastructure entry was learned from. Child copies are
/// more credible than parent copies (RFC 2181 §5.4.1); root hints never
/// expire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InfraSource {
    /// Referral data from the parent zone.
    Parent,
    /// Data from the zone's own authoritative servers.
    Child,
    /// Compiled-in root hints.
    RootHints,
}

/// Cached infrastructure records for one zone: its NS names, their
/// addresses, and the caching/renewal metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct InfraEntry {
    /// Zone apex.
    pub zone: Name,
    /// Names of the zone's authoritative servers.
    pub ns_names: Vec<Name>,
    /// Known `(server name, address)` pairs (from glue or answers).
    pub addrs: Vec<(Name, Ipv4Addr)>,
    /// TTL the entry was installed with (after any cap).
    pub ttl: Ttl,
    /// Absolute expiry ([`SimTime::MAX`] for root hints).
    pub expires_at: SimTime,
    /// Provenance of the current copy.
    pub source: InfraSource,
    /// Remaining renewal credit (see [`RenewalPolicy`]).
    pub credit: u32,
    /// DS material for this zone, learned from the parent's referral —
    /// the DNSSEC infrastructure records of paper §6. Shares the entry's
    /// lifetime, so refresh/renewal/long-TTL extend it too.
    pub ds: Vec<(u16, u32)>,
    /// Last time this zone's delegation was confirmed by the *parent*
    /// (referral data). Refresh/renewal keep entries alive from the child
    /// side indefinitely; the parent-recheck deployment safeguard (paper
    /// §6) bounds how long that may go unverified.
    pub last_parent_contact: SimTime,
    /// Whether the expiry tombstone has already produced a gap sample.
    gap_recorded: bool,
    /// `Some` while this entry counts toward the cache's maintained
    /// fresh-occupancy counters: when its one pair on the expiry heap falls
    /// due, never after `expires_at`. Root hints never expire; they count
    /// at [`SimTime::MAX`] without a pair.
    queued: Option<SimTime>,
}

impl InfraEntry {
    /// Whether the entry is fresh at `now`.
    pub fn is_fresh(&self, now: SimTime) -> bool {
        now < self.expires_at
    }

    /// Addresses usable for contacting the zone, in installation order.
    pub fn server_addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.addrs.iter().map(|&(_, a)| a)
    }

    /// Individual records this entry represents (NS entries + address
    /// entries), for memory accounting.
    pub fn record_count(&self) -> usize {
        self.ns_names.len() + self.addrs.len()
    }

    /// The Figure-3 gap sample of an expired entry used or reinstalled at
    /// `now`, once per expiry.
    fn take_gap_sample(&mut self, now: SimTime) -> Option<GapSample> {
        if self.is_fresh(now) || self.gap_recorded {
            return None;
        }
        self.gap_recorded = true;
        Some(GapSample {
            zone: self.zone.clone(),
            gap: now - self.expires_at,
            ttl: self.ttl,
        })
    }
}

/// A Figure-3 gap sample: a zone's IRRs expired, and the zone was next used
/// `gap` later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapSample {
    /// The zone whose IRRs expired.
    pub zone: Name,
    /// Time from expiry to next use.
    pub gap: SimDuration,
    /// The IRR TTL in force when the entry expired.
    pub ttl: Ttl,
}

/// The per-zone infrastructure cache.
#[derive(Debug, Clone, Default)]
pub struct InfraCache {
    entries: HashMap<Name, InfraEntry>,
    /// Renewal schedule: `(expiry, zone)` pairs for finite entries. Stale
    /// pairs (entry refreshed since scheduling) are skipped on pop.
    schedule: BTreeSet<(SimTime, Name)>,
    gap_samples: Vec<GapSample>,
    /// Occupancy expiry min-heap, one pair per counted entry at its
    /// `queued` time, like `RecordCache`'s: a refresh that extends an entry
    /// pushes nothing, and the due pair re-queues it at its current expiry.
    /// Unlike eviction in `RecordCache`, expired entries stay in the map as
    /// tombstones (Figure 3 needs them) — only their contribution to the
    /// fresh counters is retired.
    expiry: BinaryHeap<Reverse<(SimTime, Name)>>,
    /// Zones counted fresh as of the last advance.
    fresh_zones: usize,
    /// Infrastructure records (NS + address) across counted zones.
    fresh_records: usize,
}

impl InfraCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        InfraCache::default()
    }

    /// Installs the never-expiring root hints.
    pub fn install_root_hints(&mut self, servers: &[(Name, Ipv4Addr)]) {
        let entry = InfraEntry {
            zone: Name::root(),
            ns_names: servers.iter().map(|(n, _)| n.clone()).collect(),
            addrs: servers.to_vec(),
            ttl: Ttl::MAX,
            expires_at: SimTime::MAX,
            source: InfraSource::RootHints,
            credit: 0,
            ds: Vec::new(),
            last_parent_contact: SimTime::MAX,
            gap_recorded: true,
            queued: Some(SimTime::MAX),
        };
        // Hints never expire, so they are counted once and never pushed
        // onto the expiry heap.
        self.fresh_zones += 1;
        self.fresh_records += entry.record_count();
        if let Some(old) = self.entries.insert(Name::root(), entry) {
            if old.queued.is_some() {
                self.fresh_zones -= 1;
                self.fresh_records -= old.record_count();
            }
        }
    }

    /// Looks up the entry for an exact zone (fresh or tombstoned).
    pub fn get(&self, zone: &Name) -> Option<&InfraEntry> {
        self.entries.get(zone)
    }

    /// The deepest ancestor zone of `name` (including `name` itself) with a
    /// fresh entry that has at least one server address.
    ///
    /// Root hints guarantee this returns `Some` once installed.
    pub fn deepest_fresh_ancestor(&self, name: &Name, now: SimTime) -> Option<&InfraEntry> {
        self.deepest_usable_ancestor(name, now, None)
    }

    /// Like [`InfraCache::deepest_fresh_ancestor`], but additionally skips
    /// entries whose delegation has not been confirmed by the parent for
    /// longer than `max_parent_age` — the paper's §6 safeguard that lets
    /// parents reclaim delegations from non-cooperative former owners.
    /// Root hints are exempt.
    pub fn deepest_usable_ancestor(
        &self,
        name: &Name,
        now: SimTime,
        max_parent_age: Option<SimDuration>,
    ) -> Option<&InfraEntry> {
        name.ancestors().find_map(|z| {
            self.entries.get(&z).filter(|e| {
                if !e.is_fresh(now) || e.addrs.is_empty() {
                    return false;
                }
                match max_parent_age {
                    Some(limit) if e.source != InfraSource::RootHints => {
                        now - e.last_parent_contact <= limit
                    }
                    _ => true,
                }
            })
        })
    }

    /// Installs or updates a zone's infrastructure records.
    ///
    /// `refresh` selects the paper's TTL-refresh behaviour: when `true`, a
    /// child-sourced copy arriving while a child-sourced entry is still
    /// fresh resets the expiry; when `false` (vanilla), the duplicate copy
    /// is ignored and the original expiry stands.
    ///
    /// Credibility rules applied in both modes:
    /// * a child copy replaces a fresh parent copy (RFC 2181),
    /// * a repeat parent copy refreshes a fresh parent copy only under
    ///   `refresh`, like a repeat child copy,
    /// * a parent copy with the same NS set never replaces a fresh child
    ///   copy, but confirms the delegation (`last_parent_contact = now`);
    ///   one with a different NS set replaces it (the delegation changed),
    /// * anything replaces an expired entry,
    /// * root hints are never replaced.
    ///
    /// Returns `true` when the entry was (re)installed or refreshed.
    ///
    /// A reinstall updates the entry in place: credit survives expiry (the
    /// paper's renewal policies decrement it per renewal, not per expiry),
    /// DS material survives (only the parent can change it; see
    /// [`InfraCache::set_ds`]), and a child copy keeps the last parent
    /// confirmation time while a parent copy confirms the delegation now.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &mut self,
        zone: Name,
        ns_names: Vec<Name>,
        addrs: Vec<(Name, Ipv4Addr)>,
        ttl: Ttl,
        now: SimTime,
        source: InfraSource,
        refresh: bool,
    ) -> bool {
        if ns_names.is_empty() {
            return false;
        }
        let expires_at = ttl.expires_at(now);
        let Some(entry) = self.entries.get_mut(&zone) else {
            // First-learned entries start the parent-contact clock at
            // installation.
            self.schedule.insert((expires_at, zone.clone()));
            let mut entry = InfraEntry {
                zone: zone.clone(),
                ns_names,
                addrs,
                ttl,
                expires_at,
                source,
                credit: 0,
                ds: Vec::new(),
                last_parent_contact: now,
                gap_recorded: false,
                queued: None,
            };
            if now < expires_at {
                entry.queued = Some(expires_at);
                self.expiry.push(Reverse((expires_at, zone.clone())));
                self.fresh_zones += 1;
                self.fresh_records += entry.record_count();
            }
            self.entries.insert(zone, entry);
            return true;
        };
        if entry.source == InfraSource::RootHints {
            return false;
        }
        if entry.is_fresh(now) {
            let replace = match (entry.source, source) {
                // Child data replaces parent data…
                (InfraSource::Parent, InfraSource::Child) => true,
                // …and refreshes itself only when the scheme is on.
                (InfraSource::Child, InfraSource::Child) => refresh,
                // Parent data never displaces fresh data. A repeat
                // parent copy while a parent copy is fresh is the same
                // data; refreshing it is also gated on the scheme.
                (InfraSource::Parent, InfraSource::Parent) => refresh,
                // A fresh child copy resists parent data with the same
                // NS set (RFC 2181 ranking) — but the parent copy still
                // *confirms* the delegation for the §6 recheck clock.
                // A *different* parent NS set means the delegation
                // changed (e.g. the zone was reclaimed): parent wins.
                (InfraSource::Child, InfraSource::Parent) => {
                    let mut held = entry.ns_names.clone();
                    let mut offered = ns_names.clone();
                    held.sort();
                    offered.sort();
                    if held == offered {
                        entry.last_parent_contact = now;
                        return false;
                    }
                    true
                }
                (InfraSource::RootHints, _) | (_, InfraSource::RootHints) => false,
            };
            if !replace {
                return false;
            }
        } else if let Some(sample) = entry.take_gap_sample(now) {
            // Reinstalling after expiry: record the Figure-3 gap.
            self.gap_samples.push(sample);
        }
        if entry.expires_at != expires_at {
            self.schedule.remove(&(entry.expires_at, zone.clone()));
        }
        // Re-adds the pair when unchanged too: a renewal pop may have
        // consumed it.
        self.schedule.insert((expires_at, zone.clone()));
        let old_records = entry.record_count();
        entry.ns_names = ns_names;
        entry.addrs = addrs;
        entry.ttl = ttl;
        entry.expires_at = expires_at;
        entry.source = source;
        entry.gap_recorded = false;
        if source == InfraSource::Parent {
            entry.last_parent_contact = now;
        }
        let new_records = entry.record_count();
        match (entry.queued, now < expires_at) {
            (Some(queued), true) => {
                self.fresh_records = self.fresh_records - old_records + new_records;
                if expires_at < queued {
                    entry.queued = Some(expires_at);
                    self.expiry.push(Reverse((expires_at, zone)));
                }
            }
            (Some(_), false) => {
                entry.queued = None;
                self.fresh_zones -= 1;
                self.fresh_records -= old_records;
            }
            (None, true) => {
                entry.queued = Some(expires_at);
                self.expiry.push(Reverse((expires_at, zone)));
                self.fresh_zones += 1;
                self.fresh_records += new_records;
            }
            (None, false) => {}
        }
        true
    }

    /// Retires the counter contribution of every entry whose expiry is at
    /// or before `now`. Entries themselves stay in the map as tombstones;
    /// cost is O(log n) per due heap pair rather than a full scan.
    fn advance_expiry(&mut self, now: SimTime) {
        while self
            .expiry
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= now)
        {
            let Reverse((at, zone)) = self.expiry.pop().expect("peeked");
            let Some(entry) = self.entries.get_mut(&zone) else {
                continue;
            };
            if entry.queued != Some(at) {
                continue; // superseded, or the entry was uncounted since
            }
            if entry.expires_at <= now {
                entry.queued = None;
                self.fresh_zones -= 1;
                self.fresh_records -= entry.record_count();
            } else {
                // Refreshed since it was queued: due again at its expiry.
                entry.queued = Some(entry.expires_at);
                self.expiry.push(Reverse((entry.expires_at, zone)));
            }
        }
    }

    /// Notes a demand use of `zone` at `now`: records a pending gap sample
    /// if the entry is an unconsumed tombstone, and (when a renewal policy
    /// is active) grants credit.
    pub fn record_use(&mut self, zone: &Name, now: SimTime, policy: Option<&RenewalPolicy>) {
        self.note_gap(zone, now);
        if let (Some(policy), Some(entry)) = (policy, self.entries.get_mut(zone)) {
            if entry.source != InfraSource::RootHints {
                entry.credit = policy.credit_on_use(entry.credit, entry.ttl);
            }
        }
    }

    /// Consumes one renewal credit for `zone`, returning the entry snapshot
    /// to renew from, or `None` when the zone has no credit (or no entry).
    pub fn consume_renewal_credit(&mut self, zone: &Name) -> Option<InfraEntry> {
        let entry = self.entries.get_mut(zone)?;
        if entry.credit == 0 || entry.source == InfraSource::RootHints {
            return None;
        }
        entry.credit -= 1;
        Some(entry.clone())
    }

    /// The next scheduled expiry at or before `upto` whose entry still
    /// expires at that instant and has renewal credit. Stale schedule pairs
    /// are discarded as encountered.
    pub fn next_renewal_due(&mut self, upto: SimTime) -> Option<(SimTime, Name)> {
        while let Some((at, zone)) = self.schedule.first().cloned() {
            if at > upto {
                return None;
            }
            self.schedule.remove(&(at, zone.clone()));
            if let Some(entry) = self.entries.get(&zone) {
                if entry.expires_at == at && entry.credit > 0 {
                    return Some((at, zone));
                }
            }
        }
        None
    }

    /// Earliest scheduled expiry with positive credit (peek, no mutation of
    /// entries; stale pairs are discarded).
    pub fn peek_renewal_due(&mut self) -> Option<SimTime> {
        while let Some((at, zone)) = self.schedule.first().cloned() {
            match self.entries.get(&zone) {
                Some(entry) if entry.expires_at == at && entry.credit > 0 => {
                    return Some(at);
                }
                Some(entry) if entry.expires_at == at => return self.peek_after(at),
                _ => {
                    self.schedule.remove(&(at, zone));
                }
            }
        }
        None
    }

    fn peek_after(&self, after: SimTime) -> Option<SimTime> {
        self.schedule
            .iter()
            .find(|(at, zone)| {
                *at >= after
                    && self
                        .entries
                        .get(zone)
                        .is_some_and(|e| e.expires_at == *at && e.credit > 0)
            })
            .map(|&(at, _)| at)
    }

    fn note_gap(&mut self, zone: &Name, now: SimTime) {
        if let Some(sample) = self
            .entries
            .get_mut(zone)
            .and_then(|e| e.take_gap_sample(now))
        {
            self.gap_samples.push(sample);
        }
    }

    /// Drains the Figure-3 gap samples collected so far.
    pub fn take_gap_samples(&mut self) -> Vec<GapSample> {
        std::mem::take(&mut self.gap_samples)
    }

    /// Records the DS material the parent published for `zone`. Called by
    /// the resolver when a referral carries DS records (paper §6: DNSSEC
    /// infrastructure records are cached with the other IRRs).
    pub fn set_ds(&mut self, zone: &Name, ds: Vec<(u16, u32)>) {
        if let Some(entry) = self.entries.get_mut(zone) {
            if entry.source != InfraSource::RootHints && !ds.is_empty() {
                entry.ds = ds;
            }
        }
    }

    /// Moves `addr` to the front of a zone's server list. The resolver
    /// calls this after a failover succeeds, so later queries try the
    /// known-responsive server first instead of re-paying timeouts on a
    /// dead one ("the next server in the IRR is queried" — paper §4; once
    /// one answers, prefer it).
    pub fn promote_address(&mut self, zone: &Name, addr: Ipv4Addr) {
        if let Some(entry) = self.entries.get_mut(zone) {
            if let Some(pos) = entry.addrs.iter().position(|&(_, a)| a == addr) {
                if pos > 0 {
                    let pair = entry.addrs.remove(pos);
                    entry.addrs.insert(0, pair);
                }
            }
        }
    }

    /// Attaches freshly learned addresses to an existing entry (used when a
    /// server name was resolved out-of-bailiwick, so the original referral
    /// carried no glue). Unknown server names and duplicates are ignored.
    pub fn add_addresses(&mut self, zone: &Name, pairs: &[(Name, Ipv4Addr)]) {
        if let Some(entry) = self.entries.get_mut(zone) {
            for (ns, addr) in pairs {
                if entry.ns_names.contains(ns) && !entry.addrs.iter().any(|(n, _)| n == ns) {
                    entry.addrs.push((ns.clone(), *addr));
                    if entry.queued.is_some() {
                        self.fresh_records += 1;
                    }
                }
            }
        }
    }

    /// Number of zones with fresh entries at `now` (maintained counter
    /// behind the expiry heap; `now` must not move backwards).
    pub fn fresh_zone_count(&mut self, now: SimTime) -> usize {
        self.advance_expiry(now);
        self.fresh_zones
    }

    /// Total infrastructure records across fresh entries at `now`
    /// (maintained counter; `now` must not move backwards).
    pub fn fresh_record_count(&mut self, now: SimTime) -> usize {
        self.advance_expiry(now);
        self.fresh_records
    }

    /// Total entries including tombstones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops tombstones that expired more than `retention` before `now`
    /// and have already been sampled. Returns how many were dropped.
    pub fn purge_tombstones(&mut self, now: SimTime, retention: SimDuration) -> usize {
        // Retire due counter contributions first so every entry this scan
        // drops is already uncounted (dropped entries are stale by
        // definition). Their leftover heap pairs pop onto missing map
        // entries later and are skipped.
        self.advance_expiry(now);
        let before = self.entries.len();
        self.entries
            .retain(|_, e| e.is_fresh(now) || !e.gap_recorded || now - e.expires_at <= retention);
        before - self.entries.len()
    }
}

impl fmt::Display for InfraCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "infra cache ({} zones)", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn cache_with_root() -> InfraCache {
        let mut c = InfraCache::new();
        c.install_root_hints(&[(name("a.root-servers.net"), ip(4))]);
        c
    }

    fn install_ucla(c: &mut InfraCache, now: SimTime, source: InfraSource, refresh: bool) -> bool {
        c.install(
            name("ucla.edu"),
            vec![name("ns1.ucla.edu")],
            vec![(name("ns1.ucla.edu"), ip(1))],
            Ttl::from_hours(12),
            now,
            source,
            refresh,
        )
    }

    #[test]
    fn root_hints_never_expire_or_get_replaced() {
        let mut c = cache_with_root();
        let entry = c
            .deepest_fresh_ancestor(&name("anything.com"), SimTime::from_days(400))
            .unwrap();
        assert!(entry.zone.is_root());
        // A parent/child copy cannot displace the hints.
        assert!(!c.install(
            Name::root(),
            vec![name("evil.example")],
            vec![(name("evil.example"), ip(66))],
            Ttl::from_days(7),
            SimTime::ZERO,
            InfraSource::Child,
            true,
        ));
    }

    #[test]
    fn deepest_fresh_ancestor_prefers_deeper_zone() {
        let mut c = cache_with_root();
        c.install(
            name("edu"),
            vec![name("ns.edu")],
            vec![(name("ns.edu"), ip(2))],
            Ttl::from_days(2),
            SimTime::ZERO,
            InfraSource::Parent,
            false,
        );
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        let e = c
            .deepest_fresh_ancestor(&name("www.ucla.edu"), SimTime::from_hours(1))
            .unwrap();
        assert_eq!(e.zone, name("ucla.edu"));
        // After ucla's 12h TTL, falls back to edu.
        let e = c
            .deepest_fresh_ancestor(&name("www.ucla.edu"), SimTime::from_hours(13))
            .unwrap();
        assert_eq!(e.zone, name("edu"));
    }

    #[test]
    fn entries_without_addresses_are_skipped() {
        let mut c = cache_with_root();
        c.install(
            name("edu"),
            vec![name("ns.edu")],
            vec![], // NS known but no address
            Ttl::from_days(2),
            SimTime::ZERO,
            InfraSource::Parent,
            false,
        );
        let e = c
            .deepest_fresh_ancestor(&name("www.ucla.edu"), SimTime::ZERO)
            .unwrap();
        assert!(e.zone.is_root());
    }

    #[test]
    fn vanilla_child_copy_does_not_refresh() {
        let mut c = cache_with_root();
        assert!(install_ucla(
            &mut c,
            SimTime::ZERO,
            InfraSource::Child,
            false
        ));
        // A later duplicate child copy is ignored without refresh.
        assert!(!install_ucla(
            &mut c,
            SimTime::from_hours(6),
            InfraSource::Child,
            false
        ));
        let e = c.get(&name("ucla.edu")).unwrap();
        assert_eq!(e.expires_at, SimTime::from_hours(12));
    }

    #[test]
    fn refresh_resets_expiry_on_child_copy() {
        let mut c = cache_with_root();
        assert!(install_ucla(
            &mut c,
            SimTime::ZERO,
            InfraSource::Child,
            true
        ));
        assert!(install_ucla(
            &mut c,
            SimTime::from_hours(6),
            InfraSource::Child,
            true
        ));
        let e = c.get(&name("ucla.edu")).unwrap();
        assert_eq!(e.expires_at, SimTime::from_hours(18));
    }

    #[test]
    fn child_replaces_fresh_parent_but_not_vice_versa() {
        let mut c = cache_with_root();
        assert!(install_ucla(
            &mut c,
            SimTime::ZERO,
            InfraSource::Parent,
            false
        ));
        assert!(install_ucla(
            &mut c,
            SimTime::from_hours(1),
            InfraSource::Child,
            false
        ));
        assert_eq!(c.get(&name("ucla.edu")).unwrap().source, InfraSource::Child);
        // Fresh child entry resists parent data.
        assert!(!install_ucla(
            &mut c,
            SimTime::from_hours(2),
            InfraSource::Parent,
            false
        ));
        assert_eq!(c.get(&name("ucla.edu")).unwrap().source, InfraSource::Child);
    }

    #[test]
    fn anything_replaces_expired_entry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        assert!(install_ucla(
            &mut c,
            SimTime::from_days(1),
            InfraSource::Parent,
            false
        ));
        assert_eq!(
            c.get(&name("ucla.edu")).unwrap().source,
            InfraSource::Parent
        );
    }

    #[test]
    fn gap_recorded_once_per_expiry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        // Expires at 12h; used again at 15h → gap of 3h.
        c.record_use(&name("ucla.edu"), SimTime::from_hours(15), None);
        c.record_use(&name("ucla.edu"), SimTime::from_hours(16), None);
        let samples = c.take_gap_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].gap, SimDuration::from_hours(3));
        assert_eq!(samples[0].ttl, Ttl::from_hours(12));
        assert!(c.take_gap_samples().is_empty());
    }

    #[test]
    fn gap_also_recorded_when_reinstalled_after_expiry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        install_ucla(&mut c, SimTime::from_hours(20), InfraSource::Parent, false);
        let samples = c.take_gap_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].gap, SimDuration::from_hours(8));
    }

    #[test]
    fn credit_flows_through_policy_and_renewal() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        let policy = RenewalPolicy::lru(2);
        c.record_use(&name("ucla.edu"), SimTime::from_hours(1), Some(&policy));
        assert_eq!(c.get(&name("ucla.edu")).unwrap().credit, 2);

        let snap = c.consume_renewal_credit(&name("ucla.edu")).unwrap();
        assert_eq!(snap.credit, 1); // snapshot reflects decremented value
        assert_eq!(c.get(&name("ucla.edu")).unwrap().credit, 1);
        assert!(c.consume_renewal_credit(&name("ucla.edu")).is_some());
        assert!(c.consume_renewal_credit(&name("ucla.edu")).is_none());
    }

    #[test]
    fn credit_survives_reinstall_after_expiry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        let policy = RenewalPolicy::lfu(3);
        c.record_use(&name("ucla.edu"), SimTime::from_hours(1), Some(&policy));
        // Entry expires at 12h; reinstalled at 20h.
        install_ucla(&mut c, SimTime::from_hours(20), InfraSource::Parent, true);
        assert_eq!(c.get(&name("ucla.edu")).unwrap().credit, 3);
    }

    #[test]
    fn renewal_schedule_pops_due_entries_in_order() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true); // expires 12h
        c.install(
            name("mit.edu"),
            vec![name("ns.mit.edu")],
            vec![(name("ns.mit.edu"), ip(9))],
            Ttl::from_hours(6),
            SimTime::ZERO,
            InfraSource::Child,
            true,
        ); // expires 6h
        let policy = RenewalPolicy::lru(1);
        c.record_use(&name("ucla.edu"), SimTime::from_mins(1), Some(&policy));
        c.record_use(&name("mit.edu"), SimTime::from_mins(1), Some(&policy));

        assert_eq!(c.peek_renewal_due(), Some(SimTime::from_hours(6)));
        let (at, zone) = c.next_renewal_due(SimTime::from_days(1)).unwrap();
        assert_eq!((at, zone), (SimTime::from_hours(6), name("mit.edu")));
        let (at, zone) = c.next_renewal_due(SimTime::from_days(1)).unwrap();
        assert_eq!((at, zone), (SimTime::from_hours(12), name("ucla.edu")));
        assert!(c.next_renewal_due(SimTime::from_days(1)).is_none());
    }

    #[test]
    fn schedule_skips_zones_without_credit() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        // No record_use → no credit → nothing due.
        assert!(c.next_renewal_due(SimTime::from_days(2)).is_none());
        assert_eq!(c.peek_renewal_due(), None);
    }

    #[test]
    fn refresh_invalidates_old_schedule_entry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        let policy = RenewalPolicy::lru(1);
        c.record_use(&name("ucla.edu"), SimTime::from_mins(1), Some(&policy));
        // Refresh at 6h pushes expiry to 18h; the 12h schedule entry is
        // stale and must not fire.
        install_ucla(&mut c, SimTime::from_hours(6), InfraSource::Child, true);
        let (at, _) = c.next_renewal_due(SimTime::from_days(1)).unwrap();
        assert_eq!(at, SimTime::from_hours(18));
    }

    #[test]
    fn matching_parent_copy_confirms_without_replacing() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        // Same NS set from the parent at hour 3: entry untouched, but the
        // parent-contact clock resets.
        assert!(!install_ucla(
            &mut c,
            SimTime::from_hours(3),
            InfraSource::Parent,
            true
        ));
        let e = c.get(&name("ucla.edu")).unwrap();
        assert_eq!(e.source, InfraSource::Child);
        assert_eq!(e.expires_at, SimTime::from_hours(12));
        assert_eq!(e.last_parent_contact, SimTime::from_hours(3));
    }

    #[test]
    fn changed_parent_delegation_replaces_fresh_child_entry() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true);
        // The parent now lists a different server: delegation reclaimed.
        assert!(c.install(
            name("ucla.edu"),
            vec![name("ns9.ucla.edu")],
            vec![(name("ns9.ucla.edu"), ip(9))],
            Ttl::from_hours(12),
            SimTime::from_hours(3),
            InfraSource::Parent,
            true,
        ));
        let e = c.get(&name("ucla.edu")).unwrap();
        assert_eq!(e.ns_names, vec![name("ns9.ucla.edu")]);
        assert_eq!(e.source, InfraSource::Parent);
    }

    #[test]
    fn parent_staleness_gates_usability() {
        let mut c = cache_with_root();
        // Child-sourced entry confirmed by parent at t=0 only.
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Parent, true);
        install_ucla(&mut c, SimTime::from_secs(1), InfraSource::Child, true);
        let probe = name("www.ucla.edu");
        let limit = Some(SimDuration::from_hours(4));
        // Within the limit the deep entry is used…
        let e = c
            .deepest_usable_ancestor(&probe, SimTime::from_hours(3), limit)
            .unwrap();
        assert_eq!(e.zone, name("ucla.edu"));
        // …after it, resolution falls back to the root (forcing a walk
        // through the parent).
        let e = c
            .deepest_usable_ancestor(&probe, SimTime::from_hours(5), limit)
            .unwrap();
        assert!(e.zone.is_root());
        // Without a limit the entry stays usable until TTL expiry.
        let e = c
            .deepest_usable_ancestor(&probe, SimTime::from_hours(5), None)
            .unwrap();
        assert_eq!(e.zone, name("ucla.edu"));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        // Root (1 ns + 1 addr) + ucla (1 ns + 1 addr).
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(1)), 2);
        assert_eq!(c.fresh_record_count(SimTime::from_hours(1)), 4);
        assert_eq!(c.fresh_zone_count(SimTime::from_days(1)), 1);
    }

    #[test]
    fn child_refreshed_1000_times_holds_one_heap_pair() {
        let mut c = cache_with_root();
        for i in 0..1000 {
            assert!(install_ucla(
                &mut c,
                SimTime::from_mins(i),
                InfraSource::Child,
                true
            ));
        }
        assert_eq!(c.expiry.len(), 1);
        let last_expiry = SimTime::from_mins(999) + SimDuration::from_hours(12);
        // The first expiry re-queues the refreshed entry instead of
        // uncounting it.
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(12)), 2);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.fresh_zone_count(last_expiry), 1);
        assert_eq!(c.fresh_record_count(last_expiry), 2);
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn earlier_expiry_reinstall_leaves_at_most_two_pairs() {
        let mut c = cache_with_root();
        for i in 0..1000 {
            install_ucla(&mut c, SimTime::from_secs(i), InfraSource::Child, true);
        }
        // The parent reclaims the delegation with a TTL that ends before
        // the queued 12-hour pair.
        assert!(c.install(
            name("ucla.edu"),
            vec![name("ns9.ucla.edu")],
            vec![],
            Ttl::from_hours(1),
            SimTime::from_hours(10),
            InfraSource::Parent,
            true,
        ));
        assert_eq!(c.expiry.len(), 2);
        assert_eq!(c.fresh_record_count(SimTime::from_hours(10)), 3);
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(11)), 1);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.fresh_zone_count(SimTime::from_days(2)), 1);
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn superseded_pair_of_a_counted_entry_is_dropped_not_requeued() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, true); // queued at 12 h
        let reclaim = |c: &mut InfraCache, hours: u64, ttl: Ttl, ns: &str| {
            c.install(
                name("ucla.edu"),
                vec![name(ns)],
                vec![],
                ttl,
                SimTime::from_hours(hours),
                InfraSource::Parent,
                true,
            )
        };
        assert!(reclaim(&mut c, 1, Ttl::from_hours(1), "ns9.ucla.edu")); // queued at 2 h
        assert!(reclaim(&mut c, 1, Ttl::from_days(1), "ns9.ucla.edu")); // extended to 25 h
        assert_eq!(c.expiry.len(), 2);
        // The live pair re-queues the entry at its expiry...
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(2)), 2);
        assert_eq!(c.expiry.len(), 2);
        // ...and the superseded 12-hour pair is dropped when it falls due.
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(12)), 2);
        assert_eq!(c.expiry.len(), 1);
        assert_eq!(c.fresh_zone_count(SimTime::from_hours(25)), 1);
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn purge_tombstones_respects_retention_and_sampling() {
        let mut c = cache_with_root();
        install_ucla(&mut c, SimTime::ZERO, InfraSource::Child, false);
        // Expired but unsampled: retained regardless of age.
        assert_eq!(
            c.purge_tombstones(SimTime::from_days(30), SimDuration::from_days(1)),
            0
        );
        c.record_use(&name("ucla.edu"), SimTime::from_days(30), None);
        assert_eq!(
            c.purge_tombstones(SimTime::from_days(60), SimDuration::from_days(1)),
            1
        );
        assert!(c.get(&name("ucla.edu")).is_none());
    }
}
