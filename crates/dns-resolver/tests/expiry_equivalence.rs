//! Randomized equivalence between the amortized expiry bookkeeping (expiry
//! min-heaps + maintained counters) and a naive full-scan model.
//!
//! Both caches promise that, at any monotone sequence of observation times,
//! `fresh_*` counts equal what a retain-scan over all live entries would
//! report. The heap discipline (one pair per entry, re-queued when a
//! re-insert extended the entry and superseded when one moved its expiry
//! earlier; tombstones that must survive uncounting) is exactly the kind of
//! bookkeeping that rots silently, so we drive randomized insert/expire
//! schedules against a model that stores nothing but `(expiry,
//! record-count)` pairs and scans on every probe. The infrastructure model
//! also carries the install rules, so every entry field they decide is
//! checked after every step.

use dns_core::{Name, RData, Record, RecordType, RrSet, SimDuration, SimTime, Ttl};
use dns_resolver::{
    Credibility, InfraCache, InfraSource, NegativeKind, RecordCache, RenewalPolicy,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A small pool so random ops collide on the same keys often.
fn pool_name(idx: usize) -> Name {
    format!("z{idx}.example").parse().unwrap()
}

fn a_set(name: &Name, records: usize, ttl: Ttl) -> RrSet {
    let recs: Vec<Record> = (0..records)
        .map(|i| {
            Record::new(
                name.clone(),
                ttl,
                RData::A(Ipv4Addr::new(192, 0, 2, i as u8 + 1)),
            )
        })
        .collect();
    RrSet::from_records(&recs).unwrap()
}

/// One step of a randomized schedule. Times advance by `dt` before the op.
#[derive(Debug, Clone)]
enum RecordOp {
    Insert {
        name: usize,
        records: usize,
        ttl_secs: u32,
        credibility: Credibility,
    },
    InsertNegative {
        name: usize,
        ttl_secs: u32,
    },
    /// Purge, then compare every counter against the scan model.
    Sample,
}

fn arb_credibility() -> impl Strategy<Value = Credibility> {
    prop_oneof![
        Just(Credibility::Additional),
        Just(Credibility::NonAuthAuthority),
        Just(Credibility::AuthAuthority),
        Just(Credibility::AuthAnswer),
    ]
}

fn arb_record_op() -> impl Strategy<Value = (u32, RecordOp)> {
    let op = prop_oneof![
        (0usize..8, 1usize..=3, 0u32..90, arb_credibility()).prop_map(
            |(name, records, ttl_secs, credibility)| RecordOp::Insert {
                name,
                records,
                ttl_secs,
                credibility,
            }
        ),
        (0usize..8, 0u32..90)
            .prop_map(|(name, ttl_secs)| RecordOp::InsertNegative { name, ttl_secs }),
        Just(RecordOp::Sample),
    ];
    (0u32..40, op)
}

/// The naive model: everything a retain-scan implementation would store.
#[derive(Default)]
struct RecordModel {
    /// key → (expires_at, record count, credibility)
    positives: HashMap<(usize, RecordType), (SimTime, usize, Credibility)>,
    negatives: HashMap<(usize, RecordType), SimTime>,
}

impl RecordModel {
    /// Same credibility rule as `RecordCache::insert`: a fresh entry of
    /// strictly higher credibility is never overwritten.
    fn insert(
        &mut self,
        name: usize,
        records: usize,
        ttl_secs: u32,
        credibility: Credibility,
        now: SimTime,
    ) -> bool {
        let key = (name, RecordType::A);
        if let Some(&(exp, _, cred)) = self.positives.get(&key) {
            if now < exp && cred > credibility {
                return false;
            }
        }
        let exp = Ttl::from_secs(ttl_secs).expires_at(now);
        self.positives.insert(key, (exp, records, credibility));
        true
    }

    /// Retain-scan purge: drop everything expired at or before `now`,
    /// returning how many entries (positive + negative) went.
    fn purge(&mut self, now: SimTime) -> usize {
        let before = self.positives.len() + self.negatives.len();
        self.positives.retain(|_, &mut (exp, _, _)| now < exp);
        self.negatives.retain(|_, &mut exp| now < exp);
        before - self.positives.len() - self.negatives.len()
    }

    fn fresh_record_count(&self) -> usize {
        self.positives.values().map(|&(_, n, _)| n).sum()
    }
}

proptest! {
    /// `RecordCache`'s amortized counters match the retain-scan model on
    /// arbitrary monotone insert/expire schedules.
    #[test]
    fn record_cache_matches_scan_model(ops in proptest::collection::vec(arb_record_op(), 1..60)) {
        let mut cache = RecordCache::new();
        let mut model = RecordModel::default();
        let mut now = SimTime::ZERO;

        for (dt, op) in ops {
            now += SimDuration::from_secs(dt as u64);
            match op {
                RecordOp::Insert { name, records, ttl_secs, credibility } => {
                    let set = a_set(&pool_name(name), records, Ttl::from_secs(ttl_secs));
                    let stored = cache.insert(set, now, credibility);
                    let model_stored = model.insert(name, records, ttl_secs, credibility, now);
                    prop_assert_eq!(stored, model_stored);
                }
                RecordOp::InsertNegative { name, ttl_secs } => {
                    cache.insert_negative(
                        pool_name(name),
                        RecordType::A,
                        NegativeKind::NxDomain,
                        Ttl::from_secs(ttl_secs),
                        now,
                    );
                    model
                        .negatives
                        .insert((name, RecordType::A), Ttl::from_secs(ttl_secs).expires_at(now));
                }
                RecordOp::Sample => {
                    prop_assert_eq!(cache.purge_expired(now), model.purge(now));
                    prop_assert_eq!(cache.fresh_len(now), model.positives.len());
                    prop_assert_eq!(cache.fresh_record_count(now), model.fresh_record_count());
                    prop_assert_eq!(cache.len(), model.positives.len());
                    // Per-key lookups agree with the model's freshness view.
                    for idx in 0..8 {
                        let name = pool_name(idx);
                        let hit = cache.get(&name, RecordType::A, now).is_some();
                        let model_hit = model
                            .positives
                            .get(&(idx, RecordType::A))
                            .is_some_and(|&(exp, _, _)| now < exp);
                        prop_assert_eq!(hit, model_hit);
                        let neg = cache.get_negative(&name, RecordType::A, now).is_some();
                        let model_neg = model
                            .negatives
                            .get(&(idx, RecordType::A))
                            .is_some_and(|&exp| now < exp);
                        prop_assert_eq!(neg, model_neg);
                    }
                }
            }
        }
        // Final settlement at a time past every possible expiry.
        let end = now + SimDuration::from_secs(120);
        cache.purge_expired(end);
        model.purge(end);
        prop_assert_eq!(cache.fresh_len(end), 0);
        prop_assert_eq!(cache.fresh_record_count(end), 0);
    }
}

/// One step of a randomized infrastructure schedule.
#[derive(Debug, Clone)]
enum InfraOp {
    /// Install `ns0..ns{ns_count}` of `zone` (listed in reverse when
    /// `reversed`, the same NS set in another order) with glue for the
    /// first `glue_count`.
    Install {
        zone: usize,
        ns_count: usize,
        reversed: bool,
        glue_count: usize,
        ttl_secs: u32,
        source: InfraSource,
        refresh: bool,
    },
    /// Attach an out-of-bailiwick address for `ns{ns}` of `zone`.
    AddAddress {
        zone: usize,
        ns: usize,
    },
    /// A demand use of `zone`, granting credit under `policy`.
    RecordUse {
        zone: usize,
        policy: Option<RenewalPolicy>,
    },
    /// DS material from the parent (ignored when empty).
    SetDs {
        zone: usize,
        ds: Vec<(u16, u32)>,
    },
    Sample,
}

fn arb_infra_op() -> impl Strategy<Value = (u32, InfraOp)> {
    let source = prop_oneof![Just(InfraSource::Parent), Just(InfraSource::Child)];
    let policy = prop_oneof![
        Just(None),
        Just(Some(RenewalPolicy::lru(2))),
        Just(Some(RenewalPolicy::lfu(1))),
        Just(Some(RenewalPolicy::adaptive_lfu(1))),
    ];
    let op = prop_oneof![
        (
            0usize..6,
            1usize..=3,
            any::<bool>(),
            0usize..=3,
            0u32..90,
            source,
            any::<bool>()
        )
            .prop_map(
                |(zone, ns_count, reversed, glue_count, ttl_secs, source, refresh)| {
                    InfraOp::Install {
                        zone,
                        ns_count,
                        reversed,
                        glue_count: glue_count.min(ns_count),
                        ttl_secs,
                        source,
                        refresh,
                    }
                }
            ),
        (0usize..6, 0usize..3).prop_map(|(zone, ns)| InfraOp::AddAddress { zone, ns }),
        (0usize..6, policy).prop_map(|(zone, policy)| InfraOp::RecordUse { zone, policy }),
        (
            0usize..6,
            proptest::collection::vec((0u16..4, 0u32..4), 0..=2)
        )
            .prop_map(|(zone, ds)| InfraOp::SetDs { zone, ds }),
        Just(InfraOp::Sample),
    ];
    // Steps shorter than the record schedule's keep more entries fresh
    // when the next copy of their zone arrives.
    (0u32..20, op)
}

fn ns_name(zone: usize, ns: usize) -> Name {
    format!("ns{ns}.z{zone}.example").parse().unwrap()
}

/// Model entry: every field of `InfraEntry` the install rules decide.
#[derive(Debug, Clone, PartialEq)]
struct InfraModelEntry {
    ns_names: Vec<usize>,
    addrs: Vec<usize>,
    ttl: Ttl,
    expires_at: SimTime,
    source: InfraSource,
    credit: u32,
    ds: Vec<(u16, u32)>,
    last_parent_contact: SimTime,
    gap_recorded: bool,
}

/// The install rules documented on `InfraCache::install`, over a plain
/// map, plus the gap samples they emit as `(zone, gap, ttl)`.
#[derive(Default)]
struct InfraModel {
    entries: HashMap<usize, InfraModelEntry>,
    gaps: Vec<(usize, SimDuration, Ttl)>,
}

impl InfraModel {
    fn note_gap(&mut self, zone: usize, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&zone) {
            if e.expires_at <= now && !e.gap_recorded {
                e.gap_recorded = true;
                self.gaps.push((zone, now - e.expires_at, e.ttl));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        zone: usize,
        ns_names: Vec<usize>,
        addrs: Vec<usize>,
        ttl: Ttl,
        now: SimTime,
        source: InfraSource,
        refresh: bool,
    ) -> bool {
        let expires_at = ttl.expires_at(now);
        let Some(e) = self.entries.get(&zone) else {
            self.entries.insert(
                zone,
                InfraModelEntry {
                    ns_names,
                    addrs,
                    ttl,
                    expires_at,
                    source,
                    credit: 0,
                    ds: Vec::new(),
                    last_parent_contact: now,
                    gap_recorded: false,
                },
            );
            return true;
        };
        if now < e.expires_at {
            let replace = match (e.source, source) {
                (InfraSource::Parent, InfraSource::Child) => true,
                (InfraSource::Child, InfraSource::Child)
                | (InfraSource::Parent, InfraSource::Parent) => refresh,
                (InfraSource::Child, InfraSource::Parent) => {
                    let (mut held, mut offered) = (e.ns_names.clone(), ns_names.clone());
                    held.sort_unstable();
                    offered.sort_unstable();
                    if held == offered {
                        self.entries.get_mut(&zone).unwrap().last_parent_contact = now;
                        return false;
                    }
                    true
                }
                _ => unreachable!("no root hints in this universe"),
            };
            if !replace {
                return false;
            }
        } else {
            self.note_gap(zone, now);
        }
        let e = self.entries.get_mut(&zone).unwrap();
        e.ns_names = ns_names;
        e.addrs = addrs;
        e.ttl = ttl;
        e.expires_at = expires_at;
        e.source = source;
        e.gap_recorded = false;
        if source == InfraSource::Parent {
            e.last_parent_contact = now;
        }
        true
    }

    fn fresh(&self, now: SimTime) -> impl Iterator<Item = &InfraModelEntry> {
        self.entries.values().filter(move |e| now < e.expires_at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `InfraCache` follows the install rules (source ranking, refresh on
    /// and off, parent confirmation, credit and DS surviving reinstalls,
    /// gap samples), and its amortized fresh counters match a retain-scan
    /// model, including re-installs over tombstones and post-install
    /// address attachment.
    #[test]
    fn infra_cache_matches_scan_model(ops in proptest::collection::vec(arb_infra_op(), 1..60)) {
        let mut cache = InfraCache::new();
        let mut model = InfraModel::default();
        let mut now = SimTime::ZERO;

        for (dt, op) in ops {
            now += SimDuration::from_secs(dt as u64);
            match op {
                InfraOp::Install { zone, ns_count, reversed, glue_count, ttl_secs, source, refresh } => {
                    let mut order: Vec<usize> = (0..ns_count).collect();
                    if reversed {
                        order.reverse();
                    }
                    let ns: Vec<Name> = order.iter().map(|&i| ns_name(zone, i)).collect();
                    let glue: Vec<(Name, Ipv4Addr)> = (0..glue_count)
                        .map(|i| (ns_name(zone, i), Ipv4Addr::new(10, 0, zone as u8, i as u8)))
                        .collect();
                    let ttl = Ttl::from_secs(ttl_secs);
                    let glue = glue.iter().map(|(n, a)| (n, *a));
                    let installed =
                        cache.install(&pool_name(zone), &ns, glue, ttl, now, source, refresh).is_some();
                    let model_installed =
                        model.install(zone, order, (0..glue_count).collect(), ttl, now, source, refresh);
                    prop_assert_eq!(installed, model_installed);
                }
                InfraOp::AddAddress { zone, ns } => {
                    let pair = vec![(ns_name(zone, ns), Ipv4Addr::new(10, 1, zone as u8, ns as u8))];
                    cache.add_addresses(&pool_name(zone), &pair);
                    if let Some(entry) = model.entries.get_mut(&zone) {
                        if entry.ns_names.contains(&ns) && !entry.addrs.contains(&ns) {
                            entry.addrs.push(ns);
                        }
                    }
                }
                InfraOp::RecordUse { zone, policy } => {
                    cache.record_use(&pool_name(zone), now, policy.as_ref());
                    model.note_gap(zone, now);
                    if let (Some(policy), Some(e)) = (policy, model.entries.get_mut(&zone)) {
                        e.credit = policy.credit_on_use(e.credit, e.ttl);
                    }
                }
                InfraOp::SetDs { zone, ds } => {
                    cache.set_ds(&pool_name(zone), ds.clone());
                    if let Some(e) = model.entries.get_mut(&zone) {
                        if !ds.is_empty() {
                            e.ds = ds;
                        }
                    }
                }
                InfraOp::Sample => {
                    let fresh_zones = model.fresh(now).count();
                    let fresh_records: usize =
                        model.fresh(now).map(|e| e.ns_names.len() + e.addrs.len()).sum();
                    prop_assert_eq!(cache.fresh_zone_count(now), fresh_zones);
                    prop_assert_eq!(cache.fresh_record_count(now), fresh_records);
                    // Tombstones persist: every installed zone stays listed.
                    prop_assert_eq!(cache.len(), model.entries.len());
                }
            }
            // Every zone's entry matches the model after every op.
            for zone in 0..6 {
                let got = cache.get(&pool_name(zone));
                let want = model.entries.get(&zone);
                prop_assert_eq!(got.is_some(), want.is_some());
                let (Some(got), Some(want)) = (got, want) else { continue };
                let ns: Vec<Name> = want.ns_names.iter().map(|&i| ns_name(zone, i)).collect();
                let addrs: Vec<Name> = got.addrs.iter().map(|(n, _)| n.clone()).collect();
                let want_addrs: Vec<Name> = want.addrs.iter().map(|&i| ns_name(zone, i)).collect();
                prop_assert_eq!(&got.ns_names, &ns);
                prop_assert_eq!(addrs, want_addrs);
                prop_assert_eq!(got.source, want.source);
                prop_assert_eq!(got.ttl, want.ttl);
                prop_assert_eq!(got.expires_at, want.expires_at);
                prop_assert_eq!(got.credit, want.credit);
                prop_assert_eq!(&got.ds, &want.ds);
                prop_assert_eq!(got.last_parent_contact, want.last_parent_contact);
            }
            let gaps: Vec<(Name, SimDuration, Ttl)> = cache
                .take_gap_samples()
                .into_iter()
                .map(|g| (g.zone, g.gap, g.ttl))
                .collect();
            let want_gaps: Vec<(Name, SimDuration, Ttl)> = model
                .gaps
                .drain(..)
                .map(|(zone, gap, ttl)| (pool_name(zone), gap, ttl))
                .collect();
            prop_assert_eq!(gaps, want_gaps);
        }
        let end = now + SimDuration::from_secs(120);
        prop_assert_eq!(cache.fresh_zone_count(end), 0);
        prop_assert_eq!(cache.fresh_record_count(end), 0);
        prop_assert_eq!(cache.len(), model.entries.len());
    }
}
