//! Randomized equivalence between `InfraCache`'s renewal schedule (one
//! heap pair per scheduled entry, re-queued when due for an entry
//! extended since, superseded when an install moved the expiry earlier)
//! and the eager schedule it replaced: a `BTreeSet<(SimTime, Name)>` that
//! moves an entry's pair on every install and pops strictly in time, then
//! label-wise zone order.
//!
//! The pop order decides which renewal fires first and so which query
//! IDs each renewal draws, so the two must agree on every pop and every
//! peek, for any monotone sequence of installs (fresh, refreshing,
//! reclaiming, expiries moving earlier), uses, renewal pops, credit
//! consumption and tombstone purges.

use dns_core::{Name, SimDuration, SimTime, Ttl};
use dns_resolver::{InfraCache, InfraSource, RenewalPolicy};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

const ZONES: usize = 8;

fn zone_name(zone: usize) -> Name {
    format!("z{zone}.example").parse().unwrap()
}

/// The server names of NS set `set` for `zone`: three overlapping sets,
/// so a parent copy sometimes matches the held set and sometimes
/// reclaims the delegation.
fn ns_set(zone: usize, set: usize) -> Vec<Name> {
    let host = |h: &str| format!("{h}.z{zone}.example").parse().unwrap();
    match set {
        0 => vec![host("a")],
        1 => vec![host("a"), host("b")],
        _ => vec![host("b")],
    }
}

#[derive(Debug, Clone)]
enum Op {
    Install {
        zone: usize,
        set: usize,
        ttl_secs: u32,
        source: InfraSource,
        refresh: bool,
    },
    Use {
        zone: usize,
        policy: RenewalPolicy,
    },
    /// `next_renewal_due(now)`, consuming the popped zone's credit when
    /// `consume` is set, as a renewal would.
    Pop {
        consume: bool,
    },
    Peek,
    Consume {
        zone: usize,
    },
    Purge {
        retention_secs: u64,
    },
}

fn arb_op() -> impl Strategy<Value = (u32, Op)> {
    let source = prop_oneof![Just(InfraSource::Parent), Just(InfraSource::Child)];
    let policy = prop_oneof![
        Just(RenewalPolicy::lru(1)),
        Just(RenewalPolicy::lru(3)),
        Just(RenewalPolicy::lfu(2)),
        Just(RenewalPolicy::adaptive_lfu(1)),
    ];
    let op = prop_oneof![
        (0..ZONES, 0usize..3, 0u32..300, source, any::<bool>()).prop_map(
            |(zone, set, ttl_secs, source, refresh)| Op::Install {
                zone,
                set,
                ttl_secs,
                source,
                refresh,
            }
        ),
        (0..ZONES, policy).prop_map(|(zone, policy)| Op::Use { zone, policy }),
        any::<bool>().prop_map(|consume| Op::Pop { consume }),
        Just(Op::Peek),
        (0..ZONES).prop_map(|zone| Op::Consume { zone }),
        (0u64..200).prop_map(|retention_secs| Op::Purge { retention_secs }),
    ];
    (0u32..120, op)
}

/// The eager schedule: one `(expiry, zone)` pair per installed entry,
/// moved on every install, popped whether or not the entry has credit.
/// Credit and presence are read from the cache under test, which the
/// schedule does not decide.
#[derive(Default)]
struct EagerSchedule {
    pairs: BTreeSet<(SimTime, Name)>,
    expiry: HashMap<Name, SimTime>,
}

impl EagerSchedule {
    fn installed(&mut self, zone: &Name, expires_at: SimTime) {
        if let Some(old) = self.expiry.insert(zone.clone(), expires_at) {
            if old != expires_at {
                self.pairs.remove(&(old, zone.clone()));
            }
        }
        self.pairs.insert((expires_at, zone.clone()));
    }

    fn due(&self, at: SimTime, zone: &Name, cache: &InfraCache) -> bool {
        self.expiry.get(zone) == Some(&at) && cache.get(zone).is_some_and(|e| e.credit > 0)
    }

    fn next_renewal_due(&mut self, upto: SimTime, cache: &InfraCache) -> Option<(SimTime, Name)> {
        while let Some((at, zone)) = self.pairs.first().cloned() {
            if at > upto {
                return None;
            }
            self.pairs.remove(&(at, zone.clone()));
            if self.due(at, &zone, cache) {
                return Some((at, zone));
            }
        }
        None
    }

    fn peek_renewal_due(&self, cache: &InfraCache) -> Option<SimTime> {
        self.pairs
            .iter()
            .find(|(at, zone)| self.due(*at, zone, cache))
            .map(|&(at, _)| at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn renewal_pops_and_peeks_match_the_eager_schedule(
        ops in proptest::collection::vec(arb_op(), 1..80)
    ) {
        let mut cache = InfraCache::new();
        cache.install_root_hints(&[("a.root".parse().unwrap(), Ipv4Addr::new(198, 41, 0, 4))]);
        let mut eager = EagerSchedule::default();
        let mut now = SimTime::ZERO;

        for (dt, op) in ops {
            now += SimDuration::from_secs(u64::from(dt));
            match op {
                Op::Install { zone, set, ttl_secs, source, refresh } => {
                    let (name, ns) = (zone_name(zone), ns_set(zone, set));
                    let glue: Vec<(Name, Ipv4Addr)> = ns
                        .iter()
                        .map(|n| (n.clone(), Ipv4Addr::new(10, 0, zone as u8, 1)))
                        .collect();
                    let ttl = Ttl::from_secs(ttl_secs);
                    let addrs = glue.iter().map(|(n, a)| (n, *a));
                    if cache.install(&name, &ns, addrs, ttl, now, source, refresh).is_some() {
                        eager.installed(&name, ttl.expires_at(now));
                    }
                    prop_assert_eq!(
                        cache.get(&name).map(|e| e.expires_at),
                        eager.expiry.get(&name).copied()
                    );
                }
                Op::Use { zone, policy } => {
                    cache.record_use(&zone_name(zone), now, Some(&policy));
                }
                Op::Pop { consume } => {
                    let want = eager.next_renewal_due(now, &cache);
                    let got = cache.next_renewal_due(now);
                    prop_assert_eq!(&got, &want);
                    if let (Some((_, zone)), true) = (got, consume) {
                        prop_assert!(cache.consume_renewal_credit(&zone).is_some());
                    }
                }
                Op::Peek => {
                    let want = eager.peek_renewal_due(&cache);
                    prop_assert_eq!(cache.peek_renewal_due(), want);
                }
                Op::Consume { zone } => {
                    cache.consume_renewal_credit(&zone_name(zone));
                }
                Op::Purge { retention_secs } => {
                    cache.purge_tombstones(now, SimDuration::from_secs(retention_secs));
                    eager.expiry.retain(|zone, _| cache.get(zone).is_some());
                }
            }
        }
        // Drain both to the end of time: every remaining renewal agrees.
        loop {
            let want = eager.next_renewal_due(SimTime::MAX, &cache);
            prop_assert_eq!(cache.peek_renewal_due(), want.as_ref().map(|&(at, _)| at));
            let got = cache.next_renewal_due(SimTime::MAX);
            prop_assert_eq!(&got, &want);
            let Some((_, zone)) = got else { break };
            cache.consume_renewal_credit(&zone);
        }
    }
}
