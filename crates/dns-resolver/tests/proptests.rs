//! Property-based tests for cache semantics and policy arithmetic.

use dns_core::{Name, RData, Record, RrSet, SimTime, Ttl};
use dns_resolver::{
    Credibility, InfraCache, InfraSource, NegativeKind, RecordCache, RenewalPolicy,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ttl() -> impl Strategy<Value = Ttl> {
    (1u32..=7 * 86_400).prop_map(Ttl::from_secs)
}

fn arb_credibility() -> impl Strategy<Value = Credibility> {
    prop_oneof![
        Just(Credibility::Additional),
        Just(Credibility::NonAuthAuthority),
        Just(Credibility::AuthAuthority),
        Just(Credibility::AuthAnswer),
    ]
}

fn arb_policy() -> impl Strategy<Value = RenewalPolicy> {
    prop_oneof![
        (1u32..=10).prop_map(RenewalPolicy::lru),
        (1u32..=10).prop_map(RenewalPolicy::lfu),
        (1u32..=10).prop_map(RenewalPolicy::adaptive_lru),
        (1u32..=10).prop_map(RenewalPolicy::adaptive_lfu),
    ]
}

fn owner(i: u8) -> Name {
    format!("h{i}.zone.test").parse().unwrap()
}

fn a_set(i: u8, ttl: Ttl, last: u8) -> RrSet {
    let rec = Record::new(owner(i), ttl, RData::A(Ipv4Addr::new(192, 0, 2, last)));
    RrSet::from_records(&[rec]).unwrap()
}

proptest! {
    /// A cached entry is visible strictly before its expiry and invisible
    /// at or after it.
    #[test]
    fn record_cache_expiry_boundary(ttl in arb_ttl(), at in 0u64..1_000_000) {
        let mut cache = RecordCache::new();
        let now = SimTime::from_secs(at);
        cache.insert(a_set(1, ttl, 1), now, Credibility::AuthAnswer);
        let last_fresh = SimTime::from_secs(at + u64::from(ttl.as_secs()) - 1);
        let expired = SimTime::from_secs(at + u64::from(ttl.as_secs()));
        prop_assert!(cache.get(&owner(1), dns_core::RecordType::A, last_fresh).is_some());
        prop_assert!(cache.get(&owner(1), dns_core::RecordType::A, expired).is_none());
    }

    /// After any sequence of inserts, the surviving entry is the one from
    /// the most recent insert whose credibility was not lower than the
    /// then-current fresh entry.
    #[test]
    fn record_cache_credibility_order(
        inserts in proptest::collection::vec((arb_credibility(), 1u8..=200), 1..20)
    ) {
        let mut cache = RecordCache::new();
        let ttl = Ttl::from_days(7); // never expires during the test
        let mut expected: Option<(Credibility, u8)> = None;
        for (i, (cred, payload)) in inserts.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let stored = cache.insert(a_set(1, ttl, *payload), now, *cred);
            let should_store = match expected {
                Some((prev_cred, _)) => *cred >= prev_cred,
                None => true,
            };
            prop_assert_eq!(stored, should_store);
            if should_store {
                expected = Some((*cred, *payload));
            }
        }
        let (_, payload) = expected.unwrap();
        let entry = cache
            .get(&owner(1), dns_core::RecordType::A, SimTime::from_secs(inserts.len() as u64))
            .unwrap();
        prop_assert_eq!(entry.set.rdatas(), &[RData::A(Ipv4Addr::new(192, 0, 2, payload))]);
    }

    /// LRU always sets exactly its credit; LFU is capped and monotone in
    /// the current credit.
    #[test]
    fn policy_credit_laws(policy in arb_policy(), current in 0u32..100, ttl in arb_ttl()) {
        let next = policy.credit_on_use(current, ttl);
        match policy {
            RenewalPolicy::Lru { credit } => prop_assert_eq!(next, credit),
            RenewalPolicy::Lfu { max_credit, credit } => {
                prop_assert!(next <= max_credit);
                prop_assert!(next >= current.min(max_credit));
                prop_assert!(next >= credit.min(max_credit));
            }
            RenewalPolicy::AdaptiveLru { days } => {
                // Extra time ≈ days: credit × TTL within one TTL of target.
                let extra = u64::from(next) * u64::from(ttl.as_secs());
                let target = u64::from(days) * 86_400;
                prop_assert!(extra >= target, "extra {extra} target {target}");
                prop_assert!(extra < target + u64::from(ttl.as_secs()));
            }
            RenewalPolicy::AdaptiveLfu { .. } => {
                prop_assert!(next >= 1); // always at least one renewal
            }
        }
    }

    /// Adaptive credits shrink as TTLs grow (same extra wall-clock time).
    #[test]
    fn adaptive_credit_antitone_in_ttl(days in 1u32..10, a in 60u32..86_400, b in 60u32..86_400) {
        let policy = RenewalPolicy::adaptive_lru(days);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            policy.credit_on_use(0, Ttl::from_secs(lo))
                >= policy.credit_on_use(0, Ttl::from_secs(hi))
        );
    }

    /// The infra cache's renewal schedule only fires entries that are due
    /// and funded, in non-decreasing time order.
    #[test]
    fn infra_schedule_fires_in_order(
        zone_ttls in proptest::collection::vec((1u8..=50, 60u32..86_400), 1..30)
    ) {
        let mut cache = InfraCache::new();
        cache.install_root_hints(&[("a.root".parse().unwrap(), Ipv4Addr::new(198, 41, 0, 4))]);
        let policy = RenewalPolicy::lru(1);
        for (i, ttl) in &zone_ttls {
            let zone: Name = format!("z{i}.test").parse().unwrap();
            let ns: Name = format!("ns.z{i}.test").parse().unwrap();
            cache.install(
                &zone,
                [&ns],
                [(&ns, Ipv4Addr::new(10, 0, 0, *i))],
                Ttl::from_secs(*ttl),
                SimTime::ZERO,
                InfraSource::Child,
                false,
            );
            cache.record_use(&zone, SimTime::from_secs(1), Some(&policy));
        }
        let mut last = SimTime::ZERO;
        let mut fired = std::collections::HashSet::new();
        while let Some((due, zone)) = cache.next_renewal_due(SimTime::from_days(2)) {
            prop_assert!(due >= last, "schedule must be ordered");
            last = due;
            prop_assert!(fired.insert(zone.clone()), "each zone fires once (credit 1)");
            let entry = cache.consume_renewal_credit(&zone);
            prop_assert!(entry.is_some());
        }
        // Every distinct installed zone fired exactly once.
        let distinct: std::collections::HashSet<u8> =
            zone_ttls.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(fired.len(), distinct.len());
    }

    /// The negative-cache budget is a hard invariant: after any insert
    /// sequence, entry and byte budgets hold, the byte ledger matches the
    /// live entry set, and eviction counters are reported truthfully.
    #[test]
    fn negative_budget_never_exceeded(
        entry_budget in 1usize..24,
        inserts in proptest::collection::vec((1u8..=200, 1u32..=3_600, 0u64..600), 1..120)
    ) {
        let mut cache = RecordCache::new();
        cache.set_negative_budget(Some(entry_budget), None);
        let mut now = 0u64;
        for (i, ttl, dt) in inserts {
            now += dt;
            let out = cache.insert_negative(
                owner(i),
                dns_core::RecordType::A,
                NegativeKind::NxDomain,
                Ttl::from_secs(ttl),
                SimTime::from_secs(now),
            );
            prop_assert!(cache.negative_len() <= entry_budget);
            // A budget of at least one entry always keeps the newest
            // insert: pressure evicts soonest-expiring entries, and the
            // new entry only goes when nothing else is left to evict.
            prop_assert!(out.stored || out.evicted_pressure > 0);
            prop_assert_eq!(
                out.stored,
                cache
                    .get_negative(&owner(i), dns_core::RecordType::A, SimTime::from_secs(now))
                    .is_some()
            );
        }
    }

    /// Negative-cache pressure never evicts positive records: a flood of
    /// fresh NXDOMAIN entries under a tiny budget leaves every unexpired
    /// positive entry untouched.
    #[test]
    fn negative_pressure_never_evicts_unexpired_positives(
        entry_budget in 1usize..8,
        positives in proptest::collection::vec(1u8..=40, 1..20),
        flood in proptest::collection::vec(100u8..=250, 1..80)
    ) {
        let mut cache = RecordCache::new();
        cache.set_negative_budget(Some(entry_budget), None);
        let ttl = Ttl::from_days(7);
        for &i in &positives {
            cache.insert(a_set(i, ttl, i), SimTime::ZERO, Credibility::AuthAnswer);
        }
        let positive_len = cache.len();
        for (t, &i) in flood.iter().enumerate() {
            cache.insert_negative(
                owner(i),
                dns_core::RecordType::Aaaa,
                NegativeKind::NxDomain,
                Ttl::from_secs(300),
                SimTime::from_secs(t as u64),
            );
        }
        prop_assert_eq!(cache.len(), positive_len);
        let now = SimTime::from_secs(flood.len() as u64);
        for &i in &positives {
            prop_assert!(
                cache.get(&owner(i), dns_core::RecordType::A, now).is_some(),
                "positive entry {} lost under negative pressure", i
            );
        }
    }

    /// Gap samples are emitted at most once per expiry and always
    /// non-negative.
    #[test]
    fn gap_samples_once_per_expiry(uses in proptest::collection::vec(0u64..200_000, 1..20)) {
        let mut cache = InfraCache::new();
        let zone: Name = "z.test".parse().unwrap();
        let ns: Name = "ns.z.test".parse().unwrap();
        cache.install(
            &zone,
            [&ns],
            [(&ns, Ipv4Addr::new(10, 0, 0, 1))],
            Ttl::from_secs(3_600),
            SimTime::ZERO,
            InfraSource::Child,
            false,
        );
        let mut sorted = uses.clone();
        sorted.sort_unstable();
        for t in sorted {
            cache.record_use(&zone, SimTime::from_secs(t), None);
        }
        let samples = cache.take_gap_samples();
        prop_assert!(samples.len() <= 1);
    }
}
