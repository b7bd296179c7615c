//! Property-based tests for simulation invariants: conservation laws,
//! determinism and attack monotonicity over randomized workloads.

use dns_core::{SimDuration, SimTime, Ttl};
use dns_resolver::{RenewalPolicy, ResolverConfig};
use dns_sim::{AttackScenario, ServerFarm, SimConfig, Simulation};
use dns_trace::{
    QueryStream, Trace, TraceReplay, Universe, UniverseSpec, UniverseTargets, WorkloadBuilder,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One shared small universe — generation is deterministic, so sharing it
/// across cases only saves time.
fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| {
        let mut spec = UniverseSpec::small();
        spec.sld_count = 400;
        spec.tld_count = 15;
        spec.build(99)
    })
}

fn arb_config() -> impl Strategy<Value = ResolverConfig> {
    prop_oneof![
        Just(ResolverConfig::vanilla()),
        Just(ResolverConfig::with_refresh()),
        (1u32..=5).prop_map(|c| ResolverConfig::with_renewal(RenewalPolicy::lru(c))),
        (1u32..=5).prop_map(|c| ResolverConfig::with_renewal(RenewalPolicy::adaptive_lfu(c))),
    ]
}

fn workload(queries: u64) -> WorkloadBuilder {
    WorkloadBuilder::new("prop", 2, 5, queries)
}

fn trace(seed: u64, queries: u64) -> Trace {
    workload(queries).generate(universe(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every trace query is processed exactly once; failure
    /// and hit counters never exceed their denominators; the network sees
    /// exactly the resolver's outgoing queries.
    #[test]
    fn counters_are_conserved(seed in 0u64..1_000, config in arb_config()) {
        let t = trace(seed, 800);
        let n = t.queries.len() as u64;
        let mut sim = Simulation::new(universe(), t, SimConfig::new(config));
        sim.run_to_end();
        let m = sim.metrics();
        prop_assert_eq!(m.queries_in, n);
        prop_assert!(m.failed_in <= m.queries_in);
        prop_assert!(m.cache_hits <= m.queries_in - m.failed_in);
        prop_assert!(m.failed_out <= m.queries_out);
        prop_assert!(m.renewals_ok <= m.renewals_sent);
        let net = sim.net().stats();
        prop_assert_eq!(net.total(), m.queries_out);
        prop_assert_eq!(net.delivered, m.queries_out - m.failed_out);
        prop_assert_eq!(net.unroutable, 0);
    }

    /// With no attack and a consistent universe, nothing fails.
    #[test]
    fn no_attack_no_failures(seed in 0u64..1_000, config in arb_config()) {
        let t = trace(seed, 500);
        let mut sim = Simulation::new(universe(), t, SimConfig::new(config));
        sim.run_to_end();
        prop_assert_eq!(sim.metrics().failed_in, 0);
        prop_assert_eq!(sim.metrics().failed_out, 0);
    }

    /// Forks are perfect, independent copies: a fork run to the end from
    /// the pause point yields exactly the counters the original then
    /// yields. The fork runs first, so a fork sharing the original's
    /// cache or stream would disturb it and fail the comparison. Covers
    /// both sources — a materialized trace's replay and a generated
    /// stream — which must also agree with each other.
    #[test]
    fn fork_is_deterministic(seed in 0u64..1_000) {
        let config = || SimConfig::new(ResolverConfig::with_refresh());
        let pause = SimTime::from_days(1);
        let farm = Arc::new(ServerFarm::build(universe(), config().long_ttl));
        let sources: [Box<dyn QueryStream>; 2] = [
            Box::new(TraceReplay::new(trace(seed, 600))),
            Box::new(workload(600).stream(UniverseTargets::new(universe()), seed)),
        ];
        let mut reference = None;
        for stream in sources {
            let mut sim =
                Simulation::shared_streaming(Arc::clone(&farm), universe(), stream, config());
            sim.run_until(pause);
            let mut fork = sim.fork();
            fork.run_to_end();
            sim.run_to_end();
            let reference = *reference.get_or_insert(sim.metrics());
            prop_assert_eq!(fork.metrics(), reference);
            prop_assert_eq!(sim.metrics(), reference);
            prop_assert_eq!(fork.processed(), sim.processed());
        }
    }

    /// An attack never *reduces* client-visible failures, and removing it
    /// restores the baseline.
    #[test]
    fn attack_is_monotone_harmful(seed in 0u64..500, hours in 1u64..12) {
        let t = trace(seed, 800);
        let start = SimTime::from_days(1);
        let run = |attacked: bool| {
            let mut sim = Simulation::new(
                universe(),
                t.clone(),
                SimConfig::new(ResolverConfig::vanilla()),
            );
            if attacked {
                sim.set_attack(
                    AttackScenario::root_and_tlds(start, SimDuration::from_hours(hours))
                        .compile(universe()),
                );
            }
            sim.run_to_end();
            sim.metrics().failed_in
        };
        prop_assert_eq!(run(false), 0);
        prop_assert!(run(true) >= run(false));
    }

    /// The long-TTL override never increases failures for a refreshing
    /// resolver under the standard attack.
    #[test]
    fn long_ttl_never_hurts_sr_failures(seed in 0u64..200) {
        let t = trace(seed, 800);
        let start = SimTime::from_days(1);
        let attack = AttackScenario::root_and_tlds(start, SimDuration::from_hours(6));
        let run = |long_ttl: Option<Ttl>| {
            let mut config = SimConfig::new(ResolverConfig::with_refresh());
            if let Some(ttl) = long_ttl {
                config = config.long_ttl(ttl);
            }
            let mut sim = Simulation::new(universe(), t.clone(), config);
            sim.set_attack(attack.compile(universe()));
            sim.run_to_end();
            sim.metrics().failed_in
        };
        let short = run(None);
        let long = run(Some(Ttl::from_days(7)));
        prop_assert!(long <= short, "long-ttl {long} vs baseline {short}");
    }
}
