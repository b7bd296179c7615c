//! End-to-end adversarial sweeps: NXNSAttack delegation bombs and
//! water-torture floods against defended and undefended resolvers.
//!
//! These are the PR's acceptance gates: the undefended resolver shows
//! measurable NXNS amplification, MaxFetch(k) cuts it by at least 5x
//! while legitimate failures stay within one percentage point of the
//! no-attack baseline, and the negative-cache budget holds under a
//! water-torture flood without evicting positive state.

use dns_core::{SimDuration, SimTime};
use dns_resolver::DefensePolicy;
use dns_sim::experiment::{AdversarialOutcome, Scheme};
use dns_sim::sweep::ExperimentSpec;
use dns_sim::{AdversarySpec, Simulation};
use dns_trace::{NxnsBombSpec, TraceSpec, Universe, UniverseSpec};

const TRACE_SEED: u64 = 42;
const ATTACK_QPS: u32 = 2;
const WINDOW: SimDuration = SimDuration::from_mins(10);

fn universe() -> Universe {
    // 1200 bombs × fanout 24: enough bombs that every attack query in the
    // 10-minute window (2 qps × 600 s = 1200 queries) hits a cold bomb.
    UniverseSpec::small()
        .build(7)
        .with_delegation_bombs(NxnsBombSpec::new(1200, 24))
}

fn defense() -> DefensePolicy {
    DefensePolicy {
        max_ns_fetch: Some(2),
        neg_cache_max_entries: Some(512),
        ..DefensePolicy::off()
    }
}

fn attack_start() -> SimTime {
    SimTime::from_days(2)
}

/// Runs the head-to-head sweep: (vanilla, vanilla+defense) × (nxns,
/// water torture) over a streamed trace. Outcomes arrive in spec order:
/// per scheme, nxns first, then torture.
fn run_sweep(u: &Universe, threads: usize) -> Vec<AdversarialOutcome> {
    ExperimentSpec::new(u)
        .stream_trace(TraceSpec::demo().scaled(0.1), TRACE_SEED)
        .schemes([Scheme::vanilla(), Scheme::vanilla().with_defense(defense())])
        .adversarial(AdversarySpec::nxns(ATTACK_QPS), attack_start(), WINDOW)
        .adversarial(
            AdversarySpec::water_torture(6, ATTACK_QPS, 9),
            attack_start(),
            WINDOW,
        )
        .threads(threads)
        .run()
        .adversarial
}

#[test]
fn maxfetch_cuts_nxns_amplification_without_collateral_damage() {
    let u = universe();
    let outcomes = run_sweep(&u, 2);
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes {
        eprintln!(
            "{o}  [attack_q={} base_up={} atk_up={} clamped={} suppressed={} neg_evict={}]",
            o.attack_queries,
            o.base_upstream,
            o.window.queries_out,
            o.window.fetches_clamped,
            o.window.flood_suppressed,
            o.window.neg_evictions_pressure
        );
    }
    let nxns_open = &outcomes[0];
    let torture_open = &outcomes[1];
    let nxns_def = &outcomes[2];
    let torture_def = &outcomes[3];
    assert_eq!(nxns_open.scheme, "vanilla");
    assert_eq!(nxns_open.adversary, format!("nxns-q{ATTACK_QPS}"));
    assert_eq!(nxns_def.scheme, "vanilla+maxfetch2+negcap512e");

    // Every window replayed the full flood.
    let expected = u64::from(ATTACK_QPS) * WINDOW.as_secs();
    for o in &outcomes {
        assert_eq!(o.attack_queries, expected);
    }

    // The undefended resolver amplifies each NXNS query into many
    // upstream fetches (glue chase over the bomb's NS fan-out).
    assert!(
        nxns_open.amplification() > 5.0,
        "undefended NXNS amplification too low: {:.2}",
        nxns_open.amplification()
    );

    // MaxFetch(2) cuts amplification at least 5x and actually clamps.
    assert!(
        nxns_def.amplification() * 5.0 <= nxns_open.amplification(),
        "defense only cut amplification {:.2} -> {:.2}",
        nxns_open.amplification(),
        nxns_def.amplification()
    );
    assert!(
        nxns_def.window.fetches_clamped > 0,
        "MaxFetch never clamped"
    );
    assert_eq!(
        nxns_open.window.fetches_clamped, 0,
        "no clamping without defense"
    );

    // Collateral damage: legitimate failures stay within 1pp of the
    // attack-free baseline fork, with or without the defense.
    for o in &outcomes {
        assert!(
            o.legit_failed_delta_pct().abs() <= 1.0,
            "legitimate failure moved {:+.2}pp under {} / {}",
            o.legit_failed_delta_pct(),
            o.scheme,
            o.adversary
        );
    }

    // Water torture pressures the bounded negative cache; the budget
    // forces pressure evictions only when the defense is on.
    assert!(torture_def.window.neg_evictions_pressure > 0);
    assert_eq!(torture_open.window.neg_evictions_pressure, 0);
    // Torture amplification is ~1 (one NXDOMAIN walk per query) in both
    // schemes: the neg-cache budget defends memory, not upstream volume.
    assert!(torture_open.amplification() < 5.0);
    assert!(torture_def.amplification() < 5.0);
}

#[test]
fn adversarial_sweeps_are_thread_count_independent() {
    let u = universe();
    let seq = run_sweep(&u, 1);
    let par = run_sweep(&u, 8);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.adversary, b.adversary);
        assert_eq!(a.attack_queries, b.attack_queries);
        assert_eq!(a.base_upstream, b.base_upstream);
        assert_eq!(a.window, b.window, "{} / {}", a.scheme, a.adversary);
    }
}

#[test]
fn materialized_and_streamed_adversarial_units_agree() {
    let u = universe();
    let preset = TraceSpec::demo().scaled(0.1);
    let run = |spec: ExperimentSpec<'_>| {
        spec.scheme(Scheme::vanilla().with_defense(defense()))
            .adversarial(AdversarySpec::nxns(ATTACK_QPS), attack_start(), WINDOW)
            .adversarial(
                AdversarySpec::water_torture(6, ATTACK_QPS, 9),
                attack_start(),
                WINDOW,
            )
            .threads(2)
            .run()
            .adversarial
    };
    let mat = run(ExperimentSpec::new(&u).trace(preset.generate(&u, TRACE_SEED)));
    let streamed = run(ExperimentSpec::new(&u).stream_trace(preset, TRACE_SEED));
    assert_eq!(mat.len(), streamed.len());
    for (a, b) in mat.iter().zip(&streamed) {
        assert_eq!(a.adversary, b.adversary);
        assert_eq!(a.attack_queries, b.attack_queries);
        assert_eq!(a.base_upstream, b.base_upstream);
        assert_eq!(a.window, b.window, "{}", a.adversary);
    }
}

#[test]
fn negative_cache_budget_holds_under_water_torture() {
    let u = universe();
    let trace = TraceSpec::demo().scaled(0.1).generate(&u, TRACE_SEED);
    let adv = AdversarySpec::water_torture(6, ATTACK_QPS, 9).compile(&u);
    let start = attack_start();
    let end = start + WINDOW;
    let run = |scheme: Scheme| {
        let mut sim = Simulation::new(&u, trace.clone(), scheme.sim_config());
        sim.set_adversary(&adv, start, end);
        sim.run_until(end);
        sim
    };

    let mut open = run(Scheme::vanilla());
    let mut defended = run(Scheme::vanilla().with_defense(defense()));
    let open_entries = open.cs_mut().negative_entries();
    let defended_entries = defended.cs_mut().negative_entries();
    eprintln!("negative entries: open={open_entries} defended={defended_entries}");

    // The flood pushes the unbounded cache well past the budget; the
    // bounded cache never exceeds it and counted pressure evictions.
    assert!(open_entries > 512, "flood too small: {open_entries}");
    assert!(defended_entries <= 512);
    assert!(defended.metrics().neg_evictions_pressure > 0);
    assert_eq!(open.metrics().neg_evictions_pressure, 0);

    // The budget defends memory without breaking resolution: both runs
    // answered the same legitimate queries with the same failure count.
    let legit = |sim: &Simulation| {
        let m = sim.metrics();
        let adv = sim.adversary_stats();
        (
            m.queries_in - adv.sent,
            m.failed_in.saturating_sub(adv.failed),
        )
    };
    assert_eq!(legit(&open), legit(&defended));
}
