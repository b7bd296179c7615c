//! Guard-rail for representation changes: the F4–F11 experiment space,
//! run as one small seeded sweep, must produce *byte-identical* outputs
//! across refactors of the name/cache internals.
//!
//! The transcript below canonicalises every attack cell (Figures 4–11:
//! vanilla, refresh, the four renewal policies, long-TTL and the combined
//! scheme) plus an overhead run with daily occupancy sampling, and hashes
//! it with FNV-1a. The committed constants were captured from the
//! `Vec<Label>`-based `Name` and scan-based cache code; any divergence
//! means a "pure representation" change altered observable behaviour.
//!
//! When a change *intentionally* alters experiment outputs (new scheme
//! semantics, different RNG consumption), re-capture the constants with
//! `cargo test -q --test determinism_golden -- --nocapture` and explain
//! the change in the PR description.

use dns_resilience::prelude::*;
use dns_resilience::resolver::RenewalPolicy;

/// FNV-1a 64-bit, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The schemes of Figures 4 through 11, in figure order.
fn f4_to_f11_schemes() -> Vec<Scheme> {
    vec![
        Scheme::vanilla(),                                                   // F4
        Scheme::refresh(),                                                   // F5
        Scheme::renewal(RenewalPolicy::lru(3)),                              // F6
        Scheme::renewal(RenewalPolicy::lfu(3)),                              // F7
        Scheme::renewal(RenewalPolicy::adaptive_lru(3)),                     // F8
        Scheme::renewal(RenewalPolicy::adaptive_lfu(3)),                     // F9
        Scheme::refresh_long_ttl(Ttl::from_days(3)),                         // F10
        Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3)), // F11
    ]
}

fn sweep_with(threads: usize) -> SweepOutcome {
    let universe = UniverseSpec::small().build(7);
    let trace = TraceSpec::demo().scaled(0.1).generate(&universe, 42);
    ExperimentSpec::new(&universe)
        .trace(trace)
        .schemes(f4_to_f11_schemes())
        .attack(
            SimTime::from_days(6),
            &[SimDuration::from_hours(3), SimDuration::from_hours(12)],
        )
        .overhead(SimDuration::from_days(1))
        .threads(threads)
        .run()
}

fn sweep() -> SweepOutcome {
    sweep_with(2)
}

/// Every field that reaches a CSV or figure, in spec order, with full
/// float precision (`{:?}` on `f64` is shortest-roundtrip, so equal
/// transcripts imply bit-equal values).
fn transcript(outcome: &SweepOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for a in &outcome.attacks {
        writeln!(
            out,
            "attack|{}|{}|{}|{:?}|{:?}|{:?}",
            a.scheme,
            a.trace,
            a.duration.as_secs(),
            a.sr_failed_pct,
            a.cs_failed_pct,
            a.window,
        )
        .unwrap();
    }
    for o in &outcome.overheads {
        writeln!(out, "overhead|{}|{}|{:?}", o.scheme, o.trace, o.metrics).unwrap();
        for s in &o.occupancy {
            writeln!(
                out,
                "occupancy|{}|{}|{}|{}|{}|{}",
                o.scheme, s.at, s.zones, s.infra_records, s.data_rrsets, s.data_records,
            )
            .unwrap();
        }
    }
    out
}

/// Captured from the pre-compact-`Name` code (PR 2 tree); must survive
/// the representation change byte-for-byte.
const GOLDEN_TRANSCRIPT_FNV1A: u64 = 0x407c_b560_b1f5_9267;
const GOLDEN_ATTACK_CELLS: usize = 16; // 8 schemes x 2 durations
const GOLDEN_OVERHEAD_RUNS: usize = 8;

/// The defense counters are `ResolverMetrics` fields added after the
/// golden capture; with every defense at its default (off) — as in all
/// of F4–F11 — they are identically zero. Canonicalise the `{:?}`
/// rendering by stripping the all-zero suffix, and assert it really was
/// all-zero everywhere: a scheme that silently enabled a defense (or a
/// defense that fires while off) still diverges loudly.
fn strip_zero_defense_counters(text: &str) -> String {
    let stripped = text
        .replace(
            ", fetches_clamped: 0, flood_suppressed: 0, neg_evictions_pressure: 0",
            "",
        )
        .replace(
            ", stale_served: 0, stale_expired_unserved: 0, refresh_ahead: 0, \
             prefetch_issued: 0, prefetch_hits: 0, prefetch_wasted: 0",
            "",
        );
    assert!(
        !stripped.contains("fetches_clamped"),
        "defense counters fired in a defenses-off golden sweep"
    );
    assert!(
        !stripped.contains("stale_served"),
        "stale counters fired in a stale-off golden sweep"
    );
    stripped
}

#[test]
fn f4_to_f11_small_sweep_is_byte_identical() {
    let outcome = sweep();
    assert_eq!(outcome.attacks.len(), GOLDEN_ATTACK_CELLS);
    assert_eq!(outcome.overheads.len(), GOLDEN_OVERHEAD_RUNS);
    let text = strip_zero_defense_counters(&transcript(&outcome));
    let hash = fnv1a(text.as_bytes());
    if hash != GOLDEN_TRANSCRIPT_FNV1A {
        eprintln!("--- transcript (first 30 lines) ---");
        for line in text.lines().take(30) {
            eprintln!("{line}");
        }
        eprintln!("--- captured hash: {hash:#018x} ---");
    }
    assert_eq!(
        hash, GOLDEN_TRANSCRIPT_FNV1A,
        "F4-F11 sweep transcript diverged from the golden capture; \
         a representation-only change must not alter experiment outputs"
    );
}

/// The transcript itself is stable run-to-run (same process, two runs):
/// guards against nondeterminism sneaking into the harness (e.g. output
/// ordered by HashMap iteration), which would make the golden hash flaky
/// rather than meaningful.
#[test]
fn sweep_transcript_is_reproducible_in_process() {
    let a = transcript(&sweep());
    let b = transcript(&sweep());
    assert_eq!(a, b);
}

/// The latency histograms the observability layer records (virtual-time
/// distributions, merged into every attack window and overhead run) in
/// the same canonical line format as `transcript`. `{:?}` on a
/// `LogHistogram` prints count, sum and the p50/p90/p99 bounds.
fn latency_transcript(outcome: &SweepOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for a in &outcome.attacks {
        writeln!(
            out,
            "latency|attack|{}|{}|{}|{:?}",
            a.scheme,
            a.trace,
            a.duration.as_secs(),
            a.latency,
        )
        .unwrap();
    }
    for o in &outcome.overheads {
        writeln!(
            out,
            "latency|overhead|{}|{}|{:?}",
            o.scheme, o.trace, o.latency
        )
        .unwrap();
    }
    out
}

/// Single-flight coalescing is a pure seam for one thread: replaying the
/// heaviest scheme (combined refresh + A-LFU renewal + long TTL) over a
/// one-shard cache with coalescing enabled must produce a byte-identical
/// transcript to the same replay with coalescing off. Any divergence
/// (extra cache probes, RNG consumption, flight bookkeeping) would
/// surface here.
#[test]
fn one_shard_coalescing_replay_matches_uncoalesced() {
    use dns_resilience::trace::TraceReplay;
    use std::sync::Arc;

    let universe = UniverseSpec::small().build(7);
    let trace = Arc::new(TraceSpec::demo().scaled(0.1).generate(&universe, 42));
    let scheme = Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3));
    let farm = Arc::new(ServerFarm::build(&universe, scheme.long_ttl));
    let replay = |coalesce: bool| {
        let mut config = scheme.sim_config();
        config.resolver = config.resolver.to_builder().coalesce(coalesce).build();
        assert_eq!(config.resolver.shards, 1);
        let replay = Box::new(TraceReplay::new(Arc::clone(&trace)));
        let mut sim = Simulation::shared_streaming(Arc::clone(&farm), &universe, replay, config);
        sim.run_to_end();
        // Every resolver counter plus the modelled latency histogram, via
        // `{:?}` (shortest-roundtrip, so equality implies bit-equality).
        format!("{:?}|{:?}", sim.metrics(), sim.cs().latency_histogram())
    };
    assert_eq!(
        replay(false),
        replay(true),
        "one-shard replay with coalescing on diverged from coalescing off"
    );
}

/// Latency distributions are part of the determinism contract: the same
/// spec run single-threaded and on a wide worker pool must record
/// byte-identical histograms (work-stealing order must never leak into
/// what the resolver observes).
#[test]
fn latency_histograms_are_identical_across_thread_counts() {
    let narrow = latency_transcript(&sweep_with(1));
    let wide = latency_transcript(&sweep_with(8));
    assert!(
        narrow.lines().count() >= GOLDEN_ATTACK_CELLS + GOLDEN_OVERHEAD_RUNS,
        "latency transcript unexpectedly empty:\n{narrow}"
    );
    assert!(
        narrow.contains("count:"),
        "histograms recorded nothing:\n{narrow}"
    );
    assert_eq!(narrow, wide);
}
