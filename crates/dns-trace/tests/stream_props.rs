//! Property tests pinning the streaming replay contract: a streamed
//! trace, a fork of a stream or of a materialized trace's replay taken
//! mid-trace, and the materialized generator must produce byte-identical
//! query sequences for the same seed — across arbitrary workload shapes
//! and cut points.

use dns_trace::{
    QueryEvent, QueryStream, TraceReplay, Universe, UniverseSpec, UniverseTargets, WorkloadBuilder,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared universe: building it per-case would dominate the run, and
/// the generator's determinism is covered by its own tests.
fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(|| {
        UniverseSpec {
            tld_count: 10,
            sld_count: 300,
            ..UniverseSpec::small()
        }
        .build(7)
    })
}

fn workload(days: u64, clients: u32, total: u64, alpha: f64, amp: f64) -> WorkloadBuilder {
    WorkloadBuilder::new("PROP", days, clients, total)
        .zipf_alpha(alpha)
        .diurnal_amplitude(amp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Collecting the stream reproduces the materialized trace exactly.
    #[test]
    fn streamed_equals_materialized(
        seed in any::<u64>(),
        days in 1u64..=3,
        clients in 1u32..=40,
        total in 1u64..=4_000,
        alpha_pct in 60u32..=130,
        amp_pct in 0u32..=100,
    ) {
        let u = universe();
        let wb = workload(
            days,
            clients,
            total,
            f64::from(alpha_pct) / 100.0,
            f64::from(amp_pct) / 100.0,
        );
        let materialized = wb.generate(u, seed);
        let streamed: Vec<QueryEvent> =
            wb.stream(UniverseTargets::new(u), seed).collect();
        prop_assert_eq!(&materialized.queries, &streamed);
    }

    /// A fork taken after `cut` events continues byte-identically and
    /// leaves the original undisturbed, wherever the cut lands (hour
    /// boundaries, empty hours, start, end); forking before every event
    /// and continuing from each fork replays the whole sequence. Holds
    /// for a generated stream and for a materialized trace's replay.
    #[test]
    fn fork_is_byte_identical(
        seed in any::<u64>(),
        days in 1u64..=3,
        clients in 1u32..=40,
        total in 1u64..=4_000,
        cut_pct in 0u32..=100,
    ) {
        let u = universe();
        let wb = workload(days, clients, total, 1.05, 0.5);
        let targets = UniverseTargets::new(u);
        let full: Vec<QueryEvent> = wb.stream(targets.clone(), seed).collect();
        let cut = full.len() * cut_pct as usize / 100;
        let trace = std::sync::Arc::new(wb.generate(u, seed));
        let sources = || -> [Box<dyn QueryStream>; 2] {
            [
                Box::new(wb.stream(targets.clone(), seed)),
                Box::new(TraceReplay::new(std::sync::Arc::clone(&trace))),
            ]
        };

        for mut original in sources() {
            for _ in 0..cut {
                original.next_event();
            }
            let mut fork = original.fork();
            let forked: Vec<QueryEvent> = std::iter::from_fn(|| fork.next_event()).collect();
            let rest: Vec<QueryEvent> = std::iter::from_fn(|| original.next_event()).collect();
            prop_assert_eq!(&full[cut..], &forked[..]);
            prop_assert_eq!(&full[cut..], &rest[..]);
        }

        for mut stream in sources() {
            let mut chained = Vec::with_capacity(full.len());
            loop {
                stream = stream.fork();
                match stream.next_event() {
                    Some(q) => chained.push(q),
                    None => break,
                }
            }
            prop_assert_eq!(&full, &chained);
        }
    }
}
