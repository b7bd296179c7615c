//! Facade crate for the DSN 2007 DNS-resilience reproduction.
//!
//! Re-exports the public API of every workspace crate so downstream users
//! (and the `examples/`) can depend on a single crate:
//!
//! * [`core`] — names, records, messages, zones, wire format.
//! * [`auth`] — authoritative name-server engine.
//! * [`resolver`] — caching resolver with the paper's resilience policies.
//! * [`sim`] — discrete-event simulator and DDoS attack scenarios.
//! * [`trace`] — synthetic namespace and query-trace generation.
//! * [`stats`] — CDFs, histograms and table emitters.
//! * [`netd`] — live UDP daemons (authoritative + recursive) and a
//!   dig-like client, binding the same engines to real sockets.
//!
//! [`prelude`] re-exports the handful of types nearly every experiment
//! touches, so `use dns_resilience::prelude::*;` is all an example needs.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a namespace,
//! generate a workload, attack the root + TLDs and compare the vanilla
//! resolver against the paper's combined scheme.

pub use dns_auth as auth;
pub use dns_core as core;
pub use dns_netd as netd;
pub use dns_resolver as resolver;
pub use dns_sim as sim;
pub use dns_stats as stats;
pub use dns_trace as trace;

/// The types nearly every experiment touches, in one import:
///
/// ```rust
/// use dns_resilience::prelude::*;
///
/// let universe = UniverseSpec::small().build(7);
/// let trace = TraceSpec::demo().scaled(0.05).generate(&universe, 42);
/// let outcome = ExperimentSpec::new(&universe)
///     .trace(trace)
///     .scheme(Scheme::vanilla())
///     .attack(SimTime::from_days(6), &[SimDuration::from_hours(6)])
///     .run();
/// assert_eq!(outcome.attacks.len(), 1);
/// ```
pub mod prelude {
    pub use dns_core::{Name, Question, RecordType, SimDuration, SimTime, Ttl};
    pub use dns_resolver::{
        CachingServer, InfraCache, RecordCache, RenewalPolicy, ResolverConfig,
        ResolverConfigBuilder, RetryPolicy, RootHints, ShardedCache,
    };
    pub use dns_sim::experiment::{paper_durations, Scheme, ATTACK_START_DAY};
    pub use dns_sim::{
        AttackScenario, ExperimentSpec, RunManifest, ServerFarm, SimConfig, SimNet, Simulation,
        SweepOutcome,
    };
    pub use dns_stats::Table;
    pub use dns_trace::{Trace, TraceSpec, Universe, UniverseSpec};
}
