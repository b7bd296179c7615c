//! Trace-driven DNS simulator with DDoS attack injection.
//!
//! This crate glues the workspace together into the paper's experimental
//! apparatus:
//!
//! * [`ServerFarm`] — every authoritative server of a generated
//!   [`Universe`](dns_trace::Universe), sharing zone data behind `Arc`,
//! * [`AttackScenario`] / [`CompiledAttack`] — black-outs of zone sets over
//!   time intervals (the headline scenario targets the root and all TLDs
//!   at the start of day 7),
//! * [`SimNet`] — the [`Upstream`](dns_resolver::Upstream) implementation
//!   that routes resolver queries to the farm, subject to the attack,
//! * [`Simulation`] — replays a [`Trace`](dns_trace::Trace) or any
//!   [`QueryStream`](dns_trace::QueryStream) through a
//!   [`CachingServer`](dns_resolver::CachingServer), interleaving renewal
//!   events, occupancy sampling and metric snapshots,
//! * [`experiment`] — schemes, outcome types and the paper's constants,
//! * [`sweep`] — the parallel experiment engine: an [`ExperimentSpec`]
//!   fans (trace × scheme) run units over scoped worker threads, shares
//!   one farm per long-TTL setting via `Arc`, collects results in stable
//!   spec order (so output is thread-count independent) and records a
//!   [`RunManifest`] of per-unit accounting.
//!
//! # Example
//!
//! ```rust
//! use dns_sim::{AttackScenario, SimConfig, Simulation};
//! use dns_trace::{TraceSpec, UniverseSpec};
//! use dns_core::{SimDuration, SimTime};
//! use dns_resolver::ResolverConfig;
//!
//! let universe = UniverseSpec::small().build(7);
//! let trace = TraceSpec::demo().scaled(0.05).generate(&universe, 7);
//!
//! let mut sim = Simulation::new(&universe, trace, SimConfig::new(ResolverConfig::vanilla()));
//! sim.set_attack(
//!     AttackScenario::root_and_tlds(SimTime::from_days(6), SimDuration::from_hours(6))
//!         .compile(&universe),
//! );
//! sim.run_to_end();
//! assert!(sim.metrics().queries_in > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod attack;
pub mod damage;
mod driver;
pub mod experiment;
mod farm;
pub mod gap;
mod network;
mod rss;
pub mod sweep;

pub use adversary::{AdversaryKind, AdversarySpec, CompiledAdversary, ADVERSARY_CLIENT};
pub use attack::{AttackScenario, Blackout, CompiledAttack};
pub use driver::{scheme_label, AdversaryStats, SimConfig, SimReport, Simulation};
pub use farm::ServerFarm;
pub use network::{NetworkStats, SimNet};
pub use rss::peak_rss_kb;
pub use sweep::{ExperimentSpec, GapOutcome, RunManifest, SweepOutcome, UnitRecord};
