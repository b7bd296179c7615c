//! Caching DNS resolver with the DSN 2007 resilience policies.
//!
//! This crate implements the paper's contribution: a caching server
//! ([`CachingServer`]) whose handling of *infrastructure resource records*
//! (IRRs — the `NS` records of a zone plus the address records of its
//! name-servers) can be hardened against DDoS attacks on ancestor zones
//! through three independent, incrementally deployable schemes:
//!
//! * **TTL refresh** ([`ResolverConfig::refresh`]) — every response from a
//!   zone's own servers carries a copy of the zone's IRRs; refreshing
//!   resets their cached expiry to a full TTL.
//! * **TTL renewal** ([`RenewalPolicy`]) — just before a popular zone's
//!   IRRs expire, the resolver re-fetches them from the zone itself,
//!   budgeted by a per-zone *credit* (LRU / LFU / adaptive variants).
//! * **Long TTL** — zone operators publish IRRs with multi-day TTLs; the
//!   resolver honours them up to [`ResolverConfig::ttl_cap`].
//!
//! The resolver is *clock-free*: every entry point takes an explicit
//! [`SimTime`](dns_core::SimTime) and outgoing queries go through the [`Upstream`] trait, so
//! the whole resolution pipeline is deterministic and simulation-friendly.
//!
//! # Example
//!
//! ```rust
//! use dns_resolver::{CachingServer, ResolverConfig, RootHints, Upstream};
//! use dns_core::{Message, Name, SimTime};
//! use std::net::Ipv4Addr;
//!
//! /// An upstream where every server is unreachable.
//! struct DeadNetwork;
//! impl Upstream for DeadNetwork {
//!     fn query(&mut self, _server: Ipv4Addr, _query: &Message, _now: SimTime) -> Option<Message> {
//!         None
//!     }
//! }
//!
//! # fn main() -> Result<(), dns_core::DnsError> {
//! let hints = RootHints::new(vec![("a.root-servers.net".parse()?, Ipv4Addr::new(198, 41, 0, 4))]);
//! let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
//! let outcome = cs.resolve_a(&"www.ucla.edu".parse()?, SimTime::ZERO, &mut DeadNetwork);
//! assert!(outcome.is_failure());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
pub mod dnssec;
mod inflight;
mod infra;
mod metrics;
mod obs;
mod policy;
mod resolve;
mod retry;
mod shard;
mod upstream;

pub use cache::{CacheEntry, Credibility, NegativeInsertOutcome, NegativeKind, RecordCache};
pub use config::{DefensePolicy, ResolverConfig, ResolverConfigBuilder, RootHints, StalePolicy};
pub use dnssec::SecureStatus;
pub use infra::{GapSample, InfraCache, InfraEntry, InfraSource};
pub use metrics::{OccupancySample, ResolverMetrics};
pub use obs::{LatencyModel, ResolverObs};
pub use policy::RenewalPolicy;
pub use resolve::{CachingServer, Outcome};
pub use retry::RetryPolicy;
pub use shard::ShardedCache;
pub use upstream::Upstream;

/// The name perfbench's sim ledger still builds its cache under; the
/// next change to the benchmark switches `perfbench/src/sim.rs` to
/// [`ShardedCache::new`] and deletes this alias.
#[doc(hidden)]
pub type LocalBackend = ShardedCache;
