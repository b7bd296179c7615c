//! Synthetic DNS namespace and query-trace generation.
//!
//! The paper evaluates its schemes on packet traces captured at five US
//! universities plus the live 2006 DNS tree — inputs we do not have. This
//! crate builds the closest synthetic equivalents (see `DESIGN.md` §5):
//!
//! * [`Universe`] — a generated DNS tree: root → ~300 TLDs → Zipf-sized
//!   second-level populations → occasional deeper zones, each zone with
//!   2–3 name-servers, an infrastructure-record TTL drawn from an
//!   empirical mixture (minutes → days, mode ≤ 12 h, as the paper
//!   reports), and a handful of data records,
//! * [`Trace`] — a multi-day query workload: Zipf name popularity,
//!   per-client streams, diurnal rate modulation,
//! * [`TraceSpec`] — presets `TRC1`–`TRC6` mirroring Table 1's shape
//!   (five one-week traces of varying size plus one one-month trace).
//!
//! Everything is deterministic given the seed.
//!
//! # Example
//!
//! ```rust
//! use dns_trace::{TraceSpec, UniverseSpec};
//!
//! let universe = UniverseSpec::small().build(7);
//! let trace = TraceSpec::demo().generate(&universe, 7);
//! assert!(!trace.queries.is_empty());
//! let stats = trace.stats();
//! assert!(stats.distinct_zones <= universe.zone_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod intern;
pub mod io;
mod namespace;
mod spec;
mod stream;
mod trace;
mod ttl_model;
mod workload;
mod zipf;

pub use intern::{InternedNamespace, NameId, NameTable, NameTableBuilder};
pub use namespace::{NxnsBombSpec, Universe, UniverseSpec, ZoneSpec};
pub use spec::TraceSpec;
pub use stream::{QueryStream, TargetSource, TraceReplay, TraceStream, UniverseTargets};
pub use trace::{QueryEvent, Trace, TraceStats};
pub use ttl_model::TtlModel;
pub use workload::WorkloadBuilder;
pub use zipf::Zipf;
