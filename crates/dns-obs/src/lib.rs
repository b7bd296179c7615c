//! Observability layer for the DNS-resilience stack.
//!
//! The paper's claims are statements about *distributions* — failure
//! ratios, resolution latency, cache occupancy over an attack window —
//! so flat counters are not enough. This crate provides the three
//! observability primitives the rest of the workspace threads through
//! its layers:
//!
//! * [`LogHistogram`] — a fixed-bucket log-scale histogram with an
//!   inline bucket array: recording, merging and quantile queries are
//!   allocation-free, so it can sit on the resolver's hot path without
//!   violating the zero-allocation guarantees established in PR 3.
//! * [`Registry`] — named counters and histograms behind pre-registered
//!   [`CounterId`]/[`HistId`] handles, with Prometheus-text rendering
//!   ([`Registry::render_prometheus`]) for scrapes and compact
//!   `name=value` lines ([`Registry::render_compact`]) for `CHAOS TXT`
//!   exposition, [`Registry::merge`] to fold per-worker registries by
//!   name, plus [`validate_prometheus_text`] to keep the output format
//!   honest in tests and CI.
//! * [`counter_set!`] — declares a struct of plain `u64` counters once,
//!   one `field: "help"` row per counter, generating its window
//!   arithmetic and a [`CounterField`] iterator every exposition surface
//!   walks.
//! * [`QueryTrace`] — a bounded ring of typed [`TraceEvent`]s recording
//!   one resolution end-to-end (cache probes, referral chase, retries,
//!   backoff, outcome), rendered by [`QueryTrace::explain`].
//!
//! Latency is measured in *virtual* milliseconds inside the simulator
//! and *wall* milliseconds inside the `Resolved` daemon; both feed the
//! same histogram type, so experiment manifests and live scrapes report
//! comparable p50/p90/p99 columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod hist;
mod registry;
mod trace;

pub use counters::CounterField;
pub use hist::LogHistogram;
pub use registry::{validate_prometheus_text, CounterId, HistId, Registry};
pub use trace::{QueryTrace, TraceEvent, TraceOutcome, DEFAULT_TRACE_CAPACITY};
