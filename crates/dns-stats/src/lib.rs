//! Statistics toolkit for the DNS-resilience experiments.
//!
//! Small, dependency-light building blocks used by every experiment binary:
//!
//! * [`Cdf`] — empirical cumulative distribution functions (Figure 3),
//! * [`Summary`] — running mean/min/max/percentiles,
//! * [`Table`] — aligned plain-text and CSV table emission matching the
//!   rows/series the paper reports,
//! * [`manifest`] — the run-manifest table every sweep prints and writes
//!   alongside its CSVs.
//!
//! # Example
//!
//! ```rust
//! use dns_stats::Cdf;
//!
//! let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 4.0]);
//! assert_eq!(cdf.quantile(0.5), Some(2.0));
//! assert!((cdf.fraction_at_or_below(2.0) - 0.75).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
pub mod manifest;
mod plot;
mod summary;
mod table;

pub use cdf::Cdf;
pub use manifest::{manifest_table, ManifestRow};
pub use plot::{sparkline, AsciiChart};
pub use summary::Summary;
pub use table::{Align, Table};
