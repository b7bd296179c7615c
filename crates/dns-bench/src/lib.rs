//! Shared plumbing for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). They all follow the same recipe:
//!
//! 1. build the standard [`Universe`] and the trace(s) involved,
//! 2. declare the sweep as a [`dns_sim::sweep::ExperimentSpec`] (via the
//!    [`Lab`]'s memoised grid helpers) and run it on the parallel engine,
//! 3. print a paper-shaped table, write a CSV next to it, and emit the
//!    run manifest ([`Lab::emit_manifest`]).
//!
//! Set `DNS_REPRO_SCALE` (a float, default `1.0`) to shrink or grow the
//! workloads, e.g. `DNS_REPRO_SCALE=0.1 cargo run --release --bin fig4`
//! for a quick preview. `DNS_SIM_THREADS` pins the engine's worker count
//! (`1` forces sequential execution; results are identical either way).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use dns_core::Ttl;
use dns_sim::experiment::{AttackOutcome, OverheadOutcome};
use dns_sim::gap::GapAnalysis;
use dns_sim::{RunManifest, ServerFarm};
use dns_stats::{manifest_table, Table};
use dns_trace::{Trace, TraceSpec, Universe, UniverseSpec};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed for universe generation (shared by every experiment so that all
/// figures describe the same simulated internet).
pub const UNIVERSE_SEED: u64 = 20070625;

/// Base seed for trace generation; each trace offsets by its index.
pub const TRACE_SEED: u64 = 42;

/// The scale factor from `DNS_REPRO_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("DNS_REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

/// Builds the experiment universe. At scale < 1 the universe shrinks too,
/// keeping query density roughly constant.
pub fn standard_universe() -> Universe {
    let s = scale();
    let mut spec = UniverseSpec::standard();
    if s < 1.0 {
        spec.sld_count = ((spec.sld_count as f64 * s).ceil() as usize).max(200);
        spec.tld_count = ((spec.tld_count as f64 * s.max(0.15)).ceil() as usize).max(20);
    }
    spec.build(UNIVERSE_SEED)
}

/// Generates the trace for `spec`, applying the global scale factor.
pub fn build_trace(universe: &Universe, spec: &TraceSpec, index: u64) -> Trace {
    spec.scaled(scale().min(1.0))
        .generate(universe, TRACE_SEED + index)
}

/// The output directory for experiment artifacts
/// (`EXPERIMENTS-output/`), created on demand.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn output_dir() -> PathBuf {
    let dir = std::env::var("DNS_REPRO_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("EXPERIMENTS-output"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// Prints a table under a heading and also writes it as CSV into
/// [`output_dir`].
///
/// # Panics
///
/// Panics if the CSV cannot be written.
pub fn emit(heading: &str, file_stem: &str, table: &Table) {
    println!("== {heading} ==");
    println!("{table}");
    let path = output_dir().join(format!("{file_stem}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    println!("[csv written to {}]", display_path(&path));
}

fn display_path(path: &Path) -> String {
    path.display().to_string()
}

/// Formats a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio with two decimals and an `x` suffix.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Shared state for a sweep of experiments: the universe plus memoised
/// traces, server farms (one per long-TTL setting, shared by `Arc`
/// across every run), memoised outcomes, and the run manifests of every
/// engine sweep executed so far.
#[derive(Debug)]
pub struct Lab {
    pub(crate) universe: Universe,
    pub(crate) traces: HashMap<&'static str, Arc<Trace>>,
    pub(crate) farms: HashMap<u64, Arc<ServerFarm>>,
    pub(crate) attack_memo: HashMap<(String, &'static str, u64), AttackOutcome>,
    pub(crate) overhead_memo: HashMap<(String, &'static str), OverheadOutcome>,
    pub(crate) gap_memo: HashMap<&'static str, GapAnalysis>,
    pub(crate) manifests: Vec<RunManifest>,
}

impl Lab {
    /// Builds the lab around the standard universe.
    pub fn new() -> Self {
        Lab::with_universe(standard_universe())
    }

    /// Builds the lab around an explicit universe (tests use a small one).
    pub fn with_universe(universe: Universe) -> Self {
        Lab {
            universe,
            traces: HashMap::new(),
            farms: HashMap::new(),
            attack_memo: HashMap::new(),
            overhead_memo: HashMap::new(),
            gap_memo: HashMap::new(),
            manifests: Vec::new(),
        }
    }

    /// The universe under test.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The (memoised) trace for a preset, shared without copying.
    pub fn trace(&mut self, spec: &TraceSpec) -> Arc<Trace> {
        let index = spec.name.as_bytes().last().copied().unwrap_or(0) as u64;
        Arc::clone(
            self.traces
                .entry(spec.name)
                .or_insert_with(|| Arc::new(build_trace(&self.universe, spec, index))),
        )
    }

    /// A farm for the given long-TTL setting, built once and shared.
    pub fn farm(&mut self, long_ttl: Option<Ttl>) -> Arc<ServerFarm> {
        let key = long_ttl.map_or(u64::MAX, |t| u64::from(t.as_secs()));
        Arc::clone(
            self.farms
                .entry(key)
                .or_insert_with(|| Arc::new(ServerFarm::build(&self.universe, long_ttl))),
        )
    }

    /// Records the manifest of one engine sweep.
    pub fn record_manifest(&mut self, manifest: RunManifest) {
        self.manifests.push(manifest);
    }

    /// Prints the combined run manifest of every sweep this lab executed
    /// and writes it as `run_manifest.csv` into [`output_dir`].
    pub fn emit_manifest(&self) {
        if self.manifests.is_empty() {
            return;
        }
        let mut rows = Vec::new();
        for manifest in &self.manifests {
            let offset = rows.len();
            rows.extend(manifest.rows().into_iter().map(|mut r| {
                r.unit += offset;
                r
            }));
        }
        let table = manifest_table(&rows);
        emit("Run manifest", "run_manifest", &table);
        let threads = self.manifests.iter().map(|m| m.threads).max().unwrap_or(1);
        let wall: f64 = self
            .manifests
            .iter()
            .map(|m| m.total_wall.as_secs_f64())
            .sum();
        let unit_sum: f64 = self
            .manifests
            .iter()
            .map(|m| m.unit_wall_sum().as_secs_f64())
            .sum();
        let speedup = if wall > 0.0 { unit_sum / wall } else { 1.0 };
        println!(
            "{} sweep(s), {} units on up to {} thread(s): {:.1}s wall, \
             {:.1}s unit total, est. speedup {:.2}x",
            self.manifests.len(),
            rows.len(),
            threads,
            wall,
            unit_sum,
            speedup
        );
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // The test environment does not set the variable.
        if std::env::var("DNS_REPRO_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.345), "12.35");
        assert_eq!(ratio(2.5), "2.50x");
    }
}
