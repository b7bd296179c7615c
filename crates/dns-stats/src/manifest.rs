//! Tabular rendering of experiment-engine run manifests.
//!
//! The sweep engine in `dns-sim` records one row per run unit (wall
//! clock, queries replayed, events processed, cache-occupancy peak,
//! worker id, latency percentiles and named counter columns). This
//! module turns those rows into a [`Table`] so every bench binary prints
//! and exports the same manifest format.

use crate::table::Table;

/// One run unit of a sweep, in the engine's stable spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRow {
    /// Position in spec order (0-based).
    pub unit: usize,
    /// Unit kind: `attack`, `adversarial`, `overhead` or `gaps`.
    pub kind: String,
    /// Trace label.
    pub trace: String,
    /// Scheme label.
    pub scheme: String,
    /// Simulation runs inside the unit (one per attack duration).
    pub runs: usize,
    /// Wall-clock time spent on the unit, in milliseconds.
    pub wall_ms: u64,
    /// Trace queries replayed.
    pub queries: u64,
    /// Simulator events processed (queries in + out, refreshes,
    /// renewals).
    pub events: u64,
    /// Peak cached-record count observed.
    pub peak_records: u64,
    /// Process peak resident set (KiB) when the unit finished.
    pub peak_rss_kb: u64,
    /// Id of the worker thread that executed the unit.
    pub worker: usize,
    /// Median modelled resolution latency over the unit's measured
    /// windows, in virtual milliseconds.
    pub lat_p50_ms: u64,
    /// 90th-percentile modelled resolution latency, virtual ms.
    pub lat_p90_ms: u64,
    /// 99th-percentile modelled resolution latency, virtual ms.
    pub lat_p99_ms: u64,
    /// Counter columns after the fixed ones, as `(column, value)` in
    /// order: every resolver counter summed over the unit's measured
    /// windows, under its field name.
    pub counters: Vec<(&'static str, u64)>,
}

/// Headers of the fixed leading columns, shared with the CSV form; each
/// row's [`ManifestRow::counters`] name the columns that follow.
pub const MANIFEST_HEADERS: [&str; 14] = [
    "unit",
    "kind",
    "trace",
    "scheme",
    "runs",
    "wall_ms",
    "queries",
    "events",
    "peak_records",
    "peak_rss_kb",
    "worker",
    "lat_p50_ms",
    "lat_p90_ms",
    "lat_p99_ms",
];

/// Builds the manifest summary table (also used for `run_manifest.csv`).
///
/// # Panics
///
/// Panics when rows disagree on their counter columns.
pub fn manifest_table(rows: &[ManifestRow]) -> Table {
    let counter_columns: Vec<&str> = rows
        .first()
        .map(|r| r.counters.iter().map(|&(column, _)| column).collect())
        .unwrap_or_default();
    let mut headers = MANIFEST_HEADERS.to_vec();
    headers.extend(&counter_columns);
    let mut table = Table::new(headers);
    table.numeric();
    for r in rows {
        assert!(
            r.counters
                .iter()
                .map(|&(column, _)| column)
                .eq(counter_columns.iter().copied()),
            "manifest rows disagree on counter columns"
        );
        let mut cells = vec![
            r.unit.to_string(),
            r.kind.clone(),
            r.trace.clone(),
            r.scheme.clone(),
            r.runs.to_string(),
            r.wall_ms.to_string(),
            r.queries.to_string(),
            r.events.to_string(),
            r.peak_records.to_string(),
            r.peak_rss_kb.to_string(),
            r.worker.to_string(),
            r.lat_p50_ms.to_string(),
            r.lat_p90_ms.to_string(),
            r.lat_p99_ms.to_string(),
        ];
        cells.extend(r.counters.iter().map(|&(_, value)| value.to_string()));
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(unit: usize) -> ManifestRow {
        ManifestRow {
            unit,
            kind: "attack".into(),
            trace: "UCLA".into(),
            scheme: "vanilla".into(),
            runs: 4,
            wall_ms: 1200,
            queries: 50_000,
            events: 180_000,
            peak_records: 900,
            peak_rss_kb: 45_000,
            worker: 0,
            lat_p50_ms: 40,
            lat_p90_ms: 1_087,
            lat_p99_ms: 2_047,
            counters: vec![("fetches_clamped", 12), ("stale_served", 5)],
        }
    }

    #[test]
    fn table_has_one_row_per_unit_plus_headers() {
        let t = manifest_table(&[row(0), row(1)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.headers().len(), MANIFEST_HEADERS.len() + 2);
        let csv = t.to_csv();
        assert!(csv.starts_with("unit,kind,trace,scheme"));
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",lat_p99_ms,fetches_clamped,stale_served"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",2047,12,5"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn renders_without_panicking() {
        let rendered = manifest_table(&[row(0)]).render();
        assert!(rendered.contains("vanilla"));
        assert!(rendered.contains("1200"));
    }

    #[test]
    #[should_panic(expected = "disagree on counter columns")]
    fn mismatched_counter_columns_rejected() {
        let mut other = row(1);
        other.counters.reverse();
        manifest_table(&[row(0), other]);
    }
}
