//! Exposition helpers shared by the live metric suites: parse a
//! `CHAOS TXT metrics.bind.` answer and check that every declared
//! counter reaches both exposition surfaces with its in-process value.

use dns_core::{Message, RData};
use dns_netd::Resolved;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Per-metric key→value maps parsed from a CHAOS snapshot: counters
/// under `"value"`, histograms under `count`/`sum`/`p50`/`p90`/`p99`.
pub type Snapshot = HashMap<String, HashMap<String, u64>>;

/// Parses the compact `name=value` / `name count=.. sum=.. p50=..` TXT
/// lines into per-metric key→value maps.
pub fn parse_snapshot(lines: &[String]) -> Snapshot {
    let mut out = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once('=') {
            if !name.contains(' ') {
                // Counter: `name=value`.
                let mut fields = HashMap::new();
                fields.insert("value".to_string(), value.parse().unwrap());
                out.insert(name.to_string(), fields);
                continue;
            }
        }
        // Histogram: `name count=N sum=S p50=A p90=B p99=C`.
        let mut parts = line.split_whitespace();
        let name = parts.next().unwrap().to_string();
        let fields = parts
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect();
        out.insert(name, fields);
    }
    out
}

/// TXT strings of a CHAOS metrics response.
pub fn txt_lines(resp: &Message) -> Vec<String> {
    resp.answers
        .iter()
        .filter_map(|r| match r.rdata() {
            RData::Txt(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// A Prometheus counter sample value (`name value` line).
pub fn prom_counter(body: &str, metric: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{metric} ")))
        .unwrap_or_else(|| panic!("{metric} missing from exposition:\n{body}"))
        .trim()
        .parse()
        .unwrap()
}

/// Surface coverage: every `DaemonStats` and `ResolverMetrics` field
/// shows in the CHAOS TXT `snapshot` and in `Resolved::prometheus()`
/// under its exposition name with the daemon's in-process value, and the
/// Prometheus text validates.
///
/// Call once the daemon has no other query in flight. The snapshot was
/// rendered before its own reply was sent, and the daemon counts a reply
/// as served only after sending it, so this first waits for that count
/// and then expects the snapshot's `daemon_served` to be one lower.
pub fn assert_every_counter_exposed(resolver: &Resolved, snapshot: &Snapshot) {
    let shown_served = snapshot["daemon_served"]["value"];
    let deadline = Instant::now() + Duration::from_secs(2);
    while resolver.served() <= shown_served && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = resolver.stats();
    let metrics = resolver.metrics();
    let body = resolver.prometheus();
    dns_obs::validate_prometheus_text(&body).expect("valid exposition text");
    for f in stats.fields().chain(metrics.fields()) {
        let chaos = if f.name == "daemon_served" {
            f.value - 1
        } else {
            f.value
        };
        let shown = snapshot
            .get(f.name)
            .unwrap_or_else(|| panic!("{} missing from the CHAOS snapshot", f.name));
        assert_eq!(
            shown["value"], chaos,
            "CHAOS TXT must reconcile for {}",
            f.name
        );
        assert_eq!(
            prom_counter(&body, f.name),
            f.value,
            "Prometheus must reconcile for {}",
            f.name
        );
    }
}
