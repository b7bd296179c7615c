//! Runs every workload in smoke mode, traced and untraced, and checks
//! the result line against `BENCHMARK.json`: exactly the declared
//! metrics, each with its declared unit, and a correct run.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(bench: &str, section: &str) -> Vec<(String, String)> {
    let start = bench
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name"),
                field_opt(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn field_opt(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"')? + 1;
    let close = open + rest[open..].find('"')?;
    Some(rest[open..close].to_string())
}

fn field(obj: &str, key: &str) -> String {
    field_opt(obj, key).unwrap_or_else(|| panic!("{key} missing in {obj}"))
}

/// `(name, unit)` pairs of a result line's `metrics` object.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\"value\"")
        .zip(metrics.split("\"value\"").skip(1))
        .map(|(before, after)| {
            let name_end = before.rfind("\": {").expect("metric name");
            let name_start = before[..name_end].rfind('"').expect("metric name opens") + 1;
            (
                before[name_start..name_end].to_string(),
                field(after, "unit"),
            )
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_prints_the_declared_metrics_in_seconds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = declared(&bench, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(workloads.len() >= 2);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(&bench, section);
        want.sort();
        for w in &workloads {
            let t0 = Instant::now();
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "9",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{w} trace {trace} failed:\n{stdout}");
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "{w} smoke run is slow"
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{w}: {last}");
            let mut got = printed(last);
            for (name, unit) in &got {
                assert!(valid_name(name), "bad metric name {name}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
            got.sort();
            assert_eq!(
                got, want,
                "{w} trace {trace} metrics differ from BENCHMARK.json"
            );
        }
    }
}
