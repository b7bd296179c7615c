//! The repository benchmark: client-observed `Resolved` on hot and
//! water-torture traffic, plus the paper's root+TLD blackout replayed
//! through `Simulation`.
//!
//!   cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload daemon_hot --seed 1 --seconds 10 --trace 0
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger of a separate traced run; `--smoke` shrinks every size so a
//! run finishes in seconds. The last line of standard output is the
//! result as one JSON object.

mod alloc;
mod cpu;
mod daemon;
mod gen;
mod report;
mod sim;

use report::Report;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 3] = ["daemon_hot", "daemon_torture", "sim_blackout"];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reports 0 and says so.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("packetio.recv_ns_per_pkt", "ns"),
    ("packetio.recv_wait_ns_per_pkt", "ns"),
    ("packetio.send_ns_per_pkt", "ns"),
    ("packetio.pkts_per_batch", "count"),
    ("resolved.serve_ns_per_pkt", "ns"),
    ("resolved.loop_ns_per_pkt", "ns"),
    ("resolved.worker_busy_share", "share"),
    ("wirecache.hit_share", "share"),
    ("wirecache.serve_ns", "ns"),
    ("wirecache.allocs_per_serve", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.allocs_per_decode", "count"),
    ("wire.allocs_per_encode", "count"),
    ("resolver.self_ns", "ns"),
    ("resolver.allocs_per_query", "count"),
    ("resolver.cache_hit_share", "share"),
    ("resolver.upstream_per_query", "count"),
    ("resolver.rss_growth_kb", "KiB"),
    ("upstream.exchange_ns", "ns"),
    ("upstream.failures", "count"),
    ("authd.busy_share", "share"),
    ("auth.handle_ns", "ns"),
    ("trace.next_ns", "ns"),
    ("simnet.query_ns", "ns"),
    ("simnet.ns_per_query", "ns"),
    ("renewal.ns_per_query", "ns"),
    ("purge.ns_per_query", "ns"),
    ("driver.self_ns_per_query", "ns"),
    ("setup.universe_s", "s"),
    ("setup.farm_s", "s"),
    ("setup.warmup_s", "s"),
    ("client.busy_share", "share"),
    ("trace_overhead", "ratio"),
];

/// Every end-to-end metric an untraced run prints, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("hit_p99_us", "us"),
    ("cpu_us_per_query", "us"),
    ("peak_rss_kb", "KiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn run(a: &Args) -> std::io::Result<Report> {
    let mut report = Report::new();
    let setups = if a.smoke { 1 } else { 5 };
    match a.workload.as_str() {
        "sim_blackout" => {
            let plan = if a.smoke {
                sim::SimPlan {
                    universe: dns_trace::UniverseSpec::small(),
                    trace: dns_trace::TraceSpec::TRC4.scaled(0.02),
                    seconds: 0.0,
                    setups,
                }
            } else {
                sim::SimPlan {
                    universe: dns_trace::UniverseSpec::standard(),
                    trace: dns_trace::TraceSpec::TRC4,
                    seconds: a.seconds,
                    setups,
                }
            };
            if a.trace {
                sim::run_traced(&plan, a.seed, &mut report);
            } else {
                sim::run(&plan, a.seed, &mut report);
            }
        }
        workload => {
            let plan = daemon::DaemonPlan {
                torture_every: if workload == "daemon_torture" { 4 } else { 0 },
                seconds: if a.smoke { 1.0 } else { a.seconds },
                setups,
            };
            if a.trace {
                daemon::run_traced(&plan, a.seed, &mut report)?;
            } else {
                daemon::run(&plan, a.seed, &mut report)?;
            }
        }
    }
    let wanted: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        if report.get(name).is_none() {
            missing.push(name);
            report.push(name, 0.0, unit);
        }
    }
    if !missing.is_empty() {
        report.note(format!(
            "not exercised by {} (reported as 0): {}",
            a.workload,
            missing.join(", ")
        ));
    }
    report
        .metrics
        .retain(|m| wanted.iter().any(|&(n, _)| n == m.name));
    report
        .metrics
        .sort_by_key(|m| wanted.iter().position(|&(n, _)| n == m.name));
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "== {} seed {} ({}) on {} cores ==",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print!("{}", report.table());
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload daemon_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "daemon_hot");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace && !a.smoke);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sim_blackout --trace 2").is_err());
        assert!(args("--workload sim_blackout --seconds 0").is_err());
        assert!(args("--workload sim_blackout --bogus").is_err());
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (n, u) in &all {
            assert!(ok_name(n), "bad metric name {n}");
            assert!(ok_unit(u), "bad unit {u} for {n}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
    }
}
