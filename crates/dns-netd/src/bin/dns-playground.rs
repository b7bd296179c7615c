//! Boots a miniature internet on loopback — six authoritative daemons and
//! one recursive resolver — then resolves names through it over real UDP,
//! and demonstrates the live robustness layer: the retry policy resolving
//! through injected packet loss, the batched wire fast lane answering a
//! repeated hot query from pre-serialized bytes, and the TTL-refresh
//! scheme surviving a 100%-loss blackout window over every root and TLD
//! daemon (the paper's headline attack, on real sockets).
//!
//! ```sh
//! cargo run --release -p dns-netd --bin dns-playground
//! # with injected loss (used by ci.sh as the netd smoke test):
//! DNS_PLAYGROUND_LOSS=0.1 DNS_PLAYGROUND_SEED=7 \
//!     cargo run --release -p dns-netd --bin dns-playground
//! # worker pool: 4 workers over one 4-shard cache with single-flight
//! # coalescing, every resolution explained (used by ci.sh):
//! cargo run --release -p dns-netd --bin dns-playground -- --shards 4 --trace
//! ```
//!
//! Without `--shards` one worker resolves over a one-shard cache with
//! coalescing off. Exits non-zero when any of the scripted resolutions
//! deviates from its expected outcome — or, with `--trace`, when the
//! explanation of a resolved query names another query — so CI can gate
//! on it.

use dns_core::{Name, Question, Rcode, RecordClass, RecordType};
use dns_netd::playground;
use dns_netd::{client, FaultHandle, FaultInjector, Resolved, UdpUpstream, CHAOS_METRICS_NAME};
use dns_resolver::{CachingServer, ResolverConfig, RetryPolicy};
use std::time::Duration;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--shards N` from argv: N workers over N cache shards with
/// coalescing; `None` without the flag.
fn arg_shards() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--shards" {
            let n = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n > 0)
                .expect("--shards takes a positive integer");
            return Some(n);
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let loss = env_or("DNS_PLAYGROUND_LOSS", 0.0);
    let seed = env_or("DNS_PLAYGROUND_SEED", 7u64);
    let trace = std::env::args().any(|a| a == "--trace");
    let shards = arg_shards();

    println!("booting the playground internet…");
    let net = playground::boot()?;
    for d in &net.daemons {
        println!("  {d}");
    }

    let workers = shards.unwrap_or(1);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(RetryPolicy::standard())
        .seed(seed)
        .shards(workers)
        .coalesce(shards.is_some())
        .build();

    // One worker per shard, each with its own upstream transport and
    // fault injector, all over one shared cache.
    let mut upstreams = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let udp = UdpUpstream::with_route(Duration::from_millis(300), net.route_fn())?;
        let (upstream, faults) = FaultInjector::new(udp, seed + w as u64);
        upstreams.push(upstream);
        handles.push(faults);
    }
    if loss > 0.0 {
        for h in &handles {
            h.set_loss(loss);
        }
        println!("  injecting {:.0}% packet loss (seed {seed})", loss * 100.0);
    }
    let cs = CachingServer::new(config, net.hints.clone());
    let cache = cs.backend().clone();
    let resolver = Resolved::spawn_pool(cs, upstreams, "127.0.0.1:0")?;
    println!(
        "  resolver on {} ({}; {} worker(s) over {} cache shard(s), coalescing {})",
        resolver.addr(),
        config.retry,
        resolver.worker_count(),
        cache.shard_count(),
        if config.coalesce { "on" } else { "off" }
    );
    let outcome = run_script(&net, &resolver, &handles, trace);
    println!(
        "singleflight: {} flights led, {} coalesced",
        cache.flights_led(),
        cache.flights_shared()
    );
    resolver.stop();
    net.stop();
    outcome
}

/// The scripted resolution tour.
fn run_script(
    net: &playground::Playground,
    resolver: &Resolved,
    faults: &[FaultHandle],
    trace: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    if trace {
        resolver.enable_trace();
        println!("  per-query tracing ON (--trace)");
    }
    println!();

    let mut failures = 0u32;
    let mut dig = |qname: &str, rtype, expect: Rcode| {
        let name: Name = qname.parse().expect("valid name");
        let wire_hits = resolver.stats().wire_hits;
        match client::query(resolver.addr(), &name, rtype, Duration::from_secs(5)) {
            Ok(resp) => {
                println!("$ dig @{} {qname}", resolver.addr());
                print!("{}", client::render(&resp));
                if resp.header.rcode != expect {
                    println!(";; UNEXPECTED: wanted {expect}");
                    failures += 1;
                }
                // A query the resolver answered (not the wire fast lane)
                // must be the one the pool's last trace explains.
                if trace && resolver.stats().wire_hits == wire_hits {
                    let explain = resolver.explain_last().unwrap_or_default();
                    print!("{explain}");
                    if !explain.contains(&format!("query {name} {rtype}")) {
                        println!(";; UNEXPECTED: the last trace does not explain this query");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                println!("$ dig {qname} → error: {e}");
                failures += 1;
            }
        }
        println!();
    };

    dig("www.ucla.edu", RecordType::A, Rcode::NoError);
    dig("web.ucla.edu", RecordType::A, Rcode::NoError); // CNAME chain
    dig("host.cs.ucla.edu", RecordType::A, Rcode::NoError); // deep, signed zone
    dig("www.example.com", RecordType::A, Rcode::NoError); // other branch
    dig("nowhere.ucla.edu", RecordType::A, Rcode::NxDomain); // NXDOMAIN

    // Repeat the hot query: the first dig compiled its response into the
    // pre-serialized wire cache, so this one must be served by the
    // batched fast lane without touching the resolver.
    println!("--- repeating the hot query (wire fast lane) ---");
    let hits_before = resolver.stats().wire_hits;
    dig("www.ucla.edu", RecordType::A, Rcode::NoError);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while resolver.stats().wire_hits <= hits_before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = resolver.stats();
    let wire_lane_missed = stats.wire_hits <= hits_before;
    if wire_lane_missed {
        println!(";; UNEXPECTED: repeat query missed the wire cache ({stats})\n");
    } else {
        println!(
            "wire fast lane HIT ({} cached response(s); {})\n",
            resolver.wire_cache_len(),
            stats
        );
    }

    println!("--- blacking out the root and TLD daemons (live DDoS, 100% loss) ---");
    let targets = net.top_level_ips();
    for h in faults {
        h.blackout(&targets, Duration::from_secs(3600));
    }
    println!(
        "injected blackout over {} top-level servers; daemons stay up, their packets vanish.\n",
        targets.len()
    );

    // Still resolvable: the resolver holds ucla.edu's (refreshed) IRRs.
    dig("www.ucla.edu", RecordType::A, Rcode::NoError);
    // A name in a never-visited branch now fails (SERVFAIL) — after the
    // retry policy exhausts its budget against the blackout.
    dig("www.never-seen.com", RecordType::A, Rcode::ServFail);

    // The daemon's self-reported metrics, over the wire: the CHAOS-class
    // `TXT metrics.bind.` convention (as `dig CH TXT metrics.bind` would).
    let chaos = Question::with_class(
        CHAOS_METRICS_NAME.parse().expect("valid name"),
        RecordType::Txt,
        RecordClass::Ch,
    );
    match client::query_question(resolver.addr(), chaos, Duration::from_secs(5)) {
        Ok(resp) => {
            println!("$ dig @{} CH TXT {CHAOS_METRICS_NAME}", resolver.addr());
            print!("{}", client::render(&resp));
            if resp.answers.is_empty() {
                println!(";; UNEXPECTED: empty metrics snapshot");
                failures += 1;
            }
        }
        Err(e) => {
            println!("$ dig CH TXT {CHAOS_METRICS_NAME} → error: {e}");
            failures += 1;
        }
    }
    println!();

    println!("resolver metrics: {}", resolver.metrics());
    println!("daemon stats: {}", resolver.stats());
    for (i, h) in faults.iter().enumerate() {
        println!("fault stats[w{i}]: {}", h.stats());
    }

    if wire_lane_missed {
        failures += 1;
    }
    if failures > 0 {
        return Err(format!("{failures} resolution(s) deviated from the script").into());
    }
    println!("playground script OK");
    Ok(())
}
