//! Live-path robustness tests: the retry policy recovering through
//! injected packet loss and blackouts on real loopback sockets, the
//! deterministic replay guarantee, and the worker pool's lifecycle under
//! junk traffic.

use dns_core::{Rcode, RecordType, ResponseKind, SimTime};
use dns_netd::{client, playground, FaultInjector, Resolved, UdpUpstream, MAX_BATCH};
use dns_resolver::{CachingServer, ResolverConfig, ResolverMetrics, RetryPolicy};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Batches of junk the worker pool takes before its valid queries.
const JUNK_BATCHES: usize = 20;

fn client_timeout() -> Duration {
    Duration::from_secs(5)
}

/// A retry policy tuned for loopback tests: more rounds than production
/// would use, tiny backoffs so the suite stays fast.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        initial_backoff_ms: 10,
        backoff_multiplier: 2,
        max_backoff_ms: 80,
        jitter_pct: 50,
        deadline_ms: 1_000,
    }
}

#[test]
fn retry_policy_recovers_through_injected_loss() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 42);
    faults.set_loss(0.25);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(1)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn(cs, upstream, "127.0.0.1:0").unwrap();

    for qname in ["www.ucla.edu", "host.cs.ucla.edu", "www.example.com"] {
        let resp = client::query(
            resolver.addr(),
            &qname.parse().unwrap(),
            RecordType::A,
            client_timeout(),
        )
        .unwrap();
        assert_eq!(
            resp.kind(),
            ResponseKind::Answer,
            "{qname} must resolve through 25% loss"
        );
    }

    let metrics = resolver.metrics();
    let stats = faults.stats();
    assert!(
        stats.dropped_by_loss >= 1,
        "injector dropped nothing: {stats}"
    );
    assert!(
        metrics.retries >= 1,
        "loss was injected but no retry happened: {metrics}"
    );
    assert!(resolver.healthy());
    resolver.stop();
    net.stop();
}

#[test]
fn blackout_of_root_and_tlds_still_answers_cached_zones() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(250), net.route_fn()).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 7);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(2)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn(cs, upstream, "127.0.0.1:0").unwrap();

    // Prime the caches through the full hierarchy.
    let resp = client::query(
        resolver.addr(),
        &"www.ucla.edu".parse().unwrap(),
        RecordType::A,
        client_timeout(),
    )
    .unwrap();
    assert_eq!(resp.kind(), ResponseKind::Answer);

    // 100%-loss blackout window over every root/TLD daemon — the paper's
    // headline attack, but on live sockets via the injector (daemons stay
    // up; their packets just never arrive).
    faults.blackout(&net.top_level_ips(), Duration::from_secs(3600));

    // A *different* name in the cached zone forces an upstream query to
    // the (alive) leaf daemon via cached infrastructure.
    let resp = client::query(
        resolver.addr(),
        &"web.ucla.edu".parse().unwrap(),
        RecordType::A,
        client_timeout(),
    )
    .unwrap();
    assert_eq!(
        resp.kind(),
        ResponseKind::Answer,
        "cached IRRs must carry resolution through the blackout"
    );

    // A branch never visited needs the blacked-out root → SERVFAIL, after
    // the retry policy exhausts its rounds.
    let resp = client::query(
        resolver.addr(),
        &"www.never-seen.com".parse().unwrap(),
        RecordType::A,
        client_timeout(),
    )
    .unwrap();
    assert_eq!(resp.header.rcode, Rcode::ServFail);

    let stats = faults.stats();
    assert!(
        stats.dropped_by_blackout >= test_retry().attempts as u64,
        "every retry round must have hit the blackout: {stats}"
    );
    resolver.stop();
    net.stop();
}

/// Same seed → same drop schedule → same retry counts, even though the
/// traffic crosses real sockets. This is the acceptance bar for the
/// deterministic fault-injection path.
#[test]
fn fault_injection_replays_deterministically_per_seed() {
    fn run(seed: u64) -> (ResolverMetrics, u64) {
        let net = playground::boot().unwrap();
        // Generous socket timeout: on loopback with live daemons the only
        // query failures are the injector's, which are seed-deterministic.
        let udp = UdpUpstream::with_route(Duration::from_secs(2), net.route_fn()).unwrap();
        let (mut upstream, faults) = FaultInjector::new(udp, seed);
        faults.set_loss(0.3);
        let config = ResolverConfig::with_refresh()
            .to_builder()
            .retry(test_retry())
            .seed(seed)
            .build();
        let mut cs = CachingServer::new(config, net.hints.clone());
        for qname in [
            "www.ucla.edu",
            "web.ucla.edu",
            "host.cs.ucla.edu",
            "www.example.com",
            "nowhere.ucla.edu",
        ] {
            let _ = cs.resolve_a(&qname.parse().unwrap(), SimTime::ZERO, &mut upstream);
        }
        let dropped = faults.stats().dropped_by_loss;
        net.stop();
        (*cs.metrics(), dropped)
    }

    let (m1, d1) = run(11);
    let (m2, d2) = run(11);
    assert_eq!(d1, d2, "drop schedule must replay exactly");
    assert_eq!(m1.retries, m2.retries);
    assert_eq!(m1.queries_out, m2.queries_out);
    assert_eq!(m1.failed_out, m2.failed_out);
    assert_eq!(m1.backoff_wait_ms, m2.backoff_wait_ms);

    // A different seed takes a different path (loss draws differ).
    let (m3, d3) = run(12);
    assert!(
        d3 != d1 || m3.queries_out != m1.queries_out || m3.backoff_wait_ms != m1.backoff_wait_ms,
        "different seeds should not replay the same schedule"
    );
}

/// Set by the panic hook when a daemon worker thread panics.
static WORKER_PANICKED: AtomicBool = AtomicBool::new(false);

/// The threaded smoke test of the worker shell: three workers on one real
/// socket take a burst of random junk, then must stay healthy, answer
/// valid queries and shut down promptly. The serving code itself meets
/// junk datagram by datagram in the root `daemon_core` harness.
#[test]
fn worker_pool_serves_and_shuts_down_without_leaking() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        if thread.name().is_some_and(|n| n.starts_with("resolved-")) {
            WORKER_PANICKED.store(true, Ordering::SeqCst);
        }
        default_hook(info);
    }));

    let net = playground::boot().unwrap();
    let upstreams: Vec<_> = (0..3)
        .map(|_| {
            let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
            FaultInjector::new(udp, 5).0
        })
        .collect();
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn_pool(cs, upstreams, "127.0.0.1:0").unwrap();
    assert_eq!(resolver.worker_count(), 3);
    assert!(resolver.healthy());
    assert!(resolver.last_error().is_none());

    // Junk first, one batch at a time so the socket's receive buffer
    // never overflows; the fast-lane counters count every datagram once.
    let junk = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let seen = || {
        let s = resolver.stats();
        s.wire_hits + s.wire_misses + s.wire_bypass
    };
    for _ in 0..JUNK_BATCHES {
        let want = seen() + MAX_BATCH as u64;
        for _ in 0..MAX_BATCH {
            let len = rng.random_range(0..=600usize);
            let datagram: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            junk.send_to(&datagram, resolver.addr()).unwrap();
        }
        let deadline = Instant::now() + client_timeout();
        while seen() < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(seen(), want, "every junk datagram reaches a worker");
    }

    for qname in ["www.ucla.edu", "www.example.com"] {
        let resp = client::query(
            resolver.addr(),
            &qname.parse().unwrap(),
            RecordType::A,
            client_timeout(),
        )
        .unwrap();
        assert_eq!(resp.kind(), ResponseKind::Answer);
    }
    // `served` ticks *after* the reply leaves the socket, so give the
    // worker a moment to pass the increment.
    let deadline = Instant::now() + Duration::from_secs(1);
    while resolver.served() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(resolver.served() >= 2);
    assert_eq!(resolver.stats().send_errors, 0);
    assert!(resolver.healthy(), "{:?}", resolver.last_error());

    // stop() joins every worker; it must return promptly (the 50 ms read
    // timeout bounds how long a quiescent worker can block) and the port
    // must go silent afterwards.
    let addr = resolver.addr();
    let start = Instant::now();
    resolver.stop();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "shutdown must join all workers promptly"
    );
    let err = client::query(
        addr,
        &"www.ucla.edu".parse().unwrap(),
        RecordType::A,
        Duration::from_millis(200),
    );
    assert!(err.is_err(), "stopped daemon must not answer");
    net.stop();
    assert!(
        !WORKER_PANICKED.load(Ordering::SeqCst),
        "a daemon worker panicked on junk input"
    );
}
