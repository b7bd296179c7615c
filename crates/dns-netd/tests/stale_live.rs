//! Live-daemon serve-stale and water-torture tests: the stale slow path
//! must agree byte-for-byte with the wire fast lane (modulo ID, TTL and
//! 0x20 casing), stale answers must never be compiled into the wire
//! cache, and a random-subdomain flood against the batched loopback
//! worker must stay inside the negative-cache budget while the CHAOS
//! TXT snapshot and the Prometheus rendering reconcile with the
//! daemon's own counters.

use dns_auth::AuthServer;
use dns_core::{
    wire, Delegation, Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType,
    ResponseKind, SimDuration, Ttl, ZoneBuilder,
};
use dns_netd::{
    playground, Authd, FaultInjector, LoopbackHub, Resolved, UdpUpstream, CHAOS_METRICS_NAME,
};
use dns_resolver::{CachingServer, ResolverConfig, RetryPolicy, RootHints};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

mod common;

fn client_timeout() -> Duration {
    Duration::from_secs(5)
}

/// Small backoffs so blackout-induced failures arrive quickly.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        initial_backoff_ms: 10,
        backoff_multiplier: 2,
        max_backoff_ms: 80,
        jitter_pct: 50,
        deadline_ms: 500,
    }
}

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

/// Encodes a query for `spelled` and re-imposes the caller's exact
/// mixed-case spelling on the wire bytes.
fn spelled_query(id: u16, spelled: &str, rtype: RecordType) -> Vec<u8> {
    let q = Message::query(id, Question::new(spelled.parse().unwrap(), rtype));
    let mut bytes = wire::encode(&q).unwrap();
    let mut pos = 12;
    for label in spelled.split('.') {
        bytes[pos + 1..pos + 1 + label.len()].copy_from_slice(label.as_bytes());
        pos += 1 + label.len();
    }
    bytes
}

/// One raw datagram exchange, returning the response bytes.
fn raw_exchange(addr: SocketAddr, query: &[u8], timeout: Duration) -> Vec<u8> {
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(timeout)).unwrap();
    sock.send_to(query, addr).unwrap();
    let mut buf = [0u8; wire::MAX_MESSAGE_LEN];
    loop {
        let (n, from) = sock.recv_from(&mut buf).unwrap();
        if from == addr && buf[..2] == query[..2] {
            return buf[..n].to_vec();
        }
    }
}

/// Canonical form for "byte-identical modulo query ID, TTL and question
/// casing": decode, deterministically re-encode (normalizes the casing
/// patch), then zero the ID and every TTL field.
fn normalized(bytes: &[u8]) -> Vec<u8> {
    let msg = wire::decode(bytes).expect("response must decode");
    let (mut out, offsets) = wire::encode_with_ttl_offsets(&msg).unwrap();
    out[0] = 0;
    out[1] = 0;
    for off in offsets {
        let off = off as usize;
        out[off..off + 4].copy_from_slice(&[0, 0, 0, 0]);
    }
    out
}

fn wait_for(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

/// A two-daemon internet whose one data record carries a 2-second TTL,
/// so a live test can watch it expire in wall-clock time: root delegates
/// `test`, whose zone holds `www.test A` at TTL 2s.
fn boot_short_ttl() -> (Vec<Authd>, HashMap<Ipv4Addr, SocketAddr>, RootHints) {
    let ip_root = Ipv4Addr::new(10, 88, 0, 1);
    let ip_test = Ipv4Addr::new(10, 88, 1, 1);

    let root_zone = ZoneBuilder::new(Name::root())
        .ns(name("a.root-servers.net"), ip_root, Ttl::from_days(7))
        .delegate(Delegation::unsigned(
            name("test"),
            vec![name("ns.test")],
            Ttl::from_days(2),
            vec![Record::new(
                name("ns.test"),
                Ttl::from_days(2),
                RData::A(ip_test),
            )],
        ))
        .build()
        .expect("static zone");
    let test_zone = ZoneBuilder::new(name("test"))
        .ns(name("ns.test"), ip_test, Ttl::from_days(2))
        .a(
            name("www.test"),
            Ipv4Addr::new(192, 0, 2, 80),
            Ttl::from_secs(2),
        )
        .build()
        .expect("static zone");

    let mut daemons = Vec::new();
    let mut routes = HashMap::new();
    for (ip, server_name, zone) in [
        (ip_root, "a.root-servers.net", root_zone),
        (ip_test, "ns.test", test_zone),
    ] {
        let mut server = AuthServer::new(name(server_name), ip);
        server.add_zone(zone);
        let daemon = Authd::spawn(server, "127.0.0.1:0").unwrap();
        routes.insert(ip, daemon.addr());
        daemons.push(daemon);
    }
    let hints = RootHints::new(vec![(name("a.root-servers.net"), ip_root)]);
    (daemons, routes, hints)
}

/// Satellite: the wire fast lane and the stale slow path answer the same
/// bytes modulo query ID, TTL and 0x20 casing — and a stale answer is
/// never compiled into the wire cache (its TTLs are clamped, so the fast
/// lane must not replay it).
#[test]
fn stale_slow_path_agrees_with_wire_fast_lane_and_never_compiles() {
    let (daemons, routes, hints) = boot_short_ttl();
    let route_routes = routes.clone();
    let route_fn = move |ip: Ipv4Addr| -> SocketAddr {
        route_routes
            .get(&ip)
            .copied()
            .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 9)))
    };
    let udp = UdpUpstream::with_route(Duration::from_millis(300), route_fn).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 41);
    let config = ResolverConfig::builder()
        .retry(test_retry())
        .seed(9)
        .max_stale(SimDuration::from_hours(1))
        .build();
    let cs = CachingServer::new(config, hints);
    let resolver = Resolved::spawn(cs, upstream, "127.0.0.1:0").unwrap();

    // Cold: full resolution, compiled into the wire cache on the way out.
    let q1 = spelled_query(0x1111, "www.test", RecordType::A);
    let r1 = raw_exchange(resolver.addr(), &q1, client_timeout());
    assert_eq!(wire::decode(&r1).unwrap().kind(), ResponseKind::Answer);
    assert!(
        wait_for(Duration::from_secs(1), || resolver.wire_cache_len() >= 1),
        "positive answer must be compiled into the wire cache"
    );

    // Hot, scrambled casing: answered by the fast lane from compiled bytes.
    let q2 = spelled_query(0x2222, "WWW.TEST", RecordType::A);
    let r2 = raw_exchange(resolver.addr(), &q2, client_timeout());
    assert!(
        wait_for(Duration::from_secs(1), || resolver.stats().wire_hits >= 1),
        "repeat query must be served by the fast lane: {}",
        resolver.stats()
    );

    // Let the 2s record expire, then black out the entire upstream
    // internet: the next query misses the (expired) wire entry, burns
    // the demand fetch's whole retry budget, and serves stale.
    std::thread::sleep(Duration::from_secs(3));
    let ips: Vec<Ipv4Addr> = routes.keys().copied().collect();
    faults.blackout(&ips, Duration::from_secs(3600));
    let q3 = spelled_query(0x3333, "wWw.TesT", RecordType::A);
    let r3 = raw_exchange(resolver.addr(), &q3, client_timeout());
    let m3 = wire::decode(&r3).unwrap();
    assert_eq!(
        m3.kind(),
        ResponseKind::Answer,
        "blackout probe must serve stale, not SERVFAIL"
    );
    assert!(
        wait_for(Duration::from_secs(1), || resolver.metrics().stale_served
            >= 1),
        "stale serve must be counted: {}",
        resolver.metrics()
    );
    for r in &m3.answers {
        assert!(
            r.ttl().as_secs() <= 30,
            "stale TTLs are clamped to the advertised cap: {}",
            r.ttl()
        );
        assert!(r.ttl().as_secs() > 0, "stale TTLs never underflow to 0");
    }

    // The contract: all three lanes (cold slow path, wire fast lane,
    // stale slow path) agree modulo ID, TTL and casing.
    assert_eq!(normalized(&r1), normalized(&r2));
    assert_eq!(normalized(&r1), normalized(&r3));

    // A stale answer must never be compiled into the fast lane: a repeat
    // probe takes the slow path again (stale again), wire hits frozen.
    let hits_before = resolver.stats().wire_hits;
    let q4 = spelled_query(0x4444, "www.test", RecordType::A);
    let r4 = raw_exchange(resolver.addr(), &q4, client_timeout());
    assert_eq!(wire::decode(&r4).unwrap().kind(), ResponseKind::Answer);
    assert!(
        wait_for(Duration::from_secs(1), || resolver.metrics().stale_served
            >= 2),
        "second blackout probe must also serve stale: {}",
        resolver.metrics()
    );
    assert_eq!(
        resolver.stats().wire_hits,
        hits_before,
        "a stale answer must never be served by the wire fast lane"
    );
    let metrics = resolver.metrics();
    assert_eq!(metrics.stale_expired_unserved, 0, "{metrics}");

    // The stale counters reach both exposition surfaces and reconcile,
    // like every other counter.
    let chaos = Question::with_class(
        CHAOS_METRICS_NAME.parse().unwrap(),
        RecordType::Txt,
        RecordClass::Ch,
    );
    let resp = dns_netd::client::query_question(resolver.addr(), chaos, client_timeout()).unwrap();
    assert_eq!(resp.header.rcode, Rcode::NoError);
    let snapshot = common::parse_snapshot(&common::txt_lines(&resp));
    common::assert_every_counter_exposed(&resolver, &snapshot);
    assert!(metrics.stale_served >= 2);

    resolver.stop();
    for d in daemons {
        d.stop();
    }
}

/// Satellite: a water-torture flood (random subdomains of a real zone)
/// through the batched loopback worker loop must stay inside the
/// negative-cache entry budget, leave legitimate hot names answerable,
/// and keep the CHAOS TXT snapshot, the Prometheus rendering and the
/// daemon's in-process counters in agreement — including every
/// serve-stale counter.
#[test]
fn loopback_water_torture_holds_neg_budget_and_reconciles_metrics() {
    const NEG_CAP: u32 = 32;
    const FLOOD: usize = 120;

    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(300), net.route_fn()).unwrap();
    let (upstream, _faults) = FaultInjector::new(udp, 31);
    let config = ResolverConfig::builder()
        .retry(test_retry())
        .seed(8)
        .max_stale(SimDuration::from_hours(1))
        .neg_cache_max_entries(NEG_CAP)
        .max_ns_fetch(4)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let hub = LoopbackHub::new();
    let resolver = Resolved::spawn_io(vec![cs], vec![upstream], vec![hub.io()]).unwrap();
    let peer = |port: u16| -> SocketAddr { ([127, 0, 0, 1], port).into() };

    // Warm one legitimate name; it compiles into the wire cache.
    hub.inject(
        &spelled_query(0x0001, "www.example.com", RecordType::A),
        peer(5000),
    );
    assert!(
        wait_for(client_timeout(), || resolver.served() >= 1),
        "legit warm query must answer: {}",
        resolver.stats()
    );
    let warm = hub.drain_sent();
    assert_eq!(warm.len(), 1);
    assert_eq!(
        wire::decode(&warm[0].0).unwrap().kind(),
        ResponseKind::Answer
    );

    // The torture: a flood of never-repeating random subdomains, each a
    // full recursive resolution ending in NXDOMAIN.
    for i in 0..FLOOD {
        let qname = format!("r{i:03}.example.com");
        hub.inject(
            &spelled_query(0x1000 + i as u16, &qname, RecordType::A),
            peer(6000 + i as u16),
        );
    }
    assert!(
        wait_for(Duration::from_secs(30), || {
            resolver.served() > FLOOD as u64
        }),
        "flood must drain: {}",
        resolver.stats()
    );
    let flood_responses = hub.drain_sent();
    assert_eq!(flood_responses.len(), FLOOD);
    for (bytes, _) in &flood_responses {
        assert_eq!(
            wire::decode(bytes).unwrap().header.rcode,
            Rcode::NxDomain,
            "every torture name is NXDOMAIN"
        );
    }

    // The negative-cache budget held: everything past the cap was
    // evicted under pressure, and the eviction counter says so.
    let metrics = resolver.metrics();
    assert!(
        metrics.neg_evictions_pressure >= (FLOOD as u64) - u64::from(NEG_CAP),
        "budget evictions must cover the flood overflow: {metrics}"
    );

    // The legitimate name still answers — flood pressure never touched
    // the positive data path or the wire fast lane.
    hub.inject(
        &spelled_query(0x0002, "WWW.EXAMPLE.COM", RecordType::A),
        peer(5001),
    );
    assert!(
        wait_for(client_timeout(), || {
            resolver.served() >= 2 + FLOOD as u64
        }),
        "legit repeat must answer after the flood: {}",
        resolver.stats()
    );
    let repeat = hub.drain_sent();
    assert_eq!(repeat.len(), 1);
    assert_eq!(
        wire::decode(&repeat[0].0).unwrap().kind(),
        ResponseKind::Answer
    );
    assert!(
        resolver.stats().wire_hits >= 1,
        "hot name rides the fast lane through the flood: {}",
        resolver.stats()
    );

    // CHAOS TXT snapshot over the loopback hub.
    let chaos = Message::query(
        0x0707,
        Question::with_class(
            CHAOS_METRICS_NAME.parse().unwrap(),
            RecordType::Txt,
            RecordClass::Ch,
        ),
    );
    hub.inject(&wire::encode(&chaos).unwrap(), peer(7000));
    assert!(
        wait_for(client_timeout(), || {
            resolver.served() >= 3 + FLOOD as u64
        }),
        "CHAOS query must be answered"
    );
    let responses = hub.drain_sent();
    assert_eq!(responses.len(), 1);
    let snapshot =
        common::parse_snapshot(&common::txt_lines(&wire::decode(&responses[0].0).unwrap()));

    // Reconcile snapshot vs in-process counters vs Prometheus, counter
    // by counter: the serve-stale surface and the pressure counter the
    // flood exercised included.
    common::assert_every_counter_exposed(&resolver, &snapshot);
    let metrics = resolver.metrics();
    // No torture name ever re-queried inside the stale window, so the
    // stale machinery stayed silent: serve-stale adds no adversarial
    // surface to a water-torture flood.
    assert_eq!(metrics.stale_served, 0, "{metrics}");

    resolver.stop();
    net.stop();
}
