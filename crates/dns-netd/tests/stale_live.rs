//! Serve-stale and water-torture tests on a stepped daemon core over the
//! live playground daemons: the stale slow path must agree byte-for-byte
//! with the wire fast lane (modulo ID, TTL and 0x20 casing), stale
//! answers must never be compiled into the wire cache, and a
//! random-subdomain flood must stay inside the negative-cache budget
//! while the CHAOS TXT snapshot and the Prometheus rendering reconcile
//! with the daemon's own counters.

use dns_core::{wire, Rcode, RecordType, ResponseKind, SimDuration, SimTime};
use dns_netd::{playground, Core, FaultInjector, Resolved, UdpUpstream, MAX_BATCH};
use dns_resolver::{CachingServer, ResolverConfig, Upstream};
use fixtures::{chaos_query, normalized, spelled_query, step, test_retry};
use std::net::SocketAddr;
use std::time::Duration;

mod common;
mod fixtures;

/// Serves one datagram at `now` and returns its one reply.
fn exchange<U: Upstream>(core: &mut Core<U>, now: SimTime, query: &[u8]) -> Vec<u8> {
    let mut replies = step(
        core,
        now,
        &[(query, SocketAddr::from(([127, 0, 0, 1], 5353)))],
    );
    assert_eq!(replies.len(), 1, "one query, one reply");
    replies.remove(0).0
}

/// Satellite: the wire fast lane and the stale slow path answer the same
/// bytes modulo query ID, TTL and 0x20 casing — and a stale answer is
/// never compiled into the wire cache (its TTLs are clamped, so the fast
/// lane must not replay it). The core is stepped past the record's TTL,
/// so nothing waits for it to expire.
#[test]
fn stale_slow_path_agrees_with_wire_fast_lane_and_never_compiles() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(300), net.route_fn()).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 41);
    let config = ResolverConfig::builder()
        .retry(test_retry())
        .seed(9)
        .max_stale(SimDuration::from_hours(1))
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let (resolver, mut cores) = Resolved::cores(vec![cs], vec![upstream]).unwrap();
    let core = &mut cores[0];
    let t0 = SimTime::from_hours(1);

    // Cold: full resolution, compiled into the wire cache on the way out.
    let q1 = spelled_query(0x1111, "www.example.com", RecordType::A);
    let r1 = exchange(core, t0, &q1);
    assert_eq!(wire::decode(&r1).unwrap().kind(), ResponseKind::Answer);
    assert_eq!(
        resolver.wire_cache_len(),
        1,
        "positive answer must be compiled into the wire cache"
    );

    // Hot, scrambled casing: answered by the fast lane from compiled bytes.
    let q2 = spelled_query(0x2222, "WWW.EXAMPLE.COM", RecordType::A);
    let r2 = exchange(core, t0, &q2);
    assert_eq!(
        resolver.stats().wire_hits,
        1,
        "repeat query must be served by the fast lane: {}",
        resolver.stats()
    );

    // A second past the record's 1 h TTL, with every upstream packet
    // lost: the next query misses the (expired) wire entry, burns the
    // demand fetch's whole retry budget, and serves stale.
    let t1 = t0 + SimDuration::from_hours(1) + SimDuration::from_secs(1);
    faults.set_loss(1.0);
    let q3 = spelled_query(0x3333, "wWw.ExAmple.CoM", RecordType::A);
    let r3 = exchange(core, t1, &q3);
    let m3 = wire::decode(&r3).unwrap();
    assert_eq!(
        m3.kind(),
        ResponseKind::Answer,
        "blackout probe must serve stale, not SERVFAIL"
    );
    assert_eq!(
        resolver.metrics().stale_served,
        1,
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
    let q4 = spelled_query(0x4444, "www.example.com", RecordType::A);
    let r4 = exchange(core, t1, &q4);
    assert_eq!(wire::decode(&r4).unwrap().kind(), ResponseKind::Answer);
    let metrics = resolver.metrics();
    assert_eq!(
        metrics.stale_served, 2,
        "second blackout probe must also serve stale: {metrics}"
    );
    assert_eq!(
        resolver.stats().wire_hits,
        1,
        "a stale answer must never be served by the wire fast lane"
    );
    assert_eq!(metrics.stale_expired_unserved, 0, "{metrics}");

    // The stale counters reach both exposition surfaces and reconcile,
    // like every other counter.
    let resp = wire::decode(&exchange(core, t1, &chaos_query(0x0707))).unwrap();
    assert_eq!(resp.header.rcode, Rcode::NoError);
    let snapshot = common::parse_snapshot(&common::txt_lines(&resp));
    common::assert_every_counter_exposed(&resolver, &snapshot);
    net.stop();
}

/// Satellite: a water-torture flood (random subdomains of a real zone)
/// served by a stepped core must stay inside the negative-cache entry
/// budget, leave legitimate hot names answerable, and keep the CHAOS TXT
/// snapshot, the Prometheus rendering and the daemon's in-process
/// counters in agreement — including every serve-stale counter.
#[test]
fn stepped_water_torture_holds_neg_budget_and_reconciles_metrics() {
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
    let (resolver, mut cores) = Resolved::cores(vec![cs], vec![upstream]).unwrap();
    let core = &mut cores[0];
    let now = SimTime::from_hours(1);

    // Warm one legitimate name; it compiles into the wire cache.
    let warm = exchange(
        core,
        now,
        &spelled_query(0x0001, "www.example.com", RecordType::A),
    );
    assert_eq!(wire::decode(&warm).unwrap().kind(), ResponseKind::Answer);

    // The torture: a flood of never-repeating random subdomains, each a
    // full recursive resolution ending in NXDOMAIN, served in full
    // batches.
    let flood: Vec<(Vec<u8>, SocketAddr)> = (0..FLOOD)
        .map(|i| {
            let qname = format!("r{i:03}.example.com");
            let query = spelled_query(0x1000 + i as u16, &qname, RecordType::A);
            (query, SocketAddr::from(([127, 0, 0, 1], 6000 + i as u16)))
        })
        .collect();
    let mut flood_responses = Vec::new();
    for batch in flood.chunks(MAX_BATCH) {
        let batch: Vec<(&[u8], SocketAddr)> = batch.iter().map(|(q, p)| (&q[..], *p)).collect();
        flood_responses.extend(step(core, now, &batch));
    }
    assert_eq!(flood_responses.len(), FLOOD);
    for (i, (bytes, peer)) in flood_responses.iter().enumerate() {
        assert_eq!(bytes[..2], flood[i].0[..2], "replies in arrival order");
        assert_eq!(*peer, flood[i].1);
        assert_eq!(
            wire::decode(bytes).unwrap().header.rcode,
            Rcode::NxDomain,
            "every torture name is NXDOMAIN"
        );
    }

    // The negative-cache budget held: everything past the cap was
    // evicted under pressure, and the eviction counter says so.
    let metrics = resolver.metrics();
    assert_eq!(
        metrics.neg_evictions_pressure,
        (FLOOD as u64) - u64::from(NEG_CAP),
        "budget evictions must cover the flood overflow: {metrics}"
    );

    // The legitimate name still answers — flood pressure never touched
    // the positive data path or the wire fast lane.
    let repeat = exchange(
        core,
        now,
        &spelled_query(0x0002, "WWW.EXAMPLE.COM", RecordType::A),
    );
    assert_eq!(wire::decode(&repeat).unwrap().kind(), ResponseKind::Answer);
    assert_eq!(
        resolver.stats().wire_hits,
        1,
        "hot name rides the fast lane through the flood: {}",
        resolver.stats()
    );

    // Reconcile the CHAOS TXT snapshot vs in-process counters vs
    // Prometheus, counter by counter: the serve-stale surface and the
    // pressure counter the flood exercised included.
    let resp = wire::decode(&exchange(core, now, &chaos_query(0x0707))).unwrap();
    let snapshot = common::parse_snapshot(&common::txt_lines(&resp));
    common::assert_every_counter_exposed(&resolver, &snapshot);
    let metrics = resolver.metrics();
    // No torture name ever re-queried inside the stale window, so the
    // stale machinery stayed silent: serve-stale adds no adversarial
    // surface to a water-torture flood.
    assert_eq!(metrics.stale_served, 0, "{metrics}");

    net.stop();
}
