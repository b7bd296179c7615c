//! Wire fast-lane integration tests: 0x20 casing echo over real UDP,
//! EDNS0/OPT handling, NOTIMP for a query type the codec does not
//! represent, wire-cache hit behaviour, and a burst served by a stepped
//! daemon core under fault injection — the code every worker thread runs
//! per batch, without a socket in front of it.

use dns_core::{wire, Rcode, RecordType, ResponseKind, SimTime};
use dns_netd::{playground, FaultInjector, Resolved, UdpUpstream};
use dns_resolver::{CachingServer, ResolverConfig};
use fixtures::{chaos_query, normalized, spelled_query, step, test_retry};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

mod common;
mod fixtures;

fn client_timeout() -> Duration {
    Duration::from_secs(5)
}

/// Appends an empty EDNS0 OPT pseudo-record and bumps ARCOUNT.
fn append_opt(query: &mut Vec<u8>) {
    query[11] += 1;
    query.push(0); // root owner
    query.extend_from_slice(&41u16.to_be_bytes()); // OPT
    query.extend_from_slice(&4096u16.to_be_bytes()); // advertised UDP size
    query.extend_from_slice(&0u32.to_be_bytes()); // extended flags
    query.extend_from_slice(&0u16.to_be_bytes()); // empty RDATA
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

#[test]
fn mixed_case_repeat_queries_hit_the_wire_cache_and_echo_spelling() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let (upstream, _faults) = FaultInjector::new(udp, 17);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(5)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn(cs, upstream, "127.0.0.1:0").unwrap();

    // Cold: full resolution, compiled into the wire cache on the way out.
    let q1 = spelled_query(0x1111, "www.ucla.edu", RecordType::A);
    let r1 = raw_exchange(resolver.addr(), &q1, client_timeout());
    let m1 = wire::decode(&r1).unwrap();
    assert_eq!(m1.kind(), ResponseKind::Answer);
    assert!(
        wait_for(Duration::from_secs(1), || resolver.stats().wire_misses >= 1),
        "cold query must count as a wire miss: {}",
        resolver.stats()
    );
    assert!(
        wait_for(Duration::from_secs(1), || resolver.wire_cache_len() >= 1),
        "positive answer must be compiled into the wire cache"
    );

    // Hot, with scrambled 0x20 casing: answered from compiled bytes.
    let q2 = spelled_query(0x2222, "WwW.uClA.eDu", RecordType::A);
    let r2 = raw_exchange(resolver.addr(), &q2, client_timeout());
    assert!(
        wait_for(Duration::from_secs(1), || resolver.stats().wire_hits >= 1),
        "repeat query must be served by the fast lane: {}",
        resolver.stats()
    );
    // The response must echo the client's exact spelling, byte for byte.
    let qname_len = "WwW.uClA.eDu".len() + 2; // labels + length bytes + root
    assert_eq!(
        &r2[12..12 + qname_len],
        &q2[12..12 + qname_len],
        "0x20 casing must be echoed"
    );
    assert_eq!(&r2[0..2], &q2[0..2], "client ID must be echoed");

    // Fast-lane and slow-path responses are byte-identical modulo query
    // ID, TTL decrement and question casing.
    assert_eq!(normalized(&r1), normalized(&r2));
    let m2 = wire::decode(&r2).unwrap();
    assert_eq!(m1.answers.len(), m2.answers.len());
    assert!(
        m2.answers[0].ttl() <= m1.answers[0].ttl(),
        "served TTLs never grow"
    );

    resolver.stop();
    net.stop();
}

#[test]
fn edns0_opt_queries_are_answered_with_opt_stripped() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let (upstream, _faults) = FaultInjector::new(udp, 23);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(6)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn(cs, upstream, "127.0.0.1:0").unwrap();

    let mut q = spelled_query(0x0303, "www.example.com", RecordType::A);
    append_opt(&mut q);
    let r = raw_exchange(resolver.addr(), &q, client_timeout());
    let m = wire::decode(&r).unwrap();
    assert_eq!(m.header.rcode, Rcode::NoError);
    assert_eq!(
        m.kind(),
        ResponseKind::Answer,
        "an OPT-bearing query must be answered, not dropped"
    );
    assert!(
        m.additionals.is_empty(),
        "the OPT pseudo-record is stripped, not echoed"
    );
    // An OPT query can't use the fast lane (ARCOUNT != 0) — it bypasses.
    assert!(
        wait_for(Duration::from_secs(1), || resolver.stats().wire_bypass >= 1),
        "OPT query must be counted as a fast-lane bypass: {}",
        resolver.stats()
    );

    resolver.stop();
    net.stop();
}

#[test]
fn unrepresentable_query_types_get_notimp_over_udp() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(8)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn(cs, udp, "127.0.0.1:0").unwrap();

    // Type HTTPS (65), which the decoder rejects, in 0x20 casing. Both
    // the resolver and an authoritative daemon answer NOTIMP at once,
    // echoing the question byte for byte, instead of leaving the client
    // to time out.
    let mut q = spelled_query(0x6565, "wWw.UcLa.eDu", RecordType::A);
    let qtype = q.len() - 4;
    q[qtype..qtype + 2].copy_from_slice(&65u16.to_be_bytes());
    let root = net.route_fn()(net.top_level_ips()[0]);
    for (addr, ra) in [(resolver.addr(), 0x80), (root, 0)] {
        let r = raw_exchange(addr, &q, client_timeout());
        assert_eq!(r[..2], q[..2], "ID echoed");
        assert_eq!(r[2] & 0x80, 0x80, "a response");
        assert_eq!(r[3], ra | Rcode::NotImp.code(), "RA from the resolver only");
        assert_eq!(r[4..12], [0, 1, 0, 0, 0, 0, 0, 0], "the question alone");
        assert_eq!(r[12..], q[12..], "question echoed byte for byte");
    }

    resolver.stop();
    net.stop();
}

fn id(reply: &[u8]) -> u16 {
    u16::from_be_bytes([reply[0], reply[1]])
}

/// The serving core stepped directly: a burst served as one batch, a
/// burst under a root/TLD blackout, then the CHAOS snapshot — the code a
/// worker thread runs per batch, with no socket and nothing to wait for.
#[test]
fn stepped_core_serves_bursts_through_faults() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 29);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(7)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let (resolver, mut cores) = Resolved::cores(vec![cs], vec![upstream]).unwrap();
    let core = &mut cores[0];
    let now = SimTime::from_hours(1);
    let peer = |port: u16| -> SocketAddr { ([127, 0, 0, 1], port).into() };

    // A burst: the same hot name three times (different IDs and casing)
    // plus an OPT-bearing query, served as one batch.
    let hot1 = spelled_query(0x0101, "www.ucla.edu", RecordType::A);
    let hot2 = spelled_query(0x0202, "WWW.UCLA.EDU", RecordType::A);
    let hot3 = spelled_query(0x0404, "wWw.ucla.EDU", RecordType::A);
    let mut opt = spelled_query(0x0303, "www.ucla.edu", RecordType::A);
    append_opt(&mut opt);
    let burst = [
        (hot1.as_slice(), peer(4001)),
        (&hot2, peer(4002)),
        (&hot3, peer(4003)),
        (&opt, peer(4004)),
    ];
    let responses = step(core, now, &burst);
    // One reply per query, in arrival order, each to its own peer.
    let routed: Vec<(u16, u16)> = responses.iter().map(|(r, p)| (id(r), p.port())).collect();
    assert_eq!(
        routed,
        vec![
            (0x0101, 4001),
            (0x0202, 4002),
            (0x0404, 4003),
            (0x0303, 4004)
        ]
    );
    // In arrival order, the first hot query misses and compiles the
    // entry, the next two hit it, and the OPT query bypasses the lane.
    let stats = resolver.stats();
    assert_eq!(
        (stats.wire_misses, stats.wire_hits, stats.wire_bypass),
        (1, 2, 1),
        "{stats}"
    );
    // Hot responses agree modulo ID/TTL/casing; spelling echoes per client.
    assert_eq!(normalized(&responses[0].0), normalized(&responses[1].0));
    assert_eq!(normalized(&responses[0].0), normalized(&responses[2].0));
    let qname_len = "WWW.UCLA.EDU".len() + 2;
    assert_eq!(
        &responses[1].0[12..12 + qname_len],
        &hot2[12..12 + qname_len]
    );
    let m = wire::decode(&responses[3].0).unwrap();
    assert_eq!(m.kind(), ResponseKind::Answer, "OPT query answered");
    assert!(m.additionals.is_empty());

    // Blackout every root/TLD daemon: the hot name still answers (the
    // fast lane never leaves the process), an unseen name SERVFAILs.
    faults.blackout(&net.top_level_ips(), Duration::from_secs(3600));
    let hot = spelled_query(0x0505, "www.ucla.edu", RecordType::A);
    let unseen = spelled_query(0x0606, "www.never-seen.com", RecordType::A);
    let responses = step(core, now, &[(&hot, peer(4005)), (&unseen, peer(4006))]);
    let routed: Vec<(u16, u16)> = responses.iter().map(|(r, p)| (id(r), p.port())).collect();
    assert_eq!(routed, vec![(0x0505, 4005), (0x0606, 4006)]);
    let hot = wire::decode(&responses[0].0).unwrap();
    assert_eq!(hot.kind(), ResponseKind::Answer, "hot name rides the cache");
    assert_eq!(resolver.stats().wire_hits, 3);
    let unseen = wire::decode(&responses[1].0).unwrap();
    assert_eq!(
        unseen.header.rcode,
        Rcode::ServFail,
        "unseen name SERVFAILs"
    );
    assert!(
        faults.stats().dropped_by_blackout >= 1,
        "the SERVFAIL must have come from the blackout: {}",
        faults.stats()
    );

    // CHAOS metrics ride the slow path (bypass) and expose the trio.
    let responses = step(core, now, &[(&chaos_query(0x0707), peer(4007))]);
    assert_eq!(responses.len(), 1);
    let snapshot =
        common::parse_snapshot(&common::txt_lines(&wire::decode(&responses[0].0).unwrap()));
    // Every counter reconciles, the wire byte gauge with the cache ledger.
    common::assert_every_counter_exposed(&resolver, &snapshot);
    assert!(
        snapshot["daemon_wire_bytes"]["value"] > 0,
        "hot entry occupies bytes"
    );
    // The lane split is visible: one fast-lane observation per wire hit,
    // recorded in nanoseconds, so even a sub-microsecond hit leaves the
    // zero bucket.
    let fast = &snapshot["wall_latency_fast_ns"];
    assert_eq!(fast["count"], 3);
    assert!(fast["p50"] > 0, "fast-lane hits must register: {fast:?}");

    net.stop();
}
