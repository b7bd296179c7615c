//! Wire fast-lane integration tests: 0x20 casing echo over real UDP,
//! EDNS0/OPT handling, wire-cache hit behaviour, and the batched
//! loopback (`spawn_io` + `LoopbackHub`) path driven under fault
//! injection — the same worker loop the UDP daemon runs, no sockets.

use dns_core::{wire, Message, Question, Rcode, RecordClass, RecordType, ResponseKind};
use dns_netd::{playground, FaultInjector, LoopbackHub, Resolved, UdpUpstream};
use dns_resolver::{CachingServer, ResolverConfig, RetryPolicy};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

mod common;

fn client_timeout() -> Duration {
    Duration::from_secs(5)
}

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

/// Encodes a query for `spelled` and re-imposes the caller's exact
/// mixed-case spelling on the wire bytes (`Name` lowercases on
/// construction) — what a 0x20-randomizing client emits.
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

/// Canonical form for "byte-identical modulo query ID, TTL decrement and
/// question casing": decode, deterministically re-encode (normalizes the
/// casing patch), then zero the ID and every TTL field.
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

/// The sim/loopback side of the tentpole: `spawn_io` runs the exact
/// batched worker loop over in-process queues, so the fault suite drives
/// batching, the fast lane and blackout behaviour without sockets.
#[test]
fn batched_loopback_path_serves_bursts_through_faults() {
    let net = playground::boot().unwrap();
    let udp = UdpUpstream::with_route(Duration::from_millis(500), net.route_fn()).unwrap();
    let (upstream, faults) = FaultInjector::new(udp, 29);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(7)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let hub = LoopbackHub::new();
    let resolver = Resolved::spawn_io(vec![cs], vec![upstream], vec![hub.io()]).unwrap();
    let peer = |port: u16| -> SocketAddr { ([127, 0, 0, 1], port).into() };

    // A burst: the same hot name three times (different IDs and casing)
    // plus an OPT-bearing query — injected together so the worker drains
    // them as one batch.
    let hot1 = spelled_query(0x0101, "www.ucla.edu", RecordType::A);
    let hot2 = spelled_query(0x0202, "WWW.UCLA.EDU", RecordType::A);
    let hot3 = spelled_query(0x0404, "wWw.ucla.EDU", RecordType::A);
    let mut opt = spelled_query(0x0303, "www.ucla.edu", RecordType::A);
    append_opt(&mut opt);
    for (q, port) in [(&hot1, 4001), (&hot2, 4002), (&hot3, 4003), (&opt, 4004)] {
        hub.inject(q, peer(port));
    }
    assert!(
        wait_for(client_timeout(), || resolver.served() >= 4),
        "all four burst queries must be answered: {}",
        resolver.stats()
    );
    let mut responses = hub.drain_sent();
    responses.sort_by_key(|(bytes, _)| u16::from_be_bytes([bytes[0], bytes[1]]));
    assert_eq!(responses.len(), 4);
    let ports: Vec<u16> = responses.iter().map(|(_, p)| p.port()).collect();
    assert_eq!(
        ports,
        vec![4001, 4002, 4004, 4003],
        "replies routed per peer"
    );
    // Batch processing is in arrival order, so the first hot query misses
    // and compiles the entry; the rest of the batch hits it.
    let stats = resolver.stats();
    assert!(stats.wire_hits >= 2, "in-batch repeats must hit: {stats}");
    assert!(stats.wire_misses >= 1, "{stats}");
    assert!(stats.wire_bypass >= 1, "OPT query bypasses: {stats}");
    // Hot responses agree modulo ID/TTL/casing; spelling echoes per client.
    assert_eq!(normalized(&responses[0].0), normalized(&responses[1].0));
    assert_eq!(normalized(&responses[0].0), normalized(&responses[3].0));
    let qname_len = "WWW.UCLA.EDU".len() + 2;
    assert_eq!(
        &responses[1].0[12..12 + qname_len],
        &hot2[12..12 + qname_len]
    );
    let m = wire::decode(&responses[2].0).unwrap();
    assert_eq!(m.kind(), ResponseKind::Answer, "OPT query answered");
    assert!(m.additionals.is_empty());

    // Blackout every root/TLD daemon: the hot name still answers (the
    // fast lane never leaves the process), an unseen name SERVFAILs.
    faults.blackout(&net.top_level_ips(), Duration::from_secs(3600));
    hub.inject(
        &spelled_query(0x0505, "www.ucla.edu", RecordType::A),
        peer(4005),
    );
    hub.inject(
        &spelled_query(0x0606, "www.never-seen.com", RecordType::A),
        peer(4006),
    );
    assert!(
        wait_for(client_timeout(), || resolver.served() >= 6),
        "blackout burst must still be answered: {}",
        resolver.stats()
    );
    let mut responses = hub.drain_sent();
    responses.sort_by_key(|(bytes, _)| u16::from_be_bytes([bytes[0], bytes[1]]));
    assert_eq!(responses.len(), 2);
    let hot = wire::decode(&responses[0].0).unwrap();
    assert_eq!(hot.kind(), ResponseKind::Answer, "hot name rides the cache");
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
    let chaos = Message::query(
        0x0707,
        Question::with_class(
            dns_netd::CHAOS_METRICS_NAME.parse().unwrap(),
            RecordType::Txt,
            RecordClass::Ch,
        ),
    );
    hub.inject(&wire::encode(&chaos).unwrap(), peer(4007));
    assert!(
        wait_for(client_timeout(), || resolver.served() >= 7),
        "CHAOS query must be answered"
    );
    let responses = hub.drain_sent();
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
    assert_eq!(fast["count"], resolver.stats().wire_hits);
    assert!(fast["p50"] > 0, "fast-lane hits must register: {fast:?}");

    resolver.stop();
    net.stop();
}
