//! Observability exposition tests: the `CHAOS TXT metrics.bind.`
//! snapshot served over real UDP must reconcile with the daemon's own
//! in-process counters, and the Prometheus rendering must be valid
//! exposition text.

use dns_core::{Question, Rcode, RecordClass, RecordType, ResponseKind};
use dns_netd::{client, playground, FaultInjector, Resolved, UdpUpstream, CHAOS_METRICS_NAME};
use dns_resolver::{CachingServer, ResolverConfig, RetryPolicy};
use std::time::Duration;

mod common;

fn client_timeout() -> Duration {
    Duration::from_secs(5)
}

/// Small backoffs so the blackout-induced SERVFAIL arrives quickly.
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

#[test]
fn chaos_snapshot_reconciles_with_daemon_and_resolver_counters() {
    let net = playground::boot().unwrap();
    let mut handles = Vec::new();
    let upstreams: Vec<_> = (0..2)
        .map(|_| {
            let udp = UdpUpstream::with_route(Duration::from_millis(300), net.route_fn()).unwrap();
            let (upstream, handle) = FaultInjector::new(udp, 11);
            handles.push(handle);
            upstream
        })
        .collect();
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(test_retry())
        .seed(3)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let resolver = Resolved::spawn_pool(cs, upstreams, "127.0.0.1:0").unwrap();
    resolver.enable_trace();

    // A full recursive resolution, negative answers, then a
    // blackout-induced SERVFAIL — ten resolutions with three distinct
    // outcomes feeding the metric surface.
    let resp = client::query(
        resolver.addr(),
        &"www.ucla.edu".parse().unwrap(),
        RecordType::A,
        client_timeout(),
    )
    .unwrap();
    assert_eq!(resp.kind(), ResponseKind::Answer);

    // Distinct nonexistent names, one at a time: each is a fresh
    // slow-path resolution on whichever worker the kernel hands it to,
    // and `explain_last` follows the pool, naming each query in turn.
    for i in 0..8 {
        let qname = format!("nx{i}.ucla.edu");
        let resp = client::query(
            resolver.addr(),
            &qname.parse().unwrap(),
            RecordType::A,
            client_timeout(),
        )
        .unwrap();
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        let explain = resolver.explain_last().expect("trace for last query");
        assert!(explain.contains(&format!("query {qname}. A")), "{explain}");
    }

    for handle in &handles {
        handle.blackout(&net.top_level_ips(), Duration::from_secs(3600));
    }
    let resp = client::query(
        resolver.addr(),
        &"www.never-seen.com".parse().unwrap(),
        RecordType::A,
        client_timeout(),
    )
    .unwrap();
    assert_eq!(resp.header.rcode, Rcode::ServFail, "blackout must SERVFAIL");

    // Tracing was on: the last resolution must be explainable and end in
    // the failure outcome the client saw.
    let explain = resolver.explain_last().expect("trace for last query");
    assert!(explain.contains("query www.never-seen.com. A"), "{explain}");
    assert!(explain.contains("outcome Fail"), "{explain}");

    // Fetch the CHAOS TXT snapshot over the wire.
    let chaos = Question::with_class(
        CHAOS_METRICS_NAME.parse().unwrap(),
        RecordType::Txt,
        RecordClass::Ch,
    );
    let resp = client::query_question(resolver.addr(), chaos, client_timeout()).unwrap();
    assert_eq!(resp.header.rcode, Rcode::NoError);
    assert!(resp.answers.iter().all(|r| r.class() == RecordClass::Ch));
    let lines = common::txt_lines(&resp);
    assert_eq!(lines.len(), resp.answers.len(), "every answer is TXT");
    let snapshot = common::parse_snapshot(&lines);

    // Reconcile every counter with the daemon's in-process view. The
    // snapshot was taken before the CHAOS response itself was sent, so
    // it covers exactly the ten IN resolutions.
    common::assert_every_counter_exposed(&resolver, &snapshot);
    assert_eq!(snapshot["daemon_served"]["value"], 10);
    let stats = resolver.stats();
    let metrics = resolver.metrics();
    assert!(
        metrics.retries >= 1,
        "blackout retries must be visible: {metrics}"
    );
    assert_eq!(metrics.fetches_clamped, 0, "defenses default off");

    // Distinct names means every IN resolution took the slow path:
    // the slow-lane wall histogram and the modelled histogram saw one
    // observation per resolution, the fast-lane histogram exactly one
    // per wire hit (none here).
    assert_eq!(snapshot["resolve_latency_ms"]["count"], metrics.queries_in);
    assert_eq!(
        snapshot["wall_latency_slow_ns"]["count"],
        metrics.queries_in
    );
    assert_eq!(snapshot["wall_latency_fast_ns"]["count"], stats.wire_hits);
    // The shared cache's shard and coalescing counters ride along.
    for name in [
        "shard_record_hits",
        "shard_record_inserts",
        "singleflight_leads",
    ] {
        assert!(snapshot.contains_key(name), "{name} missing from CHAOS");
    }
    // The positive answer was compiled into the wire cache, and the
    // snapshot exposes the byte total its budget bounds.
    assert!(stats.wire_bytes > 0, "compiled answer occupies bytes");
    // The SERVFAIL burned the whole retry deadline in wall time, so the
    // wall p99 cannot be below the virtual cache-hit floor.
    assert!(snapshot["resolve_latency_ms"]["p99"] >= snapshot["resolve_latency_ms"]["p50"]);

    // Non-TXT and unknown CHAOS names are refused, not resolved.
    for question in [
        Question::with_class(
            CHAOS_METRICS_NAME.parse().unwrap(),
            RecordType::A,
            RecordClass::Ch,
        ),
        Question::with_class(
            "version.bind".parse().unwrap(),
            RecordType::Txt,
            RecordClass::Ch,
        ),
    ] {
        let resp = client::query_question(resolver.addr(), question, client_timeout()).unwrap();
        assert_eq!(resp.header.rcode, Rcode::Refused);
        assert!(resp.answers.is_empty());
    }

    // The Prometheus rendering of the same registry carries the
    // histograms next to the counters checked above.
    let body = resolver.prometheus();
    assert!(body.contains("resolve_latency_ms_bucket"));
    assert!(body.contains("wall_latency_fast_ns_bucket"));
    assert!(body.contains("wall_latency_slow_ns_bucket"));

    resolver.stop();
    net.stop();
}
