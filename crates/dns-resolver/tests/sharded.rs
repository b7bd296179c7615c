//! Concurrency tests for the shared cache: single-flight coalescing under
//! a thundering herd of identical queries, and shard-count invariance
//! (the shard count is a performance knob, never a behavior knob).

use dns_auth::AuthServer;
use dns_core::{
    Delegation, Message, Name, Question, RData, Record, RecordType, SimTime, Ttl, ZoneBuilder,
};
use dns_resolver::{CachingServer, Outcome, ResolverConfig, RootHints, Upstream};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn ip(a: u8, b: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, a, b)
}

/// A miniature authoritative internet: root → edu → ucla.edu, plus a com
/// branch, addressable by IP.
struct MiniNet {
    servers: HashMap<Ipv4Addr, AuthServer>,
}

impl Upstream for MiniNet {
    fn query(&mut self, server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
        self.servers.get(&server).map(|s| s.handle_query(query))
    }
}

fn build_net() -> (MiniNet, RootHints) {
    let mut servers = HashMap::new();

    let root_zone = ZoneBuilder::new(Name::root())
        .ns(name("a.root-servers.net"), ip(0, 1), Ttl::from_days(7))
        .delegate(Delegation {
            child: name("edu"),
            ns_names: vec![name("ns.edu")],
            ns_ttl: Ttl::from_days(2),
            glue: vec![Record::new(
                name("ns.edu"),
                Ttl::from_days(2),
                RData::A(ip(1, 1)),
            )],
            ds: Vec::new(),
        })
        .delegate(Delegation {
            child: name("com"),
            ns_names: vec![name("ns.com")],
            ns_ttl: Ttl::from_days(2),
            glue: vec![Record::new(
                name("ns.com"),
                Ttl::from_days(2),
                RData::A(ip(4, 1)),
            )],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    let mut root_srv = AuthServer::new(name("a.root-servers.net"), ip(0, 1));
    root_srv.add_zone(root_zone);
    servers.insert(root_srv.addr(), root_srv);

    let edu_zone = ZoneBuilder::new(name("edu"))
        .ns(name("ns.edu"), ip(1, 1), Ttl::from_days(2))
        .delegate(Delegation {
            child: name("ucla.edu"),
            ns_names: vec![name("ns1.ucla.edu")],
            ns_ttl: Ttl::from_hours(12),
            glue: vec![Record::new(
                name("ns1.ucla.edu"),
                Ttl::from_hours(12),
                RData::A(ip(2, 1)),
            )],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    let mut edu_srv = AuthServer::new(name("ns.edu"), ip(1, 1));
    edu_srv.add_zone(edu_zone);
    servers.insert(edu_srv.addr(), edu_srv);

    let ucla_zone = ZoneBuilder::new(name("ucla.edu"))
        .ns(name("ns1.ucla.edu"), ip(2, 1), Ttl::from_hours(12))
        .a(name("www.ucla.edu"), ip(2, 80), Ttl::from_hours(4))
        .record(Record::new(
            name("web.ucla.edu"),
            Ttl::from_hours(4),
            RData::Cname(name("www.ucla.edu")),
        ))
        .build()
        .unwrap();
    let mut ucla_srv = AuthServer::new(name("ns1.ucla.edu"), ip(2, 1));
    ucla_srv.add_zone(ucla_zone);
    servers.insert(ucla_srv.addr(), ucla_srv);

    let com_zone = ZoneBuilder::new(name("com"))
        .ns(name("ns.com"), ip(4, 1), Ttl::from_days(2))
        .a(name("www.com"), ip(4, 80), Ttl::from_hours(4))
        .build()
        .unwrap();
    let mut com_srv = AuthServer::new(name("ns.com"), ip(4, 1));
    com_srv.add_zone(com_zone);
    servers.insert(com_srv.addr(), com_srv);

    let hints = RootHints::new(vec![(name("a.root-servers.net"), ip(0, 1))]);
    (MiniNet { servers }, hints)
}

/// Shares one [`MiniNet`] across worker threads, counting every upstream
/// query and sleeping `delay` before each one — the slow authoritative
/// path that widens the single-flight window.
#[derive(Clone)]
struct SlowCountingNet {
    net: Arc<Mutex<MiniNet>>,
    fetches: Arc<AtomicU64>,
    delay: Duration,
}

impl Upstream for SlowCountingNet {
    fn query(&mut self, server: Ipv4Addr, query: &Message, now: SimTime) -> Option<Message> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.net.lock().unwrap().query(server, query, now)
    }
}

fn coalescing_config(seed: u64, shards: usize) -> ResolverConfig {
    ResolverConfig::vanilla()
        .to_builder()
        .seed(seed)
        .shards(shards)
        .coalesce(true)
        .build()
}

/// The acceptance test for single-flight: N workers fire the *same*
/// query simultaneously against one shared cache; the upstream must see
/// exactly one resolution's worth of fetches (the leader's walk), not N.
#[test]
fn herd_of_identical_queries_fetches_upstream_exactly_once() {
    // First, measure a solo run: how many upstream queries one cold
    // resolution of www.ucla.edu costs (root + edu + ucla walk).
    let (net, hints) = build_net();
    let solo_fetches = Arc::new(AtomicU64::new(0));
    let mut solo_up = SlowCountingNet {
        net: Arc::new(Mutex::new(net)),
        fetches: Arc::clone(&solo_fetches),
        delay: Duration::ZERO,
    };
    let mut solo = CachingServer::new(coalescing_config(1, 4), hints.clone());
    let question = Question::new(name("www.ucla.edu"), RecordType::A);
    let solo_outcome = solo.resolve(&question, SimTime::from_mins(1), &mut solo_up);
    let per_resolution = solo_fetches.load(Ordering::SeqCst);
    assert!(per_resolution > 0, "cold resolution must hit the upstream");
    assert!(
        matches!(solo_outcome, Outcome::Answer { .. }),
        "fixture must resolve: {solo_outcome:?}"
    );

    // Now the herd: N sibling servers over one shared cache, same
    // question, a barrier so they arrive together, and a slow upstream so
    // the followers arrive while the leader's walk is still in flight.
    const WORKERS: usize = 8;
    let (net, hints) = build_net();
    let net = Arc::new(Mutex::new(net));
    let fetches = Arc::new(AtomicU64::new(0));
    let first = CachingServer::new(coalescing_config(100, 4), hints);
    let backend = first.backend().clone();
    let mut servers: Vec<CachingServer> = (1..WORKERS)
        .map(|w| first.sibling(100 + w as u64))
        .collect();
    servers.push(first);
    let barrier = Arc::new(Barrier::new(WORKERS));

    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for mut cs in servers {
            let mut upstream = SlowCountingNet {
                net: Arc::clone(&net),
                fetches: Arc::clone(&fetches),
                delay: Duration::from_millis(30),
            };
            let barrier = Arc::clone(&barrier);
            let question = question.clone();
            handles.push(scope.spawn(move || {
                barrier.wait();
                cs.resolve(&question, SimTime::from_mins(1), &mut upstream)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one fetch chain reached the upstream: the herd cost the
    // same number of upstream queries as a single solo resolution.
    assert_eq!(
        fetches.load(Ordering::SeqCst),
        per_resolution,
        "the herd must not multiply upstream fetches"
    );
    // Every worker got the same (correct) answer.
    for o in &outcomes {
        match o {
            Outcome::Answer { records, .. } => {
                assert!(records
                    .iter()
                    .any(|r| matches!(r.rdata(), RData::A(a) if *a == ip(2, 80))));
            }
            other => panic!("herd outcome deviated: {other:?}"),
        }
    }
    // The flight accounting adds up: every resolution either led or
    // shared a flight (a very late arrival may lead a fresh flight and
    // publish straight from cache, so `led` can exceed 1 — but shared +
    // led always covers the whole herd).
    assert!(backend.flights_led() >= 1);
    assert_eq!(
        backend.flights_led() + backend.flights_shared(),
        WORKERS as u64
    );
}

/// Resolving through 1 shard and through 8 shards must produce exactly
/// the same outcomes — sharding only changes lock granularity.
#[test]
fn shard_count_does_not_change_answers() {
    let questions = [
        Question::new(name("www.ucla.edu"), RecordType::A),
        Question::new(name("web.ucla.edu"), RecordType::A), // CNAME chain
        Question::new(name("www.com"), RecordType::A),      // other branch
        Question::new(name("nowhere.ucla.edu"), RecordType::A), // NXDOMAIN
        Question::new(name("www.ucla.edu"), RecordType::Mx), // NODATA
        Question::new(name("www.ucla.edu"), RecordType::A), // warm hit
    ];

    let run = |shards: usize| -> Vec<Outcome> {
        let (mut net, hints) = build_net();
        let mut cs = CachingServer::new(coalescing_config(7, shards), hints);
        assert_eq!(cs.backend().shard_count(), shards);
        questions
            .iter()
            .enumerate()
            .map(|(i, q)| cs.resolve(q, SimTime::from_mins(i as u64), &mut net))
            .collect()
    };

    let one = run(1);
    let eight = run(8);
    assert_eq!(one, eight, "shard count must be behavior-invariant");
    assert!(matches!(one[0], Outcome::Answer { .. }));
    assert!(matches!(one[3], Outcome::NxDomain { .. }));
    assert!(matches!(one[4], Outcome::NoData { .. }));
    assert!(
        matches!(
            one[5],
            Outcome::Answer {
                from_cache: true,
                ..
            }
        ),
        "repeat query must be served from the shared cache"
    );
}
