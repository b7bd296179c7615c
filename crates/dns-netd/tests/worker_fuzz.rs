//! Whole-worker fuzzing: arbitrary datagrams — random bytes of every
//! length up to 600 and mutated valid queries — driven through the
//! daemon's exact batched worker loop (`spawn_io` over a `LoopbackHub`,
//! two workers over one cache) must never panic or wedge a worker. The
//! pool stays healthy and answers a valid query injected afterwards.

use dns_core::{wire, Message, Question, Rcode, RecordClass, RecordType};
use dns_netd::{playground, LoopbackHub, Resolved, UdpUpstream, CHAOS_METRICS_NAME};
use dns_resolver::{CachingServer, ResolverConfig, RetryPolicy};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set by the panic hook when a daemon worker thread panics.
static WORKER_PANICKED: AtomicBool = AtomicBool::new(false);

const DATAGRAMS: usize = 1_500;

fn peer(port: u16) -> SocketAddr {
    ([127, 0, 0, 1], port).into()
}

fn encoded(id: u16, question: Question) -> Vec<u8> {
    wire::encode(&Message::query(id, question)).unwrap()
}

/// The valid queries mutations start from: answers, a CNAME chain, a
/// signed zone, NXDOMAIN, NODATA and the CHAOS metrics name.
fn seeds() -> Vec<Vec<u8>> {
    let names = [
        "www.ucla.edu",
        "web.ucla.edu",
        "host.cs.ucla.edu",
        "nowhere.ucla.edu",
    ];
    let chaos = (CHAOS_METRICS_NAME, RecordType::Txt, RecordClass::Ch);
    names
        .iter()
        .flat_map(|&n| [RecordType::A, RecordType::Mx].map(|t| (n, t, RecordClass::In)))
        .chain([chaos])
        .map(|(n, t, c)| encoded(1, Question::with_class(n.parse().unwrap(), t, c)))
        .collect()
}

/// Overwrites bytes, truncates or appends junk, 1–4 times.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.random_range(1..=4u32) {
        match rng.random_range(0..3u32) {
            0 if !bytes.is_empty() => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] = rng.random();
            }
            1 => {
                let keep = rng.random_range(0..=bytes.len());
                bytes.truncate(keep);
            }
            _ => {
                for _ in 0..rng.random_range(1..32u32) {
                    bytes.push(rng.random());
                }
            }
        }
    }
    bytes
}

/// Drains the hub until a reply to `id` reaches `to`, or the deadline.
fn await_reply(hub: &LoopbackHub, id: u16, to: SocketAddr, deadline: Duration) -> Option<Message> {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        for (bytes, peer) in hub.drain_sent() {
            if peer == to && bytes[..2] == id.to_be_bytes() {
                return wire::decode(&bytes).ok();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

#[test]
fn arbitrary_datagrams_never_panic_or_wedge_a_worker() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("resolved-"))
        {
            WORKER_PANICKED.store(true, Ordering::SeqCst);
        }
        default_hook(info);
    }));

    let net = playground::boot().unwrap();
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .retry(RetryPolicy::none())
        .seed(11)
        .build();
    let cs = CachingServer::new(config, net.hints.clone());
    let servers = vec![cs.sibling(12), cs];
    let upstreams: Vec<_> = (0..2)
        .map(|_| UdpUpstream::with_route(Duration::from_millis(200), net.route_fn()).unwrap())
        .collect();
    let hub = LoopbackHub::new();
    let resolver = Resolved::spawn_io(servers, upstreams, vec![hub.io(), hub.io()]).unwrap();

    // Warm the wire cache so mutated hot queries reach the fast lane's
    // patching path, not only the decoder.
    let hot = encoded(
        0x7001,
        Question::new("www.ucla.edu".parse().unwrap(), RecordType::A),
    );
    hub.inject(&hot, peer(7001));
    assert!(await_reply(&hub, 0x7001, peer(7001), Duration::from_secs(10)).is_some());

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let seeds = seeds();
    for i in 0..DATAGRAMS {
        let datagram = if i % 2 == 0 {
            let len = rng.random_range(0..=600usize);
            (0..len).map(|_| rng.random()).collect()
        } else {
            let seed = seeds[rng.random_range(0..seeds.len())].clone();
            mutate(&mut rng, seed)
        };
        hub.inject(&datagram, peer(10_000 + i as u16));
    }

    // A valid query queued behind the whole fuzz load is still answered.
    let probe = encoded(
        0x7002,
        Question::new("www.example.com".parse().unwrap(), RecordType::A),
    );
    hub.inject(&probe, peer(7002));
    let reply = await_reply(&hub, 0x7002, peer(7002), Duration::from_secs(60))
        .expect("valid query after the fuzz load must be answered");
    assert_eq!(reply.header.rcode, Rcode::NoError);
    assert!(!reply.answers.is_empty(), "probe must resolve: {reply:?}");
    assert!(resolver.healthy(), "{:?}", resolver.last_error());
    assert_eq!(resolver.worker_count(), 2);

    // Joining the workers finishes whatever they still had in hand.
    resolver.stop();
    net.stop();
    assert!(
        !WORKER_PANICKED.load(Ordering::SeqCst),
        "a daemon worker panicked on fuzzed input"
    );
}
