//! The daemon's serving core, stepped single-threaded in virtual time:
//! two cores of one pool resolve over a simulated internet whose root and
//! TLD servers black out mid-run, fed seeded bursts of valid queries in
//! random 0x20 casing, never-repeating NXDOMAIN names, CHAOS queries,
//! random bytes, mutated queries and responses. Every datagram the
//! decoder accepts as a query gets exactly one reply, in arrival order, to
//! its peer, echoing its ID and question bytes; nothing else gets one; and
//! a seed replays to byte-identical replies and counters.

use dns_resilience::core::{wire, Message, Name, Question, RecordClass, RecordType};
use dns_resilience::core::{SimDuration, SimTime};
use dns_resilience::netd::{DaemonStats, PacketBatch, Resolved, DEFAULT_WIRE_CACHE_BYTES};
use dns_resilience::netd::{CHAOS_METRICS_NAME, MAX_BATCH};
use dns_resilience::resolver::{CachingServer, ResolverConfig, ResolverMetrics, RootHints};
use dns_resilience::sim::{AttackScenario, ServerFarm, SimNet};
use dns_resilience::trace::{Universe, UniverseSpec};
use std::net::SocketAddr;
use std::sync::Arc;

const SEEDS: [u64; 4] = [1, 2, 3, 4];
const DATAGRAMS: usize = 3_000;
/// Names drawn three times in four, so repeats reach the wire fast lane.
const HOT: usize = 64;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct World {
    universe: Universe,
    farm: Arc<ServerFarm>,
    names: Vec<Name>,
    hot: Vec<Name>,
    apexes: Vec<Name>,
}

/// A query for `name`, its letters randomly upper-cased (0x20).
fn query(rng: &mut Rng, name: &Name, rtype: RecordType, class: RecordClass) -> Vec<u8> {
    let question = Question::with_class(name.clone(), rtype, class);
    let mut bytes = wire::encode(&Message::query(rng.next() as u16, question)).unwrap();
    for b in &mut bytes[12..] {
        if b.is_ascii_lowercase() && rng.next() & 1 == 1 {
            b.make_ascii_uppercase();
        }
    }
    bytes
}

fn valid_query(rng: &mut Rng, world: &World) -> Vec<u8> {
    let names = [&world.names, &world.hot, &world.hot, &world.hot][rng.below(4)];
    let name = &names[rng.below(names.len())];
    let rtype = [RecordType::A, RecordType::A, RecordType::Mx][rng.below(3)];
    query(rng, name, rtype, RecordClass::In)
}

/// Overwrites bytes, truncates or appends junk, 1–4 times.
fn mutate(rng: &mut Rng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..=rng.below(4) {
        match rng.below(3) {
            0 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes[i] = rng.next() as u8;
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => bytes.extend((0..=rng.below(31)).map(|_| rng.next() as u8)),
        }
    }
    bytes
}

/// One datagram of the mix; `nx` numbers the NXDOMAIN names.
fn datagram(rng: &mut Rng, world: &World, nx: &mut u64) -> Vec<u8> {
    match rng.below(20) {
        0..=7 => valid_query(rng, world),
        8 | 9 => {
            *nx += 1;
            let apex = &world.apexes[rng.below(world.apexes.len())];
            let name = format!("nx{nx}.{apex}").parse().unwrap();
            query(rng, &name, RecordType::A, RecordClass::In)
        }
        10 => {
            let name = CHAOS_METRICS_NAME.parse().unwrap();
            query(rng, &name, RecordType::Txt, RecordClass::Ch)
        }
        11..=13 => (0..rng.below(601)).map(|_| rng.next() as u8).collect(),
        14..=17 => {
            let valid = valid_query(rng, world);
            mutate(rng, valid)
        }
        _ => {
            let mut response = valid_query(rng, world);
            response[2] |= 0x80;
            response
        }
    }
}

/// A reply to `raw` (decoded as `query`): QR set, the same ID and
/// question, and — when the query spells its name out in full — the
/// client's exact question bytes.
fn assert_echoes(raw: &[u8], query: &Message, reply: &[u8]) {
    assert!(reply[2] & 0x80 != 0, "not a response");
    assert_eq!(reply[..2], raw[..2], "ID must be echoed");
    assert_eq!(wire::decode(reply).unwrap().question(), query.question());
    let mut end = 12;
    while query.question().is_some() && (1..64).contains(&raw[end]) {
        end += 1 + usize::from(raw[end]);
    }
    if query.question().is_some() && raw[end] == 0 {
        assert_eq!(reply[12..end + 5], raw[12..end + 5], "question echoed");
    }
}

/// One seeded run of a two-core pool; returns its non-CHAOS replies and
/// counters.
fn run(world: &World, seed: u64) -> (Vec<(Vec<u8>, SocketAddr)>, DaemonStats, ResolverMetrics) {
    let attack = AttackScenario::root_and_tlds(SimTime::from_hours(4), SimDuration::from_hours(4))
        .compile(&world.universe);
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .seed(seed)
        .build();
    let cs = CachingServer::new(
        config,
        RootHints::new(world.universe.root_servers().to_vec()),
    );
    let nets = (0..2).map(|_| {
        let mut net = SimNet::with_shared(Arc::clone(&world.farm));
        net.set_attack(attack.clone());
        net
    });
    let servers = vec![cs.sibling(seed + 1), cs];
    let (resolved, mut cores) = Resolved::cores(servers, nets.collect()).unwrap();

    let (mut rng, mut nx, mut now) = (Rng(seed), 0, SimTime::from_hours(1));
    let (mut rx, mut tx) = (PacketBatch::new(), PacketBatch::new());
    let (mut replies, mut sent, mut peak_wire_bytes) = (Vec::new(), 0, 0);
    while sent < DATAGRAMS {
        rx.clear();
        for _ in 0..=rng.below(MAX_BATCH).min(DATAGRAMS - sent - 1) {
            let peer = SocketAddr::from(([127, 0, 0, 1], 1024 + sent as u16));
            assert!(rx.push_copy(&datagram(&mut rng, world, &mut nx), peer));
            sent += 1;
        }
        cores[rng.below(2)].step(now, &rx, &mut tx);

        // Exactly the datagrams that decode as queries are answered, in
        // order, each to its own peer.
        let queries: Vec<_> = rx
            .iter()
            .filter_map(|p| match wire::decode(p.bytes()) {
                Ok(q) if !q.header.response => Some((p, q)),
                _ => None,
            })
            .collect();
        let want: Vec<_> = queries.iter().map(|(p, _)| p.peer()).collect();
        let got: Vec<_> = tx.iter().map(|p| p.peer()).collect();
        assert_eq!(got, want, "seed {seed} at {now}");
        for ((packet, query), reply) in queries.iter().zip(tx.iter()) {
            assert_echoes(packet.bytes(), query, reply.bytes());
            if query.question().is_none_or(|q| q.class != RecordClass::Ch) {
                replies.push((reply.bytes().to_vec(), reply.peer()));
            }
        }
        peak_wire_bytes = peak_wire_bytes.max(resolved.stats().wire_bytes);
        now += SimDuration::from_secs(rng.below(241) as u64);
    }

    // The wire cache never fills, so its one unseeded choice, the
    // eviction victim, never comes up.
    assert!(peak_wire_bytes < DEFAULT_WIRE_CACHE_BYTES as u64);
    let (stats, metrics) = (resolved.stats(), resolved.metrics());
    // Every lane is reached, and the run crosses the whole blackout.
    assert!(stats.wire_hits > 0 && stats.wire_misses > 0 && stats.wire_bypass > 0);
    assert!(
        now > SimTime::from_hours(8) && metrics.failed_in > 0,
        "{now}: {metrics}"
    );
    assert_eq!(stats.served, 0, "a stepped core sends nothing");
    (replies, stats, metrics)
}

#[test]
fn stepped_core_answers_every_query_once_and_replays_per_seed() {
    let universe = UniverseSpec::small().build(7);
    let names: Vec<Name> = universe
        .zones()
        .iter()
        .flat_map(|z| z.query_names().cloned())
        .collect();
    let world = World {
        farm: Arc::new(ServerFarm::build(&universe, None)),
        hot: names.iter().step_by(names.len() / HOT).cloned().collect(),
        // Every zone but the root (listed first) parents NXDOMAIN names.
        apexes: universe.zones()[1..]
            .iter()
            .map(|z| z.apex.clone())
            .collect(),
        names,
        universe,
    };
    for seed in SEEDS {
        let (replies, stats, metrics) = run(&world, seed);
        let (again, stats_again, metrics_again) = run(&world, seed);
        assert_eq!(
            (stats, metrics),
            (stats_again, metrics_again),
            "seed {seed}"
        );
        assert_eq!(replies.len(), again.len(), "seed {seed}");
        let diverged = replies.iter().zip(&again).position(|(a, b)| a != b);
        assert_eq!(diverged, None, "seed {seed}: replies replay byte for byte");
    }
}
