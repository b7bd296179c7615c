//! Allocation gates on the hot paths every cached resolution, every
//! fast-lane hit and every cache write of the paper replay run through.
//! Zero allocations on:
//!
//! 1. `Name::clone` + `parent`, the step of every delegation walk;
//! 2. a warm `RecordCache::get`;
//! 3. the daemon's wire fast lane: `fast_query` → `lowercase_key` →
//!    `WireCache::serve`, for a plain and a 0x20 mixed-case query.
//!
//! And a ceiling on:
//!
//! 4. a resolution whose authoritative answer carries the zone's NS set
//!    and glue, the TTL-refresh path that caches the answer, the glue and
//!    the refreshed NS set on every miss.
//!
//! A counting global allocator counts per thread, so the tests running
//! beside a gate on other test threads do not show up in its count. A
//! positive control proves the counter sees a real allocation.

use dns_resilience::core::wire::{self, MAX_MESSAGE_LEN};
use dns_resilience::core::{
    Message, Name, Question, RData, Record, RecordType, RrSet, SimTime, Ttl,
};
use dns_resilience::netd::{fast_query, lowercase_key, WireCache};
use dns_resilience::resolver::{
    CachingServer, Credibility, RecordCache, ResolverConfig, RootHints, Upstream,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Delegates to the system allocator, counting every allocation on the
/// calling thread.
struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's arguments;
// the counter is a const-initialised thread-local `Cell` without a
// destructor, so updating it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performs inside `op`.
fn allocs_during(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

fn name(s: &str) -> Name {
    s.parse().expect("static name")
}

#[test]
fn counter_sees_one_allocation() {
    let allocs = allocs_during(|| {
        black_box(Vec::<u64>::with_capacity(8));
    });
    assert_eq!(allocs, 1);
}

#[test]
fn name_clone_and_parent_do_not_allocate() {
    // Four labels deep: the shape the paper's delegation walks hit.
    let name = name("www.cs.ucla.edu");
    let allocs = allocs_during(|| {
        for _ in 0..100_000 {
            let c = black_box(&name).clone();
            let p = c.parent().expect("not root");
            black_box(p.label_count());
        }
    });
    assert_eq!(allocs, 0, "Name::clone + parent allocated");
}

#[test]
fn warm_record_cache_get_does_not_allocate() {
    let mut cache = RecordCache::new();
    let owner = name("www.ucla.edu");
    let rr = Record::new(
        owner.clone(),
        Ttl::from_hours(4),
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    );
    let set = RrSet::from_records(std::slice::from_ref(&rr)).expect("one record");
    cache.insert(set, SimTime::ZERO, Credibility::AuthAnswer);
    let at = SimTime::from_mins(1);
    let allocs = allocs_during(|| {
        for _ in 0..100_000 {
            assert!(black_box(cache.get(black_box(&owner), RecordType::A, at)).is_some());
        }
    });
    assert_eq!(allocs, 0, "warm RecordCache::get allocated");
}

#[test]
fn wire_fast_lane_hit_does_not_allocate() {
    let owner = name("www.ucla.edu");
    let query = Message::query(0x2020, Question::new(owner.clone(), RecordType::A));
    let plain = wire::encode(&query).expect("encode query");
    let mut resp = Message::response_to(&query);
    resp.header.recursion_available = true;
    resp.answers.push(Record::new(
        owner.clone(),
        Ttl::from_hours(4),
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    let (bytes, offsets) = wire::encode_with_ttl_offsets(&resp).expect("encode response");
    let mut cache = WireCache::new(64 * 1024);
    assert!(cache.insert(
        &owner,
        RecordType::A,
        &bytes,
        &offsets,
        SimTime::ZERO,
        SimTime::from_hours(4),
    ));

    // The same query as `daemon_hot` traffic spells it: 0x20 casing on
    // the question name after the 12-byte header (`Name` lowercases, so
    // the casing goes into the wire bytes).
    let qname = 12..12 + fast_query(&plain).expect("plain query").raw_name.len();
    let mut mixed = plain.clone();
    for b in mixed[qname.clone()].iter_mut().step_by(2) {
        b.make_ascii_uppercase();
    }
    assert_ne!(mixed, plain);

    let mut key = Vec::with_capacity(64);
    let mut out = [0u8; MAX_MESSAGE_LEN];
    let now = SimTime::from_mins(5);
    let mut serve = |q: &[u8], out: &mut [u8]| {
        let fq = fast_query(black_box(q)).expect("fast-lane query");
        lowercase_key(fq.raw_name, &mut key);
        let n = cache
            .serve(&key, fq.rtype, q, now, out)
            .expect("hot entry serves");
        black_box(&out[..n]);
        n
    };
    let allocs = allocs_during(|| {
        for _ in 0..200_000 {
            serve(&plain, &mut out);
            serve(&mixed, &mut out);
        }
    });
    assert_eq!(allocs, 0, "wire fast-lane hit allocated");
    let n = serve(&mixed, &mut out);
    assert_eq!(out[qname.clone()], mixed[qname], "0x20 casing echoed");
    let served = wire::decode(&out[..n]).expect("served bytes decode");
    assert_eq!(served.answers[0].rdata(), resp.answers[0].rdata());
}

/// The authoritative servers of `bench.test`, reached at every address:
/// each query gets an authoritative answer carrying the queried name's
/// address, the zone's NS set and glue for both servers.
struct RefreshingZone {
    zone: Name,
    servers: [(Name, Ipv4Addr); 2],
    /// Allocations made while building responses, which the resolver's
    /// count must not include.
    allocs: u64,
}

impl Upstream for RefreshingZone {
    fn query(&mut self, _server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
        let before = ALLOCS.with(Cell::get);
        let mut resp = Message::response_to(query);
        resp.header.authoritative = true;
        let qname = query.question().expect("resolver queries ask").name.clone();
        resp.answers.push(Record::new(
            qname,
            Ttl::from_hours(1),
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        for (ns, addr) in &self.servers {
            resp.authorities.push(Record::new(
                self.zone.clone(),
                Ttl::from_days(1),
                RData::Ns(ns.clone()),
            ));
            resp.additionals
                .push(Record::new(ns.clone(), Ttl::from_days(1), RData::A(*addr)));
        }
        self.allocs += ALLOCS.with(Cell::get) - before;
        Some(resp)
    }
}

#[test]
fn refresh_path_resolution_allocations_stay_bounded() {
    // The resolver allocated 14,017 times over these 1,000 resolutions
    // when this gate was set. Grouping each section through a hash map,
    // cloning both NS lists on every install and pushing an expiry-heap
    // pair per refresh made it 26,027 before.
    const MAX_ALLOCS: u64 = 14_017;
    const NAMES: u64 = 1_000;

    let hints = RootHints::new(vec![(
        name("a.root-servers.net"),
        Ipv4Addr::new(198, 41, 0, 4),
    )]);
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    let mut up = RefreshingZone {
        zone: name("bench.test"),
        servers: [
            (name("ns1.bench.test"), Ipv4Addr::new(192, 0, 2, 1)),
            (name("ns2.bench.test"), Ipv4Addr::new(192, 0, 2, 2)),
        ],
        allocs: 0,
    };
    // Warm-up: the root's answer installs the zone's NS set and glue.
    let warm = Question::new(name("www.bench.test"), RecordType::A);
    assert!(cs.resolve(&warm, SimTime::ZERO, &mut up).is_success());
    let questions: Vec<Question> = (0..NAMES)
        .map(|i| Question::new(name(&format!("n{i}.bench.test")), RecordType::A))
        .collect();

    let refreshes = cs.metrics().refreshes;
    up.allocs = 0;
    let total = allocs_during(|| {
        for (i, q) in (1..).zip(&questions) {
            let outcome = cs.resolve(q, SimTime::from_secs(i), &mut up);
            assert!(black_box(outcome).is_success());
        }
    });
    assert_eq!(
        cs.metrics().refreshes - refreshes,
        NAMES,
        "every answer refreshed the zone's NS set"
    );
    let allocs = total - up.allocs;
    println!(
        "refresh-path resolution: {allocs} allocations over {NAMES} resolutions ({:.3} each)",
        allocs as f64 / NAMES as f64
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "refresh-path resolution allocated {allocs} times over {NAMES} resolutions (gate {MAX_ALLOCS})"
    );
}
