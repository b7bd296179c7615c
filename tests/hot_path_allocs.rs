//! Zero-allocation gates on the three hot paths every cached resolution
//! and every fast-lane hit run through:
//!
//! 1. `Name::clone` + `parent`, the step of every delegation walk;
//! 2. a warm `RecordCache::get`;
//! 3. the daemon's wire fast lane: `fast_query` → `lowercase_key` →
//!    `WireCache::serve`, for a plain and a 0x20 mixed-case query.
//!
//! A counting global allocator counts per thread, so the tests running
//! beside a gate on other test threads do not show up in its count. A
//! positive control proves the counter sees a real allocation.

use dns_resilience::core::wire::{self, MAX_MESSAGE_LEN};
use dns_resilience::core::{
    Message, Name, Question, RData, Record, RecordType, RrSet, SimTime, Ttl,
};
use dns_resilience::netd::{fast_query, lowercase_key, WireCache};
use dns_resilience::resolver::{Credibility, RecordCache};
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
