//! End-to-end resolver throughput baseline: replays a fixed seeded trace
//! through the full simulator (combined scheme: refresh + A-LFU renewal +
//! 3-day long TTL, the paper's heaviest configuration) and writes
//! `BENCH_resolve.json` — the tracked perf trajectory for the hot path.
//!
//! The binary installs a counting global allocator, so alongside
//! queries/sec it reports allocations-per-query for the full replay and
//! for two targeted micro-probes (`Name::clone`+`parent`, warm-cache
//! `get`) that the zero-allocation work is measured against.
//!
//!   cargo run --release -p dns-bench --bin bench_resolve
//!
//! Environment:
//! * `DNS_BENCH_SCALE` — trace scale factor (default 1.0),
//! * `DNS_BENCH_OUT`   — output path (default `BENCH_resolve.json`).

use dns_core::{Name, Question, RData, Record, RecordType, SimTime, Ttl};
use dns_resolver::{
    CachingServer, Credibility, RecordCache, RenewalPolicy, ResolverConfig, RootHints, ShardedCache,
};
use dns_sim::experiment::Scheme;
use dns_sim::{peak_rss_kb, ServerFarm, SimNet, Simulation};
use dns_trace::{TraceSpec, UniverseSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Allocation counters maintained by the global allocator below. Only
/// bench builds pay for this bookkeeping; the library crates are
/// untouched.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter updates are
// side-effect-free atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Allocations per iteration of `op`, measured over `iters` runs.
fn allocs_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let (a0, _) = snapshot();
    for _ in 0..iters {
        op();
    }
    let (a1, _) = snapshot();
    (a1 - a0) as f64 / iters as f64
}

/// `Name::clone` + `parent` probe: five labels deep, the `www.cs.ucla.edu`
/// shape the paper's delegation walks hit constantly.
fn probe_name_ops() -> f64 {
    let name: Name = "www.cs.ucla.edu".parse().expect("static name");
    allocs_per_op(100_000, || {
        let c = black_box(&name).clone();
        let p = c.parent().expect("not root");
        black_box(p.label_count());
    })
}

/// Warm-cache `get` probe: one fresh entry, repeated hits.
fn probe_warm_get() -> f64 {
    let mut cache = RecordCache::new();
    let owner: Name = "www.ucla.edu".parse().expect("static name");
    let rr = Record::new(
        owner.clone(),
        Ttl::from_hours(4),
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    );
    let set = dns_core::RrSet::from_records(std::slice::from_ref(&rr)).expect("one record");
    cache.insert(set, SimTime::ZERO, Credibility::AuthAnswer);
    let at = SimTime::from_mins(1);
    allocs_per_op(100_000, || {
        black_box(cache.get(black_box(&owner), RecordType::A, at));
    })
}

/// Wire fast-lane probe: the daemon's batched hit path — shallow-parse
/// the query, build the lowercase probe key in reused scratch, serve the
/// pre-serialized response into a fixed buffer with ID/RD/casing/TTLs
/// patched in place. Returns `(serves/sec, allocations/serve)`; the
/// whole loop must allocate nothing (the `wire_allocs_per_query` gate in
/// ci.sh holds it at zero).
fn probe_wire_lane() -> (f64, f64) {
    use dns_netd::{fast_query, lowercase_key, WireCache};

    let owner: Name = "www.ucla.edu".parse().expect("static name");
    let query = dns_core::Message::query(0x2020, Question::new(owner.clone(), RecordType::A));
    let qbytes = dns_core::wire::encode(&query).expect("encode query");
    let mut resp = dns_core::Message::response_to(&query);
    resp.header.recursion_available = true;
    resp.answers.push(Record::new(
        owner.clone(),
        Ttl::from_hours(4),
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    let (bytes, offsets) = dns_core::wire::encode_with_ttl_offsets(&resp).expect("encode response");
    let mut cache = WireCache::new(64 * 1024);
    assert!(cache.insert(
        &owner,
        RecordType::A,
        &bytes,
        &offsets,
        SimTime::ZERO,
        SimTime::from_hours(4),
    ));

    let mut key = Vec::with_capacity(64);
    let mut out = [0u8; dns_core::wire::MAX_MESSAGE_LEN];
    let now = SimTime::from_mins(5);
    let iters = 200_000u64;
    let (a0, _) = snapshot();
    let start = Instant::now();
    for _ in 0..iters {
        let fq = fast_query(black_box(&qbytes)).expect("plain query");
        lowercase_key(fq.raw_name, &mut key);
        let n = cache
            .serve(&key, fq.rtype, &qbytes, now, &mut out)
            .expect("hot entry serves");
        black_box(&out[..n]);
    }
    let wall = start.elapsed().as_secs_f64();
    let (a1, _) = snapshot();
    (iters as f64 / wall, (a1 - a0) as f64 / iters as f64)
}

/// Multi-threaded shared-cache replay: `threads` workers, each owning a
/// [`CachingServer`] over ONE shared [`ShardedCache`] (8 shards,
/// single-flight coalescing on), resolve an interleaved slice of
/// `questions` at a fixed warm instant against a shared farm. Returns
/// aggregate `(queries/sec, allocations/query)` for the whole replay.
fn mt_replay(
    farm: &Arc<ServerFarm>,
    hints: &RootHints,
    questions: &Arc<Vec<Question>>,
    threads: usize,
) -> (f64, f64) {
    let backend = ShardedCache::with_shards(8);
    let total = questions.len();
    let now = SimTime::from_days(1);
    let (a0, _) = snapshot();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let backend = backend.clone();
            let farm = Arc::clone(farm);
            let questions = Arc::clone(questions);
            let hints = hints.clone();
            scope.spawn(move || {
                let config = ResolverConfig::vanilla()
                    .to_builder()
                    .shards(8)
                    .coalesce(true)
                    .seed(42 + t as u64)
                    .build();
                let mut cs = CachingServer::with_backend(config, hints, backend);
                let mut net = SimNet::with_shared(farm);
                for q in questions.iter().skip(t).step_by(threads) {
                    black_box(cs.resolve(q, now, &mut net));
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let (a1, _) = snapshot();
    (total as f64 / wall, (a1 - a0) as f64 / total as f64)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("DNS_BENCH_SCALE", 1.0);
    let out_path = std::env::var("DNS_BENCH_OUT").unwrap_or_else(|_| "BENCH_resolve.json".into());

    let name_op_allocs = probe_name_ops();
    let warm_get_allocs = probe_warm_get();
    let (wire_qps, wire_allocs_per_query) = probe_wire_lane();
    println!("wire fast lane: {wire_qps:.0} serves/sec, {wire_allocs_per_query:.4} allocs/serve");

    let universe = UniverseSpec::small().build(7);
    let trace = TraceSpec::demo().scaled(scale).generate(&universe, 42);
    let queries = trace.queries.len() as u64;
    let questions: Arc<Vec<Question>> =
        Arc::new(trace.queries.iter().map(|e| e.question.clone()).collect());
    let scheme = Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3));
    let mut sim = Simulation::new(&universe, trace, scheme.sim_config());

    let (a0, b0) = snapshot();
    let start = Instant::now();
    sim.run_to_end();
    let wall = start.elapsed().as_secs_f64();
    let (a1, b1) = snapshot();

    let metrics = sim.metrics();
    assert_eq!(metrics.queries_in, queries, "replay must consume the trace");
    assert_eq!(metrics.failed_in, 0, "no attack: replay must not fail");

    let qps = queries as f64 / wall;
    let allocs_per_query = (a1 - a0) as f64 / queries as f64;
    let bytes_per_query = (b1 - b0) as f64 / queries as f64;

    // Multi-threaded shared-cache mode: the same query stream replayed by
    // 1/2/4/8 workers over one ShardedCache (8 shards, coalescing on).
    let farm = Arc::new(ServerFarm::build(&universe, None));
    let hints = RootHints::new(universe.root_servers().to_vec());
    let mut mt_fields = String::new();
    for threads in [1usize, 2, 4, 8] {
        let (mt_qps, mt_allocs) = mt_replay(&farm, &hints, &questions, threads);
        println!("mt replay: {threads} thread(s) → {mt_qps:.0} qps, {mt_allocs:.2} allocs/query");
        mt_fields.push_str(&format!(
            "  \"mt_qps_{threads}\": {mt_qps:.1},\n  \
             \"mt_allocs_per_query_{threads}\": {mt_allocs:.2},\n",
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"resolve\",\n  \"schema_version\": 1,\n  \
         \"scheme\": \"{}\",\n  \"trace\": \"DEMO\",\n  \"scale\": {scale},\n  \
         \"queries\": {queries},\n  \"wall_secs\": {wall:.4},\n  \"qps\": {qps:.1},\n  \
         \"allocs_per_query\": {allocs_per_query:.2},\n  \
         \"bytes_per_query\": {bytes_per_query:.1},\n  \
         \"name_clone_parent_allocs_per_op\": {name_op_allocs:.4},\n  \
         \"warm_get_allocs_per_op\": {warm_get_allocs:.4},\n  \
         \"wire_qps\": {wire_qps:.1},\n  \
         \"wire_allocs_per_query\": {wire_allocs_per_query:.4},\n{mt_fields}  \
         \"peak_rss_kb\": {}\n}}\n",
        scheme.label(),
        peak_rss_kb(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    println!("[benchmark written to {out_path}]");
}
