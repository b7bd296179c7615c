//! Internet-scale namespace and trace-streaming benchmark: builds
//! interned namespaces at 10k / 100k / 1M zones, streams seeded query
//! traffic over each without ever materializing a trace, and writes
//! `BENCH_scale.json` — the tracked memory/throughput trajectory for the
//! scale path.
//!
//! Alongside per-scale generation throughput and allocations-per-query
//! (via the counting global allocator), the binary records the process
//! peak RSS after each scale and the RSS growth from streaming 10× more
//! queries at the largest scale — the direct evidence that replay memory
//! is bounded by the namespace, not the query count. A small streamed
//! attack sweep exercises the full `dns-sim` replay path end to end.
//!
//!   cargo run --release -p dns-bench --bin bench_scale [-- --smoke]
//!
//! Environment:
//! * `DNS_BENCH_OUT` — output path (default `BENCH_scale.json`).

use dns_core::{SimDuration, SimTime};
use dns_sim::experiment::{paper_durations, Scheme, ATTACK_START_DAY};
use dns_sim::{peak_rss_kb, ExperimentSpec};
use dns_trace::{TraceSpec, UniverseSpec, WorkloadBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Allocation counter maintained by the global allocator below (only
/// this binary pays for it; the library crates are untouched).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter updates are
// side-effect-free atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

fn scale_label(slds: usize) -> String {
    if slds >= 1_000_000 {
        format!("{}m", slds / 1_000_000)
    } else {
        format!("{}k", slds / 1_000)
    }
}

fn spec_for(slds: usize) -> UniverseSpec {
    UniverseSpec {
        sld_count: slds,
        ..UniverseSpec::standard()
    }
}

struct ScaleResult {
    label: String,
    zones: usize,
    build_secs: f64,
    arena_bytes: usize,
    interned_names: usize,
    heap_bytes: usize,
    gen_qps: f64,
    gen_allocs_per_query: f64,
    peak_rss_kb: u64,
}

/// Builds the interned namespace for `slds` second-level zones and
/// streams `queries` seeded queries over it, measuring generation
/// throughput and allocations per query.
fn run_scale(slds: usize, queries: u64) -> ScaleResult {
    let label = scale_label(slds);
    let start = Instant::now();
    let ns = spec_for(slds).build_interned(7);
    let build_secs = start.elapsed().as_secs_f64();

    let wb = WorkloadBuilder::new("SCALE", 1, 1_000, queries);
    let a0 = allocs();
    let start = Instant::now();
    let mut emitted: u64 = 0;
    for event in wb.stream(&ns, 42) {
        black_box(&event);
        emitted += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let gen_allocs = allocs() - a0;
    assert_eq!(emitted, queries, "stream must emit the full trace");

    let result = ScaleResult {
        label,
        zones: ns.zone_count(),
        build_secs,
        arena_bytes: ns.arena_bytes(),
        interned_names: ns.name_count(),
        heap_bytes: ns.heap_bytes(),
        gen_qps: emitted as f64 / wall,
        gen_allocs_per_query: gen_allocs as f64 / emitted as f64,
        peak_rss_kb: peak_rss_kb(),
    };
    println!(
        "scale {}: {} zones, arena {:.1} MiB, built in {:.2}s, \
         streamed {} queries at {:.0} qps ({:.3} allocs/query), peak RSS {} KiB",
        result.label,
        result.zones,
        result.arena_bytes as f64 / (1 << 20) as f64,
        result.build_secs,
        emitted,
        result.gen_qps,
        result.gen_allocs_per_query,
        result.peak_rss_kb,
    );
    result
}

/// Streams `queries` events over `ns` and reports the VmHWM afterwards —
/// called with Q and then 10×Q to show RSS does not scale with the query
/// count (the trace is never materialized).
fn rss_after_streaming(ns: &dns_trace::InternedNamespace, queries: u64) -> u64 {
    let wb = WorkloadBuilder::new("SCALE", 1, 1_000, queries);
    for event in wb.stream(ns, 43) {
        black_box(&event);
    }
    peak_rss_kb()
}

/// A small end-to-end streamed attack sweep (warm-up, one fork of the
/// warmed-up replay per duration) — the replay path the scale numbers
/// feed.
fn run_streamed_sweep() -> (u64, f64, u64) {
    let universe = UniverseSpec::small().build(7);
    let start = Instant::now();
    let outcome = ExperimentSpec::new(&universe)
        .stream_trace(TraceSpec::demo().scaled(0.2), 42)
        .scheme(Scheme::vanilla())
        .attack(SimTime::from_days(ATTACK_START_DAY), &paper_durations())
        .overhead(SimDuration::from_hours(12))
        .threads(1)
        .run();
    let wall = start.elapsed().as_secs_f64();
    let queries: u64 = outcome.manifest.units.iter().map(|u| u.queries).sum();
    let rss = outcome
        .manifest
        .units
        .iter()
        .map(|u| u.peak_rss_kb)
        .max()
        .unwrap_or(0);
    assert!(
        outcome.attacks.iter().any(|a| a.window.failed_in > 0),
        "streamed attack sweep must observe failures"
    );
    (queries, wall, rss)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = std::env::var("DNS_BENCH_OUT").unwrap_or_else(|_| "BENCH_scale.json".into());

    // Ascending zone counts: each scale's VmHWM reading reflects the
    // largest namespace built so far, i.e. its own.
    let (scales, queries_per_scale): (&[usize], u64) = if smoke {
        (&[1_000, 10_000, 50_000], 20_000)
    } else {
        (&[10_000, 100_000, 1_000_000], 200_000)
    };

    let mut results: Vec<ScaleResult> = Vec::new();
    for &slds in scales {
        results.push(run_scale(slds, queries_per_scale));
    }

    // Memory-boundedness evidence at the largest scale: stream Q and
    // then 10×Q queries; materialized replay would grow RSS by ~64+
    // bytes/query (hundreds of MiB at full scale), streaming only by the
    // per-hour offset buffer.
    let ns = spec_for(*scales.last().expect("scales non-empty")).build_interned(7);
    let rss_base = rss_after_streaming(&ns, queries_per_scale);
    let rss_10x = rss_after_streaming(&ns, queries_per_scale * 10);
    let rss_growth = rss_10x.saturating_sub(rss_base);
    println!(
        "rss growth streaming 10x queries at {}: {} KiB (base {} KiB)",
        scale_label(*scales.last().expect("scales non-empty")),
        rss_growth,
        rss_base,
    );
    drop(ns);

    let (sweep_queries, sweep_wall, sweep_rss) = run_streamed_sweep();
    println!(
        "streamed sweep: {sweep_queries} queries in {sweep_wall:.2}s, unit peak RSS {sweep_rss} KiB"
    );

    let mut scale_fields = String::new();
    for r in &results {
        scale_fields.push_str(&format!(
            "  \"zones_{l}\": {},\n  \"build_secs_{l}\": {:.3},\n  \
             \"arena_bytes_{l}\": {},\n  \"interned_names_{l}\": {},\n  \
             \"heap_bytes_{l}\": {},\n  \"gen_qps_{l}\": {:.1},\n  \
             \"gen_allocs_per_query_{l}\": {:.4},\n  \"peak_rss_kb_{l}\": {},\n",
            r.zones,
            r.build_secs,
            r.arena_bytes,
            r.interned_names,
            r.heap_bytes,
            r.gen_qps,
            r.gen_allocs_per_query,
            r.peak_rss_kb,
            l = r.label,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"schema_version\": 1,\n  \
         \"smoke\": {smoke},\n  \"queries_per_scale\": {queries_per_scale},\n\
         {scale_fields}  \
         \"rss_growth_kb_10x_queries\": {rss_growth},\n  \
         \"sweep_queries\": {sweep_queries},\n  \
         \"sweep_wall_secs\": {sweep_wall:.3},\n  \
         \"sweep_peak_rss_kb\": {sweep_rss}\n}}\n",
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    println!("[benchmark written to {out_path}]");
}
