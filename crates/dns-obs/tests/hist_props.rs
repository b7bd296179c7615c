//! Property suite for `LogHistogram` (satellite of ISSUE 5).
//!
//! Three families of properties, checked against a naive
//! `Vec<u64>`-sorted model:
//!
//! 1. p50/p90/p99 agree with the model's nearest-rank percentile to
//!    within one bucket (exactly: the histogram reports the upper bound
//!    of the bucket holding the model's answer, so the relative error is
//!    bounded by the bucket's 12.5% width).
//! 2. merge is associative and commutative.
//! 3. the record / quantile / merge / diff paths perform zero
//!    allocations, enforced by a counting global allocator that counts
//!    per thread, so the proptests running beside a guard on other test
//!    threads do not show up in its count.

use dns_obs::LogHistogram;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Delegates to the system allocator, counting every allocation on the
/// calling thread so the zero-allocation properties below can observe
/// the record path.
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
fn allocs_during(mut op: impl FnMut()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Nearest-rank percentile over raw samples — the same rank rule as
/// `dns_stats::Summary::percentile` and `LogHistogram::percentile`.
fn naive_percentile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn build(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Latency-like samples spanning every octave regime: exact small
/// values, realistic millisecond ranges, and extreme magnitudes.
fn sample_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        8u64..1_000,
        1_000u64..100_000,
        Just(u64::MAX),
        (0u32..64).prop_map(|b| 1u64 << b),
    ]
}

fn sample_vec(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(sample_value(), 1..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn percentiles_match_naive_model(values in sample_vec(64)) {
        let hist = build(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let expect = naive_percentile(&sorted, p);
            let got = hist.percentile(p).unwrap();
            // Bucket-exact: the histogram answers with the upper bound
            // of the bucket holding the model's answer...
            let (lo, hi) =
                LogHistogram::bucket_range(LogHistogram::bucket_index(expect));
            prop_assert_eq!(got, hi);
            prop_assert!(got >= expect && lo <= expect);
            // ...so the relative error is within one bucket's width
            // (12.5%, or ±1 below the first octave).
            let err = got - expect;
            prop_assert!(
                err as f64 <= (expect as f64 / 8.0).max(0.0) + 1e-9,
                "p{}: got {} expected {} (err {})", p, got, expect, err
            );
        }
    }

    #[test]
    fn count_sum_and_max_match_model(values in sample_vec(64)) {
        let hist = build(&values);
        prop_assert_eq!(hist.count(), values.len() as u64);
        let naive_sum = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(hist.sum(), naive_sum);
        let naive_max = *values.iter().max().unwrap();
        let (lo, hi) =
            LogHistogram::bucket_range(LogHistogram::bucket_index(naive_max));
        prop_assert_eq!(hist.max(), Some(hi));
        prop_assert!(lo <= naive_max);
    }

    #[test]
    fn merge_is_commutative(a in sample_vec(32), b in sample_vec(32)) {
        let (ha, hb) = (build(&a), build(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // Merging equals recording the concatenation.
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        prop_assert_eq!(&ab, &build(&concat));
    }

    #[test]
    fn merge_is_associative(
        a in sample_vec(16),
        b in sample_vec(16),
        c in sample_vec(16),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut left = ha.clone(); // (a ∪ b) ∪ c
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone(); // a ∪ (b ∪ c)
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn diff_inverts_merge(
        // Bounded samples: the inversion a ∪ b − a = b only holds while
        // the saturating sum has headroom, which real latencies always
        // have.
        a in proptest::collection::vec(0u64..1_000_000, 1..=32),
        b in proptest::collection::vec(0u64..1_000_000, 1..=32),
    ) {
        let (ha, hb) = (build(&a), build(&b));
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.diff(&ha), hb);
        prop_assert_eq!(merged.diff(&hb), ha);
    }

    #[test]
    fn record_and_snapshot_paths_do_not_allocate(values in sample_vec(64)) {
        let mut hist = build(&values);
        let other = build(&values);
        let mut sink = 0u64;
        let allocs = allocs_during(|| {
            for &v in &values {
                hist.record(v);
            }
            sink ^= hist.percentile(50.0).unwrap();
            sink ^= hist.percentile(90.0).unwrap();
            sink ^= hist.percentile(99.0).unwrap();
            sink ^= hist.max().unwrap();
            sink = sink.wrapping_add(hist.sum());
            hist.merge(&other);
        });
        prop_assert_eq!(allocs, 0);
        std::hint::black_box(sink);
    }
}

#[test]
fn clone_preallocates_then_record_is_alloc_free() {
    // A freshly cloned histogram (the per-window snapshot pattern used
    // by the sweep engine) must also record without allocating.
    let orig = build(&[1, 40, 1000]);
    let mut snap = orig.clone();
    let allocs = allocs_during(|| {
        for v in 0..1000u64 {
            snap.record(v * 7);
        }
        std::hint::black_box(snap.diff(&orig).count());
    });
    assert_eq!(allocs, 0, "clone+record+diff allocated");
}
