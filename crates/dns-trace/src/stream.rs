//! Streaming, zero-materialization trace generation.
//!
//! [`TraceStream`] yields [`QueryEvent`]s on demand from the same seeded
//! Zipf/diurnal model as [`WorkloadBuilder::generate`] — in fact
//! `generate` *is* a collected stream, so the two are byte-identical by
//! construction (pinned by the golden transcripts and the property tests
//! in `tests/stream_props.rs`).
//!
//! Resident memory is `O(zones + queries-per-hour)`, never
//! `O(queries)`: the only per-query state is the current hour's sorted
//! arrival offsets (a `Vec<u32>` of at most one hour's volume, ~0.05
//! bytes per trace query at week scale versus ~64+ for a materialized
//! [`QueryEvent`]).
//!
//! A stream is `Clone`: a copy carries the RNG state and the buffered
//! hour, so it yields exactly the events the original would yield next.
//! Replay engines fork a warmed-up simulation this way
//! ([`QueryStream::fork`]); a materialized [`Trace`] replays through the
//! same interface as a [`TraceReplay`].

use crate::{QueryEvent, Trace, Universe, Zipf};
use dns_core::{Label, Name, Question, RecordType, SimTime, HOUR};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::f64::consts::TAU;
use std::sync::Arc;

/// The grouped query-target universe a [`TraceStream`] draws names from:
/// popularity groups (zones) of queryable names.
///
/// Implemented by [`UniverseTargets`] (over a materialized
/// [`Universe`]) and [`InternedNamespace`](crate::InternedNamespace)
/// (zero-copy arena views at millions of zones).
pub trait TargetSource {
    /// Number of target groups (zones with at least one queryable name),
    /// in deterministic generation order.
    fn group_count(&self) -> usize;
    /// Number of queryable names in `group`.
    fn group_len(&self, group: usize) -> usize;
    /// The `i`-th queryable name of `group`. Must be cheap (refcount
    /// bump or arena view) — it runs once per generated query.
    fn target(&self, group: usize, i: usize) -> Name;
}

impl<T: TargetSource + ?Sized> TargetSource for &T {
    fn group_count(&self) -> usize {
        (**self).group_count()
    }
    fn group_len(&self, group: usize) -> usize {
        (**self).group_len(group)
    }
    fn target(&self, group: usize, i: usize) -> Name {
        (**self).target(group, i)
    }
}

impl<T: TargetSource + ?Sized> TargetSource for Arc<T> {
    fn group_count(&self) -> usize {
        (**self).group_count()
    }
    fn group_len(&self, group: usize) -> usize {
        (**self).group_len(group)
    }
    fn target(&self, group: usize, i: usize) -> Name {
        (**self).target(group, i)
    }
}

/// [`Universe::query_targets`] grouped by owning zone, flattened into
/// one shared allocation — cheap to clone (two `Arc` bumps), so every
/// fork of a stream shares one copy.
#[derive(Debug, Clone)]
pub struct UniverseTargets {
    names: Arc<[Name]>,
    /// `(start, len)` per group, in zone order.
    bounds: Arc<[(u32, u32)]>,
}

impl UniverseTargets {
    /// Groups `universe.query_targets()` by zone.
    ///
    /// Zone indices are non-decreasing in generation order, so grouping
    /// is a run-length pass — exactly the groups the materialized
    /// generator's sort-by-zone-index produced.
    pub fn new(universe: &Universe) -> Self {
        let mut names: Vec<Name> = Vec::new();
        let mut bounds: Vec<(u32, u32)> = Vec::new();
        let mut current: Option<usize> = None;
        for (name, zone_idx) in universe.query_targets() {
            if current != Some(zone_idx) {
                bounds.push((names.len() as u32, 0));
                current = Some(zone_idx);
            }
            names.push(name);
            bounds.last_mut().expect("group open").1 += 1;
        }
        UniverseTargets {
            names: names.into(),
            bounds: bounds.into(),
        }
    }
}

impl TargetSource for UniverseTargets {
    fn group_count(&self) -> usize {
        self.bounds.len()
    }
    fn group_len(&self, group: usize) -> usize {
        self.bounds[group].1 as usize
    }
    fn target(&self, group: usize, i: usize) -> Name {
        self.names[self.bounds[group].0 as usize + i].clone()
    }
}

/// The workload-shape parameters a stream runs with (a copy of the
/// [`WorkloadBuilder`](crate::WorkloadBuilder) fields).
#[derive(Debug, Clone)]
pub(crate) struct StreamShape {
    pub(crate) name: String,
    pub(crate) days: u64,
    pub(crate) clients: u32,
    pub(crate) total_queries: u64,
    pub(crate) zipf_alpha: f64,
    pub(crate) nxdomain_fraction: f64,
    pub(crate) mx_fraction: f64,
    pub(crate) diurnal_amplitude: f64,
}

impl StreamShape {
    fn diurnal_weight(&self, hour_of_day: u64) -> f64 {
        // Peak mid-afternoon, trough early morning.
        let phase = (hour_of_day as f64 - 15.0) / 24.0 * TAU;
        1.0 + self.diurnal_amplitude * phase.cos()
    }

    /// Per-hour query counts: diurnal weights, floored shares, remainder
    /// distributed deterministically round-robin. No RNG involved.
    fn hour_counts(&self) -> Vec<u64> {
        let hours = self.days * 24;
        let weights: Vec<f64> = (0..hours).map(|h| self.diurnal_weight(h % 24)).collect();
        let total_weight: f64 = weights.iter().sum();
        let mut counts: Vec<u64> = weights
            .iter()
            .map(|w| ((w / total_weight) * self.total_queries as f64).floor() as u64)
            .collect();
        let mut assigned: u64 = counts.iter().sum();
        let n_hours = counts.len();
        let mut h = 0;
        while assigned < self.total_queries {
            counts[h % n_hours] += 1;
            assigned += 1;
            h += 1;
        }
        counts
    }
}

/// An iterator of [`QueryEvent`]s generated on demand — see the module
/// docs. Built by [`WorkloadBuilder::stream`](crate::WorkloadBuilder);
/// the same builder's `generate` collects one of these, so streamed and
/// materialized traces are byte-identical for the same seed.
#[derive(Debug, Clone)]
pub struct TraceStream<S: TargetSource> {
    shape: StreamShape,
    source: S,
    /// Shuffled group order: position → original group index.
    order: Vec<u32>,
    zone_zipf: Zipf,
    name_zipfs: Vec<Zipf>,
    counts: Vec<u64>,
    rng: StdRng,
    /// Hour whose offsets are buffered.
    cur_hour: u64,
    /// Next hour index to draw.
    next_hour: usize,
    /// Sorted second-offsets of the buffered hour (`< HOUR`, hence u32).
    offsets: Vec<u32>,
    /// Next unconsumed index into `offsets`.
    idx: usize,
    emitted: u64,
}

impl<S: TargetSource> TraceStream<S> {
    pub(crate) fn new(shape: StreamShape, source: S, seed: u64) -> Self {
        assert!(shape.clients > 0, "workload needs at least one client");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_groups = source.group_count();
        assert!(n_groups > 0, "universe has no queryable names");
        // Shuffle so zone popularity rank is independent of generation
        // order (Fisher–Yates with our seeded rng) — the identical draw
        // sequence the materialized generator used on its group vector.
        let mut order: Vec<u32> = (0..n_groups as u32).collect();
        for i in (1..n_groups).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let zone_zipf = Zipf::new(n_groups, shape.zipf_alpha);
        let max_group = (0..n_groups)
            .map(|g| source.group_len(g))
            .max()
            .unwrap_or(1);
        let name_zipfs: Vec<Zipf> = (1..=max_group).map(|n| Zipf::new(n, 0.8)).collect();
        let counts = shape.hour_counts();
        TraceStream {
            shape,
            source,
            order,
            zone_zipf,
            name_zipfs,
            counts,
            rng,
            cur_hour: 0,
            next_hour: 0,
            offsets: Vec::new(),
            idx: 0,
            emitted: 0,
        }
    }

    /// Queries emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The trace label this stream generates.
    pub fn trace_name(&self) -> &str {
        &self.shape.name
    }

    /// Days of traffic the stream spans.
    pub fn days(&self) -> u64 {
        self.shape.days
    }

    /// Total queries the stream will emit end to end.
    pub fn total_queries(&self) -> u64 {
        self.shape.total_queries
    }

    /// The next query event, or `None` when the trace is exhausted.
    pub fn next_event(&mut self) -> Option<QueryEvent> {
        while self.idx >= self.offsets.len() {
            if self.next_hour >= self.counts.len() {
                return None;
            }
            self.cur_hour = self.next_hour as u64;
            let count = self.counts[self.next_hour];
            self.offsets.clear();
            self.offsets
                .extend((0..count).map(|_| self.rng.random_range(0..HOUR) as u32));
            self.offsets.sort_unstable();
            self.idx = 0;
            self.next_hour += 1;
        }
        let off = u64::from(self.offsets[self.idx]);
        self.idx += 1;
        let hour_start = self.cur_hour * HOUR;
        let group = self.order[self.zone_zipf.sample(&mut self.rng)] as usize;
        let glen = self.source.group_len(group);
        let name = self
            .source
            .target(group, self.name_zipfs[glen - 1].sample(&mut self.rng));
        let question = self.make_question(&name);
        let client = self.rng.random_range(0..self.shape.clients);
        self.emitted += 1;
        Some(QueryEvent {
            at: SimTime::from_secs(hour_start + off),
            client,
            question,
        })
    }

    fn make_question(&mut self, name: &Name) -> Question {
        let roll: f64 = self.rng.random();
        if roll < self.shape.nxdomain_fraction {
            // A name that cannot exist in the generated universe: the
            // generator never emits an `nx…` label.
            let k: u32 = self.rng.random_range(0..1000);
            let zone = name.parent().unwrap_or_else(Name::root);
            let label = Label::new(format!("nx{k}").as_bytes()).expect("valid label");
            if let Ok(nx) = zone.child(label) {
                return Question::new(nx, RecordType::A);
            }
        } else if roll < self.shape.nxdomain_fraction + self.shape.mx_fraction {
            return Question::new(name.clone(), RecordType::Mx);
        }
        Question::new(name.clone(), RecordType::A)
    }

    /// Runs the stream to exhaustion, collecting a materialized
    /// [`Trace`] — the implementation behind
    /// [`WorkloadBuilder::generate`](crate::WorkloadBuilder::generate).
    pub fn collect_trace(mut self) -> Trace {
        let remaining = self.shape.total_queries - self.emitted;
        let mut queries = Vec::with_capacity(remaining as usize);
        while let Some(q) = self.next_event() {
            queries.push(q);
        }
        Trace {
            name: self.shape.name,
            days: self.shape.days,
            clients: self.shape.clients,
            queries,
        }
    }
}

impl<S: TargetSource> Iterator for TraceStream<S> {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        self.next_event()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.shape.total_queries - self.emitted) as usize;
        (remaining, Some(remaining))
    }
}

/// Object-safe streaming interface for replay engines (`dns-sim` boxes
/// streams behind this to stay non-generic over the source): a generated
/// [`TraceStream`] or a materialized trace's [`TraceReplay`].
pub trait QueryStream: Send {
    /// The next query event, or `None` when exhausted.
    fn next_event(&mut self) -> Option<QueryEvent>;
    /// An independent copy at the current position: it yields exactly
    /// the events this stream would yield from here on.
    fn fork(&self) -> Box<dyn QueryStream>;
    /// Days of traffic the stream spans (the replay horizon).
    fn days(&self) -> u64;
    /// Total queries the stream emits end to end.
    fn total_queries(&self) -> u64;
    /// The trace label.
    fn trace_name(&self) -> &str;
}

impl<S: TargetSource + Clone + Send + 'static> QueryStream for TraceStream<S> {
    fn next_event(&mut self) -> Option<QueryEvent> {
        TraceStream::next_event(self)
    }
    fn fork(&self) -> Box<dyn QueryStream> {
        Box::new(self.clone())
    }
    fn days(&self) -> u64 {
        TraceStream::days(self)
    }
    fn total_queries(&self) -> u64 {
        TraceStream::total_queries(self)
    }
    fn trace_name(&self) -> &str {
        TraceStream::trace_name(self)
    }
}

/// A materialized [`Trace`] replayed as a [`QueryStream`]: the shared
/// trace plus the index of the next query. Forks share the trace and
/// copy the index.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Arc<Trace>,
    pos: usize,
}

impl TraceReplay {
    /// Replays `trace` from its first query (owned traces and
    /// `Arc<Trace>` both work; the queries are never copied).
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        TraceReplay {
            trace: trace.into(),
            pos: 0,
        }
    }
}

impl QueryStream for TraceReplay {
    fn next_event(&mut self) -> Option<QueryEvent> {
        let q = self.trace.queries.get(self.pos)?.clone();
        self.pos += 1;
        Some(q)
    }
    fn fork(&self) -> Box<dyn QueryStream> {
        Box::new(self.clone())
    }
    fn days(&self) -> u64 {
        self.trace.days
    }
    fn total_queries(&self) -> u64 {
        self.trace.queries.len() as u64
    }
    fn trace_name(&self) -> &str {
        &self.trace.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceSpec, UniverseSpec, WorkloadBuilder};

    fn universe() -> Universe {
        UniverseSpec::small().build(7)
    }

    #[test]
    fn streamed_equals_materialized() {
        let u = universe();
        let wb = WorkloadBuilder::new("T", 2, 20, 5_000);
        let materialized = wb.generate(&u, 42);
        let streamed: Vec<QueryEvent> = wb.stream(UniverseTargets::new(&u), 42).collect();
        assert_eq!(materialized.queries, streamed);
    }

    #[test]
    fn stream_over_interned_namespace_is_identical() {
        let spec = UniverseSpec::small();
        let u = spec.build(7);
        let interned = spec.build_interned(7);
        let wb = WorkloadBuilder::new("T", 1, 10, 3_000);
        let via_universe: Vec<QueryEvent> = wb.stream(UniverseTargets::new(&u), 9).collect();
        let via_interned: Vec<QueryEvent> = wb.stream(&interned, 9).collect();
        assert_eq!(via_universe, via_interned);
    }

    /// Drains `stream`, forking it before every event and continuing
    /// from the fork: the forks together must replay the original
    /// sequence, so each one continues exactly at its cut.
    fn drain_forking_at_every_cut(mut stream: Box<dyn QueryStream>) -> Vec<QueryEvent> {
        let mut out = Vec::new();
        loop {
            stream = stream.fork();
            match stream.next_event() {
                Some(q) => out.push(q),
                None => return out,
            }
        }
    }

    fn drain(mut stream: Box<dyn QueryStream>) -> Vec<QueryEvent> {
        std::iter::from_fn(|| stream.next_event()).collect()
    }

    #[test]
    fn fork_continues_byte_identically() {
        let u = universe();
        let targets = UniverseTargets::new(&u);
        let wb = WorkloadBuilder::new("T", 2, 20, 8_000);
        let full: Vec<QueryEvent> = wb.stream(targets.clone(), 7).collect();
        let sources: [Box<dyn QueryStream>; 2] = [
            Box::new(wb.stream(targets.clone(), 7)),
            Box::new(TraceReplay::new(wb.generate(&u, 7))),
        ];
        for mut original in sources {
            for _ in 0..3_123 {
                original.next_event().expect("events remain");
            }
            // The fork drains first: a fork sharing state with the
            // original would shift what the original yields next.
            let fork = original.fork();
            assert_eq!(drain(fork), full[3_123..]);
            assert_eq!(drain(original), full[3_123..]);
        }

        let small = WorkloadBuilder::new("T", 1, 5, 1_000);
        let full: Vec<QueryEvent> = small.stream(targets.clone(), 3).collect();
        let stream = Box::new(small.stream(targets, 3));
        assert_eq!(drain_forking_at_every_cut(stream), full);
        let replay = Box::new(TraceReplay::new(small.generate(&u, 3)));
        assert_eq!(drain_forking_at_every_cut(replay), full);
    }

    #[test]
    fn stream_matches_tracespec_generate() {
        let u = universe();
        let spec = TraceSpec::demo().scaled(0.1);
        let materialized = spec.generate(&u, 5);
        let streamed = spec
            .workload()
            .stream(UniverseTargets::new(&u), 5)
            .collect_trace();
        assert_eq!(materialized, streamed);
    }
}
