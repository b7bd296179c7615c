//! The parallel experiment engine behind every figure and table.
//!
//! An [`ExperimentSpec`] declares a sweep — the cartesian product of
//! traces and [`Scheme`]s, each run through the paper's attack
//! methodology and/or a full-trace overhead measurement — and
//! [`ExperimentSpec::run`] executes it:
//!
//! * **Shared inputs.** One immutable [`Universe`] reference and one
//!   pre-built [`ServerFarm`] per distinct long-TTL setting are shared by
//!   every run via [`Arc`]; nothing is cloned or rebuilt per run.
//! * **Scoped workers.** Run units execute on `std::thread::scope`
//!   worker threads. `DNS_SIM_THREADS` pins the worker count
//!   (`DNS_SIM_THREADS=1` forces the sequential path); unset, the engine
//!   uses every available core.
//! * **Stable order.** Results are collected into slots indexed by spec
//!   order, so the outcome vectors — and therefore every CSV derived
//!   from them — are identical no matter how many threads ran.
//! * **Run manifest.** Each sweep records per-unit wall clock, queries
//!   replayed, events processed, cache-occupancy peak and worker id; see
//!   [`RunManifest`].
//!
//! ```rust
//! use dns_sim::sweep::ExperimentSpec;
//! use dns_sim::experiment::{paper_durations, Scheme, ATTACK_START_DAY};
//! use dns_core::SimTime;
//! use dns_trace::{TraceSpec, UniverseSpec};
//!
//! let universe = UniverseSpec::small().build(7);
//! let trace = TraceSpec::demo().scaled(0.05).generate(&universe, 7);
//! let outcome = ExperimentSpec::new(&universe)
//!     .trace(trace)
//!     .scheme(Scheme::vanilla())
//!     .attack(SimTime::from_days(ATTACK_START_DAY), &paper_durations())
//!     .run();
//! assert_eq!(outcome.attacks.len(), 4);
//! assert_eq!(outcome.manifest.units.len(), 1);
//! ```

use crate::adversary::AdversarySpec;
use crate::experiment::{AdversarialOutcome, AttackOutcome, OverheadOutcome, Scheme};
use crate::{AttackScenario, ServerFarm, Simulation};
use dns_core::{SimDuration, SimTime, Ttl};
use dns_obs::LogHistogram;
use dns_resolver::{GapSample, ResolverMetrics};
use dns_stats::{manifest_table, ManifestRow, Table};
use dns_trace::{QueryStream, Trace, TraceReplay, TraceSpec, Universe, UniverseTargets};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable pinning the worker-thread count (`1` forces the
/// sequential path; unset means one worker per available core).
pub const THREADS_ENV: &str = "DNS_SIM_THREADS";

/// A declarative sweep over traces × schemes, sharing one universe and
/// one farm per long-TTL setting across all runs.
pub struct ExperimentSpec<'a> {
    universe: &'a Universe,
    sources: Vec<TraceRef>,
    schemes: Vec<Scheme>,
    attack: Option<(SimTime, Vec<SimDuration>)>,
    adversaries: Vec<(AdversarySpec, SimTime, SimDuration)>,
    overhead: Option<SimDuration>,
    gaps: bool,
    farms: HashMap<Option<Ttl>, Arc<ServerFarm>>,
    threads: Option<usize>,
}

impl<'a> ExperimentSpec<'a> {
    /// Starts a spec over `universe` with no traces, schemes or
    /// measurements yet.
    pub fn new(universe: &'a Universe) -> Self {
        ExperimentSpec {
            universe,
            sources: Vec::new(),
            schemes: Vec::new(),
            attack: None,
            adversaries: Vec::new(),
            overhead: None,
            gaps: false,
            farms: HashMap::new(),
            threads: None,
        }
    }

    /// Adds one trace (owned traces and `Arc<Trace>` both work; sweeps
    /// never clone the underlying queries).
    pub fn trace(mut self, trace: impl Into<Arc<Trace>>) -> Self {
        self.sources.push(TraceRef::Mat(trace.into()));
        self
    }

    /// Adds many traces.
    pub fn traces<T: Into<Arc<Trace>>>(mut self, traces: impl IntoIterator<Item = T>) -> Self {
        self.sources
            .extend(traces.into_iter().map(|t| TraceRef::Mat(t.into())));
        self
    }

    /// Adds a streamed trace: units replay it straight from the seeded
    /// generator ([`dns_trace::TraceStream`]) with per-unit streaming
    /// and bounded (one-event) lookahead — the trace is never
    /// materialized, so replay memory is `O(zones)` at any query count.
    /// Outcomes are byte-identical to replaying
    /// `spec.generate(universe, seed)`.
    pub fn stream_trace(mut self, spec: TraceSpec, seed: u64) -> Self {
        self.sources.push(TraceRef::Stream { spec, seed });
        self
    }

    /// Adds one scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds many schemes.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = Scheme>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Enables the paper's §5.1 attack measurement: warm to
    /// `attack_start`, then black out the root + all TLDs once per
    /// duration, measuring failure ratios inside each window. One
    /// warm-up per (trace, scheme) is shared by all durations.
    pub fn attack(mut self, attack_start: SimTime, durations: &[SimDuration]) -> Self {
        self.attack = Some((attack_start, durations.to_vec()));
        self
    }

    /// Adds an adversarial measurement: warm to `start`, then replay the
    /// window `[start, start + duration)` twice from the warmed state —
    /// once with legitimate traffic only (baseline) and once with
    /// `adversary`'s flood merged in — producing one
    /// [`AdversarialOutcome`] per (trace, scheme). Streamed traces stay
    /// streamed: the replay merges the flood in with bounded lookahead
    /// ([`Simulation::set_adversary`]). May be called repeatedly to sweep
    /// several adversaries.
    pub fn adversarial(
        mut self,
        adversary: AdversarySpec,
        start: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.adversaries.push((adversary, start, duration));
        self
    }

    /// Enables the no-attack overhead measurement (Table 2 / Figure 12),
    /// sampling cache occupancy every `sample_every`.
    pub fn overhead(mut self, sample_every: SimDuration) -> Self {
        self.overhead = Some(sample_every);
        self
    }

    /// Enables the Figure-3 gap measurement: a full no-attack replay
    /// collecting the gap between each infrastructure record's expiry
    /// and the next query to its zone.
    pub fn gaps(mut self) -> Self {
        self.gaps = true;
        self
    }

    /// Seeds the farm cache with a pre-built farm for `long_ttl`.
    /// Schemes whose long-TTL setting has no entry get a farm built (and
    /// shared) on demand at [`ExperimentSpec::run`].
    pub fn farm(mut self, long_ttl: Option<Ttl>, farm: Arc<ServerFarm>) -> Self {
        self.farms.insert(long_ttl, farm);
        self
    }

    /// Pins the worker-thread count, overriding `DNS_SIM_THREADS`.
    /// `1` forces the sequential path.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn resolved_threads_hint(&self) -> usize {
        let configured = self.threads.or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        });
        configured
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }

    /// Executes the sweep and collects outcomes in stable spec order
    /// (trace-major, then scheme, then attack duration), independent of
    /// the worker count.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no traces, no schemes, or neither an
    /// attack nor an overhead measurement — an empty sweep is a bug in
    /// the caller, not a valid experiment.
    pub fn run(self) -> SweepOutcome {
        assert!(
            !self.sources.is_empty(),
            "ExperimentSpec needs at least one trace"
        );
        assert!(
            !self.schemes.is_empty(),
            "ExperimentSpec needs at least one scheme"
        );
        assert!(
            self.attack.is_some()
                || self.overhead.is_some()
                || self.gaps
                || !self.adversaries.is_empty(),
            "ExperimentSpec needs .attack(..), .adversarial(..), .overhead(..) and/or .gaps()"
        );

        let threads_hint = self.resolved_threads_hint();

        // Build (or adopt) one farm per distinct long-TTL setting.
        let mut farms = self.farms;
        for scheme in &self.schemes {
            farms
                .entry(scheme.long_ttl)
                .or_insert_with(|| Arc::new(ServerFarm::build(self.universe, scheme.long_ttl)));
        }

        // Unit list in spec order (traces in the order added); each unit
        // is one (trace, scheme, kind) cell and owns only Arcs + Copy
        // data, so units move into worker threads freely.
        let mut units: Vec<Unit> = Vec::new();
        for source in &self.sources {
            for scheme in &self.schemes {
                let farm = Arc::clone(&farms[&scheme.long_ttl]);
                if let Some((start, durations)) = &self.attack {
                    units.push(Unit {
                        source: source.clone(),
                        scheme: *scheme,
                        farm: Arc::clone(&farm),
                        kind: UnitKind::Attack {
                            start: *start,
                            durations: durations.clone(),
                        },
                    });
                }
                for (adversary, start, duration) in &self.adversaries {
                    units.push(Unit {
                        source: source.clone(),
                        scheme: *scheme,
                        farm: Arc::clone(&farm),
                        kind: UnitKind::Adversarial {
                            adversary: *adversary,
                            start: *start,
                            duration: *duration,
                        },
                    });
                }
                if let Some(sample_every) = self.overhead {
                    units.push(Unit {
                        source: source.clone(),
                        scheme: *scheme,
                        farm: Arc::clone(&farm),
                        kind: UnitKind::Overhead { sample_every },
                    });
                }
                if self.gaps {
                    units.push(Unit {
                        source: source.clone(),
                        scheme: *scheme,
                        farm,
                        kind: UnitKind::Gaps,
                    });
                }
            }
        }

        let threads = threads_hint.min(units.len().max(1));
        let universe = self.universe;
        let started = Instant::now();

        let mut results: Vec<Option<UnitResult>> = if threads == 1 {
            units
                .iter()
                .map(|u| Some(run_unit(u, universe, 0)))
                .collect()
        } else {
            // Work-stealing by atomic index: workers pull the next unit
            // and write its result into the slot matching its spec
            // position, so assembly below never depends on timing.
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<UnitResult>>> =
                units.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for worker in 0..threads {
                    let next = &next;
                    let slots = &slots;
                    let units = &units;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(i) else { break };
                        let result = run_unit(unit, universe, worker);
                        *slots[i].lock().unwrap() = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().unwrap())
                .collect()
        };

        let total_wall = started.elapsed();
        let mut attacks = Vec::new();
        let mut adversarial = Vec::new();
        let mut overheads = Vec::new();
        let mut gaps = Vec::new();
        let mut records = Vec::with_capacity(results.len());
        for (unit, result) in results.iter_mut().enumerate() {
            let mut result = result.take().expect("every unit slot is filled");
            result.record.unit = unit;
            attacks.append(&mut result.attacks);
            adversarial.extend(result.adversarial.take());
            overheads.extend(result.overhead.take());
            gaps.extend(result.gaps.take());
            records.push(result.record);
        }
        SweepOutcome {
            attacks,
            adversarial,
            overheads,
            gaps,
            manifest: RunManifest {
                threads,
                total_wall,
                units: records,
            },
        }
    }
}

/// Everything a sweep produces: outcome vectors in stable spec order
/// plus the run manifest.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One entry per (trace, scheme, duration), trace-major — empty
    /// unless [`ExperimentSpec::attack`] was set.
    pub attacks: Vec<AttackOutcome>,
    /// One entry per (trace, scheme, adversary), trace-major — empty
    /// unless [`ExperimentSpec::adversarial`] was called.
    pub adversarial: Vec<AdversarialOutcome>,
    /// One entry per (trace, scheme), trace-major — empty unless
    /// [`ExperimentSpec::overhead`] was set.
    pub overheads: Vec<OverheadOutcome>,
    /// One entry per (trace, scheme), trace-major — empty unless
    /// [`ExperimentSpec::gaps`] was set.
    pub gaps: Vec<GapOutcome>,
    /// Per-unit accounting for this sweep.
    pub manifest: RunManifest,
}

/// Gap samples from one full no-attack replay (Figure 3 input).
#[derive(Debug, Clone)]
pub struct GapOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Trace label.
    pub trace: String,
    /// Expiry-to-next-query gap samples collected over the replay.
    pub samples: Vec<GapSample>,
}

/// Accounting for one executed sweep.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub total_wall: Duration,
    /// Per-unit records in spec order.
    pub units: Vec<UnitRecord>,
}

impl RunManifest {
    /// Sum of per-unit wall clocks — the sequential cost estimate.
    pub fn unit_wall_sum(&self) -> Duration {
        self.units.iter().map(|u| u.wall).sum()
    }

    /// Estimated speedup over a sequential run of the same sweep
    /// (sum of unit wall clocks ÷ total wall clock).
    pub fn speedup_estimate(&self) -> f64 {
        let total = self.total_wall.as_secs_f64();
        if total == 0.0 {
            return 1.0;
        }
        self.unit_wall_sum().as_secs_f64() / total
    }

    /// The manifest rows in `dns-stats` form.
    pub fn rows(&self) -> Vec<ManifestRow> {
        self.units
            .iter()
            .map(|u| ManifestRow {
                unit: u.unit,
                kind: u.kind.to_string(),
                trace: u.trace.clone(),
                scheme: u.scheme.clone(),
                runs: u.runs,
                wall_ms: u.wall.as_millis() as u64,
                queries: u.queries,
                events: u.events,
                peak_records: u.peak_records,
                peak_rss_kb: u.peak_rss_kb,
                worker: u.worker,
                lat_p50_ms: u.latency.p50(),
                lat_p90_ms: u.latency.p90(),
                lat_p99_ms: u.latency.p99(),
                counters: u.counters.fields().map(|f| (f.field, f.value)).collect(),
            })
            .collect()
    }

    /// The manifest as a printable table (also the `run_manifest.csv`
    /// content via [`Table::to_csv`]).
    pub fn table(&self) -> Table {
        manifest_table(&self.rows())
    }

    /// One-line summary: thread count, wall clock and estimated speedup.
    pub fn summary(&self) -> String {
        format!(
            "{} units on {} thread(s): {:.1}s wall, {:.1}s unit total, est. speedup {:.2}x",
            self.units.len(),
            self.threads,
            self.total_wall.as_secs_f64(),
            self.unit_wall_sum().as_secs_f64(),
            self.speedup_estimate()
        )
    }
}

impl fmt::Display for RunManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table().render())?;
        f.write_str(&self.summary())
    }
}

/// Per-unit accounting: what ran, where, and how much work it was.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// Position in spec order.
    pub unit: usize,
    /// Unit kind: `attack`, `adversarial`, `overhead` or `gaps`.
    pub kind: &'static str,
    /// Trace label.
    pub trace: String,
    /// Scheme label.
    pub scheme: String,
    /// Simulation runs inside the unit (one per attack duration; 1 for
    /// overhead units).
    pub runs: usize,
    /// Wall-clock time spent on the unit.
    pub wall: Duration,
    /// Trace queries replayed (warm-up counted once).
    pub queries: u64,
    /// Resolver events processed: queries in + out, refreshes and
    /// renewals.
    pub events: u64,
    /// Peak cached-record count observed across the unit's runs.
    pub peak_records: u64,
    /// Process peak resident set (KiB, `VmHWM`) when the unit finished —
    /// a process-global high-water mark, recorded per unit so scale
    /// sweeps can assert replay never materialized the trace (see
    /// [`crate::peak_rss_kb`]).
    pub peak_rss_kb: u64,
    /// Worker thread that executed the unit.
    pub worker: usize,
    /// Modelled resolution-latency distribution over the unit's
    /// measured windows (virtual ms; attack units merge their
    /// per-duration windows, full-trace units cover the whole replay).
    pub latency: LogHistogram,
    /// Distribution of total cached-record counts over the unit's
    /// occupancy samples.
    pub occupancy: LogHistogram,
    /// Resolver counters summed over the unit's measured windows: every
    /// attack window, the baseline and attacked windows of an
    /// adversarial unit, the whole replay of overhead and gap units.
    pub counters: ResolverMetrics,
}

enum UnitKind {
    Attack {
        start: SimTime,
        durations: Vec<SimDuration>,
    },
    Adversarial {
        adversary: AdversarySpec,
        start: SimTime,
        duration: SimDuration,
    },
    Overhead {
        sample_every: SimDuration,
    },
    Gaps,
}

impl UnitKind {
    fn label(&self) -> &'static str {
        match self {
            UnitKind::Attack { .. } => "attack",
            UnitKind::Adversarial { .. } => "adversarial",
            UnitKind::Overhead { .. } => "overhead",
            UnitKind::Gaps => "gaps",
        }
    }
}

/// One trace as the unit executor sees it: materialized and shared, or
/// a seeded preset generated on demand and never materialized (see
/// [`ExperimentSpec::stream_trace`]).
#[derive(Clone)]
enum TraceRef {
    Mat(Arc<Trace>),
    Stream { spec: TraceSpec, seed: u64 },
}

impl TraceRef {
    fn name(&self) -> &str {
        match self {
            TraceRef::Mat(trace) => &trace.name,
            TraceRef::Stream { spec, .. } => spec.name,
        }
    }

    /// A replay of the trace from its first query. A generated stream
    /// draws names from a target table built here; forks share it and
    /// copy only the stream's own state (its popularity tables and the
    /// current hour's arrival offsets).
    fn open(&self, universe: &Universe) -> Box<dyn QueryStream> {
        match self {
            TraceRef::Mat(trace) => Box::new(TraceReplay::new(Arc::clone(trace))),
            TraceRef::Stream { spec, seed } => {
                let targets = UniverseTargets::new(universe);
                Box::new(spec.workload().stream(targets, *seed))
            }
        }
    }
}

struct Unit {
    source: TraceRef,
    scheme: Scheme,
    farm: Arc<ServerFarm>,
    kind: UnitKind,
}

struct UnitResult {
    attacks: Vec<AttackOutcome>,
    adversarial: Option<AdversarialOutcome>,
    overhead: Option<OverheadOutcome>,
    gaps: Option<GapOutcome>,
    record: UnitRecord,
}

/// Counts every event class the resolver processed.
fn event_count(m: &ResolverMetrics) -> u64 {
    m.queries_in + m.queries_out + m.refreshes + m.renewals_sent
}

fn run_unit(unit: &Unit, universe: &Universe, worker: usize) -> UnitResult {
    let started = Instant::now();
    let make_sim = |config| {
        let stream = unit.source.open(universe);
        Simulation::shared_streaming(Arc::clone(&unit.farm), universe, stream, config)
    };
    let mut attacks = Vec::new();
    let mut adversarial = None;
    let mut overhead = None;
    let mut gaps = None;
    let mut latency = LogHistogram::new();
    let mut occupancy_hist = LogHistogram::new();
    let mut counters = ResolverMetrics::default();
    let (runs, queries, events, peak_records) = match &unit.kind {
        UnitKind::Attack { start, durations } => {
            let mut warm = make_sim(unit.scheme.sim_config());
            warm.run_until(*start);
            let warm_processed = warm.processed() as u64;
            let warm_latency = warm.cs().latency_histogram().clone();
            let mut queries = warm_processed;
            let mut events = event_count(&warm.metrics());
            let warm_records = warm.cs_mut().occupancy(*start).total_records() as u64;
            occupancy_hist.record(warm_records);
            let mut peak = warm_records;
            for &duration in durations {
                let mut sim = warm.fork();
                sim.set_attack(AttackScenario::root_and_tlds(*start, duration).compile(universe));
                let before = sim.metrics();
                let end = *start + duration;
                sim.run_until(end);
                let window = sim.metrics() - before;
                counters = counters + window;
                // Latency samples accumulated inside this window: the
                // forked histogram minus the shared warm-up prefix.
                let window_latency = sim.cs().latency_histogram().diff(&warm_latency);
                latency.merge(&window_latency);
                queries += sim.processed() as u64 - warm_processed;
                events += event_count(&window);
                let end_records = sim.cs_mut().occupancy(end).total_records() as u64;
                occupancy_hist.record(end_records);
                peak = peak.max(end_records);
                attacks.push(AttackOutcome {
                    scheme: unit.scheme.label(),
                    trace: unit.source.name().to_string(),
                    duration,
                    sr_failed_pct: window.failed_in_ratio() * 100.0,
                    cs_failed_pct: window.failed_out_ratio() * 100.0,
                    window,
                    latency: window_latency,
                });
            }
            (durations.len(), queries, events, peak)
        }
        UnitKind::Adversarial {
            adversary,
            start,
            duration,
        } => {
            let compiled = adversary.compile(universe);
            let mut warm = make_sim(unit.scheme.sim_config());
            warm.run_until(*start);
            let warm_processed = warm.processed() as u64;
            let warm_metrics = warm.metrics();
            let warm_latency = warm.cs().latency_histogram().clone();
            let warm_records = warm.cs_mut().occupancy(*start).total_records() as u64;
            occupancy_hist.record(warm_records);
            let mut peak = warm_records;
            let end = *start + *duration;

            // Baseline fork: the window with legitimate traffic only.
            let mut baseline = warm.fork();
            baseline.run_until(end);
            let base_window = baseline.metrics() - warm_metrics;

            // Attacked fork: the same window with the flood merged in.
            let mut attacked = warm.fork();
            attacked.set_adversary(&compiled, *start, end);
            attacked.run_until(end);
            let atk_window = attacked.metrics() - warm_metrics;
            let adv = attacked.adversary_stats();
            counters = counters + base_window + atk_window;
            let window_latency = attacked.cs().latency_histogram().diff(&warm_latency);
            latency.merge(&window_latency);
            let end_records = attacked.cs_mut().occupancy(end).total_records() as u64;
            occupancy_hist.record(end_records);
            peak = peak.max(end_records);

            let legit_pct = |m: &ResolverMetrics, sent: u64, failed: u64| {
                let total = m.queries_in.saturating_sub(sent);
                if total == 0 {
                    0.0
                } else {
                    m.failed_in.saturating_sub(failed) as f64 / total as f64 * 100.0
                }
            };
            adversarial = Some(AdversarialOutcome {
                scheme: unit.scheme.label(),
                trace: unit.source.name().to_string(),
                adversary: compiled.spec().label(),
                duration: *duration,
                attack_queries: adv.sent,
                base_upstream: base_window.queries_out,
                base_legit_failed_pct: legit_pct(&base_window, 0, 0),
                legit_failed_pct: legit_pct(&atk_window, adv.sent, adv.failed),
                window: atk_window,
            });
            // Trace queries only: the attacked window's `queries_in` also
            // counts the flood.
            let queries =
                warm_processed + base_window.queries_in + atk_window.queries_in - adv.sent;
            let events =
                event_count(&warm_metrics) + event_count(&base_window) + event_count(&atk_window);
            (2, queries, events, peak)
        }
        UnitKind::Overhead { sample_every } => {
            let mut sim = make_sim(unit.scheme.sim_config().occupancy_every(*sample_every));
            sim.run_to_end();
            let metrics = sim.metrics();
            counters = counters + metrics;
            let peak = sim
                .occupancy()
                .iter()
                .map(|o| o.total_records() as u64)
                .max()
                .unwrap_or(0);
            for o in sim.occupancy() {
                occupancy_hist.record(o.total_records() as u64);
            }
            latency.merge(sim.cs().latency_histogram());
            let queries = sim.processed() as u64;
            overhead = Some(OverheadOutcome {
                scheme: unit.scheme.label(),
                trace: unit.source.name().to_string(),
                metrics,
                occupancy: sim.occupancy().to_vec(),
                latency: latency.clone(),
            });
            (1, queries, event_count(&metrics), peak)
        }
        UnitKind::Gaps => {
            let mut sim = make_sim(unit.scheme.sim_config());
            sim.run_to_end();
            let metrics = sim.metrics();
            counters = counters + metrics;
            let now = sim.now();
            let peak = sim.cs_mut().occupancy(now).total_records() as u64;
            occupancy_hist.record(peak);
            latency.merge(sim.cs().latency_histogram());
            let queries = sim.processed() as u64;
            gaps = Some(GapOutcome {
                scheme: unit.scheme.label(),
                trace: unit.source.name().to_string(),
                samples: sim.take_gap_samples(),
            });
            (1, queries, event_count(&metrics), peak)
        }
    };
    UnitResult {
        attacks,
        adversarial,
        overhead,
        gaps,
        record: UnitRecord {
            unit: 0, // patched to spec order during assembly
            kind: unit.kind.label(),
            trace: unit.source.name().to_string(),
            scheme: unit.scheme.label(),
            runs,
            wall: started.elapsed(),
            queries,
            events,
            peak_records,
            peak_rss_kb: crate::rss::peak_rss_kb(),
            worker,
            latency,
            occupancy: occupancy_hist,
            counters,
        },
    }
}

// The engine moves simulations across scoped threads; keep that a
// compile-time guarantee instead of an accident of field types.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Simulation>();
    assert_send_sync::<ServerFarm>();
    assert_send_sync::<Trace>();
    assert_send_sync::<Universe>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{paper_durations, Scheme, ATTACK_START_DAY};
    use dns_resolver::RenewalPolicy;
    use dns_trace::{TraceSpec, UniverseSpec};

    fn setup() -> (Universe, Trace) {
        let u = UniverseSpec::small().build(7);
        let t = TraceSpec::demo().scaled(0.1).generate(&u, 5);
        (u, t)
    }

    fn spec<'a>(u: &'a Universe, t: &Trace) -> ExperimentSpec<'a> {
        ExperimentSpec::new(u)
            .trace(t.clone())
            .schemes([
                Scheme::vanilla(),
                Scheme::refresh(),
                Scheme::renewal(RenewalPolicy::lru(3)),
            ])
            .attack(SimTime::from_days(ATTACK_START_DAY), &paper_durations())
            .overhead(SimDuration::from_hours(12))
    }

    #[test]
    fn outcomes_arrive_in_spec_order() {
        let (u, t) = setup();
        let out = spec(&u, &t).threads(1).run();
        assert_eq!(out.attacks.len(), 3 * 4);
        assert_eq!(out.overheads.len(), 3);
        let labels: Vec<&str> = out.attacks.iter().map(|a| a.scheme.as_str()).collect();
        assert_eq!(labels[0], "vanilla");
        assert_eq!(labels[4], "refresh");
        assert_eq!(labels[8], "refresh+LRU_3");
        let durations: Vec<u64> = out.attacks[..4]
            .iter()
            .map(|a| a.duration.as_secs() / 3600)
            .collect();
        assert_eq!(durations, [3, 6, 12, 24]);
    }

    #[test]
    fn manifest_counts_the_work() {
        let (u, t) = setup();
        let out = spec(&u, &t).threads(2).run();
        let m = &out.manifest;
        assert_eq!(m.threads, 2);
        assert_eq!(m.units.len(), 6);
        // Spec order: per scheme, attack unit then overhead unit.
        assert_eq!(m.units[0].kind, "attack");
        assert_eq!(m.units[1].kind, "overhead");
        assert_eq!(m.units[0].runs, 4);
        assert_eq!(m.units[1].runs, 1);
        for unit in &m.units {
            assert!(unit.queries > 0);
            assert!(unit.events >= unit.queries);
            assert!(unit.peak_records > 0);
            assert!(unit.worker < 2);
        }
        // The table/CSV carries one row per unit.
        assert_eq!(m.table().len(), 6);
        assert!(m.summary().contains("6 units"));
    }

    #[test]
    fn manifest_counters_match_sequential_metrics() {
        let (u, t) = setup();
        let sample = SimDuration::from_hours(12);
        let out = ExperimentSpec::new(&u)
            .trace(t.clone())
            .scheme(Scheme::vanilla())
            .overhead(sample)
            .threads(1)
            .run();
        let mut sim = Simulation::new(
            &u,
            t,
            Scheme::vanilla().sim_config().occupancy_every(sample),
        );
        sim.run_to_end();
        let m = sim.metrics();
        let unit = &out.manifest.units[0];
        assert_eq!(unit.queries, sim.processed() as u64);
        assert_eq!(
            unit.events,
            m.queries_in + m.queries_out + m.refreshes + m.renewals_sent
        );
        assert_eq!(unit.counters, m);
        // Every resolver counter is a manifest column, under its field
        // name, carrying the unit's value.
        let table = out.manifest.table();
        let row = &table.rows()[0];
        for f in m.fields() {
            let col = table
                .headers()
                .iter()
                .position(|h| h == f.field)
                .unwrap_or_else(|| panic!("manifest lacks a {} column", f.field));
            assert_eq!(row[col], f.value.to_string(), "{}", f.field);
        }
    }

    #[test]
    fn manifest_queries_count_trace_queries_only() {
        let (u, t) = setup();
        let (start, window) = (SimTime::from_days(2), SimDuration::from_mins(10));
        let flood = AdversarySpec::water_torture(4, 2, 9);
        let spec = ExperimentSpec::new(&u)
            .trace(t.clone())
            .scheme(Scheme::vanilla());
        let out = spec.adversarial(flood, start, window).run();
        assert_eq!(out.adversarial[0].attack_queries, 1_200);
        // The warm-up once, then the window's trace queries in each of the
        // baseline and the attacked fork; never the flood.
        let before = |at| t.queries.iter().filter(|q| q.at < at).count() as u64;
        let queries = out.manifest.units[0].queries;
        assert_eq!(queries, 2 * before(start + window) - before(start));
        assert_eq!(queries, 594);
    }

    #[test]
    fn streamed_sweep_matches_materialized_sweep() {
        let u = UniverseSpec::small().build(7);
        let preset = TraceSpec::demo().scaled(0.1);
        let build = |spec: ExperimentSpec<'_>| {
            spec.schemes([Scheme::vanilla(), Scheme::refresh()])
                .attack(SimTime::from_days(ATTACK_START_DAY), &paper_durations())
                .overhead(SimDuration::from_hours(12))
                .threads(2)
                .run()
        };
        let mat = build(ExperimentSpec::new(&u).trace(preset.generate(&u, 5)));
        let streamed = build(ExperimentSpec::new(&u).stream_trace(preset, 5));

        assert_eq!(mat.attacks.len(), streamed.attacks.len());
        for (a, b) in mat.attacks.iter().zip(&streamed.attacks) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.window, b.window);
        }
        assert_eq!(mat.overheads.len(), streamed.overheads.len());
        for (a, b) in mat.overheads.iter().zip(&streamed.overheads) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.occupancy, b.occupancy);
        }
        for (a, b) in mat.manifest.units.iter().zip(&streamed.manifest.units) {
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.events, b.events);
            assert_eq!(a.peak_records, b.peak_records);
            assert!(b.peak_rss_kb > 0, "RSS recorded per unit");
        }
    }

    #[test]
    fn empty_specs_panic() {
        let (u, t) = setup();
        let r = std::panic::catch_unwind(|| {
            let _ = ExperimentSpec::new(&u).trace(t.clone()).run();
        });
        assert!(r.is_err(), "spec without schemes/measurements must panic");
    }
}
