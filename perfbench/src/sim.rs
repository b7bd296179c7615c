//! The `sim_blackout` workload: the paper's Fig. 4–11 setting. TRC4 is
//! streamed over the standard universe through `Simulation` with the
//! combined scheme (refresh + A-LFU(3) + 3-day long TTL) while the root
//! and every TLD are blacked out for 6 h from day 6.

use crate::alloc::thread_allocs;
use crate::cpu::{self, CpuSnapshot};
use crate::report::{median, ratio, LatHist, Report};
use dns_core::{Message, SimDuration, SimTime, Ttl};
use dns_resolver::{
    CachingServer, LocalBackend, RenewalPolicy, ResolverMetrics, RootHints, Upstream,
};
use dns_sim::experiment::Scheme;
use dns_sim::{AttackScenario, CompiledAttack, ServerFarm, SimConfig, SimNet, Simulation};
use dns_trace::{QueryStream, TraceSpec, Universe, UniverseSpec, UniverseTargets};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ATTACK_START_DAYS: u64 = 6;
const ATTACK_HOURS: u64 = 6;
/// Replay time is sampled per this much simulated time.
const SLICE_SECS: u64 = 60;

/// Sizes of one sim run.
pub struct SimPlan {
    pub universe: UniverseSpec,
    pub trace: TraceSpec,
    pub seconds: f64,
    pub setups: usize,
}

fn config() -> SimConfig {
    Scheme::combined(RenewalPolicy::adaptive_lfu(3), Ttl::from_days(3)).sim_config()
}

fn attack_window() -> (SimTime, SimTime) {
    let start = SimTime::from_days(ATTACK_START_DAYS);
    (start, start + SimDuration::from_hours(ATTACK_HOURS))
}

fn attack(universe: &Universe) -> CompiledAttack {
    let (start, _) = attack_window();
    AttackScenario::root_and_tlds(start, SimDuration::from_hours(ATTACK_HOURS)).compile(universe)
}

/// Universe, farm and stream targets, built once per setup.
struct World {
    universe: Universe,
    farm: Arc<ServerFarm>,
    targets: UniverseTargets,
}

/// Builds the world `setups` times (keeping the last); returns it with
/// the median (total, universe, farm) seconds.
fn setup(plan: &SimPlan) -> (World, f64, f64, f64) {
    let (mut total, mut uni, mut farm_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = None;
    for _ in 0..plan.setups.max(1) {
        drop(world.take());
        let t0 = Instant::now();
        let universe = plan.universe.build(dns_bench::UNIVERSE_SEED);
        let t1 = Instant::now();
        let farm = Arc::new(ServerFarm::build(&universe, config().long_ttl));
        let targets = UniverseTargets::new(&universe);
        let t2 = Instant::now();
        uni.push(t1.duration_since(t0).as_secs_f64());
        farm_s.push(t2.duration_since(t1).as_secs_f64());
        total.push(t2.duration_since(t0).as_secs_f64());
        world = Some(World {
            universe,
            farm,
            targets,
        });
    }
    (
        world.expect("at least one setup"),
        median(&total),
        median(&uni),
        median(&farm_s),
    )
}

fn stream(world: &World, plan: &SimPlan, seed: u64) -> Box<dyn QueryStream> {
    Box::new(plan.trace.workload().stream(world.targets.clone(), seed))
}

fn simulation(world: &World, plan: &SimPlan, seed: u64) -> Simulation {
    let mut sim = Simulation::shared_streaming(
        Arc::clone(&world.farm),
        &world.universe,
        stream(world, plan, seed),
        config(),
    );
    sim.set_attack(attack(&world.universe));
    sim
}

/// One untraced replay, timed per simulated minute.
struct Replay {
    wall: Duration,
    metrics: ResolverMetrics,
    processed: usize,
    /// Nanoseconds of replay per query, one sample per non-empty slice.
    slices: LatHist,
    /// The same for slices outside the blackout.
    calm: LatHist,
}

fn replay(world: &World, plan: &SimPlan, seed: u64) -> Replay {
    let mut sim = simulation(world, plan, seed);
    let (a0, a1) = attack_window();
    let horizon = SimTime::from_days(plan.trace.days);
    let mut slices = LatHist::default();
    let mut calm = LatHist::default();
    let t0 = Instant::now();
    let mut at = SimTime::ZERO;
    let mut last = t0;
    let mut done = 0;
    while at < horizon {
        let next = at + SimDuration::from_secs(SLICE_SECS);
        sim.run_until(next);
        let now = Instant::now();
        let n = sim.processed() - done;
        if n > 0 {
            let ns = now.duration_since(last).as_nanos() as u64 / n as u64;
            slices.record(ns);
            if next <= a0 || at >= a1 {
                calm.record(ns);
            }
        }
        done = sim.processed();
        last = now;
        at = next;
    }
    sim.run_to_end();
    Replay {
        wall: t0.elapsed(),
        metrics: sim.metrics(),
        processed: sim.processed(),
        slices,
        calm,
    }
}

/// Checks a replay consumed the whole trace and failed exactly as the
/// first replay of this seed did.
fn check(r: &Replay, total: u64, reference: &ResolverMetrics, report: &mut Report) {
    if r.processed as u64 != total || r.metrics.queries_in != total {
        report.fail_check(format!(
            "replay processed {} queries (queries_in {}), trace has {total}",
            r.processed, r.metrics.queries_in
        ));
    }
    if r.metrics != *reference {
        report.fail_check(format!(
            "replay is not deterministic: failed_in {} vs {}",
            r.metrics.failed_in, reference.failed_in
        ));
    }
}

/// Runs replays in a thread named for CPU attribution until `seconds`
/// have passed (at least one).
fn replays(world: &World, plan: &SimPlan, seed: u64, seconds: f64) -> (Vec<Replay>, u64) {
    let before = CpuSnapshot::take();
    let (runs, after) = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(cpu::REPLAY.into())
            .spawn_scoped(s, || {
                let t0 = Instant::now();
                let mut runs = Vec::new();
                while runs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
                    runs.push(replay(world, plan, seed));
                }
                (runs, CpuSnapshot::take())
            })
            .expect("spawn replay thread")
            .join()
            .expect("replay thread")
    });
    let cpu_ns = after.ns_since(&before, cpu::REPLAY);
    (runs, cpu_ns)
}

/// The untraced run: every end-to-end metric.
pub fn run(plan: &SimPlan, seed: u64, report: &mut Report) {
    let (world, setup_s, _, _) = setup(plan);
    let total = plan.trace.total_queries;
    let (runs, cpu_ns) = replays(&world, plan, seed, plan.seconds);
    let reference = runs[0].metrics;
    for r in &runs {
        check(r, total, &reference, report);
    }
    let n = runs.len();
    let queries = total * n as u64;
    report.attempted += queries;
    let per = |f: &dyn Fn(&Replay) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let qps = per(&|r| r.processed as f64 / r.wall.as_secs_f64());
    let p50 = per(&|r| r.slices.percentile(0.50) / 1e3);
    let p99 = per(&|r| r.slices.percentile(0.99) / 1e3);
    let calm99 = per(&|r| r.calm.percentile(0.99) / 1e3);
    let slices = runs[0].slices.len();
    report.note(format!(
        "{n} replay(s) of {} ({total} queries, seed {seed}) under a root+TLD blackout from day {ATTACK_START_DAYS} for {ATTACK_HOURS} h; medians across replays",
        plan.trace.name
    ));
    report.note(format!(
        "simulated failures: {} of {} (fail_share {:.6}), identical in every replay",
        reference.failed_in,
        reference.queries_in,
        reference.failed_in_ratio()
    ));
    report.note(format!(
        "latencies are replay time per query over {SLICE_SECS}-s trace slices; hit_p99_us uses the slices outside the blackout"
    ));
    report.push_n("qps", qps, "1/s", Some(n as u64));
    report.push_n("p50_us", p50, "us", Some(slices));
    report.push_n("p99_us", p99, "us", Some(slices));
    report.push_n("hit_p99_us", calm99, "us", Some(runs[0].calm.len()));
    report.push_n(
        "cpu_us_per_query",
        ratio(cpu_ns as f64 / 1e3, queries as f64),
        "us",
        Some(queries),
    );
    report.push("peak_rss_kb", dns_sim::peak_rss_kb() as f64, "KiB");
    report.push("setup_s", setup_s, "s");
}

/// [`SimNet`] with every query timed and its allocations counted.
struct TimedNet {
    inner: SimNet,
    ns: u64,
    allocs: u64,
    calls: u64,
}

impl Upstream for TimedNet {
    fn query(&mut self, server: Ipv4Addr, query: &Message, now: SimTime) -> Option<Message> {
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let resp = self.inner.query(server, query, now);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += thread_allocs() - a0;
        self.calls += 1;
        resp
    }
}

/// Time spent per stage of the re-driven replay loop, in nanoseconds.
#[derive(Debug, Default)]
struct SimLedger {
    total: u64,
    trace: u64,
    renewal: u64,
    renewal_net: u64,
    purge: u64,
    resolve: u64,
    resolve_net: u64,
    resolve_allocs: u64,
    resolve_net_allocs: u64,
    queries: u64,
}

/// Re-drives `Simulation::run_until` to the end of the trace with each
/// stage timed: query-stream pull, renewals, purges and `resolve` over a
/// timed `SimNet`. Returns the resolver's metrics and the ledger.
fn mirror(world: &World, plan: &SimPlan, seed: u64) -> (ResolverMetrics, SimLedger, u64) {
    let cfg = config();
    let hints = RootHints::new(world.universe.root_servers().to_vec());
    let mut cs = CachingServer::with_backend(cfg.resolver, hints, LocalBackend::new());
    let mut inner = SimNet::with_shared(Arc::clone(&world.farm));
    inner.set_attack(attack(&world.universe));
    let mut net = TimedNet {
        inner,
        ns: 0,
        allocs: 0,
        calls: 0,
    };
    let mut feed = stream(world, plan, seed);
    let until = SimTime::from_days(feed.days()) + SimDuration::from_secs(1);
    let mut next_purge = SimTime::ZERO + cfg.purge_interval;
    let mut l = SimLedger::default();

    // Fires renewals and purges due at or before `t`, like the driver's
    // background step (occupancy sampling is off in this configuration).
    let mut background =
        |t: SimTime, cs: &mut CachingServer, net: &mut TimedNet, l: &mut SimLedger| loop {
            let due = next_purge <= t;
            let upto = if due { next_purge } else { t };
            let net0 = net.ns;
            let t0 = Instant::now();
            cs.run_renewals_until(upto, net);
            let t1 = Instant::now();
            l.renewal += t1.duration_since(t0).as_nanos() as u64;
            l.renewal_net += net.ns - net0;
            if !due {
                return;
            }
            cs.purge(upto);
            l.purge += t1.elapsed().as_nanos() as u64;
            next_purge = upto + cfg.purge_interval;
        };

    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let event = feed.next_event();
        l.trace += t0.elapsed().as_nanos() as u64;
        let Some(event) = event else { break };
        if event.at >= until {
            break;
        }
        background(event.at, &mut cs, &mut net, &mut l);
        let (net0, nal0) = (net.ns, net.allocs);
        let a0 = thread_allocs();
        let t1 = Instant::now();
        black_box(cs.resolve(&event.question, event.at, &mut net));
        l.resolve += t1.elapsed().as_nanos() as u64;
        l.resolve_allocs += thread_allocs() - a0;
        l.resolve_net += net.ns - net0;
        l.resolve_net_allocs += net.allocs - nal0;
        l.queries += 1;
    }
    background(until, &mut cs, &mut net, &mut l);
    l.total = start.elapsed().as_nanos() as u64;
    (*cs.metrics(), l, net.calls)
}

/// The traced run: an untraced replay for the overhead baseline and the
/// determinism reference, `Simulation::run_to_end` for the equivalence
/// check, the re-driven replay with its stage ledger, and the trace
/// stream iterated alone.
pub fn run_traced(plan: &SimPlan, seed: u64, report: &mut Report) {
    let (world, _, universe_s, farm_s) = setup(plan);
    let total = plan.trace.total_queries;
    let (runs, _) = replays(&world, plan, seed, 0.0);
    let base = &runs[0];
    let untraced_qps = base.processed as f64 / base.wall.as_secs_f64();

    let mut sim = simulation(&world, plan, seed);
    sim.run_to_end();
    let reference = sim.metrics();
    drop(sim);
    check(base, total, &reference, report);

    let t0 = Instant::now();
    let (metrics, l, net_calls) = mirror(&world, plan, seed);
    let traced_wall = t0.elapsed();
    if metrics != reference {
        report.fail_check(format!(
            "re-driven replay diverged from Simulation::run_to_end: {metrics:?} vs {reference:?}"
        ));
    }
    report.attempted += 2 * total + l.queries;
    report.note(format!(
        "re-driven replay matches Simulation::run_to_end: {}",
        metrics == reference
    ));

    let q = l.queries as f64;
    let net = l.renewal_net + l.resolve_net;
    let renewal_self = l.renewal - l.renewal_net;
    let resolve_self = l.resolve - l.resolve_net;
    let driver = l.total as i64 - (l.trace + renewal_self + l.purge + resolve_self + net) as i64;
    let per = |ns: f64| ratio(ns, q);
    report.note(format!(
        "sim ledger per query ({} queries): trace {:.0} + renewal {:.0} + purge {:.0} + resolver {:.0} + simnet {:.0} + driver {:.0} = {:.0} ns = replay wall {:.0} ns",
        l.queries,
        per(l.trace as f64),
        per(renewal_self as f64),
        per(l.purge as f64),
        per(resolve_self as f64),
        per(net as f64),
        per(driver as f64),
        per((l.trace + renewal_self + l.purge + resolve_self + net) as f64 + driver as f64),
        per(l.total as f64)
    ));

    // The stream alone, same seed.
    let mut alone = stream(&world, plan, seed);
    let t0 = Instant::now();
    let mut events = 0u64;
    while let Some(e) = alone.next_event() {
        black_box(e);
        events += 1;
    }
    let alone_ns = t0.elapsed().as_nanos() as f64;

    report.push_n(
        "trace.next_ns",
        ratio(alone_ns, events as f64),
        "ns",
        Some(events),
    );
    report.push_n(
        "simnet.query_ns",
        ratio(net as f64, net_calls as f64),
        "ns",
        Some(net_calls),
    );
    report.push("simnet.ns_per_query", per(net as f64), "ns");
    report.push("renewal.ns_per_query", per(renewal_self as f64), "ns");
    report.push("purge.ns_per_query", per(l.purge as f64), "ns");
    report.push("resolver.self_ns", per(resolve_self as f64), "ns");
    report.push(
        "resolver.allocs_per_query",
        per((l.resolve_allocs - l.resolve_net_allocs) as f64),
        "count",
    );
    report.push("driver.self_ns_per_query", per(driver as f64), "ns");
    report.push(
        "resolver.cache_hit_share",
        ratio(metrics.cache_hits as f64, metrics.queries_in as f64),
        "share",
    );
    report.push(
        "resolver.upstream_per_query",
        ratio(metrics.queries_out as f64, metrics.queries_in as f64),
        "count",
    );
    report.push("setup.universe_s", universe_s, "s");
    report.push("setup.farm_s", farm_s, "s");
    let traced_qps = q / traced_wall.as_secs_f64();
    report.push("trace_overhead", ratio(traced_qps, untraced_qps), "ratio");
    report.note(format!(
        "tracing overhead: traced qps {traced_qps:.0} / untraced qps {untraced_qps:.0}"
    ));
}
