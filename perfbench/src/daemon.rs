//! The daemon workloads: a loopback authoritative internet (root, the
//! `test` TLD and the `bench.test` leaf), a one-worker `Resolved` in
//! front of it, and one closed-loop client thread holding `K` queries
//! outstanding on one UDP socket.

use crate::alloc::thread_allocs;
use crate::cpu::{self, CpuSnapshot};
use crate::gen::{self, check_reply, datagram_id, Expect, Mismatch, QueryGen};
use crate::report::{median, ratio, LatHist, Report};
use dns_auth::AuthServer;
use dns_core::ZoneBuilder;
use dns_core::{
    wire, Delegation, Message, Name, Question, RData, Record, RecordType, SimTime, Ttl,
};
use dns_netd::{
    fast_query, lowercase_key, Authd, PacketBatch, PacketIo, Resolved, UdpPacketIo, UdpUpstream,
    WireCache,
};
use dns_resolver::{CachingServer, ResolverConfig, ResolverMetrics, RootHints, Upstream};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Queries each client keeps outstanding (one stub resolver each).
pub const K: usize = 32;
/// A query unanswered for this long counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);
/// The daemon's per-exchange upstream timeout.
const UPSTREAM_TIMEOUT: Duration = Duration::from_millis(500);
/// Length of one measurement window; per-window figures are reduced by
/// their median.
const WINDOW: Duration = Duration::from_millis(500);
/// Closed-loop time after warm-up and before measuring.
const SETTLE: Duration = Duration::from_millis(300);
/// Spans kept per wrapper; aggregates past the cap are still exact.
const SPAN_CAP: usize = 1_000_000;

const IP_ROOT: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
const IP_TLD: Ipv4Addr = Ipv4Addr::new(10, 99, 1, 1);
const IP_LEAF: Ipv4Addr = Ipv4Addr::new(10, 99, 2, 1);

fn name(s: &str) -> Name {
    s.parse().expect("static names are valid")
}

/// The leaf zone's server: the hot names, one A record each.
pub fn leaf_server() -> AuthServer {
    let mut zone = ZoneBuilder::new(name(gen::LEAF_ZONE)).ns(
        name("ns1.bench.test"),
        IP_LEAF,
        Ttl::from_days(1),
    );
    for i in 0..gen::HOT_NAMES {
        zone = zone.a(
            name(&format!("{}.{}", gen::hot_label(i), gen::LEAF_ZONE)),
            gen::hot_addr(i).into(),
            Ttl::from_hours(1),
        );
    }
    let mut server = AuthServer::new(name("ns1.bench.test"), IP_LEAF);
    server.add_zone(zone.build().expect("leaf zone"));
    server
}

fn referral(
    parent: Name,
    apex: &str,
    ns: &str,
    ip: Ipv4Addr,
    self_ns: (&str, Ipv4Addr),
) -> ZoneBuilder {
    ZoneBuilder::new(parent)
        .ns(name(self_ns.0), self_ns.1, Ttl::from_days(2))
        .delegate(Delegation::unsigned(
            name(apex),
            vec![name(ns)],
            Ttl::from_days(1),
            vec![Record::new(name(ns), Ttl::from_days(1), RData::A(ip))],
        ))
}

/// The loopback authoritative internet.
pub struct Internet {
    daemons: Vec<Authd>,
    routes: HashMap<Ipv4Addr, SocketAddr>,
    pub hints: RootHints,
}

impl Internet {
    pub fn boot() -> io::Result<Internet> {
        let root = referral(
            Name::root(),
            "test",
            "ns.test",
            IP_TLD,
            ("a.root-servers.net", IP_ROOT),
        )
        .build()
        .expect("root zone");
        let tld = referral(
            name("test"),
            gen::LEAF_ZONE,
            "ns1.bench.test",
            IP_LEAF,
            ("ns.test", IP_TLD),
        )
        .build()
        .expect("tld zone");
        let mut servers = vec![leaf_server()];
        for (zone, ns, ip) in [
            (root, "a.root-servers.net", IP_ROOT),
            (tld, "ns.test", IP_TLD),
        ] {
            let mut s = AuthServer::new(name(ns), ip);
            s.add_zone(zone);
            servers.push(s);
        }
        let mut daemons = Vec::new();
        let mut routes = HashMap::new();
        for s in servers {
            let ip = s.addr();
            let d = Authd::spawn(s, "127.0.0.1:0")?;
            routes.insert(ip, d.addr());
            daemons.push(d);
        }
        Ok(Internet {
            daemons,
            routes,
            hints: RootHints::new(vec![(name("a.root-servers.net"), IP_ROOT)]),
        })
    }

    pub fn upstream(&self) -> io::Result<UdpUpstream> {
        let routes = self.routes.clone();
        UdpUpstream::with_route(UPSTREAM_TIMEOUT, move |ip| {
            routes
                .get(&ip)
                .copied()
                .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 9)))
        })
    }

    pub fn stop(self) {
        for d in self.daemons {
            d.stop();
        }
    }
}

// ---------------------------------------------------------------------
// Spans recorded by the timing wrappers
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Blocked in `recv_batch` waiting for the first datagram.
    RecvWait,
    /// `recv_batch` moving datagrams once one is ready.
    Recv,
    /// From `recv_batch` returning to the next `send_batch`/`recv_batch`.
    Serve,
    Send,
    /// From `send_batch` returning to the next `recv_batch` call.
    Loop,
    /// One `UdpUpstream` exchange (nested inside `Serve`).
    Upstream,
}

/// One timed interval. `batch` ties a span to the receive batch it
/// served; `req` is the upstream query ID for `Upstream` spans and the
/// packet count otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub batch: u64,
    pub req: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub ok: bool,
}

/// Exact per-stage sums over the recorded window, kept beside the spans
/// so the ledger does not depend on the span cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotal {
    pub ns: u64,
    pub spans: u64,
    /// Sum of `req` (packets, for I/O stages).
    pub pkts: u64,
    /// Spans with `req > 0` (non-empty batches, for `Recv`).
    pub nonempty: u64,
    pub failures: u64,
}

const STAGES: usize = 6;

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals([StageTotal; STAGES]);

impl Totals {
    pub fn get(&self, stage: Stage) -> StageTotal {
        self.0[stage as usize]
    }

    fn merge(&mut self, other: &Totals) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.ns += b.ns;
            a.spans += b.spans;
            a.pkts += b.pkts;
            a.nonempty += b.nonempty;
            a.failures += b.failures;
        }
    }
}

/// A wrapper's spans and totals, recorded only while the sink's
/// `recording` flag is up and handed to the sink when the worker drops
/// the wrapper.
struct SpanLog {
    base: Instant,
    recording: Arc<AtomicBool>,
    spans: Vec<Span>,
    totals: Totals,
    sink: Arc<Mutex<(Vec<Span>, Totals)>>,
    dropped: Arc<AtomicU64>,
}

impl SpanLog {
    fn push(&mut self, stage: Stage, batch: u64, req: u32, from: Instant, to: Instant, ok: bool) {
        if !self.recording.load(Ordering::Relaxed) {
            return;
        }
        let dur_ns = to.duration_since(from).as_nanos() as u64;
        let t = &mut self.totals.0[stage as usize];
        t.ns += dur_ns;
        t.spans += 1;
        t.pkts += u64::from(req);
        t.nonempty += u64::from(req > 0);
        t.failures += u64::from(!ok);
        if self.spans.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.spans.push(Span {
            stage,
            batch,
            req,
            start_ns: from.duration_since(self.base).as_nanos() as u64,
            dur_ns,
            ok,
        });
    }
}

impl Drop for SpanLog {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.0.append(&mut self.spans);
            sink.1.merge(&self.totals);
        }
    }
}

/// Where the traced daemon's spans end up once it stops.
#[derive(Clone)]
pub struct SpanSink {
    base: Instant,
    recording: Arc<AtomicBool>,
    sink: Arc<Mutex<(Vec<Span>, Totals)>>,
    dropped: Arc<AtomicU64>,
    batch: Arc<AtomicU64>,
}

impl SpanSink {
    fn new(recording: bool) -> SpanSink {
        SpanSink {
            base: Instant::now(),
            recording: Arc::new(AtomicBool::new(recording)),
            sink: Arc::default(),
            dropped: Arc::default(),
            batch: Arc::default(),
        }
    }

    fn log(&self) -> SpanLog {
        SpanLog {
            base: self.base,
            recording: Arc::clone(&self.recording),
            spans: Vec::with_capacity(1 << 16),
            totals: Totals::default(),
            sink: Arc::clone(&self.sink),
            dropped: Arc::clone(&self.dropped),
        }
    }

    fn take(&self) -> (Vec<Span>, Totals) {
        let (mut spans, totals) =
            std::mem::take(&mut *self.sink.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| s.start_ns);
        (spans, totals)
    }
}

/// [`UdpPacketIo`] with every call timed. A peek on a clone of the
/// socket separates waiting for traffic from moving it.
struct TimedIo {
    inner: UdpPacketIo,
    peek: UdpSocket,
    log: SpanLog,
    batch: Arc<AtomicU64>,
    serve_from: Option<Instant>,
    loop_from: Option<Instant>,
}

impl PacketIo for TimedIo {
    fn recv_batch(&mut self, batch: &mut PacketBatch) -> io::Result<usize> {
        let t0 = Instant::now();
        let id = self.batch.load(Ordering::Relaxed);
        if let Some(from) = self.serve_from.take() {
            self.log.push(Stage::Serve, id, 0, from, t0, true);
        }
        if let Some(from) = self.loop_from.take() {
            self.log.push(Stage::Loop, id, 0, from, t0, true);
        }
        let mut probe = [0u8; 1];
        match self.peek.peek_from(&mut probe) {
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                batch.clear();
                self.log
                    .push(Stage::RecvWait, id, 0, t0, Instant::now(), false);
                return Ok(0);
            }
            Err(e) => return Err(e),
        }
        let t1 = Instant::now();
        let n = self.inner.recv_batch(batch)?;
        let t2 = Instant::now();
        let id = if n > 0 {
            self.batch.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            id
        };
        self.log.push(Stage::RecvWait, id, 0, t0, t1, true);
        self.log.push(Stage::Recv, id, n as u32, t1, t2, true);
        if n > 0 {
            self.serve_from = Some(t2);
        } else {
            self.loop_from = Some(t2);
        }
        Ok(n)
    }

    fn send_batch(&mut self, batch: &PacketBatch) -> io::Result<usize> {
        let t0 = Instant::now();
        let id = self.batch.load(Ordering::Relaxed);
        if let Some(from) = self.serve_from.take() {
            self.log.push(Stage::Serve, id, 0, from, t0, true);
        }
        let sent = self.inner.send_batch(batch)?;
        let t1 = Instant::now();
        self.log
            .push(Stage::Send, id, sent as u32, t0, t1, sent == batch.len());
        self.loop_from = Some(t1);
        Ok(sent)
    }
}

/// An [`Upstream`] with every exchange timed; also counts the calling
/// thread's allocations inside the exchange.
pub struct TimedUpstream<U> {
    inner: U,
    log: SpanLog,
    batch: Arc<AtomicU64>,
    pub ns: u64,
    pub allocs: u64,
    pub calls: u64,
}

impl<U: Upstream> Upstream for TimedUpstream<U> {
    fn query(&mut self, server: Ipv4Addr, query: &Message, now: SimTime) -> Option<Message> {
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let resp = self.inner.query(server, query, now);
        let t1 = Instant::now();
        self.allocs += thread_allocs() - a0;
        self.ns += t1.duration_since(t0).as_nanos() as u64;
        self.calls += 1;
        let batch = self.batch.load(Ordering::Relaxed);
        self.log.push(
            Stage::Upstream,
            batch,
            u32::from(query.header.id),
            t0,
            t1,
            resp.is_some(),
        );
        resp
    }

    fn wait(&mut self, millis: u64) {
        self.inner.wait(millis);
    }
}

// ---------------------------------------------------------------------
// The daemon under test and the client
// ---------------------------------------------------------------------

pub struct Daemon {
    resolved: Resolved,
    addr: SocketAddr,
    sink: Option<SpanSink>,
}

impl Daemon {
    fn spawn(net: &Internet, traced: bool) -> io::Result<Daemon> {
        let cs = CachingServer::new(ResolverConfig::vanilla(), net.hints.clone());
        let upstream = net.upstream()?;
        if !traced {
            let resolved = Resolved::spawn(cs, upstream, "127.0.0.1:0")?;
            let addr = resolved.addr();
            return Ok(Daemon {
                resolved,
                addr,
                sink: None,
            });
        }
        let sink = SpanSink::new(false);
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let io = TimedIo {
            inner: UdpPacketIo::new(socket.try_clone()?),
            peek: socket,
            log: sink.log(),
            batch: Arc::clone(&sink.batch),
            serve_from: None,
            loop_from: None,
        };
        let upstream = TimedUpstream {
            inner: upstream,
            log: sink.log(),
            batch: Arc::clone(&sink.batch),
            ns: 0,
            allocs: 0,
            calls: 0,
        };
        let resolved = Resolved::spawn_io(vec![cs], vec![upstream], vec![io])?;
        Ok(Daemon {
            resolved,
            addr,
            sink: Some(sink),
        })
    }
}

/// Replies and datagrams kept from a traced run for the layer probes.
#[derive(Debug, Default)]
pub struct Recorded {
    pub hit_queries: Vec<Vec<u8>>,
    pub torture_queries: Vec<Vec<u8>>,
    /// First correct reply per hot name.
    pub hot_replies: HashMap<u16, Vec<u8>>,
    pub torture_replies: Vec<Vec<u8>>,
}

const RECORD_CAP: usize = 50_000;

/// One measurement window's completions.
#[derive(Debug, Default)]
struct Window {
    ok: u64,
    lat_ns: LatHist,
    hit_lat_ns: LatHist,
}

/// What one closed-loop phase saw.
#[derive(Debug, Default)]
pub struct LoopResult {
    windows: Vec<Window>,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub timeouts: u64,
    pub mismatches: HashMap<String, u64>,
    pub wall: Duration,
    pub recorded: Recorded,
}

struct Slot {
    id: u16,
    live: bool,
    len: usize,
    buf: [u8; 512],
    expect: Expect,
    sent: Instant,
}

/// Runs `K` concurrent stub resolvers against `daemon` for `duration`,
/// then waits for the stragglers.
fn closed_loop(
    sock: &UdpSocket,
    daemon: SocketAddr,
    qgen: &mut QueryGen,
    duration: Duration,
    record: bool,
) -> LoopResult {
    let nwin = (duration.as_nanos() / WINDOW.as_nanos()).max(1) as usize;
    let mut res = LoopResult {
        windows: (0..nwin).map(|_| Window::default()).collect(),
        ..LoopResult::default()
    };
    let mut slots: Vec<Slot> = (0..K)
        .map(|i| Slot {
            id: i as u16,
            live: false,
            len: 0,
            buf: [0; 512],
            expect: Expect::NxDomain,
            sent: Instant::now(),
        })
        .collect();
    let mut rbuf = [0u8; wire::MAX_MESSAGE_LEN];
    sock.set_read_timeout(Some(Duration::from_millis(5)))
        .expect("client read timeout");
    let t0 = Instant::now();
    let end = t0 + duration;
    let send = |slot: &mut Slot, qgen: &mut QueryGen, res: &mut LoopResult| {
        // IDs carry the slot in their low bits, so a reply finds its
        // slot in O(1); the high bits change on every reuse.
        slot.id = slot.id.wrapping_add(K as u16);
        let (len, expect) = qgen.next_query(slot.id, &mut slot.buf);
        slot.len = len;
        slot.expect = expect;
        slot.live = true;
        res.attempted += 1;
        if record
            && res.recorded.hit_queries.len() + res.recorded.torture_queries.len() < 2 * RECORD_CAP
        {
            let q = slot.buf[..len].to_vec();
            match expect {
                Expect::Hot { .. } if res.recorded.hit_queries.len() < RECORD_CAP => {
                    res.recorded.hit_queries.push(q)
                }
                Expect::NxDomain if res.recorded.torture_queries.len() < RECORD_CAP => {
                    res.recorded.torture_queries.push(q)
                }
                _ => {}
            }
        }
        slot.sent = Instant::now();
        // A datagram the socket refused gets no reply: the timeout scan
        // counts it as failed and sends the slot's next query.
        let _ = sock.send_to(&slot.buf[..len], daemon);
    };
    for slot in slots.iter_mut() {
        send(slot, qgen, &mut res);
    }
    let mut last_scan = t0;
    loop {
        let now = Instant::now();
        let running = now < end;
        if !running && !slots.iter().any(|s| s.live) {
            break;
        }
        match sock.recv_from(&mut rbuf) {
            Ok((len, _)) => {
                let at = Instant::now();
                let reply = &rbuf[..len];
                let id = datagram_id(reply);
                let slot = &mut slots[id as usize % K];
                if !slot.live || slot.id != id {
                    res.failed += 1;
                    *res.mismatches.entry("stray".into()).or_default() += 1;
                    continue;
                }
                slot.live = false;
                match check_reply(&slot.buf[..slot.len], slot.expect, reply) {
                    Ok(()) => {
                        res.ok += 1;
                        let lat = at.duration_since(slot.sent).as_nanos() as u64;
                        let w = ((at.duration_since(t0).as_nanos() / WINDOW.as_nanos()) as usize)
                            .min(nwin - 1);
                        let win = &mut res.windows[w];
                        win.ok += 1;
                        win.lat_ns.record(lat);
                        if let Expect::Hot { name, .. } = slot.expect {
                            win.hit_lat_ns.record(lat);
                            if record && !res.recorded.hot_replies.contains_key(&name) {
                                res.recorded.hot_replies.insert(name, reply.to_vec());
                            }
                        } else if record && res.recorded.torture_replies.len() < RECORD_CAP {
                            res.recorded.torture_replies.push(reply.to_vec());
                        }
                    }
                    Err(m) => {
                        res.failed += 1;
                        let key = match m {
                            Mismatch::Rcode(c) => format!("rcode{c}"),
                            other => format!("{other:?}").to_lowercase(),
                        };
                        *res.mismatches.entry(key).or_default() += 1;
                    }
                }
                if at < end {
                    send(slot, qgen, &mut res);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                res.failed += 1;
            }
        }
        let now = Instant::now();
        if now.duration_since(last_scan) >= Duration::from_millis(10) {
            last_scan = now;
            for slot in slots.iter_mut() {
                if slot.live && now.duration_since(slot.sent) > CLIENT_TIMEOUT {
                    slot.live = false;
                    res.failed += 1;
                    res.timeouts += 1;
                    if now < end {
                        send(slot, qgen, &mut res);
                    }
                }
            }
        }
    }
    res.wall = duration;
    res
}

impl LoopResult {
    fn window_medians(&self) -> (f64, f64, f64, f64) {
        let secs = WINDOW.as_secs_f64();
        let mut qps = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut hit99 = Vec::new();
        for w in &self.windows {
            qps.push(w.ok as f64 / secs);
            p50.push(w.lat_ns.percentile(0.50) / 1e3);
            p99.push(w.lat_ns.percentile(0.99) / 1e3);
            hit99.push(w.hit_lat_ns.percentile(0.99) / 1e3);
        }
        (median(&qps), median(&p50), median(&p99), median(&hit99))
    }

    fn samples(&self) -> (u64, u64) {
        let all = self.windows.iter().map(|w| w.lat_ns.len()).sum();
        let hit = self.windows.iter().map(|w| w.hit_lat_ns.len()).sum();
        (all, hit)
    }
}

/// A running internet + daemon + client socket after warm-up.
struct Rig {
    daemon: Daemon,
    sock: UdpSocket,
    warmup: Duration,
    boot: Duration,
}

/// Boots a daemon over `net` and answers every hot name once through it,
/// so the wire cache holds the whole working set.
fn rig(net: &Internet, traced: bool, report: &mut Report) -> io::Result<Rig> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(net, traced)?;
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    let boot = t0.elapsed();
    let t1 = Instant::now();
    sock.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    let mut qgen = QueryGen::new(0, 0);
    let mut buf = [0u8; 512];
    let mut rbuf = [0u8; wire::MAX_MESSAGE_LEN];
    for i in 0..gen::HOT_NAMES {
        let len = qgen.hot_query(i as u16, i, &mut buf);
        sock.send_to(&buf[..len], daemon.addr)?;
        let expect = Expect::Hot {
            name: i as u16,
            addr: gen::hot_addr(i),
        };
        let ok = sock
            .recv_from(&mut rbuf)
            .map(|(n, _)| check_reply(&buf[..len], expect, &rbuf[..n]));
        if !matches!(ok, Ok(Ok(()))) {
            report.fail_check(format!("warm-up of hot name {i}: {ok:?}"));
            break;
        }
    }
    Ok(Rig {
        daemon,
        sock,
        warmup: t1.elapsed(),
        boot,
    })
}

/// Boots `setups` rigs in turn (keeping the last) and returns it with
/// the median boot + warm-up time in seconds.
fn setup(
    net: &Internet,
    setups: usize,
    traced: bool,
    report: &mut Report,
) -> io::Result<(Rig, f64, f64)> {
    let mut totals = Vec::new();
    let mut warms = Vec::new();
    let mut last: Option<Rig> = None;
    for _ in 0..setups.max(1) {
        if let Some(r) = last.take() {
            r.daemon.resolved.stop();
        }
        let r = rig(net, traced, report)?;
        totals.push((r.boot + r.warmup).as_secs_f64());
        warms.push(r.warmup.as_secs_f64());
        last = Some(r);
    }
    Ok((
        last.expect("at least one setup"),
        median(&totals),
        median(&warms),
    ))
}

/// Runs the client thread for one phase; also returns the thread's own
/// CPU nanoseconds, read before it exits.
fn drive(
    rig: &Rig,
    qgen: QueryGen,
    duration: Duration,
    record: bool,
) -> (QueryGen, LoopResult, u64) {
    let sock = rig.sock.try_clone().expect("clone client socket");
    let addr = rig.daemon.addr;
    cpu::spawn_named(cpu::CLIENT, move || {
        let before = CpuSnapshot::take();
        let mut qgen = qgen;
        let res = closed_loop(&sock, addr, &mut qgen, duration, record);
        let cpu_ns = CpuSnapshot::take().ns_since(&before, cpu::CLIENT);
        (qgen, res, cpu_ns)
    })
    .join()
    .expect("client thread")
}

/// Settles the loop, then measures one phase with CPU accounting.
struct Phase {
    res: LoopResult,
    cpu_before: CpuSnapshot,
    cpu_after: CpuSnapshot,
    client_ns: u64,
    /// Peak RSS (KiB) before and after the measured phase.
    rss_kb: (u64, u64),
    /// Wall time the traced spans were recorded over.
    wall_ns: u64,
    stats: (dns_netd::DaemonStats, dns_netd::DaemonStats),
    metrics: (ResolverMetrics, ResolverMetrics),
}

fn phase(
    rig: &Rig,
    qgen: QueryGen,
    duration: Duration,
    record: bool,
    report: &mut Report,
) -> Phase {
    let (qgen, settle, _) = drive(rig, qgen, SETTLE, false);
    if settle.failed > 0 {
        report.fail_check(format!("{} failed queries while settling", settle.failed));
    }
    let stats0 = rig.daemon.resolved.stats();
    let metrics0 = rig.daemon.resolved.metrics();
    let rss_before = dns_sim::peak_rss_kb();
    let cpu_before = CpuSnapshot::take();
    let sink = rig.daemon.sink.as_ref();
    let t0 = Instant::now();
    if let Some(s) = sink {
        s.recording.store(true, Ordering::Relaxed);
    }
    let (_, res, client_ns) = drive(rig, qgen, duration, record);
    if let Some(s) = sink {
        s.recording.store(false, Ordering::Relaxed);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_after = CpuSnapshot::take();
    Phase {
        res,
        cpu_before,
        cpu_after,
        client_ns,
        rss_kb: (rss_before, dns_sim::peak_rss_kb()),
        wall_ns,
        stats: (stats0, rig.daemon.resolved.stats()),
        metrics: (metrics0, rig.daemon.resolved.metrics()),
    }
}

impl Phase {
    fn busy(&self, prefix: &str) -> f64 {
        let ns = self.cpu_after.ns_since(&self.cpu_before, prefix) as f64;
        ratio(ns, self.res.wall.as_nanos() as f64)
    }

    fn cpu_us_per_query(&self) -> f64 {
        let ns = self.cpu_after.ns_since(&self.cpu_before, cpu::RESOLVED)
            + self.cpu_after.ns_since(&self.cpu_before, cpu::AUTHD);
        ratio(ns as f64 / 1e3, self.res.ok as f64)
    }
}

/// Sizes of one daemon run.
pub struct DaemonPlan {
    pub torture_every: u64,
    pub seconds: f64,
    pub setups: usize,
}

/// The untraced run: every end-to-end metric.
pub fn run(plan: &DaemonPlan, seed: u64, report: &mut Report) -> io::Result<()> {
    let t_boot = Instant::now();
    let net = Internet::boot()?;
    let net_boot = t_boot.elapsed().as_secs_f64();
    let (rig, setup_s, _) = setup(&net, plan.setups, false, report)?;
    let qgen = QueryGen::new(seed, plan.torture_every);
    let p = phase(
        &rig,
        qgen,
        Duration::from_secs_f64(plan.seconds),
        false,
        report,
    );
    rig.daemon.resolved.stop();
    net.stop();
    end_to_end(&p, setup_s + net_boot, report);
    Ok(())
}

/// A reply that arrived but is wrong makes the run incorrect; a timeout
/// only counts as failed.
fn wrong_replies(r: &LoopResult, report: &mut Report) {
    if !r.mismatches.is_empty() {
        report.fail_check(format!("wrong replies: {:?}", r.mismatches));
    }
}

fn end_to_end(p: &Phase, setup_s: f64, report: &mut Report) {
    let r = &p.res;
    let (qps, p50, p99, hit99) = r.window_medians();
    let (n, nhit) = r.samples();
    let nwin = r.windows.len() as u64;
    report.attempted += r.attempted;
    report.failed += r.failed;
    wrong_replies(r, report);
    report.note(format!(
        "closed loop: K={K} outstanding from one socket, {} windows of {} ms, medians across windows",
        nwin,
        WINDOW.as_millis()
    ));
    report.note(format!(
        "replies: {} ok, {} failed ({} timeouts, mismatches {:?}); fail_share {:.6} ({} of {})",
        r.ok,
        r.failed,
        r.timeouts,
        r.mismatches,
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));
    report.push_n("qps", qps, "1/s", Some(nwin));
    report.push_n("p50_us", p50, "us", Some(n));
    report.push_n("p99_us", p99, "us", Some(n));
    report.push_n("hit_p99_us", hit99, "us", Some(nhit));
    report.push_n("cpu_us_per_query", p.cpu_us_per_query(), "us", Some(r.ok));
    // The torture flood grows the negative cache by one entry per label,
    // and its hash table doubles at fixed entry counts, so the end-of-run
    // peak jumps by tens of MB depending on whether a run's throughput
    // crossed a doubling. The bounded metric is therefore the peak at the
    // start of measurement; the growth is reported beside it.
    report.push("peak_rss_kb", p.rss_kb.0 as f64, "KiB");
    report.note(format!(
        "peak RSS {} KiB before measuring, {} KiB after",
        p.rss_kb.0, p.rss_kb.1
    ));
    report.push("setup_s", setup_s, "s");
}

/// The traced run: an untraced phase for the overhead baseline, a traced
/// phase through the timing wrappers, then the layer probes on the
/// phase's recorded inputs.
pub fn run_traced(plan: &DaemonPlan, seed: u64, report: &mut Report) -> io::Result<()> {
    let half = Duration::from_secs_f64(plan.seconds / 2.0);
    let net = Internet::boot()?;
    let (rig, _, _) = setup(&net, 1, false, report)?;
    let base = phase(
        &rig,
        QueryGen::new(seed, plan.torture_every),
        half,
        false,
        report,
    );
    rig.daemon.resolved.stop();
    let untraced_qps = base.res.window_medians().0;
    report.push(
        "resolver.rss_growth_kb",
        base.rss_kb.1.saturating_sub(base.rss_kb.0) as f64,
        "KiB",
    );

    let (rig, _, warm_s) = setup(&net, plan.setups, true, report)?;
    let p = phase(
        &rig,
        QueryGen::new(seed, plan.torture_every),
        half,
        true,
        report,
    );
    let sink = rig.daemon.sink.clone().expect("traced daemon has a sink");
    rig.daemon.resolved.stop();
    report.attempted += p.res.attempted;
    report.failed += p.res.failed;
    wrong_replies(&p.res, report);
    let (spans, totals) = sink.take();
    let dropped = sink.dropped.load(Ordering::Relaxed);
    if dropped > 0 {
        report.note(format!(
            "{dropped} spans past the in-memory cap were not kept"
        ));
    }
    let stem = if plan.torture_every > 0 {
        "daemon_torture"
    } else {
        "daemon_hot"
    };
    write_spans(&spans, stem, report);
    let traced_qps = p.res.window_medians().0;

    ledger(&p, &totals, report);
    probes(&net, &p.res.recorded, plan.torture_every > 0, report)?;
    net.stop();

    let (s0, s1) = p.stats;
    let lane = (s1.wire_hits - s0.wire_hits) as f64;
    let lane_all =
        lane + (s1.wire_misses - s0.wire_misses + s1.wire_bypass - s0.wire_bypass) as f64;
    report.push("wirecache.hit_share", ratio(lane, lane_all), "share");
    let m = p.metrics.1 - p.metrics.0;
    if m.queries_in == 0 {
        report.note("resolver.cache_hit_share, resolver.upstream_per_query: 0 because every timed query was a wire-cache hit (the resolver saw none)");
    }
    report.push(
        "resolver.cache_hit_share",
        ratio(m.cache_hits as f64, m.queries_in as f64),
        "share",
    );
    report.push(
        "resolver.upstream_per_query",
        ratio(m.queries_out as f64, m.queries_in as f64),
        "count",
    );
    let busy = [
        ("resolved worker", p.busy(cpu::RESOLVED)),
        ("authd", p.busy(cpu::AUTHD)),
        (
            "client generator",
            ratio(p.client_ns as f64, p.res.wall.as_nanos() as f64),
        ),
    ];
    let top = busy
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("three threads");
    report.note(format!(
        "thread busy shares: worker {:.3}, authd {:.3}, client {:.3}; busiest: {} ({:.0}% of one core)",
        busy[0].1,
        busy[1].1,
        busy[2].1,
        top.0,
        top.1 * 100.0
    ));
    report.push("resolved.worker_busy_share", busy[0].1, "share");
    report.push("authd.busy_share", busy[1].1, "share");
    report.push("client.busy_share", busy[2].1, "share");
    report.push("setup.warmup_s", warm_s, "s");
    report.push("trace_overhead", ratio(traced_qps, untraced_qps), "ratio");
    report.note(format!(
        "tracing overhead: traced qps {traced_qps:.0} / untraced qps {untraced_qps:.0}"
    ));
    Ok(())
}

/// Writes the spans as tab-separated text under `perfbench/out/`.
fn write_spans(spans: &[Span], stem: &str, report: &mut Report) {
    use std::io::Write as _;
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{stem}-spans.tsv"));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "stage\tbatch\treq\tstart_ns\tdur_ns\tok")?;
        for s in spans {
            writeln!(
                out,
                "{:?}\t{}\t{}\t{}\t{}\t{}",
                s.stage, s.batch, s.req, s.start_ns, s.dur_ns, s.ok
            )?;
        }
        out.flush()
    });
    match written {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

/// Per-packet stage means over the traced window; checks they add up to
/// the worker's wall time per packet.
fn ledger(p: &Phase, totals: &Totals, report: &mut Report) {
    let recv_t = totals.get(Stage::Recv);
    let pkts = recv_t.pkts as f64;
    let batches = recv_t.nonempty as f64;
    let per = |st: Stage| ratio(totals.get(st).ns as f64, pkts);
    let (wait, recv, serve, send, lp) = (
        per(Stage::RecvWait),
        per(Stage::Recv),
        per(Stage::Serve),
        per(Stage::Send),
        per(Stage::Loop),
    );
    let wall = ratio(p.wall_ns as f64, pkts);
    let parts = wait + recv + serve + send + lp;
    let off = ratio((parts - wall).abs(), wall);
    report.note(format!(
        "worker ledger per packet ({pkts:.0} packets, {batches:.0} batches): recv wait {wait:.0} + recv {recv:.0} + serve {serve:.0} + send {send:.0} + loop {lp:.0} = {parts:.0} ns vs wall {wall:.0} ns ({:.1}% off)",
        off * 100.0
    ));
    if off > 0.10 {
        report.fail_check(format!(
            "daemon stages miss the wall time by {:.1}%",
            off * 100.0
        ));
    }
    let up = totals.get(Stage::Upstream);
    report.push("packetio.recv_ns_per_pkt", recv, "ns");
    report.push("packetio.recv_wait_ns_per_pkt", wait, "ns");
    report.push("packetio.send_ns_per_pkt", send, "ns");
    report.push("packetio.pkts_per_batch", ratio(pkts, batches), "count");
    report.push("resolved.serve_ns_per_pkt", serve, "ns");
    report.push("resolved.loop_ns_per_pkt", lp, "ns");
    report.push_n(
        "upstream.exchange_ns",
        ratio(up.ns as f64, up.spans as f64),
        "ns",
        Some(up.spans),
    );
    report.push("upstream.failures", up.failures as f64, "count");
    if up.spans == 0 {
        report.note("upstream.exchange_ns: 0 because no timed query reached the upstream (all wire-cache hits)");
    }
}

/// Times `op` over `inputs`, repeating passes until at least `min_ops`
/// calls; returns (ns per call, allocations per call on this thread).
fn probe<T>(inputs: &[T], min_ops: usize, mut op: impl FnMut(&T)) -> (f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0);
    }
    for x in inputs.iter().take(1000) {
        op(x);
    }
    let passes = min_ops.div_ceil(inputs.len()).max(1);
    let a0 = thread_allocs();
    let t0 = Instant::now();
    for _ in 0..passes {
        for x in inputs {
            op(x);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let n = (passes * inputs.len()) as f64;
    (ns / n, (thread_allocs() - a0) as f64 / n)
}

/// The layer probes: each layer's public functions on the traced phase's
/// own datagrams and replies.
fn probes(net: &Internet, rec: &Recorded, torture: bool, report: &mut Report) -> io::Result<()> {
    // wirecache: the daemon's replies compiled into a private cache, then
    // the fast lane's three calls on the run's hit datagrams.
    let now = SimTime::from_secs(1_000_000);
    let mut cache = WireCache::default();
    for (&i, reply) in &rec.hot_replies {
        let msg = wire::decode(reply).expect("checked reply decodes");
        let (bytes, offsets) = wire::encode_with_ttl_offsets(&msg).expect("reply re-encodes");
        let owner = name(&format!(
            "{}.{}",
            gen::hot_label(i as usize),
            gen::LEAF_ZONE
        ));
        cache.insert(
            &owner,
            RecordType::A,
            &bytes,
            &offsets,
            now,
            now + dns_core::SimDuration::from_hours(1),
        );
    }
    let mut key = Vec::with_capacity(dns_core::MAX_NAME_LEN);
    let mut out = [0u8; wire::MAX_MESSAGE_LEN];
    let mut misses = 0u64;
    let (serve_ns, serve_allocs) = probe(&rec.hit_queries, 500_000, |q| {
        let fq = fast_query(black_box(q)).expect("hit datagrams are fast-lane shaped");
        lowercase_key(fq.raw_name, &mut key);
        match cache.serve(&key, fq.rtype, q, now, &mut out) {
            Some(n) => {
                black_box(&out[..n]);
            }
            None => misses += 1,
        }
    });
    if misses > 0 {
        report.fail_check(format!(
            "{misses} recorded hit datagrams missed the probe's wire cache"
        ));
    }
    if serve_allocs != 0.0 {
        report.fail_check(format!(
            "fast lane allocated {serve_allocs} times per serve"
        ));
    }
    report.push("wirecache.serve_ns", serve_ns, "ns");
    report.push("wirecache.allocs_per_serve", serve_allocs, "count");

    // wire: decode the queries the slow path decodes (torture labels, or
    // the hot queries where there are none) and encode the daemon's
    // replies to them.
    let queries = if torture {
        &rec.torture_queries
    } else {
        &rec.hit_queries
    };
    let replies: Vec<Message> = if torture {
        rec.torture_replies
            .iter()
            .filter_map(|r| wire::decode(r).ok())
            .collect()
    } else {
        rec.hot_replies
            .values()
            .filter_map(|r| wire::decode(r).ok())
            .collect()
    };
    let (dec_ns, dec_allocs) = probe(queries, 200_000, |q| {
        black_box(wire::decode(black_box(q)).expect("recorded query decodes"));
    });
    let (enc_ns, enc_allocs) = probe(&replies, 200_000, |m| {
        black_box(wire::encode_with_ttl_offsets(black_box(m)).expect("reply encodes"));
    });
    report.push("wire.decode_ns", dec_ns, "ns");
    report.push("wire.encode_ns", enc_ns, "ns");
    report.push("wire.allocs_per_decode", dec_allocs, "count");
    report.push("wire.allocs_per_encode", enc_allocs, "count");

    // auth: the leaf server's answer to the same queries, in process.
    let leaf = leaf_server();
    let decoded: Vec<Message> = queries
        .iter()
        .filter_map(|q| wire::decode(q).ok())
        .collect();
    let (auth_ns, _) = probe(&decoded, 100_000, |q| {
        black_box(leaf.handle_query(black_box(q)));
    });
    report.push("auth.handle_ns", auth_ns, "ns");

    // resolver: a fresh resolver warmed like the daemon, resolving the
    // run's questions over a timed UdpUpstream to the live authds. Its
    // self time excludes the exchanges.
    let questions: Vec<Question> = decoded
        .iter()
        .filter_map(|m| m.question().cloned())
        .take(20_000)
        .collect();
    let sink = SpanSink::new(false);
    let mut up = TimedUpstream {
        inner: net.upstream()?,
        log: sink.log(),
        batch: Arc::clone(&sink.batch),
        ns: 0,
        allocs: 0,
        calls: 0,
    };
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), net.hints.clone());
    let at = dns_netd::wall_clock();
    for i in 0..gen::HOT_NAMES {
        let q = Question::new(
            name(&format!("{}.{}", gen::hot_label(i), gen::LEAF_ZONE)),
            RecordType::A,
        );
        cs.resolve(&q, at, &mut up);
    }
    let (ns0, al0, calls0) = (up.ns, up.allocs, up.calls);
    let a0 = thread_allocs();
    let t0 = Instant::now();
    for q in &questions {
        black_box(cs.resolve(q, at, &mut up));
    }
    let total_ns = t0.elapsed().as_nanos() as f64;
    let total_allocs = (thread_allocs() - a0) as f64;
    let n = questions.len() as f64;
    report.push_n(
        "resolver.self_ns",
        ratio(total_ns - (up.ns - ns0) as f64, n),
        "ns",
        Some(questions.len() as u64),
    );
    report.push(
        "resolver.allocs_per_query",
        ratio(total_allocs - (up.allocs - al0) as f64, n),
        "count",
    );
    report.note(format!(
        "resolver probe: {} questions, {} upstream exchanges, {:.0} ns per exchange",
        questions.len(),
        up.calls - calls0,
        ratio((up.ns - ns0) as f64, (up.calls - calls0) as f64)
    ));
    Ok(())
}
