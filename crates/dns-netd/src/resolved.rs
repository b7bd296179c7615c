//! The recursive resolver daemon: a pool of [`CachingServer`]s over one
//! shared cache behind a UDP socket, resolving through real upstream
//! sockets.
//!
//! Each worker is split in two. A [`Core`] does all the serving: it
//! takes a batch of datagrams and a `now`, and writes the replies. A
//! worker thread is a thin shell around it that moves packets through
//! the [`PacketIo`] trait in batches of up to [`crate::MAX_BATCH`] and
//! reads a monotone clock; a caller can also step the cores itself, in
//! virtual time ([`Resolved::cores`]).
//!
//! The datagram path has a *fast lane*: a shared [`WireCache`] of
//! pre-serialized responses answers repeat queries by patching the
//! cached bytes in place (ID, RD bit, question casing, decremented TTLs)
//! — no message decode, no resolver, no allocation.
//!
//! Each core owns its resolver and copies what the pool shows of it
//! (counters, latency registry, last trace) out after every resolution,
//! so no thread ever locks a resolver another core is driving.

use crate::packetio::{Packet, PacketBatch, PacketIo, UdpPacketIo};
use crate::wirecache::{self, WireCache};
use dns_core::{wire, Message, RData, Rcode, Record, RecordClass, RecordType, SimTime, Ttl};
use dns_obs::{HistId, QueryTrace, Registry};
use dns_resolver::{CachingServer, Outcome, ResolverMetrics, ShardedCache, Upstream};
use std::fmt;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Owner name answered with a metrics snapshot for `CHAOS TXT` queries
/// (the `version.bind.` convention, for metrics).
pub const CHAOS_METRICS_NAME: &str = "metrics.bind";

dns_obs::counter_set! {
    /// Daemon-side counters: what happened between the socket and the
    /// resolver (the resolver's own counters live in
    /// [`dns_resolver::ResolverMetrics`]). Exposed as `daemon_<field>`.
    pub struct DaemonStats, prefix "daemon_" {
        served: "Responses sent back to clients",
        send_errors: "Responses lost to socket send errors",
        truncated_responses: "Oversized responses downgraded to a TC-bit truncated reply instead of dropped",
        wire_hits: "Queries answered from the pre-serialized wire cache (fast lane)",
        wire_misses: "Fast-lane-eligible queries that missed the wire cache and took the slow path",
        wire_bypass: "Packets ineligible for the fast lane (CHAOS class, EDNS0 OPT, compressed question names, non-query opcodes)",
        wire_bytes: "Compiled response bytes currently held by the wire cache (the quantity its byte budget bounds)",
    }
}

impl fmt::Display for DaemonStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} served, {} send errors, {} truncated, wire {}h/{}m/{}b holding {} bytes",
            self.served,
            self.send_errors,
            self.truncated_responses,
            self.wire_hits,
            self.wire_misses,
            self.wire_bypass,
            self.wire_bytes
        )
    }
}

/// Health state shared by the worker pool: the first non-timeout socket
/// error flips the flag and is retained for inspection, instead of a
/// worker dying silently.
#[derive(Debug, Default)]
struct Health {
    failed: AtomicBool,
    first_error: Mutex<Option<String>>,
}

impl Health {
    fn record(&self, context: &str, e: &io::Error) {
        self.failed.store(true, Ordering::Relaxed);
        self.first_error
            .lock()
            .expect("no thread panics while holding the health lock")
            .get_or_insert_with(|| format!("{context}: {e}"));
    }
}

/// Daemon-side observability shared by the worker pool: wall-clock
/// latency in nanoseconds, split by lane (the resolver's own histogram
/// models *virtual* latency; these measure real elapsed time). The split
/// makes the wire cache's latency win directly visible: fast-lane hits
/// never decode, resolve or allocate, so their histogram sits around a
/// hundred nanoseconds while the slow path carries the real cost.
#[derive(Debug)]
struct DaemonObs {
    registry: Registry,
    wall_fast: HistId,
    wall_slow: HistId,
}

impl DaemonObs {
    fn new() -> Self {
        let mut registry = Registry::new();
        let wall_fast = registry.histogram(
            "wall_latency_fast_ns",
            "Wall-clock latency per wire fast-lane hit in nanoseconds",
        );
        let wall_slow = registry.histogram(
            "wall_latency_slow_ns",
            "Wall-clock latency per slow-path resolution in nanoseconds",
        );
        DaemonObs {
            registry,
            wall_fast,
            wall_slow,
        }
    }

    fn observe_fast(&mut self, ns: u64) {
        self.registry.observe(self.wall_fast, ns);
    }

    fn observe_slow(&mut self, ns: u64) {
        self.registry.observe(self.wall_slow, ns);
    }
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The wire fast lane, shared by every core: the pre-serialized
/// response cache plus its hit/miss/bypass counter trio.
#[derive(Debug)]
struct WireLane {
    cache: Mutex<WireCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypass: AtomicU64,
}

impl Default for WireLane {
    fn default() -> Self {
        WireLane {
            cache: Mutex::new(WireCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypass: AtomicU64::new(0),
        }
    }
}

/// What one core's resolver shows the rest of the pool, copied out by
/// that core after each resolution.
#[derive(Debug)]
struct Panel {
    metrics: ResolverMetrics,
    /// The resolver's own registry (the modelled latency histogram).
    obs: Registry,
}

impl Panel {
    fn of(cs: &CachingServer) -> Panel {
        Panel {
            metrics: *cs.metrics(),
            obs: cs.obs().registry().clone(),
        }
    }

    /// Refreshes the panel from `cs`; allocation-free.
    fn publish(&mut self, cs: &CachingServer) {
        self.metrics = *cs.metrics();
        self.obs.clone_from(cs.obs().registry());
    }
}

/// Everything a core shares with its pool and the daemon handle.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    served: AtomicU64,
    send_errors: AtomicU64,
    truncated: AtomicU64,
    health: Health,
    /// One panel per core, in core order.
    panels: Vec<Mutex<Panel>>,
    /// The pool's cache: its shard and coalescing registry joins the
    /// metric snapshot.
    cache: ShardedCache,
    /// Set by [`Resolved::enable_trace`]; each core turns tracing on in
    /// its resolver before its next resolution (a bare flag: it
    /// publishes no other data, so `Relaxed` suffices).
    trace_on: AtomicBool,
    /// The trace of the pool's most recent traced resolution, whichever
    /// core ran it.
    last_trace: Mutex<Option<QueryTrace>>,
    obs: Mutex<DaemonObs>,
    lane: WireLane,
}

impl Shared {
    fn stats(&self) -> DaemonStats {
        DaemonStats {
            served: self.served.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            truncated_responses: self.truncated.load(Ordering::Relaxed),
            wire_hits: self.lane.hits.load(Ordering::Relaxed),
            wire_misses: self.lane.misses.load(Ordering::Relaxed),
            wire_bypass: self.lane.bypass.load(Ordering::Relaxed),
            wire_bytes: self.lane.cache.lock().unwrap().bytes() as u64,
        }
    }
}

/// A recursive resolver daemon: a pool of [`Core`]s over one cache.
///
/// Clients send standard DNS queries; the daemon resolves them through
/// its [`CachingServer`]s (the cache is the same code the simulator
/// evaluates) and answers with the outcome: answers as-is, NXDOMAIN/NODATA
/// as negative responses, and resolution failure as SERVFAIL.
///
/// The schemes that act inside [`CachingServer::resolve`] apply here as in
/// the simulator: TTL refresh, the long-TTL override, serve-stale,
/// proactive refresh, learned prefetch and the defense policy. TTL
/// renewal and the periodic purge do not: the daemon never calls
/// [`CachingServer::run_renewals_until`] or [`CachingServer::purge`], so
/// renewal credits accrue but never fire and expired entries are not
/// evicted. The simulator runs both between queries; moving that loop
/// into the daemon is the ROADMAP's "one maintenance loop" item.
///
/// Every core owns its upstream transport and its own resolver over the
/// pool's shared cache, so resolutions proceed concurrently and contend
/// only per cache shard; with [`dns_resolver::ResolverConfig::coalesce`]
/// on, identical in-flight fetches are deduplicated across the pool.
/// Repeat queries for hot names are answered from a shared [`WireCache`]
/// of compiled responses without touching a resolver at all.
///
/// [`Resolved::spawn_pool`] runs each core in a worker thread, a thin
/// shell that drains the shared UDP socket in batches through
/// [`PacketIo`] (the kernel delivers each datagram to exactly one
/// worker), reads the pool's monotone clock and hands the batch to
/// [`Core::step`]. A worker that hits a fatal socket error records it
/// ([`Resolved::last_error`]) and drops out, flipping
/// [`Resolved::healthy`] — the daemon degrades visibly instead of dying
/// silently. [`Resolved::cores`] builds the same pool with no threads.
#[derive(Debug)]
pub struct Resolved {
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// What [`Resolved::addr`] reports for a pool without a bound socket.
const NO_ADDR: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0));

impl Resolved {
    /// Binds `bind` and starts resolving through `upstream` with a single
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns any socket-level error from binding.
    pub fn spawn<U>(
        cs: CachingServer,
        upstream: U,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Resolved>
    where
        U: Upstream + Send + 'static,
    {
        Resolved::spawn_pool(cs, vec![upstream], bind)
    }

    /// Binds `bind` and starts one worker per upstream in `upstreams`
    /// (each worker owns its transport; the caller decides the pool
    /// size). Worker 0 resolves through `cs`, worker `i` through
    /// [`CachingServer::sibling`] over `cs`'s cache with seed
    /// `cs.config().seed + i`, so query-ID streams stay per-worker
    /// deterministic yet distinct.
    ///
    /// # Errors
    ///
    /// Returns socket-level errors from binding/cloning, and
    /// `InvalidInput` when `upstreams` is empty.
    pub fn spawn_pool<U>(
        cs: CachingServer,
        upstreams: Vec<U>,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Resolved>
    where
        U: Upstream + Send + 'static,
    {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let ios = (0..upstreams.len())
            .map(|_| socket.try_clone().map(UdpPacketIo::new))
            .collect::<io::Result<Vec<_>>>()?;
        let seed = cs.config().seed;
        let siblings: Vec<CachingServer> = (1..upstreams.len())
            .map(|i| cs.sibling(seed.wrapping_add(i as u64)))
            .collect();
        let servers = std::iter::once(cs).chain(siblings).collect();
        Resolved::launch(servers, upstreams, ios, addr)
    }

    /// Starts the pool over caller-supplied packet transports instead of
    /// a socket it binds itself, for callers that own the transport
    /// (perfbench's traced run times every [`PacketIo`] call this way).
    /// Worker `i` runs `servers[i]` over `upstreams[i]` and `ios[i]`; the
    /// servers normally share one cache (a server and its
    /// [`CachingServer::sibling`]s), whose registry the metric snapshot
    /// takes from `servers[0]`. [`Resolved::addr`] reports a placeholder.
    ///
    /// # Errors
    ///
    /// `InvalidInput` unless the three vectors are non-empty and of one
    /// length.
    pub fn spawn_io<U, P>(
        servers: Vec<CachingServer>,
        upstreams: Vec<U>,
        ios: Vec<P>,
    ) -> io::Result<Resolved>
    where
        U: Upstream + Send + 'static,
        P: PacketIo + 'static,
    {
        Resolved::launch(servers, upstreams, ios, NO_ADDR)
    }

    /// Builds the pool without threads or sockets: core `i` runs
    /// `servers[i]` over `upstreams[i]`, and the handle's counters, CHAOS
    /// answer, Prometheus text and traces read what the cores write. The
    /// caller serves datagrams with [`Core::step`] at a `now` of its
    /// choosing, so the serving code runs single-threaded in virtual
    /// time. A core sends nothing, so [`Resolved::served`] stays 0.
    ///
    /// # Errors
    ///
    /// `InvalidInput` unless `servers` and `upstreams` are non-empty and
    /// of one length.
    pub fn cores<U: Upstream>(
        servers: Vec<CachingServer>,
        upstreams: Vec<U>,
    ) -> io::Result<(Resolved, Vec<Core<U>>)> {
        if servers.is_empty() || servers.len() != upstreams.len() {
            let msg = "a pool needs one server and one upstream per core";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            health: Health::default(),
            panels: servers.iter().map(|cs| Mutex::new(Panel::of(cs))).collect(),
            cache: servers[0].backend().clone(),
            trace_on: AtomicBool::new(false),
            last_trace: Mutex::new(None),
            obs: Mutex::new(DaemonObs::new()),
            lane: WireLane::default(),
        });
        let cores = servers
            .into_iter()
            .zip(upstreams)
            .enumerate()
            .map(|(index, (cs, upstream))| Core {
                index,
                cs,
                upstream,
                shared: Arc::clone(&shared),
                key: Vec::with_capacity(dns_core::MAX_NAME_LEN),
            })
            .collect();
        let resolved = Resolved {
            addr: NO_ADDR,
            workers: Vec::new(),
            shared,
        };
        Ok((resolved, cores))
    }

    /// Builds the pool with [`Resolved::cores`] and runs core `i` in a
    /// worker thread over `ios[i]`, every worker reading one clock.
    fn launch<U, P>(
        servers: Vec<CachingServer>,
        upstreams: Vec<U>,
        ios: Vec<P>,
        addr: SocketAddr,
    ) -> io::Result<Resolved>
    where
        U: Upstream + Send + 'static,
        P: PacketIo + 'static,
    {
        if ios.len() != servers.len() {
            let msg = "one packet transport per server";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let (mut resolved, cores) = Resolved::cores(servers, upstreams)?;
        let clock = Clock::start();
        resolved.addr = addr;
        resolved.workers = cores
            .into_iter()
            .zip(ios)
            .map(|(core, io)| {
                std::thread::Builder::new()
                    .name(format!("resolved-{addr}-w{}", core.index))
                    .spawn(move || shell(core, io, clock))
                    .expect("spawn resolved worker")
            })
            .collect();
        Ok(resolved)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replies the workers have sent so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Number of worker threads the pool started with (0 for a pool
    /// built by [`Resolved::cores`]).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// `false` once any worker has hit a fatal socket error.
    pub fn healthy(&self) -> bool {
        !self.shared.health.failed.load(Ordering::Relaxed)
    }

    /// The first fatal error a worker recorded, if any.
    pub fn last_error(&self) -> Option<String> {
        self.shared
            .health
            .first_error
            .lock()
            .expect("no thread panics while holding the health lock")
            .clone()
    }

    /// Daemon-side counters (socket-level; resolver counters are in
    /// [`Resolved::metrics`]).
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats()
    }

    /// Entries currently in the wire fast-lane cache.
    pub fn wire_cache_len(&self) -> usize {
        self.shared.lane.cache.lock().unwrap().len()
    }

    /// Snapshot of the resolver counters, summed over every core's
    /// resolver.
    pub fn metrics(&self) -> ResolverMetrics {
        self.shared
            .panels
            .iter()
            .map(|p| p.lock().unwrap().metrics)
            .fold(ResolverMetrics::default(), |acc, m| acc + m)
    }

    /// Prometheus-text snapshot of every daemon and resolver metric —
    /// the same registry the `CHAOS TXT metrics.bind.` answer renders in
    /// compact form: the resolvers' counters summed and their registries
    /// merged over the pool, plus the shared cache's registry (shard
    /// counters, coalescing totals).
    pub fn prometheus(&self) -> String {
        metrics_registry(&self.shared).render_prometheus()
    }

    /// Turns on per-query tracing in every core's resolver, from each
    /// core's next resolution on; the most recent traced resolution is
    /// readable via [`Resolved::explain_last`].
    pub fn enable_trace(&self) {
        self.shared.trace_on.store(true, Ordering::Relaxed);
    }

    /// Renders the trace of the pool's most recent resolution, when
    /// tracing is on and at least one query has been resolved since.
    pub fn explain_last(&self) -> Option<String> {
        let last = self.shared.last_trace.lock().unwrap();
        last.as_ref()
            .filter(|t| !t.is_empty())
            .map(QueryTrace::explain)
    }

    /// Stops the daemon and joins every worker thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Resolved {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Display for Resolved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resolved on {} ({} workers, {} served{})",
            self.addr,
            self.worker_count(),
            self.served(),
            if self.healthy() { "" } else { ", UNHEALTHY" }
        )
    }
}

/// The workers' clock, in whole seconds: the wall clock read once when
/// the pool starts, advanced by a monotonic [`Instant`]. Unlike
/// [`crate::wall_clock`] it never steps back with the system clock (an
/// NTP step), which would let the wire cache serve expired entries.
#[derive(Debug, Clone, Copy)]
struct Clock {
    epoch: Duration,
    start: Instant,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            epoch: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default(),
            start: Instant::now(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs((self.epoch + self.start.elapsed()).as_secs())
    }
}

/// One worker thread, the shell around `core`: receive a batch, read the
/// clock, let the core serve it, send the replies; until the pool stops.
/// A fatal transport error is recorded and retires the worker.
fn shell<U: Upstream, P: PacketIo>(mut core: Core<U>, mut io: P, clock: Clock) {
    let shared = Arc::clone(&core.shared);
    let mut rx = PacketBatch::new();
    let mut tx = PacketBatch::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match io.recv_batch(&mut rx) {
            Ok(0) => continue, // timeout tick: re-check the stop flag
            Ok(_) => {}
            Err(e) => {
                shared.health.record("recv", &e);
                break;
            }
        }
        core.step(clock.now(), &rx, &mut tx);
        if tx.is_empty() {
            continue;
        }
        // Count `served` only for replies the transport accepted.
        match io.send_batch(&tx) {
            Ok(sent) => {
                shared.served.fetch_add(sent as u64, Ordering::Relaxed);
                shared
                    .send_errors
                    .fetch_add((tx.len() - sent) as u64, Ordering::Relaxed);
            }
            Err(e) => {
                shared.health.record("send", &e);
                break;
            }
        }
    }
}

/// The serving half of one daemon worker: its resolver, its upstream
/// transport, a scratch buffer for fast-lane keys and the state it
/// shares with the pool. It owns no thread, socket or clock, so the same
/// code serves under a worker thread or stepped in virtual time.
pub struct Core<U> {
    index: usize,
    cs: CachingServer,
    upstream: U,
    shared: Arc<Shared>,
    key: Vec<u8>,
}

impl<U: Upstream> Core<U> {
    /// Serves the datagrams of `rx` in arrival order at time `now`: `tx`
    /// is cleared, then gets at most one reply per datagram, addressed to
    /// the datagram's peer. Undecodable datagrams and responses (QR set)
    /// get none.
    pub fn step(&mut self, now: SimTime, rx: &PacketBatch, tx: &mut PacketBatch) {
        tx.clear();
        for packet in rx.iter() {
            self.serve_packet(now, packet, tx);
        }
    }

    /// Serves one datagram into `tx` (or drops it: undecodable queries,
    /// responses and unencodable replies get no response).
    fn serve_packet(&mut self, now: SimTime, packet: &Packet, tx: &mut PacketBatch) {
        let raw = packet.bytes();
        let peer = packet.peer();

        // Fast lane: a plain IN query answered straight from compiled
        // bytes — no decode, no resolver, no allocation.
        let lane = &self.shared.lane;
        match wirecache::fast_query(raw) {
            Some(fq) if fq.class == RecordClass::In.code() => {
                let start = Instant::now();
                wirecache::lowercase_key(fq.raw_name, &mut self.key);
                let key = &self.key;
                let mut cache = lane.cache.lock().unwrap();
                let hit = tx.push_with(peer, |buf| cache.serve(key, fq.rtype, raw, now, buf));
                drop(cache);
                if hit {
                    let ns = elapsed_ns(start);
                    self.shared.obs.lock().unwrap().observe_fast(ns);
                    lane.hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                lane.misses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                lane.bypass.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Slow path: full decode → resolve → encode. A response (QR set)
        // is never answered: two servers that answer responses bounce a
        // spoofed datagram between them forever.
        let query = match wire::decode(raw) {
            Ok(query) if !query.header.response => query,
            _ => return,
        };
        let (response, expiry) = self.answer(&query, now);
        let shared = &self.shared;
        let Some((mut bytes, offsets, was_truncated)) =
            encode_or_truncate(&query, &response, &shared.truncated)
        else {
            return; // not even the header+question fits — drop
        };
        // Compile cacheable answers into the wire cache *before* the
        // casing patch, so the stored bytes stay canonical (lowercase):
        // positive IN answers whose record-cache expiry is known.
        if !was_truncated && response.header.rcode == Rcode::NoError && !response.answers.is_empty()
        {
            if let (Some(exp), Some(q)) = (expiry, query.question()) {
                if q.class == RecordClass::In && now < exp {
                    shared
                        .lane
                        .cache
                        .lock()
                        .unwrap()
                        .insert(&q.name, q.rtype, &bytes, &offsets, now, exp);
                }
            }
        }
        // Echo the client's exact question spelling (0x20 randomization):
        // decoding lowercased the name, so patch it back from the raw
        // datagram. Also covers TC-bit fallback replies.
        wire::patch_question_case(&mut bytes, raw);
        tx.push_copy(&bytes, peer);
    }

    fn answer(&mut self, query: &Message, now: SimTime) -> (Message, Option<SimTime>) {
        let mut resp = Message::response_to(query);
        resp.header.recursion_available = true;
        let Some(question) = query.question().cloned() else {
            resp.header.rcode = Rcode::FormErr;
            return (resp, None);
        };
        if question.class == RecordClass::Ch {
            return (answer_chaos(&self.shared, resp, &question), None);
        }
        if self.shared.trace_on.load(Ordering::Relaxed) {
            self.cs.obs_mut().enable_trace();
        }
        let start = Instant::now();
        let outcome = self.cs.resolve(&question, now, &mut self.upstream);
        // The record-cache expiry bounding this answer, which caps the
        // wire-cache entry. `answer_expiry` reports *fresh* records only,
        // so a stale-served answer (RFC 8767 serve-stale window) yields
        // `None` and is never compiled into the wire cache — its TTLs are
        // clamped by the stale path and must not be replayed verbatim by
        // the fast lane.
        let expiry = match &outcome {
            Outcome::Answer { .. } => self.cs.answer_expiry(&question, now),
            _ => None,
        };
        let ns = elapsed_ns(start);
        self.shared.obs.lock().unwrap().observe_slow(ns);
        self.publish();
        match outcome {
            Outcome::Answer { records, .. } => {
                resp.answers = records;
            }
            Outcome::NxDomain { .. } => resp.header.rcode = Rcode::NxDomain,
            Outcome::NoData { .. } => {}
            Outcome::Fail => resp.header.rcode = Rcode::ServFail,
        }
        (resp, expiry)
    }

    /// Copies this core's resolver state out to the pool: counters and
    /// registry into its panel, and — when tracing — the trace of the
    /// resolution just finished into the pool's last-trace slot.
    fn publish(&self) {
        self.shared.panels[self.index]
            .lock()
            .unwrap()
            .publish(&self.cs);
        if let Some(trace) = self.cs.obs().trace() {
            *self.shared.last_trace.lock().unwrap() = Some(trace.clone());
        }
    }
}

/// Answers `CHAOS`-class queries: `TXT metrics.bind.` dumps the daemon's
/// metrics snapshot (one TXT string per metric line, the `version.bind.`
/// convention); everything else is REFUSED. The snapshot is
/// [`metrics_registry`]'s, as for [`Resolved::prometheus`].
fn answer_chaos(shared: &Shared, mut resp: Message, question: &dns_core::Question) -> Message {
    let metrics_name: dns_core::Name = CHAOS_METRICS_NAME.parse().expect("static name");
    if question.rtype != RecordType::Txt || question.name != metrics_name {
        resp.header.rcode = Rcode::Refused;
        return resp;
    }
    for line in metrics_registry(shared).render_compact() {
        resp.answers.push(Record::with_class(
            question.name.clone(),
            RecordClass::Ch,
            Ttl::ZERO,
            RData::Txt(line),
        ));
    }
    resp
}

/// Builds a one-shot [`Registry`] holding the daemon's full metric
/// surface: the resolvers' own registries (the modelled resolve-latency
/// histogram) merged over the pool, every [`DaemonStats`] counter, every
/// [`ResolverMetrics`] counter summed over the pool, the measured
/// wall-clock histograms, and the shared cache's registry. Rendered
/// compact for `CHAOS TXT` answers and as Prometheus text for
/// [`Resolved::prometheus`].
fn metrics_registry(shared: &Shared) -> Registry {
    let mut reg = Registry::new();
    let mut metrics = ResolverMetrics::default();
    for panel in &shared.panels {
        let panel = panel.lock().unwrap();
        metrics = metrics + panel.metrics;
        reg.merge(&panel.obs);
    }
    for f in shared.stats().fields().chain(metrics.fields()) {
        let id = reg.counter(f.name, f.help);
        reg.set(id, f.value);
    }
    reg.merge(&shared.obs.lock().unwrap().registry);
    reg.merge(&shared.cache.merged_registry());
    reg
}

/// Encodes `response`, also returning the byte offset of every record's
/// TTL field (for wire-cache compilation); when the message exceeds the
/// wire limit (oversized answer sets), falls back to a TC-bit truncated
/// reply carrying the header *and the question section*, so the client
/// learns to retry instead of timing out against silence. The `bool` is
/// `true` for the truncated fallback. Returns `None` only when even the
/// fallback cannot be encoded.
fn encode_or_truncate(
    query: &Message,
    response: &Message,
    truncated: &AtomicU64,
) -> Option<(Vec<u8>, Vec<u32>, bool)> {
    if let Ok((bytes, offsets)) = wire::encode_with_ttl_offsets(response) {
        return Some((bytes, offsets, false));
    }
    truncated.fetch_add(1, Ordering::Relaxed);
    let mut tc = Message::response_to(query);
    tc.header.recursion_available = true;
    tc.header.rcode = response.header.rcode;
    tc.header.truncated = true;
    wire::encode_with_ttl_offsets(&tc)
        .ok()
        .map(|(bytes, offsets)| (bytes, offsets, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{Question, RData, Record, RecordType, Ttl};
    use std::net::Ipv4Addr;

    #[test]
    fn oversized_response_degrades_to_truncated_reply() {
        let query = Message::query(9, Question::new("big.test".parse().unwrap(), RecordType::A));
        let mut response = Message::response_to(&query);
        // Far beyond MAX_MESSAGE_LEN once encoded.
        for i in 0..2_000u32 {
            response.answers.push(Record::new(
                "big.test".parse().unwrap(),
                Ttl::from_hours(1),
                RData::A(Ipv4Addr::from(i)),
            ));
        }
        assert!(wire::encode(&response).is_err(), "fixture must overflow");

        let counter = AtomicU64::new(0);
        let (bytes, offsets, was_truncated) =
            encode_or_truncate(&query, &response, &counter).expect("fallback encodes");
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert!(was_truncated);
        assert!(offsets.is_empty(), "TC fallback carries no records");
        let decoded = wire::decode(&bytes).unwrap();
        assert!(decoded.header.truncated);
        assert_eq!(decoded.header.id, 9);
        assert!(decoded.answers.is_empty());
        // The TC reply must still carry the question section: a retrying
        // client matches on it, and 0x20-style clients verify it.
        assert_eq!(
            decoded.question().expect("question survives truncation"),
            query.question().unwrap()
        );

        // A well-sized response passes through untouched, with one TTL
        // offset per record.
        let mut small = Message::response_to(&query);
        small.answers.push(Record::new(
            "big.test".parse().unwrap(),
            Ttl::from_hours(1),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let (bytes, offsets, was_truncated) = encode_or_truncate(&query, &small, &counter).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert!(!was_truncated);
        assert_eq!(offsets.len(), 1);
        assert!(!wire::decode(&bytes).unwrap().header.truncated);
    }

    #[test]
    fn health_records_first_error() {
        let health = Health::default();
        assert!(!health.failed.load(Ordering::Relaxed));
        health.record("recv", &io::Error::other("boom"));
        assert!(health.failed.load(Ordering::Relaxed));
        // A second worker failing on the same socket keeps the first error.
        health.record("send", &io::Error::other("later"));
        assert_eq!(
            health.first_error.lock().unwrap().as_deref(),
            Some("recv: boom")
        );
    }

    #[test]
    fn empty_pool_is_rejected() {
        struct Dead;
        impl Upstream for Dead {
            fn query(
                &mut self,
                _server: Ipv4Addr,
                _query: &Message,
                _now: dns_core::SimTime,
            ) -> Option<Message> {
                None
            }
        }
        let cs = || {
            CachingServer::new(
                dns_resolver::ResolverConfig::vanilla(),
                dns_resolver::RootHints::new(vec![(
                    "a.root-servers.net".parse().unwrap(),
                    Ipv4Addr::new(198, 41, 0, 4),
                )]),
            )
        };
        let err = Resolved::spawn_pool(cs(), Vec::<Dead>::new(), "127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let err =
            Resolved::spawn_io(vec![cs()], vec![Dead], Vec::<UdpPacketIo>::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // One server per core: a single server does not stretch over a
        // two-core pool.
        let err = Resolved::cores(vec![cs()], vec![Dead, Dead]).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let (resolved, _cores) = Resolved::cores(vec![cs()], vec![Dead]).unwrap();
        assert_eq!((resolved.worker_count(), resolved.served()), (0, 0));
    }

    #[test]
    fn clock_never_decreases_and_counts_from_its_anchor() {
        let clock = Clock::start();
        let mut last = clock.now();
        assert!(last <= crate::wall_clock(), "anchored to the wall clock");
        for _ in 0..10_000 {
            assert!(clock.now() >= last);
            last = clock.now();
        }
        // Only monotonic time moves it on from the anchor.
        if let Some(start) = Instant::now().checked_sub(Duration::from_secs(5)) {
            let epoch = Duration::from_secs(1_000);
            let now = Clock { epoch, start }.now().as_secs();
            assert!((1_005..1_010).contains(&now), "{now}");
        }
    }
}
