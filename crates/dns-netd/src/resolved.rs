//! The recursive resolver daemon: a [`CachingServer`] behind a UDP
//! socket, resolving through real upstream sockets in wall-clock time.
//!
//! Since PR 7 the datagram path is *batched* and has a *fast lane*:
//! workers move packets through the [`PacketIo`] trait in batches of up
//! to [`crate::MAX_BATCH`], and a shared [`WireCache`] of pre-serialized
//! responses answers repeat queries by patching the cached bytes in
//! place (ID, RD bit, question casing, decremented TTLs) — no message
//! decode, no resolver lock, no allocation.

use crate::packetio::{Packet, PacketBatch, PacketIo, UdpPacketIo};
use crate::wall_clock;
use crate::wirecache::{self, WireCache};
use dns_core::{wire, Message, RData, Rcode, Record, RecordClass, RecordType, SimTime, Ttl};
use dns_obs::{HistId, Registry};
use dns_resolver::{
    CacheBackend, CachingServer, LocalBackend, Outcome, ResolverConfig, ResolverMetrics, RootHints,
    ShardedCache, Upstream,
};
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    last_error: Mutex<Option<String>>,
}

impl Health {
    fn record(&self, context: &str, e: &io::Error) {
        self.failed.store(true, Ordering::Relaxed);
        *self.last_error.lock().unwrap() = Some(format!("{context}: {e}"));
    }
}

/// Daemon-side observability shared by the worker pool: wall-clock
/// latency split by lane (the resolver's own histogram models *virtual*
/// latency; these measure real elapsed time including lock contention).
/// The split makes the wire cache's latency win directly visible:
/// fast-lane hits never decode, resolve or allocate, so their histogram
/// sits at the clock floor while the slow path carries the real cost.
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
            "wall_latency_fast_ms",
            "Wall-clock latency per wire fast-lane hit in milliseconds",
        );
        let wall_slow = registry.histogram(
            "wall_latency_slow_ms",
            "Wall-clock latency per slow-path resolution in milliseconds",
        );
        DaemonObs {
            registry,
            wall_fast,
            wall_slow,
        }
    }

    fn observe_fast(&mut self, ms: u64) {
        self.registry.observe(self.wall_fast, ms);
    }

    fn observe_slow(&mut self, ms: u64) {
        self.registry.observe(self.wall_slow, ms);
    }
}

/// The wire fast lane, shared by every worker: the pre-serialized
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

/// Everything a worker thread shares with its pool and the daemon handle.
#[derive(Debug)]
struct Shared<B: CacheBackend> {
    stop: AtomicBool,
    served: AtomicU64,
    send_errors: AtomicU64,
    truncated: AtomicU64,
    health: Health,
    /// The pool's resolvers: a single shared entry in default mode, one
    /// per worker in sharded mode (worker `i` resolves through
    /// `servers[i % len]`).
    servers: Vec<Arc<Mutex<CachingServer<B>>>>,
    obs: Mutex<DaemonObs>,
    lane: WireLane,
}

impl<B: CacheBackend> Shared<B> {
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

/// A running recursive resolver daemon.
///
/// Clients send standard DNS queries; the daemon resolves them through
/// its [`CachingServer`] (all resilience schemes apply — the cache is the
/// same code the simulator evaluates) and answers with the outcome:
/// answers as-is, NXDOMAIN/NODATA as negative responses, and resolution
/// failure as SERVFAIL.
///
/// The daemon runs a small worker pool ([`Resolved::spawn_pool`]): every
/// worker drains the shared UDP socket in batches through [`PacketIo`]
/// (the kernel delivers each datagram to exactly one worker) and owns its
/// own upstream transport, so decoding, encoding and socket I/O overlap
/// across workers. Repeat queries for hot names are answered from a
/// shared [`WireCache`] of compiled responses without touching the
/// resolver at all; everything else takes the slow path. In the default
/// mode one [`CachingServer`] sits behind one mutex and workers serialize
/// whole resolutions through it; in sharded mode
/// ([`Resolved::spawn_sharded`]) every worker owns its *own* resolver
/// over one shared [`ShardedCache`], so resolutions proceed concurrently
/// and contend only per cache shard, with single-flight coalescing
/// deduplicating identical in-flight fetches across the pool. A worker
/// that hits a fatal socket error records it ([`Resolved::last_error`])
/// and drops out, flipping [`Resolved::healthy`] — the daemon degrades
/// visibly instead of dying silently.
#[derive(Debug)]
pub struct Resolved<B: CacheBackend = LocalBackend> {
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared<B>>,
}

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
    /// size). All workers share `cs` behind one lock.
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
        Resolved::spawn_servers(vec![cs], upstreams, bind)
    }
}

impl Resolved<ShardedCache> {
    /// Binds `bind` and starts one worker per upstream, every worker
    /// owning its own [`CachingServer`] over one shared [`ShardedCache`]
    /// built from `config` (`config.shards` shards, coalescing per
    /// `config.coalesce`). Worker seeds are derived from `config.seed`
    /// (`seed + worker index`) so query-ID streams stay per-worker
    /// deterministic yet distinct.
    ///
    /// # Errors
    ///
    /// Returns socket-level errors from binding/cloning, and
    /// `InvalidInput` when `upstreams` is empty.
    pub fn spawn_sharded<U>(
        config: ResolverConfig,
        hints: RootHints,
        upstreams: Vec<U>,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Resolved<ShardedCache>>
    where
        U: Upstream + Send + 'static,
    {
        let backend = ShardedCache::new(config.shards);
        let servers = (0..upstreams.len().max(1))
            .map(|i| {
                let config = config.to_builder().seed(config.seed + i as u64).build();
                CachingServer::with_backend(config, hints.clone(), backend.clone())
            })
            .collect();
        Resolved::spawn_servers(servers, upstreams, bind)
    }

    /// The shared sharded backend (coalescing counters, shard registry).
    pub fn sharded_backend(&self) -> ShardedCache {
        self.shared.servers[0].lock().unwrap().backend().clone()
    }
}

impl<B: CacheBackend + Send + 'static> Resolved<B> {
    /// The common pool bring-up: `servers` is either a single resolver
    /// shared by every worker (default mode) or one per upstream
    /// (sharded mode).
    fn spawn_servers<U>(
        servers: Vec<CachingServer<B>>,
        upstreams: Vec<U>,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Resolved<B>>
    where
        U: Upstream + Send + 'static,
    {
        if upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "worker pool needs at least one upstream",
            ));
        }
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let ios = (0..upstreams.len())
            .map(|_| socket.try_clone().map(UdpPacketIo::new))
            .collect::<io::Result<Vec<_>>>()?;
        Self::spawn_with_io(servers, upstreams, ios, addr)
    }

    /// Starts the pool over caller-supplied packet transports instead of
    /// a bound UDP socket — the sim/loopback mode: drive the daemon's
    /// *exact* batched worker loop through [`crate::LoopbackHub`] (or any
    /// other [`PacketIo`]) without opening sockets, e.g. under a
    /// [`crate::FaultInjector`]ed upstream. One worker is started per
    /// `(upstream, io)` pair; [`Resolved::addr`] reports a placeholder.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `upstreams` is empty or the three vectors
    /// disagree on pool size (`servers` may also be a single entry shared
    /// by every worker).
    pub fn spawn_io<U, P>(
        servers: Vec<CachingServer<B>>,
        upstreams: Vec<U>,
        ios: Vec<P>,
    ) -> io::Result<Resolved<B>>
    where
        U: Upstream + Send + 'static,
        P: PacketIo + 'static,
    {
        if upstreams.is_empty() || upstreams.len() != ios.len() || servers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "spawn_io needs matching non-empty upstream/io pools and at least one server",
            ));
        }
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("static addr");
        Self::spawn_with_io(servers, upstreams, ios, addr)
    }

    fn spawn_with_io<U, P>(
        servers: Vec<CachingServer<B>>,
        upstreams: Vec<U>,
        ios: Vec<P>,
        addr: SocketAddr,
    ) -> io::Result<Resolved<B>>
    where
        U: Upstream + Send + 'static,
        P: PacketIo + 'static,
    {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            health: Health::default(),
            servers: servers
                .into_iter()
                .map(|cs| Arc::new(Mutex::new(cs)))
                .collect(),
            obs: Mutex::new(DaemonObs::new()),
            lane: WireLane::default(),
        });

        let mut workers = Vec::with_capacity(upstreams.len());
        for (i, (upstream, io)) in upstreams.into_iter().zip(ios).enumerate() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("resolved-{addr}-w{i}"))
                .spawn(move || Self::worker_loop(io, upstream, &shared, i))
                .expect("spawn resolved worker");
            workers.push(handle);
        }
        Ok(Resolved {
            addr,
            workers,
            shared,
        })
    }

    /// One worker: drain a batch, serve every packet (fast lane first,
    /// slow path otherwise), send the whole batch back.
    fn worker_loop<U: Upstream, P: PacketIo>(
        mut io: P,
        mut upstream: U,
        shared: &Shared<B>,
        index: usize,
    ) {
        let mut rx = PacketBatch::new();
        let mut tx = PacketBatch::new();
        let mut key = Vec::with_capacity(dns_core::MAX_NAME_LEN);
        while !shared.stop.load(Ordering::Relaxed) {
            let n = match io.recv_batch(&mut rx) {
                Ok(0) => continue, // timeout tick: re-check the stop flag
                Ok(n) => n,
                Err(e) => {
                    // Fatal receive error: surface it and retire this
                    // worker instead of dying without a trace.
                    shared.health.record("recv", &e);
                    break;
                }
            };
            tx.clear();
            let now = wall_clock();
            for i in 0..n {
                Self::serve_packet(
                    shared,
                    index,
                    &mut upstream,
                    now,
                    rx.get(i),
                    &mut key,
                    &mut tx,
                );
            }
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

    /// Serves one datagram into `tx` (or drops it: undecodable queries
    /// and unencodable replies get no response, as before).
    fn serve_packet<U: Upstream>(
        shared: &Shared<B>,
        index: usize,
        upstream: &mut U,
        now: SimTime,
        packet: &Packet,
        key: &mut Vec<u8>,
        tx: &mut PacketBatch,
    ) {
        let raw = packet.bytes();
        let peer = packet.peer();

        // Fast lane: a plain IN query answered straight from compiled
        // bytes — no decode, no resolver, no allocation.
        match wirecache::fast_query(raw) {
            Some(fq) if fq.class == RecordClass::In.code() => {
                let start = Instant::now();
                wirecache::lowercase_key(fq.raw_name, key);
                let mut cache = shared.lane.cache.lock().unwrap();
                let hit = tx.push_with(peer, |buf| cache.serve(key, fq.rtype, raw, now, buf));
                drop(cache);
                if hit {
                    let ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
                    shared.obs.lock().unwrap().observe_fast(ms);
                    shared.lane.hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                shared.lane.misses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                shared.lane.bypass.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Slow path: full decode → resolve → encode.
        let Ok(query) = wire::decode(raw) else {
            return;
        };
        let (response, expiry) = Self::answer(shared, index, upstream, &query, now);
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

    fn answer<U: Upstream>(
        shared: &Shared<B>,
        index: usize,
        upstream: &mut U,
        query: &Message,
        now: SimTime,
    ) -> (Message, Option<SimTime>) {
        let mut resp = Message::response_to(query);
        resp.header.recursion_available = true;
        let Some(question) = query.question().cloned() else {
            resp.header.rcode = Rcode::FormErr;
            return (resp, None);
        };
        if question.class == RecordClass::Ch {
            return (Self::answer_chaos(shared, resp, &question), None);
        }
        let start = Instant::now();
        let (outcome, expiry) = {
            let cs = &shared.servers[index % shared.servers.len()];
            let mut cs = cs.lock().unwrap();
            let outcome = cs.resolve(&question, now, upstream);
            // While still holding the resolver: the record-cache expiry
            // bounding this answer, which caps the wire-cache entry.
            // `answer_expiry` reports *fresh* records only, so a
            // stale-served answer (RFC 8767 serve-stale window) yields
            // `None` and is never compiled into the wire cache — its
            // TTLs are clamped by the stale path and must not be
            // replayed verbatim by the fast lane.
            let expiry = match &outcome {
                Outcome::Answer { .. } => cs.answer_expiry(&question, now),
                _ => None,
            };
            (outcome, expiry)
        };
        let wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        shared.obs.lock().unwrap().observe_slow(wall_ms);
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

    /// Answers `CHAOS`-class queries: `TXT metrics.bind.` dumps the
    /// daemon's metrics snapshot (one TXT string per metric line, the
    /// `version.bind.` convention); everything else is REFUSED. The
    /// snapshot is [`metrics_registry`]'s, as for
    /// [`Resolved::prometheus`].
    fn answer_chaos(
        shared: &Shared<B>,
        mut resp: Message,
        question: &dns_core::Question,
    ) -> Message {
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
}

impl<B: CacheBackend> Resolved<B> {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Client queries served so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Number of workers the pool started with.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// `false` once any worker has hit a fatal socket error.
    pub fn healthy(&self) -> bool {
        !self.shared.health.failed.load(Ordering::Relaxed)
    }

    /// The first fatal error a worker recorded, if any.
    pub fn last_error(&self) -> Option<String> {
        self.shared.health.last_error.lock().unwrap().clone()
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

    /// Snapshot of the resolver's counters, summed over every resolver
    /// in the pool (a single resolver in default mode).
    pub fn metrics(&self) -> dns_resolver::ResolverMetrics {
        self.shared
            .servers
            .iter()
            .map(|s| *s.lock().unwrap().metrics())
            .fold(ResolverMetrics::default(), |acc, m| acc + m)
    }

    /// Prometheus-text snapshot of every daemon and resolver metric —
    /// the same registry the `CHAOS TXT metrics.bind.` answer renders in
    /// compact form. With a worker pool the resolvers' counters are
    /// summed and their registries merged, and the shared backend's
    /// registry (shard counters, coalescing totals) is merged in.
    pub fn prometheus(&self) -> String {
        metrics_registry(&self.shared).render_prometheus()
    }

    /// Turns on per-query tracing in every resolver of the pool; the
    /// most recent query's trace is readable via
    /// [`Resolved::explain_last`].
    pub fn enable_trace(&self) {
        for s in self.shared.servers.iter() {
            s.lock().unwrap().obs_mut().enable_trace();
        }
    }

    /// Renders the most recent resolution's trace, when tracing is on
    /// and at least one query has been resolved. With a worker pool the
    /// first worker holding a non-empty trace wins.
    pub fn explain_last(&self) -> Option<String> {
        for s in self.shared.servers.iter() {
            let cs = s.lock().unwrap();
            if let Some(trace) = cs.obs().trace() {
                if !trace.is_empty() {
                    return Some(trace.explain());
                }
            }
        }
        None
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

impl<B: CacheBackend> Drop for Resolved<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<B: CacheBackend> fmt::Display for Resolved<B> {
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

/// Builds a one-shot [`Registry`] holding the daemon's full metric
/// surface: every [`DaemonStats`] counter, every [`ResolverMetrics`]
/// counter summed over the pool, the resolvers' own registries (the
/// modelled resolve-latency histogram) merged over the pool, the
/// measured wall-clock histograms plus their union, and the shared
/// backend's registry when it keeps one. Rendered compact for `CHAOS TXT`
/// answers and as Prometheus text for [`Resolved::prometheus`].
fn metrics_registry<B: CacheBackend>(shared: &Shared<B>) -> Registry {
    let mut reg = Registry::new();
    let mut metrics = ResolverMetrics::default();
    let mut backend = None;
    for s in &shared.servers {
        let cs = s.lock().unwrap();
        metrics = metrics + *cs.metrics();
        reg.merge(cs.obs().registry());
        // Every resolver of a sharded pool shares one backend: take its
        // registry once.
        backend = backend.or_else(|| cs.backend().obs_registry());
    }
    for f in shared.stats().fields().chain(metrics.fields()) {
        let id = reg.counter(f.name, f.help);
        reg.set(id, f.value);
    }
    let obs = shared.obs.lock().unwrap();
    reg.merge(&obs.registry);
    // The pre-split series, kept as the union of both lanes so existing
    // dashboards keep a total-latency view.
    let wall = reg.histogram(
        "wall_latency_ms",
        "Wall-clock resolution latency per client query in milliseconds (both lanes)",
    );
    reg.hist_mut(wall).merge(obs.registry.hist(obs.wall_fast));
    reg.hist_mut(wall).merge(obs.registry.hist(obs.wall_slow));
    drop(obs);
    if let Some(backend) = backend {
        reg.merge(&backend);
    }
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
        assert!(health
            .last_error
            .lock()
            .unwrap()
            .as_deref()
            .unwrap()
            .contains("boom"));
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
        let cs = CachingServer::new(
            dns_resolver::ResolverConfig::vanilla(),
            dns_resolver::RootHints::new(vec![(
                "a.root-servers.net".parse().unwrap(),
                Ipv4Addr::new(198, 41, 0, 4),
            )]),
        );
        let err = Resolved::spawn_pool(cs, Vec::<Dead>::new(), "127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let cs = CachingServer::new(
            dns_resolver::ResolverConfig::vanilla(),
            dns_resolver::RootHints::new(vec![(
                "a.root-servers.net".parse().unwrap(),
                Ipv4Addr::new(198, 41, 0, 4),
            )]),
        );
        let err = Resolved::spawn_io(
            vec![cs],
            vec![Dead],
            Vec::<crate::packetio::ChannelPacketIo>::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
