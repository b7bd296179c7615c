//! Deterministic fault injection for live upstreams: the simulator's
//! attack model (packet loss, per-server blackout windows) replayed
//! against real sockets.
//!
//! [`FaultInjector`] wraps any [`Upstream`] and decides, *before* the
//! wrapped transport is touched, whether each query is dropped (loss,
//! blackout or a scoped rule). Drops return `None` immediately — the retry
//! policy provides the pacing — so a fixed seed yields the exact same
//! drop sequence and therefore the same retry counts, independent of
//! wall-clock timing.
//!
//! A [`FaultHandle`] (cheaply cloneable) steers the injector after it has
//! been moved into a daemon thread: flip loss on, start a blackout of the
//! root servers, read the drop counters.

use dns_core::{Message, Name, RecordType, SimTime};
use dns_resolver::Upstream;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Snapshot of the injector's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Queries forwarded to the wrapped upstream.
    pub passed: u64,
    /// Queries dropped by the loss coin.
    pub dropped_by_loss: u64,
    /// Queries dropped because the target server was blacked out.
    pub dropped_by_blackout: u64,
    /// Queries dropped by a zone/qtype-scoped rule.
    pub dropped_by_scope: u64,
}

impl FaultStats {
    /// Total queries the injector saw.
    pub fn total(&self) -> u64 {
        self.passed + self.dropped_by_loss + self.dropped_by_blackout + self.dropped_by_scope
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: {} passed, {} lost, {} blacked out, {} scoped",
            self.passed, self.dropped_by_loss, self.dropped_by_blackout, self.dropped_by_scope
        )
    }
}

/// Control state shared between the injector (inside the daemon thread)
/// and every [`FaultHandle`].
#[derive(Debug)]
struct Shared {
    /// Loss probability in `[0, 1]`, stored as `f64::to_bits`.
    loss_bits: AtomicU64,
    /// Per-server blackout windows (absolute instants, half-open).
    blackouts: Mutex<HashMap<Ipv4Addr, Vec<(Instant, Instant)>>>,
    /// Zone/qtype-scoped drop rules (the adversarial-scenario scoping:
    /// fail one victim zone, or one query type under it, while the rest
    /// of the namespace stays healthy).
    scoped: Mutex<Vec<ScopedDrop>>,
    passed: AtomicU64,
    lost: AtomicU64,
    blacked: AtomicU64,
    scoped_dropped: AtomicU64,
}

/// One scoped drop rule; see [`FaultHandle::drop_zone`].
#[derive(Debug, Clone)]
struct ScopedDrop {
    zone: Name,
    rtype: Option<RecordType>,
}

impl Shared {
    fn blacked_out(&self, server: Ipv4Addr, at: Instant) -> bool {
        self.blackouts
            .lock()
            .unwrap()
            .get(&server)
            .is_some_and(|windows| windows.iter().any(|&(s, e)| s <= at && at < e))
    }

    fn scope_dropped(&self, query: &Message) -> bool {
        let Some(question) = query.question() else {
            return false;
        };
        self.scoped.lock().unwrap().iter().any(|rule| {
            question.name.is_subdomain_of(&rule.zone)
                && rule.rtype.is_none_or(|t| t == question.rtype)
        })
    }
}

/// An [`Upstream`] wrapper injecting deterministic faults; see the module
/// docs. Create with [`FaultInjector::new`], steer with the returned
/// [`FaultHandle`].
#[derive(Debug)]
pub struct FaultInjector<U> {
    inner: U,
    rng: StdRng,
    shared: Arc<Shared>,
}

/// Remote control for a [`FaultInjector`] that has been moved into a
/// daemon thread.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    shared: Arc<Shared>,
}

impl<U> FaultInjector<U> {
    /// Wraps `inner` with no faults configured; `seed` fixes the loss
    /// coin's sequence.
    pub fn new(inner: U, seed: u64) -> (FaultInjector<U>, FaultHandle) {
        let shared = Arc::new(Shared {
            loss_bits: AtomicU64::new(0.0_f64.to_bits()),
            blackouts: Mutex::new(HashMap::new()),
            scoped: Mutex::new(Vec::new()),
            passed: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            blacked: AtomicU64::new(0),
            scoped_dropped: AtomicU64::new(0),
        });
        let handle = FaultHandle {
            shared: Arc::clone(&shared),
        };
        (
            FaultInjector {
                inner,
                rng: StdRng::seed_from_u64(seed),
                shared,
            },
            handle,
        )
    }

    /// Unwraps the inner upstream.
    pub fn into_inner(self) -> U {
        self.inner
    }

    fn loss_coin(&mut self) -> bool {
        let rate = f64::from_bits(self.shared.loss_bits.load(Ordering::Relaxed));
        // Always draw, so the RNG stream (and thus determinism) does not
        // depend on when loss was switched on.
        let draw = self.rng.random::<f64>();
        rate > 0.0 && draw < rate
    }
}

impl FaultHandle {
    /// Sets the per-query loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0` (1.0 — total loss — is allowed:
    /// that is a blackout expressed as loss).
    pub fn set_loss(&self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        self.shared
            .loss_bits
            .store(rate.to_bits(), Ordering::Relaxed);
    }

    /// Blacks out `servers` starting now for `duration` (the live twin of
    /// the simulator's `Blackout` attack windows in `dns-sim`).
    pub fn blackout(&self, servers: &[Ipv4Addr], duration: Duration) {
        let start = Instant::now();
        let end = start + duration;
        let mut blackouts = self.shared.blackouts.lock().unwrap();
        for &server in servers {
            blackouts.entry(server).or_default().push((start, end));
        }
    }

    /// Drops every query whose question falls under `zone` (the zone apex
    /// included), regardless of which server it targets — the live twin of
    /// a per-zone denial scenario. Scoped drops consume no randomness, so
    /// the loss coin's sequence is unchanged by scoping rules.
    pub fn drop_zone(&self, zone: Name) {
        self.shared
            .scoped
            .lock()
            .unwrap()
            .push(ScopedDrop { zone, rtype: None });
    }

    /// Like [`FaultHandle::drop_zone`], but only for questions of `rtype`
    /// (e.g. fail `AAAA` under a victim zone while `A` stays healthy).
    pub fn drop_zone_qtype(&self, zone: Name, rtype: RecordType) {
        self.shared.scoped.lock().unwrap().push(ScopedDrop {
            zone,
            rtype: Some(rtype),
        });
    }

    /// Clears every configured fault (loss, blackouts, scoped drops).
    /// Counters are kept.
    pub fn clear(&self) {
        self.set_loss(0.0);
        self.shared.blackouts.lock().unwrap().clear();
        self.shared.scoped.lock().unwrap().clear();
    }

    /// Snapshot of the injector's counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            passed: self.shared.passed.load(Ordering::Relaxed),
            dropped_by_loss: self.shared.lost.load(Ordering::Relaxed),
            dropped_by_blackout: self.shared.blacked.load(Ordering::Relaxed),
            dropped_by_scope: self.shared.scoped_dropped.load(Ordering::Relaxed),
        }
    }
}

impl<U: Upstream> Upstream for FaultInjector<U> {
    fn query(&mut self, server: Ipv4Addr, query: &Message, now: SimTime) -> Option<Message> {
        if self.shared.blacked_out(server, Instant::now()) {
            self.shared.blacked.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if self.shared.scope_dropped(query) {
            self.shared.scoped_dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if self.loss_coin() {
            self.shared.lost.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.shared.passed.fetch_add(1, Ordering::Relaxed);
        self.inner.query(server, query, now)
    }

    fn wait(&mut self, millis: u64) {
        self.inner.wait(millis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{Question, RecordType};

    /// Inner upstream that counts calls and always answers.
    #[derive(Default)]
    struct Counting {
        calls: u64,
    }

    impl Upstream for Counting {
        fn query(&mut self, _server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
            self.calls += 1;
            Some(Message::response_to(query))
        }
    }

    fn q() -> Message {
        Message::query(1, Question::new("www.test".parse().unwrap(), RecordType::A))
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);

    #[test]
    fn no_faults_passes_everything_through() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        for _ in 0..10 {
            assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_some());
        }
        let stats = handle.stats();
        assert_eq!(stats.passed, 10);
        assert_eq!(stats.total(), 10);
        assert_eq!(inj.into_inner().calls, 10);
    }

    #[test]
    fn total_loss_drops_everything_without_touching_inner() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        handle.set_loss(1.0);
        for _ in 0..10 {
            assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_none());
        }
        assert_eq!(handle.stats().dropped_by_loss, 10);
        assert_eq!(inj.into_inner().calls, 0);
    }

    #[test]
    fn loss_sequence_is_deterministic_per_seed() {
        let run = |seed| {
            let (mut inj, handle) = FaultInjector::new(Counting::default(), seed);
            handle.set_loss(0.4);
            (0..100)
                .map(|_| inj.query(SERVER, &q(), SimTime::ZERO).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn blackout_applies_per_server_and_expires() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        let other = Ipv4Addr::new(10, 99, 5, 1);
        handle.blackout(&[SERVER], Duration::from_millis(80));
        assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_none());
        assert!(inj.query(other, &q(), SimTime::ZERO).is_some());
        std::thread::sleep(Duration::from_millis(100));
        assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_some());
        let stats = handle.stats();
        assert_eq!(stats.dropped_by_blackout, 1);
        assert_eq!(stats.passed, 2);
    }

    fn q_for(name: &str, rtype: RecordType) -> Message {
        Message::query(1, Question::new(name.parse().unwrap(), rtype))
    }

    #[test]
    fn zone_scoped_drop_hits_only_the_victim_zone() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        handle.drop_zone("victim.test".parse().unwrap());
        assert!(inj
            .query(
                SERVER,
                &q_for("www.victim.test", RecordType::A),
                SimTime::ZERO
            )
            .is_none());
        assert!(inj
            .query(SERVER, &q_for("victim.test", RecordType::A), SimTime::ZERO)
            .is_none());
        assert!(inj
            .query(
                SERVER,
                &q_for("www.other.test", RecordType::A),
                SimTime::ZERO
            )
            .is_some());
        let stats = handle.stats();
        assert_eq!(stats.dropped_by_scope, 2);
        assert_eq!(stats.passed, 1);
        assert_eq!(stats.total(), 3);
        assert_eq!(inj.into_inner().calls, 1);
    }

    #[test]
    fn qtype_scoped_drop_spares_other_types() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        handle.drop_zone_qtype("victim.test".parse().unwrap(), RecordType::Aaaa);
        assert!(inj
            .query(
                SERVER,
                &q_for("www.victim.test", RecordType::Aaaa),
                SimTime::ZERO
            )
            .is_none());
        assert!(inj
            .query(
                SERVER,
                &q_for("www.victim.test", RecordType::A),
                SimTime::ZERO
            )
            .is_some());
        assert_eq!(handle.stats().dropped_by_scope, 1);
    }

    #[test]
    fn scoped_drops_leave_the_loss_sequence_unchanged() {
        let run = |scoped: bool| {
            let (mut inj, handle) = FaultInjector::new(Counting::default(), 42);
            handle.set_loss(0.4);
            if scoped {
                handle.drop_zone("scoped.test".parse().unwrap());
                // Scoped queries short-circuit before the coin…
                assert!(inj
                    .query(
                        SERVER,
                        &q_for("x.scoped.test", RecordType::A),
                        SimTime::ZERO
                    )
                    .is_none());
            }
            // …so the unscoped sequence draws the same coins either way.
            (0..50)
                .map(|_| inj.query(SERVER, &q(), SimTime::ZERO).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn clear_lifts_all_faults() {
        let (mut inj, handle) = FaultInjector::new(Counting::default(), 7);
        handle.set_loss(1.0);
        handle.blackout(&[SERVER], Duration::from_secs(3600));
        assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_none());
        handle.clear();
        assert!(inj.query(SERVER, &q(), SimTime::ZERO).is_some());
    }

    #[test]
    #[should_panic(expected = "loss rate must be in [0, 1]")]
    fn out_of_range_loss_rejected() {
        let (_inj, handle) = FaultInjector::new(Counting::default(), 7);
        handle.set_loss(1.5);
    }
}
