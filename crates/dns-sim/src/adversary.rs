//! Adversarial query-stream generators: NXNSAttack delegation-bomb
//! floods and random-subdomain *water torture*.
//!
//! An [`AdversarySpec`] compiles against a [`Universe`] into a
//! [`CompiledAdversary`] whose event generator emits `qps` attack
//! queries per virtual second inside an attack window, each tagged with
//! the reserved client id [`ADVERSARY_CLIENT`] so the driver can account
//! attacker and legitimate traffic separately.
//! [`Simulation::set_adversary`](crate::Simulation::set_adversary) merges
//! one window into a replay. Attack events are pure
//! functions of `(spec, universe, window)` — no RNG draws are shared
//! with the base trace stream, so the legitimate workload is
//! byte-identical with and without an adversary, and sweeps stay
//! deterministic at any thread count.
//!
//! * **NXNS delegation bombs** target zones injected by
//!   [`Universe::with_delegation_bombs`](dns_trace::Universe::with_delegation_bombs):
//!   each query asks for a fresh nonexistent name under the next bomb
//!   apex (round-robin), driving the resolver through the bomb's
//!   glueless out-of-zone NS fan-out — the amplification MaxFetch(k)
//!   clamps.
//! * **Water torture** sprays never-repeating `nxa…` labels under a
//!   small set of victim second-level zones, pressuring the negative
//!   cache and the per-zone inflight budget.

use dns_core::{Label, Name, Question, RecordType, SimTime};
use dns_trace::{QueryEvent, Universe};
use std::sync::Arc;

/// Client id reserved for adversary-generated queries. The trace
/// generator draws client ids in `0..clients`, far below this, so the
/// driver can split attacker from legitimate accounting by id alone.
pub const ADVERSARY_CLIENT: u32 = u32::MAX;

/// Which attack the adversary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// NXNSAttack: queries for nonexistent names under delegation-bomb
    /// zones (see
    /// [`Universe::with_delegation_bombs`](dns_trace::Universe::with_delegation_bombs)),
    /// round-robin over the bombs so every query hits a cold bomb while
    /// the supply lasts.
    NxnsDelegationBomb,
    /// Random-subdomain NXDOMAIN flood against `victims` legitimate
    /// second-level zones (selected deterministically from the spec
    /// seed), every query a fresh label that can only answer NXDOMAIN.
    WaterTorture {
        /// Number of victim zones the flood rotates over.
        victims: usize,
    },
}

/// A declarative adversary: attack kind, rate and selection seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Attack kind.
    pub kind: AdversaryKind,
    /// Attack queries per virtual second.
    pub qps: u32,
    /// Seed for victim selection (water torture); recorded either way.
    pub seed: u64,
}

impl AdversarySpec {
    /// An NXNS delegation-bomb flood at `qps` queries per second.
    pub fn nxns(qps: u32) -> Self {
        AdversarySpec {
            kind: AdversaryKind::NxnsDelegationBomb,
            qps,
            seed: 0,
        }
    }

    /// A water-torture flood over `victims` zones at `qps` queries per
    /// second, victims chosen deterministically from `seed`.
    pub fn water_torture(victims: usize, qps: u32, seed: u64) -> Self {
        AdversarySpec {
            kind: AdversaryKind::WaterTorture { victims },
            qps,
            seed,
        }
    }

    /// Display label (`nxns-q50`, `torture-v8-q50`, …) — the adversary
    /// column of every adversarial CSV.
    pub fn label(&self) -> String {
        match self.kind {
            AdversaryKind::NxnsDelegationBomb => format!("nxns-q{}", self.qps),
            AdversaryKind::WaterTorture { victims } => {
                format!("torture-v{victims}-q{}", self.qps)
            }
        }
    }

    /// Resolves the spec against a universe: bomb apexes for NXNS,
    /// seed-picked victim zones for water torture.
    ///
    /// # Panics
    ///
    /// Panics when an NXNS spec is compiled against a universe with no
    /// delegation bombs (inject them with
    /// [`Universe::with_delegation_bombs`](dns_trace::Universe::with_delegation_bombs)
    /// first), or when there are fewer candidate zones than requested
    /// water-torture victims.
    pub fn compile(&self, universe: &Universe) -> CompiledAdversary {
        let targets: Vec<Name> = match self.kind {
            AdversaryKind::NxnsDelegationBomb => {
                let bombs = universe.delegation_bomb_apexes();
                assert!(
                    !bombs.is_empty(),
                    "NXNS adversary needs a universe with delegation bombs \
                     (Universe::with_delegation_bombs)"
                );
                bombs
            }
            AdversaryKind::WaterTorture { victims } => {
                let slds: Vec<Name> = universe
                    .zones()
                    .iter()
                    .filter(|z| z.apex.label_count() == 2 && !z.data_names.is_empty())
                    .map(|z| z.apex.clone())
                    .collect();
                assert!(
                    victims > 0 && victims <= slds.len(),
                    "water torture needs 1..={} victims, asked for {victims}",
                    slds.len()
                );
                // Deterministic seed-strided pick: evenly spread over the
                // zone list, offset by the seed. No RNG shared with the
                // trace stream.
                let step = (slds.len() / victims).max(1);
                let offset = splitmix64(self.seed) as usize % slds.len();
                (0..victims)
                    .map(|j| slds[(offset + j * step) % slds.len()].clone())
                    .collect()
            }
        };
        CompiledAdversary {
            spec: *self,
            targets: targets.into(),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An [`AdversarySpec`] resolved against a universe: the concrete
/// target-zone list plus the event generator.
#[derive(Debug, Clone)]
pub struct CompiledAdversary {
    spec: AdversarySpec,
    targets: Arc<[Name]>,
}

impl CompiledAdversary {
    /// The compiled spec.
    pub fn spec(&self) -> &AdversarySpec {
        &self.spec
    }

    /// The target zone apexes (bombs or victims), in rotation order.
    pub fn targets(&self) -> &[Name] {
        &self.targets
    }

    /// Total events the window `[start, end)` emits.
    pub fn total_events(&self, start: SimTime, end: SimTime) -> u64 {
        end.since(start).as_secs() * u64::from(self.spec.qps)
    }

    /// The attack-event generator for `[start, end)`: `qps` events per
    /// whole second, globally numbered so every query name is fresh.
    pub fn events(&self, start: SimTime, end: SimTime) -> AdversaryEvents {
        AdversaryEvents {
            adversary: self.clone(),
            second: start.as_secs(),
            end_second: end.as_secs().max(start.as_secs()),
            within: 0,
            counter: 0,
        }
    }

    fn event(&self, second: u64, counter: u64) -> QueryEvent {
        let target = &self.targets[(counter % self.targets.len() as u64) as usize];
        // Labels starting `nx` never exist in generated universes. The
        // base trace's NXDOMAIN mix uses `nx{0..999}`, so water torture
        // uses an `nxa` prefix to never collide with (and warm) those
        // negative entries; bombs have no legitimate traffic at all.
        let label = match self.spec.kind {
            AdversaryKind::NxnsDelegationBomb => format!("nx{counter}"),
            AdversaryKind::WaterTorture { .. } => format!("nxa{counter}"),
        };
        let name = target
            .child(Label::new(label.as_bytes()).expect("generated labels are valid"))
            .expect("attack names stay short");
        QueryEvent {
            at: SimTime::from_secs(second),
            client: ADVERSARY_CLIENT,
            question: Question::new(name, RecordType::A),
        }
    }
}

/// Iterator over one attack window's [`QueryEvent`]s (see
/// [`CompiledAdversary::events`]).
#[derive(Debug, Clone)]
pub struct AdversaryEvents {
    adversary: CompiledAdversary,
    second: u64,
    end_second: u64,
    within: u32,
    counter: u64,
}

impl Iterator for AdversaryEvents {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        if self.second >= self.end_second || self.adversary.spec.qps == 0 {
            return None;
        }
        let event = self.adversary.event(self.second, self.counter);
        self.counter += 1;
        self.within += 1;
        if self.within >= self.adversary.spec.qps {
            self.within = 0;
            self.second += 1;
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_trace::{NxnsBombSpec, UniverseSpec};

    fn universe() -> Universe {
        UniverseSpec::small()
            .build(7)
            .with_delegation_bombs(NxnsBombSpec::new(32, 8))
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AdversarySpec::nxns(50).label(), "nxns-q50");
        assert_eq!(
            AdversarySpec::water_torture(8, 25, 1).label(),
            "torture-v8-q25"
        );
    }

    #[test]
    fn nxns_events_rotate_over_bombs_with_fresh_labels() {
        let u = universe();
        let adv = AdversarySpec::nxns(2).compile(&u);
        assert_eq!(adv.targets().len(), 32);
        let start = SimTime::from_secs(100);
        let end = SimTime::from_secs(110);
        let events: Vec<QueryEvent> = adv.events(start, end).collect();
        assert_eq!(events.len(), 20);
        assert_eq!(adv.total_events(start, end), 20);
        let mut names = std::collections::HashSet::new();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.client, ADVERSARY_CLIENT);
            assert_eq!(e.at.as_secs(), 100 + i as u64 / 2);
            assert!(
                names.insert(e.question.name.clone()),
                "fresh name per query"
            );
            let bomb = &adv.targets()[i % 32];
            assert!(e.question.name.is_proper_subdomain_of(bomb));
        }
    }

    #[test]
    fn water_torture_targets_real_zones_with_nonexistent_names() {
        let u = universe();
        let adv = AdversarySpec::water_torture(4, 3, 9).compile(&u);
        assert_eq!(adv.targets().len(), 4);
        for victim in adv.targets() {
            let zone = u.get(victim).expect("victims are real zones");
            assert!(!zone.data_names.is_empty(), "victims carry real traffic");
        }
        for e in adv.events(SimTime::ZERO, SimTime::from_secs(5)) {
            let owner = u.zone_of(&e.question.name).expect("under a real zone");
            assert!(owner.query_names().all(|q| *q != e.question.name));
        }
        // Different seeds pick different victim sets.
        let other = AdversarySpec::water_torture(4, 3, 10).compile(&u);
        assert_ne!(adv.targets(), other.targets());
    }

    #[test]
    fn nxns_compile_requires_bombs() {
        let plain = UniverseSpec::small().build(7);
        let r = std::panic::catch_unwind(|| AdversarySpec::nxns(1).compile(&plain));
        assert!(r.is_err(), "compiling NXNS without bombs must panic");
    }
}
