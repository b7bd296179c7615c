//! Single-flight coalescing: concurrent identical queries share one
//! upstream fetch.
//!
//! The first thread to miss the cache for a `(name, type)` becomes the
//! *leader* and carries a [`FlightToken`]; every thread that arrives while
//! the flight is open blocks on the flight's condvar and receives the
//! leader's published [`Outcome`] verbatim. The table entry is removed
//! before the outcome is published, so a thread arriving after publication
//! starts a fresh flight (and typically hits the now-warm cache instead of
//! fetching).
//!
//! The token publishes [`Outcome::Fail`] on drop: a leader that panics or
//! bails early can never strand its followers on the condvar.

use crate::Outcome;
use dns_core::{Name, RecordType, RrKey};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Completion slot one flight's followers block on.
#[derive(Debug, Default)]
struct FlightSlot {
    outcome: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl FlightSlot {
    fn complete(&self, outcome: Outcome) {
        let mut guard = self.outcome.lock().unwrap();
        if guard.is_none() {
            *guard = Some(outcome);
        }
        drop(guard);
        self.cv.notify_all();
    }

    fn wait(&self) -> Outcome {
        let mut guard = self.outcome.lock().unwrap();
        loop {
            match guard.as_ref() {
                Some(outcome) => return outcome.clone(),
                None => guard = self.cv.wait(guard).unwrap(),
            }
        }
    }
}

/// The in-flight query table shared by every handle of a
/// [`crate::ShardedCache`].
#[derive(Debug, Default)]
pub(crate) struct InflightTable {
    slots: Mutex<HashMap<RrKey, Arc<FlightSlot>>>,
    /// Open-flight counts per target-zone bucket (the query name's
    /// parent), consulted when a per-zone cap is set.
    zone_counts: Mutex<HashMap<Name, u32>>,
    /// Per-zone open-flight cap; `None` = uncapped.
    zone_cap: Mutex<Option<u32>>,
}

/// What [`InflightTable::join_or_lead`] decided for one resolution.
#[derive(Debug)]
pub(crate) enum Flight {
    /// This thread is the leader: perform the fetch, then
    /// [`FlightToken::publish`] the outcome for any followers.
    Lead(FlightToken),
    /// An identical flight was open; its published outcome.
    Shared(Outcome),
    /// The target zone's inflight cap is exhausted: the query is refused
    /// without upstream work (counted as `flood_suppressed`).
    Suppressed,
}

/// Bucket used for per-zone inflight accounting: the query name's parent
/// (for `nx123.victim.example` → `victim.example`), or the name itself at
/// the root. A flood of random subdomains of one victim zone lands in one
/// bucket regardless of the leaf label.
fn zone_bucket(name: &Name) -> Name {
    name.parent().unwrap_or_else(|| name.clone())
}

impl InflightTable {
    /// Sets the per-zone open-flight cap; `None` removes it.
    pub(crate) fn set_zone_cap(&self, cap: Option<u32>) {
        *self.zone_cap.lock().unwrap() = cap;
    }

    /// An empty table with this table's zone cap: open flights belong to
    /// the threads leading them and never carry over to a fork.
    pub(crate) fn fork(&self) -> InflightTable {
        let table = InflightTable::default();
        table.set_zone_cap(*self.zone_cap.lock().unwrap());
        table
    }

    /// Joins the open flight for `(name, rtype)` — blocking until its
    /// leader publishes — opens a new one and returns its token, or
    /// refuses admission when the target zone's cap is exhausted.
    pub(crate) fn join_or_lead(self: &Arc<Self>, name: &Name, rtype: RecordType) -> Flight {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.get(&(name, rtype) as &dyn dns_core::RrKeyView) {
            let slot = Arc::clone(slot);
            drop(slots);
            return Flight::Shared(slot.wait());
        }
        let cap = *self.zone_cap.lock().unwrap();
        let bucket = if let Some(cap) = cap {
            let bucket = zone_bucket(name);
            let mut counts = self.zone_counts.lock().unwrap();
            let open = counts.get(&bucket).copied().unwrap_or(0);
            if open >= cap {
                return Flight::Suppressed;
            }
            counts.insert(bucket.clone(), open + 1);
            Some(bucket)
        } else {
            None
        };
        let key = RrKey::new(name.clone(), rtype);
        let slot = Arc::new(FlightSlot::default());
        slots.insert(key.clone(), Arc::clone(&slot));
        drop(slots);
        Flight::Lead(FlightToken {
            flight: Some(OpenFlight {
                key,
                bucket,
                slot,
                table: Arc::clone(self),
            }),
        })
    }

    fn finish(&self, key: &RrKey, bucket: Option<&Name>, slot: &FlightSlot, outcome: Outcome) {
        // Remove before publishing: a thread arriving after publication
        // must open a fresh flight, never observe a completed slot.
        self.slots.lock().unwrap().remove(key);
        if let Some(bucket) = bucket {
            let mut counts = self.zone_counts.lock().unwrap();
            if let Some(open) = counts.get_mut(bucket) {
                *open = open.saturating_sub(1);
                if *open == 0 {
                    counts.remove(bucket);
                }
            }
        }
        slot.complete(outcome);
    }
}

/// Leadership of one in-flight query (see [`Flight::Lead`]).
///
/// Dropping the token without [`FlightToken::publish`] releases followers
/// with [`Outcome::Fail`].
#[derive(Debug)]
pub(crate) struct FlightToken {
    flight: Option<OpenFlight>,
}

/// The bookkeeping a leading flight must release exactly once: its slot
/// key, the zone bucket charged against the inflight cap, the followers'
/// slot, and the owning table.
#[derive(Debug)]
struct OpenFlight {
    key: RrKey,
    bucket: Option<Name>,
    slot: Arc<FlightSlot>,
    table: Arc<InflightTable>,
}

impl FlightToken {
    /// Publishes the leader's outcome, waking every follower.
    pub(crate) fn publish(mut self, outcome: &Outcome) {
        if let Some(f) = self.flight.take() {
            f.table
                .finish(&f.key, f.bucket.as_ref(), &f.slot, outcome.clone());
        }
    }
}

impl Drop for FlightToken {
    fn drop(&mut self) {
        if let Some(f) = self.flight.take() {
            f.table
                .finish(&f.key, f.bucket.as_ref(), &f.slot, Outcome::Fail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn lead(table: &Arc<InflightTable>, n: &str, rtype: RecordType) -> FlightToken {
        match table.join_or_lead(&name(n), rtype) {
            Flight::Lead(t) => t,
            Flight::Shared(_) => panic!("expected to lead, flight was shared"),
            Flight::Suppressed => panic!("expected to lead, admission suppressed"),
        }
    }

    #[test]
    fn leader_publishes_to_followers() {
        let table = Arc::new(InflightTable::default());
        let token = lead(&table, "www.x.com", RecordType::A);
        let follower = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.join_or_lead(&name("www.x.com"), RecordType::A))
        };
        // Give the follower a chance to block on the slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        token.publish(&Outcome::NxDomain { from_cache: false });
        match follower.join().unwrap() {
            Flight::Shared(Outcome::NxDomain { from_cache: false }) => {}
            Flight::Shared(other) => panic!("follower saw {other:?}"),
            _ => panic!("follower did not share"),
        }
        // The table entry is gone: the next arrival leads a fresh flight.
        let _relead = lead(&table, "www.x.com", RecordType::A);
    }

    #[test]
    fn dropped_token_fails_followers() {
        let table = Arc::new(InflightTable::default());
        let token = lead(&table, "a.x", RecordType::A);
        let follower = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.join_or_lead(&name("a.x"), RecordType::A))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(token);
        assert!(matches!(
            follower.join().unwrap(),
            Flight::Shared(Outcome::Fail)
        ));
    }

    #[test]
    fn distinct_questions_do_not_coalesce() {
        let table = Arc::new(InflightTable::default());
        let _a = lead(&table, "a.x", RecordType::A);
        let _b = lead(&table, "b.x", RecordType::A);
        let _c = lead(&table, "a.x", RecordType::Ns);
    }

    #[test]
    fn zone_cap_suppresses_excess_flights_and_releases_on_finish() {
        let table = Arc::new(InflightTable::default());
        table.set_zone_cap(Some(2));
        // Distinct random subdomains of one victim zone share a bucket.
        let t1 = lead(&table, "nx1.victim.x", RecordType::A);
        let _t2 = lead(&table, "nx2.victim.x", RecordType::A);
        assert!(matches!(
            table.join_or_lead(&name("nx3.victim.x"), RecordType::A),
            Flight::Suppressed
        ));
        // Other zones are unaffected.
        let _other = lead(&table, "www.other.x", RecordType::A);
        // Finishing a flight frees a slot in the bucket.
        t1.publish(&Outcome::Fail);
        let _t3 = lead(&table, "nx3.victim.x", RecordType::A);
        // Removing the cap readmits everything.
        table.set_zone_cap(None);
        let _t4 = lead(&table, "nx4.victim.x", RecordType::A);
        let _t5 = lead(&table, "nx5.victim.x", RecordType::A);
    }
}
