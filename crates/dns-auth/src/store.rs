//! Zone storage and longest-suffix zone selection.

use dns_core::{Name, Zone};
use std::fmt;
use std::sync::Arc;

/// A collection of zones indexed by apex, with longest-match lookup.
///
/// Zones are stored behind [`Arc`] so that the several authoritative
/// servers of a zone (and a simulator hosting thousands of servers) can
/// share a single copy; [`ZoneStore::insert`] accepts both `Zone` and
/// `Arc<Zone>`.
///
/// A server that hosts both `edu` and `ucla.edu` must answer a query for
/// `www.ucla.edu` from the *deeper* zone; [`ZoneStore::find`] implements
/// that rule.
#[derive(Debug, Clone, Default)]
pub struct ZoneStore {
    /// The zones sorted by apex in [`Name`] order, so a lookup
    /// binary-searches with the borrowed bytes of each ancestor instead
    /// of a `Name` per step.
    zones: Vec<Arc<Zone>>,
    /// The most labels of any apex: deeper ancestors cannot be one.
    max_labels: usize,
}

impl ZoneStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ZoneStore::default()
    }

    /// Adds (or replaces) a zone, returning any previous zone at the same
    /// apex.
    pub fn insert(&mut self, zone: impl Into<Arc<Zone>>) -> Option<Arc<Zone>> {
        let zone = zone.into();
        self.max_labels = self.max_labels.max(zone.apex().label_count());
        match self.position(zone.apex().as_suffix_bytes()) {
            Ok(at) => Some(std::mem::replace(&mut self.zones[at], zone)),
            Err(at) => {
                self.zones.insert(at, zone);
                None
            }
        }
    }

    /// Looks up a zone by exact apex.
    pub fn get(&self, apex: &Name) -> Option<&Zone> {
        let at = self.position(apex.as_suffix_bytes()).ok()?;
        Some(&self.zones[at])
    }

    /// Mutable access to a zone by exact apex (copy-on-write when the zone
    /// is shared with other stores).
    pub fn get_mut(&mut self, apex: &Name) -> Option<&mut Zone> {
        let at = self.position(apex.as_suffix_bytes()).ok()?;
        Some(Arc::make_mut(&mut self.zones[at]))
    }

    /// The deepest zone whose apex is `name` or an ancestor of `name`.
    pub fn find(&self, name: &Name) -> Option<&Zone> {
        let too_deep = name.label_count().saturating_sub(self.max_labels);
        let at = name
            .ancestor_bytes()
            .skip(too_deep)
            .find_map(|apex| self.position(apex).ok())?;
        Some(&self.zones[at])
    }

    /// Where the zone whose apex has suffix bytes `apex` sits in `zones`,
    /// or would be inserted.
    fn position(&self, apex: &[u8]) -> Result<usize, usize> {
        self.zones
            .binary_search_by(|zone| zone.apex().cmp_suffix_bytes(apex))
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether no zones are stored.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates over zones in apex order.
    pub fn iter(&self) -> impl Iterator<Item = &Zone> {
        self.zones.iter().map(Arc::as_ref)
    }
}

impl Extend<Zone> for ZoneStore {
    fn extend<T: IntoIterator<Item = Zone>>(&mut self, iter: T) {
        for z in iter {
            self.insert(z);
        }
    }
}

impl FromIterator<Zone> for ZoneStore {
    fn from_iter<T: IntoIterator<Item = Zone>>(iter: T) -> Self {
        let mut s = ZoneStore::new();
        s.extend(iter);
        s
    }
}

impl FromIterator<Arc<Zone>> for ZoneStore {
    fn from_iter<T: IntoIterator<Item = Arc<Zone>>>(iter: T) -> Self {
        let mut s = ZoneStore::new();
        for z in iter {
            s.insert(z);
        }
        s
    }
}

impl fmt::Display for ZoneStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone store ({} zones)", self.zones.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{Ttl, ZoneBuilder};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn zone(apex: &str) -> Zone {
        let apex = name(apex);
        let ns = name("ns1").append(&apex).unwrap();
        ZoneBuilder::new(apex)
            .ns(ns, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
            .build()
            .unwrap()
    }

    #[test]
    fn find_prefers_deepest_zone() {
        let store: ZoneStore = [zone("edu"), zone("ucla.edu")].into_iter().collect();
        assert_eq!(
            store.find(&name("www.ucla.edu")).unwrap().apex(),
            &name("ucla.edu")
        );
        assert_eq!(store.find(&name("mit.edu")).unwrap().apex(), &name("edu"));
        assert!(store.find(&name("example.com")).is_none());
    }

    #[test]
    fn find_matches_apex_itself() {
        let store: ZoneStore = [zone("ucla.edu")].into_iter().collect();
        assert_eq!(
            store.find(&name("ucla.edu")).unwrap().apex(),
            &name("ucla.edu")
        );
    }

    #[test]
    fn root_zone_catches_everything() {
        let root = ZoneBuilder::new(Name::root())
            .ns(
                name("a.root-servers.net"),
                Ipv4Addr::new(198, 41, 0, 4),
                Ttl::from_days(7),
            )
            .build()
            .unwrap();
        let store: ZoneStore = [root].into_iter().collect();
        assert!(store.find(&name("anything.example.org")).is_some());
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut store = ZoneStore::new();
        assert!(store.insert(zone("ucla.edu")).is_none());
        assert!(store.insert(zone("ucla.edu")).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shared_zones_are_not_deep_copied() {
        let shared = Arc::new(zone("ucla.edu"));
        let mut a = ZoneStore::new();
        let mut b = ZoneStore::new();
        a.insert(Arc::clone(&shared));
        b.insert(Arc::clone(&shared));
        // Three handles: ours plus one per store.
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    fn get_mut_copies_on_write() {
        let shared = Arc::new(zone("ucla.edu"));
        let mut a = ZoneStore::new();
        let mut b = ZoneStore::new();
        a.insert(Arc::clone(&shared));
        b.insert(Arc::clone(&shared));
        a.get_mut(&name("ucla.edu"))
            .unwrap()
            .set_infra_ttl(Ttl::from_days(5));
        // `a` sees the new TTL, `b` keeps the original.
        assert_eq!(
            a.get(&name("ucla.edu")).unwrap().infra_ttl(),
            Ttl::from_days(5)
        );
        assert_eq!(
            b.get(&name("ucla.edu")).unwrap().infra_ttl(),
            Ttl::from_days(1)
        );
    }

    #[test]
    fn iter_in_apex_order_is_deterministic() {
        let store: ZoneStore = [zone("b.com"), zone("a.com")].into_iter().collect();
        let apexes: Vec<String> = store.iter().map(|z| z.apex().to_string()).collect();
        let mut sorted = apexes.clone();
        sorted.sort();
        assert_eq!(apexes, sorted);
    }
}
