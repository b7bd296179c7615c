//! Authoritative zone data: apex records, in-zone data and delegations.

use crate::{DnsError, Name, RData, Record, RecordType, RrKey, RrKeyView, RrSet, Ttl};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// A delegation point inside a zone: the child zone's NS set as stored at
/// the *parent*, plus any glue address records.
///
/// These are exactly the paper's *infrastructure resource records* as seen
/// from the parent side of a zone cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Apex of the child zone.
    pub child: Name,
    /// Names of the child's authoritative servers.
    pub ns_names: Vec<Name>,
    /// TTL of the NS RRset as published by the parent.
    pub ns_ttl: Ttl,
    /// Glue: address records for in-bailiwick server names.
    pub glue: Vec<Record>,
    /// DS records for a signed child (parent-side DNSSEC infrastructure
    /// records, paper §6); empty for unsigned delegations.
    pub ds: Vec<Record>,
}

impl Delegation {
    /// An unsigned delegation (no DS records).
    pub fn unsigned(child: Name, ns_names: Vec<Name>, ns_ttl: Ttl, glue: Vec<Record>) -> Self {
        Delegation {
            child,
            ns_names,
            ns_ttl,
            glue,
            ds: Vec::new(),
        }
    }

    /// Owner names of this delegation's glue that lie outside the child
    /// zone.
    fn stray_glue(&self) -> impl Iterator<Item = &Name> {
        self.glue
            .iter()
            .map(Record::name)
            .filter(|owner| !owner.is_subdomain_of(&self.child))
    }

    /// The NS RRset this delegation publishes.
    pub fn ns_rrset(&self) -> RrSet {
        RrSet::new(
            RrKey::new(self.child.clone(), RecordType::Ns),
            self.ns_ttl,
            self.ns_names.iter().cloned().map(RData::Ns).collect(),
        )
    }
}

/// One authoritative zone: an apex, authoritative records, and delegations
/// to child zones.
///
/// Use [`ZoneBuilder`] to construct zones; it validates apex consistency and
/// derives delegation glue.
///
/// ```rust
/// # fn main() -> Result<(), dns_core::DnsError> {
/// use dns_core::{Name, ZoneBuilder, Ttl};
/// use std::net::Ipv4Addr;
///
/// let zone = ZoneBuilder::new("ucla.edu".parse()?)
///     .ns("ns1.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
///     .a("www.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 80), Ttl::from_hours(4))
///     .build()?;
/// assert_eq!(zone.apex().to_string(), "ucla.edu.");
/// assert_eq!(zone.ns_names().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    apex: Name,
    /// Apex NS names (this zone's own infrastructure records).
    ns_names: Vec<Name>,
    /// TTL for the apex NS set and its glue.
    infra_ttl: Ttl,
    /// The zone's own infrastructure RRsets, the apex NS set and the
    /// address sets of the servers in `ns_names`, kept side by side
    /// because every positive answer carries them.
    infra: Vec<RrSet>,
    /// Every other authoritative RRset, indexed by key: a lookup hashes
    /// the borrowed name once instead of comparing it label by label down
    /// a tree.
    records: HashMap<RrKey, RrSet>,
    /// Delegations to children, sorted by child apex in [`Name`] order,
    /// so a cut lookup binary-searches with the borrowed bytes of each
    /// ancestor instead of a `Name` per step.
    delegations: Vec<Delegation>,
    /// Owner names of glue lying outside its own delegation's child zone,
    /// sorted, one entry per such record. Glue below its child is found
    /// through the cut lookup; generated zones have none of this kind.
    stray_glue: Vec<Name>,
}

impl Zone {
    /// The zone apex name.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Names of this zone's authoritative servers.
    pub fn ns_names(&self) -> &[Name] {
        &self.ns_names
    }

    /// TTL of the zone's own infrastructure records.
    pub fn infra_ttl(&self) -> Ttl {
        self.infra_ttl
    }

    /// Overrides the infrastructure TTL — this is the *long-TTL* knob the
    /// paper gives zone operators. Only the apex NS set and the glue for
    /// this zone's servers are affected; data records keep their TTLs.
    pub fn set_infra_ttl(&mut self, ttl: Ttl) {
        self.infra_ttl = ttl;
        for set in &mut self.infra {
            *set = set.clone().with_ttl(ttl);
        }
    }

    /// Looks up an authoritative RRset without constructing a probe key.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Option<&RrSet> {
        self.infra
            .iter()
            .find(|set| set.rtype() == rtype && set.name() == name)
            .or_else(|| self.records.get(&(name, rtype) as &dyn RrKeyView))
    }

    /// Whether any RRset exists at `name`: authoritative data, a
    /// delegation cut or delegation glue.
    pub fn name_exists(&self, name: &Name) -> bool {
        RecordType::ALL
            .iter()
            .any(|&rtype| self.lookup(name, rtype).is_some())
            || self
                .cuts_enclosing(name)
                .any(|d| d.child == *name || d.glue.iter().any(|g| g.name() == name))
            || self.stray_glue.binary_search(name).is_ok()
    }

    /// The deepest delegation whose child apex is `name` or an ancestor of
    /// it — i.e. the zone cut a query for `name` must be referred through.
    pub fn delegation_for(&self, name: &Name) -> Option<&Delegation> {
        self.cuts_enclosing(name).next()
    }

    /// The delegations whose child apex is `name` or an ancestor of it,
    /// most specific first. Children sit strictly below the apex, so only
    /// ancestors with more labels than the apex are probed, and a zone
    /// without cuts probes none.
    fn cuts_enclosing<'a, 'n>(
        &'a self,
        name: &'n Name,
    ) -> impl Iterator<Item = &'a Delegation> + use<'a, 'n> {
        let below_apex = if self.delegations.is_empty() {
            0
        } else {
            name.label_count().saturating_sub(self.apex.label_count())
        };
        name.ancestor_bytes()
            .take(below_apex)
            .filter_map(|bytes| self.cut_index(bytes).ok().map(|at| &self.delegations[at]))
    }

    /// Where the delegation to the child with suffix bytes `child` sits
    /// in `delegations`, or would be inserted.
    fn cut_index(&self, child: &[u8]) -> Result<usize, usize> {
        self.delegations
            .binary_search_by(|d| d.child.cmp_suffix_bytes(child))
    }

    /// Delegation entry for an exact child apex.
    pub fn delegation(&self, child: &Name) -> Option<&Delegation> {
        let at = self.cut_index(child.as_suffix_bytes()).ok()?;
        Some(&self.delegations[at])
    }

    /// All delegations, ordered by child apex.
    pub fn delegations(&self) -> impl Iterator<Item = &Delegation> {
        self.delegations.iter()
    }

    /// All authoritative RRsets, in no particular order.
    pub fn rrsets(&self) -> impl Iterator<Item = &RrSet> {
        self.infra.iter().chain(self.records.values())
    }

    /// Whether `name` is inside this zone's authority (at or below the apex
    /// and not beyond a delegation cut).
    pub fn is_authoritative_for(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.apex) && self.delegation_for(name).is_none()
    }

    /// Renders the zone in RFC 1035 master-file style: an `$ORIGIN`
    /// line, the authoritative RRsets, then delegation NS/DS/glue records
    /// grouped per child (commented for readability).
    ///
    /// ```rust
    /// # fn main() -> Result<(), dns_core::DnsError> {
    /// use dns_core::{Ttl, ZoneBuilder};
    /// use std::net::Ipv4Addr;
    /// let zone = ZoneBuilder::new("example.com".parse()?)
    ///     .ns("ns1.example.com".parse()?, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
    ///     .build()?;
    /// let text = zone.to_zone_file();
    /// assert!(text.starts_with("$ORIGIN example.com."));
    /// assert!(text.contains("IN NS ns1.example.com."));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_zone_file(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}", self.apex);
        let mut sets: Vec<&RrSet> = self.rrsets().collect();
        sets.sort_by(|a, b| a.key().cmp(b.key()));
        for set in sets {
            for rec in set.to_records() {
                let _ = writeln!(out, "{rec}");
            }
        }
        for d in &self.delegations {
            let _ = writeln!(out, "; delegation: {}", d.child);
            for rec in d.ns_rrset().to_records() {
                let _ = writeln!(out, "{rec}");
            }
            for rec in &d.ds {
                let _ = writeln!(out, "{rec}");
            }
            for rec in &d.glue {
                let _ = writeln!(out, "{rec}");
            }
        }
        out
    }

    /// Adds or replaces a delegation after construction.
    pub fn add_delegation(&mut self, delegation: Delegation) -> Result<(), DnsError> {
        check_below_apex(&self.apex, &delegation)?;
        match self.cut_index(delegation.child.as_suffix_bytes()) {
            Ok(at) => self.delegations[at] = delegation,
            Err(at) => self.delegations.insert(at, delegation),
        }
        self.index_stray_glue();
        Ok(())
    }

    /// Rebuilds the stray-glue index from the delegations.
    fn index_stray_glue(&mut self) {
        self.stray_glue = self
            .delegations
            .iter()
            .flat_map(Delegation::stray_glue)
            .cloned()
            .collect();
        self.stray_glue.sort();
    }
}

/// Rejects a delegation whose child is not strictly below `apex`.
fn check_below_apex(apex: &Name, delegation: &Delegation) -> Result<(), DnsError> {
    if delegation.child.is_proper_subdomain_of(apex) {
        return Ok(());
    }
    Err(DnsError::InvalidZone(format!(
        "delegation {} is not below apex {}",
        delegation.child, apex
    )))
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone {} ({} rrsets, {} delegations, infra ttl {})",
            self.apex,
            self.infra.len() + self.records.len(),
            self.delegations.len(),
            self.infra_ttl
        )
    }
}

/// Incremental builder for [`Zone`].
#[derive(Debug, Clone)]
pub struct ZoneBuilder {
    apex: Name,
    ns: Vec<(Name, Ipv4Addr)>,
    infra_ttl: Ttl,
    records: Vec<Record>,
    delegations: Vec<Delegation>,
    dnskey: Option<(u16, u32)>,
}

impl ZoneBuilder {
    /// Starts a zone at `apex` with a default one-day infrastructure TTL.
    pub fn new(apex: Name) -> Self {
        ZoneBuilder {
            apex,
            ns: Vec::new(),
            infra_ttl: Ttl::from_days(1),
            records: Vec::new(),
            delegations: Vec::new(),
            dnskey: None,
        }
    }

    /// Signs the zone with a synthetic DNSSEC key: publishes a DNSKEY at
    /// the apex (with the infrastructure TTL).
    pub fn dnskey(mut self, key_tag: u16, public_key: u32) -> Self {
        self.dnskey = Some((key_tag, public_key));
        self
    }

    /// Adds an authoritative server (name + address). The address record is
    /// published when the server name is in-zone.
    pub fn ns(mut self, name: Name, addr: Ipv4Addr, ttl: Ttl) -> Self {
        self.infra_ttl = ttl;
        self.ns.push((name, addr));
        self
    }

    /// Sets the infrastructure TTL explicitly.
    pub fn infra_ttl(mut self, ttl: Ttl) -> Self {
        self.infra_ttl = ttl;
        self
    }

    /// Adds an `A` record.
    pub fn a(mut self, name: Name, addr: Ipv4Addr, ttl: Ttl) -> Self {
        self.records.push(Record::new(name, ttl, RData::A(addr)));
        self
    }

    /// Adds an arbitrary record.
    pub fn record(mut self, record: Record) -> Self {
        self.records.push(record);
        self
    }

    /// Adds a delegation to a child zone.
    pub fn delegate(mut self, delegation: Delegation) -> Self {
        self.delegations.push(delegation);
        self
    }

    /// Finalises the zone.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::InvalidZone`] when no NS server was provided, a
    /// record owner lies outside the apex, or a delegation is not below the
    /// apex.
    pub fn build(self) -> Result<Zone, DnsError> {
        if self.ns.is_empty() {
            return Err(DnsError::InvalidZone(format!(
                "zone {} has no name-servers",
                self.apex
            )));
        }
        let mut all: Vec<Record> = Vec::with_capacity(2 * self.ns.len() + 1 + self.records.len());

        // Apex NS set plus in-zone glue.
        for (ns_name, addr) in &self.ns {
            all.push(Record::new(
                self.apex.clone(),
                self.infra_ttl,
                RData::Ns(ns_name.clone()),
            ));
            if ns_name.is_subdomain_of(&self.apex) {
                all.push(Record::new(
                    ns_name.clone(),
                    self.infra_ttl,
                    RData::A(*addr),
                ));
            }
        }

        if let Some((key_tag, public_key)) = self.dnskey {
            all.push(Record::new(
                self.apex.clone(),
                self.infra_ttl,
                RData::Dnskey {
                    key_tag,
                    public_key,
                },
            ));
        }

        for rec in self.records {
            if !rec.name().is_subdomain_of(&self.apex) {
                return Err(DnsError::InvalidZone(format!(
                    "record owner {} outside zone {}",
                    rec.name(),
                    self.apex
                )));
            }
            all.push(rec);
        }

        // One RRset per key, as `RrSet::from_records` groups them: the
        // sort is stable, so each set keeps its RDATA in the order added.
        let same_key = |a: &Record, b: &Record| a.rtype() == b.rtype() && a.name() == b.name();
        all.sort_by(|a, b| a.name().cmp(b.name()).then(a.rtype().cmp(&b.rtype())));
        let (infra, records): (Vec<RrSet>, Vec<RrSet>) = all
            .chunk_by(same_key)
            .map(|group| RrSet::from_records(group).expect("non-empty"))
            .partition(|set| match set.rtype() {
                RecordType::Ns => set.name() == &self.apex,
                RecordType::A | RecordType::Aaaa => self.ns.iter().any(|(ns, _)| ns == set.name()),
                _ => false,
            });
        let mut delegations = self.delegations;
        for d in &delegations {
            check_below_apex(&self.apex, d)?;
        }
        // Sorted in one go; of several delegations to one child the last
        // added wins, as in `Zone::add_delegation`.
        delegations.reverse();
        delegations.sort_by(|a, b| a.child.cmp(&b.child));
        delegations.dedup_by(|a, b| a.child == b.child);
        delegations.shrink_to_fit();
        let mut zone = Zone {
            apex: self.apex,
            ns_names: self.ns.iter().map(|(n, _)| n.clone()).collect(),
            infra_ttl: self.infra_ttl,
            infra,
            records: records
                .into_iter()
                .map(|set| (set.key().clone(), set))
                .collect(),
            delegations,
            stray_glue: Vec::new(),
        };
        zone.index_stray_glue();
        Ok(zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn ucla() -> Zone {
        ZoneBuilder::new(name("ucla.edu"))
            .ns(name("ns1.ucla.edu"), ip(1), Ttl::from_days(1))
            .ns(name("ns2.ucla.edu"), ip(2), Ttl::from_days(1))
            .a(name("www.ucla.edu"), ip(80), Ttl::from_hours(4))
            .delegate(Delegation::unsigned(
                name("cs.ucla.edu"),
                vec![name("ns.cs.ucla.edu")],
                Ttl::from_hours(12),
                vec![Record::new(
                    name("ns.cs.ucla.edu"),
                    Ttl::from_hours(12),
                    RData::A(ip(53)),
                )],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_publishes_apex_ns_and_glue() {
        let z = ucla();
        let ns = z.lookup(&name("ucla.edu"), RecordType::Ns).unwrap();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns.ttl(), Ttl::from_days(1));
        let glue = z.lookup(&name("ns1.ucla.edu"), RecordType::A).unwrap();
        assert_eq!(glue.rdatas(), &[RData::A(ip(1))]);
    }

    #[test]
    fn builder_requires_name_servers() {
        let err = ZoneBuilder::new(name("empty.edu")).build().unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn builder_rejects_out_of_zone_records() {
        let err = ZoneBuilder::new(name("ucla.edu"))
            .ns(name("ns1.ucla.edu"), ip(1), Ttl::from_days(1))
            .a(name("www.mit.edu"), ip(9), Ttl::from_hours(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn delegation_lookup_walks_ancestors() {
        let z = ucla();
        // Query deep below the cut still finds the cs.ucla.edu delegation.
        let d = z.delegation_for(&name("host.lab.cs.ucla.edu")).unwrap();
        assert_eq!(d.child, name("cs.ucla.edu"));
        // Names not under any cut have no delegation.
        assert!(z.delegation_for(&name("www.ucla.edu")).is_none());
        // The apex itself is never delegated.
        assert!(z.delegation_for(&name("ucla.edu")).is_none());
    }

    #[test]
    fn authority_respects_zone_cuts() {
        let z = ucla();
        assert!(z.is_authoritative_for(&name("www.ucla.edu")));
        assert!(z.is_authoritative_for(&name("ucla.edu")));
        assert!(!z.is_authoritative_for(&name("www.cs.ucla.edu")));
        assert!(!z.is_authoritative_for(&name("www.mit.edu")));
    }

    #[test]
    fn set_infra_ttl_rewrites_only_infrastructure() {
        let mut z = ucla();
        z.set_infra_ttl(Ttl::from_days(7));
        assert_eq!(
            z.lookup(&name("ucla.edu"), RecordType::Ns).unwrap().ttl(),
            Ttl::from_days(7)
        );
        assert_eq!(
            z.lookup(&name("ns1.ucla.edu"), RecordType::A)
                .unwrap()
                .ttl(),
            Ttl::from_days(7)
        );
        // Data record untouched.
        assert_eq!(
            z.lookup(&name("www.ucla.edu"), RecordType::A)
                .unwrap()
                .ttl(),
            Ttl::from_hours(4)
        );
    }

    #[test]
    fn add_delegation_validates_subtree() {
        let mut z = ucla();
        let err = z
            .add_delegation(Delegation::unsigned(
                name("mit.edu"),
                vec![name("ns.mit.edu")],
                Ttl::from_days(1),
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn delegation_ns_rrset() {
        let z = ucla();
        let d = z.delegation(&name("cs.ucla.edu")).unwrap();
        let set = d.ns_rrset();
        assert_eq!(set.rtype(), RecordType::Ns);
        assert_eq!(set.ttl(), Ttl::from_hours(12));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn zone_file_rendering_is_complete() {
        let z = ucla();
        let text = z.to_zone_file();
        assert!(text.starts_with("$ORIGIN ucla.edu."));
        // Apex NS, glue, data and the delegation all present.
        assert!(text.contains("ucla.edu. 1d IN NS ns1.ucla.edu."));
        assert!(text.contains("ns1.ucla.edu. 1d IN A 192.0.2.1"));
        assert!(text.contains("www.ucla.edu. 4h IN A 192.0.2.80"));
        assert!(text.contains("; delegation: cs.ucla.edu."));
        assert!(text.contains("cs.ucla.edu. 12h IN NS ns.cs.ucla.edu."));
        assert!(text.contains("ns.cs.ucla.edu. 12h IN A 192.0.2.53"));
    }

    #[test]
    fn name_exists_sees_apex_data_and_glue() {
        let z = ucla();
        assert!(z.name_exists(&name("www.ucla.edu")));
        assert!(z.name_exists(&name("ucla.edu")));
        assert!(z.name_exists(&name("ns.cs.ucla.edu"))); // delegation glue
        assert!(z.name_exists(&name("cs.ucla.edu"))); // the cut itself
        assert!(!z.name_exists(&name("nope.ucla.edu")));
        assert!(!z.name_exists(&name("nope.cs.ucla.edu")));

        // Glue outside its own child zone: beside every cut, and under a
        // sibling's cut. Replacing the delegation retires it.
        let mut z = ucla();
        let glue = |host: &str| Record::new(name(host), Ttl::from_hours(12), RData::A(ip(54)));
        let stray = |glue: Vec<Record>| {
            Delegation::unsigned(
                name("ee.ucla.edu"),
                vec![name("ns.ucla.edu"), name("ns2.cs.ucla.edu")],
                Ttl::from_hours(12),
                glue,
            )
        };
        z.add_delegation(stray(vec![glue("ns.ucla.edu"), glue("ns2.cs.ucla.edu")]))
            .unwrap();
        assert!(z.name_exists(&name("ns.ucla.edu")));
        assert!(z.name_exists(&name("ns2.cs.ucla.edu")));
        assert!(z.name_exists(&name("ee.ucla.edu")));
        z.add_delegation(stray(Vec::new())).unwrap();
        assert!(!z.name_exists(&name("ns.ucla.edu")));
        assert!(!z.name_exists(&name("ns2.cs.ucla.edu")));
        assert!(z.name_exists(&name("ns.cs.ucla.edu")));

        // A zone of 5,000 cuts answers each probe from its own keys.
        let com = name("com");
        let mut builder =
            ZoneBuilder::new(com.clone()).ns(name("a.gtld.net"), ip(1), Ttl::from_days(2));
        for i in 0..5_000 {
            let child = name(&format!("d{i}.com"));
            let ns = name(&format!("ns.d{i}.com"));
            builder = builder.delegate(Delegation::unsigned(
                child,
                vec![ns.clone()],
                Ttl::from_days(2),
                vec![Record::new(ns, Ttl::from_days(2), RData::A(ip(9)))],
            ));
        }
        let z = builder.build().unwrap();
        for i in [0, 2_500, 4_999] {
            assert!(z.name_exists(&name(&format!("d{i}.com"))));
            assert!(z.name_exists(&name(&format!("ns.d{i}.com"))));
            assert!(!z.name_exists(&name(&format!("www.d{i}.com"))));
        }
        assert!(!z.name_exists(&name("d5000.com")));
        assert!(z.name_exists(&com) == z.lookup(&com, RecordType::Ns).is_some());
        assert_eq!(z.delegations().count(), 5_000);
    }
}
