//! Authoritative zone data: apex records, in-zone data and delegations.

use crate::{DnsError, Name, RData, Record, RecordType, RrKey, RrKeyView, RrSet, Ttl};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Bound;

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
    /// All authoritative records (including apex NS and server A records),
    /// indexed by RRset key.
    records: BTreeMap<RrKey, RrSet>,
    /// Delegations to children, keyed by child apex.
    delegations: BTreeMap<Name, Delegation>,
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
        let apex_ns = RrKey::new(self.apex.clone(), RecordType::Ns);
        if let Some(set) = self.records.remove(&apex_ns) {
            self.records.insert(apex_ns, set.with_ttl(ttl));
        }
        for ns in self.ns_names.clone() {
            for rtype in [RecordType::A, RecordType::Aaaa] {
                let key = RrKey::new(ns.clone(), rtype);
                if let Some(set) = self.records.remove(&key) {
                    self.records.insert(key, set.with_ttl(ttl));
                }
            }
        }
    }

    /// Looks up an authoritative RRset without constructing a probe key.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Option<&RrSet> {
        self.records.get(&(name, rtype) as &dyn RrKeyView)
    }

    /// Whether any RRset exists at `name`: authoritative data, a
    /// delegation cut or delegation glue.
    pub fn name_exists(&self, name: &Name) -> bool {
        // `records` is ordered name-first and `A` is the smallest type, so
        // the first key at or after `(name, A)` is at `name` iff any is.
        let first: &dyn RrKeyView = &(name, RecordType::A);
        self.records
            .range::<dyn RrKeyView, _>((Bound::Included(first), Bound::Unbounded))
            .next()
            .is_some_and(|(k, _)| &k.name == name)
            || self
                .delegations
                .values()
                .any(|d| d.child == *name || d.glue.iter().any(|g| g.name() == name))
    }

    /// The deepest delegation whose child apex is `name` or an ancestor of
    /// it — i.e. the zone cut a query for `name` must be referred through.
    pub fn delegation_for(&self, name: &Name) -> Option<&Delegation> {
        // Walk from most specific ancestor down to (but excluding) the apex.
        name.ancestors()
            .filter(|a| a.is_proper_subdomain_of(&self.apex))
            .find_map(|a| self.delegations.get(&a))
    }

    /// Delegation entry for an exact child apex.
    pub fn delegation(&self, child: &Name) -> Option<&Delegation> {
        self.delegations.get(child)
    }

    /// All delegations, ordered by child apex.
    pub fn delegations(&self) -> impl Iterator<Item = &Delegation> {
        self.delegations.values()
    }

    /// All authoritative RRsets.
    pub fn rrsets(&self) -> impl Iterator<Item = &RrSet> {
        self.records.values()
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
        for set in self.records.values() {
            for rec in set.to_records() {
                let _ = writeln!(out, "{rec}");
            }
        }
        for d in self.delegations.values() {
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

    /// Adds or replaces a delegation after construction. Used by the
    /// namespace generator when wiring up a synthetic tree.
    pub fn add_delegation(&mut self, delegation: Delegation) -> Result<(), DnsError> {
        if !delegation.child.is_proper_subdomain_of(&self.apex) {
            return Err(DnsError::InvalidZone(format!(
                "delegation {} is not below apex {}",
                delegation.child, self.apex
            )));
        }
        self.delegations
            .insert(delegation.child.clone(), delegation);
        Ok(())
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone {} ({} rrsets, {} delegations, infra ttl {})",
            self.apex,
            self.records.len(),
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
        let mut records: BTreeMap<RrKey, RrSet> = BTreeMap::new();
        let mut push = |rec: Record| {
            let key = rec.key();
            match records.get_mut(&key) {
                Some(set) => {
                    let mut all = set.to_records();
                    all.push(rec);
                    *set = RrSet::from_records(&all).expect("non-empty");
                }
                None => {
                    records.insert(key, RrSet::from_records(&[rec]).expect("non-empty"));
                }
            }
        };

        // Apex NS set plus in-zone glue.
        for (ns_name, addr) in &self.ns {
            push(Record::new(
                self.apex.clone(),
                self.infra_ttl,
                RData::Ns(ns_name.clone()),
            ));
            if ns_name.is_subdomain_of(&self.apex) {
                push(Record::new(
                    ns_name.clone(),
                    self.infra_ttl,
                    RData::A(*addr),
                ));
            }
        }

        if let Some((key_tag, public_key)) = self.dnskey {
            push(Record::new(
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
            push(rec);
        }

        let mut zone = Zone {
            apex: self.apex,
            ns_names: self.ns.iter().map(|(n, _)| n.clone()).collect(),
            infra_ttl: self.infra_ttl,
            records,
            delegations: BTreeMap::new(),
        };
        for d in self.delegations {
            zone.add_delegation(d)?;
        }
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
        assert!(!z.name_exists(&name("nope.ucla.edu")));
    }
}
