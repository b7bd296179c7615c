//! DNSSEC-structure integration (paper §6): DS records travel with
//! referrals as parent-side infrastructure records, and the resilience
//! schemes keep validation material available through an attack.

use dns_auth::AuthServer;
use dns_core::{
    synthetic_key_digest, Delegation, Message, Name, RData, Record, SimTime, Ttl, ZoneBuilder,
};
use dns_resolver::{CachingServer, ResolverConfig, RootHints, SecureStatus, Upstream};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn ip(a: u8, b: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, a, b)
}

const UCLA_TAG: u16 = 257;
const UCLA_KEY: u32 = 0xACE0_0001;

struct MiniNet {
    servers: HashMap<Ipv4Addr, AuthServer>,
    dead: HashSet<Ipv4Addr>,
}

impl Upstream for MiniNet {
    fn query(&mut self, server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
        if self.dead.contains(&server) {
            return None;
        }
        self.servers.get(&server).map(|s| s.handle_query(query))
    }
}

/// root → edu → ucla.edu, with ucla.edu signed: edu's delegation carries
/// the DS, ucla serves the matching DNSKEY. `mit.edu` stays unsigned, and
/// `bogus.edu` has a DS that matches no key.
fn build_net() -> (MiniNet, RootHints) {
    let mut servers = HashMap::new();

    let root_zone = ZoneBuilder::new(Name::root())
        .ns(name("a.root-servers.net"), ip(0, 1), Ttl::from_days(7))
        .delegate(Delegation::unsigned(
            name("edu"),
            vec![name("ns.edu")],
            Ttl::from_days(2),
            vec![Record::new(
                name("ns.edu"),
                Ttl::from_days(2),
                RData::A(ip(1, 1)),
            )],
        ))
        .build()
        .unwrap();
    let mut root_srv = AuthServer::new(name("a.root-servers.net"), ip(0, 1));
    root_srv.add_zone(root_zone);
    servers.insert(ip(0, 1), root_srv);

    let ds = Record::new(
        name("ucla.edu"),
        Ttl::from_hours(12),
        RData::Ds {
            key_tag: UCLA_TAG,
            digest: synthetic_key_digest(UCLA_KEY),
        },
    );
    let edu_zone = ZoneBuilder::new(name("edu"))
        .ns(name("ns.edu"), ip(1, 1), Ttl::from_days(2))
        .delegate(Delegation {
            child: name("ucla.edu"),
            ns_names: vec![name("ns1.ucla.edu")],
            ns_ttl: Ttl::from_hours(12),
            glue: vec![Record::new(
                name("ns1.ucla.edu"),
                Ttl::from_hours(12),
                RData::A(ip(2, 1)),
            )],
            ds: vec![ds],
        })
        .delegate(Delegation::unsigned(
            name("mit.edu"),
            vec![name("ns1.mit.edu")],
            Ttl::from_hours(12),
            vec![Record::new(
                name("ns1.mit.edu"),
                Ttl::from_hours(12),
                RData::A(ip(3, 1)),
            )],
        ))
        .delegate(Delegation {
            child: name("bogus.edu"),
            ns_names: vec![name("ns1.bogus.edu")],
            ns_ttl: Ttl::from_hours(12),
            glue: vec![Record::new(
                name("ns1.bogus.edu"),
                Ttl::from_hours(12),
                RData::A(ip(4, 1)),
            )],
            // DS that no served key matches.
            ds: vec![Record::new(
                name("bogus.edu"),
                Ttl::from_hours(12),
                RData::Ds {
                    key_tag: 9,
                    digest: 0xBAD0_BAD0,
                },
            )],
        })
        .build()
        .unwrap();
    let mut edu_srv = AuthServer::new(name("ns.edu"), ip(1, 1));
    edu_srv.add_zone(edu_zone);
    servers.insert(ip(1, 1), edu_srv);

    let ucla_zone = ZoneBuilder::new(name("ucla.edu"))
        .ns(name("ns1.ucla.edu"), ip(2, 1), Ttl::from_hours(12))
        .dnskey(UCLA_TAG, UCLA_KEY)
        .a(name("www.ucla.edu"), ip(2, 80), Ttl::from_hours(4))
        .build()
        .unwrap();
    let mut ucla_srv = AuthServer::new(name("ns1.ucla.edu"), ip(2, 1));
    ucla_srv.add_zone(ucla_zone);
    servers.insert(ip(2, 1), ucla_srv);

    let mit_zone = ZoneBuilder::new(name("mit.edu"))
        .ns(name("ns1.mit.edu"), ip(3, 1), Ttl::from_hours(12))
        .a(name("www.mit.edu"), ip(3, 80), Ttl::from_hours(4))
        .build()
        .unwrap();
    let mut mit_srv = AuthServer::new(name("ns1.mit.edu"), ip(3, 1));
    mit_srv.add_zone(mit_zone);
    servers.insert(ip(3, 1), mit_srv);

    let bogus_zone = ZoneBuilder::new(name("bogus.edu"))
        .ns(name("ns1.bogus.edu"), ip(4, 1), Ttl::from_hours(12))
        .dnskey(9, 0x1234_5678) // digest won't match the published DS
        .a(name("www.bogus.edu"), ip(4, 80), Ttl::from_hours(4))
        .build()
        .unwrap();
    let mut bogus_srv = AuthServer::new(name("ns1.bogus.edu"), ip(4, 1));
    bogus_srv.add_zone(bogus_zone);
    servers.insert(ip(4, 1), bogus_srv);

    (
        MiniNet {
            servers,
            dead: HashSet::new(),
        },
        RootHints::new(vec![(name("a.root-servers.net"), ip(0, 1))]),
    )
}

#[test]
fn signed_delegation_validates_secure() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    // Prime: the referral through edu installs ucla's NS + DS.
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    let ds = cs
        .backend()
        .with_infra(&name("ucla.edu"), |e| e.unwrap().ds.clone());
    assert_eq!(ds, vec![(UCLA_TAG, synthetic_key_digest(UCLA_KEY))]);
    assert_eq!(
        cs.validate_zone(&name("ucla.edu"), SimTime::from_mins(1), &mut net),
        SecureStatus::Secure
    );
}

#[test]
fn unsigned_delegation_is_insecure() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    cs.resolve_a(&name("www.mit.edu"), SimTime::ZERO, &mut net);
    assert!(cs
        .backend()
        .with_infra(&name("mit.edu"), |e| e.unwrap().ds.is_empty()));
    assert_eq!(
        cs.validate_zone(&name("mit.edu"), SimTime::from_mins(1), &mut net),
        SecureStatus::Insecure
    );
}

#[test]
fn mismatched_key_is_bogus() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    cs.resolve_a(&name("www.bogus.edu"), SimTime::ZERO, &mut net);
    assert_eq!(
        cs.validate_zone(&name("bogus.edu"), SimTime::from_mins(1), &mut net),
        SecureStatus::Bogus
    );
}

#[test]
fn refresh_keeps_validation_material_through_attack() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    // Touch the zone again at 8h: refresh extends the whole entry —
    // including the DS material riding on it — to 20h.
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(8), &mut net);

    // Black out root and edu (the only DS sources).
    net.dead.insert(ip(0, 1));
    net.dead.insert(ip(1, 1));

    // At 13h a vanilla resolver would have lost the 12h-TTL entry; here
    // both resolution *and validation* still work.
    assert_eq!(
        cs.validate_zone(&name("ucla.edu"), SimTime::from_hours(13), &mut net),
        SecureStatus::Secure
    );
}

#[test]
fn attack_on_child_makes_validation_indeterminate() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    net.dead.insert(ip(2, 1)); // ucla's only server
                               // DS is cached but the DNSKEY cannot be fetched.
    assert_eq!(
        cs.validate_zone(&name("ucla.edu"), SimTime::from_mins(5), &mut net),
        SecureStatus::Indeterminate
    );
}

#[test]
fn ds_expires_with_the_infrastructure_entry() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    // After the 12h entry expires (no refresh in vanilla), validation has
    // no DS to work from.
    assert_eq!(
        cs.validate_zone(&name("ucla.edu"), SimTime::from_hours(13), &mut net),
        SecureStatus::Insecure
    );
}
