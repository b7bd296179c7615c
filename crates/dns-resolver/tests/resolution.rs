//! End-to-end resolution tests: a caching server resolving through a real
//! root → TLD → SLD hierarchy of [`dns_auth::AuthServer`]s, including
//! attack (blacked-out zone) scenarios that exercise the paper's schemes.

use dns_auth::AuthServer;
use dns_core::{Delegation, Message, Name, RData, Record, RecordType, SimTime, Ttl, ZoneBuilder};
use dns_resolver::{CachingServer, Outcome, RenewalPolicy, ResolverConfig, RootHints, Upstream};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn ip(a: u8, b: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, a, b)
}

/// A miniature internet: authoritative servers addressed by IP, plus a set
/// of blacked-out addresses standing in for a DDoS attack.
struct MiniNet {
    servers: HashMap<Ipv4Addr, AuthServer>,
    dead: HashSet<Ipv4Addr>,
}

impl MiniNet {
    fn add(&mut self, server: AuthServer) {
        self.servers.insert(server.addr(), server);
    }

    fn kill(&mut self, addr: Ipv4Addr) {
        self.dead.insert(addr);
    }

    fn revive(&mut self, addr: Ipv4Addr) {
        self.dead.remove(&addr);
    }
}

impl Upstream for MiniNet {
    fn query(&mut self, server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
        if self.dead.contains(&server) {
            return None;
        }
        self.servers.get(&server).map(|s| s.handle_query(query))
    }
}

/// Builds the test universe:
///
/// ```text
/// .  (a.root, 10.0.0.1)
/// └── edu (ns.edu, 10.0.1.1), IRR TTL 2d
///     └── ucla.edu (ns1/ns2.ucla.edu, 10.0.2.1/.2), IRR TTL 12h
///         ├── www.ucla.edu A 10.0.2.80 (TTL 4h)
///         ├── web.ucla.edu CNAME www.ucla.edu
///         └── cs.ucla.edu (ns.cs.ucla.edu, 10.0.3.1), IRR TTL 1h
///             └── host.cs.ucla.edu A 10.0.3.80 (TTL 10m)
/// com (ns.com, 10.0.4.1), IRR TTL 2d
/// └── offsite.com (ns.offsite.com, 10.0.5.1), hosting edu-side NS target
/// ```
fn build_net() -> (MiniNet, RootHints) {
    let mut net = MiniNet {
        servers: HashMap::new(),
        dead: HashSet::new(),
    };

    let root_zone = ZoneBuilder::new(Name::root())
        .ns(name("a.root-servers.net"), ip(0, 1), Ttl::from_days(7))
        .delegate(Delegation {
            child: name("edu"),
            ns_names: vec![name("ns.edu")],
            ns_ttl: Ttl::from_days(2),
            glue: vec![Record::new(
                name("ns.edu"),
                Ttl::from_days(2),
                RData::A(ip(1, 1)),
            )],
            ds: Vec::new(),
        })
        .delegate(Delegation {
            child: name("com"),
            ns_names: vec![name("ns.com")],
            ns_ttl: Ttl::from_days(2),
            glue: vec![Record::new(
                name("ns.com"),
                Ttl::from_days(2),
                RData::A(ip(4, 1)),
            )],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    let mut root_srv = AuthServer::new(name("a.root-servers.net"), ip(0, 1));
    root_srv.add_zone(root_zone);
    net.add(root_srv);

    let edu_zone = ZoneBuilder::new(name("edu"))
        .ns(name("ns.edu"), ip(1, 1), Ttl::from_days(2))
        .delegate(Delegation {
            child: name("ucla.edu"),
            ns_names: vec![name("ns1.ucla.edu"), name("ns2.ucla.edu")],
            ns_ttl: Ttl::from_hours(12),
            glue: vec![
                Record::new(
                    name("ns1.ucla.edu"),
                    Ttl::from_hours(12),
                    RData::A(ip(2, 1)),
                ),
                Record::new(
                    name("ns2.ucla.edu"),
                    Ttl::from_hours(12),
                    RData::A(ip(2, 2)),
                ),
            ],
            ds: Vec::new(),
        })
        .delegate(Delegation {
            child: name("remote.edu"),
            // Out-of-bailiwick server: no glue possible.
            ns_names: vec![name("ns.offsite.com")],
            ns_ttl: Ttl::from_hours(6),
            glue: vec![],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    let mut edu_srv = AuthServer::new(name("ns.edu"), ip(1, 1));
    edu_srv.add_zone(edu_zone);
    net.add(edu_srv);

    let ucla_zone = ZoneBuilder::new(name("ucla.edu"))
        .ns(name("ns1.ucla.edu"), ip(2, 1), Ttl::from_hours(12))
        .ns(name("ns2.ucla.edu"), ip(2, 2), Ttl::from_hours(12))
        .a(name("www.ucla.edu"), ip(2, 80), Ttl::from_hours(4))
        .record(Record::new(
            name("web.ucla.edu"),
            Ttl::from_hours(4),
            RData::Cname(name("www.ucla.edu")),
        ))
        .delegate(Delegation {
            child: name("cs.ucla.edu"),
            ns_names: vec![name("ns.cs.ucla.edu")],
            ns_ttl: Ttl::from_hours(1),
            glue: vec![Record::new(
                name("ns.cs.ucla.edu"),
                Ttl::from_hours(1),
                RData::A(ip(3, 1)),
            )],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    for (srv_name, addr) in [("ns1.ucla.edu", ip(2, 1)), ("ns2.ucla.edu", ip(2, 2))] {
        let mut srv = AuthServer::new(name(srv_name), addr);
        srv.add_zone(ucla_zone.clone());
        net.add(srv);
    }

    let cs_zone = ZoneBuilder::new(name("cs.ucla.edu"))
        .ns(name("ns.cs.ucla.edu"), ip(3, 1), Ttl::from_hours(1))
        .a(name("host.cs.ucla.edu"), ip(3, 80), Ttl::from_mins(10))
        .build()
        .unwrap();
    let mut cs_srv = AuthServer::new(name("ns.cs.ucla.edu"), ip(3, 1));
    cs_srv.add_zone(cs_zone);
    net.add(cs_srv);

    let com_zone = ZoneBuilder::new(name("com"))
        .ns(name("ns.com"), ip(4, 1), Ttl::from_days(2))
        .delegate(Delegation {
            child: name("offsite.com"),
            ns_names: vec![name("ns.offsite.com")],
            ns_ttl: Ttl::from_days(1),
            glue: vec![Record::new(
                name("ns.offsite.com"),
                Ttl::from_days(1),
                RData::A(ip(5, 1)),
            )],
            ds: Vec::new(),
        })
        .build()
        .unwrap();
    let mut com_srv = AuthServer::new(name("ns.com"), ip(4, 1));
    com_srv.add_zone(com_zone);
    net.add(com_srv);

    let offsite_zone = ZoneBuilder::new(name("offsite.com"))
        .ns(name("ns.offsite.com"), ip(5, 1), Ttl::from_days(1))
        .build()
        .unwrap();
    let remote_zone = ZoneBuilder::new(name("remote.edu"))
        .ns(name("ns.offsite.com"), ip(5, 1), Ttl::from_hours(6))
        .a(name("www.remote.edu"), ip(5, 80), Ttl::from_hours(2))
        .build()
        .unwrap();
    let mut offsite_srv = AuthServer::new(name("ns.offsite.com"), ip(5, 1));
    offsite_srv.add_zone(offsite_zone);
    offsite_srv.add_zone(remote_zone);
    net.add(offsite_srv);

    let hints = RootHints::new(vec![(name("a.root-servers.net"), ip(0, 1))]);
    (net, hints)
}

fn answered_a(outcome: &Outcome) -> Option<Ipv4Addr> {
    match outcome {
        Outcome::Answer { records, .. } => records.iter().rev().find_map(|r| match r.rdata() {
            RData::A(a) => Some(*a),
            _ => None,
        }),
        _ => None,
    }
}

#[test]
fn full_walk_from_root() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    assert_eq!(answered_a(&out), Some(ip(2, 80)));
    assert!(!out.from_cache());
    // Walk: root → edu → ucla.edu = 3 outgoing queries, 2 referrals.
    assert_eq!(cs.metrics().queries_out, 3);
    assert_eq!(cs.metrics().referrals, 2);
}

#[test]
fn second_query_is_cache_hit() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_mins(5), &mut net);
    assert!(out.from_cache());
    assert_eq!(cs.metrics().cache_hits, 1);
    assert_eq!(cs.metrics().queries_out, 3); // unchanged
}

#[test]
fn cached_infrastructure_skips_ancestors() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    // Different name, same zone, after the www TTL but inside the IRR TTL:
    // the resolver must go straight to ucla.edu's servers.
    let before = cs.metrics().queries_out;
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(5), &mut net);
    assert_eq!(answered_a(&out), Some(ip(2, 80)));
    assert_eq!(cs.metrics().queries_out, before + 1);
}

#[test]
fn cname_chain_resolves() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    let out = cs.resolve_a(&name("web.ucla.edu"), SimTime::ZERO, &mut net);
    match &out {
        Outcome::Answer { records, .. } => {
            assert_eq!(records[0].rtype(), RecordType::Cname);
            assert_eq!(answered_a(&out), Some(ip(2, 80)));
        }
        other => panic!("expected answer, got {other:?}"),
    }
}

#[test]
fn nxdomain_is_negative_cached() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    let out = cs.resolve_a(&name("missing.ucla.edu"), SimTime::ZERO, &mut net);
    assert!(matches!(out, Outcome::NxDomain { from_cache: false }));
    let out = cs.resolve_a(&name("missing.ucla.edu"), SimTime::from_mins(1), &mut net);
    assert!(matches!(out, Outcome::NxDomain { from_cache: true }));
    assert_eq!(cs.metrics().negative_answers, 2);
}

#[test]
fn out_of_bailiwick_ns_resolved_via_other_branch() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    // remote.edu's only NS is ns.offsite.com (no glue); resolving it
    // requires a detour through com.
    let out = cs.resolve_a(&name("www.remote.edu"), SimTime::ZERO, &mut net);
    assert_eq!(answered_a(&out), Some(ip(5, 80)));
}

#[test]
fn attack_on_tld_fails_vanilla_after_irr_expiry() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    // Black out root and edu. ucla.edu IRRs live 12h.
    net.kill(ip(0, 1));
    net.kill(ip(1, 1));

    // Inside the IRR TTL: resolution still works (direct to ucla.edu).
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(11), &mut net);
    assert_eq!(answered_a(&out), Some(ip(2, 80)));

    // After IRR expiry the resolver must walk from the (dead) root →
    // failure. (Query a name whose data record is no longer cached; the
    // 11h query re-cached www's A record until 15h.)
    let out = cs.resolve_a(&name("web.ucla.edu"), SimTime::from_hours(13), &mut net);
    assert!(out.is_failure());
    assert_eq!(cs.metrics().failed_in, 1);

    // Revive the infrastructure: resolution recovers.
    net.revive(ip(0, 1));
    net.revive(ip(1, 1));
    let out = cs.resolve_a(&name("web.ucla.edu"), SimTime::from_hours(14), &mut net);
    assert!(out.is_success());
}

#[test]
fn refresh_extends_infrastructure_lifetime_under_attack() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);

    // Prime at t=0, then query again at t=8h: the response from
    // ucla.edu's servers refreshes the IRR TTL to 8h+12h = 20h.
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(8), &mut net);
    assert!(cs.metrics().refreshes >= 1);

    net.kill(ip(0, 1));
    net.kill(ip(1, 1));

    // At t=13h a vanilla resolver would have lost the IRRs (12h TTL); the
    // refreshing resolver still holds them — and this very answer, served
    // by ucla.edu's (alive) servers, refreshes them again to 13h+12h=25h.
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(13), &mut net);
    assert_eq!(answered_a(&out), Some(ip(2, 80)));

    // Once the demand gap exceeds the TTL, refresh alone cannot help:
    // past the last refreshed expiry (25h) the walk from root fails.
    let out = cs.resolve_a(&name("web.ucla.edu"), SimTime::from_hours(38), &mut net);
    assert!(out.is_failure());
}

#[test]
fn vanilla_does_not_refresh_from_responses() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(8), &mut net);
    assert_eq!(cs.metrics().refreshes, 0);

    net.kill(ip(0, 1));
    net.kill(ip(1, 1));
    // IRRs expired at 12h despite the 8h contact.
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(13), &mut net);
    assert!(out.is_failure());
}

#[test]
fn renewal_keeps_zone_alive_without_demand() {
    let (mut net, hints) = build_net();
    let policy = RenewalPolicy::lru(3);
    let mut cs = CachingServer::new(ResolverConfig::with_renewal(policy), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    // ucla.edu IRRs expire at 12h; with credit 3 the resolver renews at
    // 12h, 24h and 36h without any client demand.
    assert_eq!(cs.next_renewal_due(), Some(SimTime::from_hours(12)));

    net.kill(ip(0, 1));
    net.kill(ip(1, 1));

    // Run the clock forward, executing renewals as they come due. The
    // `edu` entry (2-day TTL, credit 3) renews once at 48h → 4 in total.
    cs.run_renewals_until(SimTime::from_hours(49), &mut net);
    assert_eq!(cs.metrics().renewals_sent, 4);
    // edu's servers are dead, so its renewal fails; ucla's 3 succeed.
    assert_eq!(cs.metrics().renewals_ok, 3);

    // 47h: 36h renewal + 12h TTL = fresh until 48h → still resolvable.
    // (Probe on a fork: a real demand query would re-grant credit.)
    let out = cs
        .fork()
        .resolve_a(&name("www.ucla.edu"), SimTime::from_hours(47), &mut net);
    assert!(out.is_success(), "got {out}");

    // After 48h the credit is exhausted and the walk from root fails.
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(49), &mut net);
    assert!(out.is_failure());
}

#[test]
fn renewal_of_attacked_zone_fails_gracefully() {
    let (mut net, hints) = build_net();
    let policy = RenewalPolicy::lru(2);
    let mut cs = CachingServer::new(ResolverConfig::with_renewal(policy), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    // Kill ucla.edu's own servers: renewal of its IRRs cannot succeed.
    net.kill(ip(2, 1));
    net.kill(ip(2, 2));
    cs.run_renewals_until(SimTime::from_hours(12), &mut net);
    assert!(cs.metrics().renewals_sent >= 1);
    assert_eq!(cs.metrics().renewals_ok, 0);
}

#[test]
fn renewal_does_not_grant_itself_credit() {
    let (mut net, hints) = build_net();
    let policy = RenewalPolicy::lru(1);
    let mut cs = CachingServer::new(ResolverConfig::with_renewal(policy), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    // One credit per zone (ucla.edu at 12h, edu at 48h) → exactly two
    // renewals; their responses must not refill their own budgets.
    cs.run_renewals_until(SimTime::from_days(3), &mut net);
    assert_eq!(cs.metrics().renewals_sent, 2);
    cs.run_renewals_until(SimTime::from_days(13), &mut net);
    assert_eq!(cs.metrics().renewals_sent, 2);
}

#[test]
fn long_ttl_zone_survives_longer() {
    let (mut net, hints) = build_net();
    // Operator-side long TTL: republish ucla.edu's IRRs with 3 days.
    for addr in [ip(2, 1), ip(2, 2)] {
        let srv = net.servers.get_mut(&addr).unwrap();
        let zone = srv.zones_mut().get_mut(&name("ucla.edu")).unwrap();
        zone.set_infra_ttl(Ttl::from_days(3));
    }
    // The parent's copy keeps the short TTL; the child copy (RFC 2181)
    // replaces it on first direct contact.
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    net.kill(ip(0, 1));
    net.kill(ip(1, 1));
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_days(2), &mut net);
    assert!(out.is_success());
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_days(4), &mut net);
    assert!(out.is_failure());
}

#[test]
fn ttl_cap_bounds_absurd_zone_ttls() {
    let (mut net, hints) = build_net();
    for addr in [ip(2, 1), ip(2, 2)] {
        let srv = net.servers.get_mut(&addr).unwrap();
        let zone = srv.zones_mut().get_mut(&name("ucla.edu")).unwrap();
        zone.set_infra_ttl(Ttl::from_days(365));
    }
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    // The cap (7 days) applies, so at day 8 the IRRs are gone.
    net.kill(ip(0, 1));
    net.kill(ip(1, 1));
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_days(6), &mut net);
    assert!(out.is_success());
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_days(8), &mut net);
    assert!(out.is_failure());
}

#[test]
fn gap_samples_capture_expiry_to_next_use() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    // ucla.edu IRRs expire at 12h; next demand at 20h → gap 8h.
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(20), &mut net);
    let samples = cs.take_gap_samples();
    let ucla = samples.iter().find(|s| s.zone == name("ucla.edu")).unwrap();
    assert_eq!(ucla.gap.as_secs(), 8 * 3600);
    assert_eq!(ucla.ttl, Ttl::from_hours(12));
}

#[test]
fn occupancy_tracks_fresh_entries() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    let occ = cs.occupancy(SimTime::from_mins(1));
    // Root hints + edu + ucla.edu.
    assert_eq!(occ.zones, 3);
    assert!(occ.data_rrsets >= 1); // www.ucla.edu A
                                   // After everything expires only the hints remain.
    let occ = cs.occupancy(SimTime::from_days(30));
    assert_eq!(occ.zones, 1);
    assert_eq!(occ.data_rrsets, 0);
}

#[test]
fn failed_out_counts_dead_servers() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);
    net.kill(ip(2, 1)); // first ucla server dead, second alive
    let out = cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(5), &mut net);
    assert!(out.is_success());
    assert_eq!(cs.metrics().failed_out, 1); // one timeout before failover
}

/// Re-points the `ucla.edu` delegation (at the `edu` parent) to a new
/// server, and stands the new server up with a distinguishable zone. The
/// old servers keep answering — the "non-cooperative former owner" of
/// paper §6.
fn change_ucla_ownership(net: &mut MiniNet) {
    let new_zone = ZoneBuilder::new(name("ucla.edu"))
        .ns(name("ns9.ucla.edu"), ip(9, 1), Ttl::from_hours(12))
        .a(name("www.ucla.edu"), ip(9, 80), Ttl::from_hours(4))
        .build()
        .unwrap();
    let mut new_srv = AuthServer::new(name("ns9.ucla.edu"), ip(9, 1));
    new_srv.add_zone(new_zone);
    net.add(new_srv);

    let edu_srv = net.servers.get_mut(&ip(1, 1)).unwrap();
    let edu_zone = edu_srv.zones_mut().get_mut(&name("edu")).unwrap();
    edu_zone
        .add_delegation(Delegation {
            child: name("ucla.edu"),
            ns_names: vec![name("ns9.ucla.edu")],
            ns_ttl: Ttl::from_hours(12),
            glue: vec![Record::new(
                name("ns9.ucla.edu"),
                Ttl::from_hours(12),
                RData::A(ip(9, 1)),
            )],
            ds: Vec::new(),
        })
        .unwrap();
}

#[test]
fn without_recheck_a_refreshing_resolver_never_sees_new_owners() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::with_refresh(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    change_ucla_ownership(&mut net);

    // Steady demand (every 8h, inside the 12h IRR TTL) keeps refreshing
    // the old infrastructure; a month later the resolver still talks to
    // the abandoned servers and never learns about the new delegation.
    let mut hour = 8;
    while hour <= 30 * 24 {
        let t = SimTime::from_hours(hour);
        let out = cs.resolve_a(&name("www.ucla.edu"), t, &mut net);
        assert_eq!(answered_a(&out), Some(ip(2, 80)), "hour {hour}");
        hour += 8;
    }
}

#[test]
fn parent_recheck_bounds_delegation_staleness() {
    let (mut net, hints) = build_net();
    let config = ResolverConfig::with_refresh()
        .to_builder()
        .parent_recheck(dns_core::SimDuration::from_days(7))
        .build();
    let mut cs = CachingServer::new(config, hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    change_ucla_ownership(&mut net);

    // Same steady 8-hourly demand as the no-recheck test.
    let mut switched_at = None;
    let mut hour = 8;
    while hour <= 10 * 24 {
        let t = SimTime::from_hours(hour);
        let out = cs.resolve_a(&name("www.ucla.edu"), t, &mut net);
        if answered_a(&out) == Some(ip(9, 80)) && switched_at.is_none() {
            switched_at = Some(hour);
        }
        hour += 8;
    }
    let switched = switched_at.expect("resolver must discover the new owner");
    assert!(
        switched <= 8 * 24,
        "recheck every 7 days must surface the new delegation within ~8 days, got hour {switched}"
    );
}

#[test]
fn responsive_server_is_promoted_after_failover() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    cs.resolve_a(&name("www.ucla.edu"), SimTime::ZERO, &mut net);

    // First ucla server dies; the next query pays one timeout, fails
    // over, and promotes the live server.
    net.kill(ip(2, 1));
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(5), &mut net);
    assert_eq!(cs.metrics().failed_out, 1);

    // Subsequent direct queries go straight to the promoted server — no
    // further timeouts accumulate.
    cs.resolve_a(&name("www.ucla.edu"), SimTime::from_hours(10), &mut net);
    cs.resolve_a(&name("web.ucla.edu"), SimTime::from_hours(11), &mut net);
    assert_eq!(cs.metrics().failed_out, 1);
}

#[test]
fn deep_delegation_resolves_and_caches_by_level() {
    let (mut net, hints) = build_net();
    let mut cs = CachingServer::new(ResolverConfig::vanilla(), hints);
    let out = cs.resolve_a(&name("host.cs.ucla.edu"), SimTime::ZERO, &mut net);
    assert_eq!(answered_a(&out), Some(ip(3, 80)));
    // Walk: root → edu → ucla.edu → cs.ucla.edu.
    assert_eq!(cs.metrics().queries_out, 4);
    // All three zone levels now cached.
    let occ = cs.occupancy(SimTime::from_mins(30));
    assert_eq!(occ.zones, 4); // root, edu, ucla, cs
}
