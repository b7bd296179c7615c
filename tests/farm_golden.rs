//! Golden answers for the simulated authoritative farm: every server of
//! the small universes, asked a fixed battery of questions about every
//! zone it hosts, must answer with the same wire bytes forever.
//!
//! Each farm is pinned by an FNV-1a hash over the `wire::encode` bytes of
//! every response in a fixed order, plus a per-kind tally so a mismatch
//! says which kind of answer moved. The battery per (server, zone):
//!
//! * the apex's NS, SOA and A;
//! * every data name (plain hosts, aliases, the mail host) for A, AAAA,
//!   MX and CNAME;
//! * every server host name for A;
//! * a name that does not exist under the apex;
//! * per delegation cut: the child's NS and DS, and a name below it;
//! * a name outside every zone.
//!
//! The signed universe puts DS records on referrals, and the long-TTL
//! builds rewrite the infrastructure TTLs on both sides of every cut.
//! When a change intentionally alters the farm's answers, re-capture
//! with `cargo test -q --test farm_golden -- --nocapture` and explain
//! the change.

use dns_resilience::core::{wire, Message, Name, Question, Rcode, RecordType, ResponseKind, Ttl};
use dns_resilience::prelude::{ServerFarm, UniverseSpec};
use std::net::Ipv4Addr;

/// Answers by kind: answer, referral, NODATA, NXDOMAIN, REFUSED.
type Tally = [u64; 5];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn child(label: &str, parent: &Name) -> Name {
    Name::parse(label)
        .and_then(|l| l.append(parent))
        .expect("valid child name")
}

/// Asks every question of the battery and folds each response into
/// `(hash, tally)`.
fn battery(spec: &UniverseSpec, long_ttl: Option<Ttl>) -> (u64, Tally) {
    let universe = spec.build(7);
    let farm = ServerFarm::build(&universe, long_ttl);
    let mut servers: Vec<(Ipv4Addr, Vec<Name>)> =
        universe.server_assignments().into_iter().collect();
    servers.sort();
    let out_of_zone: Name = "out-of-zone.invalid".parse().expect("valid name");

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut tally: Tally = [0; 5];
    let mut id: u16 = 0;
    let mut ask = |addr: Ipv4Addr, qname: &Name, rtype: RecordType| {
        id = id.wrapping_add(1);
        let query = Message::query(id, Question::new(qname.clone(), rtype));
        let resp = farm.handle(addr, &query).expect("server listens");
        let bytes = wire::encode(&resp).expect("response encodes");
        fnv1a(&mut hash, &(bytes.len() as u16).to_be_bytes());
        fnv1a(&mut hash, &bytes);
        let slot = match resp.kind() {
            ResponseKind::Answer => 0,
            ResponseKind::Referral => 1,
            ResponseKind::NoData => 2,
            ResponseKind::NxDomain => 3,
            ResponseKind::Error(Rcode::Refused) => 4,
            other => panic!("unexpected {other:?} for {qname} {rtype} at {addr}"),
        };
        tally[slot] += 1;
    };

    for (addr, mut apexes) in servers {
        apexes.sort();
        let server = farm.get(addr).expect("assigned server exists");
        for apex in &apexes {
            let spec = universe.get(apex).expect("assigned zone exists");
            let zone = server.zones().get(apex).expect("server hosts its zones");
            for rtype in [RecordType::Ns, RecordType::Soa, RecordType::A] {
                ask(addr, apex, rtype);
            }
            let mut data_names: Vec<&Name> = spec.data_names.iter().map(|(n, _)| n).collect();
            data_names.extend(spec.cnames.iter().map(|(alias, _, _)| alias));
            let mail = child("mail", apex);
            if spec.has_mx {
                data_names.push(&mail);
            }
            for name in data_names {
                for rtype in [
                    RecordType::A,
                    RecordType::Aaaa,
                    RecordType::Mx,
                    RecordType::Cname,
                ] {
                    ask(addr, name, rtype);
                }
            }
            for (host, _) in &spec.ns {
                ask(addr, host, RecordType::A);
            }
            ask(addr, &child("no-such-name", apex), RecordType::A);
            for cut in zone.delegations() {
                ask(addr, &cut.child, RecordType::Ns);
                ask(addr, &cut.child, RecordType::Ds);
                ask(addr, &child("below", &cut.child), RecordType::A);
            }
            ask(addr, &out_of_zone, RecordType::A);
        }
    }
    (hash, tally)
}

fn check(spec: &UniverseSpec, long_ttl: Option<Ttl>, golden: (u64, Tally)) {
    let got = battery(spec, long_ttl);
    println!("{:#018x} {:?}", got.0, got.1);
    assert_eq!(got.1, golden.1, "answers by kind moved");
    assert_eq!(got.0, golden.0, "answer bytes moved");
}

#[test]
fn small_universe_farm_answers_are_byte_identical() {
    check(
        &UniverseSpec::small(),
        None,
        (
            0x522f_a76a_3a83_78ae,
            [38_719, 14_028, 66_902, 5_821, 6_156],
        ),
    );
}

#[test]
fn small_universe_long_ttl_farm_answers_are_byte_identical() {
    check(
        &UniverseSpec::small(),
        Some(Ttl::from_days(3)),
        (
            0x4d3c_cecf_78f8_7a68,
            [38_719, 14_028, 66_902, 5_821, 6_156],
        ),
    );
}

#[test]
fn signed_universe_farm_answers_are_byte_identical() {
    check(
        &UniverseSpec::small_signed(),
        None,
        (
            0xf60b_dd28_4840_0a2c,
            [46_872, 14_302, 61_226, 5_945, 6_264],
        ),
    );
}

#[test]
fn signed_universe_long_ttl_farm_answers_are_byte_identical() {
    check(
        &UniverseSpec::small_signed(),
        Some(Ttl::from_days(3)),
        (
            0x43e7_3206_b04c_792d,
            [46_872, 14_302, 61_226, 5_945, 6_264],
        ),
    );
}
