//! Property-based tests for the core data model and wire codec.

use dns_core::{
    wire, Delegation, Header, Label, Message, Name, NameBuilder, Opcode, Question, RData, Rcode,
    Record, RecordType, Ttl, Zone, ZoneBuilder,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Raw label bytes, independent of any `Name` machinery: the naive model a
/// `Name` must agree with. Most-specific label first, matching `labels()`.
fn arb_raw_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                prop::char::range('a', 'z').prop_map(|c| c as u8),
                prop::char::range('0', '9').prop_map(|c| c as u8),
                Just(b'-'),
                Just(b'_'),
            ],
            1..=12,
        ),
        0..=6,
    )
}

fn name_from_raw(raw: &[Vec<u8>]) -> Name {
    let labels = raw
        .iter()
        .map(|l| Label::new(l).expect("alphabet is valid"))
        .collect();
    Name::from_labels(labels).expect("short names fit")
}

/// Label-wise suffix test on the naive model ("a.b ends with b").
fn model_is_subdomain(a: &[Vec<u8>], b: &[Vec<u8>]) -> bool {
    a.len() >= b.len() && a[a.len() - b.len()..] == *b
}

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(
        prop_oneof![
            prop::char::range('a', 'z').prop_map(|c| c as u8),
            prop::char::range('0', '9').prop_map(|c| c as u8),
            Just(b'-'),
            Just(b'_'),
        ],
        1..=12,
    )
    .prop_map(|bytes| Label::new(&bytes).expect("alphabet is valid"))
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..=6)
        .prop_map(|labels| Name::from_labels(labels).expect("short names fit"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                }
            }),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        "[ -~]{0,40}".prop_map(RData::Txt),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| Record::new(name, Ttl::from_secs(ttl), rdata))
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(Opcode::Query),
            Just(Opcode::IQuery),
            Just(Opcode::Status)
        ],
        prop_oneof![
            Just(Rcode::NoError),
            Just(Rcode::FormErr),
            Just(Rcode::ServFail),
            Just(Rcode::NxDomain),
            Just(Rcode::NotImp),
            Just(Rcode::Refused),
        ],
    )
        .prop_map(
            |(id, response, authoritative, truncated, rd, ra, opcode, rcode)| Header {
                id,
                response,
                opcode,
                authoritative,
                truncated,
                recursion_desired: rd,
                recursion_available: ra,
                rcode,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_header(),
        proptest::collection::vec(
            (arb_name(), prop::sample::select(RecordType::ALL.to_vec()))
                .prop_map(|(n, t)| Question::new(n, t)),
            0..=2,
        ),
        proptest::collection::vec(arb_record(), 0..=4),
        proptest::collection::vec(arb_record(), 0..=4),
        proptest::collection::vec(arb_record(), 0..=4),
    )
        .prop_map(
            |(header, questions, answers, authorities, additionals)| Message {
                header,
                questions,
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    /// Any parsable name survives a display→parse round trip.
    #[test]
    fn name_display_parse_roundtrip(name in arb_name()) {
        let text = name.to_string();
        let back = Name::parse(&text).unwrap();
        prop_assert_eq!(name, back);
    }

    /// Parent reduces the label count by exactly one.
    #[test]
    fn parent_reduces_label_count(name in arb_name()) {
        match name.parent() {
            Some(p) => prop_assert_eq!(p.label_count() + 1, name.label_count()),
            None => prop_assert!(name.is_root()),
        }
    }

    /// `ancestors` yields label_count + 1 names, each the parent of the
    /// previous, ending at the root.
    #[test]
    fn ancestors_chain_is_consistent(name in arb_name()) {
        let chain: Vec<Name> = name.ancestors().collect();
        prop_assert_eq!(chain.len(), name.label_count() + 1);
        prop_assert_eq!(chain.first().unwrap(), &name);
        prop_assert!(chain.last().unwrap().is_root());
        for pair in chain.windows(2) {
            let parent = pair[0].parent();
            prop_assert_eq!(parent.as_ref(), Some(&pair[1]));
            prop_assert!(pair[0].is_proper_subdomain_of(&pair[1]));
        }
    }

    /// Subdomain relation is reflexive and transitive along ancestor chains.
    #[test]
    fn subdomain_of_every_ancestor(name in arb_name()) {
        prop_assert!(name.is_subdomain_of(&name));
        for anc in name.ancestors() {
            prop_assert!(name.is_subdomain_of(&anc));
        }
    }

    /// Messages round-trip exactly through the wire codec.
    #[test]
    fn wire_roundtrip(msg in arb_message()) {
        let bytes = match wire::encode(&msg) {
            Ok(b) => b,
            // Over-long messages are rejected, never silently truncated.
            Err(dns_core::DnsError::MessageTooLong(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("encode failed: {e}"))),
        };
        let back = wire::decode(&bytes).unwrap();
        prop_assert_eq!(msg, back);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode(&bytes);
    }

    /// Decoding any prefix of a valid message never panics.
    #[test]
    fn decode_truncations_never_panic(msg in arb_message(), cut in 0usize..64) {
        if let Ok(bytes) = wire::encode(&msg) {
            let cut = cut.min(bytes.len());
            let _ = wire::decode(&bytes[..bytes.len() - cut]);
        }
    }

    /// Every construction route — `from_labels`, `parse` of the display
    /// form, and an incremental `NameBuilder` — produces the same name,
    /// and `labels()` reads the raw model back out unchanged.
    #[test]
    fn construction_routes_agree(raw in arb_raw_labels()) {
        let via_labels = name_from_raw(&raw);

        let text = raw
            .iter()
            .map(|l| String::from_utf8(l.clone()).unwrap())
            .collect::<Vec<_>>()
            .join(".");
        let via_parse = Name::parse(&text).unwrap();

        let mut builder = NameBuilder::new();
        for label in &raw {
            builder.push(label).unwrap();
        }
        let via_builder = builder.finish().unwrap();

        prop_assert_eq!(&via_labels, &via_parse);
        prop_assert_eq!(&via_labels, &via_builder);
        let read_back: Vec<Vec<u8>> = via_labels.labels().map(|l| l.to_vec()).collect();
        prop_assert_eq!(read_back, raw);
    }

    /// `is_subdomain_of` on arbitrary pairs matches a label-wise suffix
    /// check on the raw model. (Byte-wise suffix comparison would be wrong:
    /// digit bytes overlap the length-prefix range, so "2345.com" must not
    /// claim "12345.com" as a subdomain.)
    #[test]
    fn subdomain_matches_suffix_model(a in arb_raw_labels(), b in arb_raw_labels()) {
        let na = name_from_raw(&a);
        let nb = name_from_raw(&b);
        prop_assert_eq!(na.is_subdomain_of(&nb), model_is_subdomain(&a, &b));
        prop_assert_eq!(nb.is_subdomain_of(&na), model_is_subdomain(&b, &a));
        // Derived suffixes of `a` are always subdomains, whatever `b` was.
        for anc in na.ancestors() {
            prop_assert!(na.is_subdomain_of(&anc));
        }
    }

    /// `Ord` on names matches lexicographic order over the raw label model
    /// (most-specific label first). The infrastructure cache's renewal
    /// schedule is a `BTreeSet` keyed on names, so this order is
    /// load-bearing for experiment determinism.
    #[test]
    fn ordering_matches_label_model(a in arb_raw_labels(), b in arb_raw_labels()) {
        let na = name_from_raw(&a);
        let nb = name_from_raw(&b);
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        // Equality and hashing stay consistent with the model too.
        prop_assert_eq!(na == nb, a == b);
    }

    /// `append` concatenates the label models; `child` is the single-label
    /// special case.
    #[test]
    fn append_matches_model(a in arb_raw_labels(), b in arb_raw_labels()) {
        let na = name_from_raw(&a);
        let nb = name_from_raw(&b);
        // Both inputs are ≤ 6 labels of ≤ 12 bytes, so the result always
        // fits in MAX_NAME_LEN.
        let joined = na.append(&nb).unwrap();
        let mut model = a.clone();
        model.extend(b.iter().cloned());
        let read_back: Vec<Vec<u8>> = joined.labels().map(|l| l.to_vec()).collect();
        prop_assert_eq!(read_back, model);

        if let Some(first) = b.first() {
            let child = nb.parent().unwrap().child(Label::new(first).unwrap());
            prop_assert_eq!(child.unwrap(), nb);
        }
    }

    /// `common_suffix_len` counts matching labels from the root, per the
    /// naive model.
    #[test]
    fn common_suffix_len_matches_model(a in arb_raw_labels(), b in arb_raw_labels()) {
        let na = name_from_raw(&a);
        let nb = name_from_raw(&b);
        let model = a
            .iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count();
        prop_assert_eq!(na.common_suffix_len(&nb), model);
        prop_assert_eq!(nb.common_suffix_len(&na), model);
    }

    /// A name survives the wire codec (including compression against other
    /// names sharing its suffixes) unchanged.
    #[test]
    fn name_wire_roundtrip(raw in arb_raw_labels()) {
        let name = name_from_raw(&raw);
        let mut msg = Message::query(7, Question::new(name.clone(), RecordType::A));
        // Force compression pointers: the answer owner repeats the question
        // name, and an NS target shares every proper suffix.
        msg.answers.push(Record::new(
            name.clone(),
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, 7)),
        ));
        for anc in name.ancestors() {
            msg.authorities.push(Record::new(
                anc.clone(),
                Ttl::from_secs(60),
                RData::Ns(anc),
            ));
        }
        let bytes = wire::encode(&msg).unwrap();
        let back = wire::decode(&bytes).unwrap();
        prop_assert_eq!(msg, back);
    }

    /// TTL expiry is monotone in the TTL value.
    #[test]
    fn ttl_expiry_monotone(a in any::<u32>(), b in any::<u32>(), at in any::<u32>()) {
        let at = dns_core::SimTime::from_secs(at as u64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            Ttl::from_secs(lo).expires_at(at) <= Ttl::from_secs(hi).expires_at(at)
        );
    }
}

/// A small name pool so a zone's records, cuts, glue and probes collide:
/// index 0 is the apex `z.example`, 1..=12 lie one or two labels below it
/// and 13..=14 lie outside it.
const ZONE_POOL: usize = 15;

fn zone_pool_name(idx: usize) -> Name {
    const LABELS: [&str; 3] = ["a", "b", "c"];
    let text = match idx {
        0 => "z.example".to_string(),
        1..=3 => format!("{}.z.example", LABELS[idx - 1]),
        4..=12 => format!(
            "{}.{}.z.example",
            LABELS[(idx - 4) % 3],
            LABELS[(idx - 4) / 3]
        ),
        13 => "a.other.example".to_string(),
        _ => "other.example".to_string(),
    };
    text.parse().expect("pool names are valid")
}

/// A record at an in-zone pool name, of a type drawn from a mix that sorts
/// on both sides of `NS` in the zone's key order.
fn arb_zone_record() -> impl Strategy<Value = Record> {
    (0usize..=12, 0u8..5, any::<u8>()).prop_map(|(owner, kind, x)| {
        let rdata = match kind {
            0 => RData::A(Ipv4Addr::new(192, 0, 2, x)),
            1 => RData::Aaaa(Ipv6Addr::from([x; 16])),
            2 => RData::Txt(format!("t{x}")),
            3 => RData::Mx {
                preference: x.into(),
                exchange: zone_pool_name(usize::from(x) % ZONE_POOL),
            },
            _ => RData::Cname(zone_pool_name(usize::from(x) % ZONE_POOL)),
        };
        Record::new(zone_pool_name(owner), Ttl::from_secs(300), rdata)
    })
}

/// A delegation to an in-zone child whose glue names may sit below the
/// child, elsewhere in the zone or outside it.
fn arb_delegation() -> impl Strategy<Value = Delegation> {
    (
        1usize..=12,
        proptest::collection::vec(0usize..ZONE_POOL, 0..=3),
    )
        .prop_map(|(child, glue)| {
            let child = zone_pool_name(child);
            let glue: Vec<Record> = glue
                .into_iter()
                .map(|g| {
                    Record::new(
                        zone_pool_name(g),
                        Ttl::from_secs(300),
                        RData::A(Ipv4Addr::new(198, 51, 100, g as u8)),
                    )
                })
                .collect();
            let ns_names = glue.iter().map(|g| g.name().clone()).collect();
            Delegation::unsigned(child, ns_names, Ttl::from_secs(300), glue)
        })
}

fn arb_zone() -> impl Strategy<Value = Zone> {
    (
        0usize..ZONE_POOL,
        proptest::collection::vec(arb_zone_record(), 0..=8),
        proptest::collection::vec(arb_delegation(), 0..=3),
    )
        .prop_map(|(ns, records, delegations)| {
            let mut builder = ZoneBuilder::new(zone_pool_name(0)).ns(
                zone_pool_name(ns),
                Ipv4Addr::new(192, 0, 2, 53),
                Ttl::from_secs(300),
            );
            for r in records {
                builder = builder.record(r);
            }
            for d in delegations {
                builder = builder.delegate(d);
            }
            builder.build().expect("pool zones are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Zone::name_exists` agrees with a scan of every RRset, delegation
    /// cut and glue record, for names present and absent.
    #[test]
    fn name_exists_matches_full_scan(zone in arb_zone()) {
        for idx in 0..ZONE_POOL {
            let name = zone_pool_name(idx);
            let scan = zone.rrsets().any(|s| *s.name() == name)
                || zone
                    .delegations()
                    .any(|d| d.child == name || d.glue.iter().any(|g| *g.name() == name));
            prop_assert!(
                zone.name_exists(&name) == scan,
                "name_exists({}) disagrees with the scan ({})",
                name,
                scan
            );
        }
    }
}
