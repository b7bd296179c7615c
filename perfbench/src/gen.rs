//! Seeded query generation and the reply checker.
//!
//! The daemon receives only the datagrams built here: A queries for a
//! Zipf-popular set of names in the leaf zone, each with random 0x20
//! casing, and (on the torture mix) never-repeated random labels under
//! the same zone, which must come back NXDOMAIN.

/// Leaf zone the hot names and torture labels live in.
pub const LEAF_ZONE: &str = "bench.test";
/// Number of hot names in the leaf zone.
pub const HOT_NAMES: usize = 1000;
/// Zipf exponent of hot-name popularity.
const ZIPF_ALPHA: f64 = 0.9;
const HDR: usize = 12;

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FBE_9C00_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Owner label of hot name `i`.
pub fn hot_label(i: usize) -> String {
    format!("n{i}")
}

/// The A address the leaf zone holds for hot name `i`.
pub fn hot_addr(i: usize) -> [u8; 4] {
    [198, 18, (i >> 8) as u8, (i & 0xff) as u8]
}

/// Uncompressed lowercase wire bytes of `labels`, ending in the root
/// zero byte.
fn wire_name(labels: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in labels {
        out.push(l.len() as u8);
        out.extend_from_slice(l.as_bytes());
    }
    out.push(0);
    out
}

/// What a correct reply to one query looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// NOERROR with this A address; `name` indexes the hot set.
    Hot { name: u16, addr: [u8; 4] },
    /// NXDOMAIN with no answers.
    NxDomain,
}

/// Deterministic query source for one workload and seed.
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: Rng,
    /// Cumulative Zipf weights over the hot names.
    cdf: Vec<f64>,
    /// Lowercase wire names of the hot set (root byte excluded).
    names: Vec<Vec<u8>>,
    /// Wire bytes of the leaf zone suffix (root byte included).
    zone: Vec<u8>,
    /// One query in `torture_every` is a torture label (0: never).
    torture_every: u64,
    torture_seq: u64,
    torture_key: u64,
}

impl QueryGen {
    pub fn new(seed: u64, torture_every: u64) -> QueryGen {
        let mut acc = 0.0;
        let cdf: Vec<f64> = (0..HOT_NAMES)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_ALPHA);
                acc
            })
            .collect();
        let zone_labels: Vec<&str> = LEAF_ZONE.split('.').collect();
        let names = (0..HOT_NAMES)
            .map(|i| {
                let label = hot_label(i);
                let mut labels = vec![label.as_str()];
                labels.extend(&zone_labels);
                let mut w = wire_name(&labels);
                w.pop();
                w
            })
            .collect();
        let mut rng = Rng::new(seed);
        let torture_key = rng.next_u64();
        QueryGen {
            rng,
            cdf,
            names,
            zone: wire_name(&zone_labels),
            torture_every,
            torture_seq: 0,
            torture_key,
        }
    }

    fn zipf(&mut self) -> usize {
        let total = *self.cdf.last().expect("non-empty hot set");
        let u = self.rng.unit() * total;
        self.cdf.partition_point(|&c| c <= u).min(HOT_NAMES - 1)
    }

    /// Writes query `id` for hot name `name` into `buf`; returns its length.
    pub fn hot_query(&mut self, id: u16, name: usize, buf: &mut [u8]) -> usize {
        let n = self.names[name].len();
        header(id, buf);
        buf[HDR..HDR + n].copy_from_slice(&self.names[name]);
        buf[HDR + n] = 0;
        self.finish(HDR + n + 1, buf)
    }

    /// Writes the next query of the sequence into `buf` (at least 512
    /// bytes) under `id`; returns its length and the reply it expects.
    pub fn next_query(&mut self, id: u16, buf: &mut [u8]) -> (usize, Expect) {
        let torture =
            self.torture_every > 0 && self.rng.next_u64().is_multiple_of(self.torture_every);
        if !torture {
            let name = self.zipf();
            let len = self.hot_query(id, name, buf);
            return (
                len,
                Expect::Hot {
                    name: name as u16,
                    addr: hot_addr(name),
                },
            );
        }
        // A 16-hex-digit label from a bijection of the sequence number:
        // never repeated within a run.
        let label = mix(self.torture_seq ^ self.torture_key);
        self.torture_seq += 1;
        header(id, buf);
        buf[HDR] = 17;
        buf[HDR + 1] = b'x';
        for k in 0..16 {
            let nibble = ((label >> (60 - 4 * k)) & 0xf) as usize;
            buf[HDR + 2 + k] = b"0123456789abcdef"[nibble];
        }
        let pos = HDR + 18;
        buf[pos..pos + self.zone.len()].copy_from_slice(&self.zone);
        (self.finish(pos + self.zone.len(), buf), Expect::NxDomain)
    }

    /// Randomises the question's letter casing (0x20) and appends
    /// QTYPE=A, QCLASS=IN after the name ending at `end`.
    fn finish(&mut self, end: usize, buf: &mut [u8]) -> usize {
        let mut bits = self.rng.next_u64();
        for (k, b) in buf[HDR..end].iter_mut().enumerate() {
            if b.is_ascii_lowercase() && (bits >> (k % 64)) & 1 == 1 {
                *b = b.to_ascii_uppercase();
            }
            if k % 64 == 63 {
                bits = self.rng.next_u64();
            }
        }
        buf[end..end + 4].copy_from_slice(&[0, 1, 0, 1]);
        end + 4
    }
}

fn header(id: u16, buf: &mut [u8]) {
    buf[..HDR].copy_from_slice(&[0, 0, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    buf[..2].copy_from_slice(&id.to_be_bytes());
}

/// Why a reply was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    Malformed,
    Id,
    NotResponse,
    Question,
    Rcode(u8),
    Answer,
}

/// The query ID of a datagram (0 for a runt).
pub fn datagram_id(d: &[u8]) -> u16 {
    if d.len() < 2 {
        return 0;
    }
    u16::from_be_bytes([d[0], d[1]])
}

fn skip_name(d: &[u8], mut p: usize) -> Option<usize> {
    loop {
        let b = *d.get(p)?;
        if b == 0 {
            return Some(p + 1);
        }
        if b & 0xC0 == 0xC0 {
            return Some(p + 2);
        }
        p += 1 + b as usize;
    }
}

/// Checks `reply` against the `query` datagram it answers: same ID, a
/// response, the question echoed byte for byte (0x20 casing included),
/// and the expected rcode and A data.
pub fn check_reply(query: &[u8], expect: Expect, reply: &[u8]) -> Result<(), Mismatch> {
    if reply.len() < query.len() || query.len() < HDR {
        return Err(Mismatch::Malformed);
    }
    if reply[..2] != query[..2] {
        return Err(Mismatch::Id);
    }
    if reply[2] & 0x80 == 0 || reply[2] & 0x7a != 0 || reply[4..6] != [0, 1] {
        return Err(Mismatch::NotResponse);
    }
    if reply[HDR..query.len()] != query[HDR..] {
        return Err(Mismatch::Question);
    }
    let rcode = reply[3] & 0x0f;
    let ancount = u16::from_be_bytes([reply[6], reply[7]]);
    match expect {
        Expect::NxDomain if rcode != 3 => Err(Mismatch::Rcode(rcode)),
        Expect::NxDomain if ancount != 0 => Err(Mismatch::Answer),
        Expect::NxDomain => Ok(()),
        Expect::Hot { .. } if rcode != 0 => Err(Mismatch::Rcode(rcode)),
        Expect::Hot { addr, .. } => {
            let mut p = query.len();
            let mut found = false;
            for _ in 0..ancount {
                p = skip_name(reply, p).ok_or(Mismatch::Malformed)?;
                let f = reply.get(p..p + 10).ok_or(Mismatch::Malformed)?;
                let (rtype, rdlen) = (
                    u16::from_be_bytes([f[0], f[1]]),
                    u16::from_be_bytes([f[8], f[9]]) as usize,
                );
                let rdata = reply
                    .get(p + 10..p + 10 + rdlen)
                    .ok_or(Mismatch::Malformed)?;
                if rtype == 1 {
                    if rdata != addr {
                        return Err(Mismatch::Answer);
                    }
                    found = true;
                }
                p += 10 + rdlen;
            }
            if found {
                Ok(())
            } else {
                Err(Mismatch::Answer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{wire, Message, RData, Rcode, Record, RecordType, Ttl};

    fn sequence(seed: u64) -> Vec<Vec<u8>> {
        let mut g = QueryGen::new(seed, 4);
        let mut buf = [0u8; 512];
        (0..2000u16)
            .map(|id| {
                let (n, _) = g.next_query(id, &mut buf);
                buf[..n].to_vec()
            })
            .collect()
    }

    #[test]
    fn one_seed_always_yields_the_same_sequence() {
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
    }

    #[test]
    fn queries_decode_and_torture_labels_never_repeat() {
        let mut g = QueryGen::new(3, 4);
        let mut buf = [0u8; 512];
        let mut torture = std::collections::HashSet::new();
        let mut hot = 0;
        for id in 0..4000u16 {
            let (n, expect) = g.next_query(id, &mut buf);
            let q = wire::decode(&buf[..n]).expect("generated query decodes");
            let name = q.question().unwrap().name.to_string();
            assert!(name.ends_with("bench.test."), "{name}");
            match expect {
                Expect::NxDomain => assert!(torture.insert(name)),
                Expect::Hot { .. } => hot += 1,
            }
        }
        let share = torture.len() as f64 / 4000.0;
        assert!((0.2..0.3).contains(&share), "torture share {share}");
        assert!(hot > 2800);
    }

    /// The reply a correct daemon sends: the query's bytes as the
    /// question, then the answer.
    fn reply_for(query: &[u8], expect: Expect) -> Vec<u8> {
        let q = wire::decode(query).unwrap();
        let mut resp = Message::response_to(&q);
        match expect {
            Expect::Hot { addr, .. } => resp.answers.push(Record::new(
                q.question().unwrap().name.clone(),
                Ttl::from_hours(1),
                RData::A(addr.into()),
            )),
            Expect::NxDomain => resp.header.rcode = Rcode::NxDomain,
        }
        let mut bytes = wire::encode(&resp).unwrap();
        assert!(wire::patch_question_case(&mut bytes, query));
        bytes
    }

    #[test]
    fn checker_accepts_correct_replies_and_rejects_wrong_ones() {
        let mut g = QueryGen::new(11, 2);
        let mut buf = [0u8; 512];
        let mut seen = (false, false);
        for id in 0..50u16 {
            let (n, expect) = g.next_query(id, &mut buf);
            let query = &buf[..n];
            let good = reply_for(query, expect);
            assert_eq!(check_reply(query, expect, &good), Ok(()));

            let mut wrong_id = good.clone();
            wrong_id[1] ^= 0x40;
            assert_eq!(check_reply(query, expect, &wrong_id), Err(Mismatch::Id));

            // A reply that lowercases the question loses the 0x20 casing.
            let recased = wire::encode(&wire::decode(&good).unwrap()).unwrap();
            if recased[12..n] != query[12..] {
                assert_eq!(
                    check_reply(query, expect, &recased),
                    Err(Mismatch::Question)
                );
            }

            let mut wrong_rcode = good.clone();
            wrong_rcode[3] = (wrong_rcode[3] & 0xf0) | 2;
            assert_eq!(
                check_reply(query, expect, &wrong_rcode),
                Err(Mismatch::Rcode(2))
            );
            match expect {
                Expect::Hot { name, .. } => {
                    seen.0 = true;
                    let other = Expect::Hot {
                        name,
                        addr: [192, 0, 2, 1],
                    };
                    assert_eq!(check_reply(query, other, &good), Err(Mismatch::Answer));
                    assert_eq!(
                        check_reply(query, Expect::NxDomain, &good),
                        Err(Mismatch::Rcode(0))
                    );
                }
                Expect::NxDomain => seen.1 = true,
            }
        }
        assert_eq!(seen, (true, true));
    }

    #[test]
    fn hot_query_matches_record_type_and_name() {
        let mut g = QueryGen::new(1, 0);
        let mut buf = [0u8; 512];
        let n = g.hot_query(9, 42, &mut buf);
        let q = wire::decode(&buf[..n]).unwrap();
        let question = q.question().unwrap();
        assert_eq!(question.rtype, RecordType::A);
        assert_eq!(question.name.to_string(), "n42.bench.test.");
        assert_eq!(q.header.id, 9);
        assert!(q.header.recursion_desired);
    }
}
