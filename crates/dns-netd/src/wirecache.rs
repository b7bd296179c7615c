//! Pre-serialized response cache: the daemon's wire fast lane.
//!
//! A [`WireCache`] maps `(lowercased question name, record type)` to the
//! *compiled wire bytes* of a previously-served response. A repeat query
//! for a hot name is answered without decoding the question into a
//! [`Message`], without touching the resolver, and without allocating:
//! the cached bytes are copied into the caller's send buffer and patched
//! in place — query ID, RD flag and the client's exact question casing
//! (0x20 randomization) come from the incoming datagram, and every TTL is
//! decremented by the seconds elapsed since the entry was compiled.
//!
//! Invalidation is tied to the *record* cache: an entry stores the
//! absolute expiry of the cache entries its answer was compiled from
//! (`CachingServer::answer_expiry`), and [`WireCache::serve`] refuses to
//! serve at or past that instant — a pre-serialized answer never outlives
//! the records behind it.
//!
//! [`Message`]: dns_core::Message

use dns_core::{wire, Name, Rcode, RecordType, SimTime, MAX_LABEL_LEN, MAX_NAME_LEN};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// DNS header length in bytes.
const HDR: usize = 12;

/// Default byte budget for a daemon's wire cache: total compiled
/// response bytes, not entries — entries vary from ~30 bytes (one A
/// record) to [`wire::MAX_MESSAGE_LEN`], so an entry-count cap would
/// leave worst-case memory 16× the typical case.
pub const DEFAULT_WIRE_CACHE_BYTES: usize = 2 << 20;

/// Owned cache key: lowercase length-prefixed question-name bytes (the
/// wire encoding minus the trailing root zero — exactly
/// [`Name::as_suffix_bytes`]) plus the record-type code.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireKey {
    qname: Box<[u8]>,
    rtype: u16,
}

/// Borrowed view of a [`WireKey`], so the hot path can probe the map with
/// `(&[u8], u16)` straight off the incoming datagram — no key allocation.
/// Same `Borrow<dyn Trait>` construction as `dns_core::RrKeyView`.
trait WireKeyView {
    fn qname(&self) -> &[u8];
    fn rtype(&self) -> u16;
}

impl WireKeyView for WireKey {
    fn qname(&self) -> &[u8] {
        &self.qname
    }
    fn rtype(&self) -> u16 {
        self.rtype
    }
}

impl WireKeyView for (&[u8], u16) {
    fn qname(&self) -> &[u8] {
        self.0
    }
    fn rtype(&self) -> u16 {
        self.1
    }
}

impl Hash for dyn WireKeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.qname().hash(state);
        self.rtype().hash(state);
    }
}

impl PartialEq for dyn WireKeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rtype() == other.rtype() && self.qname() == other.qname()
    }
}

impl Eq for dyn WireKeyView + '_ {}

/// Must agree with `Hash for dyn WireKeyView` for `Borrow`-based probing
/// to be lawful.
impl Hash for WireKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn WireKeyView).hash(state);
    }
}

impl<'a> Borrow<dyn WireKeyView + 'a> for WireKey {
    fn borrow(&self) -> &(dyn WireKeyView + 'a) {
        self
    }
}

/// One compiled response: wire bytes with the ID zeroed, the offset and
/// original value of every TTL field, and the lifetime bounds.
#[derive(Debug)]
struct WireEntry {
    bytes: Box<[u8]>,
    /// `(byte offset, TTL as compiled)` for every record in the message,
    /// section order.
    ttls: Box<[(u32, u32)]>,
    built_at: SimTime,
    /// Record-cache expiry of the answer's source entries (exclusive:
    /// serving stops once `now >= expires_at`).
    expires_at: SimTime,
}

/// The pre-serialized response cache. See the module docs.
///
/// Not internally synchronized — the daemon wraps it in a mutex shared by
/// its workers ([`crate::Resolved`]'s wire lane).
#[derive(Debug)]
pub struct WireCache {
    map: HashMap<WireKey, WireEntry>,
    /// Byte budget over the compiled response bytes of every entry.
    cap_bytes: usize,
    /// Sum of `bytes.len()` over the live entries.
    bytes: usize,
}

impl Default for WireCache {
    fn default() -> Self {
        WireCache::new(DEFAULT_WIRE_CACHE_BYTES)
    }
}

impl WireCache {
    /// An empty cache holding at most `cap_bytes` of compiled response
    /// bytes (raised to [`wire::MAX_MESSAGE_LEN`] so at least one entry
    /// of any size fits).
    pub fn new(cap_bytes: usize) -> WireCache {
        WireCache {
            map: HashMap::new(),
            cap_bytes: cap_bytes.max(wire::MAX_MESSAGE_LEN),
            bytes: 0,
        }
    }

    /// Entries currently stored (fresh or not yet reaped).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Compiled response bytes currently stored across every entry.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget the cache evicts down to.
    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Removes the entry for `key`, keeping the byte ledger in step.
    fn evict(&mut self, key: &(dyn WireKeyView + '_)) -> Option<WireEntry> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.bytes.len();
        Some(entry)
    }

    /// Compiles `(bytes, ttl_offsets)` — as produced by
    /// [`wire::encode_with_ttl_offsets`] — into a cache entry for
    /// `(name, rtype)`. The stored copy has its ID zeroed; serve-time
    /// patching fills in each client's. Returns `false` (and stores
    /// nothing) if an offset is out of bounds or the message is not a
    /// plausible response.
    pub fn insert(
        &mut self,
        name: &Name,
        rtype: RecordType,
        bytes: &[u8],
        ttl_offsets: &[u32],
        built_at: SimTime,
        expires_at: SimTime,
    ) -> bool {
        if bytes.len() < HDR || bytes.len() > wire::MAX_MESSAGE_LEN || built_at >= expires_at {
            return false;
        }
        let mut ttls = Vec::with_capacity(ttl_offsets.len());
        for &off in ttl_offsets {
            let Some(field) = bytes.get(off as usize..off as usize + 4) else {
                return false;
            };
            let orig = u32::from_be_bytes([field[0], field[1], field[2], field[3]]);
            ttls.push((off, orig));
        }
        let key = WireKey {
            qname: name.as_suffix_bytes().into(),
            rtype: rtype.code(),
        };
        self.evict(&key);
        // Over budget with the new entry: drop arbitrary entries until it
        // fits. Hot keys re-enter on their next slow-path answer, so
        // eviction precision doesn't pay here.
        while self.bytes + bytes.len() > self.cap_bytes {
            let Some(victim) = self.map.keys().next().cloned() else {
                break;
            };
            self.evict(&victim);
        }
        let mut stored = bytes.to_vec();
        stored[0] = 0;
        stored[1] = 0;
        self.bytes += stored.len();
        self.map.insert(
            key,
            WireEntry {
                bytes: stored.into_boxed_slice(),
                ttls: ttls.into_boxed_slice(),
                built_at,
                expires_at,
            },
        );
        true
    }

    /// Answers `query` from the cache, writing the patched response into
    /// `out` and returning its length — or `None` on miss or expiry
    /// (expired entries are reaped on the way out).
    ///
    /// `qname` is the *lowercased* question-name key (no trailing zero;
    /// see [`lowercase_key`]) and `query` the raw datagram it came from,
    /// whose ID, RD bit and original question casing are echoed. TTLs are
    /// patched to `compiled TTL - seconds since built`, saturating at 0.
    /// Allocation-free.
    pub fn serve(
        &mut self,
        qname: &[u8],
        rtype: u16,
        query: &[u8],
        now: SimTime,
        out: &mut [u8],
    ) -> Option<usize> {
        let view: &dyn WireKeyView = &(qname, rtype);
        if self.map.get(view).is_some_and(|e| now >= e.expires_at) {
            self.evict(view);
            return None;
        }
        let entry = self.map.get(view)?;
        let n = entry.bytes.len();
        if out.len() < n || query.len() < HDR + qname.len() {
            return None;
        }
        out[..n].copy_from_slice(&entry.bytes);
        // The client's ID, recursion-desired flag and exact question
        // spelling (0x20 case randomization) all come from its datagram.
        out[0..2].copy_from_slice(&query[0..2]);
        out[2] = (out[2] & !0x01) | (query[2] & 0x01);
        out[HDR..HDR + qname.len()].copy_from_slice(&query[HDR..HDR + qname.len()]);
        let elapsed = u32::try_from(now.since(entry.built_at).as_secs()).unwrap_or(u32::MAX);
        for &(off, orig) in entry.ttls.iter() {
            let ttl = orig.saturating_sub(elapsed);
            out[off as usize..off as usize + 4].copy_from_slice(&ttl.to_be_bytes());
        }
        Some(n)
    }

    /// Drops every entry expired at `now`; returns how many.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.map.len();
        self.map.retain(|_, e| now < e.expires_at);
        self.bytes = self.map.values().map(|e| e.bytes.len()).sum();
        before - self.map.len()
    }

    /// Drops the entry for `(name, rtype)`, if present.
    pub fn invalidate(&mut self, name: &Name, rtype: RecordType) -> bool {
        let view: &dyn WireKeyView = &(name.as_suffix_bytes(), rtype.code());
        self.evict(view).is_some()
    }
}

/// The question a fast-lane-eligible datagram carries, borrowed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastQuery<'a> {
    /// Raw question-name bytes as sent (original casing, length-prefixed,
    /// no trailing zero).
    pub raw_name: &'a [u8],
    /// Question type code.
    pub rtype: u16,
    /// Question class code.
    pub class: u16,
}

/// Shallow-parses `query` just enough to decide fast-lane eligibility:
/// a plain QUERY question (QR/TC clear, opcode 0, an RCODE the decoder
/// knows) with exactly one question, nothing in the other sections (an EDNS0 OPT in additional
/// routes to the slow path, which strips it), an uncompressed question
/// name within RFC limits, and no trailing bytes. Returns the borrowed
/// question on success. Allocation-free.
pub fn fast_query(query: &[u8]) -> Option<FastQuery<'_>> {
    // Smallest well-formed query: header + root name + type + class.
    if query.len() < HDR + 5 {
        return None;
    }
    let flags = query[2];
    if flags & 0x80 != 0 || (flags >> 3) & 0x0f != 0 || flags & 0x02 != 0 {
        return None;
    }
    // An RCODE `wire::decode` rejects: the slow path drops the datagram,
    // so a hit must not answer it either.
    Rcode::from_code(query[3] & 0x0f)?;
    if query[4..6] != [0, 1] || query[6..12].iter().any(|&b| b != 0) {
        return None;
    }
    let mut pos = HDR;
    loop {
        let len = *query.get(pos)? as usize;
        if len == 0 {
            break;
        }
        if len > MAX_LABEL_LEN {
            // Compression pointer (or malformed length) in a question —
            // not fast-lane material.
            return None;
        }
        pos += 1 + len;
        if pos - HDR + 1 > MAX_NAME_LEN {
            return None;
        }
    }
    if pos + 1 + 4 != query.len() {
        return None;
    }
    Some(FastQuery {
        raw_name: &query[HDR..pos],
        rtype: u16::from_be_bytes([query[pos + 1], query[pos + 2]]),
        class: u16::from_be_bytes([query[pos + 3], query[pos + 4]]),
    })
}

/// Lowercases `raw_name` into `key` (cleared first), producing the probe
/// key [`WireCache::serve`] expects. Label *length* bytes are at most 63,
/// below `b'A'`, so blanket ASCII lowercasing never corrupts them. The
/// buffer is caller-owned scratch — reused across packets, so the steady
/// state allocates nothing.
pub fn lowercase_key(raw_name: &[u8], key: &mut Vec<u8>) {
    key.clear();
    key.extend(raw_name.iter().map(u8::to_ascii_lowercase));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{Message, Question, RData, Record, Ttl};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A two-record response (answer + additional) for `www.example.com A`
    /// with the given TTLs, plus its encoded bytes and TTL offsets.
    fn sample_response(id: u16, ttl_a: u32, ttl_extra: u32) -> (Message, Vec<u8>, Vec<u32>) {
        let q = Message::query(id, Question::new(name("www.example.com"), RecordType::A));
        let mut resp = Message::response_to(&q);
        resp.answers.push(Record::new(
            name("www.example.com"),
            Ttl::from_secs(ttl_a),
            RData::A(Ipv4Addr::new(192, 0, 2, 7)),
        ));
        resp.additionals.push(Record::new(
            name("ns.example.com"),
            Ttl::from_secs(ttl_extra),
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        let (bytes, offsets) = wire::encode_with_ttl_offsets(&resp).unwrap();
        (resp, bytes, offsets)
    }

    fn query_bytes(id: u16, spelled: &str) -> Vec<u8> {
        let q = Message::query(id, Question::new(name(spelled), RecordType::A));
        let mut bytes = wire::encode(&q).unwrap();
        // Re-impose mixed casing (Name lowercases on construction).
        let mut pos = 12;
        for label in spelled.split('.') {
            bytes[pos + 1..pos + 1 + label.len()].copy_from_slice(label.as_bytes());
            pos += 1 + label.len();
        }
        bytes
    }

    fn serve_into<'b>(
        cache: &mut WireCache,
        query: &[u8],
        now: SimTime,
        out: &'b mut [u8],
    ) -> Option<&'b [u8]> {
        let fq = fast_query(query).expect("test queries are fast-lane shaped");
        let mut key = Vec::new();
        lowercase_key(fq.raw_name, &mut key);
        let n = cache.serve(&key, fq.rtype, query, now, out)?;
        Some(&out[..n])
    }

    #[test]
    fn hit_patches_id_rd_casing_and_ttls() {
        let (_, bytes, offsets) = sample_response(0x1111, 300, 60);
        let mut cache = WireCache::new(16);
        let t0 = SimTime::from_secs(1000);
        assert!(cache.insert(
            &name("www.example.com"),
            RecordType::A,
            &bytes,
            &offsets,
            t0,
            t0 + dns_core::SimDuration::from_secs(300),
        ));
        let query = query_bytes(0xBEEF, "wWw.eXample.COM");
        let mut out = [0u8; wire::MAX_MESSAGE_LEN];
        let served = serve_into(
            &mut cache,
            &query,
            t0 + dns_core::SimDuration::from_secs(40),
            &mut out,
        )
        .expect("hot entry serves");

        assert_eq!(&served[0..2], &[0xBE, 0xEF], "client ID echoed");
        assert_eq!(served[2] & 0x01, 0x01, "client RD echoed");
        assert_eq!(
            &served[12..12 + 17],
            &query[12..12 + 17],
            "question spelled exactly as the client sent it"
        );
        let msg = wire::decode(served).unwrap();
        assert_eq!(msg.header.id, 0xBEEF);
        assert_eq!(msg.answers[0].ttl().as_secs(), 260, "300 - 40s elapsed");
        assert_eq!(msg.additionals[0].ttl().as_secs(), 20, "60 - 40s elapsed");
        assert_eq!(
            msg.answers[0].rdata(),
            &RData::A(Ipv4Addr::new(192, 0, 2, 7))
        );
    }

    #[test]
    fn expired_entries_are_never_served_and_get_reaped() {
        let (_, bytes, offsets) = sample_response(1, 300, 300);
        let mut cache = WireCache::new(16);
        let t0 = SimTime::ZERO;
        let expiry = SimTime::from_secs(120);
        cache.insert(
            &name("www.example.com"),
            RecordType::A,
            &bytes,
            &offsets,
            t0,
            expiry,
        );
        let query = query_bytes(7, "www.example.com");
        let mut out = [0u8; wire::MAX_MESSAGE_LEN];
        assert!(
            serve_into(&mut cache, &query, SimTime::from_secs(119), &mut out).is_some(),
            "one second before expiry still serves"
        );
        assert!(
            serve_into(&mut cache, &query, expiry, &mut out).is_none(),
            "expiry is exclusive: at expires_at the entry is dead"
        );
        assert!(cache.is_empty(), "expired entry reaped on access");
    }

    #[test]
    fn misses_and_invalidation() {
        let (_, bytes, offsets) = sample_response(1, 300, 300);
        let mut cache = WireCache::new(16);
        let t0 = SimTime::ZERO;
        let horizon = SimTime::from_secs(300);
        cache.insert(
            &name("www.example.com"),
            RecordType::A,
            &bytes,
            &offsets,
            t0,
            horizon,
        );
        let mut out = [0u8; wire::MAX_MESSAGE_LEN];

        // Same name, different type: miss.
        let mut q = wire::encode(&Message::query(
            2,
            Question::new(name("www.example.com"), RecordType::Aaaa),
        ))
        .unwrap();
        let fq = fast_query(&q).unwrap();
        let mut key = Vec::new();
        lowercase_key(fq.raw_name, &mut key);
        assert!(cache
            .serve(&key, fq.rtype, &q, SimTime::from_secs(1), &mut out)
            .is_none());

        // Different name: miss.
        q = query_bytes(3, "irc.example.com");
        assert!(serve_into(&mut cache, &q, SimTime::from_secs(1), &mut out).is_none());

        // Explicit invalidation kills the hot entry.
        q = query_bytes(4, "www.example.com");
        assert!(serve_into(&mut cache, &q, SimTime::from_secs(1), &mut out).is_some());
        assert!(cache.invalidate(&name("www.example.com"), RecordType::A));
        assert!(serve_into(&mut cache, &q, SimTime::from_secs(1), &mut out).is_none());
    }

    #[test]
    fn byte_budget_is_bounded() {
        let compiled = |i: usize| {
            let owner = name(&format!("h{i:02}.example.com"));
            let q = Message::query(i as u16, Question::new(owner.clone(), RecordType::A));
            let mut resp = Message::response_to(&q);
            // Fat answer sets so four entries genuinely exceed the
            // MAX_MESSAGE_LEN floor `new` clamps the budget up to.
            for j in 0..40u8 {
                resp.answers.push(Record::new(
                    owner.clone(),
                    Ttl::from_secs(300),
                    RData::A(Ipv4Addr::new(10, 0, j, i as u8)),
                ));
            }
            let (bytes, offsets) = wire::encode_with_ttl_offsets(&resp).unwrap();
            (owner, bytes, offsets)
        };
        // Budget exactly four fixed-width entries; `new` clamps up to one
        // max-size message, so probe the real capacity, not the argument.
        let entry_len = compiled(0).1.len();
        let mut cache = WireCache::new(4 * entry_len);
        let cap = cache.capacity_bytes();
        let t0 = SimTime::ZERO;
        let horizon = SimTime::from_secs(600);
        for i in 0..20 {
            let (owner, bytes, offsets) = compiled(i);
            assert!(cache.insert(&owner, RecordType::A, &bytes, &offsets, t0, horizon));
            assert!(cache.bytes() <= cap, "byte ledger respects the budget");
            assert_eq!(
                cache.bytes(),
                cache.len() * entry_len,
                "ledger equals the sum of stored entries"
            );
        }
        let full = cache.len();
        assert!((1..20).contains(&full), "budget forces eviction");

        // Re-inserting a present key replaces it without double counting.
        let (owner, bytes, offsets) = compiled(19);
        assert!(cache.insert(&owner, RecordType::A, &bytes, &offsets, t0, horizon));
        assert_eq!(cache.len(), full);
        assert_eq!(cache.bytes(), full * entry_len);

        assert!(cache.invalidate(&owner, RecordType::A));
        assert_eq!(cache.bytes(), (full - 1) * entry_len);
        assert_eq!(cache.purge_expired(horizon), full - 1);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn fast_query_eligibility() {
        let plain = wire::encode(&Message::query(
            9,
            Question::new(name("a.root-servers.net"), RecordType::A),
        ))
        .unwrap();
        let fq = fast_query(&plain).expect("plain query is eligible");
        assert_eq!(fq.rtype, RecordType::A.code());
        assert_eq!(fq.class, 1);
        assert_eq!(fq.raw_name.len(), "a.root-servers.net".len() + 1);

        // A response is not a query.
        let mut resp = plain.clone();
        resp[2] |= 0x80;
        assert!(fast_query(&resp).is_none());

        // Truncated flag, weird opcode, extra counts: all routed slow.
        let mut tc = plain.clone();
        tc[2] |= 0x02;
        assert!(fast_query(&tc).is_none());
        let mut op = plain.clone();
        op[2] |= 0x08; // opcode 1 (IQUERY)
        assert!(fast_query(&op).is_none());
        let mut arc = plain.clone();
        arc[11] = 1; // arcount=1 — e.g. an EDNS0 OPT follows
        assert!(fast_query(&arc).is_none());

        // An RCODE nibble the decoder rejects: the slow path drops the
        // datagram, so the fast lane must not answer it from the cache.
        let mut rcode = plain.clone();
        rcode[3] |= 0x08;
        assert!(wire::decode(&rcode).is_err());
        assert!(fast_query(&rcode).is_none());

        // Compression pointer in the question name.
        let mut ptr = plain.clone();
        ptr[12] = 0xC0;
        assert!(fast_query(&ptr).is_none());

        // Trailing junk after the question.
        let mut junk = plain.clone();
        junk.push(0);
        assert!(fast_query(&junk).is_none());

        // Too short to hold any question.
        assert!(fast_query(&plain[..12]).is_none());
    }

    proptest! {
        /// Satellite 4: TTL patching is a monotonic, non-underflowing
        /// decrement, and the served bytes are exactly the compiled
        /// response modulo ID and TTL fields.
        #[test]
        fn ttl_patching_is_sound(
            ttl_a in 1u32..=7200,
            ttl_extra in 0u32..=7200,
            lifetime in 1u64..=3600,
            probes in proptest::collection::vec(0u64..=4000, 1..8),
        ) {
            let (resp, bytes, offsets) = sample_response(0x2222, ttl_a, ttl_extra);
            let mut cache = WireCache::new(16);
            let t0 = SimTime::from_secs(50);
            let expiry = t0 + dns_core::SimDuration::from_secs(lifetime);
            prop_assert!(cache.insert(
                &name("www.example.com"), RecordType::A, &bytes, &offsets, t0, expiry,
            ));
            let query = query_bytes(0x3333, "www.example.com");
            let mut out = [0u8; wire::MAX_MESSAGE_LEN];

            let mut probes = probes;
            probes.sort_unstable();
            let mut last_ttls: Option<Vec<u32>> = None;
            for dt in probes {
                let now = t0 + dns_core::SimDuration::from_secs(dt);
                let served = serve_into(&mut cache, &query, now, &mut out);
                if now >= expiry {
                    prop_assert!(served.is_none(), "never served at/past record expiry");
                    continue;
                }
                let served = served.expect("fresh entry serves");
                let got = wire::decode(served).unwrap();

                // Byte equivalence modulo ID + TTLs: rewrite just those
                // fields in the compiled bytes and compare whole buffers.
                let mut expect = bytes.clone();
                expect[0..2].copy_from_slice(&query[0..2]);
                expect[2] = (expect[2] & !0x01) | (query[2] & 0x01);
                for &off in &offsets {
                    let off = off as usize;
                    let orig = u32::from_be_bytes(expect[off..off + 4].try_into().unwrap());
                    let patched = orig.saturating_sub(dt as u32);
                    expect[off..off + 4].copy_from_slice(&patched.to_be_bytes());
                }
                prop_assert_eq!(served, expect.as_slice());

                // Monotonic non-underflowing decrement.
                let ttls: Vec<u32> = got.all_records().map(|r| r.ttl().as_secs()).collect();
                prop_assert_eq!(ttls.len(), resp.record_count());
                prop_assert_eq!(ttls[0], ttl_a.saturating_sub(dt as u32));
                prop_assert_eq!(ttls[1], ttl_extra.saturating_sub(dt as u32));
                if let Some(prev) = last_ttls.take() {
                    for (new, old) in ttls.iter().zip(&prev) {
                        prop_assert!(new <= old, "TTLs only decrease over time");
                    }
                }
                last_ttls = Some(ttls);
            }
        }
    }
}
