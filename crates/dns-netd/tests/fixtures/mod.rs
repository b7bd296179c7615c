//! Query fixtures and a core-stepping helper shared by the wire fast-lane
//! and serve-stale suites.

use dns_core::{wire, Message, Question, RecordClass, RecordType, SimTime};
use dns_netd::{Core, PacketBatch, CHAOS_METRICS_NAME};
use dns_resolver::{RetryPolicy, Upstream};
use std::net::SocketAddr;

/// Small backoffs so blackout-induced failures arrive quickly.
pub fn test_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        initial_backoff_ms: 10,
        backoff_multiplier: 2,
        max_backoff_ms: 80,
        jitter_pct: 50,
        deadline_ms: 500,
    }
}

/// Encodes a query for `spelled` and re-imposes the caller's exact
/// mixed-case spelling on the wire bytes (`Name` lowercases on
/// construction) — what a 0x20-randomizing client emits.
pub fn spelled_query(id: u16, spelled: &str, rtype: RecordType) -> Vec<u8> {
    let q = Message::query(id, Question::new(spelled.parse().unwrap(), rtype));
    let mut bytes = wire::encode(&q).unwrap();
    let mut pos = 12;
    for label in spelled.split('.') {
        bytes[pos + 1..pos + 1 + label.len()].copy_from_slice(label.as_bytes());
        pos += 1 + label.len();
    }
    bytes
}

/// A `CHAOS TXT metrics.bind.` query: the daemon's metrics snapshot.
pub fn chaos_query(id: u16) -> Vec<u8> {
    let name = CHAOS_METRICS_NAME.parse().unwrap();
    let question = Question::with_class(name, RecordType::Txt, RecordClass::Ch);
    wire::encode(&Message::query(id, question)).unwrap()
}

/// Canonical form for "byte-identical modulo query ID, TTL and question
/// casing": decode, deterministically re-encode (normalizes the casing
/// patch), then zero the ID and every TTL field.
pub fn normalized(bytes: &[u8]) -> Vec<u8> {
    let msg = wire::decode(bytes).expect("response must decode");
    let (mut out, offsets) = wire::encode_with_ttl_offsets(&msg).unwrap();
    out[0] = 0;
    out[1] = 0;
    for off in offsets {
        let off = off as usize;
        out[off..off + 4].copy_from_slice(&[0, 0, 0, 0]);
    }
    out
}

/// Serves `datagrams` as one batch at `now` and returns the replies, in
/// order, with the peers they go to.
pub fn step<U: Upstream>(
    core: &mut Core<U>,
    now: SimTime,
    datagrams: &[(&[u8], SocketAddr)],
) -> Vec<(Vec<u8>, SocketAddr)> {
    let mut rx = PacketBatch::new();
    for &(bytes, peer) in datagrams {
        assert!(rx.push_copy(bytes, peer));
    }
    let mut tx = PacketBatch::new();
    core.step(now, &rx, &mut tx);
    tx.iter().map(|p| (p.bytes().to_vec(), p.peer())).collect()
}
