//! RFC 1035 wire format: encoding and decoding with name compression.
//!
//! The codec is complete for the record types in [`RecordType`]: messages
//! round-trip exactly, names are compressed with standard backward pointers
//! (§4.1.4) and decoding is hardened against pointer loops and truncated
//! buffers.
//!
//! ```rust
//! # fn main() -> Result<(), dns_core::DnsError> {
//! use dns_core::{wire, Message, Question, RecordType};
//!
//! let q = Message::query(42, Question::new("www.ucla.edu".parse()?, RecordType::A));
//! let bytes = wire::encode(&q)?;
//! let back = wire::decode(&bytes)?;
//! assert_eq!(q, back);
//! # Ok(())
//! # }
//! ```

use crate::{
    DnsError, Header, Message, Name, NameBuilder, Opcode, Question, RData, Rcode, Record,
    RecordClass, RecordType, Ttl, MAX_LABEL_LEN,
};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Maximum UDP payload we will produce (a classic 512-octet message would
/// truncate many referrals; like EDNS0 deployments we allow 4096).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Maximum pointer hops while decoding one name; real names need far fewer
/// and a longer chain indicates a malicious or corrupt message.
const MAX_POINTER_HOPS: usize = 64;

/// The EDNS0 OPT pseudo-record type code (RFC 6891). OPT is negotiation
/// metadata, not zone data: the decoder strips it so plain-DNS handling of
/// the rest of the message continues (we answer without an OPT of our
/// own, i.e. classic DNS semantics).
pub const OPT_TYPE_CODE: u16 = 41;

/// Encodes a message to wire bytes.
///
/// # Errors
///
/// Returns [`DnsError::MessageTooLong`] if the encoded form exceeds
/// [`MAX_MESSAGE_LEN`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, DnsError> {
    Ok(encode_with_ttl_offsets(msg)?.0)
}

/// Like [`encode`], but also reports the byte offset of each record's
/// 32-bit big-endian TTL field, in section order (answers, authorities,
/// additionals).
///
/// This is the handle a pre-serialized response cache needs: store the
/// compiled bytes once, then serve hot queries by patching the ID and
/// decrementing the TTLs in place at these offsets, skipping message
/// assembly and re-encoding entirely.
///
/// # Errors
///
/// Same contract as [`encode`].
pub fn encode_with_ttl_offsets(msg: &Message) -> Result<(Vec<u8>, Vec<u32>), DnsError> {
    let mut enc = Encoder::new();
    enc.header(msg)?;
    for q in &msg.questions {
        enc.question(q)?;
    }
    for r in &msg.answers {
        enc.record(r)?;
    }
    for r in &msg.authorities {
        enc.record(r)?;
    }
    for r in &msg.additionals {
        enc.record(r)?;
    }
    let out = enc.buf;
    if out.len() > MAX_MESSAGE_LEN {
        return Err(DnsError::MessageTooLong(out.len()));
    }
    Ok((out, enc.ttl_offsets))
}

/// Decodes a message from wire bytes.
///
/// # Errors
///
/// Returns a [`DnsError`] describing the first malformed element: truncated
/// data, invalid compression pointers, unknown type/class codes or RDATA
/// length mismatches.
pub fn decode(bytes: &[u8]) -> Result<Message, DnsError> {
    let mut dec = Decoder::new(bytes);
    let (header, counts) = dec.header()?;
    let mut msg = Message {
        header,
        ..Message::default()
    };
    for _ in 0..counts.0 {
        msg.questions.push(dec.question()?);
    }
    for _ in 0..counts.1 {
        if let Some(r) = dec.record("answer")? {
            msg.answers.push(r);
        }
    }
    for _ in 0..counts.2 {
        if let Some(r) = dec.record("authority")? {
            msg.authorities.push(r);
        }
    }
    for _ in 0..counts.3 {
        if let Some(r) = dec.record("additional")? {
            msg.additionals.push(r);
        }
    }
    Ok(msg)
}

/// The reply to a datagram that [`decode`] rejects, when its header and
/// question still allow one: QR clear, a complete 12-byte header,
/// QDCOUNT 1, and a question whose name (spelled out or ending in a
/// compression pointer) and 4 fixed bytes can be delimited.
///
/// The reply echoes the ID, the opcode and RD, sets QR (and RA when
/// `recursion_available`), and carries the raw question bytes, so their
/// casing is echoed, and no records. Its RCODE is NOTIMP when the first
/// thing the decoder rejects is the opcode, the question's type or its
/// class, and FORMERR otherwise (a bad label, an unassigned RCODE, a
/// malformed record). Anything else gets `None`: junk is never reflected,
/// and no reply is longer than its query.
///
/// ```rust
/// # fn main() -> Result<(), dns_core::DnsError> {
/// use dns_core::{wire, Message, Question, Rcode, RecordType};
///
/// // A query for type HTTPS (65), which the codec does not represent.
/// let mut query = wire::encode(&Message::query(7, Question::new("www.ucla.edu".parse()?, RecordType::A)))?;
/// let qtype = query.len() - 4;
/// query[qtype..qtype + 2].copy_from_slice(&65u16.to_be_bytes());
/// assert!(wire::decode(&query).is_err());
///
/// let reply = wire::reply_to_undecodable(&query, false).expect("a framed query");
/// assert_eq!(reply[3] & 0xF, Rcode::NotImp.code());
/// assert_eq!(reply[12..], query[12..]);
/// # Ok(())
/// # }
/// ```
pub fn reply_to_undecodable(raw: &[u8], recursion_available: bool) -> Option<Vec<u8>> {
    const HDR: usize = 12;
    let header = raw.get(..HDR)?;
    let flags = u16::from_be_bytes([header[2], header[3]]);
    if flags & 0x8000 != 0 || header[4..6] != [0, 1] {
        return None;
    }
    let question = &raw[HDR..HDR + question_len(&raw[HDR..])?];
    let mut dec = Decoder::new(&raw[..HDR + question.len()]);
    let rcode = match dec.header().and_then(|_| dec.question()) {
        Err(
            DnsError::UnknownOpcode(_) | DnsError::UnknownRecordType(_) | DnsError::UnknownClass(_),
        ) => Rcode::NotImp,
        _ => Rcode::FormErr,
    };
    // QR, the query's opcode and RD, RA if offered, and the RCODE.
    let mut reply_flags = 0x8000 | (flags & 0x7900) | u16::from(rcode.code());
    if recursion_available {
        reply_flags |= 0x0080;
    }
    let mut reply = Vec::with_capacity(HDR + question.len());
    reply.extend_from_slice(&header[..2]);
    reply.put_u16(reply_flags);
    reply.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]);
    reply.extend_from_slice(question);
    Some(reply)
}

/// The length of the question at the start of `bytes`: its name, spelled
/// out or ending in a compression pointer, then its type and class; `None`
/// when the bytes cannot be delimited so.
fn question_len(bytes: &[u8]) -> Option<usize> {
    let mut end = 0;
    loop {
        match *bytes.get(end)? {
            0 => {
                end += 1;
                break;
            }
            len @ 1..=63 => end += 1 + usize::from(len),
            0xC0..=0xFF => {
                end += 2;
                break;
            }
            _ => return None, // a reserved label type
        }
    }
    end += 4;
    (end <= bytes.len()).then_some(end)
}

/// Rewrites the first question's name in the encoded response `resp` with
/// the exact bytes the client sent in `query`, so replies echo the
/// client's original casing. [`Name`] lowercases labels on construction,
/// so a re-encoded question comes back lowercase without this — and
/// 0x20-randomizing clients reject case-mangled echoes.
///
/// Both messages must carry the question uncompressed at offset 12 with
/// the same label structure (ASCII-case-insensitively equal). On any
/// mismatch — compression pointers in the query, different shapes,
/// truncated buffers — `resp` is left untouched and `false` is returned.
pub fn patch_question_case(resp: &mut [u8], query: &[u8]) -> bool {
    const HDR: usize = 12;
    let mut pos = HDR;
    loop {
        let (q, r) = match (query.get(pos), resp.get(pos)) {
            (Some(&q), Some(&r)) => (q as usize, r as usize),
            _ => return false,
        };
        if q != r {
            return false;
        }
        if q == 0 {
            break; // both names end at the same root octet
        }
        if q > MAX_LABEL_LEN {
            return false; // compression pointer or junk length byte
        }
        let (start, end) = (pos + 1, pos + 1 + q);
        match (query.get(start..end), resp.get(start..end)) {
            (Some(ql), Some(rl)) if ql.eq_ignore_ascii_case(rl) => {}
            _ => return false,
        }
        pos = end;
    }
    // Same name modulo case: copy the client's exact spelling over the
    // response's (label lengths are identical, so offsets line up).
    resp[HDR..=pos].copy_from_slice(&query[HDR..=pos]);
    true
}

/// Big-endian append helpers over the plain `Vec<u8>` output buffer.
trait PutExt {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_slice(&mut self, s: &[u8]);
}

impl PutExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

struct Encoder {
    buf: Vec<u8>,
    /// Name suffix view → offset of its first encoding. Keys are cheap
    /// `Name` clones (refcount bumps) hashed over their suffix bytes.
    compress: HashMap<Name, u16>,
    /// Byte offset of every record's TTL field, in section order (the
    /// [`encode_with_ttl_offsets`] contract).
    ttl_offsets: Vec<u32>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            buf: Vec::with_capacity(512),
            compress: HashMap::new(),
            ttl_offsets: Vec::new(),
        }
    }

    fn header(&mut self, msg: &Message) -> Result<(), DnsError> {
        let h = &msg.header;
        self.buf.put_u16(h.id);
        let mut flags: u16 = 0;
        if h.response {
            flags |= 0x8000;
        }
        flags |= (h.opcode.code() as u16) << 11;
        if h.authoritative {
            flags |= 0x0400;
        }
        if h.truncated {
            flags |= 0x0200;
        }
        if h.recursion_desired {
            flags |= 0x0100;
        }
        if h.recursion_available {
            flags |= 0x0080;
        }
        flags |= h.rcode.code() as u16;
        self.buf.put_u16(flags);
        let counts = [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ];
        for c in counts {
            let c = u16::try_from(c).map_err(|_| DnsError::CountMismatch { section: "header" })?;
            self.buf.put_u16(c);
        }
        Ok(())
    }

    fn question(&mut self, q: &Question) -> Result<(), DnsError> {
        self.name(&q.name)?;
        self.buf.put_u16(q.rtype.code());
        self.buf.put_u16(q.class.code());
        Ok(())
    }

    fn record(&mut self, r: &Record) -> Result<(), DnsError> {
        self.name(r.name())?;
        self.buf.put_u16(r.rtype().code());
        self.buf.put_u16(r.class().code());
        self.ttl_offsets.push(self.buf.len() as u32);
        self.buf.put_u32(r.ttl().as_secs());
        // Reserve the RDLENGTH slot and patch it after writing RDATA.
        let len_at = self.buf.len();
        self.buf.put_u16(0);
        let data_start = self.buf.len();
        self.rdata(r.rdata())?;
        let rdlen = self.buf.len() - data_start;
        let rdlen = u16::try_from(rdlen).map_err(|_| DnsError::MessageTooLong(rdlen))?;
        self.buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }

    fn rdata(&mut self, rd: &RData) -> Result<(), DnsError> {
        match rd {
            RData::A(a) => self.buf.put_slice(&a.octets()),
            RData::Aaaa(a) => self.buf.put_slice(&a.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.name(n)?,
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                self.name(mname)?;
                self.name(rname)?;
                for v in [serial, refresh, retry, expire, minimum] {
                    self.buf.put_u32(*v);
                }
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.buf.put_u16(*preference);
                self.name(exchange)?;
            }
            RData::Ds { key_tag, digest } => {
                self.buf.put_u16(*key_tag);
                self.buf.put_u32(*digest);
            }
            RData::Dnskey {
                key_tag,
                public_key,
            } => {
                self.buf.put_u16(*key_tag);
                self.buf.put_u32(*public_key);
            }
            RData::Txt(s) => {
                let bytes = s.as_bytes();
                if bytes.len() > 255 {
                    return Err(DnsError::BadRdata {
                        rtype: "TXT",
                        detail: "character-string longer than 255 octets",
                    });
                }
                self.buf.put_u8(bytes.len() as u8);
                self.buf.put_slice(bytes);
            }
        }
        Ok(())
    }

    /// Writes a (possibly compressed) domain name by walking its ancestor
    /// views — no intermediate label list or text keys are built.
    fn name(&mut self, name: &Name) -> Result<(), DnsError> {
        let mut current = name.clone();
        loop {
            if current.is_root() {
                self.buf.put_u8(0);
                return Ok(());
            }
            if let Some(&offset) = self.compress.get(&current) {
                self.buf.put_u16(0xC000 | offset);
                return Ok(());
            }
            // Pointers can only address the first 0x3FFF octets.
            if self.buf.len() <= 0x3FFF {
                self.compress.insert(current.clone(), self.buf.len() as u16);
            }
            let label = current.labels().next().expect("non-root name has a label");
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label);
            current = current.parent().expect("non-root name has a parent");
        }
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DnsError> {
        if self.pos + n > self.bytes.len() {
            return Err(DnsError::UnexpectedEof { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, DnsError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, DnsError> {
        let s = self.take(2, context)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, DnsError> {
        let s = self.take(4, context)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    #[allow(clippy::type_complexity)]
    fn header(&mut self) -> Result<(Header, (u16, u16, u16, u16)), DnsError> {
        let id = self.u16("header id")?;
        let flags = self.u16("header flags")?;
        let opcode_code = ((flags >> 11) & 0xF) as u8;
        let opcode = Opcode::from_code(opcode_code).ok_or(DnsError::UnknownOpcode(opcode_code))?;
        let rcode_code = (flags & 0xF) as u8;
        let rcode = Rcode::from_code(rcode_code).ok_or(DnsError::UnknownRcode(rcode_code))?;
        let header = Header {
            id,
            response: flags & 0x8000 != 0,
            opcode,
            authoritative: flags & 0x0400 != 0,
            truncated: flags & 0x0200 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode,
        };
        let qd = self.u16("qdcount")?;
        let an = self.u16("ancount")?;
        let ns = self.u16("nscount")?;
        let ar = self.u16("arcount")?;
        Ok((header, (qd, an, ns, ar)))
    }

    fn question(&mut self) -> Result<Question, DnsError> {
        let name = self.name()?;
        let rtype = self.rtype()?;
        let class = self.class()?;
        Ok(Question { name, rtype, class })
    }

    fn rtype(&mut self) -> Result<RecordType, DnsError> {
        let code = self.u16("record type")?;
        RecordType::from_code(code).ok_or(DnsError::UnknownRecordType(code))
    }

    fn class(&mut self) -> Result<RecordClass, DnsError> {
        let code = self.u16("record class")?;
        RecordClass::from_code(code).ok_or(DnsError::UnknownClass(code))
    }

    fn record(&mut self, _section: &'static str) -> Result<Option<Record>, DnsError> {
        let name = self.name()?;
        let code = self.u16("record type")?;
        if code == OPT_TYPE_CODE {
            // EDNS0 OPT pseudo-record (RFC 6891): the class field carries
            // the sender's UDP payload size and the TTL field extended
            // flags, neither of which is zone data. Consume and drop it so
            // OPT-bearing queries are answered instead of rejected.
            let _udp_size = self.u16("opt class")?;
            let _ext_flags = self.u32("opt ttl")?;
            let rdlen = self.u16("opt rdlength")? as usize;
            self.take(rdlen, "opt rdata")?;
            return Ok(None);
        }
        let rtype = RecordType::from_code(code).ok_or(DnsError::UnknownRecordType(code))?;
        let class = self.class()?;
        let ttl = Ttl::from_secs(self.u32("ttl")?);
        let rdlen = self.u16("rdlength")? as usize;
        let rdata_end = self.pos + rdlen;
        if rdata_end > self.bytes.len() {
            return Err(DnsError::UnexpectedEof { context: "rdata" });
        }
        let rdata = self.rdata(rtype, rdlen)?;
        if self.pos != rdata_end {
            return Err(DnsError::BadRdata {
                rtype: "generic",
                detail: "rdata length does not match rdlength",
            });
        }
        Ok(Some(Record::with_class(name, class, ttl, rdata)))
    }

    fn rdata(&mut self, rtype: RecordType, rdlen: usize) -> Result<RData, DnsError> {
        match rtype {
            RecordType::A => {
                let o = self.take(4, "A rdata")?;
                Ok(RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3])))
            }
            RecordType::Aaaa => {
                let o = self.take(16, "AAAA rdata")?;
                let mut a = [0u8; 16];
                a.copy_from_slice(o);
                Ok(RData::Aaaa(Ipv6Addr::from(a)))
            }
            RecordType::Ns => Ok(RData::Ns(self.name()?)),
            RecordType::Cname => Ok(RData::Cname(self.name()?)),
            RecordType::Ptr => Ok(RData::Ptr(self.name()?)),
            RecordType::Soa => Ok(RData::Soa {
                mname: self.name()?,
                rname: self.name()?,
                serial: self.u32("soa serial")?,
                refresh: self.u32("soa refresh")?,
                retry: self.u32("soa retry")?,
                expire: self.u32("soa expire")?,
                minimum: self.u32("soa minimum")?,
            }),
            RecordType::Mx => Ok(RData::Mx {
                preference: self.u16("mx preference")?,
                exchange: self.name()?,
            }),
            RecordType::Ds => Ok(RData::Ds {
                key_tag: self.u16("ds key tag")?,
                digest: self.u32("ds digest")?,
            }),
            RecordType::Dnskey => Ok(RData::Dnskey {
                key_tag: self.u16("dnskey tag")?,
                public_key: self.u32("dnskey key")?,
            }),
            RecordType::Txt => {
                if rdlen == 0 {
                    return Err(DnsError::BadRdata {
                        rtype: "TXT",
                        detail: "empty rdata",
                    });
                }
                let len = self.u8("txt length")? as usize;
                if len != rdlen - 1 {
                    return Err(DnsError::BadRdata {
                        rtype: "TXT",
                        detail: "character-string length disagrees with rdlength",
                    });
                }
                let raw = self.take(len, "txt data")?;
                let s = std::str::from_utf8(raw).map_err(|_| DnsError::BadRdata {
                    rtype: "TXT",
                    detail: "text is not valid UTF-8",
                })?;
                Ok(RData::Txt(s.to_string()))
            }
        }
    }

    /// Reads a possibly compressed name starting at the cursor, assembling
    /// the compact buffer directly via [`NameBuilder`].
    fn name(&mut self) -> Result<Name, DnsError> {
        let mut builder = NameBuilder::new();
        let mut pos = self.pos;
        // Position to restore after the name (set at the first pointer).
        let mut resume: Option<usize> = None;
        let mut hops = 0usize;
        loop {
            let len = *self
                .bytes
                .get(pos)
                .ok_or(DnsError::UnexpectedEof { context: "name" })? as usize;
            match len {
                0 => {
                    pos += 1;
                    break;
                }
                1..=63 => {
                    let start = pos + 1;
                    let end = start + len;
                    let raw = self
                        .bytes
                        .get(start..end)
                        .ok_or(DnsError::UnexpectedEof { context: "label" })?;
                    builder.push(raw)?;
                    pos = end;
                }
                l if l & 0xC0 == 0xC0 => {
                    let second = *self
                        .bytes
                        .get(pos + 1)
                        .ok_or(DnsError::UnexpectedEof { context: "pointer" })?
                        as usize;
                    let target = ((len & 0x3F) << 8) | second;
                    // Pointers must move strictly backwards to terminate.
                    if target >= pos {
                        return Err(DnsError::BadPointer(pos));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(DnsError::BadPointer(pos));
                    }
                    if resume.is_none() {
                        resume = Some(pos + 2);
                    }
                    pos = target;
                }
                _ => return Err(DnsError::BadPointer(pos)),
            }
        }
        self.pos = resume.unwrap_or(pos);
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn referral() -> Message {
        let mut m = Message::response_to(&Message::query(
            99,
            Question::new(name("www.cs.ucla.edu"), RecordType::A),
        ));
        m.authorities.push(Record::new(
            name("ucla.edu"),
            Ttl::from_days(1),
            RData::Ns(name("ns1.ucla.edu")),
        ));
        m.authorities.push(Record::new(
            name("ucla.edu"),
            Ttl::from_days(1),
            RData::Ns(name("ns2.ucla.edu")),
        ));
        m.additionals.push(Record::new(
            name("ns1.ucla.edu"),
            Ttl::from_days(1),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        m.additionals.push(Record::new(
            name("ns2.ucla.edu"),
            Ttl::from_days(1),
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        ));
        m
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(42, Question::new(name("www.ucla.edu"), RecordType::A));
        let bytes = encode(&q).unwrap();
        assert_eq!(decode(&bytes).unwrap(), q);
    }

    #[test]
    fn referral_roundtrip_and_compression_shrinks_output() {
        let m = referral();
        let bytes = encode(&m).unwrap();
        assert_eq!(decode(&bytes).unwrap(), m);
        // Uncompressed, the repeated `ucla.edu` suffixes would cost far
        // more; compression should keep this referral under 150 octets.
        assert!(bytes.len() < 150, "got {} octets", bytes.len());
    }

    #[test]
    fn every_rdata_type_roundtrips() {
        let rdatas = vec![
            RData::A(Ipv4Addr::new(10, 1, 2, 3)),
            RData::Aaaa(Ipv6Addr::LOCALHOST),
            RData::Ns(name("ns1.example.com")),
            RData::Cname(name("alias.example.com")),
            RData::Ptr(name("host.example.com")),
            RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2026070500,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
            RData::Mx {
                preference: 10,
                exchange: name("mx.example.com"),
            },
            RData::Txt("v=spf1 -all".to_string()),
            RData::Ds {
                key_tag: 12345,
                digest: 0xDEAD_BEEF,
            },
            RData::Dnskey {
                key_tag: 12345,
                public_key: 0xFEED_F00D,
            },
        ];
        for rd in rdatas {
            let mut m = Message::default();
            m.answers
                .push(Record::new(name("example.com"), Ttl::from_hours(1), rd));
            let bytes = encode(&m).unwrap();
            assert_eq!(decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn header_flags_roundtrip() {
        let mut m = Message::query(7, Question::new(name("a.b"), RecordType::Txt));
        m.header.response = true;
        m.header.authoritative = true;
        m.header.truncated = true;
        m.header.recursion_available = true;
        m.header.rcode = Rcode::Refused;
        let bytes = encode(&m).unwrap();
        assert_eq!(decode(&bytes).unwrap().header, m.header);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let q = Message::query(1, Question::new(name("www.ucla.edu"), RecordType::A));
        let bytes = encode(&q).unwrap();
        for cut in [0, 5, 11, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Header (12 bytes, qdcount=1) followed by a name that points at
        // itself.
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0xC0, 12]); // pointer to its own offset
        bytes.extend_from_slice(&[0, 1, 0, 1]); // type A class IN
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            DnsError::BadPointer(_)
        ));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let q = Message::query(1, Question::new(name("x.y"), RecordType::A));
        let mut bytes = encode(&q).unwrap();
        // Patch the question's type field (last 4 bytes are type+class).
        let at = bytes.len() - 4;
        bytes[at] = 0xFF;
        bytes[at + 1] = 0xFF;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DnsError::UnknownRecordType(0xFFFF)
        );
    }

    #[test]
    fn compressed_pointer_name_decodes() {
        // Manually build: header qd=0 an=2; first record owns
        // "ucla.edu", second's name is a pointer to it.
        let mut bytes = vec![0, 1, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0];
        let name_at = bytes.len();
        bytes.extend_from_slice(b"\x04ucla\x03edu\x00");
        bytes.extend_from_slice(&[0, 1, 0, 1]); // A IN
        bytes.extend_from_slice(&[0, 0, 0x0E, 0x10]); // ttl 3600
        bytes.extend_from_slice(&[0, 4, 192, 0, 2, 1]);
        bytes.extend_from_slice(&[0xC0, name_at as u8]); // pointer
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        bytes.extend_from_slice(&[0, 0, 0x0E, 0x10]);
        bytes.extend_from_slice(&[0, 4, 192, 0, 2, 2]);
        let m = decode(&bytes).unwrap();
        assert_eq!(m.answers.len(), 2);
        assert_eq!(m.answers[0].name(), m.answers[1].name());
        assert_eq!(m.answers[1].name(), &name("ucla.edu"));
    }

    #[test]
    fn txt_too_long_rejected_on_encode() {
        let mut m = Message::default();
        m.answers.push(Record::new(
            name("t.example.com"),
            Ttl::from_secs(60),
            RData::Txt("x".repeat(300)),
        ));
        assert!(matches!(
            encode(&m).unwrap_err(),
            DnsError::BadRdata { rtype: "TXT", .. }
        ));
    }

    #[test]
    fn root_name_roundtrips() {
        let q = Message::query(3, Question::new(Name::root(), RecordType::Ns));
        let bytes = encode(&q).unwrap();
        assert_eq!(decode(&bytes).unwrap(), q);
    }

    /// Appends an EDNS0 OPT pseudo-record (root owner, UDP size 4096, no
    /// options) and bumps the wire arcount.
    fn append_opt(bytes: &mut Vec<u8>) {
        let ar = u16::from_be_bytes([bytes[10], bytes[11]]) + 1;
        bytes[10..12].copy_from_slice(&ar.to_be_bytes());
        bytes.push(0); // root owner name
        bytes.extend_from_slice(&OPT_TYPE_CODE.to_be_bytes());
        bytes.extend_from_slice(&4096u16.to_be_bytes()); // requestor UDP size
        bytes.extend_from_slice(&0u32.to_be_bytes()); // extended RCODE+flags
        bytes.extend_from_slice(&0u16.to_be_bytes()); // empty RDATA
    }

    #[test]
    fn opt_pseudo_record_is_stripped_on_decode() {
        let q = Message::query(5, Question::new(name("www.ucla.edu"), RecordType::A));
        let mut bytes = encode(&q).unwrap();
        append_opt(&mut bytes);
        let decoded = decode(&bytes).unwrap();
        // The OPT never surfaces as a record; the rest decodes as if the
        // query were plain DNS.
        assert_eq!(decoded, q);
        assert!(decoded.additionals.is_empty());
    }

    #[test]
    fn opt_with_rdata_options_is_skipped_whole() {
        let q = Message::query(6, Question::new(name("x.y"), RecordType::A));
        let mut bytes = encode(&q).unwrap();
        let ar = 1u16;
        bytes[10..12].copy_from_slice(&ar.to_be_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&OPT_TYPE_CODE.to_be_bytes());
        bytes.extend_from_slice(&1232u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        // One EDNS option: code 10 (COOKIE), 8 octets of payload.
        bytes.extend_from_slice(&12u16.to_be_bytes());
        bytes.extend_from_slice(&10u16.to_be_bytes());
        bytes.extend_from_slice(&8u16.to_be_bytes());
        bytes.extend_from_slice(&[0xAB; 8]);
        assert_eq!(decode(&bytes).unwrap(), q);
        // A truncated OPT RDATA still errors instead of panicking.
        bytes.truncate(bytes.len() - 4);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn ttl_offsets_address_every_record_ttl_in_section_order() {
        let m = referral();
        let (bytes, offsets) = encode_with_ttl_offsets(&m).unwrap();
        let ttls: Vec<u32> = m
            .answers
            .iter()
            .chain(&m.authorities)
            .chain(&m.additionals)
            .map(|r| r.ttl().as_secs())
            .collect();
        assert_eq!(offsets.len(), ttls.len());
        for (off, expect) in offsets.iter().zip(&ttls) {
            let at = *off as usize;
            let got = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(got, *expect, "ttl field at offset {at}");
        }
        // Patching at the reported offsets survives a decode round-trip.
        let mut patched = bytes.clone();
        for off in &offsets {
            let at = *off as usize;
            patched[at..at + 4].copy_from_slice(&7u32.to_be_bytes());
        }
        let back = decode(&patched).unwrap();
        for r in back
            .answers
            .iter()
            .chain(&back.authorities)
            .chain(&back.additionals)
        {
            assert_eq!(r.ttl().as_secs(), 7);
        }
    }

    #[test]
    fn question_case_patch_restores_client_spelling() {
        // The client sends a 0x20-randomized spelling; decode lowercases.
        let query_bytes = {
            let q = Message::query(77, Question::new(name("www.ucla.edu"), RecordType::A));
            let mut b = encode(&q).unwrap();
            b[13..16].copy_from_slice(b"wWw");
            b[17..21].copy_from_slice(b"UCLA");
            b
        };
        let decoded = decode(&query_bytes).unwrap();
        let mut resp_bytes = encode(&Message::response_to(&decoded)).unwrap();
        assert!(patch_question_case(&mut resp_bytes, &query_bytes));
        assert_eq!(&resp_bytes[12..26], &query_bytes[12..26]);
        // The patched bytes still decode to the same (case-folded) name.
        let back = decode(&resp_bytes).unwrap();
        assert_eq!(back.question().unwrap().name, name("www.ucla.edu"));
    }

    #[test]
    fn question_case_patch_refuses_mismatched_shapes() {
        let q = Message::query(1, Question::new(name("www.ucla.edu"), RecordType::A));
        let qb = encode(&q).unwrap();
        let other = Message::query(1, Question::new(name("web.ucla.edu"), RecordType::A));
        let mut rb = encode(&other).unwrap();
        let before = rb.clone();
        assert!(!patch_question_case(&mut rb, &qb), "different labels");
        assert_eq!(rb, before, "refused patch must not touch the buffer");

        let shorter = Message::query(1, Question::new(name("ucla.edu"), RecordType::A));
        let mut rb = encode(&shorter).unwrap();
        assert!(!patch_question_case(&mut rb, &qb), "different label count");

        // A query whose question name starts with a compression pointer
        // (malformed for a first name, but seen in the wild) is refused.
        let mut ptr_query = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        ptr_query.extend_from_slice(&[0xC0, 12, 0, 1, 0, 1]);
        let mut rb = encode(&q).unwrap();
        assert!(!patch_question_case(&mut rb, &ptr_query));

        // Truncated buffers are refused rather than panicking.
        let mut rb = encode(&q).unwrap();
        assert!(!patch_question_case(&mut rb, &qb[..13]));
    }

    /// A `www.ucla.edu` A query with ID 0xc9e9 and RD set, as wire bytes.
    fn plain_query() -> Vec<u8> {
        let mut query = Message::query(0xc9e9, Question::new(name("www.ucla.edu"), RecordType::A));
        query.header.recursion_desired = true;
        encode(&query).unwrap()
    }

    #[test]
    fn header_errors_name_their_field() {
        // The RCODE-8 query the daemon harness met: `c9 e9 01 d8 …`.
        let mut rcode8 = plain_query();
        rcode8[2..4].copy_from_slice(&[0x01, 0xd8]);
        assert_eq!(decode(&rcode8), Err(DnsError::UnknownRcode(8)));
        let mut opcode3 = plain_query();
        opcode3[2] |= 3 << 3;
        assert_eq!(decode(&opcode3), Err(DnsError::UnknownOpcode(3)));
    }

    #[test]
    fn undecodable_queries_get_notimp_or_formerr_with_the_question_echoed() {
        let rcode_of = |reply: &[u8]| Rcode::from_code(reply[3] & 0xF).unwrap();
        let question_at = |raw: &[u8]| raw.len() - 4;

        // Type HTTPS (65): NOTIMP, the header's ID and RD echoed, RA only
        // when offered, and the question copied byte for byte.
        let mut https = plain_query();
        https[2] |= 0x04; // AA on a query: dropped from the reply
        let at = question_at(&https);
        https[at..at + 2].copy_from_slice(&65u16.to_be_bytes());
        https[12 + 1] = b'W'; // the client's casing
        assert!(decode(&https).is_err());
        let reply = reply_to_undecodable(&https, false).unwrap();
        assert_eq!(reply[..2], https[..2]);
        assert_eq!(reply[2], 0x81, "QR and RD, opcode QUERY, no AA");
        assert_eq!(reply[3], Rcode::NotImp.code());
        assert_eq!(reply[4..12], [0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(reply[12..], https[12..]);
        let with_ra = reply_to_undecodable(&https, true).unwrap();
        assert_eq!(with_ra[3], 0x80 | Rcode::NotImp.code());

        // An unknown class or opcode is NOTIMP too; the opcode is echoed.
        let mut class = plain_query();
        let at = question_at(&class);
        class[at + 2..].copy_from_slice(&4u16.to_be_bytes());
        assert_eq!(
            rcode_of(&reply_to_undecodable(&class, false).unwrap()),
            Rcode::NotImp
        );
        let mut opcode = plain_query();
        opcode[2] |= 3 << 3;
        let reply = reply_to_undecodable(&opcode, false).unwrap();
        assert_eq!((rcode_of(&reply), reply[2] & 0x78), (Rcode::NotImp, 3 << 3));

        // A bad label byte or an unassigned RCODE is FORMERR.
        let mut label = plain_query();
        label[13] = b'!';
        assert_eq!(
            rcode_of(&reply_to_undecodable(&label, false).unwrap()),
            Rcode::FormErr
        );
        let mut rcode8 = plain_query();
        rcode8[3] |= 8;
        assert_eq!(
            rcode_of(&reply_to_undecodable(&rcode8, false).unwrap()),
            Rcode::FormErr
        );

        // No reply: two questions, a short header, a response, a question
        // cut short, or a reserved label type.
        let mut two = https.clone();
        two[5] = 2;
        assert_eq!(reply_to_undecodable(&two, false), None);
        assert_eq!(reply_to_undecodable(&https[..11], false), None);
        let mut response = https.clone();
        response[2] |= 0x80;
        assert_eq!(reply_to_undecodable(&response, false), None);
        assert_eq!(reply_to_undecodable(&https[..https.len() - 1], false), None);
        let mut reserved = https.clone();
        reserved[12] = 0x40;
        assert_eq!(reply_to_undecodable(&reserved, false), None);
    }
}
