//! Error type shared across the DNS crates.

use std::fmt;

/// Errors produced while parsing, encoding or validating DNS data.
///
/// Every fallible public function in `dns-core` returns this type. It is
/// `Send + Sync + 'static` so it can flow through threads and be boxed as a
/// `dyn Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DnsError {
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// A label was empty where a non-empty label is required.
    EmptyLabel,
    /// A label contained a byte outside the supported hostname alphabet.
    InvalidLabelByte(u8),
    /// The full name would exceed 255 octets on the wire.
    NameTooLong(usize),
    /// Wire data ended before a complete item could be decoded.
    UnexpectedEof {
        /// What was being decoded when the buffer ran out.
        context: &'static str,
    },
    /// A compression pointer pointed at or beyond its own location, or the
    /// pointer chain was too long to be valid.
    BadPointer(usize),
    /// An unknown or unsupported record type code was encountered where a
    /// concrete `RData` was required.
    UnknownRecordType(u16),
    /// An unknown class code was encountered.
    UnknownClass(u16),
    /// A message header carried an unassigned opcode.
    UnknownOpcode(u8),
    /// A message header carried an unassigned response code.
    UnknownRcode(u8),
    /// An RDATA section did not have the length implied by its record type.
    BadRdata {
        /// Record type whose RDATA failed to decode.
        rtype: &'static str,
        /// Explanation of the mismatch.
        detail: &'static str,
    },
    /// A message section count promised more entries than the data holds.
    CountMismatch {
        /// Section name.
        section: &'static str,
    },
    /// Zone construction was given inconsistent data.
    InvalidZone(String),
    /// A string could not be parsed as a domain name.
    NameParse(String),
    /// Encoded message would exceed the configured size limit.
    MessageTooLong(usize),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63-octet limit"),
            DnsError::EmptyLabel => write!(f, "empty label inside a domain name"),
            DnsError::InvalidLabelByte(b) => write!(f, "invalid byte {b:#04x} in label"),
            DnsError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255-octet limit"),
            DnsError::UnexpectedEof { context } => {
                write!(f, "unexpected end of wire data while decoding {context}")
            }
            DnsError::BadPointer(at) => write!(f, "invalid compression pointer at offset {at}"),
            DnsError::UnknownRecordType(c) => write!(f, "unknown record type code {c}"),
            DnsError::UnknownClass(c) => write!(f, "unknown class code {c}"),
            DnsError::UnknownOpcode(c) => write!(f, "unknown opcode {c} in message header"),
            DnsError::UnknownRcode(c) => write!(f, "unknown rcode {c} in message header"),
            DnsError::BadRdata { rtype, detail } => {
                write!(f, "malformed rdata for {rtype} record: {detail}")
            }
            DnsError::CountMismatch { section } => {
                write!(f, "section count mismatch in {section} section")
            }
            DnsError::InvalidZone(detail) => write!(f, "invalid zone data: {detail}"),
            DnsError::NameParse(s) => write!(f, "cannot parse {s:?} as a domain name"),
            DnsError::MessageTooLong(n) => {
                write!(f, "encoded message of {n} octets exceeds size limit")
            }
        }
    }
}

impl std::error::Error for DnsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = DnsError::LabelTooLong(70);
        let s = e.to_string();
        assert!(s.starts_with("label"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<DnsError>();
    }

    #[test]
    fn header_errors_name_their_field() {
        assert_eq!(
            DnsError::UnknownOpcode(3).to_string(),
            "unknown opcode 3 in message header"
        );
        assert_eq!(
            DnsError::UnknownRcode(8).to_string(),
            "unknown rcode 8 in message header"
        );
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(DnsError::EmptyLabel, DnsError::EmptyLabel);
        assert_ne!(DnsError::EmptyLabel, DnsError::LabelTooLong(64));
    }
}
