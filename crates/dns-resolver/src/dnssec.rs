//! DNSSEC *structure* (paper §6): DS records are parent-side
//! infrastructure records, DNSKEYs live at the child, and a delegation is
//! secure when they match.
//!
//! This workspace simulates the structural part of DNSSEC that interacts
//! with the paper's schemes — where the records live, who serves them and
//! how long they stay cached — using a synthetic digest
//! ([`dns_core::synthetic_key_digest`]) in place of real cryptography.

use crate::{CachingServer, Outcome, Upstream};
use dns_core::{synthetic_key_digest, Name, Question, RData, RecordType, SimTime};
use std::fmt;

/// Result of validating one zone's delegation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecureStatus {
    /// A cached DS matches a DNSKEY served by the zone.
    Secure,
    /// No DS material is cached for the zone (unsigned delegation, or the
    /// referral that carried it has expired from the cache).
    Insecure,
    /// DS material exists but no served DNSKEY matches it — a broken or
    /// hijacked delegation.
    Bogus,
    /// The DNSKEY could not be fetched (e.g. the zone is under attack).
    Indeterminate,
}

impl fmt::Display for SecureStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SecureStatus::Secure => "secure",
            SecureStatus::Insecure => "insecure",
            SecureStatus::Bogus => "bogus",
            SecureStatus::Indeterminate => "indeterminate",
        })
    }
}

/// Whether `ds` commits to `key` under the synthetic digest.
pub fn ds_matches(ds: (u16, u32), key: (u16, u32)) -> bool {
    ds.0 == key.0 && ds.1 == synthetic_key_digest(key.1)
}

impl CachingServer {
    /// Validates `zone`'s delegation: compares the cached DS material
    /// (learned from the parent's referral and kept alive by the
    /// refresh/renewal/long-TTL schemes) against the DNSKEY the zone
    /// serves.
    ///
    /// Fetching the DNSKEY uses the normal resolution path (and therefore
    /// the cache), so validation keeps working through an attack on the
    /// ancestors for as long as the infrastructure records survive.
    pub fn validate_zone<U: Upstream>(
        &mut self,
        zone: &Name,
        now: SimTime,
        up: &mut U,
    ) -> SecureStatus {
        let ds = self.backend().with_infra(zone, |entry| match entry {
            Some(entry) if entry.is_fresh(now) && !entry.ds.is_empty() => Some(entry.ds.clone()),
            _ => None,
        });
        let Some(ds) = ds else {
            return SecureStatus::Insecure;
        };
        let question = Question::new(zone.clone(), RecordType::Dnskey);
        match self.resolve(&question, now, up) {
            Outcome::Answer { records, .. } => {
                let keys = records.iter().filter_map(|r| match r.rdata() {
                    RData::Dnskey {
                        key_tag,
                        public_key,
                    } => Some((*key_tag, *public_key)),
                    _ => None,
                });
                for key in keys {
                    if ds.iter().any(|&d| ds_matches(d, key)) {
                        return SecureStatus::Secure;
                    }
                }
                SecureStatus::Bogus
            }
            Outcome::NxDomain { .. } | Outcome::NoData { .. } => SecureStatus::Bogus,
            Outcome::Fail => SecureStatus::Indeterminate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_requires_tag_and_digest() {
        let key = (257u16, 0xFEED_F00Du32);
        let good = (257u16, synthetic_key_digest(0xFEED_F00D));
        assert!(ds_matches(good, key));
        // Wrong tag.
        assert!(!ds_matches((1, good.1), key));
        // Wrong digest.
        assert!(!ds_matches((257, good.1 ^ 1), key));
    }

    #[test]
    fn digest_is_deterministic_and_spreading() {
        assert_eq!(synthetic_key_digest(42), synthetic_key_digest(42));
        assert_ne!(synthetic_key_digest(1), synthetic_key_digest(2));
    }

    #[test]
    fn status_display() {
        assert_eq!(SecureStatus::Secure.to_string(), "secure");
        assert_eq!(SecureStatus::Bogus.to_string(), "bogus");
    }
}
