//! Live UDP bindings for the DNS substrate.
//!
//! The simulator drives the same [`AuthServer`](dns_auth::AuthServer) and
//! [`CachingServer`](dns_resolver::CachingServer) types in virtual time;
//! this crate binds them to real sockets so the system can be *run*, not
//! just simulated:
//!
//! * [`Authd`] — an authoritative name-server daemon on a UDP socket,
//! * [`Resolved`] — a recursive caching-resolver daemon (a small worker
//!   pool with health reporting) whose upstream is the real network
//!   ([`UdpUpstream`]); each worker thread is a thin shell that reads a
//!   monotone clock around a [`Core`], which does the serving and can
//!   also be stepped without threads, in virtual time,
//! * [`FaultInjector`] — deterministic packet loss and per-server
//!   blackout windows wrapped around any upstream: the simulator's
//!   attack model replayed on real sockets,
//! * [`client::query`] — a one-shot dig-like client.
//!
//! The `dns-playground` binary boots an entire miniature internet (root,
//! TLD and leaf authoritative daemons plus a recursive resolver) on
//! loopback and resolves names through it.
//!
//! # Example
//!
//! ```rust
//! use dns_netd::{client, Authd};
//! use dns_core::{RecordType, ResponseKind, Ttl, ZoneBuilder};
//! use std::net::Ipv4Addr;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let zone = ZoneBuilder::new("example.com".parse()?)
//!     .ns("ns1.example.com".parse()?, Ipv4Addr::LOCALHOST, Ttl::from_days(1))
//!     .a("www.example.com".parse()?, Ipv4Addr::new(192, 0, 2, 80), Ttl::from_hours(4))
//!     .build()?;
//! let mut server = dns_auth::AuthServer::new("ns1.example.com".parse()?, Ipv4Addr::LOCALHOST);
//! server.add_zone(zone);
//!
//! let authd = Authd::spawn(server, "127.0.0.1:0")?;
//! let resp = client::query(
//!     authd.addr(),
//!     &"www.example.com".parse()?,
//!     RecordType::A,
//!     Duration::from_millis(500),
//! )?;
//! assert_eq!(resp.kind(), ResponseKind::Answer);
//! authd.stop();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authd;
pub mod client;
mod fault;
mod packetio;
pub mod playground;
mod resolved;
mod upstream;
mod wirecache;

pub use authd::Authd;
pub use fault::{FaultHandle, FaultInjector, FaultStats};
pub use packetio::{Packet, PacketBatch, PacketIo, UdpPacketIo, MAX_BATCH};
pub use resolved::{Core, DaemonStats, Resolved, CHAOS_METRICS_NAME};
pub use upstream::UdpUpstream;
pub use wirecache::{fast_query, lowercase_key, FastQuery, WireCache, DEFAULT_WIRE_CACHE_BYTES};

/// The wall clock mapped into the simulator's time vocabulary: seconds
/// since the UNIX epoch. It steps backwards when the system clock does,
/// so the daemon does not read it: its workers count monotonic time
/// from one wall-clock reading taken when the pool starts.
pub fn wall_clock() -> dns_core::SimTime {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    dns_core::SimTime::from_secs(secs)
}
