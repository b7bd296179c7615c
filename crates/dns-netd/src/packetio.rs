//! Batched datagram I/O behind a trait: the daemon's worker threads move
//! packets through [`PacketIo`] (`recvmmsg`/`sendmmsg`-shaped — arrays of
//! packets per call), over a real UDP socket ([`UdpPacketIo`]) or a
//! caller's wrapper around one. Code that wants the daemon without
//! sockets skips the transport and steps its serving core directly
//! ([`crate::Resolved::cores`]).
//!
//! Batching matters because the wire fast lane answers hot queries
//! without message assembly: once serving a packet is cheap, the
//! per-datagram syscall and loop overhead dominates, and draining a burst
//! into one batch amortizes it. The crate forbids `unsafe`, so
//! [`UdpPacketIo`] emulates the `recvmmsg` shape portably: one blocking
//! receive (bounded by the socket's read timeout) followed by a
//! non-blocking drain of whatever else is queued.

use dns_core::wire;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};

/// Largest number of datagrams moved per [`PacketIo`] call — the
/// `mmsghdr` vector length, in kernel terms.
pub const MAX_BATCH: usize = 16;

/// Placeholder peer for unused packet slots.
const NO_PEER: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0));

/// One datagram: a fixed maximum-size buffer, the used length and the
/// peer it came from (or goes to).
#[derive(Debug, Clone)]
pub struct Packet {
    buf: Box<[u8; wire::MAX_MESSAGE_LEN]>,
    len: usize,
    peer: SocketAddr,
}

impl Packet {
    fn empty() -> Packet {
        Packet {
            buf: Box::new([0u8; wire::MAX_MESSAGE_LEN]),
            len: 0,
            peer: NO_PEER,
        }
    }

    /// The datagram payload.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The peer address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }
}

/// A reusable array of up to [`MAX_BATCH`] packets. Buffers are allocated
/// once and recycled across calls, so a steady-state recv → serve → send
/// cycle allocates nothing.
#[derive(Debug)]
pub struct PacketBatch {
    packets: Vec<Packet>,
    len: usize,
}

impl Default for PacketBatch {
    fn default() -> Self {
        PacketBatch::new()
    }
}

impl PacketBatch {
    /// A batch with all [`MAX_BATCH`] buffers pre-allocated.
    pub fn new() -> PacketBatch {
        PacketBatch {
            packets: (0..MAX_BATCH).map(|_| Packet::empty()).collect(),
            len: 0,
        }
    }

    /// Packets currently in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the batch is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == MAX_BATCH
    }

    /// Empties the batch (buffers are retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterator over the packets in the batch.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.packets[..self.len].iter()
    }

    /// Appends a packet by copying `bytes`. Returns `false` when the
    /// batch is full or `bytes` exceeds a datagram.
    pub fn push_copy(&mut self, bytes: &[u8], peer: SocketAddr) -> bool {
        if self.is_full() || bytes.len() > wire::MAX_MESSAGE_LEN {
            return false;
        }
        let slot = &mut self.packets[self.len];
        slot.buf[..bytes.len()].copy_from_slice(bytes);
        slot.len = bytes.len();
        slot.peer = peer;
        self.len += 1;
        true
    }

    /// Appends a packet written in place: `write` fills the slot's buffer
    /// and returns `Some(len)` to commit it, `None` to leave the batch
    /// unchanged. This is the zero-copy path the wire fast lane uses —
    /// a cache hit is patched directly into the send buffer.
    pub fn push_with(
        &mut self,
        peer: SocketAddr,
        write: impl FnOnce(&mut [u8]) -> Option<usize>,
    ) -> bool {
        if self.is_full() {
            return false;
        }
        let slot = &mut self.packets[self.len];
        match write(&mut slot.buf[..]) {
            Some(len) if len <= wire::MAX_MESSAGE_LEN => {
                slot.len = len;
                slot.peer = peer;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    /// The next free slot's buffer, for receive paths that fill in place.
    fn recv_slot(&mut self) -> &mut [u8] {
        &mut self.packets[self.len].buf[..]
    }

    /// Commits the slot filled by [`PacketBatch::recv_slot`].
    fn commit_recv(&mut self, len: usize, peer: SocketAddr) {
        self.packets[self.len].len = len;
        self.packets[self.len].peer = peer;
        self.len += 1;
    }
}

/// Batched datagram transport: `recvmmsg`/`sendmmsg` semantics over
/// whatever carries the packets.
pub trait PacketIo: Send {
    /// Clears `batch`, then moves up to [`MAX_BATCH`] waiting datagrams
    /// into it. Blocks for at most the transport's poll interval for the
    /// *first* datagram; `Ok(0)` is a timeout tick (callers use it to
    /// check their stop flag).
    ///
    /// # Errors
    ///
    /// Fatal transport errors only; timeouts are `Ok(0)`.
    fn recv_batch(&mut self, batch: &mut PacketBatch) -> io::Result<usize>;

    /// Sends every packet in `batch`, returning how many were accepted.
    /// Per-packet send failures skip that packet rather than aborting the
    /// batch (`sendmmsg` semantics).
    ///
    /// # Errors
    ///
    /// Fatal transport errors only.
    fn send_batch(&mut self, batch: &PacketBatch) -> io::Result<usize>;
}

/// [`PacketIo`] over a real UDP socket.
///
/// The first receive blocks under the socket's configured read timeout;
/// the rest of the batch is drained non-blocking. Worker pools clone one
/// socket, so the non-blocking toggle is shared across clones: another
/// worker's blocking receive may wake early with `WouldBlock` during the
/// drain window, which it already treats as a timeout tick — a benign
/// race that costs one loop iteration.
#[derive(Debug)]
pub struct UdpPacketIo {
    socket: UdpSocket,
}

impl UdpPacketIo {
    /// Wraps `socket` (read timeout should already be configured).
    pub fn new(socket: UdpSocket) -> UdpPacketIo {
        UdpPacketIo { socket }
    }
}

impl PacketIo for UdpPacketIo {
    fn recv_batch(&mut self, batch: &mut PacketBatch) -> io::Result<usize> {
        batch.clear();
        match self.socket.recv_from(batch.recv_slot()) {
            Ok((len, peer)) => batch.commit_recv(len, peer),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(0)
            }
            Err(e) => return Err(e),
        }
        // Greedily drain whatever else the kernel has queued.
        self.socket.set_nonblocking(true)?;
        let drained = loop {
            if batch.is_full() {
                break Ok(());
            }
            match self.socket.recv_from(batch.recv_slot()) {
                Ok((len, peer)) => batch.commit_recv(len, peer),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.socket.set_nonblocking(false)?;
        drained?;
        Ok(batch.len())
    }

    fn send_batch(&mut self, batch: &PacketBatch) -> io::Result<usize> {
        let mut sent = 0;
        for p in batch.iter() {
            if self.socket.send_to(p.bytes(), p.peer()).is_ok() {
                sent += 1;
            }
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn peer(port: u16) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }

    #[test]
    fn batch_push_and_iterate() {
        let mut b = PacketBatch::new();
        assert!(b.is_empty());
        assert!(b.push_copy(b"abc", peer(1)));
        assert!(b.push_with(peer(2), |buf| {
            buf[..2].copy_from_slice(b"xy");
            Some(2)
        }));
        // A declined in-place write leaves the batch unchanged.
        assert!(!b.push_with(peer(3), |_| None));
        assert_eq!(b.len(), 2);
        let got: Vec<(&[u8], SocketAddr)> = b.iter().map(|p| (p.bytes(), p.peer())).collect();
        assert_eq!(
            got,
            vec![(b"abc".as_slice(), peer(1)), (b"xy".as_slice(), peer(2))]
        );
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn batch_capacity_is_enforced() {
        let mut b = PacketBatch::new();
        for i in 0..MAX_BATCH {
            assert!(b.push_copy(&[i as u8], peer(9)));
        }
        assert!(b.is_full());
        assert!(!b.push_copy(b"overflow", peer(9)));
        assert!(!b.push_with(peer(9), |_| Some(1)));
    }

    #[test]
    fn udp_io_drains_a_burst_into_one_batch() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let addr = server.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..5u8 {
            client.send_to(&[i], addr).unwrap();
        }
        let mut io = UdpPacketIo::new(server);
        let mut batch = PacketBatch::new();
        let mut total = 0;
        // The burst may straddle scheduler ticks; a handful of calls must
        // recover all five datagrams, and at least one call must batch.
        let mut best = 0;
        for _ in 0..10 {
            let n = io.recv_batch(&mut batch).unwrap();
            best = best.max(n);
            total += n;
            if total == 5 {
                break;
            }
        }
        assert_eq!(total, 5, "all datagrams received");
        assert!(best >= 1);
    }

    #[test]
    fn udp_io_timeout_is_a_zero_tick() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut io = UdpPacketIo::new(server);
        let mut batch = PacketBatch::new();
        assert_eq!(io.recv_batch(&mut batch).unwrap(), 0);
    }
}
