//! The authoritative daemon: an [`AuthServer`] behind a UDP socket.

use dns_auth::AuthServer;
use dns_core::wire;
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running authoritative name-server daemon.
///
/// One OS thread receives datagrams, hands them to
/// [`AuthServer::handle_query`] and sends the responses back. Malformed
/// datagrams and responses (QR set) are dropped silently, like real
/// servers under junk traffic.
#[derive(Debug)]
pub struct Authd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Queries served (shared with the worker thread).
    served: Arc<std::sync::atomic::AtomicU64>,
}

impl Authd {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `server`'s zones.
    ///
    /// # Errors
    ///
    /// Returns any socket-level error from binding.
    pub fn spawn(server: AuthServer, bind: impl ToSocketAddrs) -> io::Result<Authd> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_served = Arc::clone(&served);
        let handle = std::thread::Builder::new()
            .name(format!("authd-{addr}"))
            .spawn(move || {
                let mut buf = [0u8; wire::MAX_MESSAGE_LEN];
                while !thread_stop.load(Ordering::Relaxed) {
                    let (len, peer) = match socket.recv_from(&mut buf) {
                        Ok(x) => x,
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            continue
                        }
                        Err(_) => break,
                    };
                    // Junk is dropped, and so is a response (QR set):
                    // answering responses lets two servers bounce one
                    // spoofed datagram between them forever.
                    let query = match wire::decode(&buf[..len]) {
                        Ok(query) if !query.header.response => query,
                        _ => continue,
                    };
                    let response = server.handle_query(&query);
                    // Count before sending so observers that received the
                    // response always see the increment.
                    thread_served.fetch_add(1, Ordering::Relaxed);
                    if let Ok(mut bytes) = wire::encode(&response) {
                        // Echo the client's exact question spelling:
                        // decoding lowercased the name, and 0x20-style
                        // clients reject a re-cased question.
                        wire::patch_question_case(&mut bytes, &buf[..len]);
                        let _ = socket.send_to(&bytes, peer);
                    }
                }
            })
            .expect("spawn authd thread");
        Ok(Authd {
            addr,
            stop,
            handle: Some(handle),
            served,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops the daemon and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Authd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Display for Authd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "authd on {} ({} served)", self.addr, self.served())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use dns_core::{Name, RecordType, ResponseKind, Ttl, ZoneBuilder};
    use std::net::Ipv4Addr;

    fn demo_server() -> AuthServer {
        let zone = ZoneBuilder::new("example.com".parse::<Name>().unwrap())
            .ns(
                "ns1.example.com".parse().unwrap(),
                Ipv4Addr::LOCALHOST,
                Ttl::from_days(1),
            )
            .a(
                "www.example.com".parse().unwrap(),
                Ipv4Addr::new(192, 0, 2, 80),
                Ttl::from_hours(4),
            )
            .build()
            .unwrap();
        let mut s = AuthServer::new("ns1.example.com".parse().unwrap(), Ipv4Addr::LOCALHOST);
        s.add_zone(zone);
        s
    }

    #[test]
    fn serves_queries_over_real_udp() {
        let authd = Authd::spawn(demo_server(), "127.0.0.1:0").unwrap();
        let resp = client::query(
            authd.addr(),
            &"www.example.com".parse().unwrap(),
            RecordType::A,
            Duration::from_millis(500),
        )
        .unwrap();
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert!(authd.served() >= 1);
        authd.stop();
    }

    #[test]
    fn junk_datagrams_are_ignored() {
        let authd = Authd::spawn(demo_server(), "127.0.0.1:0").unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"\xff\xff not dns", authd.addr()).unwrap();
        // A valid query still gets through afterwards.
        let resp = client::query(
            authd.addr(),
            &"www.example.com".parse().unwrap(),
            RecordType::A,
            Duration::from_millis(500),
        )
        .unwrap();
        assert_eq!(resp.kind(), ResponseKind::Answer);
        authd.stop();
    }

    #[test]
    fn responses_are_never_answered() {
        let authd = Authd::spawn(demo_server(), "127.0.0.1:0").unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let question = dns_core::Question::new("www.example.com".parse().unwrap(), RecordType::A);
        let mut msg = dns_core::Message::query(7, question);
        msg.header.response = true;
        sock.send_to(&wire::encode(&msg).unwrap(), authd.addr())
            .unwrap();
        let mut buf = [0u8; wire::MAX_MESSAGE_LEN];
        assert!(sock.recv_from(&mut buf).is_err(), "no reply");
        // The same datagram as a query is answered.
        msg.header.response = false;
        sock.send_to(&wire::encode(&msg).unwrap(), authd.addr())
            .unwrap();
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        let reply = wire::decode(&buf[..len]).unwrap();
        assert_eq!((reply.header.id, reply.kind()), (7, ResponseKind::Answer));
        assert_eq!(authd.served(), 1);
        authd.stop();
    }

    #[test]
    fn stop_terminates_promptly() {
        let authd = Authd::spawn(demo_server(), "127.0.0.1:0").unwrap();
        let addr = authd.addr();
        authd.stop();
        // The port no longer answers.
        let err = client::query(
            addr,
            &"www.example.com".parse().unwrap(),
            RecordType::A,
            Duration::from_millis(150),
        );
        assert!(err.is_err());
    }
}
