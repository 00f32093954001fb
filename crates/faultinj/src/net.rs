//! Wire-level fault injection: a TCP [`FaultProxy`] that sits between a
//! `scrutinyd` client and its daemon and damages the byte stream itself
//! — the failure modes a storage *service* adds on top of storage.
//!
//! The proxy is protocol-agnostic (it forwards opaque bytes), so this
//! crate needs no dependency on the daemon; tests point a
//! `RemoteBackend` at [`FaultProxy::addr`] and the proxy at the real
//! daemon. Faults are **one-shot**: the proxy starts disarmed
//! (pass-through), [`FaultProxy::arm`] primes the next matching
//! traffic, and after firing once the proxy passes traffic cleanly
//! again — exactly the shape the no-wedge contract needs (one epoch
//! fails with a typed error, the next succeeds). The exception is
//! [`NetFault::Dribble`], which damages nothing and so stays on while
//! armed. Both legs run with `TCP_NODELAY`, like the endpoints they
//! stand between: the proxy adds a hop, not a Nagle stall.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How the proxy damages the stream once armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Forward only `bytes` bytes of the next daemon→client response,
    /// then close both directions: the client sees a frame torn
    /// mid-prefix or mid-payload
    /// ([`std::io::ErrorKind::UnexpectedEof`]).
    TruncateResponse {
        /// Response bytes forwarded before the cut.
        bytes: usize,
    },
    /// Forward only `bytes` bytes of the next client→daemon request,
    /// then drop the connection — a publish dying mid-flight. The
    /// daemon's frame timeout discards the half request; the client
    /// sees a connection error.
    DropMidRequest {
        /// Request bytes forwarded before the drop.
        bytes: usize,
    },
    /// Overwrite the 4-byte length prefix of the next daemon→client
    /// response with `0xFFFF_FFFF`: the client's frame reader must
    /// refuse it *before allocating*
    /// ([`std::io::ErrorKind::InvalidData`]).
    GarbageResponseLength,
    /// Pass every byte through unchanged, in both directions, **one byte
    /// per write** for as long as the proxy stays armed (not one-shot):
    /// the receiver sees each frame in as many fragments as the
    /// transport can make of it, so a decoder that assumes a frame
    /// arrives in one `read` — as it now leaves in one `write` — fails.
    Dribble,
}

/// A live fault proxy; dropping it stops the listener.
pub struct FaultProxy {
    addr: String,
    armed: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral local port, forwarding every connection to
    /// the TCP address `upstream`. Starts disarmed (pure pass-through).
    pub fn spawn(upstream: impl Into<String>, fault: NetFault) -> io::Result<FaultProxy> {
        let upstream = upstream.into();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let armed = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let (armed2, stop2) = (armed.clone(), stop.clone());
        let accept = std::thread::Builder::new()
            .name("faultinj-proxy".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { break };
                    let Ok(server) = TcpStream::connect(&upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let _ = (client.set_nodelay(true), server.set_nodelay(true));
                    let armed3 = armed2.clone();
                    let _ = std::thread::Builder::new()
                        .name("faultinj-pipe".into())
                        .spawn(move || pipe_pair(client, server, fault, armed3));
                }
            })?;
        Ok(FaultProxy {
            addr,
            armed,
            stop,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the daemon's.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Prime the fault: the next matching traffic on *any* proxied
    /// connection is damaged, once ([`NetFault::Dribble`]: all traffic
    /// from here on is fragmented).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Whether the fault is still waiting to fire.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Forward both directions of one connection, applying `fault` when it
/// fires. Claiming the armed flag (`swap(false)`) makes injection
/// exactly-once across connections and directions.
fn pipe_pair(client: TcpStream, server: TcpStream, fault: NetFault, armed: Arc<AtomicBool>) {
    let (c2, s2) = (client.try_clone(), server.try_clone());
    let (Ok(client2), Ok(server2)) = (c2, s2) else {
        return;
    };
    let armed_up = armed.clone();
    // client → server (requests).
    let up = std::thread::spawn(move || {
        pump(client2, server, Direction::Request, fault, armed_up);
    });
    // server → client (responses).
    pump(server2, client, Direction::Response, fault, armed);
    let _ = up.join();
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Request,
    Response,
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    dir: Direction,
    fault: NetFault,
    armed: Arc<AtomicBool>,
) {
    let mut buf = [0u8; 16 * 1024];
    // Which direction this pump damages, and the fault's byte budget.
    let applies = matches!(
        (fault, dir),
        (NetFault::TruncateResponse { .. }, Direction::Response)
            | (NetFault::DropMidRequest { .. }, Direction::Request)
            | (NetFault::GarbageResponseLength, Direction::Response)
    );
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if fault == NetFault::Dribble && armed.load(Ordering::SeqCst) {
            if buf[..n].iter().any(|b| to.write_all(&[*b]).is_err()) {
                break;
            }
            continue;
        }
        // `swap` claims the one shot; a lost race means the other
        // direction (or another connection) fired first and this pump
        // just forwards.
        if applies && armed.load(Ordering::SeqCst) && armed.swap(false, Ordering::SeqCst) {
            match fault {
                NetFault::TruncateResponse { bytes } | NetFault::DropMidRequest { bytes } => {
                    let keep = bytes.min(n);
                    let _ = to.write_all(&buf[..keep]);
                    let _ = to.flush();
                    break; // sockets shut below: the torn end is visible
                }
                NetFault::GarbageResponseLength => {
                    let mut damaged = buf[..n].to_vec();
                    for b in damaged.iter_mut().take(4) {
                        *b = 0xFF;
                    }
                    if to.write_all(&damaged).is_err() {
                        break;
                    }
                    continue;
                }
                NetFault::Dribble => unreachable!("handled above; never claims the shot"),
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny upstream echoing every byte back.
    fn echo_server() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            // One connection per test is enough.
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn passthrough_until_armed_then_one_shot_truncation() {
        let (up, h) = echo_server();
        let proxy = FaultProxy::spawn(up, NetFault::TruncateResponse { bytes: 2 }).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        // Disarmed: clean echo.
        conn.write_all(b"hello").unwrap();
        let mut got = [0u8; 5];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
        // Armed: response cut after 2 bytes, then EOF.
        proxy.arm();
        conn.write_all(b"world").unwrap();
        let mut got = Vec::new();
        conn.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"wo");
        assert!(!proxy.is_armed(), "fault fired and disarmed");
        drop(proxy);
        let _ = h.join();
    }

    #[test]
    fn dribble_changes_no_byte_and_stays_armed() {
        let (up, h) = echo_server();
        let proxy = FaultProxy::spawn(up, NetFault::Dribble).unwrap();
        proxy.arm();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let sent: Vec<u8> = (0..=255).collect();
        for _ in 0..2 {
            conn.write_all(&sent).unwrap();
            let mut got = vec![0u8; sent.len()];
            conn.read_exact(&mut got).unwrap();
            assert_eq!(got, sent);
            assert!(proxy.is_armed(), "not a one-shot fault");
        }
        drop(conn);
        drop(proxy);
        let _ = h.join();
    }
}
