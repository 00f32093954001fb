//! Socket plumbing shared by the daemon and [`crate::RemoteBackend`]:
//! one [`Endpoint`] address type and one [`Stream`] that speaks either
//! TCP or Unix-domain sockets, std-only.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon listens / a client dials.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix-domain socket path (Unix platforms only).
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected byte stream to/from a daemon.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Wrap a dialed or accepted TCP socket. The protocol is strictly
    /// request/response and a frame leaves in one write, so Nagle's
    /// algorithm has nothing to coalesce and can only hold a frame back:
    /// it is off on every TCP stream, both ends.
    pub(crate) fn tcp(s: TcpStream) -> io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => Stream::tcp(TcpStream::connect(addr)?),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(path)?))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    // The default writes only the first buffer; a frame is a header and
    // a borrowed payload that must leave in one `writev`.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}
