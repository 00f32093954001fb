//! The `scrutinyd` wire protocol: length-prefixed binary frames over a
//! byte stream (TCP or Unix socket). `docs/PROTOCOL.md` is the normative
//! spec; this module is its only implementation — both the daemon and
//! [`crate::RemoteBackend`] encode and decode through the same
//! [`Request`]/[`Response`] types, so the two sides cannot drift.
//!
//! Framing: `u32` little-endian payload length, then the payload; the
//! payload's first byte is an opcode ([`Request`]) or status byte
//! ([`Response`]), the rest is body. Strings are `u16` length + UTF-8;
//! blobs are `u32` length + bytes; integers are little-endian. A length
//! prefix above [`MAX_FRAME`] is rejected *before* any allocation —
//! garbage on the wire becomes a typed [`std::io::ErrorKind::InvalidData`]
//! error, not an OOM — and a legal prefix is still only a claim: the
//! receive buffer grows as bytes arrive ([`read_frame`]).
//!
//! A frame leaves in **one** write ([`write_frame`]: prefix, header and
//! borrowed payload in one `writev`), so a request never sits in the
//! kernel waiting for its second half to be acknowledged; and the one
//! large field of the protocol, an object's bytes, is never copied by
//! the codec — a decoded [`Request::Put`] borrows from the frame it was
//! read into, a [`Response::Bytes`] is written from and read into the
//! `Vec` its owner keeps.

use scrutiny_ckpt::format::Cursor;
use scrutiny_ckpt::CkptError;
use std::io::{self, IoSlice, Read, Write};

/// Protocol version a client states in [`Request::Hello`]; the daemon
/// refuses anything else ([`RejectReason::BadProto`]).
pub const PROTO_VERSION: u16 = 1;

/// Largest legal frame payload (length prefix bound): 256 MiB. Large
/// enough for any checkpoint shard the engine produces, small enough
/// that a corrupted length prefix fails fast.
pub const MAX_FRAME: u32 = 1 << 28;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Why the daemon refused an operation, as a closed set with stable
/// lower-snake wire codes (the codes are the wire format — see
/// `docs/PROTOCOL.md` — and the prefix of the
/// [`CkptError::Rejected`](scrutiny_ckpt::CkptError#variant.Rejected) string a
/// client surfaces).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Per-tenant inflight-byte budget exhausted; retry after inflight
    /// work drains.
    InflightBytes,
    /// The tenant is at its committed-version quota.
    VersionQuota,
    /// One object larger than the per-object cap.
    ObjectTooLarge,
    /// The daemon is draining for shutdown; no new work.
    Draining,
    /// Malformed object name (namespace escape, invalid field key).
    BadName,
    /// Malformed tenant id in HELLO.
    BadTenant,
    /// Client spoke an unsupported protocol version.
    BadProto,
    /// A non-HELLO request arrived before HELLO on this connection.
    NoHello,
}

impl RejectReason {
    /// The stable wire code.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::InflightBytes => "inflight_bytes",
            RejectReason::VersionQuota => "version_quota",
            RejectReason::ObjectTooLarge => "object_too_large",
            RejectReason::Draining => "draining",
            RejectReason::BadName => "bad_name",
            RejectReason::BadTenant => "bad_tenant",
            RejectReason::BadProto => "bad_proto",
            RejectReason::NoHello => "no_hello",
        }
    }

    /// Parse a wire code.
    pub fn from_code(code: &str) -> Option<RejectReason> {
        Some(match code {
            "inflight_bytes" => RejectReason::InflightBytes,
            "version_quota" => RejectReason::VersionQuota,
            "object_too_large" => RejectReason::ObjectTooLarge,
            "draining" => RejectReason::Draining,
            "bad_name" => RejectReason::BadName,
            "bad_tenant" => RejectReason::BadTenant,
            "bad_proto" => RejectReason::BadProto,
            "no_hello" => RejectReason::NoHello,
            _ => return None,
        })
    }
}

/// Per-tenant accounting the daemon reports for [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Committed checkpoint versions currently in the tenant's namespace.
    pub versions: u64,
    /// Objects currently in the tenant's namespace.
    pub objects: u64,
    /// Cumulative payload bytes accepted from this tenant (lifetime of
    /// the daemon, survives deletes).
    pub accepted_bytes: u64,
    /// Payload bytes currently being written on the tenant's behalf.
    pub inflight_bytes: u64,
}

/// A client→daemon frame. Strings and the PUT payload borrow — from the
/// caller when encoding, from the frame buffer when decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// First frame on every connection: protocol version + tenant id
    /// (empty string = the default tenant, the un-prefixed pool root).
    Hello {
        /// Client's protocol version ([`PROTO_VERSION`]).
        version: u16,
        /// Tenant id; empty for the default tenant.
        tenant: &'a str,
    },
    /// Store an object under a tenant-local grammar name.
    Put {
        /// Tenant-local object name (no `/`).
        name: &'a str,
        /// Object payload.
        bytes: &'a [u8],
    },
    /// Fetch a whole object.
    Get {
        /// Tenant-local object name.
        name: &'a str,
    },
    /// List the tenant's object names.
    List,
    /// Delete an object (idempotent).
    Delete {
        /// Tenant-local object name.
        name: &'a str,
    },
    /// Drop a client-correlated marker event into the daemon's obs log,
    /// so client-side phases (a recovery walk, a fault injection) are
    /// reconstructable from the daemon's single JSONL log.
    Mark {
        /// Marker label (must fit the obs naming scheme for a field
        /// *value* it is free-form; it is stored as a string field).
        label: &'a str,
        /// Extra string fields; keys must fit the obs naming scheme.
        fields: Vec<(&'a str, &'a str)>,
    },
    /// Ask for this tenant's [`TenantStats`].
    Stats,
    /// Liveness probe.
    Ping,
    /// Control frame: drain and stop the daemon. In-flight operations
    /// finish; new connections and further frames are refused.
    Shutdown,
}

/// A daemon→client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success, no payload.
    Ok,
    /// Success with an object payload ([`Request::Get`]).
    Bytes(Vec<u8>),
    /// Success with a name listing ([`Request::List`]).
    Names(Vec<String>),
    /// Success with tenant accounting ([`Request::Stats`]).
    Stats(TenantStats),
    /// The object does not exist (maps to
    /// [`std::io::ErrorKind::NotFound`] client-side — the signal layout
    /// probing relies on).
    NotFound(String),
    /// Refused by policy — quota, backpressure, drain, or a malformed
    /// request. The daemon stays healthy; the tenant's stored bytes are
    /// untouched.
    Rejected {
        /// Typed reason.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon failed to execute the operation (e.g. storage I/O
    /// error). Unlike [`Response::Rejected`] this is a failure, not a
    /// policy decision.
    Err(String),
}

// Opcodes (request payload byte 0).
const OP_HELLO: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_GET: u8 = 0x03;
const OP_LIST: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_MARK: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_PING: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;

// Status bytes (response payload byte 0).
const ST_OK: u8 = 0x80;
const ST_BYTES: u8 = 0x81;
const ST_NAMES: u8 = 0x82;
const ST_STATS: u8 = 0x83;
const ST_NOT_FOUND: u8 = 0x90;
const ST_REJECTED: u8 = 0x91;
const ST_ERR: u8 = 0x92;

// --------------------------------------------------------------------------
// Primitive encoding.
// --------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new(op: u8) -> Enc {
        Enc(vec![op])
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
        self.u16(s.len().min(u16::MAX as usize) as u16);
        self.0
            .extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
    }
    /// The length field of a blob that ends the frame; its bytes stay
    /// where they are and travel as the frame's tail.
    fn blob_len(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
    }
}

/// Decode `payload` through the checked cursor ([`Cursor`], the one
/// every checkpoint reader uses too): `fields` reads the body, every byte
/// must be consumed, and any refusal is one
/// [`std::io::ErrorKind::InvalidData`].
fn decode_with<'a, T>(
    payload: &'a [u8],
    fields: impl FnOnce(&mut Cursor<'a>) -> Result<T, CkptError>,
) -> io::Result<T> {
    let mut d = Cursor::new(payload);
    let v = fields(&mut d).and_then(|v| d.finish("frame").map(|()| v));
    v.map_err(|e| match e {
        CkptError::Corrupt(m) => bad(m),
        e => bad(e.to_string()),
    })
}

/// A blob that ends the frame: `u32` length, then its bytes.
fn blob<'a>(d: &mut Cursor<'a>) -> Result<&'a [u8], CkptError> {
    let n = d.u32()?;
    d.take(n as usize)
}

// --------------------------------------------------------------------------
// Framing.
// --------------------------------------------------------------------------

/// Write one frame — `u32` LE payload length, then the payload, which is
/// `head` followed by `tail` — in one vectored write, so the header a
/// codec built and the object bytes a caller lent need no joining copy
/// and the frame cannot straddle a Nagle / delayed-ACK stall. A payload
/// above [`MAX_FRAME`] is refused here ([`io::ErrorKind::InvalidInput`])
/// rather than sent for the peer to refuse.
pub fn write_frame(w: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let len = head.len() + tail.len();
    if len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME:#x}-byte cap"),
        ));
    }
    let prefix = (len as u32).to_le_bytes();
    let mut parts: [&[u8]; 3] = [&prefix, head, tail];
    while parts.iter().any(|p| !p.is_empty()) {
        let mut n = match w.write_vectored(&parts.map(IoSlice::new)) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        for p in &mut parts {
            let k = n.min(p.len());
            *p = &p[k..];
            n -= k;
        }
    }
    w.flush()
}

/// How far ahead of the bytes actually received a frame buffer may be
/// reserved: this much at first, then no more than what has arrived
/// again. Four hostile bytes therefore cost 1 MiB, not [`MAX_FRAME`].
const FIRST_RESERVE: usize = 1 << 20;

/// Read a frame's length prefix. A prefix above [`MAX_FRAME`] is
/// [`std::io::ErrorKind::InvalidData`]; a clean EOF before any byte of
/// it is [`std::io::ErrorKind::UnexpectedEof`] with message
/// `"connection closed"`.
fn read_len(r: &mut impl Read) -> io::Result<usize> {
    let mut len = [0u8; 4];
    // First byte separately: distinguishes "peer closed between frames"
    // from "frame torn mid-way".
    if r.read(&mut len[..1])? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    r.read_exact(&mut len[1..])?;
    let n = decode_with(&len, Cursor::u32)?;
    if n > MAX_FRAME {
        return Err(bad(format!(
            "frame length {n:#x} exceeds the {MAX_FRAME:#x}-byte cap (corrupt length prefix?)"
        )));
    }
    Ok(n as usize)
}

/// Fill `buf` up to `n` bytes from `r`, growing it as the bytes arrive
/// (see [`FIRST_RESERVE`]) and ending at exactly `n` bytes of capacity.
fn read_body(r: &mut impl Read, mut buf: Vec<u8>, n: usize) -> io::Result<Vec<u8>> {
    while buf.len() < n {
        let have = buf.len();
        let upto = n.min((2 * have).max(FIRST_RESERVE));
        buf.reserve_exact(upto - have);
        buf.resize(upto, 0);
        r.read_exact(&mut buf[have..])?;
    }
    Ok(buf)
}

/// Read one frame's payload, however the transport fragmented it. The
/// length prefix is validated ([`MAX_FRAME`]) and then still not
/// trusted: a garbage or hostile prefix must not drive an allocation, so
/// the buffer is never reserved more than 1 MiB, or the bytes already
/// received, ahead of the stream. A clean EOF before any
/// byte of the prefix is [`std::io::ErrorKind::UnexpectedEof`] with
/// message `"connection closed"` so callers can tell orderly close from
/// a torn frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let n = read_len(r)?;
    read_body(r, Vec::new(), n)
}

// --------------------------------------------------------------------------
// Request codec.
// --------------------------------------------------------------------------

impl<'a> Request<'a> {
    /// The frame payload as (header, tail): everything the codec builds,
    /// and the PUT payload left where the caller holds it.
    fn parts(&self) -> (Vec<u8>, &'a [u8]) {
        let tail = match self {
            Request::Put { bytes, .. } => bytes,
            _ => &[][..],
        };
        let e = match self {
            Request::Hello { version, tenant } => {
                let mut e = Enc::new(OP_HELLO);
                e.u16(*version);
                e.str(tenant);
                e
            }
            Request::Put { name, bytes } => {
                let mut e = Enc::new(OP_PUT);
                e.str(name);
                e.blob_len(bytes);
                e
            }
            Request::Get { name } => {
                let mut e = Enc::new(OP_GET);
                e.str(name);
                e
            }
            Request::List => Enc::new(OP_LIST),
            Request::Delete { name } => {
                let mut e = Enc::new(OP_DELETE);
                e.str(name);
                e
            }
            Request::Mark { label, fields } => {
                let mut e = Enc::new(OP_MARK);
                e.str(label);
                e.u16(fields.len().min(u16::MAX as usize) as u16);
                for (k, v) in fields {
                    e.str(k);
                    e.str(v);
                }
                e
            }
            Request::Stats => Enc::new(OP_STATS),
            Request::Ping => Enc::new(OP_PING),
            Request::Shutdown => Enc::new(OP_SHUTDOWN),
        };
        (e.0, tail)
    }

    /// Send as one frame ([`write_frame`]).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (head, tail) = self.parts();
        write_frame(w, &head, tail)
    }

    /// Decode a frame payload; the result borrows from it.
    pub fn decode(payload: &'a [u8]) -> io::Result<Request<'a>> {
        decode_with(payload, |d| {
            Ok(match d.u8()? {
                OP_HELLO => Request::Hello {
                    version: d.u16()?,
                    tenant: d.str()?,
                },
                OP_PUT => Request::Put {
                    name: d.str()?,
                    bytes: blob(d)?,
                },
                OP_GET => Request::Get { name: d.str()? },
                OP_LIST => Request::List,
                OP_DELETE => Request::Delete { name: d.str()? },
                OP_MARK => {
                    let label = d.str()?;
                    let n = d.u16()?;
                    // A field is two strings, each at least its length.
                    let n = d.count(n.into(), 4)?;
                    let fields = (0..n)
                        .map(|_| Ok((d.str()?, d.str()?)))
                        .collect::<Result<_, CkptError>>()?;
                    Request::Mark { label, fields }
                }
                OP_STATS => Request::Stats,
                OP_PING => Request::Ping,
                OP_SHUTDOWN => Request::Shutdown,
                op => {
                    return Err(CkptError::Corrupt(format!(
                        "unknown request opcode {op:#04x}"
                    )))
                }
            })
        })
    }
}

// --------------------------------------------------------------------------
// Response codec.
// --------------------------------------------------------------------------

/// Bytes of a BYTES payload before its blob: status byte + `u32` length.
const BYTES_HEAD: usize = 5;

impl Response {
    /// The frame payload as (header, tail): everything the codec builds,
    /// and a BYTES blob left in the `Vec` the backend returned.
    fn parts(&self) -> (Vec<u8>, &[u8]) {
        let tail = match self {
            Response::Bytes(b) => b.as_slice(),
            _ => &[],
        };
        let e = match self {
            Response::Ok => Enc::new(ST_OK),
            Response::Bytes(b) => {
                let mut e = Enc::new(ST_BYTES);
                e.blob_len(b);
                e
            }
            Response::Names(names) => {
                let mut e = Enc::new(ST_NAMES);
                e.u32(names.len() as u32);
                for n in names {
                    e.str(n);
                }
                e
            }
            Response::Stats(s) => {
                let mut e = Enc::new(ST_STATS);
                e.u64(s.versions);
                e.u64(s.objects);
                e.u64(s.accepted_bytes);
                e.u64(s.inflight_bytes);
                e
            }
            Response::NotFound(m) => {
                let mut e = Enc::new(ST_NOT_FOUND);
                e.str(m);
                e
            }
            Response::Rejected { reason, message } => {
                let mut e = Enc::new(ST_REJECTED);
                e.str(reason.code());
                e.str(message);
                e
            }
            Response::Err(m) => {
                let mut e = Enc::new(ST_ERR);
                e.str(m);
                e
            }
        };
        (e.0, tail)
    }

    /// Send as one frame ([`write_frame`]).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (head, tail) = self.parts();
        write_frame(w, &head, tail)
    }

    /// Read and decode one response frame. A BYTES blob — the one large
    /// response — is received straight into the `Vec` the caller keeps;
    /// everything else goes through [`read_frame`]'s buffer and
    /// [`Response::decode`]. Errors are [`read_frame`]'s and `decode`'s.
    pub fn read_from(r: &mut impl Read) -> io::Result<Response> {
        let n = read_len(r)?;
        let mut head = [0u8; BYTES_HEAD];
        let k = n.min(BYTES_HEAD);
        r.read_exact(&mut head[..k])?;
        if k == BYTES_HEAD && head[0] == ST_BYTES {
            let blob = decode_with(&head[1..], Cursor::u32)? as usize;
            if blob != n - BYTES_HEAD {
                return Err(bad(format!(
                    "BYTES frame of {n} bytes declares a {blob}-byte blob"
                )));
            }
            return Ok(Response::Bytes(read_body(r, Vec::new(), blob)?));
        }
        Response::decode(&read_body(r, head[..k].to_vec(), n)?)
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        decode_with(payload, |d| {
            Ok(match d.u8()? {
                ST_OK => Response::Ok,
                ST_BYTES => Response::Bytes(blob(d)?.to_vec()),
                ST_NAMES => {
                    let n = d.u32()?;
                    // Every name is at least its 2-byte length.
                    let n = d.count(n.into(), 2)?;
                    let names = (0..n)
                        .map(|_| Ok(d.str()?.to_owned()))
                        .collect::<Result<_, CkptError>>()?;
                    Response::Names(names)
                }
                ST_STATS => Response::Stats(TenantStats {
                    versions: d.u64()?,
                    objects: d.u64()?,
                    accepted_bytes: d.u64()?,
                    inflight_bytes: d.u64()?,
                }),
                ST_NOT_FOUND => Response::NotFound(d.str()?.to_owned()),
                ST_REJECTED => {
                    let code = d.str()?;
                    let reason = RejectReason::from_code(code).ok_or_else(|| {
                        CkptError::Corrupt(format!("unknown reject reason {code:?}"))
                    })?;
                    Response::Rejected {
                        reason,
                        message: d.str()?.to_owned(),
                    }
                }
                ST_ERR => Response::Err(d.str()?.to_owned()),
                st => {
                    return Err(CkptError::Corrupt(format!(
                        "unknown response status {st:#04x}"
                    )))
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields its bytes one per `read` — the most fragmented a transport
    /// can deliver a frame.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn payload_of(wire: &[u8]) -> Vec<u8> {
        let mut r = wire;
        let payload = read_frame(&mut r).unwrap();
        assert!(r.is_empty(), "one frame on the wire");
        payload
    }

    fn roundtrip_req(req: Request<'_>) {
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        assert_eq!(Request::decode(&payload_of(&wire)).unwrap(), req);
        let dribbled = read_frame(&mut Dribble(&wire)).unwrap();
        assert_eq!(Request::decode(&dribbled).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        assert_eq!(Response::decode(&payload_of(&wire)).unwrap(), resp);
        assert_eq!(Response::read_from(&mut wire.as_slice()).unwrap(), resp);
        assert_eq!(Response::read_from(&mut Dribble(&wire)).unwrap(), resp);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTO_VERSION,
            tenant: "t1",
        });
        roundtrip_req(Request::Put {
            name: "ckpt_000001.data",
            bytes: &[0, 1, 2, 255],
        });
        roundtrip_req(Request::Get {
            name: "ckpt_000001.aux",
        });
        roundtrip_req(Request::List);
        roundtrip_req(Request::Delete { name: "x" });
        roundtrip_req(Request::Mark {
            label: "recovery_start",
            fields: vec![("phase", "walk")],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Bytes(vec![9; 1000]));
        roundtrip_resp(Response::Bytes(Vec::new()));
        roundtrip_resp(Response::Names(vec!["a".into(), "b".into()]));
        roundtrip_resp(Response::Stats(TenantStats {
            versions: 3,
            objects: 7,
            accepted_bytes: 12345,
            inflight_bytes: 42,
        }));
        roundtrip_resp(Response::NotFound("no object".into()));
        roundtrip_resp(Response::Rejected {
            reason: RejectReason::VersionQuota,
            message: "at 8 versions".into(),
        });
        roundtrip_resp(Response::Err("disk on fire".into()));
    }

    #[test]
    fn a_frame_is_one_write_with_the_version_1_byte_layout() {
        /// Counts `write`/`write_vectored` calls; accepts everything.
        #[derive(Default)]
        struct Calls(Vec<u8>, usize);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.1 += 1;
                self.0.write_vectored(bufs)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Calls::default();
        let put = Request::Put {
            name: "ab",
            bytes: &[7, 8, 9],
        };
        put.write_to(&mut w).unwrap();
        assert_eq!(w.1, 1, "prefix, header and payload leave together");
        // u32 length | opcode | u16 + name | u32 + bytes — PROTOCOL.md's
        // layout, byte for byte what a version-1 peer has always sent.
        let want = [12, 0, 0, 0, 0x02, 2, 0, b'a', b'b', 3, 0, 0, 0, 7, 8, 9];
        assert_eq!(w.0, want);

        let mut w = Calls::default();
        Response::Bytes(vec![5; 3]).write_to(&mut w).unwrap();
        assert_eq!(w.1, 1);
        assert_eq!(w.0, [8, 0, 0, 0, 0x81, 3, 0, 0, 0, 5, 5, 5]);
    }

    #[test]
    fn a_short_writer_still_gets_the_whole_frame() {
        /// Takes at most three bytes per call, from the first non-empty
        /// buffer only — the `Write` default for vectored writes.
        struct Short(Vec<u8>);
        impl Write for Short {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut short, mut whole) = (Short(Vec::new()), Vec::new());
        write_frame(&mut short, b"header", &[1u8; 40]).unwrap();
        write_frame(&mut whole, b"header", &[1u8; 40]).unwrap();
        assert_eq!(short.0, whole);
    }

    #[test]
    fn garbage_length_prefix_is_invalid_data_not_an_allocation() {
        let wire = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length prefix"), "{err}");
        let err = Response::read_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_large_claim_cut_short_is_a_typed_eof_and_growth_ends_exact() {
        // The largest legal claim, 3 MiB, then EOF. (That the buffer is
        // not reserved ahead of the stream is `tests/remote_copies.rs`,
        // which counts allocations.)
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.resize(4 + (3 << 20), 0xAB);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Growth ends at exactly the frame: nothing spare to hand on.
        let n = (3 << 20) + 5;
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![1u8; n], &[]).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!((payload.len(), payload.capacity()), (n, n));
    }

    #[test]
    fn torn_frames_are_unexpected_eof() {
        // EOF before any byte: orderly close.
        let err = read_frame(&mut [].as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("connection closed"));
        // Frame cut mid-payload: torn.
        let mut wire = Vec::new();
        Response::Bytes(vec![7; 64]).write_to(&mut wire).unwrap();
        wire.truncate(wire.len() - 10);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = Response::read_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_or_truncated_payloads_are_rejected() {
        let mut wire = Vec::new();
        Request::Ping.write_to(&mut wire).unwrap();
        let mut p = payload_of(&wire);
        p.push(0);
        assert!(Request::decode(&p).is_err());
        let mut wire = Vec::new();
        let put = Request::Put {
            name: "x",
            bytes: &[1, 2, 3],
        };
        put.write_to(&mut wire).unwrap();
        let p = payload_of(&wire);
        assert!(Request::decode(&p[..p.len() - 1]).is_err());
        assert!(Request::decode(&[0x7F]).is_err());
        assert!(Response::decode(&[0x00]).is_err());
        // A BYTES blob length that disagrees with its frame, both ways.
        for blob in [2u8, 4] {
            let wire = [8, 0, 0, 0, 0x81, blob, 0, 0, 0, 5, 5, 5];
            let err = Response::read_from(&mut wire.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{blob}");
        }
        // Hostile counts: `u32::MAX` names in a 9-byte NAMES payload, and
        // `u16::MAX` MARK fields with none present.
        let names = [0x82, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, b'a', 0];
        let err = Response::decode(&names).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mark = [0x06, 1, 0, b'm', 0xFF, 0xFF];
        let err = Request::decode(&mark).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
