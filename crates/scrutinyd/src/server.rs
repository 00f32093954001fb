//! The `scrutinyd` daemon: N tenants' checkpoint traffic multiplexed
//! onto one [`StorageBackend`] pool.
//!
//! Each accepted connection is served by its own thread (std-only;
//! checkpoint traffic is few-connections/large-frames, where
//! thread-per-connection is the simple and fast shape). A connection
//! HELLOs into a tenant and from then on sees exactly that tenant's
//! namespace — a [`NamespacedBackend`] view of the pool, so isolation is
//! enforced by the same code path the embedded engines use, not by
//! daemon-side string checks.
//!
//! Admission control reuses the engine's double-buffered
//! [`StagingGate`], one per tenant: at most `admission` PUTs of a tenant
//! are against the pool at once, and further PUTs *block on the socket*
//! (natural backpressure) rather than failing. Hard quota violations —
//! inflight bytes, committed versions, object size — are refused with
//! typed [`Response::Rejected`] frames instead: the client sees
//! [`CkptError::Rejected`](scrutiny_ckpt::CkptError#variant.Rejected) and its
//! chain stays intact.
//!
//! Shutdown is a control frame ([`Request::Shutdown`]) or
//! [`Daemon::shutdown`]: the daemon stops accepting, lets in-flight
//! operations finish, closes idle connections at their next
//! between-frames poll, and [`Daemon::join`] then flushes the obs
//! [`Recorder`] snapshot to one JSONL log with every tenant's submit /
//! publish / marker history in it.

use crate::proto::{read_frame, RejectReason, Request, Response, TenantStats, PROTO_VERSION};
use crate::sock::{Endpoint, Stream};
use scrutiny_ckpt::names::{self, Tenant};
use scrutiny_ckpt::CkptError;
use scrutiny_engine::{list_versions, NamespacedBackend, StagingGate, StorageBackend};
use scrutiny_obs::{point, span, Gauge, Recorder};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often idle connections poll the drain flag between frames.
const POLL: Duration = Duration::from_millis(25);
/// Once a frame has started arriving, how long the daemon waits for the
/// rest before declaring the connection torn. Bounds how long a stuck
/// client can delay [`Daemon::join`].
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// The obs segment used for the default tenant (the un-prefixed pool
/// root). A HELLO naming this id explicitly is refused so per-tenant
/// metric names cannot collide with the root's.
pub const DEFAULT_TENANT_OBS: &str = "default";

/// Daemon policy: admission width, quotas, observability sinks.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Per-tenant concurrent PUT admissions (the [`StagingGate`]
    /// capacity). 2 = double-buffered, matching the engine's staging:
    /// one submission writes while the next stages.
    pub admission: usize,
    /// Per-tenant cap on payload bytes concurrently being written;
    /// beyond it PUTs are refused with `inflight_bytes`. `None` = no cap.
    pub max_inflight_bytes: Option<u64>,
    /// Per-object payload cap; larger PUTs are refused with
    /// `object_too_large`. `None` = no cap (frames are still bounded by
    /// [`MAX_FRAME`](crate::MAX_FRAME)).
    pub max_object_bytes: Option<u64>,
    /// Per-tenant cap on *committed* checkpoint versions; a PUT that
    /// would commit a version beyond it is refused with `version_quota`.
    /// Overwrites of an existing version and non-committing objects
    /// (aux, shards) always pass. `None` = no cap.
    pub max_versions: Option<usize>,
    /// Where daemon spans/points/gauges land. Disabled by default.
    pub recorder: Recorder,
    /// If set, [`Daemon::join`] writes the recorder's final snapshot
    /// here as JSONL (the single log the per-tenant history is
    /// reconstructed from).
    pub obs_jsonl: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            admission: 2,
            max_inflight_bytes: None,
            max_object_bytes: None,
            max_versions: None,
            recorder: Recorder::disabled(),
            obs_jsonl: None,
        }
    }
}

/// Per-tenant daemon state: the admission gate, byte accounting, and
/// pre-resolved per-tenant obs handles.
struct TenantState {
    gate: StagingGate,
    inflight_bytes: AtomicU64,
    accepted_bytes: AtomicU64,
    /// `scrutinyd.queue_depth.<tenant>`: PUTs admitted or waiting.
    queue_depth: Gauge,
    /// `scrutinyd.inflight_bytes.<tenant>`.
    inflight_gauge: Gauge,
    obs_name: String,
}

struct Shared {
    pool: Arc<dyn StorageBackend>,
    cfg: DaemonConfig,
    rec: Recorder,
    draining: AtomicBool,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn tenant_state(&self, obs_name: &str) -> Arc<TenantState> {
        let mut map = self.tenants.lock().unwrap();
        map.entry(obs_name.to_string())
            .or_insert_with(|| {
                Arc::new(TenantState {
                    gate: StagingGate::new(self.cfg.admission.max(1)),
                    inflight_bytes: AtomicU64::new(0),
                    accepted_bytes: AtomicU64::new(0),
                    queue_depth: self.rec.gauge(&format!("scrutinyd.queue_depth.{obs_name}")),
                    inflight_gauge: self
                        .rec
                        .gauge(&format!("scrutinyd.inflight_bytes.{obs_name}")),
                    obs_name: obs_name.to_string(),
                })
            })
            .clone()
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            // A socket `TCP_NODELAY` cannot be set on was reset before it
            // was served: its own loss, not a reason to stop listening.
            Listener::Tcp(l) => loop {
                if let Ok(stream) = Stream::tcp(l.accept()?.0) {
                    return Ok(stream);
                }
            },
            #[cfg(unix)]
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }
}

/// A running daemon. Dropping it (or calling
/// [`Daemon::shutdown`] + [`Daemon::join`]) drains and stops it.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    endpoint: Endpoint,
}

impl Daemon {
    /// Bind a TCP listener on `addr` (e.g. `127.0.0.1:0` for an
    /// ephemeral port — [`Daemon::endpoint`] reports the bound address)
    /// and serve `pool` behind it.
    pub fn spawn_tcp(
        addr: &str,
        pool: Arc<dyn StorageBackend>,
        cfg: DaemonConfig,
    ) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?.to_string());
        Self::spawn(Listener::Tcp(listener), endpoint, pool, cfg)
    }

    /// Bind a Unix-domain socket at `path` (removing any stale socket
    /// file first) and serve `pool` behind it.
    #[cfg(unix)]
    pub fn spawn_unix(
        path: impl Into<PathBuf>,
        pool: Arc<dyn StorageBackend>,
        cfg: DaemonConfig,
    ) -> io::Result<Daemon> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        Self::spawn(Listener::Unix(listener), Endpoint::Unix(path), pool, cfg)
    }

    fn spawn(
        listener: Listener,
        endpoint: Endpoint,
        pool: Arc<dyn StorageBackend>,
        cfg: DaemonConfig,
    ) -> io::Result<Daemon> {
        let rec = cfg.recorder.clone();
        let shared = Arc::new(Shared {
            pool,
            rec,
            cfg,
            draining: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("scrutinyd-accept".into())
            .spawn(move || loop {
                let stream = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                if accept_shared.draining.load(Ordering::SeqCst) {
                    break; // the shutdown wake-up dial, or a late client
                }
                let conn_shared = accept_shared.clone();
                let handle = std::thread::Builder::new()
                    .name("scrutinyd-conn".into())
                    .spawn(move || serve(conn_shared, stream));
                if let Ok(h) = handle {
                    accept_shared.conns.lock().unwrap().push(h);
                }
            })?;
        Ok(Daemon {
            shared,
            accept: Some(accept),
            endpoint,
        })
    }

    /// The address clients dial.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The daemon's recorder (e.g. to snapshot mid-run in tests).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.rec
    }

    /// Begin draining: stop accepting, let in-flight operations finish,
    /// close connections at their next between-frames poll. Idempotent;
    /// also triggered by a [`Request::Shutdown`] control frame.
    pub fn shutdown(&self) {
        trigger_drain(&self.shared, &self.endpoint);
    }

    /// Block until a shutdown is requested — a [`Request::Shutdown`]
    /// control frame from any client, or [`Daemon::shutdown`] from
    /// another thread — then drain and [`Daemon::join`]. This is the
    /// daemon binary's main loop.
    pub fn wait(self) -> io::Result<()> {
        while !self.shared.draining.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        self.join()
    }

    /// Drain (if not already draining) and wait for the accept loop and
    /// every connection to finish; then flush the obs snapshot to
    /// [`DaemonConfig::obs_jsonl`] and remove a Unix socket file.
    pub fn join(mut self) -> io::Result<()> {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let Some(h) = self.shared.conns.lock().unwrap().pop() else {
                break;
            };
            let _ = h.join();
        }
        if let Some(path) = &self.shared.cfg.obs_jsonl {
            std::fs::write(path, self.shared.rec.snapshot().to_jsonl())?;
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.accept.is_some() {
            trigger_drain(&self.shared, &self.endpoint);
            if let Some(h) = self.accept.take() {
                let _ = h.join();
            }
        }
    }
}

fn trigger_drain(shared: &Shared, endpoint: &Endpoint) {
    if !shared.draining.swap(true, Ordering::SeqCst) {
        point!(shared.rec, "scrutinyd.drain");
    }
    // Wake the accept loop: it only checks the flag after `accept`
    // returns, so dial it once. The connection is discarded immediately.
    let _ = Stream::connect(endpoint);
}

/// One HELLO'd connection's identity: the tenant's namespace view plus
/// its shared per-tenant state.
struct Session {
    view: NamespacedBackend,
    state: Arc<TenantState>,
}

fn serve(shared: Arc<Shared>, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut session: Option<Session> = None;
    while let Some(payload) = read_frame_polled(&shared, &mut stream) {
        shared.rec.add("scrutinyd.requests", 1);
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A malformed frame leaves the stream position
                // undefined; answer once, then close.
                let _ = Response::Err(format!("protocol error: {e}")).write_to(&mut stream);
                break;
            }
        };
        let shutdown_after = matches!(req, Request::Shutdown);
        let resp = handle(&shared, &mut session, req);
        if matches!(resp, Response::Rejected { .. }) {
            shared.rec.add("scrutinyd.rejections", 1);
        }
        if resp.write_to(&mut stream).is_err() {
            break;
        }
        if shutdown_after {
            trigger_drain(&shared, &daemon_endpoint_hint(&stream));
            break;
        }
    }
}

/// The drain wake-up needs *an* endpoint to dial; derive it from the
/// served connection's own socket so `serve` does not need the listener
/// address threaded through.
fn daemon_endpoint_hint(stream: &Stream) -> Endpoint {
    match stream {
        Stream::Tcp(s) => Endpoint::Tcp(
            s.local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "127.0.0.1:0".into()),
        ),
        #[cfg(unix)]
        Stream::Unix(s) => Endpoint::Unix(
            s.local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(PathBuf::from))
                .unwrap_or_default(),
        ),
    }
}

/// Read one frame, polling the drain flag between frames. `None` means
/// the connection is done (peer closed, torn frame, or drain).
fn read_frame_polled(shared: &Shared, stream: &mut Stream) -> Option<Vec<u8>> {
    // Between frames: wait for the first byte in short timeouts so a
    // drain closes idle connections promptly.
    let first = loop {
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        let mut b = [0u8; 1];
        match stream.read(&mut b) {
            Ok(0) => return None,
            Ok(_) => break b[0],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return None,
        }
    };
    // Committed to a frame: finish it under a bounded timeout, through
    // the one frame reader (cap check, growth as bytes arrive).
    let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
    let result = read_frame(&mut [first].as_slice().chain(&mut *stream));
    let _ = stream.set_read_timeout(Some(POLL));
    result.ok()
}

fn reject(reason: RejectReason, message: impl Into<String>) -> Response {
    Response::Rejected {
        reason,
        message: message.into(),
    }
}

fn handle(shared: &Shared, session: &mut Option<Session>, req: Request<'_>) -> Response {
    if let Request::Hello { version, tenant } = req {
        return handle_hello(shared, session, version, tenant);
    }
    if matches!(req, Request::Shutdown) {
        // Control plane: allowed pre-HELLO (operational tooling).
        return Response::Ok;
    }
    let Some(sess) = session.as_ref() else {
        return reject(RejectReason::NoHello, "first frame must be HELLO");
    };
    match req {
        Request::Put { name, bytes } => handle_put(shared, sess, name, bytes),
        Request::Get { name } => handle_get(shared, sess, name),
        Request::List => match sess.view.list() {
            Ok(names) => Response::Names(names),
            Err(e) => Response::Err(e.to_string()),
        },
        Request::Delete { name } => {
            if name.contains('/') {
                return reject(RejectReason::BadName, "object names must not contain '/'");
            }
            match sess.view.delete(name) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::Mark { label, fields } => handle_mark(shared, sess, label, &fields),
        Request::Stats => handle_stats(sess),
        Request::Ping => Response::Ok,
        Request::Hello { .. } | Request::Shutdown => unreachable!("handled above"),
    }
}

fn handle_hello(
    shared: &Shared,
    session: &mut Option<Session>,
    version: u16,
    tenant: &str,
) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return reject(RejectReason::Draining, "daemon is shutting down");
    }
    if version != PROTO_VERSION {
        return reject(
            RejectReason::BadProto,
            format!("protocol version {version} unsupported; daemon speaks {PROTO_VERSION}"),
        );
    }
    let (view, obs_name) = if tenant.is_empty() {
        (
            NamespacedBackend::root(shared.pool.clone()),
            DEFAULT_TENANT_OBS.to_string(),
        )
    } else {
        if tenant == DEFAULT_TENANT_OBS {
            return reject(
                RejectReason::BadTenant,
                format!("tenant id {DEFAULT_TENANT_OBS:?} is reserved for the pool root"),
            );
        }
        let t = match Tenant::new(tenant) {
            Ok(t) => t,
            Err(e) => return reject(RejectReason::BadTenant, e.to_string()),
        };
        let obs = t.as_str().to_string();
        (NamespacedBackend::for_tenant(shared.pool.clone(), t), obs)
    };
    let state = shared.tenant_state(&obs_name);
    point!(shared.rec, "scrutinyd.hello", tenant = obs_name.as_str());
    *session = Some(Session { view, state });
    Response::Ok
}

fn handle_put(shared: &Shared, sess: &Session, name: &str, bytes: &[u8]) -> Response {
    if name.contains('/') {
        return reject(
            RejectReason::BadName,
            format!("object name {name:?} escapes the tenant namespace"),
        );
    }
    let len = bytes.len() as u64;
    if let Some(cap) = shared.cfg.max_object_bytes {
        if len > cap {
            return reject(
                RejectReason::ObjectTooLarge,
                format!("object is {len} bytes; per-object cap is {cap}"),
            );
        }
    }
    let st = &sess.state;
    // Queue depth counts waiters too: the gauge shows pressure building
    // *before* the gate, which is what capacity planning needs.
    st.queue_depth.adjust(1);
    st.gate.acquire();
    let resp = admitted_put(shared, sess, name, bytes, len);
    st.gate.release();
    st.queue_depth.adjust(-1);
    resp
}

/// The quota checks and the write itself, run while holding one of the
/// tenant's admission slots.
fn admitted_put(shared: &Shared, sess: &Session, name: &str, bytes: &[u8], len: u64) -> Response {
    let st = &sess.state;
    if let Some(cap) = shared.cfg.max_inflight_bytes {
        let prev = st.inflight_bytes.fetch_add(len, Ordering::SeqCst);
        if prev + len > cap {
            st.inflight_bytes.fetch_sub(len, Ordering::SeqCst);
            return reject(
                RejectReason::InflightBytes,
                format!("{prev} inflight + {len} new bytes exceeds the {cap}-byte budget"),
            );
        }
    } else {
        st.inflight_bytes.fetch_add(len, Ordering::SeqCst);
    }
    st.inflight_gauge.adjust(len as i64);
    let resp = (|| {
        if let Some(maxv) = shared.cfg.max_versions {
            if let Some(v) = names::committed_version(name) {
                let existing = match list_versions(&sess.view) {
                    Ok(vs) => vs,
                    Err(e) => return Response::Err(e.to_string()),
                };
                if !existing.contains(&v) && existing.len() >= maxv {
                    return reject(
                        RejectReason::VersionQuota,
                        format!(
                            "tenant holds {} committed versions; quota is {maxv}",
                            existing.len()
                        ),
                    );
                }
            }
        }
        let span = span!(
            shared.rec,
            "scrutinyd.submit",
            tenant = st.obs_name.as_str(),
            object = name,
            bytes = len
        );
        let result = sess.view.put(name, bytes);
        drop(span);
        match result {
            Ok(()) => {
                st.accepted_bytes.fetch_add(len, Ordering::Relaxed);
                if let Some(v) = names::committed_version(name) {
                    point!(
                        shared.rec,
                        "scrutinyd.publish",
                        tenant = st.obs_name.as_str(),
                        version = v,
                        object = name,
                        bytes = len
                    );
                }
                Response::Ok
            }
            Err(e) => Response::Err(e.to_string()),
        }
    })();
    st.inflight_bytes.fetch_sub(len, Ordering::SeqCst);
    st.inflight_gauge.adjust(-(len as i64));
    resp
}

fn handle_get(shared: &Shared, sess: &Session, name: &str) -> Response {
    if name.contains('/') {
        return reject(
            RejectReason::BadName,
            format!("object name {name:?} escapes the tenant namespace"),
        );
    }
    let span = span!(
        shared.rec,
        "scrutinyd.fetch",
        tenant = sess.state.obs_name.as_str(),
        object = name
    );
    let result = sess.view.get(name);
    drop(span);
    match result {
        Ok(bytes) => Response::Bytes(bytes),
        Err(CkptError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            Response::NotFound(e.to_string())
        }
        Err(e) => Response::Err(e.to_string()),
    }
}

fn handle_mark(shared: &Shared, sess: &Session, label: &str, fields: &[(&str, &str)]) -> Response {
    for (k, _) in fields {
        if !scrutiny_obs::snapshot::valid_name(k) {
            return reject(
                RejectReason::BadName,
                format!("marker field key {k:?} violates the obs naming scheme"),
            );
        }
    }
    let mut all: Vec<(&str, scrutiny_obs::FieldValue)> = Vec::with_capacity(fields.len() + 2);
    all.push(("tenant", sess.state.obs_name.as_str().into()));
    all.push(("label", label.into()));
    for (k, v) in fields {
        all.push((k, (*v).into()));
    }
    shared.rec.event("scrutinyd.mark", &all);
    Response::Ok
}

fn handle_stats(sess: &Session) -> Response {
    let versions = match list_versions(&sess.view) {
        Ok(vs) => vs.len() as u64,
        Err(e) => return Response::Err(e.to_string()),
    };
    let objects = match sess.view.list() {
        Ok(names) => names.len() as u64,
        Err(e) => return Response::Err(e.to_string()),
    };
    Response::Stats(TenantStats {
        versions,
        objects,
        accepted_bytes: sess.state.accepted_bytes.load(Ordering::Relaxed),
        inflight_bytes: sess.state.inflight_bytes.load(Ordering::Relaxed),
    })
}
