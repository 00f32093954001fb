//! [`RemoteBackend`] — a [`StorageBackend`] that speaks the `scrutinyd`
//! wire protocol, so every existing engine, recovery manager, prune, and
//! fault campaign runs against a live daemon unchanged.
//!
//! Connections are a checkout pool: an operation pops an idle connection
//! (or dials and HELLOs a fresh one), runs one request/response
//! exchange, and returns the connection on success. **Any** wire error
//! discards the connection and surfaces the typed error — the next
//! operation dials fresh. A failed epoch therefore never wedges the
//! submitting engine's chain: the broken socket dies with the error, and
//! the engine's next submission starts clean.

use crate::proto::{RejectReason, Request, Response, TenantStats, PROTO_VERSION};
use crate::sock::{Endpoint, Stream};
use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::CkptError;
use scrutiny_engine::StorageBackend;
use std::io;
use std::sync::Mutex;

fn io_err(kind: io::ErrorKind, msg: String) -> CkptError {
    CkptError::Io(io::Error::new(kind, msg))
}

/// Map a decoded response that is an error status onto the typed
/// [`CkptError`] the storage contract requires.
fn status_err(resp: Response) -> CkptError {
    match resp {
        Response::NotFound(m) => io_err(io::ErrorKind::NotFound, m),
        Response::Rejected { reason, message } => {
            CkptError::Rejected(format!("{}: {message}", reason.code()))
        }
        Response::Err(m) => io_err(io::ErrorKind::Other, format!("daemon error: {m}")),
        ok => io_err(
            io::ErrorKind::InvalidData,
            format!("unexpected daemon response {ok:?}"),
        ),
    }
}

/// A client handle to one tenant's namespace on one daemon.
///
/// `Send + Sync`: engine workers share one `RemoteBackend` and each
/// in-flight operation checks out its own connection.
pub struct RemoteBackend {
    endpoint: Endpoint,
    tenant: Option<Tenant>,
    idle: Mutex<Vec<Stream>>,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("endpoint", &self.endpoint)
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl RemoteBackend {
    /// Connect to `endpoint` as `tenant` (`None` = the default tenant,
    /// the un-prefixed pool root). Dials and handshakes eagerly, so a
    /// wrong address, refused tenant, or protocol mismatch fails here
    /// with a typed error rather than on the first checkpoint epoch.
    pub fn connect(endpoint: Endpoint, tenant: Option<Tenant>) -> Result<RemoteBackend, CkptError> {
        let backend = RemoteBackend {
            endpoint,
            tenant,
            idle: Mutex::new(Vec::new()),
        };
        let conn = backend.dial()?;
        backend.idle.lock().unwrap().push(conn);
        Ok(backend)
    }

    /// The daemon endpoint this backend dials.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The tenant this backend submits as; `None` for the default tenant.
    pub fn tenant(&self) -> Option<&Tenant> {
        self.tenant.as_ref()
    }

    fn dial(&self) -> Result<Stream, CkptError> {
        let mut conn = Stream::connect(&self.endpoint)?;
        let hello = Request::Hello {
            version: PROTO_VERSION,
            tenant: self.tenant.as_ref().map_or("", Tenant::as_str),
        };
        hello.write_to(&mut conn)?;
        match Response::read_from(&mut conn)? {
            Response::Ok => Ok(conn),
            other => Err(status_err(other)),
        }
    }

    /// One request/response exchange. On any wire failure the connection
    /// is dropped (not returned to the pool) so no later operation can
    /// read a stale or torn response off it.
    fn rpc(&self, req: &Request<'_>) -> Result<Response, CkptError> {
        let mut conn = match self.idle.lock().unwrap().pop() {
            Some(c) => c,
            None => self.dial()?,
        };
        let exchange = (|| -> io::Result<Response> {
            req.write_to(&mut conn)?;
            Response::read_from(&mut conn)
        })();
        match exchange {
            Ok(resp) => {
                self.idle.lock().unwrap().push(conn);
                Ok(resp)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), CkptError> {
        match self.rpc(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(status_err(other)),
        }
    }

    /// This tenant's accounting, as the daemon sees it.
    pub fn stats(&self) -> Result<TenantStats, CkptError> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(status_err(other)),
        }
    }

    /// Drop a client-correlated marker event into the daemon's obs log
    /// (a `scrutinyd.mark` event tagged with this tenant), so
    /// client-side phases — a recovery walk starting, a fault injected —
    /// are reconstructable from the daemon's single JSONL log. Field
    /// keys must fit the obs naming scheme.
    pub fn mark(&self, label: &str, fields: &[(&str, &str)]) -> Result<(), CkptError> {
        let req = Request::Mark {
            label,
            fields: fields.to_vec(),
        };
        match self.rpc(&req)? {
            Response::Ok => Ok(()),
            other => Err(status_err(other)),
        }
    }

    /// Send the drain-and-shutdown control frame. The daemon finishes
    /// in-flight work, refuses new frames, and its accept loop exits;
    /// pair with [`crate::Daemon::join`] on the hosting side.
    pub fn shutdown_daemon(&self) -> Result<(), CkptError> {
        match self.rpc(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(status_err(other)),
        }
    }

    /// Whether an error is a typed daemon rejection with `reason`.
    pub fn is_rejection(e: &CkptError, reason: RejectReason) -> bool {
        matches!(e, CkptError::Rejected(m) if m.starts_with(reason.code()))
    }
}

impl StorageBackend for RemoteBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        match self.rpc(&Request::Put { name, bytes })? {
            Response::Ok => Ok(()),
            other => Err(status_err(other)),
        }
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        match self.rpc(&Request::Get { name })? {
            Response::Bytes(b) => Ok(b),
            other => Err(status_err(other)),
        }
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        match self.rpc(&Request::List)? {
            Response::Names(n) => Ok(n),
            other => Err(status_err(other)),
        }
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        match self.rpc(&Request::Delete { name })? {
            Response::Ok => Ok(()),
            other => Err(status_err(other)),
        }
    }

    fn label(&self) -> String {
        match &self.tenant {
            Some(t) => format!("remote:{t}@{}", self.endpoint),
            None => format!("remote:@{}", self.endpoint),
        }
    }
}
