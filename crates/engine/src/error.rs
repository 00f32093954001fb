//! Engine error type: checkpoint failures plus publisher failure modes.

use scrutiny_ckpt::CkptError;
use std::fmt;

/// Errors surfaced by the asynchronous checkpoint engine.
#[derive(Debug)]
pub enum EngineError {
    /// A checkpoint serialization/storage error (propagated from the
    /// publisher that hit it to the `wait`/`drain` caller).
    Ckpt(CkptError),
    /// The publisher (or one of its serializing threads) panicked while
    /// processing a submission; the payload is the panic message. The engine keeps running — only the affected
    /// ticket fails.
    WorkerPanic(String),
    /// The engine was configured unusably (zero workers, zero staging
    /// slots, delta mode over the sharded layout, …).
    InvalidConfig(String),
    /// `wait` was called with a ticket this engine never issued (or one
    /// that was already waited on).
    UnknownTicket(u64),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Ckpt(e) => write!(f, "checkpoint error: {e}"),
            EngineError::WorkerPanic(m) => write!(f, "checkpoint worker panicked: {m}"),
            EngineError::InvalidConfig(m) => write!(f, "invalid engine configuration: {m}"),
            EngineError::UnknownTicket(id) => {
                write!(f, "ticket {id} was never issued or already resolved")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Ckpt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for EngineError {
    fn from(e: CkptError) -> Self {
        EngineError::Ckpt(e)
    }
}
