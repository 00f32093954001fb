//! The engine's face of the one recovery walk,
//! [`scrutiny_ckpt::recovery::recover_latest`]: restore the newest
//! checkpoint in a backend that fully verifies, falling back across
//! damaged versions and naming each rejected one in a
//! [`RecoveryReport`]. The walk, its report types and its events live
//! in `scrutiny-ckpt`, so a [`scrutiny_ckpt::CheckpointStore`] over the
//! same objects restarts to the same version.

use crate::backend::StorageBackend;
use crate::error::EngineError;
use scrutiny_ckpt::recovery::recover_latest;
pub use scrutiny_ckpt::recovery::{
    Recovered, RecoveryConfig, RecoveryReport, RecoveryWalk, RejectedVersion,
};
use std::sync::Arc;

/// A backend and the walk's configuration, held for repeated
/// [`RecoveryManager::recover_latest`] calls.
pub struct RecoveryManager {
    backend: Arc<dyn StorageBackend>,
    cfg: RecoveryConfig,
}

impl RecoveryManager {
    /// A manager over `backend` (typically
    /// [`crate::EngineHandle::backend`], or any store directory wrapped
    /// in a [`crate::DirBackend`]).
    pub fn new(backend: Arc<dyn StorageBackend>, cfg: RecoveryConfig) -> Self {
        RecoveryManager { backend, cfg }
    }

    /// Run the walk: the newest checkpoint that fully verifies, with a
    /// report naming every rejected version; if none verifies, the error
    /// is [`scrutiny_ckpt::CkptError::Unrecoverable`] carrying the same
    /// report.
    pub fn recover_latest(&self) -> Result<Recovered, EngineError> {
        Ok(recover_latest(self.backend.as_ref(), &self.cfg)?)
    }
}
