//! # scrutiny-engine — asynchronous, sharded checkpoint pipeline
//!
//! The paper's storage reduction shrinks checkpoint *bytes*; this crate
//! removes the remaining cost from the compute thread's critical path:
//! the time spent serializing and writing them. Hascoët & Araya-Polo
//! frame checkpoint placement as a runtime policy decoupled from the
//! application, and the authors' AutoCheck work targets long-running
//! loops where checkpoint latency dominates — so the engine makes the
//! whole scrutinize→prune→checkpoint flow a background pipeline:
//!
//! * [`Snapshot`] / staging — `submit` memcpys the variables into an
//!   owned snapshot (double-buffered: a new snapshot stages while the
//!   previous one publishes; [`EngineConfig::queue_depth`] is the one
//!   admission bound) and the compute loop resumes immediately.
//! * one publisher thread per engine — takes submissions in version
//!   order and runs each to completion, serializing the pruned/tiered
//!   payload off-thread and **sharding large variables across up to
//!   `workers` threads** (via [`scrutiny_ckpt::shard::plan_shards`] and
//!   [`scrutiny_ckpt::restore::run_jobs`], the restore pipeline's job
//!   runner) so a single big array does not serialize on one core.
//!   Output is bit-identical to the blocking writer's.
//! * [`StorageBackend`] — pluggable object stores. The trait,
//!   [`DirBackend`] (today's file layout, fsync-durable — the same
//!   backend a [`scrutiny_ckpt::CheckpointStore`] holds) and
//!   [`MemBackend`] (in-process, for tests and burn-in) live in
//!   [`scrutiny_ckpt::backend`] and are re-exported here, together with
//!   the one version scan, reader and chain-aware pruner over them; this
//!   crate adds [`NamespacedBackend`] (one tenant's view of a pool).
//!   Every layout is written by the one publisher the blocking store
//!   also uses, [`scrutiny_ckpt::delta::publish_epoch`].
//! * [`EngineHandle`] — `submit(vars, plans) -> Ticket`,
//!   `wait(ticket) -> StorageBreakdown`, `drain()`, with publisher
//!   failures (including panics) propagated to the caller.
//! * delta mode ([`EngineConfig::delta`]) — epochs publish as base+delta
//!   chains ([`scrutiny_ckpt::delta`]): only the dirty pages of the
//!   AD-pruned serialized state are written after the base, with
//!   periodic rebases and chain-aware retention, so temporal and
//!   semantic redundancy removal compose. Page diffing happens on the
//!   publisher thread, one epoch after another, so each delta patches
//!   the last image that reached the backend.
//! * [`RecoveryManager`] — the corruption-tolerant read side: restores
//!   the newest checkpoint that fully verifies (shards and delta links
//!   fetched and CRC-checked concurrently by
//!   [`scrutiny_ckpt::restore`]), walking back across damaged versions
//!   and naming each rejected one in a typed [`RecoveryReport`].
//!
//! The whole lifecycle — submit asynchronously, lose a byte on the
//! storage tier, recover to the newest intact version:
//!
//! ```
//! use scrutiny_engine::{
//!     EngineConfig, EngineHandle, MemBackend, RecoveryConfig, RecoveryManager,
//!     StorageBackend,
//! };
//! use scrutiny_ckpt::{names, VarData, VarPlan, VarRecord};
//! use std::sync::Arc;
//!
//! let mem = Arc::new(MemBackend::new());
//! let engine = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();
//!
//! // Two checkpoint epochs; compute overlaps the publisher's serialization.
//! for epoch in 0..2 {
//!     let vars = vec![VarRecord::new("u", VarData::F64(vec![epoch as f64; 1000]))];
//!     let ticket = engine.submit(&vars, &[VarPlan::Full]).unwrap();
//!     // … compute continues here while the publisher serializes and stores …
//!     let storage = engine.wait(ticket).unwrap();
//!     assert!(storage.total() > 8000);
//! }
//!
//! // The storage tier damages a byte of the newest checkpoint…
//! let mut bytes = mem.get(&names::data(1)).unwrap();
//! bytes[100] ^= 0xFF;
//! mem.put(&names::data(1), &bytes).unwrap();
//!
//! // …so recovery rejects version 1 (CRC mismatch) and falls back.
//! let recovered = RecoveryManager::new(mem, RecoveryConfig::default())
//!     .recover_latest()
//!     .unwrap();
//! assert_eq!(recovered.version, 0);
//! assert_eq!(recovered.report.rejected_versions(), vec![1]);
//! assert!(recovered.checkpoint.var("u").is_ok());
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod recovery;
pub mod snapshot;

pub use backend::{
    list_tenants, list_versions, prune_chain_aware, read_version, DirBackend, MemBackend,
    NamespacedBackend, StorageBackend,
};
pub use engine::{EngineConfig, EngineHandle, Layout, Ticket};
pub use error::EngineError;
pub use recovery::{
    Recovered, RecoveryConfig, RecoveryManager, RecoveryReport, RecoveryWalk, RejectedVersion,
};
pub use snapshot::{Snapshot, StagingGate};
// Re-export the delta-chain policy and the restore pipeline's knobs so
// delta-mode engines and recovery callers configure from one crate.
pub use scrutiny_ckpt::delta::DeltaPolicy;
pub use scrutiny_ckpt::restore::{RestoreOptions, RestoreStats};
