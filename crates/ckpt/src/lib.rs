//! # scrutiny-ckpt — criticality-pruned checkpoint/restart
//!
//! The paper verifies its AD analysis with a "homemade checkpointing
//! library that saves only critical elements to checkpoints", plus an
//! *auxiliary file* that "only records the start and end locations of the
//! region of continuous critical elements" (§III.B). This crate is that
//! library, production-grade:
//!
//! * [`Bitmap`] — one bit per element: critical / uncritical.
//! * [`Regions`] — run-length encoding of a bitmap: the auxiliary file's
//!   in-memory form. Conversions both ways, set algebra, index iteration.
//! * [`VarData`] / [`VarRecord`] — typed checkpoint payloads (`f64`,
//!   `dcomplex`, `i64`), matching the NPB variable types of Table I.
//! * [`VarPlan`] — what to store per variable: everything, only critical
//!   regions, or precision-tiered regions (f64 / f32 / dropped — the
//!   paper's §VII future-work idea).
//! * [`writer`] / [`reader`] — a versioned binary format (magic, CRC32,
//!   explicit lengths) with byte-exact storage accounting, written either
//!   to memory or to disk; restore materializes full-size buffers, filling
//!   uncritical holes according to a [`FillPolicy`].
//! * [`backend`] — the object-store seam ([`StorageBackend`], the
//!   durable [`DirBackend`], the in-process [`MemBackend`]) and the one
//!   version scan, one version reader and one chain-aware pruner over it
//!   that the store, the async engine and the daemon all share.
//! * [`store`] — a versioned multi-checkpoint directory (keep-last-k), the
//!   usual operational shape of application-level C/R: the blocking face
//!   of the same publisher, scan, reader, pruner and recovery the engine runs.
//! * [`recovery`] — the one fallback walk, [`recover_latest`], that the
//!   store and the engine restart through: the newest version that fully
//!   verifies wins, damaged ones are named in a [`RecoveryReport`].
//! * [`delta`] — base+delta checkpoints (`SCRUTDLT`): epoch N stores a
//!   full image, epochs N+1… store only the dirty pages of the AD-pruned
//!   data file, so temporal and semantic pruning compose; reconstruction
//!   is bit-identical to a monolithic save. Also home of
//!   [`delta::publish_epoch`], the one publication routine for every
//!   layout (monolithic, sharded, delta): names, at-rest compression,
//!   commit-marker-last write order and byte accounting.
//! * [`compress`] — the optional `SCRUTCZB` at-rest compression
//!   container (self-written RLE and bit-plane codecs, byte-exact) and
//!   the lossy lo-tier element codec ([`LoCodec`]) that turns the
//!   paper's uncritical verdict into truncated-mantissa storage,
//!   gated by §IV.C restart-verification.
//! * [`shard`] — the one `SCRUTCKP` encoder: a shard-plan interpreter
//!   whose one-shard plan is the blocking writer, plus the two seals
//!   (one image, or shards beside a manifest).
//! * [`restore`] — the one reader, the read-side mirror of the sharded
//!   writer: it fetches and CRC-verifies shards and delta-chain links as
//!   pool jobs, assembling the same image at every thread count;
//!   `threads: 1` is the serial reader every blocking loader uses.

#![warn(missing_docs)]

pub mod backend;
pub mod bitmap;
pub mod compress;
pub mod delta;
pub mod format;
pub mod names;
pub mod reader;
pub mod recovery;
pub mod regions;
pub mod restore;
pub mod shard;
pub mod store;
pub mod writer;

pub use backend::{DirBackend, MemBackend, StorageBackend};
pub use bitmap::Bitmap;
pub use compress::{AtRest, CodecConfig, LoCodec};
pub use delta::{DeltaPolicy, DeltaStats};
pub use format::{
    CkptError, Crc32, DType, FillPolicy, StorageBreakdown, VarData, VarPlan, VarRecord,
};
pub use names::Tenant;
pub use reader::Checkpoint;
pub use recovery::{
    recover_latest, Recovered, RecoveryConfig, RecoveryReport, RecoveryWalk, RejectedVersion,
};
pub use regions::{Region, Regions};
pub use restore::{
    read_data_image_parallel, read_data_image_parallel_obs, RestoreOptions, RestoreStats,
};
pub use shard::{
    plan_shards, plan_shards_with, seal_image, seal_shards, serialize_shard, ShardManifest,
    ShardPlan,
};
pub use store::CheckpointStore;
pub use writer::{
    rebalance_breakdown, serialize, serialize_aux, serialize_data, serialize_data_with,
    serialize_with, write_file_atomic, SerializedCheckpoint,
};
