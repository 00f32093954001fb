//! # scrutiny-faultinj — fault-injection validation of criticality maps
//!
//! The paper's §IV.C argument is falsifiable: corrupting *uncritical*
//! elements of a restored checkpoint must leave the application's
//! verification passing, while corrupting *critical* elements must not.
//! This crate runs those campaigns systematically.
//!
//! Two layers of fault live here:
//!
//! * [`campaign`] / [`corruption`] — damage restored *values* in memory
//!   to falsify the criticality maps (the paper's §IV.C experiment);
//! * [`storage`] — damage checkpoint *objects* at rest (truncated
//!   shards, flipped payload bytes, deleted delta bases, missing commit
//!   markers) to exercise the recovery pipeline's corruption fallback.
//!
//! A third layer targets the *service* path: [`net`] proxies a
//! `scrutinyd` connection and damages the byte stream itself (torn
//! frames, dropped connections mid-publish, garbage length prefixes),
//! validating that remote clients surface typed errors and never wedge
//! a submitting engine's chain.
//!
//! The test doubles live here too: [`ScriptedBackend`] is the one
//! [`scrutiny_engine::StorageBackend`] wrapper that logs every call and
//! scripts its faults, and [`CountingAlloc`] counts what a call
//! allocates.

#![warn(missing_docs)]

pub mod alloc;
pub mod campaign;
pub mod corruption;
pub mod net;
pub mod scripted;
pub mod storage;

pub use alloc::{allocated_by, allocated_during, CountingAlloc};
pub use campaign::{campaign_matrix, run_campaign, CampaignConfig, CampaignReport, Target};
pub use corruption::Corruption;
pub use net::{FaultProxy, NetFault};
pub use scripted::{Call, Op, Rule, ScriptedBackend};
pub use storage::{StorageFault, StorageScenario};
