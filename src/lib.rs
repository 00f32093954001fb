//! # scrutiny — umbrella crate for the workspace
//!
//! Reproduction of *"Scrutinizing Variables for Checkpoint Using Automatic
//! Differentiation"* (SC 2024). This crate only re-exports the workspace
//! members under stable module names so applications can depend on a single
//! crate; the repo-root `tests/` and `examples/` build against it.
//!
//! See the [`core`] crate docs for the end-to-end workflow, and the root
//! `README.md` for the architecture diagram.
//!
//! ```
//! use scrutiny::core::tiny::Heat1d;
//! use scrutiny::core::scrutinize;
//!
//! let analysis = scrutinize(&Heat1d::new(16, 8, 4)).unwrap();
//! // temp is critical, the overwritten workspace is not (paper §III.A).
//! assert!(analysis.vars[0].critical() > 0);
//! assert_eq!(analysis.vars[1].critical(), 0);
//! ```

#![warn(missing_docs)]

/// Zero-dependency tracing/metrics recorder every other crate reports
/// into: [`scrutiny_obs::Recorder`], spans, JSONL export.
pub use scrutiny_obs as obs;

/// Tape-based reverse-mode AD: [`scrutiny_ad::Adj`], [`scrutiny_ad::Tape`],
/// forward-mode [`scrutiny_ad::Dual`], and the [`scrutiny_ad::Real`] scalar
/// abstraction the NPB kernels are generic over.
pub use scrutiny_ad as ad;

/// Criticality-pruned checkpoint/restart: bitmaps, run-length regions,
/// the versioned on-disk format and the keep-last-k store.
pub use scrutiny_ckpt as ckpt;

/// Asynchronous, sharded checkpoint pipeline with pluggable storage
/// backends: [`scrutiny_engine::EngineHandle`], [`scrutiny_engine::DirBackend`],
/// [`scrutiny_engine::MemBackend`].
pub use scrutiny_engine as engine;

/// The analysis pipeline: scrutinize → plan → restart-verify.
pub use scrutiny_core as core;

/// NAS Parallel Benchmark ports (class S), generic over the AD scalar.
pub use scrutiny_npb as npb;

/// Fault-injection campaigns validating criticality maps.
pub use scrutiny_faultinj as faultinj;

/// Multi-tenant checkpoint daemon and its wire-protocol client:
/// [`scrutinyd::Daemon`], [`scrutinyd::RemoteBackend`].
pub use scrutinyd as daemon;

/// ASCII/PGM/SVG visualization of criticality distributions.
pub use scrutiny_viz as viz;

/// Experiment harness: the paper-expectation tables the artifact binaries and tests check against.
pub use scrutiny_bench as bench;

/// Host crate for the repo-root integration suites.
pub use scrutiny_integration as integration;
