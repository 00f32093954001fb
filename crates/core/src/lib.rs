//! # scrutiny-core — AD-driven scrutiny of checkpoint variables
//!
//! The primary contribution of *"Scrutinizing Variables for Checkpoint
//! Using Automatic Differentiation"* (SC 2024), as a reusable library.
//!
//! An HPC application declares its checkpoint variables (the paper's
//! Table I) and exposes its main computation generically over a
//! differentiable scalar. This crate then:
//!
//! 1. **Scrutinizes** every element ([`scrutinize`]): an AD run converts
//!    each checkpointed element into a tape leaf at the checkpoint
//!    boundary; one reverse sweep yields `∂output/∂element` for all of
//!    them. Zero derivative ⇒ *uncritical* (paper §III.A). A structural
//!    reachability sweep provides a second, value-independent criterion —
//!    available as a full static analyzer backend
//!    ([`Analyzer::DataDep`]), cross-checked against the AD verdict by
//!    [`scrutinize_differential`], which classifies every mismatch into a
//!    typed [`Disagreement`] with a witness data-flow path.
//! 2. **Plans** storage ([`plan::plans_for`]): criticality bitmaps become
//!    run-length regions (the auxiliary file), optionally precision-tiered
//!    by gradient magnitude (paper §VII future work).
//! 3. **Verifies by restart** ([`restart::checkpoint_restart_cycle`]): a
//!    pruned checkpoint is written, restored with garbage in the holes,
//!    and the run must reproduce the uninterrupted ("golden") output —
//!    the paper's §IV.C experiment.
//!
//! ## Writing an application
//!
//! Implement [`ScrutinyApp`] through the step protocol: one run struct,
//! generic over the scalar, that holds the state at a resume point and
//! implements [`AppRun`] — `step` to run an iteration to its next resume
//! point (`true` once it is complete; an application without inner resume
//! points runs the whole iteration and returns `true`), `vars` for the
//! checkpoint-variable views a [`CkptSite`] is shown, `output` for the
//! verification scalar, `fork` for a snapshot — returned by `start_f64` /
//! `start_ad` for `R = f64` and `R = Adj`. The provided `run_f64` /
//! `run_ad` drive it, calling the site exactly once at the checkpoint
//! boundary; the bounded-memory analysis resumes forks of it at every
//! resume point.
//! See [`tiny::Heat1d`] for a complete minimal example, and the
//! `scrutiny-npb` crate for the eight NPB ports used in the paper.
//!
//! ```
//! use scrutiny_core::{
//!     scrutinize, Adj, AppRun, AppSpec, Real, ScrutinyApp, VarRefMut, VarSpec,
//! };
//!
//! /// `x[i] ← 0.9·x[i] + 0.1·x[i+1]` for ten steps; the last slot is
//! /// padding no step ever reads.
//! struct Relax;
//!
//! /// The state between two steps, generic over the scalar.
//! #[derive(Clone)]
//! struct RelaxRun<R> {
//!     x: Vec<R>,
//! }
//!
//! impl<'a, R: Real + 'a> AppRun<'a, R> for RelaxRun<R> {
//!     fn step(&mut self, _iter: usize) -> bool {
//!         for i in 0..3 {
//!             self.x[i] = self.x[i] * 0.9 + self.x[i + 1] * 0.1;
//!         }
//!         true
//!     }
//!     fn vars(&mut self, _iter: usize) -> Vec<VarRefMut<'_, R>> {
//!         vec![VarRefMut::F64(&mut self.x)]
//!     }
//!     fn output(&self) -> R {
//!         self.x[0] + self.x[1] + self.x[2] + self.x[3]
//!     }
//!     fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
//!         Box::new(self.clone())
//!     }
//!     fn snapshot_bytes(&self) -> usize {
//!         std::mem::size_of_val(self) + std::mem::size_of_val(&self.x[..])
//!     }
//! }
//!
//! impl Relax {
//!     fn start<R: Real>(&self) -> Box<RelaxRun<R>> {
//!         let x = (0..5).map(|i| R::lit(i as f64)).collect();
//!         Box::new(RelaxRun { x })
//!     }
//! }
//!
//! impl ScrutinyApp for Relax {
//!     fn spec(&self) -> AppSpec {
//!         AppSpec {
//!             name: "RELAX".into(),
//!             class: "demo".into(),
//!             vars: vec![VarSpec::f64("x", &[5])],
//!         }
//!     }
//!     fn steps(&self) -> std::ops::RangeInclusive<usize> {
//!         1..=10
//!     }
//!     fn checkpoint_iter(&self) -> usize {
//!         6
//!     }
//!     fn start_f64(&self) -> Box<dyn AppRun<'_, f64> + '_> {
//!         self.start()
//!     }
//!     fn start_ad(&self) -> Box<dyn AppRun<'_, Adj> + '_> {
//!         self.start()
//!     }
//! }
//!
//! let report = scrutinize(&Relax).unwrap();
//! // The padding slot is the one uncritical element.
//! assert_eq!(report.var("x").unwrap().uncritical(), 1);
//! ```
//!
//! ## Example: scrutinize, then verify by restart
//!
//! ```
//! use scrutiny_core::tiny::Heat1d;
//! use scrutiny_core::{
//!     checkpoint_restart_cycle, scrutinize, FillPolicy, Policy, RestartConfig,
//! };
//!
//! // 1-D heat diffusion: live state, tail padding, and a scratch array.
//! let app = Heat1d::new(32, 20, 10);
//!
//! // One AD run + one reverse sweep classifies every checkpointed element.
//! let analysis = scrutinize(&app).unwrap();
//! assert_eq!(analysis.vars.len(), 3);
//!
//! // A pruned checkpoint restored with garbage in the uncritical holes
//! // must still reproduce the uninterrupted run's output (paper §IV.C).
//! let cfg = RestartConfig {
//!     policy: Policy::PrunedValue,
//!     fill: FillPolicy::Garbage(42),
//!     store_dir: None,
//! };
//! let report = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
//! assert!(report.verified);
//! assert!(report.storage.total() < report.full_storage.total());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod app;
pub mod plan;
pub mod report;
pub mod restart;
pub mod site;
pub mod spec;
pub mod tiny;

pub use analysis::{
    record_resumable, scrutinize, scrutinize_differential, scrutinize_with, AnalysisReport,
    Analyzer, DifferentialReport, Disagreement, DisagreementKind, ScrutinyOptions, VarCriticality,
};
pub use app::{AppRun, RunOutcome, ScrutinyApp};
pub use plan::{codec_for, Policy};
pub use report::{format_table1, format_table2, table2_rows, table3_row, Table2Row, Table3Row};
pub use restart::{
    checkpoint_restart_cycle, restart_cycle, verify_restart_from, CheckpointSource, RestartConfig,
    RestartReport,
};
pub use site::{CaptureSite, CkptSite, LeafSite, RestoreSite, VarRefMut};
pub use spec::{AppSpec, VarSpec};

// Re-export the scalar abstraction so applications depend on one crate.
pub use scrutiny_ad::{
    AdError, Adj, Cplx, DataDep, Real, SweepConfig, SweepStats, TapeCheckpointConfig, TapeConfig,
    TapeReplay, Witness,
};
// Re-export the observability substrate: every layer below reports into a
// [`Recorder`], and the stats structs are views over its snapshots.
pub use scrutiny_ckpt::{Bitmap, DType, FillPolicy, Regions, VarData, VarPlan, VarRecord};
pub use scrutiny_obs::{point, span, FieldValue, Recorder, Snapshot as ObsSnapshot, SpanView};
// Re-export the async checkpoint engine (and its recovery side) so
// applications wire one crate.
pub use scrutiny_engine::{
    DeltaPolicy, DirBackend, EngineConfig, EngineError, EngineHandle, Layout, MemBackend,
    Recovered, RecoveryConfig, RecoveryManager, RecoveryReport, RecoveryWalk, RejectedVersion,
    RestoreOptions, RestoreStats, Snapshot, StorageBackend, Ticket,
};
