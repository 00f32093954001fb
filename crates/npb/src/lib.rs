//! # scrutiny-npb — NAS Parallel Benchmarks, class S, in Rust
//!
//! Ports of the eight NPB benchmarks the paper evaluates (BT, SP, LU, MG,
//! CG, FT, EP, IS), written generically over [`scrutiny_ad::Real`] so the
//! same kernel runs natively (`f64`) and under the recording scalar
//! (`Adj`) for the criticality analysis.
//!
//! The ports keep NPB's **state layout, loop bounds and element access
//! patterns** exactly (that is what the paper's results are functions of)
//! while replacing NPB's physics constants by unconditionally stable
//! equivalents; see `docs/PAPER_MAPPING.md`, "Table II", for the
//! substitution argument, and each port's module docs for its notes.

// The ports keep NPB's explicit index loops so element access patterns match
// what the paper's criticality results are functions of; don't suggest
// iterator rewrites that would restructure them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bt;
pub mod cg;
pub mod common;
pub mod ep;
pub mod ft;
pub mod is;
pub mod lu;
pub mod mg;
pub mod pde;
pub mod pipeline;
pub mod sp;

pub use bt::Bt;
pub use cg::Cg;
pub use ep::Ep;
pub use ft::Ft;
pub use is::Is;
pub use lu::Lu;
pub use mg::Mg;
pub use pipeline::{
    burn_in, burn_in_suite_mini, perturb_localized, perturb_uncritical, BurnIn, BurnInRecovery,
    BurnInReport, Drift,
};
pub use sp::Sp;

use scrutiny_core::ScrutinyApp;

/// All float-state benchmarks (those AD applies to) at class S with the
/// default analysis checkpoint placement — the paper's Table II set.
pub fn table2_suite() -> Vec<Box<dyn ScrutinyApp>> {
    vec![
        Box::new(Bt::class_s()),
        Box::new(Sp::class_s()),
        Box::new(Mg::class_s()),
        Box::new(Cg::class_s()),
        Box::new(Lu::class_s()),
        Box::new(Ft::class_s()),
    ]
}

/// The full eight-benchmark suite (EP included; IS is integer-only and is
/// analyzed by the liveness tracker in [`is`], not by AD).
pub fn ad_suite() -> Vec<Box<dyn ScrutinyApp>> {
    let mut v = table2_suite();
    v.push(Box::new(Ep::class_s()));
    v
}

/// Mini instances of the seven AD-analyzable benchmarks: the same kernels
/// and dataflow shapes at seconds-scale tape sizes, for campaign matrices
/// and the analyzer differential harness.
pub fn ad_suite_mini() -> Vec<Box<dyn ScrutinyApp>> {
    vec![
        Box::new(Bt::mini()),
        Box::new(Sp::mini()),
        Box::new(Mg::mini()),
        Box::new(Cg::mini()),
        Box::new(Lu::mini()),
        Box::new(Ft::mini()),
        Box::new(Ep::mini()),
    ]
}
