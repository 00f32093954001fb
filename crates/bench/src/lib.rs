//! # scrutiny-bench — experiment harness
//!
//! Plain binaries (`src/bin/`) that regenerate every table and figure of
//! the paper and check them against [`expectations`]; the experiment
//! index and the paper-vs-measured deviations are `docs/PAPER_MAPPING.md`.
//! The lifecycle is timed by `benchmark/` (see `benchmark/README.md`);
//! the one binary here that times anything, `ad_overhead`, prints three
//! AD-layer comparisons no benchmark metric carries.

pub mod expectations;
