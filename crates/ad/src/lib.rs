//! # scrutiny-ad — tape-based reverse-mode automatic differentiation
//!
//! This crate is the AD substrate of the `scrutiny` project, a reproduction
//! of *"Scrutinizing Variables for Checkpoint Using Automatic
//! Differentiation"* (SC 2024). The paper uses Enzyme (LLVM) to compute the
//! derivative of a program's output with respect to every element of every
//! checkpointed variable; elements with zero derivative are *uncritical* and
//! can be dropped from checkpoints. No mature Rust AD tool exists, so this
//! crate implements the required machinery from scratch:
//!
//! * [`Tape`] — a **segmented**, variable-length Wengert list. Nodes
//!   live in fixed-size arenas that are allocated once and never move (no
//!   reallocation copy spikes mid-kernel); node ids are `u64`s with
//!   segment-local indexing, so capacity is bounded by a configurable
//!   budget rather than a `u32`; exhausting the budget poisons the tape
//!   with a typed [`AdError`] instead of aborting the record. Each node
//!   stores its parents as backward distances and the local partial
//!   derivatives computed at record time, a 2-bit code when a partial is
//!   ±1 ([`segment`]): ≈ 11 bytes/node on the NPB tapes.
//! * [`sweep`] — the reverse sweeps. [`Tape::gradient`] yields the
//!   derivative of the output with respect to *every* recorded value —
//!   exactly the all-elements sensitivity the paper needs — and can run
//!   **in parallel**: segments are swept in reverse while worker threads
//!   merge cross-segment adjoint contributions through per-segment
//!   frontier buffers in deterministic order, so the result is
//!   bit-identical to the serial sweep.
//! * [`Adj`] — the recording scalar. Arithmetic on `Adj` values appends
//!   nodes to the active thread-local tape. Values derived purely from
//!   literals fold to constants and record nothing, which keeps
//!   data-independent computation (random streams, FFT twiddle factors,
//!   loop bookkeeping) off the tape.
//! * [`Real`] — the scalar abstraction implemented by `f64` and `Adj`; the
//!   NPB kernels are written once, generically, against it.
//! * [`Cplx`] — a complex number over any [`Real`], needed by the FT
//!   benchmark (`dcomplex` in NPB).
//! * [`Tape::reachable`] — *structural* activity analysis on the same tape:
//!   an element is structurally critical if any data-flow path connects it
//!   to the output, even if the derivative value cancels to zero. This is
//!   the cheaper comparator used by the ablation experiments; it sweeps
//!   per-segment bitsets through the same frontier machinery.
//! * [`datadep`] — the structural bits packaged as a full static analyzer
//!   ([`Tape::datadep`]): liveness plus def-use bits and explicit witness
//!   paths, the AutoCheck-style second opinion that the differential
//!   harness in `core::analysis` cross-checks the value sweep against.
//! * [`TapeCheckpointConfig`] — **bounded-memory scrutiny** via
//!   divide-and-conquer checkpointing of the tape itself ([`replay`]):
//!   keep at most `ncheckpoints` segments resident (0 = auto ≈
//!   log2(segments)), evict the rest to digests during recording, and
//!   re-record them on demand through a deterministic [`TapeReplay`]
//!   during the sweeps — `O(ncheckpoints · segment)` peak tape
//!   residency instead of `O(n)`, digest-verified bit-identical to the
//!   unbounded sweep. A computation with step boundaries ([`Resume`]) is
//!   recorded through a [`Ladder`], whose snapshots let each window be
//!   re-recorded from the nearest boundary instead of the program start.
//!
//! ## Example: the paper's Figure 1 workflow
//!
//! ```
//! use scrutiny_ad::{Adj, TapeSession};
//!
//! let session = TapeSession::new();
//! let x = Adj::leaf(2.0);
//! let u = x * x;        // u(x) = x^2
//! let v = (x + 1.0).ln(); // v(x) = ln(x + 1)
//! let f = u * 3.0 + v;  // f(u, v) = 3u + v
//! let tape = session.finish();
//! let grads = tape.gradient(f).unwrap();
//! let df_dx = grads.wrt(x);
//! assert!((df_dx - (6.0 * 2.0 + 1.0 / 3.0)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod adj;
pub mod cplx;
pub mod datadep;
pub mod error;
pub mod real;
pub mod replay;
pub mod segment;
pub mod sweep;
pub mod tape;

pub use adj::Adj;
pub use cplx::Cplx;
pub use datadep::{DataDep, Witness};
pub use error::AdError;
pub use real::Real;
pub use replay::{Ladder, Resume, TapeReplay};
pub use segment::{TapeCheckpointConfig, DEFAULT_NODE_LIMIT, DEFAULT_SEGMENT_LEN, NODE_BYTES};
pub use sweep::{Gradient, SweepConfig, SweepStats};
pub use tape::{Kernel, SweepRequest, Swept, Tape, TapeConfig, TapeSession, TapeStats};

/// Convenience: run `f` while a fresh tape records, then return the result
/// together with the finished tape.
///
/// ```
/// use scrutiny_ad::{record, Adj};
/// let (y, tape) = record(16, || {
///     let x = Adj::leaf(3.0);
///     x * x
/// });
/// assert_eq!(
///     tape.gradient(y).unwrap().of_node(y.index().unwrap()),
///     1.0
/// );
/// ```
pub fn record<T>(capacity: usize, f: impl FnOnce() -> T) -> (T, Tape) {
    let session = TapeSession::with_capacity(capacity);
    let out = f();
    (out, session.finish())
}
