//! # scrutiny-obs — tracing/metrics substrate for the scrutiny lifecycle
//!
//! Every layer of the checkpoint-scrutiny pipeline — tape record, AD
//! sweeps, analysis, engine submit → shard-serialize → diff → publish →
//! commit, recovery, restore — reports into one [`Recorder`]:
//!
//! * **Counters** ([`Recorder::counter`]) — monotonic totals
//!   (`engine.submissions`), one relaxed atomic add per update.
//! * **Gauges** ([`Recorder::gauge`]) — last-write-wins signed levels
//!   (`engine.queue_depth`), also the export surface of the sweep stats
//!   (`SweepStats`).
//! * **Histograms** ([`Recorder::histogram`]) — power-of-two-bucket
//!   distributions for bytes and latency-µs; the snapshot count is derived
//!   from the buckets so concurrent reads can never tear.
//! * **Spans** ([`span!`]) — structured start/end events with monotonic
//!   µs timestamps and per-thread parent links, kept in a bounded ring.
//! * **Point events** ([`point!`]) — one-shot records (recovery rejects,
//!   fault injections).
//!
//! [`Recorder::snapshot`] freezes everything into a [`Snapshot`],
//! exportable as JSONL ([`Snapshot::to_jsonl`]) or as a one-page text
//! exposition ([`Snapshot::render_text`]). [`Snapshot::from_jsonl`] is
//! the one reader of a log: it round-trips every export and enforces the
//! documented JSONL schema, returning a [`SchemaViolation`] that names
//! the first bad line; the `obs-schema-check` binary runs it in CI.
//!
//! The disabled recorder ([`Recorder::disabled`], also [`Recorder::default`])
//! holds no allocation; every operation is a branch on `None`. What an
//! enabled recorder costs against it is measured by the benchmark
//! (`obs.traced_epoch_overhead_pct`, `obs.traced_analyze_overhead_pct`).
//!
//! ```
//! use scrutiny_obs::{point, span, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _submit = span!(rec, "engine.submit", version = 0u64);
//!     rec.record("engine.commit_bytes", 4096);
//!     point!(rec, "engine.commit", version = 0u64);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans().len(), 1);
//! let log = snap.to_jsonl();
//! assert_eq!(scrutiny_obs::Snapshot::from_jsonl(&log).unwrap(), snap);
//! let future = log.replace("\"version\":1", "\"version\":9");
//! assert_eq!(scrutiny_obs::Snapshot::from_jsonl(&future).unwrap_err().line, 1);
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod recorder;
pub mod snapshot;

pub use hist::{bucket_of, bucket_range, HistSnapshot, Histogram, HIST_BUCKETS};
pub use recorder::{
    Counter, Event, EventKind, FieldValue, Gauge, HistHandle, Recorder, SpanGuard,
    DEFAULT_RING_CAPACITY,
};
pub use snapshot::{SchemaViolation, Snapshot, SpanView, JSONL_VERSION};
