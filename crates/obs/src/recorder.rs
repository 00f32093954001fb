//! The [`Recorder`]: counters, gauges, histograms, structured spans and a
//! bounded event ring.
//!
//! A `Recorder` is a cheaply clonable handle (`Option<Arc<…>>`). The
//! [`Recorder::disabled`] variant holds no allocation at all: every
//! operation on it reduces to a branch on `None`, which is what pins its
//! overhead near zero (the benchmark's `obs.traced_*_overhead_pct` metrics
//! are what an enabled recorder costs against it).
//!
//! Metric handles ([`Counter`], [`Gauge`], [`HistHandle`]) are resolved
//! once by name and then shared atomics — hot paths pay one relaxed RMW
//! per update, no name lookup and no lock. Span and point events go
//! through a short mutex-guarded push into a bounded ring; when the ring
//! is full the **oldest** events are dropped and counted, so a
//! long-running burn-in keeps the most recent history.
//!
//! Span parent links are tracked per thread: a [`SpanGuard`] pushes its id
//! onto a thread-local stack keyed by recorder identity and pops it on
//! drop, so nested spans on one thread form a chain while concurrent
//! threads stay independent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::snapshot::Snapshot;

/// Default bound on the in-memory event ring.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A typed field value attached to spans and point events.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Non-negative integer. The canonical form for any integer ≥ 0.
    U64(u64),
    /// Negative integer (non-negative `i64`s canonicalize to [`FieldValue::U64`]).
    I64(i64),
    /// Floating-point value. JSON has no non-finite number: NaN and
    /// ±∞ are written to JSONL as `null`, which reads back as NaN.
    F64(f64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        // Canonicalize: the JSONL encoding cannot distinguish a
        // non-negative i64 from a u64, so neither does the model.
        u64::try_from(v)
            .map(FieldValue::U64)
            .unwrap_or(FieldValue::I64(v))
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::from(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What kind of entry an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened: `id` is the span id, `parent` its enclosing span (0 = root).
    SpanStart,
    /// A span closed: `id` matches the corresponding [`EventKind::SpanStart`].
    SpanEnd,
    /// An instantaneous point event (`id`/`parent` follow span rules: the
    /// id is 0 and `parent` is the enclosing span, if any).
    Point,
}

/// One entry in the event ring.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder was created (monotonic clock).
    pub t_us: u64,
    /// Entry kind.
    pub kind: EventKind,
    /// Span id (unique per recorder, starting at 1); 0 for point events.
    pub id: u64,
    /// Enclosing span id on the emitting thread, 0 when at top level.
    pub parent: u64,
    /// Dotted lowercase event name, e.g. `engine.submit`.
    pub name: String,
    /// Attached fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a `u64` field by key.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a string field by key.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    hists: BTreeMap<String, Arc<Histogram>>,
}

struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
}

struct Inner {
    /// Unique identity for the thread-local span stack.
    id: u64,
    epoch: Instant,
    registry: Mutex<Registry>,
    ring: Mutex<Ring>,
    next_span: AtomicU64,
    dropped: AtomicU64,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of (recorder id, span id) for the spans open on this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The tracing/metrics recorder threaded through the scrutiny lifecycle.
///
/// Clones share the same underlying state. See the module docs for the
/// cost model; see [`Snapshot`] for export.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Default for Recorder {
    /// The default recorder is **disabled** — instrumented code paths pay
    /// (almost) nothing unless a caller opts in.
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => write!(f, "Recorder(enabled, id={})", inner.id),
        }
    }
}

impl Recorder {
    /// A live recorder with the [`DEFAULT_RING_CAPACITY`] event ring.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A live recorder whose event ring keeps at most `ring_capacity`
    /// events (oldest dropped first, counted in
    /// [`Snapshot::dropped_events`]).
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                registry: Mutex::new(Registry::default()),
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    cap: ring_capacity.max(1),
                }),
                next_span: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op recorder: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
        }
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                let mut reg = inner.registry.lock().unwrap();
                Arc::clone(reg.counters.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Adds `n` to the counter `name` (one-shot form of [`Recorder::counter`]).
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                let mut reg = inner.registry.lock().unwrap();
                Arc::clone(reg.gauges.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Sets the gauge `name` to `v` (one-shot form of [`Recorder::gauge`]).
    pub fn set_gauge(&self, name: &str, v: i64) {
        if self.inner.is_some() {
            self.gauge(name).set(v);
        }
    }

    /// Resolves (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistHandle {
        HistHandle {
            hist: self.inner.as_ref().map(|inner| {
                let mut reg = inner.registry.lock().unwrap();
                Arc::clone(
                    reg.hists
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(Histogram::new())),
                )
            }),
        }
    }

    /// Records `value` into the histogram `name` (one-shot form of
    /// [`Recorder::histogram`]).
    pub fn record(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).record(value);
        }
    }

    /// Emits an instantaneous point event with fields.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let parent = current_parent(inner.id);
        let event = Event {
            t_us: inner.epoch.elapsed().as_micros() as u64,
            kind: EventKind::Point,
            id: 0,
            parent,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        push_event(inner, event);
    }

    /// Opens a span with no fields; closed when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with fields; closed when the guard drops.
    ///
    /// Prefer the [`crate::span!`] macro, which builds the field slice with
    /// `key = value` syntax.
    pub fn span_with(&self, name: &str, fields: &[(&str, FieldValue)]) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { open: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = current_parent(inner.id);
        let event = Event {
            t_us: inner.epoch.elapsed().as_micros() as u64,
            kind: EventKind::SpanStart,
            id,
            parent,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        push_event(inner, event);
        SPAN_STACK.with(|stack| stack.borrow_mut().push((inner.id, id)));
        SpanGuard {
            open: Some(OpenSpan {
                inner: Arc::clone(inner),
                id,
                parent,
                name: name.to_string(),
            }),
        }
    }

    /// Emits an already-finished span retroactively: a
    /// [`EventKind::SpanStart`] stamped `start_us` and a matching
    /// [`EventKind::SpanEnd`] stamped now. Used where a span must exist
    /// only if its operation *succeeded* (e.g. the engine's commit span:
    /// measure, write the commit marker, emit on `Ok` only — so the log
    /// can never show a commit for an unpublished version). Returns the
    /// span id (0 when disabled).
    pub fn closed_span(&self, name: &str, start_us: u64, fields: &[(&str, FieldValue)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = current_parent(inner.id);
        let fields: Vec<(String, FieldValue)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let end_us = inner.epoch.elapsed().as_micros() as u64;
        push_event(
            inner,
            Event {
                t_us: start_us.min(end_us),
                kind: EventKind::SpanStart,
                id,
                parent,
                name: name.to_string(),
                fields,
            },
        );
        push_event(
            inner,
            Event {
                t_us: end_us,
                kind: EventKind::SpanEnd,
                id,
                parent,
                name: name.to_string(),
                fields: Vec::new(),
            },
        );
        id
    }

    /// Snapshots every metric and the current event ring.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::empty();
        };
        let reg = inner.registry.lock().unwrap();
        let counters = reg
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = reg
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = reg
            .hists
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        drop(reg);
        let ring = inner.ring.lock().unwrap();
        let events: Vec<Event> = ring.buf.iter().cloned().collect();
        drop(ring);
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            dropped_events: inner.dropped.load(Ordering::Relaxed),
        }
    }
}

fn current_parent(recorder_id: u64) -> u64 {
    SPAN_STACK.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find(|(rid, _)| *rid == recorder_id)
            .map(|(_, sid)| *sid)
            .unwrap_or(0)
    })
}

fn push_event(inner: &Inner, event: Event) {
    let mut ring = inner.ring.lock().unwrap();
    if ring.buf.len() == ring.cap {
        ring.buf.pop_front();
        inner.dropped.fetch_add(1, Ordering::Relaxed);
    }
    ring.buf.push_back(event);
}

/// A counter handle: resolved once, updated with one relaxed RMW.
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A gauge handle: *set* semantics (last write wins), signed.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta` and returns the new value (0 when
    /// disabled). Used for up/down quantities like queue depth.
    pub fn adjust(&self, delta: i64) -> i64 {
        match &self.cell {
            Some(cell) => cell.fetch_add(delta, Ordering::Relaxed) + delta,
            None => 0,
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A histogram handle: resolved once, recorded into lock-free.
#[derive(Clone)]
pub struct HistHandle {
    hist: Option<Arc<Histogram>>,
}

impl HistHandle {
    /// Records one value.
    pub fn record(&self, value: u64) {
        if let Some(hist) = &self.hist {
            hist.record(value);
        }
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }
}

struct OpenSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: u64,
    name: String,
}

/// RAII guard for an open span; emits the matching
/// [`EventKind::SpanEnd`] event (and pops the thread-local parent stack)
/// on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// The span id, 0 when the recorder is disabled.
    pub fn id(&self) -> u64 {
        self.open.as_ref().map(|o| o.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top of stack; a linear scan keeps out-of-order
            // guard drops (e.g. spans stored in structs) correct.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(rid, sid)| rid == open.inner.id && sid == open.id)
            {
                stack.remove(pos);
            }
        });
        let event = Event {
            t_us: open.inner.epoch.elapsed().as_micros() as u64,
            kind: EventKind::SpanEnd,
            id: open.id,
            parent: open.parent,
            name: open.name,
            fields: Vec::new(),
        };
        push_event(&open.inner, event);
    }
}

/// Opens a span on a recorder with `key = value` fields:
///
/// ```
/// use scrutiny_obs::{span, Recorder};
/// let rec = Recorder::new();
/// let v = 3u64;
/// {
///     let _guard = span!(rec, "engine.submit", version = v, layout = "sharded");
/// }
/// let snap = rec.snapshot();
/// assert_eq!(snap.events.len(), 2); // start + end
/// ```
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $rec.span($name)
    };
    ($rec:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $rec.span_with(
            $name,
            &[$((stringify!($key), $crate::FieldValue::from($value))),+],
        )
    };
}

/// Emits a point event on a recorder with `key = value` fields.
///
/// ```
/// use scrutiny_obs::{point, Recorder};
/// let rec = Recorder::new();
/// point!(rec, "app.reject", version = 7u64, reason = "bad checksum");
/// assert_eq!(rec.snapshot().events.len(), 1);
/// ```
#[macro_export]
macro_rules! point {
    ($rec:expr, $name:expr) => {
        $rec.event($name, &[])
    };
    ($rec:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $rec.event(
            $name,
            &[$((stringify!($key), $crate::FieldValue::from($value))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists() {
        let rec = Recorder::new();
        let c = rec.counter("a.b");
        c.add(2);
        c.inc();
        rec.add("a.b", 1);
        rec.set_gauge("g", -5);
        rec.record("h", 100);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a.b"), Some(4));
        assert_eq!(snap.gauge("g"), Some(-5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn span_nesting_tracks_parents() {
        let rec = Recorder::new();
        let outer = span!(rec, "outer", version = 1u64);
        let outer_id = outer.id();
        {
            let inner = span!(rec, "inner");
            assert_ne!(inner.id(), outer_id);
            point!(rec, "leaf");
        }
        drop(outer);
        let snap = rec.snapshot();
        let starts: Vec<&Event> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].parent, 0);
        assert_eq!(starts[1].parent, outer_id);
        let leaf = snap.events.iter().find(|e| e.name == "leaf").unwrap();
        assert_eq!(leaf.parent, starts[1].id);
        let ends = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .count();
        assert_eq!(ends, 2);
    }

    #[test]
    fn two_recorders_keep_independent_stacks() {
        let a = Recorder::new();
        let b = Recorder::new();
        let _sa = a.span("a.root");
        let sb = b.span("b.root");
        point!(b, "b.leaf");
        drop(sb);
        let snap = b.snapshot();
        let leaf = snap.events.iter().find(|e| e.name == "b.leaf").unwrap();
        // b's leaf is parented to b's span, not a's.
        assert_eq!(
            leaf.parent,
            snap.events.iter().find(|e| e.name == "b.root").unwrap().id
        );
    }

    #[test]
    fn disabled_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add("c", 1);
        rec.set_gauge("g", 1);
        rec.record("h", 1);
        point!(rec, "e", x = 1u64);
        let g = span!(rec, "s", v = 2u64);
        assert_eq!(g.id(), 0);
        drop(g);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = Recorder::with_capacity(4);
        for i in 0..10u64 {
            point!(rec, "tick", i = i);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped_events, 6);
        // The survivors are the four newest.
        assert_eq!(snap.events[0].fields[0].1, FieldValue::U64(6));
        assert_eq!(snap.events[3].fields[0].1, FieldValue::U64(9));
    }

    #[test]
    fn i64_fields_canonicalize_to_u64() {
        assert_eq!(FieldValue::from(5i64), FieldValue::U64(5));
        assert_eq!(FieldValue::from(-5i64), FieldValue::I64(-5));
        assert_eq!(FieldValue::from(-1i32), FieldValue::I64(-1));
    }
}
