//! Concurrency and round-trip suite for the obs core (ISSUE 7 satellite):
//! N-thread recording with consistent snapshots (no torn histogram
//! buckets), ring wraparound, JSONL round-trip, and disabled-recorder
//! no-op semantics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use scrutiny_obs::{point, span, EventKind, FieldValue, Recorder, Snapshot};

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn concurrent_recording_totals_are_exact() {
    let rec = Recorder::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = rec.clone();
            scope.spawn(move || {
                let counter = rec.counter("test.ops");
                let hist = rec.histogram("test.values");
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(t as u64 * PER_THREAD + i);
                }
                rec.set_gauge("test.last_thread", t as i64);
            });
        }
    });
    let snap = rec.snapshot();
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counter("test.ops"), Some(total));
    let hist = snap.histogram("test.values").unwrap();
    assert_eq!(hist.count, total);
    assert_eq!(hist.buckets.iter().sum::<u64>(), total);
    // Σ 0..total-1 = total*(total-1)/2 — every value accounted for.
    assert_eq!(hist.sum, total * (total - 1) / 2);
    assert_eq!(hist.min, 0);
    assert_eq!(hist.max, total - 1);
    let last = snap.gauge("test.last_thread").unwrap();
    assert!((0..THREADS as i64).contains(&last));
}

/// Snapshots taken *while* other threads hammer the histogram must be
/// internally consistent: the count always equals the bucket sum (it is
/// derived from the buckets, so a torn count/bucket pair is impossible),
/// and observed counts are monotone across successive snapshots.
#[test]
fn concurrent_snapshots_see_no_torn_histograms() {
    let rec = Recorder::new();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for t in 0..4 {
            let rec = rec.clone();
            let stop = &stop;
            scope.spawn(move || {
                let hist = rec.histogram("torn.check");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    hist.record(i.wrapping_mul(2862933555777941757).wrapping_add(t));
                    i += 1;
                }
            });
        }
        let mut last_count = 0u64;
        for _ in 0..200 {
            let snap = rec.snapshot();
            if let Some(hist) = snap.histogram("torn.check") {
                assert_eq!(
                    hist.count,
                    hist.buckets.iter().sum::<u64>(),
                    "count must be derived from buckets"
                );
                assert!(hist.count >= last_count, "counts must be monotone");
                last_count = hist.count;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn ring_wraparound_keeps_newest_and_counts_dropped() {
    let rec = Recorder::with_capacity(16);
    for i in 0..100u64 {
        point!(rec, "tick", i = i);
    }
    let snap = rec.snapshot();
    assert_eq!(snap.events.len(), 16);
    assert_eq!(snap.dropped_events, 84);
    for (offset, event) in snap.events.iter().enumerate() {
        assert_eq!(event.fields[0].1, FieldValue::U64(84 + offset as u64));
    }
}

/// Once its ring wraps, a recorder's log holds `span_end`s whose starts
/// were evicted; `dropped_events` says so, and the log still reads back.
#[test]
fn wrapped_ring_log_reads_back() {
    let rec = Recorder::with_capacity(2);
    {
        let _outer = span!(rec, "outer");
        let _inner = span!(rec, "inner");
    }
    let snap = rec.snapshot();
    assert_eq!(snap.dropped_events, 2);
    assert!(snap.events.iter().all(|e| e.kind == EventKind::SpanEnd));
    assert_eq!(Snapshot::from_jsonl(&snap.to_jsonl()).unwrap(), snap);
}

#[test]
fn concurrent_spans_have_consistent_parents() {
    let rec = Recorder::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = rec.clone();
            scope.spawn(move || {
                let _outer = span!(rec, "worker.outer", thread = t);
                let _inner = span!(rec, "worker.inner", thread = t);
                point!(rec, "worker.tick", thread = t);
            });
        }
    });
    let snap = rec.snapshot();
    let spans = snap.spans();
    assert_eq!(spans.len(), 2 * THREADS);
    for t in 0..THREADS as u64 {
        let outer = spans
            .iter()
            .find(|s| s.name == "worker.outer" && s.field_u64("thread") == Some(t))
            .expect("outer span per thread");
        let inner = spans
            .iter()
            .find(|s| s.name == "worker.inner" && s.field_u64("thread") == Some(t))
            .expect("inner span per thread");
        // Parent links never cross threads.
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.end_us.is_some() && inner.end_us.is_some());
        let tick = snap
            .events
            .iter()
            .find(|e| {
                e.kind == EventKind::Point
                    && e.name == "worker.tick"
                    && e.fields
                        .iter()
                        .any(|(k, v)| k == "thread" && *v == FieldValue::U64(t))
            })
            .expect("tick per thread");
        assert_eq!(tick.parent, inner.id);
    }
}

#[test]
fn jsonl_round_trip_through_threads_and_all_field_types() {
    let rec = Recorder::new();
    rec.add("rt.counter", 41);
    rec.set_gauge("rt.gauge", -12);
    for v in [0u64, 1, 7, 4096, u64::MAX] {
        rec.record("rt.hist", v);
    }
    {
        let _s = span!(
            rec,
            "rt.span",
            a = 1u64,
            b = -2i64,
            c = 1.5f64,
            d = "text",
            e = true
        );
        point!(rec, "rt.point", msg = "with \"quotes\" and\nnewline");
    }
    let snap = rec.snapshot();
    let text = snap.to_jsonl();
    let back = Snapshot::from_jsonl(&text).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.to_jsonl(), text);
}

#[test]
fn disabled_recorder_is_a_no_op_everywhere() {
    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());
    assert_eq!(rec.now_us(), 0);
    thread::scope(|scope| {
        for _ in 0..4 {
            let rec = rec.clone();
            scope.spawn(move || {
                for i in 0..1000u64 {
                    rec.counter("x").add(1);
                    rec.gauge("y").set(i as i64);
                    rec.histogram("z").record(i);
                    let _s = span!(rec, "s", i = i);
                    point!(rec, "p", i = i);
                }
            });
        }
    });
    let snap = rec.snapshot();
    assert_eq!(snap, Snapshot::empty());
    assert!(snap.to_jsonl().contains("\"meta\""));
    assert_eq!(Snapshot::from_jsonl(&snap.to_jsonl()).unwrap(), snap);
}

#[test]
fn clones_share_state() {
    let rec = Recorder::new();
    let clone = rec.clone();
    clone.add("shared", 5);
    assert_eq!(rec.snapshot().counter("shared"), Some(5));
}
