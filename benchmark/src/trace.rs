//! Attribution of a traced run: where the driver thread's wall clock
//! went, phase by phase, and how busy each subsystem was across all
//! threads.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover. Parent links are per thread (that is how the
//! recorder tracks them), so a worker's spans are roots on their own
//! thread and count in full — busy time summed over threads can exceed
//! the wall clock.

use scrutiny_obs::SpanView;
use std::collections::BTreeMap;

/// The subsystem a span's self time is charged to. A span of the
/// program is charged to its name's first segment — except
/// `core.analysis.record`, which brackets nothing but `app.run_ad`, the
/// NPB kernel executing on the tape scalar. A `bench.*` span brackets
/// one public call, so what the program's own spans leave uncovered of
/// it is charged to the layer that call enters; the benchmark keeps only
/// its bookkeeping and the time it sat blocked in `wait`.
fn layer_of(name: &str) -> &str {
    match name {
        "core.analysis.record" | "bench.capture" | "bench.restart_verify" => "npb",
        "bench.analyze" | "bench.plan" | "bench.materialize" => "core",
        "bench.submit" | "bench.recover" => "engine",
        _ => name.split('.').next().unwrap_or(name),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time in µs by subsystem, over every closed span.
pub fn self_time_by_layer(spans: &[SpanView]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let (true, Some(end)) = (s.parent != 0, s.end_us) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, end));
        }
    }
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let Some(end) = s.end_us else { continue };
        let inside = children
            .remove(&s.id)
            .map_or(0, |c| covered(c, s.start_us, end));
        *by_layer.entry(layer_of(&s.name).to_string()).or_default() += (end - s.start_us) - inside;
    }
    by_layer
}

/// The driver thread's `bench.*` root spans: total µs per phase name,
/// and the wall clock from the first one's start to the last one's end.
/// The benchmark opens them back to back around every public call, so
/// what the rows leave of the wall clock is its own bookkeeping.
pub fn driver_phases(spans: &[SpanView]) -> (BTreeMap<String, u64>, u64) {
    let mut rows: BTreeMap<String, u64> = BTreeMap::new();
    let (mut first, mut last) = (u64::MAX, 0);
    for s in spans {
        let Some(end) = s.end_us else { continue };
        if s.parent == 0 && s.name.starts_with("bench.") {
            *rows.entry(s.name.clone()).or_default() += end - s.start_us;
            first = first.min(s.start_us);
            last = last.max(end);
        }
    }
    (rows, last.saturating_sub(first))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, end_us: u64) -> SpanView {
        SpanView {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: Some(end_us),
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_counts_other_threads_in_full() {
        let spans = vec![
            // Driver thread: bench.wait [0, 100) ⊃ engine.submit [10, 30)
            // ⊃ ckpt.compress [15, 20); and a second, overlapping child
            // engine.commit [25, 50) of bench.wait.
            span(1, 0, "bench.wait", 0, 100),
            span(2, 1, "engine.submit", 10, 30),
            span(3, 2, "ckpt.compress", 15, 20),
            span(4, 1, "engine.commit", 25, 50),
            // A worker thread, concurrent with all of the above: a root.
            span(5, 0, "engine.shard_serialize", 0, 80),
            // The record span is the application's time.
            span(6, 0, "core.analysis.record", 100, 140),
            span(7, 0, "core.analysis.sweeps", 140, 150),
            // A span that never closed contributes nothing.
            SpanView {
                end_us: None,
                ..span(8, 0, "ad.sweep.value", 150, 0)
            },
        ];
        let by = self_time_by_layer(&spans);
        // bench.wait: 100 − |[10,50)| = 60.
        assert_eq!(by["bench"], 60);
        // engine: submit 20 − 5, commit 25, worker 80.
        assert_eq!(by["engine"], 15 + 25 + 80);
        assert_eq!(by["ckpt"], 5);
        assert_eq!(by["npb"], 40);
        assert_eq!(by["core"], 10);
        assert!(!by.contains_key("ad"));
    }

    #[test]
    fn driver_rows_sum_root_bench_spans_and_span_the_wall_clock() {
        let spans = vec![
            span(1, 0, "bench.submit", 10, 20),
            span(2, 0, "bench.wait", 20, 50),
            span(3, 0, "bench.submit", 55, 60),
            span(4, 0, "engine.publish", 0, 500),
            span(5, 3, "bench.nested", 56, 57),
        ];
        let (rows, wall) = driver_phases(&spans);
        assert_eq!(rows["bench.submit"], 15);
        assert_eq!(rows["bench.wait"], 30);
        assert_eq!(rows.len(), 2);
        assert_eq!(wall, 50);
    }
}
