//! Self-contained checker for obs JSONL event logs.
//!
//! Usage: `obs-schema-check <log.jsonl>...` — reads each file with
//! `Snapshot::from_jsonl`, the one reader and the one definition of the
//! schema in `docs/OBSERVABILITY.md`, and prints a per-file summary.
//! Exits non-zero if any file breaks the schema, so CI can gate on it.

use std::process::ExitCode;

use scrutiny_obs::{EventKind, Snapshot};

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: obs-schema-check <log.jsonl>...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
                continue;
            }
        };
        match Snapshot::from_jsonl(&text) {
            Ok(snap) => {
                let count = |kind| snap.events.iter().filter(|e| e.kind == kind).count();
                println!(
                    "{path}: OK ({} counters, {} gauges, {} histograms, {} spans, {} points, {} dropped events)",
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.histograms.len(),
                    count(EventKind::SpanStart),
                    count(EventKind::Point),
                    snap.dropped_events
                )
            }
            Err(violation) => {
                eprintln!("{path}: SCHEMA VIOLATION at {violation}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
