//! Structural validation of JSONL event logs against the documented
//! schema (`docs/OBSERVABILITY.md`).
//!
//! [`validate_jsonl`] is intentionally stricter than
//! [`crate::Snapshot::from_jsonl`]: beyond parseability it checks the
//! metric/span **naming scheme** (lowercase dotted identifiers), that the
//! first line is a `meta` record with a known version, and that every
//! `span_end` refers to a previously started span. CI runs it over the
//! log emitted by `examples/observed_lifecycle.rs` via the
//! `obs-schema-check` binary.

use crate::hist::HIST_BUCKETS;
use crate::json::{parse, Json};
use crate::snapshot::JSONL_VERSION;

/// A schema violation: 1-based line number plus a description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaViolation {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SchemaViolation {}

/// Counts of what a valid log contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemaSummary {
    /// Total non-empty lines.
    pub lines: usize,
    /// `counter` records.
    pub counters: usize,
    /// `gauge` records.
    pub gauges: usize,
    /// `histogram` records.
    pub histograms: usize,
    /// `span_start` records.
    pub span_starts: usize,
    /// `span_end` records.
    pub span_ends: usize,
    /// `event` (point) records.
    pub points: usize,
}

/// Whether `name` follows the naming scheme: dot-separated segments of
/// `[a-z0-9_]`, each starting with a letter, e.g. `engine.submit_us`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg.starts_with(|c: char| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn fail(line: usize, message: impl Into<String>) -> SchemaViolation {
    SchemaViolation {
        line,
        message: message.into(),
    }
}

fn check_name(line: usize, obj: &Json) -> Result<(), SchemaViolation> {
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(line, "missing string \"name\""))?;
    if !valid_name(name) {
        return Err(fail(line, format!("name {name:?} violates naming scheme")));
    }
    Ok(())
}

fn check_fields(line: usize, obj: &Json) -> Result<(), SchemaViolation> {
    match obj.get("fields") {
        None => Ok(()),
        Some(Json::Obj(pairs)) => {
            for (key, value) in pairs {
                if !valid_name(key) {
                    return Err(fail(
                        line,
                        format!("field key {key:?} violates naming scheme"),
                    ));
                }
                match value {
                    Json::U64(_) | Json::I64(_) | Json::F64(_) | Json::Str(_) | Json::Bool(_) => {}
                    other => {
                        return Err(fail(
                            line,
                            format!("field {key:?} has non-scalar value {other:?}"),
                        ))
                    }
                }
            }
            Ok(())
        }
        Some(_) => Err(fail(line, "\"fields\" must be an object")),
    }
}

fn req_u64(line: usize, obj: &Json, key: &str) -> Result<u64, SchemaViolation> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| fail(line, format!("missing non-negative integer {key:?}")))
}

/// Validates a JSONL export; returns counts on success, the **first**
/// violation otherwise.
pub fn validate_jsonl(text: &str) -> Result<SchemaSummary, SchemaViolation> {
    let mut summary = SchemaSummary::default();
    let mut started_spans = std::collections::HashSet::new();
    let mut saw_meta = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        summary.lines += 1;
        let obj = parse(raw).map_err(|e| fail(line, format!("not valid JSON: {}", e.message)))?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(fail(line, "line is not a JSON object"));
        }
        let ty = obj
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(line, "missing string \"type\""))?;
        if summary.lines == 1 && ty != "meta" {
            return Err(fail(line, "first record must have type \"meta\""));
        }
        match ty {
            "meta" => {
                if saw_meta {
                    return Err(fail(line, "duplicate meta record"));
                }
                saw_meta = true;
                let version = req_u64(line, &obj, "version")?;
                if version != JSONL_VERSION {
                    return Err(fail(line, format!("unsupported version {version}")));
                }
                req_u64(line, &obj, "dropped_events")?;
            }
            "counter" => {
                summary.counters += 1;
                check_name(line, &obj)?;
                req_u64(line, &obj, "value")?;
            }
            "gauge" => {
                summary.gauges += 1;
                check_name(line, &obj)?;
                obj.get("value")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| fail(line, "missing integer \"value\""))?;
            }
            "histogram" => {
                summary.histograms += 1;
                check_name(line, &obj)?;
                let count = req_u64(line, &obj, "count")?;
                req_u64(line, &obj, "sum")?;
                req_u64(line, &obj, "min")?;
                req_u64(line, &obj, "max")?;
                let buckets = obj
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail(line, "missing array \"buckets\""))?;
                let mut total = 0u64;
                for pair in buckets {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| fail(line, "bucket entries must be [index,count] pairs"))?;
                    let bucket_idx = pair[0]
                        .as_u64()
                        .ok_or_else(|| fail(line, "bucket index must be an integer"))?;
                    if bucket_idx >= HIST_BUCKETS as u64 {
                        return Err(fail(
                            line,
                            format!("bucket index {bucket_idx} out of range"),
                        ));
                    }
                    total += pair[1]
                        .as_u64()
                        .ok_or_else(|| fail(line, "bucket count must be an integer"))?;
                }
                if total != count {
                    return Err(fail(
                        line,
                        format!("bucket counts sum to {total} but count is {count}"),
                    ));
                }
            }
            "span_start" => {
                summary.span_starts += 1;
                check_name(line, &obj)?;
                check_fields(line, &obj)?;
                req_u64(line, &obj, "t_us")?;
                let id = req_u64(line, &obj, "id")?;
                if id == 0 {
                    return Err(fail(line, "span id must be non-zero"));
                }
                started_spans.insert(id);
            }
            "span_end" => {
                summary.span_ends += 1;
                check_name(line, &obj)?;
                req_u64(line, &obj, "t_us")?;
                let id = req_u64(line, &obj, "id")?;
                if !started_spans.contains(&id) {
                    return Err(fail(line, format!("span_end for unknown span id {id}")));
                }
            }
            "event" => {
                summary.points += 1;
                check_name(line, &obj)?;
                check_fields(line, &obj)?;
                req_u64(line, &obj, "t_us")?;
            }
            other => return Err(fail(line, format!("unknown type {other:?}"))),
        }
    }
    if !saw_meta && summary.lines > 0 {
        return Err(fail(1, "no meta record"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::{point, span};

    #[test]
    fn real_snapshots_validate() {
        let rec = Recorder::new();
        rec.add("engine.submissions", 2);
        rec.set_gauge("engine.queue_depth", 1);
        rec.record("engine.submit_us", 1234);
        {
            let _s = span!(rec, "engine.submit", version = 0u64);
            point!(rec, "engine.recovery.reject", reason = "bad checksum");
        }
        let text = rec.snapshot().to_jsonl();
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.gauges, 1);
        assert_eq!(summary.histograms, 1);
        assert_eq!(summary.span_starts, 1);
        assert_eq!(summary.span_ends, 1);
        assert_eq!(summary.points, 1);
    }

    #[test]
    fn naming_scheme() {
        assert!(valid_name("engine.submit_us"));
        assert!(valid_name("ad.sweep.value.cross_contribs"));
        assert!(!valid_name("Engine.submit"));
        assert!(!valid_name("engine..submit"));
        assert!(!valid_name("engine.3d"));
        assert!(!valid_name(""));
        assert!(!valid_name("engine.submit-us"));
    }

    #[test]
    fn violations_are_caught() {
        // Dangling span_end.
        let text = "{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}\n{\"type\":\"span_end\",\"t_us\":1,\"id\":9,\"name\":\"x\"}\n";
        let err = validate_jsonl(text).unwrap_err();
        assert!(err.message.contains("unknown span id"), "{err}");
        // Torn histogram: bucket sum != count.
        let text = "{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}\n{\"type\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[0,2]]}\n";
        let err = validate_jsonl(text).unwrap_err();
        assert!(err.message.contains("sum to 2"), "{err}");
        // First line must be meta.
        let err =
            validate_jsonl("{\"type\":\"counter\",\"name\":\"c\",\"value\":0}\n").unwrap_err();
        assert!(err.message.contains("meta"), "{err}");
        // Bad name.
        let text = "{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}\n{\"type\":\"counter\",\"name\":\"BAD NAME\",\"value\":0}\n";
        assert!(validate_jsonl(text).is_err());
        // Hostile nesting is a violation naming its line, not a stack overflow.
        let text = format!(
            "{{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}}\n{}\n",
            "[".repeat(2_000_000)
        );
        let err = validate_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
    }
}
