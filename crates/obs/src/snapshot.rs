//! Point-in-time snapshots of a [`crate::Recorder`] and their exports:
//! JSONL event logs and a one-page text exposition.
//!
//! The JSONL schema is documented in `docs/OBSERVABILITY.md`.
//! [`Snapshot::from_jsonl`] is the one reader of a log and the one
//! definition of a valid one: it enforces every rule of the schema,
//! reports the first broken one as a [`SchemaViolation`] naming its
//! line, and inverts [`Snapshot::to_jsonl`] — `from_jsonl(to_jsonl(s))
//! == s` for every snapshot whose float fields are finite (a non-finite
//! float is written as `null` and reads back as NaN).

use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;

use crate::hist::{HistSnapshot, HIST_BUCKETS};
use crate::json::{encode, parse, Json};
use crate::recorder::{Event, EventKind, FieldValue};

/// Version tag written on the `meta` line of every JSONL export.
pub const JSONL_VERSION: u64 = 1;

/// A point-in-time copy of every metric and the event ring.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// The event ring, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this snapshot was taken.
    pub dropped_events: u64,
}

/// A matched span reconstructed from start/end events.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanView {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Start timestamp, µs since recorder epoch.
    pub start_us: u64,
    /// End timestamp; `None` when the span was still open (or its end was
    /// evicted from the ring).
    pub end_us: Option<u64>,
    /// Fields attached at span start.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanView {
    /// Span duration in µs; `None` while unmatched.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }

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
}

impl Snapshot {
    /// The empty snapshot (what a disabled recorder reports).
    pub fn empty() -> Self {
        Snapshot::default()
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Events with a given name, in ring order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Matches span start/end events into [`SpanView`]s, in start order.
    pub fn spans(&self) -> Vec<SpanView> {
        let mut views: Vec<SpanView> = Vec::new();
        for event in &self.events {
            match event.kind {
                EventKind::SpanStart => views.push(SpanView {
                    id: event.id,
                    parent: event.parent,
                    name: event.name.clone(),
                    start_us: event.t_us,
                    end_us: None,
                    fields: event.fields.clone(),
                }),
                EventKind::SpanEnd => {
                    if let Some(open) = views
                        .iter_mut()
                        .rev()
                        .find(|v| v.id == event.id && v.end_us.is_none())
                    {
                        open.end_us = Some(event.t_us);
                    }
                }
                EventKind::Point => {}
            }
        }
        views
    }

    // ----- JSONL -----------------------------------------------------

    /// Encodes the snapshot as JSONL, one self-describing object per line.
    /// See `docs/OBSERVABILITY.md` for the schema.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        // Metric names are the only text here; `encode` quotes and escapes.
        let quoted = |name: &str| encode(&Json::Str(name.into()));
        let mut out = String::new();
        let dropped = self.dropped_events;
        let _ = writeln!(
            out,
            r#"{{"type":"meta","version":{JSONL_VERSION},"dropped_events":{dropped}}}"#
        );
        for (name, value) in &self.counters {
            let name = quoted(name);
            let _ = writeln!(out, r#"{{"type":"counter","name":{name},"value":{value}}}"#);
        }
        for (name, value) in &self.gauges {
            let name = quoted(name);
            let _ = writeln!(out, r#"{{"type":"gauge","name":{name},"value":{value}}}"#);
        }
        for (name, h) in &self.histograms {
            let name = quoted(name);
            let buckets = h.nonzero_buckets();
            let buckets: Vec<_> = buckets.iter().map(|(i, c)| format!("[{i},{c}]")).collect();
            let buckets = buckets.join(",");
            let _ = writeln!(
                out,
                r#"{{"type":"histogram","name":{name},"count":{},"sum":{},"min":{},"max":{},"buckets":[{buckets}]}}"#,
                h.count, h.sum, h.min, h.max
            );
        }
        for event in &self.events {
            out.push_str(&encode(&event_to_json(event)));
            out.push('\n');
        }
        out
    }

    /// Reads a JSONL log: the one reader, and the one definition of a
    /// valid log (`docs/OBSERVABILITY.md` §JSONL). For every finite
    /// snapshot `from_jsonl(to_jsonl(s)) == s`. A log is outside input:
    /// every rule a record breaks is a [`SchemaViolation`] naming its line.
    pub fn from_jsonl(text: &str) -> Result<Snapshot, SchemaViolation> {
        let mut reader = Reader::default();
        for (idx, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            reader.record(raw).map_err(|message| SchemaViolation {
                line: idx + 1,
                message,
            })?;
        }
        if !reader.meta {
            return Err(SchemaViolation {
                line: 1,
                message: "no meta record".into(),
            });
        }
        Ok(reader.snap)
    }

    /// Writes [`Snapshot::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())
    }

    // ----- text exposition -------------------------------------------

    /// Renders a one-page human-readable summary: counters, gauges,
    /// histogram digests, and per-name span aggregates.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== obs snapshot ==");
        if !self.counters.is_empty() {
            let _ = writeln!(out, "-- counters --");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<40} {value}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "-- gauges --");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<40} {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "-- histograms --");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<40} n={} sum={} min={} mean={:.1} max={}",
                    h.count,
                    h.sum,
                    h.min,
                    h.mean(),
                    h.max
                );
            }
        }
        let spans = self.spans();
        if !spans.is_empty() {
            let _ = writeln!(out, "-- spans (aggregated by name) --");
            let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let matched: Vec<u64> = spans
                    .iter()
                    .filter(|s| s.name == name)
                    .filter_map(|s| s.duration_us())
                    .collect();
                let open = spans
                    .iter()
                    .filter(|s| s.name == name && s.end_us.is_none())
                    .count();
                let total: u64 = matched.iter().sum();
                let mean = if matched.is_empty() {
                    0.0
                } else {
                    total as f64 / matched.len() as f64
                };
                let _ = writeln!(
                    out,
                    "{name:<40} n={} total_us={} mean_us={:.1} open={}",
                    matched.len(),
                    total,
                    mean,
                    open
                );
            }
        }
        let points = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Point)
            .count();
        let _ = writeln!(
            out,
            "-- events: {} in ring ({} point), {} dropped --",
            self.events.len(),
            points,
            self.dropped_events
        );
        out
    }
}

fn field_to_json(value: &FieldValue) -> Json {
    match value {
        FieldValue::U64(v) => Json::U64(*v),
        FieldValue::I64(v) => Json::I64(*v),
        FieldValue::F64(v) => Json::F64(*v),
        FieldValue::Str(s) => Json::Str(s.clone()),
        FieldValue::Bool(b) => Json::Bool(*b),
    }
}

fn event_to_json(event: &Event) -> Json {
    let ty = match event.kind {
        EventKind::SpanStart => "span_start",
        EventKind::SpanEnd => "span_end",
        EventKind::Point => "event",
    };
    let mut pairs = vec![
        ("type".to_string(), Json::Str(ty.into())),
        ("t_us".to_string(), Json::U64(event.t_us)),
    ];
    if event.kind != EventKind::Point {
        pairs.push(("id".to_string(), Json::U64(event.id)));
    }
    if event.parent != 0 {
        pairs.push(("parent".to_string(), Json::U64(event.parent)));
    }
    pairs.push(("name".to_string(), Json::Str(event.name.clone())));
    if !event.fields.is_empty() {
        pairs.push((
            "fields".to_string(),
            Json::Obj(
                event
                    .fields
                    .iter()
                    .map(|(k, v)| (k.clone(), field_to_json(v)))
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// A log that breaks the schema: the 1-based line and what was wrong.
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

/// [`Snapshot::from_jsonl`]'s state between lines.
#[derive(Default)]
struct Reader {
    snap: Snapshot,
    /// The meta record has been read (it must be the first record).
    meta: bool,
    /// Ids of the spans started so far.
    started: HashSet<u64>,
}

impl Reader {
    /// Reads one non-blank line into the snapshot.
    fn record(&mut self, raw: &str) -> Result<(), String> {
        let obj = parse(raw).map_err(|e| format!("not valid JSON: {e}"))?;
        let ty = req(&obj, "type", "string", Json::as_str)?;
        if !self.meta && ty != "meta" {
            return Err("first record must have type \"meta\"".into());
        }
        let snap = &mut self.snap;
        match ty {
            "meta" if self.meta => return Err("duplicate meta record".into()),
            "meta" => {
                let version = req_u64(&obj, "version")?;
                if version != JSONL_VERSION {
                    return Err(format!("unsupported version {version}"));
                }
                snap.dropped_events = req_u64(&obj, "dropped_events")?;
                self.meta = true;
            }
            "counter" => snap
                .counters
                .push((req_name(&obj)?, req_u64(&obj, "value")?)),
            "gauge" => snap.gauges.push((
                req_name(&obj)?,
                req(&obj, "value", "integer", Json::as_i64)?,
            )),
            "histogram" => snap.histograms.push((req_name(&obj)?, histogram(&obj)?)),
            "span_start" => self.event(EventKind::SpanStart, &obj)?,
            "span_end" => self.event(EventKind::SpanEnd, &obj)?,
            "event" => self.event(EventKind::Point, &obj)?,
            other => return Err(format!("unknown type {other:?}")),
        }
        Ok(())
    }

    /// Reads a span or point record. A span's end needs its start unless
    /// the ring wrapped: then the start may be among the dropped events.
    fn event(&mut self, kind: EventKind, obj: &Json) -> Result<(), String> {
        let id = match kind {
            EventKind::Point => 0,
            _ => match req_u64(obj, "id")? {
                0 => return Err("span id must be non-zero".into()),
                id => id,
            },
        };
        let dangling = kind == EventKind::SpanEnd && !self.started.contains(&id);
        if dangling && self.snap.dropped_events == 0 {
            return Err(format!("span_end for unknown span id {id}"));
        }
        if kind == EventKind::SpanStart {
            self.started.insert(id);
        }
        let parent = match obj.get("parent") {
            None => 0,
            Some(_) => req_u64(obj, "parent")?,
        };
        let fields = match obj.get("fields") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(key, value)| Ok((key.clone(), field(key, value)?)))
                .collect::<Result<_, String>>()?,
            Some(_) => return Err("\"fields\" must be an object".into()),
        };
        self.snap.events.push(Event {
            t_us: req_u64(obj, "t_us")?,
            kind,
            id,
            parent,
            name: req_name(obj)?,
            fields,
        });
        Ok(())
    }
}

fn req<'a, T>(
    obj: &'a Json,
    key: &str,
    kind: &str,
    as_kind: fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    obj.get(key)
        .and_then(as_kind)
        .ok_or_else(|| format!("missing {kind} {key:?}"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key, "non-negative integer", Json::as_u64)
}

fn req_name(obj: &Json) -> Result<String, String> {
    let name = req(obj, "name", "string", Json::as_str)?;
    if !valid_name(name) {
        return Err(format!("name {name:?} violates naming scheme"));
    }
    Ok(name.to_string())
}

fn histogram(obj: &Json) -> Result<HistSnapshot, String> {
    let mut hist = HistSnapshot::empty();
    hist.count = req_u64(obj, "count")?;
    hist.sum = req_u64(obj, "sum")?;
    hist.min = req_u64(obj, "min")?;
    hist.max = req_u64(obj, "max")?;
    let mut total = 0u64;
    for pair in req(obj, "buckets", "array", Json::as_arr)? {
        let [index, count] = pair.as_arr().unwrap_or_default() else {
            return Err("bucket entries must be [index,count] pairs".into());
        };
        let index = index.as_u64().ok_or("bucket index must be an integer")?;
        let count = count.as_u64().ok_or("bucket count must be an integer")?;
        if index >= HIST_BUCKETS as u64 {
            return Err(format!("bucket index {index} out of range"));
        }
        // No bucket can overflow when their total does not.
        total = total.checked_add(count).ok_or("bucket counts overflow")?;
        hist.buckets[index as usize] += count;
    }
    if total != hist.count {
        return Err(format!(
            "bucket counts sum to {total} but count is {}",
            hist.count
        ));
    }
    Ok(hist)
}

fn field(key: &str, value: &Json) -> Result<FieldValue, String> {
    if !valid_name(key) {
        return Err(format!("field key {key:?} violates naming scheme"));
    }
    Ok(match value {
        Json::U64(v) => FieldValue::U64(*v),
        // `-0` parses as `I64`; the model keeps every integer ≥ 0 as `U64`.
        Json::I64(v) => FieldValue::from(*v),
        Json::F64(v) => FieldValue::F64(*v),
        // The encoder writes a non-finite float as `null`.
        Json::Null => FieldValue::F64(f64::NAN),
        Json::Str(s) => FieldValue::Str(s.clone()),
        Json::Bool(b) => FieldValue::Bool(*b),
        other => return Err(format!("field {key:?} has non-scalar value {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::{point, span};

    fn sample() -> Snapshot {
        let rec = Recorder::new();
        rec.add("c.one", 3);
        rec.set_gauge("g.neg", -7);
        rec.set_gauge("g.pos", 9);
        rec.record("h.bytes", 0);
        rec.record("h.bytes", 700);
        {
            let _s = span!(rec, "outer", version = 1u64, ratio = 0.5f64, on = true);
            point!(rec, "leaf", why = "because", delta = -3i64);
        }
        rec.snapshot()
    }

    /// Every record type, a float field, and a ring that wrapped: the
    /// outer span's start was evicted, its end was not.
    fn wrapped() -> Snapshot {
        let rec = Recorder::with_capacity(4);
        rec.add("c.one", 3);
        rec.set_gauge("g.neg", -7);
        rec.record("h.bytes", 700);
        {
            let _outer = span!(rec, "outer", version = 1u64);
            let _inner = span!(rec, "inner");
            point!(rec, "leaf", ratio = 0.5f64, why = "because");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_events, 1);
        snap
    }

    fn meta_then(record: &str) -> String {
        format!("{{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}}\n{record}\n")
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        for snap in [sample(), wrapped(), Snapshot::empty()] {
            let text = snap.to_jsonl();
            let back = Snapshot::from_jsonl(&text).unwrap();
            assert_eq!(back, snap);
            // And the re-encoding is byte-identical (stable ordering).
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn real_snapshots_validate() {
        let rec = Recorder::new();
        rec.add("engine.submissions", 2);
        rec.set_gauge("engine.queue_depth", 1);
        rec.record("engine.submit_us", 1234);
        {
            let _s = span!(rec, "engine.submit", version = 0u64);
            point!(rec, "app.reject", reason = "bad checksum");
        }
        let snap = Snapshot::from_jsonl(&rec.snapshot().to_jsonl()).unwrap();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.spans().len(), 1);
        assert!(snap.spans()[0].end_us.is_some());
        assert_eq!(snap.events_named("app.reject").count(), 1);
    }

    #[test]
    fn non_finite_float_fields_read_back_as_nan() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rec = Recorder::new();
            point!(rec, "core.ratio", r = value);
            let text = rec.snapshot().to_jsonl();
            assert!(text.contains("\"r\":null"), "{text}");
            let snap = Snapshot::from_jsonl(&text).unwrap();
            let r = snap.events[0].field("r");
            assert!(matches!(r, Some(FieldValue::F64(v)) if v.is_nan()), "{r:?}");
        }
    }

    #[test]
    fn spans_match_starts_to_ends() {
        let snap = sample();
        let spans = snap.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "outer");
        assert!(spans[0].end_us.is_some());
        assert_eq!(spans[0].field_u64("version"), Some(1));
    }

    #[test]
    fn text_render_mentions_everything() {
        let text = sample().render_text();
        assert!(text.contains("c.one"));
        assert!(text.contains("g.neg"));
        assert!(text.contains("h.bytes"));
        assert!(text.contains("outer"));
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
    fn from_jsonl_rejects_garbage() {
        assert!(Snapshot::from_jsonl("").is_err());
        assert!(Snapshot::from_jsonl("{\"type\":\"nope\"}").is_err());
        assert!(Snapshot::from_jsonl("not json").is_err());
        assert!(Snapshot::from_jsonl("{\"type\":\"counter\",\"name\":\"x\"}").is_err());
        let deep = format!("{{\"type\":\"event\",\"fields\":{}", "[".repeat(2_000_000));
        assert!(Snapshot::from_jsonl(&deep).is_err());
    }

    #[test]
    fn violations_are_caught() {
        let rejects = |text: &str, line: usize, needle: &str| {
            let err = Snapshot::from_jsonl(text).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.contains(needle), "{err}");
        };
        // Dangling span_end when no event was dropped.
        let dangling = "{\"type\":\"span_end\",\"t_us\":1,\"id\":9,\"name\":\"x\"}";
        rejects(&meta_then(dangling), 2, "unknown span id");
        // Torn histogram: bucket sum != count.
        let torn = "{\"type\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[0,2]]}";
        rejects(&meta_then(torn), 2, "sum to 2");
        // First line must be meta; so is only the first.
        rejects(
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":0}\n",
            1,
            "meta",
        );
        let meta = "{\"type\":\"meta\",\"version\":1,\"dropped_events\":0}";
        rejects(&meta_then(meta), 2, "duplicate meta");
        // Only this version of the schema.
        let v9 = "{\"type\":\"meta\",\"version\":9,\"dropped_events\":0}\n";
        rejects(v9, 1, "unsupported version 9");
        // Bad names, bad field keys, non-scalar field values.
        rejects(
            &meta_then("{\"type\":\"counter\",\"name\":\"BAD NAME\",\"value\":0}"),
            2,
            "naming scheme",
        );
        rejects(
            &meta_then("{\"type\":\"event\",\"t_us\":1,\"name\":\"p\",\"fields\":{\"Key\":1}}"),
            2,
            "naming scheme",
        );
        rejects(
            &meta_then("{\"type\":\"event\",\"t_us\":1,\"name\":\"p\",\"fields\":{\"k\":[1]}}"),
            2,
            "non-scalar",
        );
        // `min` and `max` are required; bucket indexes are in range.
        let no_min = "{\"type\":\"histogram\",\"name\":\"h\",\"count\":0,\"sum\":0,\"max\":0,\"buckets\":[]}";
        rejects(&meta_then(no_min), 2, "\"min\"");
        let far = "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[65,1]]}";
        rejects(&meta_then(far), 2, "out of range");
        // Span ids are non-zero.
        let zero = "{\"type\":\"span_start\",\"t_us\":1,\"id\":0,\"name\":\"s\"}";
        rejects(&meta_then(zero), 2, "non-zero");
        // Hostile nesting is a violation naming its line, not a stack overflow.
        rejects(&meta_then(&"[".repeat(2_000_000)), 2, "nesting");
        // A wrapped ring may have evicted the start of a span that ended.
        let wrapped =
            "{\"type\":\"meta\",\"version\":1,\"dropped_events\":1}\n".to_string() + dangling;
        assert_eq!(Snapshot::from_jsonl(&wrapped).unwrap().events.len(), 1);
    }

    /// A real log, truncated at every byte and with every bit of every
    /// byte flipped: the reader never panics, and whatever it accepts
    /// re-encodes to a log that reads back equal.
    #[test]
    fn hostile_logs_never_panic_and_accepted_ones_round_trip() {
        let text = wrapped().to_jsonl();
        let accepts = |input: &str| {
            if let Ok(snap) = Snapshot::from_jsonl(input) {
                let again = Snapshot::from_jsonl(&snap.to_jsonl());
                assert_eq!(again.as_ref(), Ok(&snap), "{input}");
            }
        };
        for cut in 0..=text.len() {
            accepts(&text[..cut]);
        }
        let mut accepted = 0;
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                if let Ok(input) = String::from_utf8(bytes) {
                    accepted += usize::from(Snapshot::from_jsonl(&input).is_ok());
                    accepts(&input);
                }
            }
        }
        // Flipped digits in times and values survive; the test saw them.
        assert!(accepted > 0);
    }
}
