//! Point-in-time snapshots of a [`crate::Recorder`] and their exports:
//! JSONL event logs and a one-page text exposition.
//!
//! The JSONL schema is documented in `docs/OBSERVABILITY.md` and enforced
//! by [`crate::schema::validate_jsonl`]; [`Snapshot::from_jsonl`] is its
//! exact inverse: `from_jsonl(to_jsonl(s)) == s` for every snapshot.

use std::io::Write as _;
use std::path::Path;

use crate::hist::{HistSnapshot, HIST_BUCKETS};
use crate::json::{encode, parse, Json, JsonError};
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
        let mut out = String::new();
        out.push_str(&encode(&Json::Obj(vec![
            ("type".into(), Json::Str("meta".into())),
            ("version".into(), Json::U64(JSONL_VERSION)),
            ("dropped_events".into(), Json::U64(self.dropped_events)),
        ])));
        out.push('\n');
        for (name, value) in &self.counters {
            out.push_str(&encode(&Json::Obj(vec![
                ("type".into(), Json::Str("counter".into())),
                ("name".into(), Json::Str(name.clone())),
                ("value".into(), Json::U64(*value)),
            ])));
            out.push('\n');
        }
        for (name, value) in &self.gauges {
            out.push_str(&encode(&Json::Obj(vec![
                ("type".into(), Json::Str("gauge".into())),
                ("name".into(), Json::Str(name.clone())),
                (
                    "value".into(),
                    if *value >= 0 {
                        Json::U64(*value as u64)
                    } else {
                        Json::I64(*value)
                    },
                ),
            ])));
            out.push('\n');
        }
        for (name, hist) in &self.histograms {
            let buckets = hist
                .nonzero_buckets()
                .into_iter()
                .map(|(i, c)| Json::Arr(vec![Json::U64(i as u64), Json::U64(c)]))
                .collect();
            out.push_str(&encode(&Json::Obj(vec![
                ("type".into(), Json::Str("histogram".into())),
                ("name".into(), Json::Str(name.clone())),
                ("count".into(), Json::U64(hist.count)),
                ("sum".into(), Json::U64(hist.sum)),
                ("min".into(), Json::U64(hist.min)),
                ("max".into(), Json::U64(hist.max)),
                ("buckets".into(), Json::Arr(buckets)),
            ])));
            out.push('\n');
        }
        for event in &self.events {
            out.push_str(&encode(&event_to_json(event)));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL export back into a snapshot; exact inverse of
    /// [`Snapshot::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Snapshot, JsonError> {
        let mut snap = Snapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = parse(line).map_err(|mut e| {
                e.message = format!("line {}: {}", lineno + 1, e.message);
                e
            })?;
            let bad = |message: &str| JsonError {
                offset: 0,
                message: format!("line {}: {}", lineno + 1, message),
            };
            let ty = obj
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing type"))?;
            match ty {
                "meta" => {
                    snap.dropped_events = obj
                        .get("dropped_events")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("meta missing dropped_events"))?;
                }
                "counter" => {
                    let name = obj
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("counter missing name"))?;
                    let value = obj
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("counter missing value"))?;
                    snap.counters.push((name.to_string(), value));
                }
                "gauge" => {
                    let name = obj
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("gauge missing name"))?;
                    let value = obj
                        .get("value")
                        .and_then(Json::as_i64)
                        .ok_or_else(|| bad("gauge missing value"))?;
                    snap.gauges.push((name.to_string(), value));
                }
                "histogram" => {
                    let name = obj
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("histogram missing name"))?;
                    let mut hist = HistSnapshot::empty();
                    hist.count = obj
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram missing count"))?;
                    hist.sum = obj
                        .get("sum")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram missing sum"))?;
                    hist.min = obj.get("min").and_then(Json::as_u64).unwrap_or(0);
                    hist.max = obj.get("max").and_then(Json::as_u64).unwrap_or(0);
                    for pair in obj
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| bad("histogram missing buckets"))?
                    {
                        let pair = pair.as_arr().ok_or_else(|| bad("bucket not a pair"))?;
                        let (idx, count) = match pair {
                            [i, c] => (
                                i.as_u64().ok_or_else(|| bad("bucket index"))? as usize,
                                c.as_u64().ok_or_else(|| bad("bucket count"))?,
                            ),
                            _ => return Err(bad("bucket not a pair")),
                        };
                        if idx >= HIST_BUCKETS {
                            return Err(bad("bucket index out of range"));
                        }
                        hist.buckets[idx] = count;
                    }
                    snap.histograms.push((name.to_string(), hist));
                }
                "span_start" | "span_end" | "event" => {
                    snap.events
                        .push(event_from_json(ty, &obj).map_err(|m| bad(&m))?);
                }
                other => return Err(bad(&format!("unknown type {other:?}"))),
            }
        }
        Ok(snap)
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

fn field_from_json(value: &Json) -> Result<FieldValue, String> {
    Ok(match value {
        Json::U64(v) => FieldValue::U64(*v),
        Json::I64(v) => FieldValue::I64(*v),
        Json::F64(v) => FieldValue::F64(*v),
        Json::Str(s) => FieldValue::Str(s.clone()),
        Json::Bool(b) => FieldValue::Bool(*b),
        other => return Err(format!("unsupported field value {other:?}")),
    })
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

fn event_from_json(ty: &str, obj: &Json) -> Result<Event, String> {
    let kind = match ty {
        "span_start" => EventKind::SpanStart,
        "span_end" => EventKind::SpanEnd,
        "event" => EventKind::Point,
        _ => return Err(format!("not an event type: {ty}")),
    };
    let t_us = obj
        .get("t_us")
        .and_then(Json::as_u64)
        .ok_or("event missing t_us")?;
    let id = if kind == EventKind::Point {
        0
    } else {
        obj.get("id")
            .and_then(Json::as_u64)
            .ok_or("span missing id")?
    };
    let parent = obj.get("parent").and_then(Json::as_u64).unwrap_or(0);
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or("event missing name")?
        .to_string();
    let mut fields = Vec::new();
    if let Some(Json::Obj(pairs)) = obj.get("fields") {
        for (k, v) in pairs {
            fields.push((k.clone(), field_from_json(v)?));
        }
    }
    Ok(Event {
        t_us,
        kind,
        id,
        parent,
        name,
        fields,
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

    #[test]
    fn jsonl_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_jsonl();
        let back = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(back, snap);
        // And the re-encoding is byte-identical (stable ordering).
        assert_eq!(back.to_jsonl(), text);
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
    fn from_jsonl_rejects_garbage() {
        assert!(Snapshot::from_jsonl("{\"type\":\"nope\"}").is_err());
        assert!(Snapshot::from_jsonl("not json").is_err());
        assert!(Snapshot::from_jsonl("{\"type\":\"counter\",\"name\":\"x\"}").is_err());
        let deep = format!("{{\"type\":\"event\",\"fields\":{}", "[".repeat(2_000_000));
        assert!(Snapshot::from_jsonl(&deep).is_err());
    }
}
