//! Exported trace records and the Chrome-trace-viewer rendering.

use serde::{Deserialize, Serialize, Value};

/// One `key = value` attribute on a span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanAttr {
    /// Attribute name (e.g. `user`, `endpoint`).
    pub key: String,
    /// Pre-formatted attribute value.
    pub value: String,
}

/// An instantaneous event inside a span (chaos fault, degraded result).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Event name (e.g. `fault_delay`, `degraded`).
    pub name: String,
    /// Microseconds since the trace origin.
    pub at_us: u64,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Deterministic span id ([`crate::span_id`]); never zero.
    pub id: u64,
    /// Parent span id, or `0` for a root span.
    pub parent_id: u64,
    /// Stage name.
    pub stage: String,
    /// Zero-based occurrence index of this stage within the trace.
    pub index: u64,
    /// Start offset from the trace origin, microseconds
    /// (observability-only; varies across replays).
    pub start_us: u64,
    /// Duration, microseconds (observability-only).
    pub dur_us: u64,
    /// How many underlying operations this span covers (`1` for a
    /// plain span, the batch size for an aggregated one).
    pub count: u64,
    /// Attributes, in tagging order.
    pub attrs: Vec<SpanAttr>,
    /// Events, in occurrence order.
    pub events: Vec<SpanEvent>,
}

/// One finished trace: the flight-recorder unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Deterministic trace id (request seed, or a derived connection
    /// id for traces without a request body).
    pub trace_id: u64,
    /// End offset of the latest span, microseconds.
    pub total_us: u64,
    /// Did this trace exceed the recorder's slow-request threshold?
    pub slow: bool,
    /// Spans in creation order (parents precede children).
    pub spans: Vec<SpanRecord>,
}

/// Renders `records` in the Chrome trace-event JSON format, loadable
/// in `chrome://tracing` or Perfetto. Each trace becomes one `tid`
/// lane of complete (`"ph": "X"`) events; span events become instant
/// (`"ph": "i"`) markers.
pub fn chrome_trace(records: &[TraceRecord]) -> Value {
    let mut events = Vec::new();
    for (lane, record) in records.iter().enumerate() {
        let tid = lane as u64 + 1;
        for span in &record.spans {
            let mut args = vec![
                (
                    "trace_id".to_string(),
                    Value::Str(format!("{:#018x}", record.trace_id)),
                ),
                (
                    "span_id".to_string(),
                    Value::Str(format!("{:#018x}", span.id)),
                ),
                ("count".to_string(), Value::UInt(span.count)),
            ];
            for attr in &span.attrs {
                args.push((attr.key.clone(), Value::Str(attr.value.clone())));
            }
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(span.stage.clone())),
                ("cat".to_string(), Value::Str("mood".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::UInt(span.start_us)),
                ("dur".to_string(), Value::UInt(span.dur_us)),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(tid)),
                ("args".to_string(), Value::Object(args)),
            ]));
            for event in &span.events {
                events.push(Value::Object(vec![
                    ("name".to_string(), Value::Str(event.name.clone())),
                    ("cat".to_string(), Value::Str("mood".to_string())),
                    ("ph".to_string(), Value::Str("i".to_string())),
                    ("ts".to_string(), Value::UInt(event.at_us)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(tid)),
                    ("s".to_string(), Value::Str("t".to_string())),
                ]));
            }
        }
    }
    Value::Object(vec![("traceEvents".to_string(), Value::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSpans;
    use std::time::Duration;

    fn sample() -> TraceRecord {
        let spans = TraceSpans::new(77);
        let root = spans.begin("request");
        spans.attr(root, "endpoint", "protect");
        spans.event(root, "fault_delay");
        spans.child_complete(root, "candidate_eval", Duration::from_micros(10), 8);
        spans.end(root);
        spans.finish().unwrap()
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = sample();
        let json = serde_json::to_string(&record).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn chrome_trace_emits_complete_and_instant_events() {
        let record = sample();
        let doc = chrome_trace(std::slice::from_ref(&record));
        let events = match doc.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("expected traceEvents array, got {other:?}"),
        };
        // request span + synthetic child + one instant marker
        assert_eq!(events.len(), 3);
        let phases: Vec<_> = events
            .iter()
            .map(|e| match e.get("ph") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("missing ph: {other:?}"),
            })
            .collect();
        assert_eq!(phases, ["X", "i", "X"]);
        assert!(events
            .iter()
            .all(|e| e.get("pid").is_some() && e.get("tid").is_some() && e.get("ts").is_some()));
    }
}
