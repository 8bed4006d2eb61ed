//! The per-request span collector: deterministic structure, wall-clock
//! only in observability-only duration fields.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::record::{SpanAttr, SpanEvent, SpanRecord, TraceRecord};
use crate::span_id;

/// Handle to one span inside a [`TraceSpans`] collector.
///
/// Tokens are plain indices, cheap to copy and store; the zero token
/// ([`SpanToken::NONE`], returned by every operation on a disabled
/// collector) makes every downstream call a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(u32);

impl SpanToken {
    /// The null token: attached to no span, inert everywhere.
    pub const NONE: SpanToken = SpanToken(0);

    fn index(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0 as usize - 1)
    }
}

struct SpanData {
    stage: String,
    parent: Option<usize>,
    started: Option<Instant>,
    start_us: u64,
    dur_us: u64,
    count: u64,
    /// Accumulated synthetic-child time, so [`TraceSpans::child_complete`]
    /// stacks children sequentially from the parent's start.
    synth_us: u64,
    attrs: Vec<(String, String)>,
    events: Vec<(String, u64)>,
    closed: bool,
}

#[derive(Default)]
struct Inner {
    trace_id: u64,
    origin: Option<Instant>,
    spans: Vec<SpanData>,
    open: Vec<usize>,
}

/// A single-request span collector.
///
/// One collector belongs to one request (or one offline unit of work);
/// it is intentionally *not* `Sync` — concurrent pipeline stages report
/// into a [`crate::StageAgg`] instead, and their totals are attached
/// afterwards via [`TraceSpans::child_complete`].
///
/// Determinism: span ids are derived by [`span_id`] from
/// `(trace_id, stage, occurrence index)` at [`TraceSpans::finish`]
/// time, so the id tree of a replayed request is bit-identical while
/// the `*_us` fields differ.
pub struct TraceSpans {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl TraceSpans {
    /// An enabled collector for trace `trace_id`.
    pub fn new(trace_id: u64) -> Self {
        Self {
            enabled: true,
            inner: RefCell::new(Inner {
                trace_id,
                ..Inner::default()
            }),
        }
    }

    /// A disabled collector: every operation is a no-op, no `Instant`
    /// is ever read, and [`TraceSpans::finish`] returns `None`.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Is this collector recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Re-keys the trace. Ids are derived lazily at
    /// [`TraceSpans::finish`], so the id becomes available as soon as
    /// the request body is parsed — after the root span already opened.
    pub fn set_trace_id(&self, trace_id: u64) {
        if self.enabled {
            self.inner.borrow_mut().trace_id = trace_id;
        }
    }

    /// Opens a span named `stage`, parented to the innermost open span.
    pub fn begin(&self, stage: &str) -> SpanToken {
        if !self.enabled {
            return SpanToken::NONE;
        }
        let mut inner = self.inner.borrow_mut();
        let now = Instant::now();
        let origin = *inner.origin.get_or_insert(now);
        let start_us = now.duration_since(origin).as_micros() as u64;
        let parent = inner.open.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(SpanData {
            stage: stage.to_string(),
            parent,
            started: Some(now),
            start_us,
            dur_us: 0,
            count: 1,
            synth_us: 0,
            attrs: Vec::new(),
            events: Vec::new(),
            closed: false,
        });
        inner.open.push(idx);
        SpanToken(idx as u32 + 1)
    }

    /// Closes the span behind `token`, defensively closing any child
    /// spans still open above it.
    pub fn end(&self, token: SpanToken) {
        let Some(idx) = token.index() else { return };
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if !inner.open.contains(&idx) {
            return;
        }
        while let Some(top) = inner.open.pop() {
            let span = &mut inner.spans[top];
            if !span.closed {
                if let Some(started) = span.started {
                    span.dur_us = started.elapsed().as_micros() as u64;
                }
                span.closed = true;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Tags `key = value` onto the span behind `token`. The value is
    /// only formatted when the collector is enabled.
    pub fn attr(&self, token: SpanToken, key: &str, value: impl std::fmt::Display) {
        let Some(idx) = token.index() else { return };
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(span) = inner.spans.get_mut(idx) {
            span.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Records an instantaneous event (e.g. an injected chaos fault) on
    /// the span behind `token`.
    pub fn event(&self, token: SpanToken, name: &str) {
        let Some(idx) = token.index() else { return };
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let at_us = inner
            .origin
            .map(|origin| origin.elapsed().as_micros() as u64)
            .unwrap_or(0);
        if let Some(span) = inner.spans.get_mut(idx) {
            span.events.push((name.to_string(), at_us));
        }
    }

    /// Attaches an already-measured child span under `parent` — the
    /// bridge from aggregated hot-loop timing ([`crate::StageAgg`]) into
    /// the span tree. `count` is how many underlying operations the
    /// aggregate covers (e.g. candidates evaluated).
    ///
    /// Synthetic children are stacked sequentially from the parent's
    /// start for rendering; stages that overlap in reality (candidate
    /// evaluation runs *inside* the search stages) therefore appear
    /// side by side, and their stacked width can exceed the parent's
    /// own duration.
    pub fn child_complete(&self, parent: SpanToken, stage: &str, dur: Duration, count: u64) {
        let Some(pidx) = parent.index() else { return };
        if !self.enabled || count == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let dur_us = dur.as_micros() as u64;
        let start_us = {
            let Some(p) = inner.spans.get_mut(pidx) else {
                return;
            };
            let start = p.start_us + p.synth_us;
            p.synth_us += dur_us;
            start
        };
        inner.spans.push(SpanData {
            stage: stage.to_string(),
            parent: Some(pidx),
            started: None,
            start_us,
            dur_us,
            count,
            synth_us: 0,
            attrs: Vec::new(),
            events: Vec::new(),
            closed: true,
        });
    }

    /// Seals the collector into a [`TraceRecord`] (`None` when
    /// disabled or empty). Spans still open are closed here, so a
    /// handler that bails early still yields a complete tree.
    pub fn finish(self) -> Option<TraceRecord> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.inner.into_inner();
        while let Some(idx) = inner.open.pop() {
            let span = &mut inner.spans[idx];
            if !span.closed {
                if let Some(started) = span.started {
                    span.dur_us = started.elapsed().as_micros() as u64;
                }
                span.closed = true;
            }
        }
        if inner.spans.is_empty() {
            return None;
        }
        // Ids derive from creation order (parents always precede their
        // children), never from time.
        let mut ids = Vec::with_capacity(inner.spans.len());
        let mut indices = Vec::with_capacity(inner.spans.len());
        {
            let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
            for span in &inner.spans {
                let n = counts.entry(span.stage.as_str()).or_insert(0);
                ids.push(span_id(inner.trace_id, &span.stage, *n));
                indices.push(*n);
                *n += 1;
            }
        }
        let total_us = inner
            .spans
            .iter()
            .map(|s| s.start_us.saturating_add(s.dur_us))
            .max()
            .unwrap_or(0);
        let spans = inner
            .spans
            .into_iter()
            .enumerate()
            .map(|(i, s)| SpanRecord {
                id: ids[i],
                parent_id: s.parent.map(|p| ids[p]).unwrap_or(0),
                stage: s.stage,
                index: indices[i],
                start_us: s.start_us,
                dur_us: s.dur_us,
                count: s.count,
                attrs: s
                    .attrs
                    .into_iter()
                    .map(|(key, value)| SpanAttr { key, value })
                    .collect(),
                events: s
                    .events
                    .into_iter()
                    .map(|(name, at_us)| SpanEvent { name, at_us })
                    .collect(),
            })
            .collect();
        Some(TraceRecord {
            trace_id: inner.trace_id,
            total_us,
            slow: false,
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_deterministic_across_replays() {
        let shape = |trace_id: u64| {
            let spans = TraceSpans::new(0);
            let root = spans.begin("request");
            spans.set_trace_id(trace_id);
            let parse = spans.begin("parse");
            spans.end(parse);
            let engine = spans.begin("engine");
            spans.child_complete(engine, "candidate_eval", Duration::from_micros(120), 64);
            spans.end(engine);
            spans.end(root);
            let record = spans.finish().unwrap();
            record
                .spans
                .iter()
                .map(|s| (s.id, s.parent_id, s.stage.clone(), s.index, s.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(99), shape(99));
        assert_ne!(shape(99), shape(100), "trace id must re-key every span id");
    }

    #[test]
    fn attrs_and_nesting_record_through_begin() {
        let spans = TraceSpans::new(1);
        let outer = spans.begin("request");
        spans.attr(outer, "endpoint", "protect");
        let inner = spans.begin("engine");
        spans.attr(inner, "user", 42u64);
        spans.end(inner);
        spans.end(outer);
        let record = spans.finish().expect("enabled collector yields a record");
        assert_eq!(record.spans.len(), 2);
        assert_eq!(record.spans[0].stage, "request");
        assert_eq!(record.spans[0].attrs[0].key, "endpoint");
        assert_eq!(record.spans[0].attrs[0].value, "protect");
        assert_eq!(record.spans[1].parent_id, record.spans[0].id);
        assert_eq!(record.spans[1].attrs[0].value, "42");
    }

    #[test]
    fn repeated_stages_get_distinct_indices_and_ids() {
        let spans = TraceSpans::new(5);
        let a = spans.begin("request");
        spans.end(a);
        let b = spans.begin("request");
        spans.end(b);
        let record = spans.finish().unwrap();
        assert_eq!(record.spans[0].index, 0);
        assert_eq!(record.spans[1].index, 1);
        assert_ne!(record.spans[0].id, record.spans[1].id);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let spans = TraceSpans::new(3);
        let _root = spans.begin("request");
        let _child = spans.begin("engine");
        let record = spans.finish().unwrap();
        assert_eq!(record.spans.len(), 2);
    }

    #[test]
    fn end_is_idempotent_and_null_token_safe() {
        let spans = TraceSpans::new(1);
        let root = spans.begin("request");
        let child = spans.begin("engine");
        spans.end(child);
        spans.end(child);
        spans.end(SpanToken::NONE);
        spans.end(root);
        let record = spans.finish().unwrap();
        assert_eq!(record.spans.len(), 2);
    }

    #[test]
    fn synthetic_children_stack_sequentially() {
        let spans = TraceSpans::new(9);
        let root = spans.begin("engine");
        spans.child_complete(root, "search_single", Duration::from_micros(100), 4);
        spans.child_complete(root, "search_composition", Duration::from_micros(50), 2);
        spans.end(root);
        let record = spans.finish().unwrap();
        let first = &record.spans[1];
        let second = &record.spans[2];
        assert_eq!(second.start_us, first.start_us + first.dur_us);
        assert_eq!(first.count, 4);
    }

    #[test]
    fn events_attach_to_their_span() {
        let spans = TraceSpans::new(2);
        let root = spans.begin("request");
        spans.event(root, "fault_delay");
        spans.end(root);
        let record = spans.finish().unwrap();
        assert_eq!(record.spans[0].events[0].name, "fault_delay");
    }
}
