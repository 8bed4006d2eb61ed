//! MooD observability: deterministic tracing spans, per-stage timing
//! aggregation, and a fixed-size flight recorder.
//!
//! The central contract mirrors the engine's determinism story: span
//! **structure and identifiers** are pure functions of
//! `(trace_id, stage, occurrence index)` — never of wall-clock — while
//! **durations** are measured with `Instant` but are observability-only
//! outputs. Served bytes therefore stay bit-identical with tracing on
//! or off, and two replays of the same request produce span trees that
//! differ only in their `*_us` timing fields.
//!
//! Three layers:
//!
//! * [`TraceSpans`] — a per-request span collector. Zero-cost when
//!   disabled: a disabled collector never calls `Instant::now` and
//!   never formats an attribute.
//! * [`StageAgg`] — lock-free per-stage duration totals for hot loops
//!   (the engine records *aggregated* candidate-evaluation time here
//!   rather than one span per candidate, keeping overhead bounded).
//! * [`Recorder`] — the flight recorder: bounded rings of recent and
//!   slow [`TraceRecord`]s plus per-stage latency histograms, all
//!   snapshot-able for `/metrics` and the `GET /v1/debug/trace` export.
//!
//! [`chrome_trace`] renders records as Chrome-trace-viewer JSON
//! (`chrome://tracing` / Perfetto "trace event" format).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod record;
mod recorder;
mod span;

pub use agg::{StageAgg, StageTotal};
pub use record::{chrome_trace, SpanAttr, SpanEvent, SpanRecord, TraceRecord};
pub use recorder::{Recorder, RecorderConfig, StageHistogram, STAGE_BUCKET_BOUNDS_US};
pub use span::{SpanToken, TraceSpans};

/// SplitMix64 finalizer — the one mixer behind the engine's per-variant
/// RNG streams, the serve layer's request seeds, chaos rolls and retry
/// jitter, and every span id.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `s` — folds a stage name into the id derivation.
pub fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The deterministic id of the `index`-th span named `stage` within
/// trace `trace_id`. Never zero (zero is the "no parent" sentinel in
/// [`SpanRecord::parent_id`]); never derived from wall-clock, so a
/// replayed request reproduces its span ids bit-for-bit.
pub fn span_id(trace_id: u64, stage: &str, index: u64) -> u64 {
    let id = mix64(trace_id ^ mix64(fnv64(stage)) ^ mix64(index));
    if id == 0 {
        1
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let a = span_id(7, "protect", 0);
        assert_eq!(a, span_id(7, "protect", 0));
        assert_ne!(a, span_id(7, "protect", 1));
        assert_ne!(a, span_id(7, "parse", 0));
        assert_ne!(a, span_id(8, "protect", 0));
        assert_ne!(a, 0);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let spans = TraceSpans::disabled();
        let root = spans.begin("request");
        spans.attr(root, "k", "v");
        spans.event(root, "boom");
        spans.end(root);
        assert!(spans.finish().is_none());
    }
}
