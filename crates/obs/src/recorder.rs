//! The flight recorder: bounded rings of recent/slow traces and
//! per-stage latency histograms.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::record::TraceRecord;

/// Stage-duration histogram bucket upper bounds, microseconds; an
/// implicit `+Inf` bucket follows. Finer at the low end than the
/// serve request histogram — pipeline stages are often sub-millisecond.
pub const STAGE_BUCKET_BOUNDS_US: [u64; 8] =
    [50, 250, 1_000, 5_000, 25_000, 100_000, 250_000, 1_000_000];

/// Sizing and thresholds of a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity for recent traces.
    pub capacity: usize,
    /// Ring capacity for slow traces (kept separately so a burst of
    /// fast requests cannot evict the interesting ones).
    pub slow_capacity: usize,
    /// Traces at or over this total duration are flagged slow and
    /// retained in the slow ring with their full span tree.
    pub slow_threshold: Duration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            slow_capacity: 64,
            slow_threshold: Duration::from_millis(250),
        }
    }
}

/// One per-stage duration histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageHistogram {
    /// Stage name.
    pub stage: String,
    /// Raw (non-cumulative) counts per bucket of
    /// [`STAGE_BUCKET_BOUNDS_US`] plus the trailing `+Inf` bucket;
    /// a Prometheus renderer accumulates these itself.
    pub buckets: [u64; 9],
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations, microseconds.
    pub sum_us: u64,
}

#[derive(Default)]
struct StageHisto {
    buckets: [u64; 9],
    count: u64,
    sum_us: u64,
}

#[derive(Default)]
struct RecorderInner {
    recent: VecDeque<TraceRecord>,
    slow: VecDeque<TraceRecord>,
    stages: BTreeMap<String, StageHisto>,
}

/// The per-server flight recorder.
///
/// `record` is called once per finished trace from whichever worker
/// handled it; snapshots are taken by the `/metrics` renderer and the
/// `GET /v1/debug/trace` handler. A single mutex guards the rings and
/// histograms — recording happens once per request (never per span in
/// a hot loop), so contention is bounded by request rate.
pub struct Recorder {
    config: RecorderConfig,
    inner: Mutex<RecorderInner>,
    recorded: AtomicU64,
    slow: AtomicU64,
}

impl Recorder {
    /// An empty recorder under `config`.
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(RecorderInner::default()),
            recorded: AtomicU64::new(0),
            slow: AtomicU64::new(0),
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// Ingests one finished trace: updates stage histograms, flags and
    /// retains slow traces, and appends to the recent ring.
    pub fn record(&self, mut record: TraceRecord) {
        let threshold_us = self.config.slow_threshold.as_micros() as u64;
        record.slow = record.total_us >= threshold_us;
        let mut inner = self.inner.lock().expect("recorder lock");
        for span in &record.spans {
            let histo = inner.stages.entry(span.stage.clone()).or_default();
            let bucket = STAGE_BUCKET_BOUNDS_US
                .iter()
                .position(|bound| span.dur_us <= *bound)
                .unwrap_or(STAGE_BUCKET_BOUNDS_US.len());
            histo.buckets[bucket] += 1;
            histo.count += 1;
            histo.sum_us += span.dur_us;
        }
        if record.slow && self.config.slow_capacity > 0 {
            while inner.slow.len() >= self.config.slow_capacity {
                inner.slow.pop_front();
            }
            inner.slow.push_back(record.clone());
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        if self.config.capacity > 0 {
            while inner.recent.len() >= self.config.capacity {
                inner.recent.pop_front();
            }
            inner.recent.push_back(record);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// The newest `limit` recent traces, oldest first.
    pub fn export(&self, limit: usize) -> Vec<TraceRecord> {
        let inner = self.inner.lock().expect("recorder lock");
        let skip = inner.recent.len().saturating_sub(limit);
        inner.recent.iter().skip(skip).cloned().collect()
    }

    /// The newest `limit` slow traces, oldest first.
    pub fn export_slow(&self, limit: usize) -> Vec<TraceRecord> {
        let inner = self.inner.lock().expect("recorder lock");
        let skip = inner.slow.len().saturating_sub(limit);
        inner.slow.iter().skip(skip).cloned().collect()
    }

    /// Per-stage histogram snapshots, sorted by stage name.
    pub fn stage_histograms(&self) -> Vec<StageHistogram> {
        let inner = self.inner.lock().expect("recorder lock");
        inner
            .stages
            .iter()
            .map(|(stage, h)| StageHistogram {
                stage: stage.clone(),
                buckets: h.buckets,
                count: h.count,
                sum_us: h.sum_us,
            })
            .collect()
    }

    /// Traces ingested since startup (monotonic, unlike ring length).
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces flagged slow since startup.
    pub fn slow_total(&self) -> u64 {
        self.slow.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSpans;

    fn trace(trace_id: u64, stage: &str) -> TraceRecord {
        let spans = TraceSpans::new(trace_id);
        let root = spans.begin(stage);
        spans.end(root);
        spans.finish().unwrap()
    }

    #[test]
    fn ring_evicts_oldest() {
        let recorder = Recorder::new(RecorderConfig {
            capacity: 3,
            slow_capacity: 2,
            slow_threshold: Duration::from_secs(3600),
        });
        for id in 0..5 {
            recorder.record(trace(id, "request"));
        }
        let exported = recorder.export(10);
        assert_eq!(exported.len(), 3);
        assert_eq!(
            exported.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            [2, 3, 4]
        );
        assert_eq!(recorder.export(2).len(), 2);
        assert_eq!(recorder.recorded_total(), 5);
        assert_eq!(recorder.slow_total(), 0);
    }

    #[test]
    fn zero_threshold_routes_everything_to_the_slow_log() {
        let recorder = Recorder::new(RecorderConfig {
            slow_threshold: Duration::ZERO,
            ..RecorderConfig::default()
        });
        recorder.record(trace(1, "request"));
        assert_eq!(recorder.slow_total(), 1);
        let slow = recorder.export_slow(10);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].slow);
        assert!(!slow[0].spans.is_empty(), "slow traces keep the span tree");
    }

    #[test]
    fn stage_histograms_accumulate() {
        let recorder = Recorder::new(RecorderConfig::default());
        recorder.record(trace(1, "parse"));
        recorder.record(trace(2, "parse"));
        recorder.record(trace(3, "engine"));
        let histos = recorder.stage_histograms();
        assert_eq!(histos.len(), 2);
        assert_eq!(histos[0].stage, "engine");
        assert_eq!(histos[0].count, 1);
        assert_eq!(histos[1].stage, "parse");
        assert_eq!(histos[1].count, 2);
        assert_eq!(histos[1].buckets.iter().sum::<u64>(), 2);
    }
}
