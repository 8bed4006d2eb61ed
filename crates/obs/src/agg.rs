//! Lock-free per-stage duration totals for concurrent hot loops.

use std::sync::atomic::{AtomicU64, Ordering};

/// One drained/snapshot stage total from a [`StageAgg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotal {
    /// The stage name (from the slice the aggregator was built over).
    pub stage: &'static str,
    /// Total measured nanoseconds.
    pub ns: u64,
    /// Number of underlying operations covered (not number of
    /// `record_n` calls — each adds its batch size).
    pub count: u64,
}

/// Atomic per-stage `(nanoseconds, count)` accumulators over a fixed
/// stage-name table.
///
/// This is the aggregation sink for code that must not allocate or
/// lock per operation: engine workers record candidate-evaluation time
/// here from any thread, and the request handler drains the totals
/// into its span tree afterwards ([`crate::TraceSpans::child_complete`]).
/// Relaxed ordering everywhere — totals are observability-only and
/// never feed back into served bytes.
pub struct StageAgg {
    stages: &'static [&'static str],
    ns: Vec<AtomicU64>,
    count: Vec<AtomicU64>,
}

impl StageAgg {
    /// A zeroed aggregator over `stages` (index = position in slice).
    pub fn new(stages: &'static [&'static str]) -> Self {
        Self {
            stages,
            ns: (0..stages.len()).map(|_| AtomicU64::new(0)).collect(),
            count: (0..stages.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `count` operations totalling `ns` nanoseconds to `stage`.
    /// Out-of-range stages are ignored (observability must not panic).
    pub fn record_n(&self, stage: usize, ns: u64, count: u64) {
        if let (Some(total), Some(n)) = (self.ns.get(stage), self.count.get(stage)) {
            total.fetch_add(ns, Ordering::Relaxed);
            n.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Current totals, without resetting. Stages with zero count are
    /// skipped.
    pub fn snapshot(&self) -> Vec<StageTotal> {
        self.collect(|a| a.load(Ordering::Relaxed))
    }

    /// Takes and resets the totals — the per-request handoff point.
    pub fn drain(&self) -> Vec<StageTotal> {
        self.collect(|a| a.swap(0, Ordering::Relaxed))
    }

    fn collect(&self, read: impl Fn(&AtomicU64) -> u64) -> Vec<StageTotal> {
        self.stages
            .iter()
            .enumerate()
            .filter_map(|(i, stage)| {
                let count = read(&self.count[i]);
                let ns = read(&self.ns[i]);
                (count > 0).then_some(StageTotal { stage, ns, count })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const STAGES: [&str; 3] = ["raw_check", "search_single", "candidate_eval"];

    #[test]
    fn records_drain_and_reset() {
        let agg = StageAgg::new(&STAGES);
        agg.record_n(0, 100, 1);
        agg.record_n(2, 5_000, 64);
        let drained = agg.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].stage, "raw_check");
        assert_eq!(drained[0].ns, 100);
        assert_eq!(drained[1].count, 64);
        assert!(agg.drain().is_empty(), "drain resets the totals");
    }

    #[test]
    fn out_of_range_stage_is_ignored() {
        let agg = StageAgg::new(&STAGES);
        agg.record_n(17, 1, 1);
        assert!(agg.snapshot().is_empty());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let agg = Arc::new(StageAgg::new(&STAGES));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let agg = Arc::clone(&agg);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        agg.record_n(1, 3, 1);
                    }
                });
            }
        });
        let snap = agg.snapshot();
        assert_eq!(snap[0].count, 4_000);
        assert_eq!(snap[0].ns, 12_000);
    }
}
