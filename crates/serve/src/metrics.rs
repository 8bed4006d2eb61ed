//! Service observability: request/response counters, a latency
//! histogram and engine-level gauges, rendered as Prometheus text
//! (`GET /metrics`).
//!
//! Every counter series is one row of one atomic table ([`ROWS`]); only
//! the status-code map takes a (short, uncontended) lock. Rendering
//! happens on scrape, not on update, through one writer
//! ([`Exposition`]).

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mood_attacks::StoreCounters;
use mood_exec::QueueStats;
use mood_obs::{Recorder, STAGE_BUCKET_BOUNDS_US};

use crate::chaos::FaultKind;

/// The endpoints the service distinguishes in its metrics; a variant's
/// discriminant is its `mood_serve_requests_total` row in [`ROWS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Healthz,
    Config,
    Metrics,
    Protect,
    ProtectBatch,
    DebugTrace,
    /// Anything else (404/405 traffic).
    Other,
}

/// The counter table: one `(family, labels)` series per row, in
/// exposition order. The endpoint rows follow [`Endpoint`]'s variants
/// and the fault rows [`FaultKind::ALL`].
const ROWS: [(&str, &str); 18] = [
    ("mood_serve_requests_total", r#"endpoint="healthz""#),
    ("mood_serve_requests_total", r#"endpoint="config""#),
    ("mood_serve_requests_total", r#"endpoint="metrics""#),
    ("mood_serve_requests_total", r#"endpoint="protect""#),
    ("mood_serve_requests_total", r#"endpoint="protect_batch""#),
    ("mood_serve_requests_total", r#"endpoint="debug_trace""#),
    ("mood_serve_requests_total", r#"endpoint="other""#),
    ("mood_serve_users_protected_total", ""),
    ("mood_serve_scratch_reuses_total", ""),
    ("mood_serve_attack_scratch_reuses_total", ""),
    ("mood_serve_connections_total", ""),
    ("mood_serve_overload_rejected_total", ""),
    ("mood_serve_faults_injected_total", r#"kind="accept_drop""#),
    ("mood_serve_faults_injected_total", r#"kind="shed""#),
    ("mood_serve_faults_injected_total", r#"kind="delay""#),
    ("mood_serve_faults_injected_total", r#"kind="panic""#),
    ("mood_serve_faults_injected_total", r#"kind="truncate""#),
    ("mood_serve_degraded_results_total", ""),
];
// The rows of `ROWS` that no `Endpoint` and no `FaultKind` picks; `FAULTS`
// is the first fault row.
const USERS: usize = 7;
const SCRATCH_REUSES: usize = 8;
const ATTACK_SCRATCH_REUSES: usize = 9;
const CONNECTIONS: usize = 10;
const OVERLOADS: usize = 11;
const FAULTS: usize = 12;
const DEGRADED: usize = 17;

/// Escapes a dynamic Prometheus label value per the text exposition
/// rules: backslash, double quote and newline must be escaped; every
/// other byte passes through.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Everything the `/metrics` renderer needs beyond the counters
/// themselves: the server's static shape, live queue gauges and the
/// flight recorder's histograms and counters.
pub(crate) struct RenderScope<'a> {
    /// Executor backend name (`backend` label).
    pub backend: &'a str,
    /// Executor thread budget.
    pub executor_threads: usize,
    /// Connection workers configured.
    pub connection_workers: usize,
    /// The engine template's live training-reuse snapshot.
    pub profile_store: StoreCounters,
    /// Connection-pool queue snapshot (`None` when the pool is gone,
    /// e.g. during shutdown).
    pub queue: Option<QueueStats>,
    /// The flight recorder (`None` when tracing is disabled).
    pub recorder: Option<&'a Recorder>,
}

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is implicit `+Inf`.
const BUCKET_BOUNDS_US: [u64; 8] = [
    500, 1_000, 5_000, 25_000, 100_000, 250_000, 1_000_000, 5_000_000,
];

/// Counters and gauges of one running server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// One counter per [`ROWS`] series.
    rows: [AtomicU64; ROWS.len()],
    statuses: Mutex<BTreeMap<u16, u64>>,
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    latency_sum_us: AtomicU64,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&self, row: usize, n: u64) {
        self.rows[row].fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self, row: usize) -> u64 {
        self.rows[row].load(Ordering::Relaxed)
    }

    /// Counts one routed request.
    pub(crate) fn record_request(&self, endpoint: Endpoint) {
        self.add(endpoint as usize, 1);
    }

    /// Counts one routed response with its handling latency (feeds the
    /// histogram — use [`ServerMetrics::record_error_status`] for
    /// responses with no meaningful handling time).
    pub(crate) fn record_response(&self, status: u16, latency: Duration) {
        self.record_error_status(status);
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Counts a status-only response — load sheds (503) and protocol
    /// failures (4xx), whose "latency" is peer wait time, not handling
    /// time; they would poison the histogram's percentiles.
    pub(crate) fn record_error_status(&self, status: u16) {
        *self
            .statuses
            .lock()
            .expect("status map lock")
            .entry(status)
            .or_insert(0) += 1;
    }

    /// Adds protected users to the running total.
    pub(crate) fn add_users(&self, n: u64) {
        self.add(USERS, n);
    }

    /// Adds a request engine's scratch reuses to the running total.
    pub(crate) fn add_scratch_reuses(&self, n: u64) {
        self.add(SCRATCH_REUSES, n);
    }

    /// Adds a request engine's attack-scratch reuses to the running
    /// total (warm-arena attack scoring; see
    /// `MoodEngine::attack_scratch_reuses`).
    pub(crate) fn add_attack_scratch_reuses(&self, n: u64) {
        self.add(ATTACK_SCRATCH_REUSES, n);
    }

    /// Counts one accepted connection.
    pub(crate) fn record_connection(&self) {
        self.add(CONNECTIONS, 1);
    }

    /// Counts one connection shed with 503 because the accept queue was
    /// full.
    pub(crate) fn record_overload(&self) {
        self.add(OVERLOADS, 1);
    }

    /// Counts one injected chaos fault of `kind`.
    pub(crate) fn record_fault(&self, kind: FaultKind) {
        self.add(FAULTS + kind.index(), 1);
    }

    /// Counts degraded protection results (candidate budget exhausted)
    /// served so far.
    pub(crate) fn add_degraded_results(&self, n: u64) {
        self.add(DEGRADED, n);
    }

    /// Responses sent so far (any status).
    pub fn responses_total(&self) -> u64 {
        self.statuses
            .lock()
            .expect("status map lock")
            .values()
            .sum()
    }

    /// Connections accepted so far.
    pub fn connections_total(&self) -> u64 {
        self.get(CONNECTIONS)
    }

    /// Connections shed with 503 so far.
    pub fn overload_rejected_total(&self) -> u64 {
        self.get(OVERLOADS)
    }

    /// Chaos faults of `kind` injected so far.
    pub fn faults_injected_total(&self, kind: FaultKind) -> u64 {
        self.get(FAULTS + kind.index())
    }

    /// Chaos faults injected so far, all kinds together.
    pub fn faults_injected_all(&self) -> u64 {
        FaultKind::ALL
            .into_iter()
            .map(|kind| self.faults_injected_total(kind))
            .sum()
    }

    /// Degraded protection results served so far.
    pub fn degraded_results_total(&self) -> u64 {
        self.get(DEGRADED)
    }

    /// Users protected so far (single + batch).
    pub fn users_protected_total(&self) -> u64 {
        self.get(USERS)
    }

    /// Renders the Prometheus text exposition for `GET /metrics`.
    /// `scope.profile_store` is the engine template's live
    /// training-reuse snapshot (cumulative by construction, so it is
    /// rendered directly instead of being accumulated here); the queue
    /// and recorder sections are omitted entirely when absent from the
    /// scope.
    pub(crate) fn render(&self, scope: &RenderScope<'_>) -> String {
        let mut out = Exposition::default();
        let rows = |out: &mut Exposition, rows: std::ops::Range<usize>| {
            for row in rows {
                let (family, labels) = ROWS[row];
                out.counter(family, labels, self.get(row));
            }
        };
        rows(&mut out, 0..USERS);
        for (status, count) in self.statuses.lock().expect("status map lock").iter() {
            let labels = format!("status=\"{status}\"");
            out.counter("mood_serve_responses_total", &labels, count);
        }
        out.histogram(
            "mood_serve_request_seconds",
            "",
            &BUCKET_BOUNDS_US,
            &self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            self.latency_sum_us.load(Ordering::Relaxed),
        );
        rows(&mut out, USERS..CONNECTIONS);
        let store = scope.profile_store;
        out.counter(
            "mood_serve_profile_store_total",
            r#"result="hit""#,
            store.hits,
        );
        out.counter(
            "mood_serve_profile_store_total",
            r#"result="miss""#,
            store.misses,
        );
        out.counter("mood_serve_profile_builds_total", "", store.profile_builds);
        rows(&mut out, CONNECTIONS..ROWS.len());
        let backend = format!("backend=\"{}\"", escape_label_value(scope.backend));
        out.gauge(
            "mood_serve_executor_threads",
            &backend,
            scope.executor_threads,
        );
        out.gauge(
            "mood_serve_connection_workers",
            "",
            scope.connection_workers,
        );
        if let Some(queue) = &scope.queue {
            out.gauge("mood_serve_queue_depth", "", queue.pending);
            out.gauge("mood_serve_in_flight_connections", "", queue.in_flight);
            let family = "mood_serve_queue_wait_seconds";
            out.sample(family, "summary", "_sum", "", queue.waited.as_secs_f64());
            out.sample(family, "summary", "_count", "", queue.dequeued);
        }
        if let Some(recorder) = scope.recorder {
            for histo in recorder.stage_histograms() {
                out.histogram(
                    "mood_serve_stage_seconds",
                    &format!("stage=\"{}\"", escape_label_value(&histo.stage)),
                    &STAGE_BUCKET_BOUNDS_US,
                    &histo.buckets,
                    histo.sum_us,
                );
            }
            out.counter(
                "mood_serve_traces_recorded_total",
                "",
                recorder.recorded_total(),
            );
            out.counter("mood_serve_slow_requests_total", "", recorder.slow_total());
        }
        out.text
    }
}

/// The one exposition writer. A family's `# TYPE` line goes out with
/// its first sample, so no family is declared without one; the samples
/// of one family must be written one after another.
#[derive(Default)]
struct Exposition {
    text: String,
    family: &'static str,
}

impl Exposition {
    /// Writes `{family}{suffix}{{labels}} value`, declaring `family` as
    /// `kind` first when the previous sample belonged to another one.
    fn sample(
        &mut self,
        family: &'static str,
        kind: &str,
        suffix: &str,
        labels: &str,
        value: impl Display,
    ) {
        if family != self.family {
            self.family = family;
            let _ = writeln!(self.text, "# TYPE {family} {kind}");
        }
        let _ = if labels.is_empty() {
            writeln!(self.text, "{family}{suffix} {value}")
        } else {
            writeln!(self.text, "{family}{suffix}{{{labels}}} {value}")
        };
    }

    fn counter(&mut self, family: &'static str, labels: &str, value: impl Display) {
        self.sample(family, "counter", "", labels, value);
    }

    fn gauge(&mut self, family: &'static str, labels: &str, value: impl Display) {
        self.sample(family, "gauge", "", labels, value);
    }

    /// Writes one histogram series: the cumulative `_bucket` samples
    /// of the raw per-bucket `counts` (one per bound in `bounds_us`,
    /// then `+Inf`), `_sum` in seconds and `_count`. `labels` is the
    /// series' label set without `le`.
    fn histogram(
        &mut self,
        family: &'static str,
        labels: &str,
        bounds_us: &[u64],
        counts: &[u64],
        sum_us: u64,
    ) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0;
        for (i, count) in counts.iter().enumerate() {
            cumulative += count;
            let le = bounds_us
                .get(i)
                .map_or_else(|| "+Inf".to_string(), |&us| (us as f64 / 1e6).to_string());
            let bucket = format!("{labels}{sep}le=\"{le}\"");
            self.sample(family, "histogram", "_bucket", &bucket, cumulative);
        }
        self.sample(family, "histogram", "_sum", labels, sum_us as f64 / 1e6);
        self.sample(family, "histogram", "_count", labels, cumulative);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_obs::{RecorderConfig, SpanRecord, TraceRecord};

    fn render(
        m: &ServerMetrics,
        backend: &str,
        executor_threads: usize,
        connection_workers: usize,
        profile_store: StoreCounters,
    ) -> String {
        m.render(&RenderScope {
            backend,
            executor_threads,
            connection_workers,
            profile_store,
            queue: None,
            recorder: None,
        })
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.record_request(Endpoint::Healthz);
        m.record_request(Endpoint::Protect);
        m.record_request(Endpoint::Protect);
        m.record_response(200, Duration::from_micros(300));
        m.record_response(200, Duration::from_millis(2));
        m.record_response(404, Duration::from_millis(30));
        m.add_users(5);
        m.add_scratch_reuses(7);
        m.add_attack_scratch_reuses(11);
        m.record_connection();
        m.record_overload();

        assert_eq!(m.responses_total(), 3);

        let text = render(
            &m,
            "persistent",
            4,
            2,
            StoreCounters {
                hits: 6,
                misses: 3,
                profile_builds: 40,
            },
        );
        assert!(
            text.contains("mood_serve_requests_total{endpoint=\"protect\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_requests_total{endpoint=\"healthz\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_responses_total{status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_responses_total{status=\"404\"} 1"),
            "{text}"
        );
        assert!(!text.contains("status=\"500\""), "{text}");
        // 300 µs lands in the first bucket; everything is <= +Inf.
        assert!(
            text.contains("mood_serve_request_seconds_bucket{le=\"0.0005\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_request_seconds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_request_seconds_count 3"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_users_protected_total 5"),
            "{text}"
        );
        assert!(text.contains("mood_serve_scratch_reuses_total 7"), "{text}");
        assert!(
            text.contains("mood_serve_attack_scratch_reuses_total 11"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_profile_store_total{result=\"hit\"} 6"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_profile_store_total{result=\"miss\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_profile_builds_total 40"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_executor_threads{backend=\"persistent\"} 4"),
            "{text}"
        );
        assert!(text.contains("mood_serve_connection_workers 2"), "{text}");
        assert!(
            text.contains("mood_serve_overload_rejected_total 1"),
            "{text}"
        );
    }

    #[test]
    fn fault_counters_render_per_kind() {
        let m = ServerMetrics::new();
        m.record_fault(FaultKind::Delay);
        m.record_fault(FaultKind::Delay);
        m.record_fault(FaultKind::Truncate);
        m.add_degraded_results(3);
        assert_eq!(m.faults_injected_total(FaultKind::Delay), 2);
        assert_eq!(m.faults_injected_total(FaultKind::AcceptDrop), 0);
        assert_eq!(m.faults_injected_all(), 3);
        assert_eq!(m.degraded_results_total(), 3);
        let text = render(&m, "sequential", 1, 1, StoreCounters::default());
        assert!(
            text.contains("mood_serve_faults_injected_total{kind=\"delay\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_faults_injected_total{kind=\"truncate\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_faults_injected_total{kind=\"accept_drop\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_degraded_results_total 3"),
            "{text}"
        );
    }

    #[test]
    fn error_statuses_count_without_touching_the_histogram() {
        let m = ServerMetrics::new();
        m.record_response(200, Duration::from_millis(2));
        m.record_error_status(503);
        m.record_error_status(408);
        assert_eq!(m.responses_total(), 3);
        let text = render(&m, "persistent", 1, 1, StoreCounters::default());
        assert!(
            text.contains("mood_serve_responses_total{status=\"503\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_request_seconds_count 1"),
            "histogram must only see routed responses: {text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = ServerMetrics::new();
        // One in every bucket, including the overflow bucket.
        for us in [
            400, 900, 4_000, 20_000, 90_000, 200_000, 900_000, 4_000_000, 60_000_000,
        ] {
            m.record_response(200, Duration::from_micros(us));
        }
        let text = render(&m, "sequential", 1, 1, StoreCounters::default());
        assert!(text.contains("{le=\"0.0005\"} 1"), "{text}");
        assert!(text.contains("{le=\"0.001\"} 2"), "{text}");
        assert!(text.contains("{le=\"5\"} 8"), "{text}");
        assert!(text.contains("{le=\"+Inf\"} 9"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn render_with_emits_queue_and_recorder_sections() {
        let m = ServerMetrics::new();
        m.add_attack_scratch_reuses(11);
        let recorder = Recorder::new(mood_obs::RecorderConfig::default());
        let scope = RenderScope {
            backend: "persistent",
            executor_threads: 4,
            connection_workers: 2,
            profile_store: StoreCounters::default(),
            queue: Some(QueueStats {
                pending: 3,
                in_flight: 2,
                dequeued: 9,
                waited: Duration::from_millis(1500),
            }),
            recorder: Some(&recorder),
        };
        let text = m.render(&scope);
        assert!(text.contains("mood_serve_queue_depth 3"), "{text}");
        assert!(
            text.contains("mood_serve_in_flight_connections 2"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_queue_wait_seconds_sum 1.5"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_queue_wait_seconds_count 9"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_traces_recorded_total 0"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_attack_scratch_reuses_total 11"),
            "{text}"
        );
    }

    /// The whole exposition of a server whose every counter and gauge
    /// is non-zero, byte for byte. Each counter row holds a different
    /// value, so a row that moves shows here.
    const GOLDEN: &str = r#"# TYPE mood_serve_requests_total counter
mood_serve_requests_total{endpoint="healthz"} 1
mood_serve_requests_total{endpoint="config"} 2
mood_serve_requests_total{endpoint="metrics"} 3
mood_serve_requests_total{endpoint="protect"} 4
mood_serve_requests_total{endpoint="protect_batch"} 5
mood_serve_requests_total{endpoint="debug_trace"} 6
mood_serve_requests_total{endpoint="other"} 7
# TYPE mood_serve_responses_total counter
mood_serve_responses_total{status="200"} 6
mood_serve_responses_total{status="404"} 1
mood_serve_responses_total{status="503"} 2
# TYPE mood_serve_request_seconds histogram
mood_serve_request_seconds_bucket{le="0.0005"} 1
mood_serve_request_seconds_bucket{le="0.001"} 2
mood_serve_request_seconds_bucket{le="0.005"} 4
mood_serve_request_seconds_bucket{le="0.025"} 4
mood_serve_request_seconds_bucket{le="0.1"} 5
mood_serve_request_seconds_bucket{le="0.25"} 5
mood_serve_request_seconds_bucket{le="1"} 6
mood_serve_request_seconds_bucket{le="5"} 6
mood_serve_request_seconds_bucket{le="+Inf"} 7
mood_serve_request_seconds_sum 6.435
mood_serve_request_seconds_count 7
# TYPE mood_serve_users_protected_total counter
mood_serve_users_protected_total 8
# TYPE mood_serve_scratch_reuses_total counter
mood_serve_scratch_reuses_total 9
# TYPE mood_serve_attack_scratch_reuses_total counter
mood_serve_attack_scratch_reuses_total 10
# TYPE mood_serve_profile_store_total counter
mood_serve_profile_store_total{result="hit"} 6
mood_serve_profile_store_total{result="miss"} 3
# TYPE mood_serve_profile_builds_total counter
mood_serve_profile_builds_total 40
# TYPE mood_serve_connections_total counter
mood_serve_connections_total 13
# TYPE mood_serve_overload_rejected_total counter
mood_serve_overload_rejected_total 14
# TYPE mood_serve_faults_injected_total counter
mood_serve_faults_injected_total{kind="accept_drop"} 1
mood_serve_faults_injected_total{kind="shed"} 2
mood_serve_faults_injected_total{kind="delay"} 3
mood_serve_faults_injected_total{kind="panic"} 4
mood_serve_faults_injected_total{kind="truncate"} 5
# TYPE mood_serve_degraded_results_total counter
mood_serve_degraded_results_total 15
# TYPE mood_serve_executor_threads gauge
mood_serve_executor_threads{backend="persistent"} 4
# TYPE mood_serve_connection_workers gauge
mood_serve_connection_workers 2
# TYPE mood_serve_queue_depth gauge
mood_serve_queue_depth 3
# TYPE mood_serve_in_flight_connections gauge
mood_serve_in_flight_connections 2
# TYPE mood_serve_queue_wait_seconds summary
mood_serve_queue_wait_seconds_sum 1.5
mood_serve_queue_wait_seconds_count 9
# TYPE mood_serve_stage_seconds histogram
mood_serve_stage_seconds_bucket{stage="engine",le="0.00005"} 0
mood_serve_stage_seconds_bucket{stage="engine",le="0.00025"} 0
mood_serve_stage_seconds_bucket{stage="engine",le="0.001"} 0
mood_serve_stage_seconds_bucket{stage="engine",le="0.005"} 1
mood_serve_stage_seconds_bucket{stage="engine",le="0.025"} 1
mood_serve_stage_seconds_bucket{stage="engine",le="0.1"} 1
mood_serve_stage_seconds_bucket{stage="engine",le="0.25"} 1
mood_serve_stage_seconds_bucket{stage="engine",le="1"} 2
mood_serve_stage_seconds_bucket{stage="engine",le="+Inf"} 2
mood_serve_stage_seconds_sum{stage="engine"} 0.3011
mood_serve_stage_seconds_count{stage="engine"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="0.00005"} 1
mood_serve_stage_seconds_bucket{stage="parse",le="0.00025"} 1
mood_serve_stage_seconds_bucket{stage="parse",le="0.001"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="0.005"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="0.025"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="0.1"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="0.25"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="1"} 2
mood_serve_stage_seconds_bucket{stage="parse",le="+Inf"} 2
mood_serve_stage_seconds_sum{stage="parse"} 0.00034
mood_serve_stage_seconds_count{stage="parse"} 2
# TYPE mood_serve_traces_recorded_total counter
mood_serve_traces_recorded_total 2
# TYPE mood_serve_slow_requests_total counter
mood_serve_slow_requests_total 1
"#;

    fn span(id: u64, stage: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent_id: 0,
            stage: stage.to_string(),
            index: 0,
            start_us: 0,
            dur_us,
            count: 1,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn exposition_matches_the_golden_text() {
        let m = ServerMetrics::new();
        for (endpoint, n) in [
            (Endpoint::Healthz, 1),
            (Endpoint::Config, 2),
            (Endpoint::Metrics, 3),
            (Endpoint::Protect, 4),
            (Endpoint::ProtectBatch, 5),
            (Endpoint::DebugTrace, 6),
            (Endpoint::Other, 7),
        ] {
            for _ in 0..n {
                m.record_request(endpoint);
            }
        }
        for us in [300, 2_000, 2_000, 30_000, 400_000, 6_000_000] {
            m.record_response(200, Duration::from_micros(us));
        }
        m.record_response(404, Duration::from_micros(700));
        m.record_error_status(503);
        m.record_error_status(503);
        m.add_users(8);
        m.add_scratch_reuses(9);
        m.add_attack_scratch_reuses(10);
        for _ in 0..13 {
            m.record_connection();
        }
        for _ in 0..14 {
            m.record_overload();
        }
        for (n, kind) in FaultKind::ALL.into_iter().enumerate() {
            for _ in 0..=n {
                m.record_fault(kind);
            }
        }
        m.add_degraded_results(15);
        // Two traces over two stages; the second is slow (≥ 250 ms).
        let recorder = Recorder::new(RecorderConfig::default());
        for (trace_id, parse_us, engine_us) in [(1, 40, 1_100), (2, 300, 300_000)] {
            recorder.record(TraceRecord {
                trace_id,
                total_us: parse_us + engine_us,
                slow: false,
                spans: vec![span(1, "parse", parse_us), span(2, "engine", engine_us)],
            });
        }
        let text = m.render(&RenderScope {
            backend: "persistent",
            executor_threads: 4,
            connection_workers: 2,
            profile_store: StoreCounters {
                hits: 6,
                misses: 3,
                profile_builds: 40,
            },
            queue: Some(QueueStats {
                pending: 3,
                in_flight: 2,
                dequeued: 9,
                waited: Duration::from_millis(1500),
            }),
            recorder: Some(&recorder),
        });
        assert_eq!(text, GOLDEN);
    }
}
