//! Service observability: request/response counters, a latency
//! histogram and engine-level gauges, rendered as Prometheus text
//! (`GET /metrics`).
//!
//! Counters are lock-free atomics on the request path; only the
//! status-code map takes a (short, uncontended) lock. Rendering
//! happens on scrape, not on update.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mood_attacks::StoreCounters;
use mood_exec::QueueStats;
use mood_obs::{Recorder, STAGE_BUCKET_BOUNDS_US};

use crate::chaos::FaultKind;

/// The endpoints the service distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/config`
    Config,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/protect`
    Protect,
    /// `POST /v1/protect/batch`
    ProtectBatch,
    /// `GET /v1/debug/trace` (flight-recorder export)
    DebugTrace,
    /// Anything else (404/405 traffic).
    Other,
}

impl Endpoint {
    /// Every endpoint, in rendering order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Healthz,
        Endpoint::Config,
        Endpoint::Metrics,
        Endpoint::Protect,
        Endpoint::ProtectBatch,
        Endpoint::DebugTrace,
        Endpoint::Other,
    ];

    /// The metrics label for this endpoint.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Config => "config",
            Endpoint::Metrics => "metrics",
            Endpoint::Protect => "protect",
            Endpoint::ProtectBatch => "protect_batch",
            Endpoint::DebugTrace => "debug_trace",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Config => 1,
            Endpoint::Metrics => 2,
            Endpoint::Protect => 3,
            Endpoint::ProtectBatch => 4,
            Endpoint::DebugTrace => 5,
            Endpoint::Other => 6,
        }
    }
}

/// Escapes a dynamic Prometheus label value per the text exposition
/// rules: backslash, double quote and newline must be escaped; every
/// other byte passes through.
pub fn escape_label_value(value: &str) -> String {
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
/// flight recorder's histograms/counters.
pub struct RenderScope<'a> {
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
#[derive(Debug)]
pub struct ServerMetrics {
    requests: [AtomicU64; 7],
    statuses: Mutex<BTreeMap<u16, u64>>,
    buckets: [AtomicU64; 9],
    latency_sum_us: AtomicU64,
    responses: AtomicU64,
    users_protected: AtomicU64,
    scratch_reuses: AtomicU64,
    attack_scratch_reuses: AtomicU64,
    heatmap_cache_hits: AtomicU64,
    heatmap_cache_misses: AtomicU64,
    connections: AtomicU64,
    overload_rejected: AtomicU64,
    faults: [AtomicU64; FaultKind::ALL.len()],
    degraded_results: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            statuses: Mutex::new(BTreeMap::new()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            users_protected: AtomicU64::new(0),
            scratch_reuses: AtomicU64::new(0),
            attack_scratch_reuses: AtomicU64::new(0),
            heatmap_cache_hits: AtomicU64::new(0),
            heatmap_cache_misses: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            overload_rejected: AtomicU64::new(0),
            faults: std::array::from_fn(|_| AtomicU64::new(0)),
            degraded_results: AtomicU64::new(0),
        }
    }

    /// Counts one routed request.
    pub fn record_request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one routed response with its handling latency (feeds the
    /// histogram — use [`ServerMetrics::record_error_status`] for
    /// responses with no meaningful handling time).
    pub fn record_response(&self, status: u16, latency: Duration) {
        self.record_status(status);
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
    pub fn record_error_status(&self, status: u16) {
        self.record_status(status);
    }

    fn record_status(&self, status: u16) {
        *self
            .statuses
            .lock()
            .expect("status map lock")
            .entry(status)
            .or_insert(0) += 1;
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds protected users to the running total.
    pub fn add_users(&self, n: u64) {
        self.users_protected.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a request engine's scratch reuses to the running total.
    pub fn add_scratch_reuses(&self, n: u64) {
        self.scratch_reuses.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a request engine's attack-scratch reuses to the running
    /// total (warm-arena attack scoring; see
    /// `MoodEngine::attack_scratch_reuses`).
    pub fn add_attack_scratch_reuses(&self, n: u64) {
        self.attack_scratch_reuses.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a request engine's rasterization-cache (heatmap-scratch)
    /// hit/miss counts to the running totals.
    pub fn add_heatmap_cache(&self, hits: u64, misses: u64) {
        self.heatmap_cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.heatmap_cache_misses
            .fetch_add(misses, Ordering::Relaxed);
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection shed with 503 because the accept queue was
    /// full.
    pub fn record_overload(&self) {
        self.overload_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one injected chaos fault of `kind`.
    pub fn record_fault(&self, kind: FaultKind) {
        self.faults[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts degraded protection results (candidate budget exhausted)
    /// served so far.
    pub fn add_degraded_results(&self, n: u64) {
        self.degraded_results.fetch_add(n, Ordering::Relaxed);
    }

    /// Responses sent so far (any status).
    pub fn responses_total(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn connections_total(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections shed with 503 so far.
    pub fn overload_rejected_total(&self) -> u64 {
        self.overload_rejected.load(Ordering::Relaxed)
    }

    /// Chaos faults of `kind` injected so far.
    pub fn faults_injected_total(&self, kind: FaultKind) -> u64 {
        self.faults[kind.index()].load(Ordering::Relaxed)
    }

    /// Chaos faults injected so far, all kinds together.
    pub fn faults_injected_all(&self) -> u64 {
        self.faults.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Degraded protection results served so far.
    pub fn degraded_results_total(&self) -> u64 {
        self.degraded_results.load(Ordering::Relaxed)
    }

    /// Users protected so far (single + batch).
    pub fn users_protected_total(&self) -> u64 {
        self.users_protected.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition for `GET /metrics` with
    /// only the static server shape — no queue gauges, no flight
    /// recorder. Convenience wrapper over [`ServerMetrics::render_with`].
    pub fn render(
        &self,
        backend: &str,
        executor_threads: usize,
        connection_workers: usize,
        profile_store: StoreCounters,
    ) -> String {
        self.render_with(&RenderScope {
            backend,
            executor_threads,
            connection_workers,
            profile_store,
            queue: None,
            recorder: None,
        })
    }

    /// Renders the Prometheus text exposition for `GET /metrics`.
    /// `scope.profile_store` is the engine template's live
    /// training-reuse snapshot (cumulative by construction, so it is
    /// rendered directly instead of being accumulated here); the queue
    /// and recorder sections are omitted entirely when absent from the
    /// scope.
    pub fn render_with(&self, scope: &RenderScope<'_>) -> String {
        let RenderScope {
            backend,
            executor_threads,
            connection_workers,
            profile_store,
            ..
        } = *scope;
        let mut out = String::with_capacity(2048);
        out.push_str("# TYPE mood_serve_requests_total counter\n");
        for endpoint in Endpoint::ALL {
            out.push_str(&format!(
                "mood_serve_requests_total{{endpoint=\"{}\"}} {}\n",
                endpoint.label(),
                self.requests[endpoint.index()].load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE mood_serve_responses_total counter\n");
        for (status, count) in self.statuses.lock().expect("status map lock").iter() {
            out.push_str(&format!(
                "mood_serve_responses_total{{status=\"{status}\"}} {count}\n"
            ));
        }
        out.push_str("# TYPE mood_serve_request_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "mood_serve_request_seconds_bucket{{le=\"{}\"}} {cumulative}\n",
                bound as f64 / 1e6
            ));
        }
        cumulative += self.buckets[BUCKET_BOUNDS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "mood_serve_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "mood_serve_request_seconds_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!("mood_serve_request_seconds_count {cumulative}\n"));
        out.push_str("# TYPE mood_serve_users_protected_total counter\n");
        out.push_str(&format!(
            "mood_serve_users_protected_total {}\n",
            self.users_protected.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_scratch_reuses_total counter\n");
        out.push_str(&format!(
            "mood_serve_scratch_reuses_total {}\n",
            self.scratch_reuses.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_attack_scratch_reuses_total counter\n");
        out.push_str(&format!(
            "mood_serve_attack_scratch_reuses_total {}\n",
            self.attack_scratch_reuses.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_heatmap_cache_total counter\n");
        out.push_str(&format!(
            "mood_serve_heatmap_cache_total{{result=\"hit\"}} {}\n",
            self.heatmap_cache_hits.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "mood_serve_heatmap_cache_total{{result=\"miss\"}} {}\n",
            self.heatmap_cache_misses.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_profile_store_total counter\n");
        out.push_str(&format!(
            "mood_serve_profile_store_total{{result=\"hit\"}} {}\n",
            profile_store.hits
        ));
        out.push_str(&format!(
            "mood_serve_profile_store_total{{result=\"miss\"}} {}\n",
            profile_store.misses
        ));
        out.push_str("# TYPE mood_serve_profile_builds_total counter\n");
        out.push_str(&format!(
            "mood_serve_profile_builds_total {}\n",
            profile_store.profile_builds
        ));
        out.push_str("# TYPE mood_serve_connections_total counter\n");
        out.push_str(&format!(
            "mood_serve_connections_total {}\n",
            self.connections.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_overload_rejected_total counter\n");
        out.push_str(&format!(
            "mood_serve_overload_rejected_total {}\n",
            self.overload_rejected.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_faults_injected_total counter\n");
        for kind in FaultKind::ALL {
            out.push_str(&format!(
                "mood_serve_faults_injected_total{{kind=\"{}\"}} {}\n",
                kind.label(),
                self.faults[kind.index()].load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE mood_serve_degraded_results_total counter\n");
        out.push_str(&format!(
            "mood_serve_degraded_results_total {}\n",
            self.degraded_results.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE mood_serve_executor_threads gauge\n");
        out.push_str(&format!(
            "mood_serve_executor_threads{{backend=\"{}\"}} {executor_threads}\n",
            escape_label_value(backend)
        ));
        out.push_str("# TYPE mood_serve_connection_workers gauge\n");
        out.push_str(&format!(
            "mood_serve_connection_workers {connection_workers}\n"
        ));
        if let Some(queue) = &scope.queue {
            out.push_str("# TYPE mood_serve_queue_depth gauge\n");
            out.push_str(&format!("mood_serve_queue_depth {}\n", queue.pending));
            out.push_str("# TYPE mood_serve_in_flight_connections gauge\n");
            out.push_str(&format!(
                "mood_serve_in_flight_connections {}\n",
                queue.in_flight
            ));
            out.push_str("# TYPE mood_serve_queue_wait_seconds summary\n");
            out.push_str(&format!(
                "mood_serve_queue_wait_seconds_sum {}\n",
                queue.waited.as_secs_f64()
            ));
            out.push_str(&format!(
                "mood_serve_queue_wait_seconds_count {}\n",
                queue.dequeued
            ));
        }
        if let Some(recorder) = scope.recorder {
            let histograms = recorder.stage_histograms();
            if !histograms.is_empty() {
                out.push_str("# TYPE mood_serve_stage_seconds histogram\n");
                for histo in &histograms {
                    let stage = escape_label_value(&histo.stage);
                    let mut cumulative = 0u64;
                    for (i, &bound) in STAGE_BUCKET_BOUNDS_US.iter().enumerate() {
                        cumulative += histo.buckets[i];
                        out.push_str(&format!(
                            "mood_serve_stage_seconds_bucket{{stage=\"{stage}\",le=\"{}\"}} {cumulative}\n",
                            bound as f64 / 1e6
                        ));
                    }
                    cumulative += histo.buckets[STAGE_BUCKET_BOUNDS_US.len()];
                    out.push_str(&format!(
                        "mood_serve_stage_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {cumulative}\n"
                    ));
                    out.push_str(&format!(
                        "mood_serve_stage_seconds_sum{{stage=\"{stage}\"}} {}\n",
                        histo.sum_us as f64 / 1e6
                    ));
                    out.push_str(&format!(
                        "mood_serve_stage_seconds_count{{stage=\"{stage}\"}} {}\n",
                        histo.count
                    ));
                }
            }
            out.push_str("# TYPE mood_serve_traces_recorded_total counter\n");
            out.push_str(&format!(
                "mood_serve_traces_recorded_total {}\n",
                recorder.recorded_total()
            ));
            out.push_str("# TYPE mood_serve_slow_requests_total counter\n");
            out.push_str(&format!(
                "mood_serve_slow_requests_total {}\n",
                recorder.slow_total()
            ));
            // Labeled counters bumped through the recorder (e.g. retry
            // reasons) arrive sorted by metric name, so one `# TYPE`
            // line per distinct metric suffices.
            let mut last_metric = String::new();
            for counter in recorder.counters() {
                if counter.metric != last_metric {
                    out.push_str(&format!("# TYPE {} counter\n", counter.metric));
                    last_metric = counter.metric.clone();
                }
                out.push_str(&format!(
                    "{}{{{}=\"{}\"}} {}\n",
                    counter.metric,
                    counter.label_key,
                    escape_label_value(&counter.label_value),
                    counter.value
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.add_heatmap_cache(3, 4);
        m.record_connection();
        m.record_overload();

        assert_eq!(m.responses_total(), 3);

        let text = m.render(
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
            text.contains("mood_serve_heatmap_cache_total{result=\"hit\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("mood_serve_heatmap_cache_total{result=\"miss\"} 4"),
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
        let text = m.render("sequential", 1, 1, StoreCounters::default());
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
        let text = m.render("persistent", 1, 1, StoreCounters::default());
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
        let text = m.render("sequential", 1, 1, StoreCounters::default());
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
        m.add_heatmap_cache(3, 4);
        let recorder = Recorder::new(mood_obs::RecorderConfig::default());
        recorder.bump("mood_serve_client_retries_total", "reason", "status_503");
        recorder.bump("mood_serve_client_retries_total", "reason", "status_503");
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
        let text = m.render_with(&scope);
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
            text.contains("mood_serve_client_retries_total{reason=\"status_503\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE mood_serve_client_retries_total counter"),
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
}
