//! The long-running protection server: acceptor thread, keep-alive
//! connection workers on a dedicated [`ServicePool`], routing, and a
//! graceful shutdown that joins every thread it spawned.
//!
//! ```text
//!  clients ──► acceptor ──try_submit──► ServicePool (connection workers)
//!                 │ full?                     │ per request
//!                 └──► 503, close             ├─ engine_for_request(seed)  one sibling engine
//!                                             └─ protect_user / protect_stream
//!                                                    └─ shared executor (persistent pool)
//! ```
//!
//! Backpressure: the accept queue is bounded (`max_pending`); when it
//! is full the acceptor answers `503 Service Unavailable` inline and
//! closes — it never blocks and never queues unboundedly. Shutdown:
//! stop accepting, wake the acceptor with a loopback connect, let the
//! connection workers observe the flag at their next read poll, drain,
//! join. Dropping the server performs the same shutdown.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mood_core::{protect_stream, Executor, ExecutorKind, MoodConfig, ENGINE_STAGES};
use mood_exec::{ServicePool, SubmitError};
use mood_obs::{mix64, Recorder, RecorderConfig, SpanToken, StageAgg, TraceSpans};
use mood_trace::Dataset;

use crate::api::{
    request_seed, BatchRequest, BatchResponse, ConfigResponse, EngineTemplate, ErrorBody,
    ProtectRequest, ProtectResponse, ProtectResult, TraceExport,
};
use crate::chaos::{ChaosConfig, FaultKind, FaultPlan};
use crate::http::{Conn, Request, RequestOutcome, Response};
use crate::metrics::{Endpoint, RenderScope, ServerMetrics};

/// How often blocked reads wake up to check shutdown and idle state.
const READ_POLL: Duration = Duration::from_millis(25);

/// Shape of a [`MoodServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Connection workers — concurrently served keep-alive connections.
    pub connection_workers: usize,
    /// Execution backend for the user-level fan-out of batch requests
    /// (and the candidate-level batches inside every request).
    pub executor: ExecutorKind,
    /// Thread budget of that backend.
    pub executor_threads: usize,
    /// The server seed of the determinism contract (see [`crate::api`]).
    pub server_seed: u64,
    /// Maximum accepted request-body size in bytes; larger bodies are
    /// answered with 413.
    pub max_body_bytes: usize,
    /// Accept-queue bound; connections beyond it are shed with 503.
    pub max_pending: usize,
    /// How long an idle keep-alive connection is held before closing.
    pub keep_alive: Duration,
    /// How long a partially received request may dribble in before the
    /// connection is answered with 408.
    pub request_timeout: Duration,
    /// Seeded fault injection ([`crate::chaos`]); `None` (the default)
    /// disables chaos entirely — every injection point reduces to one
    /// `Option` check.
    pub chaos: Option<ChaosConfig>,
    /// Default per-request candidate budget (deadline-aware graceful
    /// degradation); a request's own [`ProtectRequest::budget`] takes
    /// precedence. `None` means unlimited.
    pub candidate_budget: Option<u64>,
    /// Deterministic request tracing and the flight recorder: `Some`
    /// (the default) records per-request span trees into a bounded ring
    /// served by `GET /v1/debug/trace` and feeds the per-stage
    /// histograms on `/metrics`. `None` disables tracing entirely — no
    /// span clocks are read. Served bytes are bit-identical either way;
    /// only the `*_us` observability fields carry wall-clock.
    pub tracing: Option<RecorderConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            connection_workers: 4,
            executor: ExecutorKind::Persistent,
            executor_threads: 4,
            server_seed: MoodConfig::paper_default().seed,
            max_body_bytes: 4 * 1024 * 1024,
            max_pending: 128,
            keep_alive: Duration::from_secs(5),
            request_timeout: Duration::from_secs(5),
            chaos: None,
            candidate_budget: None,
            tracing: Some(RecorderConfig::default()),
        }
    }
}

/// One accepted connection traveling through the [`ServicePool`]: the
/// stream plus its seeded fault schedule (`None` when chaos is off).
struct ConnJob {
    stream: TcpStream,
    plan: Option<FaultPlan>,
    /// The accept-time connection id; also keys non-protect trace ids.
    connection_id: u64,
    /// Accept timestamp, `Some` only when tracing: the worker derives
    /// the `queue_wait` synthetic span from it at pickup.
    accepted: Option<Instant>,
}

/// State shared by the acceptor, the connection workers and the handle.
struct ServerShared {
    template: EngineTemplate,
    executor: Arc<dyn Executor>,
    metrics: ServerMetrics,
    config: ServeConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Monotone connection ids: the `connection_id` of every fault
    /// decision, assigned at accept time.
    connection_seq: AtomicU64,
    /// The flight recorder; `None` when tracing is disabled.
    recorder: Option<Arc<Recorder>>,
    /// Back-reference to the connection pool for `/metrics` queue
    /// gauges. `Weak` because the pool's worker closure owns the
    /// `Arc<ServerShared>`; set once right after the pool is built.
    pool: OnceLock<Weak<ServicePool<ConnJob>>>,
}

/// A running protection server. Shut it down explicitly with
/// [`MoodServer::shutdown`] or implicitly by dropping it; either way
/// every spawned thread (acceptor, connection workers, executor
/// workers) is joined — no leaks.
pub struct MoodServer {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<Arc<ServicePool<ConnJob>>>,
}

impl std::fmt::Debug for MoodServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoodServer")
            .field("addr", &self.shared.addr)
            .field("executor", &self.shared.executor.name())
            .finish()
    }
}

impl MoodServer {
    /// Binds, spawns the acceptor and the connection-worker pool, and
    /// returns immediately; the server runs until shutdown.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration error, if any.
    pub fn start(config: ServeConfig, template: EngineTemplate) -> io::Result<MoodServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let executor = config.executor.build(config.executor_threads.max(1));
        let recorder = config.tracing.map(|cfg| Arc::new(Recorder::new(cfg)));
        let shared = Arc::new(ServerShared {
            template,
            executor,
            metrics: ServerMetrics::new(),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            connection_seq: AtomicU64::new(0),
            recorder,
            pool: OnceLock::new(),
        });

        let worker_shared = Arc::clone(&shared);
        let pool = Arc::new(ServicePool::new(
            "mood-serve",
            shared.config.connection_workers,
            shared.config.max_pending,
            move |job: ConnJob| handle_connection(&worker_shared, job),
        ));
        let _ = shared.pool.set(Arc::downgrade(&pool));

        let acceptor_shared = Arc::clone(&shared);
        let acceptor_pool = Arc::clone(&pool);
        let acceptor = std::thread::Builder::new()
            .name("mood-serve-accept".to_string())
            .spawn(move || acceptor_loop(&listener, &acceptor_shared, &acceptor_pool))?;

        Ok(MoodServer {
            shared,
            acceptor: Some(acceptor),
            pool: Some(pool),
        })
    }

    /// Convenience: a server over the paper-default engine trained on
    /// `background`.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration error, if any.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty (attack training needs data).
    pub fn start_paper_default(
        config: ServeConfig,
        background: &Dataset,
    ) -> io::Result<MoodServer> {
        Self::start(config, EngineTemplate::paper_default(background))
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's metrics (live counters).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// join the acceptor, every connection worker and the executor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking accept. A wildcard
            // bind reports the unspecified address, which is not
            // connectable everywhere — wake via loopback instead.
            let mut wake = self.shared.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(wake);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

impl Drop for MoodServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &ServerShared, pool: &ServicePool<ConnJob>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.record_connection();
        let connection_id = shared.connection_seq.fetch_add(1, Ordering::Relaxed);
        let plan = shared
            .config
            .chaos
            .map(|chaos| FaultPlan::new(chaos, connection_id));
        // Injection point 1: accept-time connection drop — the client
        // sees an immediate EOF/reset, the retryable "server died on
        // us" failure.
        if let Some(plan) = &plan {
            if plan.accept_drop() {
                shared.metrics.record_fault(FaultKind::AcceptDrop);
                record_fault_trace(shared, connection_id, FaultKind::AcceptDrop);
                drop(stream);
                continue;
            }
        }
        // Injection point 2: forced shedding, answered like a full
        // queue without touching it.
        let mut stream = if plan.as_ref().is_some_and(FaultPlan::shed) {
            shared.metrics.record_fault(FaultKind::Shed);
            record_fault_trace(shared, connection_id, FaultKind::Shed);
            stream
        } else {
            let accepted = shared.recorder.as_ref().map(|_| Instant::now());
            match pool.try_submit(ConnJob {
                stream,
                plan,
                connection_id,
                accepted,
            }) {
                Ok(()) => continue,
                Err(SubmitError::Full(job) | SubmitError::ShuttingDown(job)) => job.stream,
            }
        };
        // Shed load inline; never block the accept loop. Sheds count as
        // status-only responses — they carry no handling latency for
        // the histogram.
        shared.metrics.record_overload();
        shared.metrics.record_error_status(503);
        let resp = Response::json(
            503,
            &ErrorBody {
                error: "server overloaded: accept queue full".to_string(),
            },
        )
        .closing();
        let _ = resp.write_to(&mut stream);
    }
}

/// A connection that never reached a worker still leaves evidence in
/// the flight recorder: a zero-span trace keyed off the connection id
/// carrying the fault as an event.
fn record_fault_trace(shared: &ServerShared, connection_id: u64, kind: FaultKind) {
    let Some(recorder) = shared.recorder.as_deref() else {
        return;
    };
    let spans = TraceSpans::new(mix64(connection_id));
    let root = spans.begin("request");
    spans.event(root, &format!("fault_{}", kind.label()));
    spans.end(root);
    if let Some(record) = spans.finish() {
        recorder.record(record);
    }
}

/// Finishes a request's span tree and hands it to the flight recorder.
fn flush_trace(recorder: Option<&Recorder>, spans: TraceSpans) {
    if let (Some(recorder), Some(record)) = (recorder, spans.finish()) {
        recorder.record(record);
    }
}

/// Serves one connection until close, idle timeout or shutdown.
fn handle_connection(shared: &ServerShared, job: ConnJob) {
    let ConnJob {
        stream,
        mut plan,
        connection_id,
        accepted,
    } = job;
    // Queue wait is measured accept → worker pickup (here), not at the
    // first request read — the latter would bill client think time to
    // the queue.
    let queue_wait = accepted.map(|at| at.elapsed());
    let recorder = shared.recorder.as_deref();
    let Ok(mut conn) = Conn::new(stream, READ_POLL) else {
        return;
    };
    // A connection drained from the queue during shutdown still gets a
    // proper answer, like the acceptor's shed path — not a bare close.
    if shared.shutdown.load(Ordering::Acquire) {
        shared.metrics.record_error_status(503);
        let resp = Response::json(
            503,
            &ErrorBody {
                error: "server shutting down".to_string(),
            },
        )
        .closing();
        let _ = conn.write_response(&resp);
        return;
    }
    let mut idle_since = Instant::now();
    let mut request_idx: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match conn.read_request(shared.config.max_body_bytes, shared.config.request_timeout) {
            RequestOutcome::Closed => return,
            RequestOutcome::Idle => {
                if idle_since.elapsed() >= shared.config.keep_alive {
                    return;
                }
            }
            RequestOutcome::Bad { status, reason } => {
                // Protocol failures carry no meaningful handling
                // latency (the time went to waiting on the peer);
                // status-only, keep the histogram honest.
                shared.metrics.record_error_status(status);
                let resp = Response::json(status, &ErrorBody { error: reason }).closing();
                let _ = conn.write_response(&resp);
                return;
            }
            RequestOutcome::Complete(request) => {
                let started = Instant::now();
                // The provisional trace id keys off (connection,
                // request index); protect handlers re-key it to the
                // deterministic request seed once the body is parsed.
                let spans = match recorder {
                    Some(_) => TraceSpans::new(mix64(mix64(connection_id) ^ request_idx)),
                    None => TraceSpans::disabled(),
                };
                let root = spans.begin("request");
                spans.attr(root, "endpoint", request.path());
                if request_idx == 0 {
                    if let Some(wait) = queue_wait {
                        spans.child_complete(root, "queue_wait", wait, 1);
                    }
                }
                request_idx += 1;
                if let Some(plan) = &plan {
                    // Injection point 3: artificial handler delay. The
                    // response bytes are untouched — pure latency.
                    if let Some(pause) = plan.delay() {
                        shared.metrics.record_fault(FaultKind::Delay);
                        spans.event(root, "fault_delay");
                        std::thread::sleep(pause);
                    }
                    // Injection point 4: handler panic. The pool's
                    // catch_unwind keeps the worker alive; the client
                    // sees the connection die mid-request. The local
                    // span tree unwinds with the stack, so panicked
                    // requests intentionally leave no trace record.
                    if plan.panic() {
                        shared.metrics.record_fault(FaultKind::Panic);
                        panic!("chaos: injected handler panic");
                    }
                }
                let mut resp = route(shared, &request, &spans);
                if request.close || shared.shutdown.load(Ordering::Acquire) {
                    resp.close = true;
                }
                shared
                    .metrics
                    .record_response(resp.status, started.elapsed());
                spans.attr(root, "status", resp.status);
                // Injection point 5: mid-response truncation. The head
                // promises the full body, so the client detects an
                // unambiguous (and retryable) cut — never a plausible
                // short response.
                if let Some(plan) = &mut plan {
                    let truncate = plan.truncate();
                    plan.next_request();
                    if truncate {
                        shared.metrics.record_fault(FaultKind::Truncate);
                        spans.event(root, "fault_truncate");
                        spans.end(root);
                        flush_trace(recorder, spans);
                        let _ = conn.write_response_truncated(&resp);
                        return;
                    }
                }
                let close = resp.close;
                let write = spans.begin("write");
                let wrote = conn.write_response(&resp);
                spans.end(write);
                spans.end(root);
                flush_trace(recorder, spans);
                if wrote.is_err() || close {
                    return;
                }
                // The keep-alive clock starts when the response goes
                // out — handling time must not count against the
                // client's idle budget.
                idle_since = Instant::now();
            }
        }
    }
}

/// Dispatches one request to its handler.
fn route(shared: &ServerShared, request: &Request, spans: &TraceSpans) -> Response {
    const KNOWN: [&str; 6] = [
        "/healthz",
        "/v1/config",
        "/metrics",
        "/v1/protect",
        "/v1/protect/batch",
        "/v1/debug/trace",
    ];
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => {
            shared.metrics.record_request(Endpoint::Healthz);
            Response::text(200, "ok\n")
        }
        ("GET", "/v1/config") => {
            shared.metrics.record_request(Endpoint::Config);
            handle_config(shared)
        }
        ("GET", "/metrics") => {
            shared.metrics.record_request(Endpoint::Metrics);
            let queue = shared
                .pool
                .get()
                .and_then(Weak::upgrade)
                .map(|pool| pool.queue_stats());
            Response::text(
                200,
                &shared.metrics.render(&RenderScope {
                    backend: shared.executor.name(),
                    executor_threads: shared.executor.max_threads(),
                    connection_workers: shared.config.connection_workers,
                    profile_store: shared.template.profile_store_counters(),
                    queue,
                    recorder: shared.recorder.as_deref(),
                }),
            )
        }
        ("GET", "/v1/debug/trace") => {
            shared.metrics.record_request(Endpoint::DebugTrace);
            handle_debug_trace(shared, &request.target)
        }
        ("POST", "/v1/protect") => {
            shared.metrics.record_request(Endpoint::Protect);
            handle_protect(shared, &request.body, spans)
        }
        ("POST", "/v1/protect/batch") => {
            shared.metrics.record_request(Endpoint::ProtectBatch);
            handle_batch(shared, &request.body, spans)
        }
        (_, path) if KNOWN.contains(&path) => {
            shared.metrics.record_request(Endpoint::Other);
            Response::json(
                405,
                &ErrorBody {
                    error: format!("method {} not allowed for {path}", request.method),
                },
            )
        }
        (_, path) => {
            shared.metrics.record_request(Endpoint::Other);
            Response::json(
                404,
                &ErrorBody {
                    error: format!("no such endpoint: {path}"),
                },
            )
        }
    }
}

/// `GET /v1/debug/trace?limit=N` — the flight recorder's JSON export:
/// the N most recent traces plus the retained slow traces. Spans carry
/// wall-clock `*_us` fields, so this endpoint is intentionally outside
/// the determinism contract (span ids and structure are still
/// deterministic).
fn handle_debug_trace(shared: &ServerShared, target: &str) -> Response {
    let Some(recorder) = shared.recorder.as_deref() else {
        return Response::json(
            404,
            &ErrorBody {
                error: "tracing disabled: start the server with `tracing: Some(..)`".to_string(),
            },
        );
    };
    let limit = query_param(target, "limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32);
    Response::json(
        200,
        &TraceExport {
            recorded_total: recorder.recorded_total(),
            slow_total: recorder.slow_total(),
            traces: recorder.export(limit),
            slow: recorder.export_slow(limit),
        },
    )
}

/// Pulls one `key=value` out of a request target's query string.
fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn handle_config(shared: &ServerShared) -> Response {
    Response::json(
        200,
        &ConfigResponse {
            addr: shared.addr.to_string(),
            executor: shared.executor.name().to_string(),
            executor_threads: shared.executor.max_threads(),
            connection_workers: shared.config.connection_workers,
            max_pending: shared.config.max_pending,
            max_body_bytes: shared.config.max_body_bytes,
            server_seed: shared.config.server_seed,
            lppms: shared.template.lppm_names(),
            compositions: shared.template.engine_for(0).compositions().len(),
            attacks: shared.template.attack_count(),
        },
    )
}

/// Parses a JSON body straight from its bytes (the shim's typed
/// reader, no value tree), mapping failures to a 400.
pub(crate) fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    serde_json::from_slice(body).map_err(|e| {
        Response::json(
            400,
            &ErrorBody {
                error: format!("invalid request body: {e}"),
            },
        )
    })
}

/// Folds one request engine's scratch observables into the server
/// metrics: protection-buffer reuses and attack-scratch reuses.
fn record_engine_scratch(shared: &ServerShared, engine: &mood_core::MoodEngine) {
    shared.metrics.add_scratch_reuses(engine.scratch_reuses());
    shared
        .metrics
        .add_attack_scratch_reuses(engine.attack_scratch_reuses());
}

/// Folds the engine's per-stage aggregates into synthetic child spans
/// under the `engine` span — one span per stage, durations summed and
/// counts preserved; per-candidate work is aggregated, never traced
/// individually.
fn drain_stages(spans: &TraceSpans, engine_span: SpanToken, agg: Option<&StageAgg>) {
    let Some(agg) = agg else { return };
    for total in agg.drain() {
        spans.child_complete(
            engine_span,
            total.stage,
            Duration::from_nanos(total.ns),
            total.count,
        );
    }
}

fn handle_protect(shared: &ServerShared, body: &[u8], spans: &TraceSpans) -> Response {
    let parse = spans.begin("parse");
    let request: ProtectRequest = match parse_body(body) {
        Ok(request) => request,
        Err(resp) => {
            spans.end(parse);
            return resp;
        }
    };
    spans.end(parse);
    let seed = request_seed(shared.config.server_seed, request.request_id);
    // Re-key the trace to the request's deterministic identity: from
    // here on, span ids are a pure function of (server_seed,
    // request_id), independent of which connection carried the request.
    spans.set_trace_id(seed);
    let budget = request.budget.or(shared.config.candidate_budget);
    let agg = spans
        .is_enabled()
        .then(|| Arc::new(StageAgg::new(&ENGINE_STAGES)));
    let engine_span = spans.begin("engine");
    spans.attr(engine_span, "user", request.trace.user());
    spans.attr(engine_span, "request_id", request.request_id);
    let engine = shared.template.engine_for_request_observed(
        seed,
        Arc::clone(&shared.executor),
        budget,
        agg.clone(),
    );
    let outcome = engine.protect_user(&request.trace);
    drain_stages(spans, engine_span, agg.as_deref());
    if outcome.degraded {
        spans.event(engine_span, "degraded");
    }
    spans.end(engine_span);
    shared.metrics.add_users(1);
    if outcome.degraded {
        shared.metrics.add_degraded_results(1);
    }
    record_engine_scratch(shared, &engine);
    let respond = spans.begin("respond");
    let resp = Response::json(
        200,
        &ProtectResponse {
            request_id: request.request_id,
            seed,
            result: ProtectResult::from_outcome(&outcome),
        },
    );
    spans.end(respond);
    resp
}

fn handle_batch(shared: &ServerShared, body: &[u8], spans: &TraceSpans) -> Response {
    let parse = spans.begin("parse");
    let request: BatchRequest = match parse_body(body) {
        Ok(request) => request,
        Err(resp) => {
            spans.end(parse);
            return resp;
        }
    };
    spans.end(parse);
    if request.traces.is_empty() {
        return Response::json(
            400,
            &ErrorBody {
                error: "empty batch: at least one trace required".to_string(),
            },
        );
    }
    let dataset = match Dataset::from_traces(request.traces) {
        Ok(dataset) => dataset,
        Err(e) => {
            return Response::json(
                400,
                &ErrorBody {
                    error: format!("invalid batch: {e}"),
                },
            )
        }
    };
    let seed = request_seed(shared.config.server_seed, request.request_id);
    spans.set_trace_id(seed);
    let budget = request.budget.or(shared.config.candidate_budget);
    let agg = spans
        .is_enabled()
        .then(|| Arc::new(StageAgg::new(&ENGINE_STAGES)));
    let engine_span = spans.begin("engine");
    spans.attr(engine_span, "users", dataset.user_count());
    spans.attr(engine_span, "request_id", request.request_id);
    let engine = shared.template.engine_for_request_observed(
        seed,
        Arc::clone(&shared.executor),
        budget,
        agg.clone(),
    );
    let report = protect_stream(&engine, &dataset, shared.executor.as_ref(), |outcome| {
        shared.metrics.add_users(1);
        if outcome.degraded {
            shared.metrics.add_degraded_results(1);
        }
    });
    drain_stages(spans, engine_span, agg.as_deref());
    spans.end(engine_span);
    record_engine_scratch(shared, &engine);
    let respond = spans.begin("respond");
    let resp = match report {
        Ok(report) => Response::json(
            200,
            &BatchResponse::from_report(request.request_id, seed, &report),
        ),
        // Unreachable with the counting sink above, but the panic-safe
        // contract of protect_stream maps to a 500, not a dead worker.
        Err(e) => Response::json(
            500,
            &ErrorBody {
                error: e.to_string(),
            },
        ),
    };
    spans.end(respond);
    resp
}
