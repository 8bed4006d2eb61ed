//! `mood-serve` — MooD as a long-running protection *service*.
//!
//! The paper is a deployment paper: its end state is an online
//! middleware protecting mobility traces at the service boundary where
//! they are collected, not a batch CLI. This crate is that subsystem —
//! a std-only HTTP/1.1 server (hand-rolled over `std::net`; the build
//! environment is offline, so no hyper/tokio) wrapping a shared engine
//! template and the [`mood_core::protect_stream`] pipeline:
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe (`ok`) |
//! | `/v1/config` | GET | the running server's shape (JSON) |
//! | `/metrics` | GET | Prometheus text: requests, latency + per-stage histograms, queue gauges, executor backend/threads |
//! | `/v1/protect` | POST | one user trace in → protected trace + chosen LPPM + metrics out |
//! | `/v1/protect/batch` | POST | many users, fanned out through the persistent executor via `protect_stream` |
//! | `/v1/debug/trace` | GET | flight-recorder JSON: the last N request traces plus retained slow traces (`?limit=N`) |
//!
//! Connections are keep-alive and served by a dedicated worker pool
//! ([`mood_exec::ServicePool`]) behind a bounded accept queue — when
//! the queue is full the acceptor sheds load with `503` instead of
//! queueing unboundedly. Shutdown joins every thread.
//!
//! **Determinism contract:** the engine seed of a request derives from
//! `(server_seed, request_id)`; combined with the engine's per-user
//! stream derivation, a served protected trace is a pure function of
//! `(server_seed, user, request_id)` — replaying a request is
//! byte-identical, batch equals the union of single requests, and both
//! equal the offline [`mood_core::protect_stream`] result with the
//! same derived seed (see [`api`]).
//!
//! **Resilience:** that purity makes every request idempotent, which
//! the robustness layer cashes in. [`ChaosConfig`]/[`FaultPlan`]
//! ([`chaos`]) inject seeded, exactly-replayable faults (accept drops,
//! forced shedding, delays, handler panics, response truncation) when
//! enabled via [`ServeConfig::chaos`]; [`RetryClient`] ([`retry`])
//! retries retryable failures with deterministic backoff and can verify
//! that a replayed `request_id` returns byte-identical bytes; and a
//! per-request candidate budget ([`ProtectRequest::budget`]) degrades
//! over-deadline requests gracefully and deterministically.
//!
//! **Observability:** when [`ServeConfig::tracing`] is `Some` (the
//! default), every request carries a deterministic span tree
//! ([`mood_obs::TraceSpans`] via [`mood_core::obs`]) — queue wait,
//! parse, engine (with per-stage aggregate children from the core
//! pipeline), respond, write — recorded into a bounded flight recorder
//! ([`mood_obs::Recorder`]) served by `GET /v1/debug/trace`. Span ids
//! and structure derive from `(server_seed, request_id)`, never from
//! wall-clock; durations are observability-only, so served bytes are
//! bit-identical with tracing on or off. Chaos faults surface as span
//! events.
//!
//! # Examples
//!
//! ```
//! use mood_serve::{Client, MoodServer, ServeConfig};
//! use mood_synth::presets;
//! use mood_trace::TimeDelta;
//!
//! let ds = presets::privamov_like().scaled(0.12).generate();
//! let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
//! let server = MoodServer::start_paper_default(ServeConfig::default(), &background)?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! assert_eq!(client.get("/healthz")?.status, 200);
//!
//! let request = mood_serve::ProtectRequest {
//!     request_id: 1,
//!     trace: test.iter().next().unwrap().clone(),
//!     budget: None,
//! };
//! let response = client.post_json("/v1/protect", &request)?;
//! assert_eq!(response.status, 200);
//!
//! server.shutdown(); // joins every thread
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod chaos;
mod client;
mod http;
#[cfg(test)]
mod json_props;
mod metrics;
pub mod retry;
mod server;

pub use api::{
    request_seed, BatchRequest, BatchResponse, ConfigResponse, EngineTemplate, ErrorBody,
    ProtectRequest, ProtectResponse, ProtectResult, PublishedTrace, TraceExport,
};
pub use chaos::{ChaosConfig, FaultKind, FaultPlan};
pub use client::{fetch, Client, ClientResponse};
pub use http::{reason_phrase, Conn, Request, RequestOutcome, Response, MAX_HEAD_BYTES};
pub use metrics::ServerMetrics;
pub use mood_obs;
pub use retry::{retryable_io, retryable_status, RetryClient, RetryPolicy, RetryStats};
pub use server::{MoodServer, ServeConfig};
