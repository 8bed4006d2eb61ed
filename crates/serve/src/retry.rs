//! A retrying, idempotency-verifying wrapper over [`Client`].
//!
//! The service's determinism contract makes every request idempotent:
//! a replayed `(server_seed, user, request_id)` returns byte-identical
//! bytes. [`RetryClient`] cashes that in — any *retryable* failure
//! (connect refused, connection reset/EOF mid-response, read timeout,
//! 503 shed) is simply retried on a fresh connection with deterministic
//! exponential backoff and seeded jitter, up to a retry budget.
//! Non-retryable outcomes (4xx protocol errors, unexpected statuses)
//! are returned to the caller untouched: retrying a malformed request
//! cannot unmalform it.
//!
//! In *verify* mode the client additionally remembers the first
//! successful body per `(method, path, body)` and errors out if a later
//! success for the same request ever differs — turning every retry and
//! every deliberate replay into an idempotency assertion. The chaos
//! integration suite drives the loopback server through fault profiles
//! with exactly this mode on.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use mood_obs::{mix64, Recorder, SpanToken, TraceSpans};
use serde::Serialize;

use crate::client::{Client, ClientConfig, ClientResponse};

/// Retry/backoff policy of a [`RetryClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, first try included (at least 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base · 2^(k−1)`, capped
    /// at [`RetryPolicy::max_backoff`], then jittered.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream: the jitter of attempt
    /// `k` of request `n` is a pure function of `(seed, n, k)`.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based) of request
    /// `request_no`: exponential growth capped at `max_backoff`, scaled
    /// by a deterministic jitter factor in `[0.5, 1.0)` derived from
    /// `(jitter_seed, request_no, attempt)`.
    pub fn backoff(&self, request_no: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let mut h = self.jitter_seed;
        h ^= mix64(request_no);
        h ^= mix64(u64::from(attempt));
        let unit = (mix64(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        raw.mul_f64(0.5 + unit / 2.0)
    }
}

/// Counters of a [`RetryClient`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests issued through the client.
    pub requests: u64,
    /// Attempts made (≥ `requests`).
    pub attempts: u64,
    /// Retries after a retryable failure (`attempts − ` successes on
    /// first try).
    pub retries: u64,
    /// Successful responses that matched a remembered first-success
    /// body in verify mode.
    pub replays_verified: u64,
}

/// `true` when `status` is worth retrying: the server shed load (503)
/// and an identical retry can land once the queue drains. 4xx statuses
/// are the client's own fault and are final.
pub fn retryable_status(status: u16) -> bool {
    status == 503
}

/// `true` when a transport error is worth retrying on a fresh
/// connection: the connection died (refused/reset/aborted/broken pipe),
/// the response was cut off (`UnexpectedEof` — e.g. a truncated body),
/// or a read timed out (`WouldBlock`/`TimedOut`).
pub fn retryable_io(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// Stable `reason` label of a retryable failure, as emitted on
/// `mood_serve_client_retries_total{reason=...}`.
pub fn retry_reason(err: &io::Error) -> &'static str {
    match err.kind() {
        io::ErrorKind::ConnectionRefused => "io_refused",
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => "io_reset",
        io::ErrorKind::UnexpectedEof => "io_eof",
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => "io_timeout",
        _ => "io_other",
    }
}

/// A retrying wrapper over [`Client`] (see the module docs).
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    config: ClientConfig,
    conn: Option<Client>,
    stats: RetryStats,
    verify: bool,
    seen: HashMap<(String, String, Vec<u8>), Vec<u8>>,
    recorder: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for RetryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryClient")
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .field("verify", &self.verify)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RetryClient {
    /// A retry client for `addr` with `policy` and the default
    /// transport timeouts. No connection is opened until the first
    /// request.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self::with_config(addr, policy, ClientConfig::default())
    }

    /// [`RetryClient::new`] with explicit transport timeouts.
    pub fn with_config(addr: impl Into<String>, policy: RetryPolicy, config: ClientConfig) -> Self {
        Self {
            addr: addr.into(),
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            config,
            conn: None,
            stats: RetryStats::default(),
            verify: false,
            seen: HashMap::new(),
            recorder: None,
        }
    }

    /// Attaches a flight recorder: every retry bumps
    /// `mood_serve_client_retries_total{reason=...}` and a request that
    /// needed retries leaves a `client_request` trace carrying one
    /// `retry_<reason>` event per retry.
    pub fn observed(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Turns on the idempotency verifier: the first successful (2xx)
    /// body per `(method, path, body)` is remembered, and any later
    /// success that differs fails the request with `InvalidData`
    /// instead of returning silently wrong bytes.
    pub fn verifying(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Sends one request, retrying retryable failures (see the module
    /// docs) on a fresh connection with deterministic backoff.
    ///
    /// # Errors
    ///
    /// Returns the last failure once the retry budget is exhausted, a
    /// non-retryable transport error as-is, or `InvalidData` on an
    /// idempotency violation in verify mode.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        let request_no = self.stats.requests;
        self.stats.requests += 1;
        // Client-side trace, keyed deterministically off the jitter
        // stream's identity; only requests that actually retried are
        // handed to the flight recorder.
        let spans = match &self.recorder {
            Some(_) => TraceSpans::new(mix64(self.policy.jitter_seed ^ mix64(request_no))),
            None => TraceSpans::disabled(),
        };
        let root = spans.begin("client_request");
        spans.attr(root, "target", format_args!("{method} {path}"));
        let mut retried = false;
        let result = self.run_attempts(method, path, body, request_no, &spans, root, &mut retried);
        if retried {
            spans.attr(root, "outcome", if result.is_ok() { "ok" } else { "error" });
            spans.end(root);
            if let (Some(recorder), Some(record)) = (&self.recorder, spans.finish()) {
                recorder.record(record);
            }
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_attempts(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        request_no: u64,
        spans: &TraceSpans,
        root: SpanToken,
        retried: &mut bool,
    ) -> io::Result<ClientResponse> {
        let mut last: Option<io::Error> = None;
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                self.stats.retries += 1;
                std::thread::sleep(self.policy.backoff(request_no, attempt - 1));
            }
            self.stats.attempts += 1;
            let will_retry = attempt < self.policy.max_attempts;
            match self.attempt(method, path, body) {
                Ok(response) if retryable_status(response.status) => {
                    // A shed (503 + connection: close): reconnect.
                    self.conn = None;
                    if will_retry {
                        *retried = true;
                        self.note_retry(spans, root, "status_503");
                    }
                    last = Some(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("server shed the request with {}", response.status),
                    ));
                }
                Ok(response) => {
                    if response.status / 100 == 2 && self.verify {
                        self.check_idempotent(method, path, body, &response)?;
                    }
                    return Ok(response);
                }
                Err(e) if retryable_io(&e) => {
                    self.conn = None;
                    if will_retry {
                        *retried = true;
                        self.note_retry(spans, root, retry_reason(&e));
                    }
                    last = Some(e);
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        let attempts = self.policy.max_attempts;
        Err(last.map_or_else(
            || io::Error::other("retry budget exhausted"),
            |e| {
                io::Error::new(
                    e.kind(),
                    format!("retry budget exhausted after {attempts} attempts: {e}"),
                )
            },
        ))
    }

    /// One retry is about to happen: bump the labeled counter and leave
    /// an event on the client span.
    fn note_retry(&self, spans: &TraceSpans, root: SpanToken, reason: &str) {
        if let Some(recorder) = &self.recorder {
            recorder.bump("mood_serve_client_retries_total", "reason", reason);
        }
        spans.event(root, &format!("retry_{reason}"));
    }

    /// `GET path` with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryClient::request`].
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryClient::request`]; additionally `InvalidData` when
    /// `value` fails to serialize.
    pub fn post_json<T: Serialize>(&mut self, path: &str, value: &T) -> io::Result<ClientResponse> {
        let mut body = Vec::with_capacity(256);
        serde_json::to_writer(&mut body, value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.request("POST", path, Some(&body))
    }

    /// One attempt on the kept (or a fresh) connection.
    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(&self.addr, self.config)?);
        }
        let conn = self.conn.as_mut().expect("connection was just ensured");
        let response = conn.request(method, path, body)?;
        // The server closes after error statuses and sheds; keeping the
        // connection would make the next attempt read from a corpse.
        if response.status != 200 || response.header("connection") == Some("close") {
            self.conn = None;
        }
        Ok(response)
    }

    fn check_idempotent(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        response: &ClientResponse,
    ) -> io::Result<()> {
        let key = (
            method.to_string(),
            path.to_string(),
            body.unwrap_or(&[]).to_vec(),
        );
        match self.seen.get(&key) {
            Some(first) if first == &response.body => {
                self.stats.replays_verified += 1;
                Ok(())
            }
            Some(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "idempotency violation: replay of {method} {path} returned different bytes"
                ),
            )),
            None => {
                self.seen.insert(key, response.body.clone());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
        };
        for attempt in 1..=6 {
            assert_eq!(
                policy.backoff(3, attempt),
                policy.backoff(3, attempt),
                "same (request, attempt) must give the same backoff"
            );
        }
        // Jitter keeps every backoff within [raw/2, raw).
        let b1 = policy.backoff(0, 1);
        assert!(b1 >= Duration::from_millis(5) && b1 < Duration::from_millis(10));
        let b4 = policy.backoff(0, 4);
        assert!(b4 >= Duration::from_millis(40) && b4 < Duration::from_millis(80));
        // Past the cap, growth stops (jitter aside).
        let b7 = policy.backoff(0, 7);
        assert!(b7 <= Duration::from_millis(100));
        // Different requests jitter differently (with this seed).
        assert_ne!(policy.backoff(1, 1), policy.backoff(2, 1));
    }

    #[test]
    fn classification_is_what_the_contract_promises() {
        assert!(retryable_status(503));
        assert!(!retryable_status(200));
        assert!(!retryable_status(400));
        assert!(!retryable_status(404));

        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(retryable_io(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(!retryable_io(&io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed"
        )));
    }

    #[test]
    fn refused_connection_exhausts_the_budget_with_the_last_error() {
        // A bound-then-dropped listener leaves a port nothing listens
        // on; connect is refused immediately on loopback.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 1,
        };
        let mut client = RetryClient::new(format!("127.0.0.1:{port}"), policy);
        let err = client.get("/healthz").expect_err("nothing listens there");
        assert!(
            err.to_string().contains("retry budget exhausted after 3"),
            "{err}"
        );
        assert_eq!(client.stats().attempts, 3);
        assert_eq!(client.stats().retries, 2);
    }

    #[test]
    fn reason_labels_are_stable() {
        assert_eq!(
            retry_reason(&io::Error::new(io::ErrorKind::ConnectionRefused, "x")),
            "io_refused"
        );
        assert_eq!(
            retry_reason(&io::Error::new(io::ErrorKind::BrokenPipe, "x")),
            "io_reset"
        );
        assert_eq!(
            retry_reason(&io::Error::new(io::ErrorKind::UnexpectedEof, "x")),
            "io_eof"
        );
        assert_eq!(
            retry_reason(&io::Error::new(io::ErrorKind::TimedOut, "x")),
            "io_timeout"
        );
    }

    #[test]
    fn observed_retries_reach_the_flight_recorder() {
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 42,
        };
        let recorder = Arc::new(Recorder::new(mood_obs::RecorderConfig::default()));
        let mut client =
            RetryClient::new(format!("127.0.0.1:{port}"), policy).observed(Arc::clone(&recorder));
        client.get("/healthz").expect_err("nothing listens there");
        // 3 attempts, 2 of which were preceded by a counted retry.
        let counters = recorder.counters();
        assert_eq!(counters.len(), 1, "{counters:?}");
        assert_eq!(counters[0].metric, "mood_serve_client_retries_total");
        assert_eq!(counters[0].label_value, "io_refused");
        assert_eq!(counters[0].value, 2);
        // The retried request left one client trace with both events.
        let traces = recorder.export(8);
        assert_eq!(traces.len(), 1);
        let root = &traces[0].spans[0];
        assert_eq!(root.stage, "client_request");
        assert_eq!(
            root.events
                .iter()
                .filter(|e| e.name == "retry_io_refused")
                .count(),
            2,
            "{root:?}"
        );
    }
}
