//! Loopback integration tests of the protection service: protocol
//! robustness (malformed requests → 4xx, never a hang), keep-alive
//! reuse, backpressure (503 on overload), the per-request determinism
//! contract (served bytes == offline `protect_stream` bytes, under
//! concurrency), and the thread-leak gate extended to the serve pool.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use mood_core::{protect_stream, ExecutorKind};
use mood_serve::{
    fetch, request_seed, BatchRequest, BatchResponse, Client, EngineTemplate, MoodServer,
    ProtectRequest, ProtectResponse, ProtectResult, RetryClient, RetryPolicy, ServeConfig,
};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta, Trace};

/// One shared world + engine template for the whole test binary: attack
/// training is the expensive part, and every test can share it safely
/// (templates are immutable).
fn world() -> &'static (Dataset, Dataset, EngineTemplate) {
    static WORLD: OnceLock<(Dataset, Dataset, EngineTemplate)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = presets::privamov_like().scaled(0.12).generate();
        let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
        let template = EngineTemplate::paper_default(&background);
        (background, test, template)
    })
}

fn test_config() -> ServeConfig {
    ServeConfig {
        connection_workers: 6,
        executor: ExecutorKind::Persistent,
        executor_threads: 2,
        server_seed: 0xD0_5E_ED,
        // Generous: debug-mode clients can take a while between
        // requests (JSON parsing of large bodies); the short-deadline
        // behavior has its own dedicated server below.
        keep_alive: Duration::from_secs(30),
        request_timeout: Duration::from_millis(600),
        ..ServeConfig::default()
    }
}

/// Keep-alive deadline actually exercised by the idle-close test.
const SHORT_KEEP_ALIVE: Duration = Duration::from_millis(600);

fn start_server(config: ServeConfig) -> MoodServer {
    let (_, _, template) = world();
    MoodServer::start(config, template.clone()).expect("bind loopback server")
}

/// The offline reference for one `(server_seed, request_id)` pair:
/// `protect_stream` with the derived seed over `traces`, rendered as
/// the exact per-user `ProtectResponse` JSON the server would serve.
fn offline_protect_bytes(
    server_seed: u64,
    request_id: u64,
    traces: &[Trace],
) -> Vec<(Trace, Vec<u8>)> {
    let (_, _, template) = world();
    let seed = request_seed(server_seed, request_id);
    let engine = template.engine_for(seed);
    let dataset = Dataset::from_traces(traces.to_vec()).expect("distinct users");
    let executor = ExecutorKind::Persistent.build(4);
    let report =
        protect_stream(&engine, &dataset, executor.as_ref(), |_| {}).expect("sink does not panic");
    traces
        .iter()
        .map(|trace| {
            let outcome = report
                .outcomes()
                .iter()
                .find(|o| o.user == trace.user())
                .expect("user in report");
            let response = ProtectResponse {
                request_id,
                seed,
                result: ProtectResult::from_outcome(outcome),
            };
            (
                trace.clone(),
                serde_json::to_string(&response)
                    .expect("serializable")
                    .into_bytes(),
            )
        })
        .collect()
}

#[test]
fn smoke_healthz_protect_roundtrip_and_clean_shutdown() {
    let server = start_server(test_config());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text().unwrap(), "ok\n");

    let (_, test, _) = world();
    let trace = test.iter().next().expect("non-empty test set");
    let request = ProtectRequest {
        request_id: 1,
        trace: trace.clone(),
        budget: None,
    };
    let resp = client.post_json("/v1/protect", &request).expect("protect");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let body: ProtectResponse = resp.json().expect("protect response shape");
    assert_eq!(body.request_id, 1);
    assert_eq!(body.result.user, trace.user());
    assert_eq!(body.result.original_records, trace.len());
    let published_records: usize = body.result.published.iter().map(|p| p.trace.len()).sum();
    assert!(published_records + body.result.records_dropped > 0);

    let metrics = client.get("/metrics").expect("metrics");
    let text = metrics.text().unwrap();
    assert!(
        text.contains("mood_serve_requests_total{endpoint=\"protect\"} 1"),
        "{text}"
    );
    assert!(text.contains("mood_serve_scratch_reuses_total"), "{text}");
    assert!(
        text.contains("mood_serve_attack_scratch_reuses_total"),
        "{text}"
    );
    // The template trains its suite through a ProfileStore: heatmaps,
    // POI profiles and chains each miss once, and the chain derivation
    // re-fetches the POI profiles (one hit) — per-request engines reuse
    // the trained sets, so the counts stay put across requests.
    assert!(
        text.contains("mood_serve_profile_store_total{result=\"hit\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("mood_serve_profile_store_total{result=\"miss\"} 3"),
        "{text}"
    );
    assert!(
        !text.contains("mood_serve_profile_builds_total 0\n"),
        "training must have built profiles: {text}"
    );
    assert!(
        text.contains("mood_serve_executor_threads{backend=\"persistent\"} 2"),
        "{text}"
    );

    let config = client.get("/v1/config").expect("config");
    assert_eq!(config.status, 200);
    let text = config.text().unwrap().to_string();
    assert!(
        text.contains("\"lppms\":[\"Geo-I\",\"TRL\",\"HMC\"]"),
        "{text}"
    );

    assert_eq!(server.metrics().responses_total(), 4);
    server.shutdown(); // joins acceptor, connection workers, executor
}

#[test]
fn malformed_requests_get_4xx_not_a_hang() {
    let server = start_server(test_config());
    let addr = server.local_addr();

    // Garbage request line → 400.
    let resp = fetch(addr, "BL ARGH", "/x", None); // two spaces → 4-part line
    assert_eq!(resp.expect("answered").status, 400);

    // Unknown path → 404; wrong method on a known path → 405.
    assert_eq!(fetch(addr, "GET", "/nope", None).status_or(), 404);
    assert_eq!(fetch(addr, "GET", "/v1/protect", None).status_or(), 405);
    assert_eq!(
        fetch(addr, "POST", "/healthz", Some(b"{}")).status_or(),
        405
    );

    // Unsupported version → 505 (raw socket; the client always speaks 1.1).
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/2.0\r\n\r\n").unwrap();
    let mut buf = String::new();
    let _ = raw.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 505"), "{buf}");

    // Body larger than the configured limit → 413 without reading it.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let huge = server_max_body() + 1;
    raw.write_all(
        format!("POST /v1/protect HTTP/1.1\r\ncontent-length: {huge}\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut buf = String::new();
    let _ = raw.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");

    // Complete request whose JSON is cut short → 400, not a hang.
    let truncated = b"{\"request_id\":1,\"trace\":{\"user\":1,\"rec";
    let resp = fetch(addr, "POST", "/v1/protect", Some(truncated)).expect("answered");
    assert_eq!(resp.status, 400);
    assert!(resp.text().unwrap().contains("invalid request body"));

    // Valid JSON of the wrong shape (empty trace) → 400.
    let bad = br#"{"request_id":1,"trace":{"user":1,"records":[]}}"#;
    let resp = fetch(addr, "POST", "/v1/protect", Some(bad)).expect("answered");
    assert_eq!(resp.status, 400);

    // Body shorter than content-length, then silence → 408 after the
    // request timeout, not a hang.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"POST /v1/protect HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"tru")
        .unwrap();
    let mut buf = String::new();
    let _ = raw.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 408"), "{buf}");

    // Slowloris: a client dribbling one header byte at a time never
    // completes within the wall-clock request timeout → 408, the
    // worker is not pinned indefinitely.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let drip = b"GET /healthz HTTP/1.1\r\nx-slow: ";
    let started = std::time::Instant::now();
    let mut answered = String::new();
    for byte in drip.iter().cycle() {
        if raw.write_all(&[*byte]).is_err() {
            break; // server gave up on us — read the verdict
        }
        std::thread::sleep(Duration::from_millis(20));
        if started.elapsed() > Duration::from_secs(8) {
            panic!("server never cut off the dribbling client");
        }
        if started.elapsed() > test_config().request_timeout + Duration::from_millis(300) {
            let _ = raw.read_to_string(&mut answered);
            break;
        }
    }
    if answered.is_empty() {
        let _ = raw.read_to_string(&mut answered);
    }
    assert!(answered.starts_with("HTTP/1.1 408"), "{answered}");

    // Conflicting duplicate content-length headers → 400 (smuggling).
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"POST /v1/protect HTTP/1.1\r\ncontent-length: 10\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    let _ = raw.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");

    // Empty batch → 400.
    let resp = fetch(
        addr,
        "POST",
        "/v1/protect/batch",
        Some(br#"{"request_id":1,"traces":[]}"#),
    )
    .expect("answered");
    assert_eq!(resp.status, 400);

    server.shutdown();
}

/// Tiny helpers keeping the malformed-request test readable.
trait StatusOr {
    fn status_or(self) -> u16;
}
impl StatusOr for std::io::Result<mood_serve::ClientResponse> {
    fn status_or(self) -> u16 {
        self.expect("answered").status
    }
}
fn server_max_body() -> usize {
    ServeConfig::default().max_body_bytes
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start_server(ServeConfig {
        keep_alive: SHORT_KEEP_ALIVE,
        ..test_config()
    });
    let addr = server.local_addr();
    let (_, test, _) = world();
    let trace = test.iter().next().expect("non-empty test set").clone();

    let mut client = Client::connect(addr).expect("connect");
    for request_id in 0..3 {
        assert_eq!(client.get("/healthz").expect("healthz").status, 200);
        let request = ProtectRequest {
            request_id,
            trace: trace.clone(),
            budget: None,
        };
        let resp = client.post_json("/v1/protect", &request).expect("protect");
        assert_eq!(resp.status, 200);
    }
    assert_eq!(
        server.metrics().connections_total(),
        1,
        "keep-alive must reuse the single connection"
    );
    assert_eq!(server.metrics().responses_total(), 6);

    // An idle keep-alive connection is closed once the deadline
    // passes: the next request on it fails instead of being served.
    std::thread::sleep(SHORT_KEEP_ALIVE + Duration::from_millis(400));
    assert!(
        client.get("/healthz").is_err(),
        "server should have closed the idle connection"
    );
    server.shutdown();
}

#[test]
fn concurrent_protect_is_byte_identical_to_offline_protect_stream() {
    let server = start_server(test_config());
    let addr = server.local_addr();
    let (_, test, _) = world();
    let traces: Vec<Trace> = test.iter().cloned().collect();
    assert!(traces.len() >= 4, "need >= 4 concurrent users");
    let request_id = 7;
    let expected = offline_protect_bytes(test_config().server_seed, request_id, &traces);

    std::thread::scope(|scope| {
        for (trace, want) in &expected {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let request = ProtectRequest {
                    request_id,
                    trace: trace.clone(),
                    budget: None,
                };
                let resp = client.post_json("/v1/protect", &request).expect("protect");
                assert_eq!(resp.status, 200, "{:?}", resp.text());
                assert_eq!(
                    &resp.body,
                    want,
                    "served bytes for {} diverged from offline protect_stream",
                    trace.user()
                );
                // Replay on the same connection: byte-identical again.
                let again = client.post_json("/v1/protect", &request).expect("replay");
                assert_eq!(&again.body, want, "replay diverged for {}", trace.user());
            });
        }
    });
    server.shutdown();
}

#[test]
fn batch_equals_single_requests_with_the_same_request_id() {
    let server = start_server(test_config());
    let addr = server.local_addr();
    let (_, test, _) = world();
    let traces: Vec<Trace> = test.iter().take(3).cloned().collect();
    let request_id = 11;

    let mut client = Client::connect(addr).expect("connect");
    let batch = BatchRequest {
        request_id,
        traces: traces.clone(),
        budget: None,
    };
    let resp = client
        .post_json("/v1/protect/batch", &batch)
        .expect("batch");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let batch: BatchResponse = resp.json().expect("batch response shape");
    assert_eq!(batch.users_total, traces.len());
    assert_eq!(batch.results.len(), traces.len());
    assert_eq!(
        batch.class_counts.values().sum::<usize>(),
        traces.len(),
        "class counts must cover every user"
    );

    for trace in &traces {
        let request = ProtectRequest {
            request_id,
            trace: trace.clone(),
            budget: None,
        };
        let single: ProtectResponse = client
            .post_json("/v1/protect", &request)
            .expect("single")
            .json()
            .expect("single response shape");
        let from_batch = batch
            .results
            .iter()
            .find(|r| r.user == trace.user())
            .expect("user in batch");
        assert_eq!(
            &single.result,
            from_batch,
            "batch and single outcomes diverged for {}",
            trace.user()
        );
        assert_eq!(single.seed, batch.seed, "seed derivation must match");
    }
    server.shutdown();
}

#[test]
fn idempotent_replay_after_a_dropped_connection_is_byte_identical() {
    let server = start_server(test_config());
    let addr = server.local_addr();
    let (_, test, _) = world();
    let trace = test.iter().next().expect("non-empty test set").clone();
    let request = ProtectRequest {
        request_id: 99,
        trace,
        budget: None,
    };

    let mut client = RetryClient::new(addr.to_string(), RetryPolicy::default()).verifying();
    let first = client.post_json("/v1/protect", &request).expect("first");
    assert_eq!(first.status, 200, "{:?}", first.text());

    // A client that gives up mid-request: the server sees a truncated
    // body followed by a dead socket — the wire-level "network drop"
    // that makes retrying-with-the-same-request_id necessary.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(
            b"POST /v1/protect HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"request_id\":99,",
        )
        .expect("partial write");
        // Dropped here without finishing the body.
    }

    // Replaying the identical request on a fresh connection must
    // return identical bytes — the determinism contract is what makes
    // blind client retries safe.
    let mut fresh = RetryClient::new(addr.to_string(), RetryPolicy::default()).verifying();
    let second = fresh.post_json("/v1/protect", &request).expect("replay");
    assert_eq!(second.status, 200, "{:?}", second.text());
    assert_eq!(
        first.body, second.body,
        "replayed request_id must serve byte-identical bytes"
    );
    server.shutdown();
}

#[test]
fn overload_sheds_connections_with_503() {
    let server = start_server(ServeConfig {
        connection_workers: 1,
        max_pending: 1,
        ..test_config()
    });
    let addr = server.local_addr();

    // Connection A occupies the only worker (keep-alive holds it).
    let mut a = Client::connect(addr).expect("connect A");
    assert_eq!(a.get("/healthz").expect("A healthz").status, 200);
    // Connection B fills the single queue slot.
    let _b = TcpStream::connect(addr).expect("connect B");
    // Give the acceptor a moment to enqueue B, then C must be shed.
    std::thread::sleep(Duration::from_millis(150));
    let resp = fetch(addr, "GET", "/healthz", None).expect("C answered");
    assert_eq!(resp.status, 503, "{:?}", resp.text());
    assert!(server.metrics().overload_rejected_total() >= 1);
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn server_shutdown_joins_all_threads() {
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|dir| dir.count())
            .unwrap_or(0)
    }

    // Warm the shared world first so its construction cost is not
    // attributed to the server.
    let (_, test, _) = world();
    let trace = test.iter().next().expect("non-empty test set").clone();
    let before = thread_count();
    for round in 0..3 {
        let server = start_server(test_config());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let request = ProtectRequest {
            request_id: round,
            trace: trace.clone(),
            budget: None,
        };
        assert_eq!(
            client
                .post_json("/v1/protect", &request)
                .expect("protect")
                .status,
            200
        );
        server.shutdown();
    }
    // Other tests in this binary run concurrently and spawn their own
    // servers; poll until the count settles instead of sampling once.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after <= before + 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "thread count stuck at {after} (started at {before}): serve pool leaked"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}
