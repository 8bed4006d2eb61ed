//! Loopback tests of the tracing tentpole: served bytes must be
//! bit-identical with tracing on or off, span ids/structure must be
//! deterministic (wall-clock only in the observability `*_us` fields),
//! the flight recorder must export over `GET /v1/debug/trace`, and the
//! new `/metrics` series (queue gauges, per-stage histograms, trace
//! counters) must render.

use std::sync::OnceLock;
use std::time::Duration;

use mood_serve::mood_obs::RecorderConfig;
use mood_serve::{
    request_seed, Client, EngineTemplate, MoodServer, ProtectRequest, ServeConfig, TraceExport,
};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta, Trace};

/// One shared world + engine template for the whole test binary.
fn world() -> &'static (Dataset, Dataset, EngineTemplate) {
    static WORLD: OnceLock<(Dataset, Dataset, EngineTemplate)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = presets::privamov_like().scaled(0.12).generate();
        let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
        let template = EngineTemplate::paper_default(&background);
        (background, test, template)
    })
}

const SEED: u64 = 0x0B_5EED;

fn config() -> ServeConfig {
    ServeConfig {
        connection_workers: 4,
        executor_threads: 2,
        server_seed: SEED,
        keep_alive: Duration::from_secs(30),
        request_timeout: Duration::from_millis(600),
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig) -> MoodServer {
    let (_, _, template) = world();
    MoodServer::start(config, template.clone()).expect("bind loopback server")
}

fn a_trace() -> Trace {
    let (_, test, _) = world();
    test.iter().next().expect("non-empty test set").clone()
}

fn protect(client: &mut Client, request_id: u64) -> Vec<u8> {
    let request = ProtectRequest {
        request_id,
        trace: a_trace(),
        budget: None,
    };
    let resp = client
        .post_json("/v1/protect", &request)
        .expect("protect request");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    resp.body
}

fn export(client: &mut Client, limit: usize) -> TraceExport {
    let resp = client
        .get(&format!("/v1/debug/trace?limit={limit}"))
        .expect("debug trace request");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    serde_json::from_reader(&resp.body[..]).expect("parse TraceExport")
}

#[test]
fn served_bytes_are_identical_with_tracing_on_and_off() {
    let traced = start(config());
    let untraced = start(ServeConfig {
        tracing: None,
        ..config()
    });
    let mut on = Client::connect(traced.local_addr()).expect("connect traced");
    let mut off = Client::connect(untraced.local_addr()).expect("connect untraced");
    for request_id in [1u64, 2, 99] {
        let with_tracing = protect(&mut on, request_id);
        let without = protect(&mut off, request_id);
        assert_eq!(
            with_tracing, without,
            "request {request_id}: tracing changed served bytes"
        );
        // And replay on the traced server is byte-identical too.
        assert_eq!(protect(&mut on, request_id), with_tracing);
    }
    traced.shutdown();
    untraced.shutdown();
}

#[test]
fn debug_trace_exports_deterministic_span_structure() {
    let server = start(config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    protect(&mut client, 7);
    protect(&mut client, 7);
    let export = export(&mut client, 64);
    assert!(export.recorded_total >= 2, "{export:?}");

    let expected_trace_id = request_seed(SEED, 7);
    let replays: Vec<_> = export
        .traces
        .iter()
        .filter(|t| t.trace_id == expected_trace_id)
        .collect();
    assert_eq!(
        replays.len(),
        2,
        "both protect replays must be keyed by request_seed(seed, request_id)"
    );

    // Identical structure across replays: same (id, parent, stage,
    // index, count) for every span — only the *_us fields may differ.
    // `queue_wait` is excluded: it belongs to a connection's first
    // request only, and both replays here share one connection.
    let shape = |t: &mood_serve::mood_obs::TraceRecord| {
        t.spans
            .iter()
            .filter(|s| s.stage != "queue_wait")
            .map(|s| (s.id, s.parent_id, s.stage.clone(), s.index, s.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(replays[0]), shape(replays[1]));

    // The tree has the pipeline shape: request root; parse, engine,
    // respond, write children; aggregated engine stages under engine.
    let spans = &replays[0].spans;
    let root = &spans[0];
    assert_eq!(root.stage, "request");
    assert_eq!(root.parent_id, 0);
    assert!(root.id != 0);
    let stage_of = |name: &str| spans.iter().find(|s| s.stage == name);
    for name in ["parse", "engine", "respond", "write"] {
        let span = stage_of(name).unwrap_or_else(|| panic!("missing {name} span: {spans:?}"));
        assert_eq!(span.parent_id, root.id, "{name} must hang off the root");
    }
    let engine = stage_of("engine").expect("engine span");
    let raw_check = stage_of("raw_check").expect("aggregated raw_check child");
    assert_eq!(raw_check.parent_id, engine.id);
    server.shutdown();
}

#[test]
fn slow_requests_are_retained_separately() {
    // Threshold zero makes every request "slow": the slow ring and the
    // slow counter must both see them.
    let server = start(ServeConfig {
        tracing: Some(RecorderConfig {
            slow_threshold: Duration::ZERO,
            ..RecorderConfig::default()
        }),
        ..config()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    protect(&mut client, 1);
    let export = export(&mut client, 8);
    assert!(export.slow_total >= 1, "{export:?}");
    assert!(!export.slow.is_empty());
    assert!(export.slow.iter().all(|t| t.slow));
    server.shutdown();
}

#[test]
fn debug_trace_is_absent_when_tracing_is_disabled() {
    let server = start(ServeConfig {
        tracing: None,
        ..config()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client.get("/v1/debug/trace").expect("request");
    assert_eq!(resp.status, 404, "{:?}", resp.text());
    server.shutdown();
}

#[test]
fn metrics_expose_queue_gauges_stage_histograms_and_trace_counters() {
    let server = start(config());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    protect(&mut client, 3);
    let resp = client.get("/metrics").expect("metrics");
    let text = resp.text().expect("utf8 metrics");
    for needle in [
        "# TYPE mood_serve_queue_depth gauge",
        "mood_serve_in_flight_connections",
        "mood_serve_queue_wait_seconds_count",
        "mood_serve_stage_seconds_bucket{stage=\"request\",le=\"+Inf\"}",
        "mood_serve_stage_seconds_bucket{stage=\"engine\"",
        "mood_serve_traces_recorded_total",
        "mood_serve_slow_requests_total",
        "mood_serve_requests_total{endpoint=\"debug_trace\"}",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // The serving connection itself is in flight while /metrics renders.
    let in_flight = text
        .lines()
        .find_map(|l| l.strip_prefix("mood_serve_in_flight_connections "))
        .expect("in-flight gauge");
    assert!(in_flight.trim().parse::<u64>().expect("gauge value") >= 1);
    server.shutdown();
}
