//! Prometheus text-exposition conformance for `/metrics`: every sample
//! belongs to a family declared with `# TYPE`, no series (name +
//! label set) appears twice, label values use only valid escapes, every
//! value parses, and every declared family has a sample. Run against a
//! live server with tracing enabled: after traffic on several
//! endpoints, so the scrape covers every section the renderer can
//! emit, and on the first scrape of a fresh server, when most counters
//! are still zero and the status map is empty.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use std::time::Duration;

use mood_serve::{Client, EngineTemplate, MoodServer, ProtectRequest, ServeConfig};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta};

fn world() -> &'static (Dataset, Dataset, EngineTemplate) {
    static WORLD: OnceLock<(Dataset, Dataset, EngineTemplate)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = presets::privamov_like().scaled(0.12).generate();
        let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
        let template = EngineTemplate::paper_default(&background);
        (background, test, template)
    })
}

/// One parsed sample line: family-resolved metric name + raw label set.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Series {
    name: String,
    labels: String,
}

/// Splits a sample line into (metric name, label block, value), then
/// validates label escaping and the value. Panics with the offending
/// line on any malformed input.
fn parse_sample(line: &str) -> Series {
    let (series, value) = match line.find('}') {
        Some(end) => {
            let (series, rest) = line.split_at(end + 1);
            (series, rest.trim())
        }
        None => line.split_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        }),
    };
    assert!(
        value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
        "unparseable value {value:?} in {line:?}"
    );

    let (name, labels) = match series.split_once('{') {
        Some((name, labels)) => {
            let labels = labels
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label block: {line:?}"));
            validate_labels(labels, line);
            (name, labels)
        }
        None => (series.trim(), ""),
    };
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name {name:?} in {line:?}"
    );
    Series {
        name: name.to_string(),
        labels: labels.to_string(),
    }
}

/// Walks `key="value",...` checking that every value is quoted and
/// uses only the legal escapes (`\\`, `\"`, `\n`).
fn validate_labels(labels: &str, line: &str) {
    let mut chars = labels.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "invalid label name {name:?} in {line:?}"
        );
        assert_eq!(chars.next(), Some('"'), "unquoted label value in {line:?}");
        // Quoted value with escape validation.
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => {
                    let esc = chars.next();
                    assert!(
                        matches!(esc, Some('\\') | Some('"') | Some('n')),
                        "illegal escape \\{esc:?} in {line:?}"
                    );
                }
                Some(_) => {}
                None => panic!("unterminated label value in {line:?}"),
            }
        }
        match chars.next() {
            None => return,
            Some(',') => continue,
            Some(c) => panic!("unexpected {c:?} after label value in {line:?}"),
        }
    }
}

/// Resolves a sample name to its declared family, accounting for the
/// `_bucket`/`_sum`/`_count` suffixes of histograms and summaries.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> Option<&'a str> {
    if types.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some(kind) = types.get(base) {
                if kind == "histogram" || kind == "summary" {
                    return Some(base);
                }
            }
        }
    }
    None
}

/// Checks the structure of one scrape and returns its declared
/// families (name → type): `# TYPE` before every sample, no duplicate
/// series, valid escapes and values, and a sample for every family.
fn assert_well_formed(text: &str) -> BTreeMap<String, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen: BTreeSet<Series> = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed TYPE line: {line:?}"));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown metric type {kind:?} in {line:?}"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE declaration for {name}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let sample = parse_sample(line);
        assert!(
            family_of(&sample.name, &types).is_some(),
            "sample {:?} has no preceding # TYPE declaration",
            sample.name
        );
        assert!(
            !seen.contains(&sample),
            "duplicate series: {} {{{}}}",
            sample.name,
            sample.labels
        );
        seen.insert(sample);
    }
    // Every declared family must also have at least one sample.
    for family in types.keys() {
        assert!(
            seen.iter()
                .any(|s| family_of(&s.name, &types) == Some(family.as_str())),
            "family {family} declared but has no samples"
        );
    }
    types
}

fn start_server() -> MoodServer {
    let (_, _, template) = world();
    let config = ServeConfig {
        connection_workers: 4,
        executor_threads: 2,
        server_seed: 0x005C_249E,
        keep_alive: Duration::from_secs(30),
        request_timeout: Duration::from_millis(600),
        ..ServeConfig::default()
    };
    MoodServer::start(config, template.clone()).expect("bind loopback server")
}

#[test]
fn metrics_exposition_is_well_formed() {
    let (_, test, _) = world();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Touch every endpoint family so every renderer section has data:
    // protect (engine stages + histograms), an error (4xx counter),
    // healthz/config, the flight recorder, and a first metrics scrape.
    let trace = test.iter().next().expect("non-empty test set").clone();
    for request_id in 0..3u64 {
        let request = ProtectRequest {
            request_id,
            trace: trace.clone(),
            budget: None,
        };
        let resp = client.post_json("/v1/protect", &request).expect("protect");
        assert_eq!(resp.status, 200);
    }
    assert_eq!(client.get("/nope").expect("404 route").status, 404);
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/v1/config").expect("config").status, 200);
    assert_eq!(
        client.get("/v1/debug/trace?limit=4").expect("trace").status,
        200
    );
    assert_eq!(client.get("/metrics").expect("warmup scrape").status, 200);

    let resp = client.get("/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    let types = assert_well_formed(resp.text().expect("utf8 metrics"));

    // The scrape actually covered the interesting sections.
    for family in [
        "mood_serve_requests_total",
        "mood_serve_request_seconds",
        "mood_serve_queue_depth",
        "mood_serve_queue_wait_seconds",
        "mood_serve_stage_seconds",
        "mood_serve_traces_recorded_total",
        "mood_serve_attack_scratch_reuses_total",
    ] {
        assert!(types.contains_key(family), "family {family} not rendered");
    }
    server.shutdown();
}

#[test]
fn first_scrape_of_a_fresh_server_is_well_formed() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client.get("/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    assert_well_formed(resp.text().expect("utf8 metrics"));
    server.shutdown();
}
