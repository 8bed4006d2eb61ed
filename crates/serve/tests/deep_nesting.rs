//! Deeply nested request bodies are refused at parse time.
//!
//! The JSON parser recurses once per `[` or `{`. Without a bound, a
//! ~20 KB body of brackets overflows a connection worker's stack, and a
//! stack overflow aborts the whole process (it is not a panic the pool
//! can catch). Past 128 levels the body gets a 400 naming the byte, and
//! the worker that read it is free for the next request.

use std::sync::OnceLock;
use std::time::Duration;

use mood_serve::{fetch, Client, EngineTemplate, MoodServer, ProtectRequest, ServeConfig};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta};

/// Nesting levels of each hostile body: 20,000 `[` are about 20 KB,
/// far under the default 4 MiB body limit.
const DEPTH: usize = 20_000;

fn world() -> &'static (Dataset, EngineTemplate) {
    static WORLD: OnceLock<(Dataset, EngineTemplate)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = presets::privamov_like().scaled(0.12).generate();
        let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
        let template = EngineTemplate::paper_default(&background);
        (test, template)
    })
}

/// Byte offset of the 129th `[` or `{` in `body`: the first one past the
/// parser's 128-level bound. No key of these bodies holds a bracket.
fn first_byte_past_the_bound(body: &str) -> usize {
    body.bytes()
        .enumerate()
        .filter(|(_, b)| matches!(b, b'[' | b'{'))
        .nth(128)
        .expect("body nests deeper than the bound")
        .0
}

#[test]
fn deep_nesting_gets_a_400_naming_the_byte() {
    let (test, template) = world();
    let server = MoodServer::start(
        ServeConfig {
            connection_workers: 2,
            executor_threads: 2,
            request_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        template.clone(),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let arrays = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let objects = format!("{}{{}}{}", r#"{"k":"#.repeat(DEPTH), "}".repeat(DEPTH));
    for (kind, deep) in [("arrays", &arrays), ("objects", &objects)] {
        for (path, body) in [
            (
                "/v1/protect",
                format!(r#"{{"request_id":7,"trace":{deep}}}"#),
            ),
            (
                "/v1/protect/batch",
                format!(r#"{{"request_id":7,"traces":[{deep}]}}"#),
            ),
        ] {
            let resp = fetch(addr, "POST", path, Some(body.as_bytes())).expect("answered");
            assert_eq!(resp.status, 400, "{path} with deep {kind}");
            let text = resp.text().expect("utf-8 error body");
            let named = format!("at byte {}", first_byte_past_the_bound(&body));
            assert!(text.contains(&named), "{path} with deep {kind}: {text}");
        }
    }

    // The workers are alive and free: the same server protects a valid
    // trace.
    let mut client = Client::connect(addr).expect("connect");
    let request = ProtectRequest {
        request_id: 8,
        trace: test.iter().next().expect("non-empty test set").clone(),
        budget: None,
    };
    let resp = client
        .post_json("/v1/protect", &request)
        .expect("protect request");
    assert_eq!(resp.status, 200);

    server.shutdown();
}
