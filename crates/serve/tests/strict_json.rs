//! Request bodies are read as strict JSON (RFC 8259): a form outside the
//! grammar gets a 400 naming the byte where it goes wrong, and the
//! worker that read it is free for the next request.

use std::time::Duration;

use mood_serve::{fetch, Client, MoodServer, ProtectRequest, ServeConfig};
use mood_synth::presets;
use mood_trace::TimeDelta;

#[test]
fn non_json_bodies_get_a_400_naming_the_byte() {
    let ds = presets::privamov_like().scaled(0.12).generate();
    let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
    let server = MoodServer::start_paper_default(
        ServeConfig {
            connection_workers: 2,
            executor_threads: 2,
            request_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        &background,
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let trace = serde_json::to_string(test.iter().next().expect("non-empty test set"))
        .expect("serializable");
    for (body, named) in [
        (
            format!(r#"{{"request_id":+7,"trace":{trace}}}"#),
            "expected value at byte 14",
        ),
        (
            format!(r#"{{"request_id":007,"trace":{trace}}}"#),
            "invalid number at byte 15",
        ),
        (
            format!(r#"{{"request_id":7,"trace":{trace},"note":"\ud800"}}"#),
            "lone surrogate",
        ),
    ] {
        let resp = fetch(addr, "POST", "/v1/protect", Some(body.as_bytes())).expect("answered");
        assert_eq!(resp.status, 400, "{body}");
        let text = resp.text().expect("utf-8 error body");
        assert!(text.contains(named), "{text}");
    }

    // The workers are free: the same server protects a valid trace.
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
