//! Out-of-range coordinates in a request body are refused at parse time.
//!
//! JSON points go through `GeoPoint::new`'s range check, as CSV points
//! do, so a hostile value such as a longitude of 1e300 (`1e300 - 360 ==
//! 1e300`) never reaches the engine, and the worker that read it is free
//! for the next request.

use std::sync::OnceLock;
use std::time::Duration;

use mood_serve::{fetch, Client, EngineTemplate, MoodServer, ProtectRequest, ServeConfig};
use mood_synth::presets;
use mood_trace::{Dataset, Record, TimeDelta, Timestamp, Trace, UserId};

fn world() -> &'static (Dataset, EngineTemplate) {
    static WORLD: OnceLock<(Dataset, EngineTemplate)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = presets::privamov_like().scaled(0.12).generate();
        let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
        let template = EngineTemplate::paper_default(&background);
        (test, template)
    })
}

/// A two-record trace whose second point reads `lat`, `lng` on the wire.
/// The trace is built valid and serialized, then one coordinate's text
/// is swapped, since no `GeoPoint` can hold the hostile value.
fn hostile_trace_json(lat: &str, lng: &str) -> String {
    let point = mood_geo::GeoPoint::new(46.125, 6.375).expect("valid point");
    let records = vec![
        Record::new(point, Timestamp::from_unix(1_000)),
        Record::new(point, Timestamp::from_unix(1_060)),
    ];
    let trace = Trace::new(UserId::new(1), records).expect("non-empty");
    let json = serde_json::to_string(&trace).expect("serializable");
    let (head, tail) = json
        .rsplit_once(r#""lat":46.125,"lng":6.375"#)
        .expect("second point in the JSON");
    format!(r#"{head}"lat":{lat},"lng":{lng}{tail}"#)
}

#[test]
fn out_of_range_coordinates_get_a_400_naming_them() {
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

    for (lat, lng, named) in [
        ("95", "6.375", "latitude 95"),
        ("46.125", "181", "longitude 181"),
        ("46.125", "1e300", "longitude 1000000"),
    ] {
        let trace = hostile_trace_json(lat, lng);
        for (path, body) in [
            (
                "/v1/protect",
                format!(r#"{{"request_id":7,"trace":{trace}}}"#),
            ),
            (
                "/v1/protect/batch",
                format!(r#"{{"request_id":7,"traces":[{trace}]}}"#),
            ),
        ] {
            let resp = fetch(addr, "POST", path, Some(body.as_bytes())).expect("answered");
            assert_eq!(resp.status, 400, "{path} with lat {lat}, lng {lng}");
            let text = resp.text().expect("utf-8 error body");
            assert!(text.contains(named), "{path}: {text}");
        }
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
