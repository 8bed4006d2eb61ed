//! Seeded property tests of the served JSON. The streaming writer and
//! the typed reader are held to the `Value` path over every wire type,
//! and the server's body parser is driven with mutated request bodies:
//! truncations, byte flips, splices and deep nesting.

use std::collections::BTreeMap;
use std::fmt::Debug;

use mood_core::UserClass;
use mood_geo::GeoPoint;
use mood_obs::{SpanAttr, SpanEvent, SpanRecord, TraceRecord};
use mood_trace::{Record, Timestamp, Trace, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::api::{
    BatchRequest, BatchResponse, ErrorBody, ProtectRequest, ProtectResponse, ProtectResult,
    PublishedTrace,
};
use crate::server::parse_body;

/// Characters at the escaper's and the lexer's edges.
const CHARS: [char; 12] = [
    'a',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\u{1}',
    '\u{7f}',
    'é',
    '\u{2028}',
    '\u{fffd}',
    '\u{1f600}',
];

fn arb_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A coordinate in `[-bound, bound]`, often at an edge.
fn arb_coord(rng: &mut StdRng, bound: f64) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => [-bound, bound, 0.0, -0.0, 5e-324, 46.2044][rng.gen_range(0..6usize)],
        _ => rng.gen_range(-bound..bound),
    }
}

fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => [0.0, -0.0, 5e-324, 1e300, f64::MAX, 0.1][rng.gen_range(0..6usize)],
        _ => rng.gen_range(-1e6..1e6),
    }
}

fn arb_trace(rng: &mut StdRng) -> Trace {
    let records = (0..rng.gen_range(1..5usize))
        .map(|_| {
            let point = GeoPoint::new(arb_coord(rng, 90.0), arb_coord(rng, 180.0)).unwrap();
            Record::new(
                point,
                Timestamp::from_unix(rng.gen_range(-1i64 << 40..1 << 40)),
            )
        })
        .collect();
    Trace::new(UserId::new(rng.gen()), records).unwrap()
}

fn arb_budget(rng: &mut StdRng) -> Option<u64> {
    rng.gen_bool(0.5).then(|| rng.gen())
}

fn arb_protect_request(rng: &mut StdRng) -> ProtectRequest {
    ProtectRequest {
        request_id: rng.gen(),
        trace: arb_trace(rng),
        budget: arb_budget(rng),
    }
}

fn arb_batch_request(rng: &mut StdRng) -> BatchRequest {
    BatchRequest {
        request_id: rng.gen(),
        traces: (0..rng.gen_range(0..3usize))
            .map(|_| arb_trace(rng))
            .collect(),
        budget: arb_budget(rng),
    }
}

fn arb_result(rng: &mut StdRng) -> ProtectResult {
    const CLASSES: [UserClass; 5] = [
        UserClass::NaturallyProtected,
        UserClass::SingleLppm,
        UserClass::MultiLppm,
        UserClass::FineGrained,
        UserClass::Unprotectable,
    ];
    ProtectResult {
        user: UserId::new(rng.gen()),
        class: CLASSES[rng.gen_range(0..CLASSES.len())],
        published: (0..rng.gen_range(0..3usize))
            .map(|_| PublishedTrace {
                lppm: arb_string(rng),
                distortion_m: arb_f64(rng),
                trace: arb_trace(rng),
            })
            .collect(),
        original_records: rng.gen_range(0..10_000usize),
        records_dropped: rng.gen_range(0..10_000usize),
        degraded: rng.gen_bool(0.5),
    }
}

fn arb_protect_response(rng: &mut StdRng) -> ProtectResponse {
    ProtectResponse {
        request_id: rng.gen(),
        seed: rng.gen(),
        result: arb_result(rng),
    }
}

fn arb_batch_response(rng: &mut StdRng) -> BatchResponse {
    BatchResponse {
        request_id: rng.gen(),
        seed: rng.gen(),
        users_total: rng.gen_range(0..100usize),
        data_loss_percent: arb_f64(rng),
        class_counts: (0..rng.gen_range(0..4usize))
            .map(|_| (arb_string(rng), rng.gen_range(0..100usize)))
            .collect::<BTreeMap<_, _>>(),
        results: (0..rng.gen_range(0..3usize))
            .map(|_| arb_result(rng))
            .collect(),
    }
}

fn arb_trace_record(rng: &mut StdRng) -> TraceRecord {
    TraceRecord {
        trace_id: rng.gen(),
        total_us: rng.gen(),
        slow: rng.gen_bool(0.5),
        spans: (0..rng.gen_range(0..3usize))
            .map(|_| SpanRecord {
                id: rng.gen(),
                parent_id: rng.gen(),
                stage: arb_string(rng),
                index: rng.gen(),
                start_us: rng.gen(),
                dur_us: rng.gen(),
                count: rng.gen(),
                attrs: (0..rng.gen_range(0..3usize))
                    .map(|_| SpanAttr {
                        key: arb_string(rng),
                        value: arb_string(rng),
                    })
                    .collect(),
                events: (0..rng.gen_range(0..3usize))
                    .map(|_| SpanEvent {
                        name: arb_string(rng),
                        at_us: rng.gen(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// The byte a syntax error names, which must lie inside the input (or
/// at its end, for one that ends too soon).
fn assert_names_a_byte(message: &str, len: usize) {
    let byte = message
        .rsplit_once("at byte ")
        .and_then(|(_, at)| at.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("syntax error names no byte: {message}"));
    assert!(byte <= len, "{message} in {len} bytes");
}

/// Reads `text` as `T` through the typed reader and through the `Value`
/// path. They must agree on `Ok` values and on syntax errors, both fail
/// on shape mismatches, and name the same mismatch when `single`.
fn assert_reads_alike<T: Deserialize + PartialEq + Debug>(text: &str, single: bool) {
    let typed = serde_json::from_str::<T>(text);
    match serde_json::from_str::<Value>(text) {
        Err(syntax) => {
            assert_names_a_byte(&syntax.to_string(), text.len());
            assert_eq!(typed.unwrap_err(), syntax, "{text}");
        }
        Ok(tree) => match (typed, T::from_value(&tree)) {
            (Ok(typed), Ok(tree)) => assert_eq!(typed, tree, "{text}"),
            (Err(typed), Err(tree)) => {
                if single {
                    assert_eq!(typed, tree, "{text}");
                }
            }
            (typed, tree) => panic!("paths disagree on {text}: {typed:?} vs {tree:?}"),
        },
    }
}

/// One byte-level mutation of `doc`: a flip, a splice, or a run of
/// `[` at a value position.
fn mutate(rng: &mut StdRng, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = rng.gen_range(0..=doc.len());
    match rng.gen_range(0..4u32) {
        0 => {
            const BYTES: &[u8] = b"{}[]\",:-+.0123456789eEtfnul \\\x01\x7f\xc3\xff";
            if let Some(b) = out.get_mut(at) {
                *b = BYTES[rng.gen_range(0..BYTES.len())];
            }
        }
        1 => {
            let from = rng.gen_range(0..=doc.len());
            let to = rng.gen_range(from..=doc.len());
            out.splice(at..at, doc[from..to].iter().copied());
        }
        2 => {
            // Deep nesting where a value starts: after a colon, a comma
            // or an opening bracket.
            let starts: Vec<usize> = (1..doc.len())
                .filter(|&i| matches!(doc[i - 1], b':' | b',' | b'['))
                .collect();
            if !starts.is_empty() {
                let start = starts[rng.gen_range(0..starts.len())];
                let depth = rng.gen_range(100..300usize);
                let nest = if rng.gen_bool(0.5) {
                    "[".repeat(depth)
                } else {
                    format!("{}{},", "[".repeat(depth), "]".repeat(depth))
                };
                out.splice(start..start, nest.bytes());
            }
        }
        _ => out.truncate(at),
    }
    out
}

/// `value` with one node replaced by one of another kind, or one object
/// key dropped or renamed: a well-formed document with at most one shape
/// mismatch.
fn edit_once(rng: &mut StdRng, value: &mut Value) {
    let descend = rng.gen_bool(0.8);
    match value {
        Value::Array(items) if descend && !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            return edit_once(rng, &mut items[i]);
        }
        Value::Object(entries) if descend && !entries.is_empty() => {
            let i = rng.gen_range(0..entries.len());
            return match rng.gen_range(0..4u32) {
                0 => drop(entries.remove(i)),
                1 => entries[i].0.push_str("_renamed"),
                _ => edit_once(rng, &mut entries[i].1),
            };
        }
        _ => {}
    }
    let replacements = [
        Value::Null,
        Value::Bool(true),
        Value::Int(-1),
        Value::UInt(u64::MAX),
        Value::Float(95.5),
        Value::Float(1e300),
        Value::Str("SingleLppm".to_string()),
        Value::Array(Vec::new()),
        Value::Object(Vec::new()),
    ];
    *value = replacements[rng.gen_range(0..replacements.len())].clone();
}

/// The whole battery for one value of a wire type: writes alike, reads
/// back, and reads alike over truncations, mutations and single edits.
fn check_wire_type<T>(rng: &mut StdRng, value: &T)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, serde_json::to_string(&value.to_value()).unwrap());
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(
        pretty,
        serde_json::to_string_pretty(&value.to_value()).unwrap()
    );
    assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), value);
    assert_eq!(&serde_json::from_str::<T>(&pretty).unwrap(), value);
    for _ in 0..8 {
        let mutated = mutate(rng, text.as_bytes());
        if let Ok(mutated) = std::str::from_utf8(&mutated) {
            assert_reads_alike::<T>(mutated, false);
        }
        let mut tree = value.to_value();
        edit_once(rng, &mut tree);
        assert_reads_alike::<T>(&serde_json::to_string(&tree).unwrap(), true);
    }
}

/// Runs `body` through the server's body parser as both request types.
/// Nothing panics, every failure is a 400, and a malformed body fails
/// with its first syntax error, naming a byte inside it.
fn check_body(body: &[u8]) {
    let syntax = serde_json::from_slice::<Value>(body).err();
    if let Some(syntax) = &syntax {
        assert_names_a_byte(&syntax.to_string(), body.len());
    }
    let outcomes = [
        parse_body::<ProtectRequest>(body).map(drop),
        parse_body::<BatchRequest>(body).map(drop),
    ];
    for outcome in outcomes {
        match outcome {
            Ok(()) => assert!(syntax.is_none(), "accepted a malformed body"),
            Err(response) => {
                assert_eq!(response.status, 400);
                let error: ErrorBody = serde_json::from_slice(&response.body).unwrap();
                if let Some(syntax) = &syntax {
                    assert_eq!(error.error, format!("invalid request body: {syntax}"));
                }
            }
        }
    }
    if let Ok(text) = std::str::from_utf8(body) {
        assert_reads_alike::<ProtectRequest>(text, false);
        assert_reads_alike::<BatchRequest>(text, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_types_stream_like_their_value_trees(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let trace = arb_trace(rng);
        check_wire_type(rng, &trace);
        let request = arb_protect_request(rng);
        check_wire_type(rng, &request);
        let batch = arb_batch_request(rng);
        check_wire_type(rng, &batch);
        let response = arb_protect_response(rng);
        check_wire_type(rng, &response);
        let batch_response = arb_batch_response(rng);
        check_wire_type(rng, &batch_response);
        let record = arb_trace_record(rng);
        check_wire_type(rng, &record);
    }

    #[test]
    fn the_body_parser_survives_mutated_requests(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let bodies = [
            serde_json::to_vec(&arb_protect_request(rng)).unwrap(),
            serde_json::to_vec(&arb_batch_request(rng)).unwrap(),
        ];
        for body in &bodies {
            check_body(body);
            let mut mutated = body.clone();
            for _ in 0..6 {
                mutated = mutate(rng, &mutated);
                check_body(&mutated);
            }
        }
    }
}
