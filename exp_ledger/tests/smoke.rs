//! Smoke runs of the ledger binary on tiny datasets: every workload in
//! both modes, and the output digest's dependence on the seed. Each run
//! is a process of its own, as in a recorded run, so no other test's
//! threads sit beside the host probe's kernel.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// Each workload with the dataset scale of its smoke runs.
const TINY: [(&str, &str); 2] = [("resident", "0.1"), ("fleet", "0.02")];

/// Runs the ledger in a fresh directory named after `tag`; returns the
/// directory and the summary, the last line of standard output.
fn ledger(tag: &str, workload: &str, scale: &str, seed: &str, trace: &str) -> (PathBuf, Value) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        scale,
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_exp_ledger"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    (dir, serde_json::parse_value_complete(last).unwrap())
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(i)) => *i as f64,
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Float(f)) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::parse_value_complete(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Array(rows)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    rows.iter()
        .map(|r| (text(r.get("name")), text(r.get("unit"))))
        .collect()
}

/// Checks the summary's envelope; returns `(name, unit, value)` of
/// every metric it reports, in order.
fn metrics(summary: &Value) -> Vec<(String, String, f64)> {
    assert_eq!(summary.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(num(summary.get("failed")), 0.0);
    assert!(num(summary.get("attempted")) >= 1.0);
    summary
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| (name.clone(), text(m.get("unit")), num(m.get("value"))))
        .collect()
}

fn names_and_units(rows: &[(String, String, f64)]) -> Vec<(String, String)> {
    rows.iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for (workload, scale) in TINY {
        let (_, summary) = ledger(&format!("{workload}-plain"), workload, scale, "1", "0");
        let rows = metrics(&summary);
        assert_eq!(names_and_units(&rows), declared("end_to_end"), "{workload}");
        for (name, _, value) in rows {
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload} {name} = {value}"
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_and_add_up() {
    for (workload, scale) in TINY {
        let (_, summary) = ledger(&format!("{workload}-traced"), workload, scale, "1", "1");
        let rows = metrics(&summary);
        assert_eq!(names_and_units(&rows), declared("per_layer"), "{workload}");
        let m = |name: &str| rows.iter().find(|r| r.0 == name).unwrap().2;
        // Both breakdowns add up with a small remainder.
        assert!(m("batch.unattributed_ms").abs() <= 0.1 * m("batch.wall_ms"));
        assert!(m("serve.unattributed_ms").abs() <= 0.1 * m("serve.client_mean_ms"));
        assert!(m("core.candidates") > 0.0 && m("trace.decodes") > 0.0);
    }
}

#[test]
fn one_seed_gives_one_digest() {
    let digest = |tag: &str, seed: &str| {
        let (dir, _) = ledger(tag, "resident", "0.1", seed, "0");
        let path = dir.join(format!("results/ledger/resident-{seed}.json"));
        let record = serde_json::parse_value_complete(&std::fs::read_to_string(path).unwrap());
        text(record.unwrap().get("output_digest"))
    };
    let a = digest("digest-a", "5");
    assert_eq!(a, digest("digest-b", "5"));
    assert_ne!(a, digest("digest-c", "6"));
}
