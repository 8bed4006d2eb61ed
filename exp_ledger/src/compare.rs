//! `exp_ledger compare <dir-A> <dir-B>`: two sets of ledger results
//! side by side.
//!
//! For every workload and mode, each set's runs are pooled: the table
//! shows, per metric, the median of the per-run medians and their p25
//! and p75. The command fails when an end-to-end median moved by more
//! than its bound (either way — two sets of one commit must agree),
//! when a run of either set has a failed operation (the error ratio's
//! bound is 0), or when a run present in both sets (same workload, seed
//! and mode) differs in its attempted operations, its output digest or
//! any count.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::stats::{self, percentile, Better};
use crate::END_TO_END;

/// One results file.
#[derive(Debug, Clone, PartialEq)]
struct RunFile {
    workload: String,
    mode: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    digest: String,
    /// name → (unit, median)
    metrics: BTreeMap<String, (String, f64)>,
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("missing string `{key}`")),
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn parse_run(text: &str) -> Result<RunFile, String> {
    let v = serde_json::parse_value_complete(text).map_err(|e| e.to_string())?;
    let count = |key: &str| {
        v.get(key)
            .and_then(num)
            .map(|n| n as u64)
            .ok_or(format!("missing `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("missing `metrics`")?
    {
        let median = m
            .get("median")
            .and_then(num)
            .ok_or(format!("{name}: no median"))?;
        metrics.insert(name.clone(), (str_field(m, "unit")?.to_string(), median));
    }
    Ok(RunFile {
        workload: str_field(&v, "workload")?.to_string(),
        mode: str_field(&v, "mode")?.to_string(),
        seed: count("seed")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        digest: str_field(&v, "output_digest")?.to_string(),
        metrics,
    })
}

fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    runs.sort_by(|a, b| (&a.workload, &a.mode, a.seed).cmp(&(&b.workload, &b.mode, b.seed)));
    Ok(runs)
}

/// `(median, p25, p75)` of one metric's per-run medians.
fn pooled(runs: &[&RunFile], metric: &str) -> Option<(f64, f64, f64)> {
    let mut values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.get(metric).map(|&(_, m)| m))
        .collect();
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some((
        stats::median(&values),
        percentile(&values, 25.0)?,
        percentile(&values, 75.0)?,
    ))
}

/// Compares two result sets; returns the report lines and whether they
/// agree.
fn compare(a: &[RunFile], b: &[RunFile]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let mut groups: Vec<(&str, &str)> = a
        .iter()
        .chain(b)
        .map(|r| (r.workload.as_str(), r.mode.as_str()))
        .collect();
    groups.sort_unstable();
    groups.dedup();
    for (workload, mode) in groups {
        let in_group = |r: &&RunFile| r.workload == workload && r.mode == mode;
        let ra: Vec<&RunFile> = a.iter().filter(in_group).collect();
        let rb: Vec<&RunFile> = b.iter().filter(in_group).collect();
        lines.push(format!(
            "== {workload} ({mode}): {} runs vs {} runs",
            ra.len(),
            rb.len()
        ));
        let mut names: Vec<&String> = ra
            .iter()
            .chain(&rb)
            .flat_map(|r| r.metrics.keys())
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let unit = ra
                .iter()
                .chain(&rb)
                .find_map(|r| r.metrics.get(name))
                .map_or("", |(u, _)| u.as_str());
            let (Some(sa), Some(sb)) = (pooled(&ra, name), pooled(&rb, name)) else {
                lines.push(format!("   {name:<34} only in one set"));
                ok &= mode != "untraced";
                continue;
            };
            let change = if sa.0 != 0.0 { sb.0 / sa.0 - 1.0 } else { 0.0 };
            let mut verdict = String::new();
            if mode == "untraced" {
                if let Some(&(_, _, better, bound)) = END_TO_END.iter().find(|m| m.0 == name) {
                    if change.abs() > bound {
                        let worse = (change < 0.0) == (better == Better::Higher);
                        verdict = format!(
                            "  MOVED {} by {:+.1}% (bound {:.0}%)",
                            if worse { "worse" } else { "better" },
                            change * 100.0,
                            bound * 100.0
                        );
                        ok = false;
                    }
                }
            }
            lines.push(format!(
                "   {name:<34} {:>14.4} [{:.4}, {:.4}]  {:>14.4} [{:.4}, {:.4}] {unit:<9} {:+7.2}%{verdict}",
                sa.0,
                sa.1,
                sa.2,
                sb.0,
                sb.1,
                sb.2,
                change * 100.0
            ));
        }
    }
    for r in a.iter().chain(b).filter(|r| r.failed > 0) {
        lines.push(format!(
            "!! {} seed {} ({}): {} of {} operations failed",
            r.workload, r.seed, r.mode, r.failed, r.attempted
        ));
        ok = false;
    }
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.mode == ra.mode && r.seed == ra.seed)
        else {
            continue;
        };
        let tag = format!("{} seed {} ({})", ra.workload, ra.seed, ra.mode);
        if ra.attempted != rb.attempted {
            lines.push(format!(
                "!! {tag}: {} vs {} attempted operations",
                ra.attempted, rb.attempted
            ));
            ok = false;
        }
        if ra.digest != rb.digest {
            lines.push(format!(
                "!! {tag}: output digest {} vs {}",
                ra.digest, rb.digest
            ));
            ok = false;
        }
        for (name, (unit, va)) in &ra.metrics {
            if unit == "count" && rb.metrics.get(name).map(|&(_, vb)| vb) != Some(*va) {
                lines.push(format!("!! {tag}: count {name} differs"));
                ok = false;
            }
        }
    }
    (lines, ok)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [dir_a, dir_b] = args else {
        eprintln!("usage: exp_ledger compare <dir-A> <dir-B>");
        return 2;
    };
    let loaded = load_dir(Path::new(dir_a)).and_then(|a| Ok((a, load_dir(Path::new(dir_b))?)));
    let (a, b) = match loaded {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!("metric: A median [p25, p75]  B median [p25, p75]  unit  B vs A");
    let (lines, ok) = compare(&a, &b);
    for line in lines {
        println!("{line}");
    }
    if ok {
        println!("compare: the sets agree");
        0
    } else {
        println!("compare: the sets disagree");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, users_per_s: f64, candidates: f64, digest: &str) -> RunFile {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "protect.users_per_s".to_string(),
            ("users/s".to_string(), users_per_s),
        );
        metrics.insert(
            "core.candidates".to_string(),
            ("count".to_string(), candidates),
        );
        RunFile {
            workload: "resident".to_string(),
            mode: "untraced".to_string(),
            seed,
            attempted: 100,
            failed: 0,
            digest: digest.to_string(),
            metrics,
        }
    }

    #[test]
    fn agreeing_sets_pass() {
        let a = vec![run(1, 40.0, 9.0, "ab"), run(2, 41.0, 9.0, "cd")];
        let b = vec![run(1, 40.5, 9.0, "ab"), run(2, 41.5, 9.0, "cd")];
        assert!(compare(&a, &b).1);
    }

    #[test]
    fn a_moved_median_a_changed_count_or_digest_fails() {
        let a = vec![run(1, 40.0, 9.0, "ab")];
        let (lines, ok) = compare(&a, &[run(1, 30.0, 9.0, "ab")]);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("MOVED worse")), "{lines:?}");
        assert!(!compare(&a, &[run(1, 40.0, 10.0, "ab")]).1);
        assert!(!compare(&a, &[run(1, 40.0, 9.0, "zz")]).1);
        let more = RunFile {
            attempted: 101,
            ..run(1, 40.0, 9.0, "ab")
        };
        assert!(!compare(&a, &[more]).1);
        // A failed operation fails the comparison in either set, even
        // when every median stays within its bound.
        let failing = RunFile {
            failed: 1,
            ..run(1, 40.0, 9.0, "ab")
        };
        let (lines, ok) = compare(&a, std::slice::from_ref(&failing));
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("1 of 100 operations failed")));
        assert!(!compare(&[failing], &a).1);
    }

    #[test]
    fn results_files_parse() {
        let text = r#"{"workload":"fleet","mode":"traced","seed":3,"output_digest":"0f",
            "attempted":40,"failed":2,
            "metrics":{"core.candidates":{"unit":"count","median":12,"p25":12,"p75":12,"samples":1}}}"#;
        let run = parse_run(text).unwrap();
        assert_eq!(run.workload, "fleet");
        assert_eq!((run.seed, run.attempted, run.failed), (3, 40, 2));
        assert_eq!(run.metrics["core.candidates"], ("count".to_string(), 12.0));
        assert!(parse_run("{}").is_err());
    }
}
