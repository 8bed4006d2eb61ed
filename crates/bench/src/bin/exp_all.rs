//! Runs every experiment (Table 1, Figures 2/3, 6, 7, 8, 9, 10) in one
//! go, sharing each dataset's context across figures so the suite
//! finishes in minutes at full scale, then prints the paper's reference
//! numbers and writes `results/{table1,fig6,fig7}.json`.
//!
//! Usage: `cargo run --release -p mood-bench --bin exp_all [--scale X] [--threads N]`

use std::process::ExitCode;

use serde::{Deserialize, Serialize};

use mood_bench::{cli_options, print_bars, run_figures, Adversary, ExperimentContext};
use mood_synth::presets;

const BANDS: [&str; 4] = ["Low", "Medium", "High", "ExtremelyHigh"];

/// The paper's reported numbers (§4), printed after the measured ones.
const PAPER_REFERENCE: &str = "\
Table 1, users / records: Cabspotting 531/11,179,014 | Geolife 41/1,468,989 | MDC 141/904,282 | PrivaMov 41/948,965
Fig. 2, non-protected % (Geo-I/TRL/HMC/Hybrid): Cabspotting 50/19/25/5 | Geolife 66/54/37/24 | MDC 76/61/46/36 | PrivaMov 88/71/49/24
Fig. 6, non-protected, AP only (no-LPPM/Geo-I/TRL/HMC/Hybrid/MooD): Cabspotting 242/207/56/12/4/0 | Geolife 32/32/32/4/4/1 | MDC 96/95/79/14/10/0 | PrivaMov 32/31/26/9/4/2
Fig. 7, non-protected, all attacks (same order): Cabspotting 281/263/65/131/27/0 | Geolife 32/27/22/15/10/2 | MDC 107/107/86/65/51/3 | PrivaMov 37/36/29/20/10/3
Fig. 8, protected sub-traces of the residual users: Geolife G/H 1 of 4 | MDC A/B/C 100/92/11 % | PrivaMov D/E/F 67/43/50 %
Fig. 9, protected users under 500 m, all datasets: Geo-I 38% | TRL 12% | HMC 45% | Hybrid 49% | MooD 53.47% (MooD under 1 km: 78%)
Fig. 10, data loss % (Geo-I/TRL/HMC/Hybrid/MooD): Cabspotting 52/13/25/5/0.0 | Geolife 68/60/14/9/0.37 | MDC 88/73/53/42/0.33 | PrivaMov 95/70/46/30/2.5";

/// One Table 1 row, as written to `results/table1.json`.
#[derive(Serialize, Deserialize)]
struct Table1Row {
    name: String,
    users: usize,
    location: String,
    records: usize,
    train_records: usize,
    test_records: usize,
}

/// Writes `value` as pretty JSON to `results/{name}.json`.
fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    let path = format!("results/{name}.json");
    let json = serde_json::to_string_pretty(value).expect("result rows serialize");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let (scale, threads) = cli_options();
    let t0 = std::time::Instant::now();
    println!("=== MooD full experiment suite (scale {scale}, {threads} threads) ===\n");
    std::fs::create_dir_all("results").map_err(|e| format!("cannot create results/: {e}"))?;

    // Table 1
    println!("## Table 1: datasets");
    println!(
        "  {:<18} {:>6} {:<14} {:>9} {:>9} {:>9}",
        "name", "users", "location", "records", "train", "test"
    );
    let mut table1 = Vec::new();
    let mut contexts = Vec::new();
    for spec in presets::all() {
        let ctx = ExperimentContext::load(&spec, scale);
        let row = Table1Row {
            name: ctx.spec.name.clone(),
            users: ctx.test.user_count(),
            location: ctx.spec.city.name().to_string(),
            records: ctx.train.record_count() + ctx.test.record_count(),
            train_records: ctx.train.record_count(),
            test_records: ctx.test.record_count(),
        };
        println!(
            "  {:<18} {:>6} {:<14} {:>9} {:>9} {:>9}",
            row.name, row.users, row.location, row.records, row.train_records, row.test_records
        );
        table1.push(row);
        contexts.push(ctx);
    }
    write_json("table1", &table1)?;

    // Figure 6 (AP only) and Figures 2/3/7/8/9/10 (all attacks)
    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    for ctx in &contexts {
        println!("\n## {} — Figure 6 (single attack: AP)", ctx.spec.name);
        let f6 = run_figures(ctx, Adversary::ApOnly, threads);
        print_bars(&f6);
        fig6.push(f6);

        println!("\n## {} — Figures 2/3/7/10 (multi-attack)", ctx.spec.name);
        let f7 = run_figures(ctx, Adversary::All, threads);
        print_bars(&f7);

        println!("   Figure 8 (fine-grained residual users):");
        if f7.fine_grained.is_empty() {
            println!("     none — composition search protected everyone");
        }
        for (i, row) in f7.fine_grained.iter().enumerate() {
            println!(
                "     USER {} ({}): {}/{} sub-traces ({:.0}%)",
                char::from(b'A' + (i % 26) as u8),
                row.user,
                row.sub_traces_protected,
                row.sub_traces_total,
                row.protected_percent
            );
        }

        println!("   Figure 9 (distortion bands, % of protected users):");
        for m in &f7.mechanisms {
            if m.mechanism == "no-LPPM" || m.protected_users == 0 {
                continue;
            }
            let pct: Vec<String> = BANDS
                .iter()
                .map(|b| {
                    format!(
                        "{:.0}%",
                        *m.bands.get(*b).unwrap_or(&0) as f64 / m.protected_users as f64 * 100.0
                    )
                })
                .collect();
            println!("     {:<12} {}", m.mechanism, pct.join(" / "));
        }
        fig7.push(f7);
    }
    write_json("fig6", &fig6)?;
    write_json("fig7", &fig7)?;

    println!("\n## Paper reference numbers\n{PAPER_REFERENCE}");

    println!("\n=== suite finished in {:?} ===", t0.elapsed());
    Ok(())
}
