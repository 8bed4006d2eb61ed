//! Data-publication scenario: the paper's motivating story (§2.4). A
//! data curator must release a mobility dataset; any trace the
//! state-of-the-art attacks can still re-identify has to be deleted.
//!
//! The example measures the data each strategy would lose — single
//! LPPMs, the HybridLPPM baseline, and MooD — then writes MooD's
//! publishable dataset to CSV. Every strategy reads the engine's own
//! single-LPPM draws, so they differ only in how they choose.
//!
//! Run with: `cargo run --release -p mood-core --example dataset_publication`

use mood_core::{protect_dataset, publish, HybridLppm, MoodEngine, ProtectedTrace};
use mood_synth::presets;
use mood_trace::TimeDelta;

fn main() {
    let dataset = presets::privamov_like().scaled(0.5).generate();
    let (background, to_publish) = dataset.split_chronological(TimeDelta::from_days(15));
    let total = to_publish.record_count();
    println!(
        "curator has {} users / {} records to release\n",
        to_publish.user_count(),
        total
    );
    let engine = MoodEngine::paper_default(&background);

    let singles: Vec<Vec<Option<ProtectedTrace>>> = to_publish
        .iter()
        .map(|t| engine.single_candidates(t))
        .collect();
    // Records of the users whose single-LPPM draws leave them `exposed`.
    let lost = |exposed: &dyn Fn(&[Option<ProtectedTrace>]) -> bool| -> usize {
        to_publish
            .iter()
            .zip(&singles)
            .filter(|(_, s)| exposed(s))
            .map(|(t, _)| t.len())
            .sum()
    };
    let row = |strategy: &str, lost: usize| {
        println!(
            "{:<24} {:>12} {:>11.1}%",
            strategy,
            total - lost,
            lost as f64 / total as f64 * 100.0
        )
    };

    // --- strategy 1: one LPPM for everyone, delete what stays exposed ---
    println!("{:<24} {:>12} {:>12}", "strategy", "kept", "data loss");
    for (i, lppm) in engine.lppms().iter().enumerate() {
        row(
            &format!("single {}", lppm.name()),
            lost(&|s| s[i].is_none()),
        );
    }

    // --- strategy 2: HybridLPPM (best single LPPM per user) ---
    let hybrid = HybridLppm::paper_default(&engine);
    row("HybridLPPM", lost(&|s| hybrid.select(s).is_none()));

    // --- strategy 3: MooD ---
    let report = protect_dataset(&engine, &to_publish, 4);
    println!(
        "{:<24} {:>12} {:>11.1}%",
        "MooD",
        report.data_loss.kept_records(),
        report.data_loss.percent()
    );

    // Write the publishable dataset.
    let (published, _gt) = publish(report.outcomes());
    let path = std::env::temp_dir().join("mood_published.csv");
    mood_trace::io::write_csv_file(&published, &path).expect("writable temp dir");
    println!(
        "\nMooD's publishable dataset written to {} ({} pseudonymous traces)",
        path.display(),
        published.user_count()
    );
}
