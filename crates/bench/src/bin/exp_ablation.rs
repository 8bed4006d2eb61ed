//! Ablations beyond the paper: the design-choice sweeps of the README's
//! "Figures" section, run on the Privamov stand-in (the most vulnerable
//! dataset):
//!
//! * composition length cap (1 / 2 / 3) — how much of MooD's power comes
//!   from deeper chains;
//! * recursion floor δ (2 h / 4 h / 8 h) — data loss vs. protection in
//!   the fine-grained stage;
//! * AP-Attack cell size (400 / 800 / 1600 m) — adversary strength;
//! * Geo-I ε sweep — the privacy/utility knob of the weakest LPPM.
//!
//! Usage: `cargo run --release -p mood-bench --bin exp_ablation [--scale X] [--threads N]`

use mood_attacks::{ApAttack, Attack, AttackSuite};
use mood_bench::{cli_options, ExperimentContext};
use mood_core::{protect_dataset, MoodConfig, MoodEngine};
use mood_lppm::{GeoI, Lppm};
use mood_metrics::spatio_temporal_distortion;
use mood_synth::presets;
use mood_trace::TimeDelta;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (scale, threads) = cli_options();
    let scale = if scale >= 1.0 { 0.5 } else { scale }; // ablations default to half scale
    println!("Ablations (privamov-like, scale {scale})\n");
    let ctx = ExperimentContext::load(&presets::privamov_like(), scale);

    // --- composition length cap ---
    println!("A1. MooD composition length cap (adversary: 3 attacks)");
    println!(
        "{:<10} {:>14} {:>11} {:>10}",
        "max len", "comp-unprot.", "data loss", "variants"
    );
    for cap in 1..=3usize {
        let mut config = MoodConfig::paper_default();
        config.max_composition_len = cap;
        let engine = MoodEngine::new(ctx.suite_all.clone(), ctx.lppms().to_vec(), config);
        let report = protect_dataset(&engine, &ctx.test, threads);
        println!(
            "{:<10} {:>14} {:>10.2}% {:>10}",
            cap,
            report.composition_unprotected().len(),
            report.data_loss.percent(),
            engine.lppms().len() + engine.compositions().len()
        );
    }

    // --- 4th LPPM (generalization family, paper §6 extension hook) ---
    println!("\nA1b. Extended LPPM set {{Geo-I, TRL, HMC, Cloaking}} (|C| = 64)");
    {
        let mut lppms = ctx.lppms().to_vec();
        lppms.push(std::sync::Arc::new(
            mood_lppm::SpatialCloaking::from_background(&ctx.train, 800.0),
        ));
        let engine = MoodEngine::new(ctx.suite_all.clone(), lppms, MoodConfig::paper_default());
        let report = protect_dataset(&engine, &ctx.test, threads);
        println!(
            "variants={}  comp-unprot.={}  data loss={:.2}%",
            engine.lppms().len() + engine.compositions().len(),
            report.composition_unprotected().len(),
            report.data_loss.percent()
        );
    }

    // --- delta sweep ---
    println!("\nA2. Fine-grained recursion floor delta");
    println!("{:<10} {:>14} {:>11}", "delta", "comp-unprot.", "data loss");
    for hours in [2i64, 4, 8] {
        let mut config = MoodConfig::paper_default();
        config.delta = TimeDelta::from_hours(hours);
        let engine = MoodEngine::new(ctx.suite_all.clone(), ctx.lppms().to_vec(), config);
        let report = protect_dataset(&engine, &ctx.test, threads);
        println!(
            "{:<10} {:>14} {:>10.2}%",
            format!("{hours}h"),
            report.composition_unprotected().len(),
            report.data_loss.percent()
        );
    }

    // --- split strategy (paper §6 future work) ---
    println!("\nA2b. Fine-grained split strategy (paper future work)");
    println!(
        "{:<14} {:>14} {:>11}",
        "strategy", "comp-unprot.", "data loss"
    );
    for strategy in [
        mood_core::SplitStrategy::Halving,
        mood_core::SplitStrategy::LargestGap,
        mood_core::SplitStrategy::InterPoi,
    ] {
        let mut config = MoodConfig::paper_default();
        config.split_strategy = strategy;
        let engine = MoodEngine::new(ctx.suite_all.clone(), ctx.lppms().to_vec(), config);
        let report = protect_dataset(&engine, &ctx.test, threads);
        println!(
            "{:<14} {:>14} {:>10.2}%",
            strategy.to_string(),
            report.composition_unprotected().len(),
            report.data_loss.percent()
        );
    }

    // --- AP cell size sweep ---
    println!("\nA3. AP-Attack cell size (no LPPM)");
    println!("{:<10} {:>14}", "cell", "re-identified");
    for cell in [400.0, 800.0, 1600.0] {
        let suite = AttackSuite::train(&[&ApAttack::new(cell) as &dyn Attack], &ctx.train);
        let eval = suite.evaluate(&ctx.test);
        println!(
            "{:<10} {:>10}/{:<3}",
            format!("{cell} m"),
            eval.non_protected_count(),
            eval.users_total
        );
    }

    // --- Geo-I epsilon sweep ---
    println!("\nA4. Geo-I epsilon sweep (3-attack adversary)");
    println!(
        "{:<10} {:>14} {:>12}",
        "epsilon", "re-identified", "mean STD"
    );
    for eps in [0.05, 0.01, 0.005, 0.001] {
        let geoi = GeoI::new(eps);
        let mut total_std = 0.0;
        let protected = {
            let traces: Vec<mood_trace::Trace> = ctx
                .test
                .iter()
                .map(|t| {
                    let mut rng = StdRng::seed_from_u64(0xAB1A ^ t.user().as_u64());
                    let p = geoi.protect(t, &mut rng);
                    total_std += spatio_temporal_distortion(t, &p);
                    p
                })
                .collect();
            mood_trace::Dataset::from_traces(traces).expect("unique users")
        };
        let eval = ctx.suite_all.evaluate(&protected);
        println!(
            "{:<10} {:>10}/{:<3} {:>9.0} m",
            eps,
            eval.non_protected_count(),
            eval.users_total,
            total_std / ctx.test.user_count() as f64
        );
    }
}
