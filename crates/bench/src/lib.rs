//! Experiment harness reproducing every table and figure of the MooD
//! paper's evaluation (§4).
//!
//! The `exp_all` binary regenerates every table and figure and
//! `exp_ablation` runs the design-choice sweeps; this library holds the
//! shared machinery:
//!
//! * [`ExperimentContext`] — dataset generation, the 15/15-day
//!   chronological split, trained attack suites and the MooD engine;
//! * [`run_figures`] — the full per-dataset evaluation: every mechanism
//!   bar (no-LPPM, Geo-I, TRL, HMC, HybridLPPM, MooD) with non-protected
//!   user counts, data loss, and distortion bands, all read from one
//!   MooD run;
//! * [`parse_options`] — the binaries' command line.
//!
//! Experiments accept a `scale` factor (1.0 = paper-scale synthetic
//! datasets; smaller for quick runs and CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack, ProfileStore};
use mood_core::exec::map_indexed;
use mood_core::{
    protect_dataset_with, EngineBuilder, ExecutorKind, HybridLppm, MoodConfig, MoodEngine,
    UserClass,
};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_metrics::{DataLoss, DistortionBand};
use mood_synth::DatasetSpec;
use mood_trace::{Dataset, TimeDelta, Trace, UserId};

/// Which adversary the experiment simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Adversary {
    /// AP-Attack only (the paper's Fig. 6: "the most powerful attack").
    ApOnly,
    /// All three attacks at once (Fig. 7; a user is non-protected when
    /// at least one attack re-identifies them).
    All,
}

/// Everything one dataset's experiments need, built once.
pub struct ExperimentContext {
    /// The dataset spec that generated this context.
    pub spec: DatasetSpec,
    /// Background knowledge (first 15 days).
    pub train: Dataset,
    /// The data to protect and attack (last 15 days).
    pub test: Dataset,
    /// Suite with all three attacks.
    pub suite_all: Arc<AttackSuite>,
    /// Suite with AP-Attack only.
    pub suite_ap: Arc<AttackSuite>,
    /// The profile store both suites trained through: the AP-only suite
    /// reuses the all-attacks suite's heatmaps instead of rebuilding
    /// them, and every engine built from this context shares the one
    /// set of trained profiles.
    pub store: Arc<ProfileStore>,
    base_lppms: Arc<[Arc<dyn Lppm>]>,
}

impl ExperimentContext {
    /// Generates the dataset at `scale`, splits it chronologically and
    /// trains both attack suites through one shared [`ProfileStore`]
    /// (profiles built once, shared by handle).
    pub fn load(spec: &DatasetSpec, scale: f64) -> Self {
        let spec = if scale < 1.0 {
            spec.scaled(scale)
        } else {
            spec.clone()
        };
        let ds = spec.generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let store = Arc::new(ProfileStore::new());
        let suite_all = Arc::new(AttackSuite::train_with_store(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            &train,
            &store,
        ));
        let suite_ap = Arc::new(AttackSuite::train_with_store(
            &[&ApAttack::paper_default() as &dyn Attack],
            &train,
            &store,
        ));
        let base_lppms: Arc<[Arc<dyn Lppm>]> = Arc::from([
            Arc::new(GeoI::paper_default()) as Arc<dyn Lppm>,
            Arc::new(Trl::paper_default()),
            Arc::new(Hmc::paper_default(&train)),
        ]);
        Self {
            spec,
            train,
            test,
            suite_all,
            suite_ap,
            store,
            base_lppms,
        }
    }

    /// The paper's base LPPM set `[Geo-I, TRL, HMC]` for this context.
    pub fn lppms(&self) -> &[Arc<dyn Lppm>] {
        &self.base_lppms
    }

    /// A MooD engine against the chosen adversary. The LPPM set is
    /// shared by handle — building engines for every adversary ×
    /// config combination never copies the mechanisms.
    pub fn engine(&self, adversary: Adversary) -> MoodEngine {
        let suite = match adversary {
            Adversary::ApOnly => self.suite_ap.clone(),
            Adversary::All => self.suite_all.clone(),
        };
        EngineBuilder::new(suite)
            .lppms_shared(Arc::clone(&self.base_lppms))
            .config(MoodConfig::paper_default())
            .profile_store(Arc::clone(&self.store))
            .build()
            .expect("paper defaults are valid")
    }
}

/// Result of evaluating one mechanism bar on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismOutcome {
    /// Mechanism label ("no-LPPM", "Geo-I", "TRL", "HMC", "HybridLPPM",
    /// "MooD").
    pub mechanism: String,
    /// Users re-identified by the adversary (the figure bars).
    pub non_protected_users: usize,
    /// Data loss (Eq. 7) in percent — records of non-protected users
    /// (for MooD: records erased by fine-grained protection).
    pub data_loss_percent: f64,
    /// Distortion-band counts over protected users (Fig. 9); empty for
    /// the no-LPPM bar.
    pub bands: BTreeMap<String, usize>,
    /// Number of users with a distortion entry (band denominators).
    pub protected_users: usize,
}

/// All figure series for one dataset under one adversary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetFigures {
    /// Dataset name.
    pub dataset: String,
    /// Adversary used.
    pub adversary: Adversary,
    /// Users in the test split.
    pub users: usize,
    /// Records in the test split.
    pub records: usize,
    /// One outcome per mechanism, in the paper's bar order.
    pub mechanisms: Vec<MechanismOutcome>,
    /// Fine-grained per-user stats for the users MooD's composition
    /// search could not protect (Fig. 8).
    pub fine_grained: Vec<FineGrainedRow>,
}

/// One Fig. 8 bar: sub-trace protection for a residual user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineGrainedRow {
    /// The residual user.
    pub user: UserId,
    /// Sub-traces examined.
    pub sub_traces_total: usize,
    /// Sub-traces protected by the composition search.
    pub sub_traces_protected: usize,
    /// Percentage protected.
    pub protected_percent: f64,
}

impl DatasetFigures {
    /// The outcome row for `mechanism`, if present.
    pub fn mechanism(&self, mechanism: &str) -> Option<&MechanismOutcome> {
        self.mechanisms.iter().find(|m| m.mechanism == mechanism)
    }
}

fn band_counts(distortions: &[f64]) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    for b in DistortionBand::all() {
        out.insert(format!("{b:?}"), 0);
    }
    for &d in distortions {
        *out.entry(format!("{:?}", DistortionBand::classify(d)))
            .or_insert(0) += 1;
    }
    out
}

/// A bar from each user's `(records, distortion when protected)`;
/// re-identified users lose their records (Eq. 7).
fn bar(mechanism: &str, users: impl Iterator<Item = (usize, Option<f64>)>) -> MechanismOutcome {
    let (mut unprotected, mut loss, mut distortions) = (0, DataLoss::new(), Vec::new());
    for (records, protected) in users {
        match protected {
            Some(d) => {
                loss.add_kept(records);
                distortions.push(d);
            }
            None => {
                unprotected += 1;
                loss.add_lost(records);
            }
        }
    }
    MechanismOutcome {
        mechanism: mechanism.to_string(),
        non_protected_users: unprotected,
        data_loss_percent: loss.percent(),
        protected_users: distortions.len(),
        bands: band_counts(&distortions),
    }
}

/// Runs the complete per-dataset evaluation: every mechanism bar of
/// Figs. 2/3/6/7/9/10 plus the Fig. 8 fine-grained rows, under the given
/// adversary.
///
/// Every bar reads one unbudgeted MooD run, so all bars of a user see
/// the same noise draw: no-LPPM is the raw check, Geo-I/TRL/HMC are
/// [`MoodEngine::single_candidates`], HybridLPPM picks among those
/// ([`HybridLppm`]), and MooD is the run's report. The paper's orderings
/// (MooD ≤ HybridLPPM ≤ each single LPPM in users and data loss; MooD
/// keeping the most users under each band edge) then hold by
/// construction.
///
/// `threads` parallelizes the per-user work.
pub fn run_figures(
    ctx: &ExperimentContext,
    adversary: Adversary,
    threads: usize,
) -> DatasetFigures {
    let engine = ctx.engine(adversary);
    let executor = ExecutorKind::Persistent.build(threads);
    let report = protect_dataset_with(&engine, &ctx.test, executor.as_ref());
    let traces: Vec<&Trace> = ctx.test.iter().collect();
    let singles = map_indexed(executor.as_ref(), traces.len(), |i| {
        engine.single_candidates(traces[i])
    });
    let hybrid = HybridLppm::paper_default(&engine);

    // Report outcomes and `singles` are both in user order.
    let users = || report.outcomes().iter().zip(&singles);
    // The no-LPPM bar publishes raw traces, undistorted: no bands.
    let raw = users().map(|(o, _)| {
        let natural = o.class == UserClass::NaturallyProtected;
        (o.original_records, natural.then_some(0.0))
    });
    let mut mechanisms = vec![MechanismOutcome {
        bands: BTreeMap::new(),
        protected_users: 0,
        ..bar("no-LPPM", raw)
    }];
    for (i, lppm) in engine.lppms().iter().enumerate() {
        let picks =
            users().map(|(o, s)| (o.original_records, s[i].as_ref().map(|p| p.distortion_m)));
        mechanisms.push(bar(lppm.name(), picks));
    }
    let picks =
        users().map(|(o, s)| (o.original_records, hybrid.select(s).map(|p| p.distortion_m)));
    mechanisms.push(bar("HybridLPPM", picks));
    let distortions: Vec<f64> = report.distortions.iter().map(|d| d.distortion_m).collect();
    mechanisms.push(MechanismOutcome {
        mechanism: "MooD".into(),
        non_protected_users: report.composition_unprotected().len(),
        data_loss_percent: report.data_loss.percent(),
        protected_users: distortions.len(),
        bands: band_counts(&distortions),
    });

    let fine_grained = report
        .fine_grained_stats()
        .into_iter()
        .map(|(user, s)| FineGrainedRow {
            user,
            sub_traces_total: s.sub_traces_total,
            sub_traces_protected: s.sub_traces_protected,
            protected_percent: s.protected_ratio() * 100.0,
        })
        .collect();

    DatasetFigures {
        dataset: ctx.spec.name.clone(),
        adversary,
        users: ctx.test.user_count(),
        records: ctx.test.record_count(),
        mechanisms,
        fine_grained,
    }
}

const USAGE: &str =
    "[--scale X] [--threads N]  (0 < X <= 1, default 1; N >= 1, default: available parallelism)";

/// Parses the experiment binaries' arguments (without the program
/// name): `--scale X` and `--threads N`, returned as `(scale, threads)`.
/// Defaults: scale 1.0 (paper size), threads = available parallelism.
///
/// # Errors
///
/// An unknown flag, a flag without a value, an unparsable value, a
/// scale outside (0, 1] or zero threads — a mistyped flag must never
/// start a paper-scale run.
pub fn parse_options(args: &[String]) -> Result<(f64, usize), String> {
    let mut scale = 1.0f64;
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag != "--scale" && flag != "--threads" {
            return Err(format!("unknown option {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        if flag == "--scale" {
            scale = value.parse().map_err(|_| bad())?;
        } else {
            threads = value.parse().map_err(|_| bad())?;
        }
    }
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok((scale, threads))
}

/// [`parse_options`] over the process's arguments. On an error it prints
/// the error and a usage line to stderr and exits with code 2.
pub fn cli_options() -> (f64, usize) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse_options(&args.collect::<Vec<_>>()).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {program} {USAGE}");
        std::process::exit(2)
    })
}

/// Formats a figure bar table like the paper's per-dataset panels.
pub fn print_bars(figures: &DatasetFigures) {
    println!(
        "--- {} [{:?} adversary] ({} users, {} records) ---",
        figures.dataset, figures.adversary, figures.users, figures.records
    );
    println!(
        "{:<12} {:>14} {:>11}",
        "mechanism", "non-protected", "data-loss"
    );
    for m in &figures.mechanisms {
        println!(
            "{:<12} {:>10} ({:>3.0}%) {:>10.2}%",
            m.mechanism,
            m.non_protected_users,
            m.non_protected_users as f64 / figures.users as f64 * 100.0,
            m.data_loss_percent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_synth::presets;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::load(&presets::privamov_like(), 0.2)
    }

    #[test]
    fn context_splits_cleanly() {
        let ctx = tiny_ctx();
        assert!(ctx.train.user_count() > 0);
        assert_eq!(ctx.train.user_count(), ctx.test.user_count());
        // the split is per-user (each user's first 15 days): check the
        // chronology user by user
        for train_trace in ctx.train.iter() {
            let test_trace = ctx.test.get(train_trace.user()).expect("same users");
            assert!(train_trace.end_time() < test_trace.start_time());
        }
    }

    #[test]
    fn both_suites_train_through_one_store() {
        let ctx = tiny_ctx();
        let counters = ctx.store.counters();
        // Heatmaps, POI profiles and chains each built once; the chain
        // derivation re-fetches the POI profiles and the AP-only suite
        // re-fetches the heatmaps — hits, not rebuilds.
        assert_eq!(counters.misses, 3, "{counters:?}");
        assert_eq!(counters.hits, 2, "{counters:?}");
        // Engines built from the context surface the same counters.
        let engine = ctx.engine(Adversary::ApOnly);
        let store = engine
            .profile_store()
            .expect("context engines share the store");
        assert_eq!(store.counters(), counters);
    }

    #[test]
    fn figures_have_all_bars_in_order() {
        let ctx = tiny_ctx();
        let figures = run_figures(&ctx, Adversary::All, 2);
        let names: Vec<&str> = figures
            .mechanisms
            .iter()
            .map(|m| m.mechanism.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["no-LPPM", "Geo-I", "TRL", "HMC", "HybridLPPM", "MooD"]
        );
    }

    #[test]
    fn mood_bar_dominates_competitors() {
        let ctx = tiny_ctx();
        let figures = run_figures(&ctx, Adversary::All, 2);
        let mood = figures.mechanism("MooD").unwrap();
        for m in &figures.mechanisms {
            if m.mechanism != "MooD" {
                assert!(
                    mood.non_protected_users <= m.non_protected_users,
                    "MooD ({}) worse than {} ({})",
                    mood.non_protected_users,
                    m.mechanism,
                    m.non_protected_users
                );
                assert!(mood.data_loss_percent <= m.data_loss_percent + 1e-9);
            }
        }
    }

    #[test]
    fn ap_only_adversary_is_weaker_or_equal() {
        let ctx = tiny_ctx();
        let all = run_figures(&ctx, Adversary::All, 2);
        let ap = run_figures(&ctx, Adversary::ApOnly, 2);
        assert!(
            ap.mechanism("no-LPPM").unwrap().non_protected_users
                <= all.mechanism("no-LPPM").unwrap().non_protected_users
        );
    }

    #[test]
    fn no_lppm_bar_matches_dataset_evaluation() {
        let ctx = tiny_ctx();
        for (adversary, suite) in [
            (Adversary::ApOnly, &ctx.suite_ap),
            (Adversary::All, &ctx.suite_all),
        ] {
            let figures = run_figures(&ctx, adversary, 2);
            let bar = figures.mechanism("no-LPPM").unwrap();
            let eval = suite.evaluate(&ctx.test);
            assert_eq!(bar.non_protected_users, eval.non_protected_count());
            assert_eq!(
                bar.data_loss_percent.to_bits(),
                (eval.data_loss_ratio() * 100.0).to_bits(),
                "{adversary:?}"
            );
        }
    }

    fn parse(args: &[&str]) -> Result<(f64, usize), String> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn options_default_to_paper_scale_on_every_core() {
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(parse(&[]), Ok((1.0, cores)));
        assert_eq!(parse(&["--scale", "0.2"]), Ok((0.2, cores)));
        assert_eq!(parse(&["--threads", "3", "--scale", "1"]), Ok((1.0, 3)));
    }

    #[test]
    fn options_reject_what_they_cannot_honour() {
        for (args, error) in [
            (&["--scal", "0.2"][..], "unknown option \"--scal\""),
            (&["0.2"], "unknown option \"0.2\""),
            (&["--scale"], "--scale needs a value"),
            (&["--threads"], "--threads needs a value"),
            (&["--scale", "0,2"], "--scale: cannot parse \"0,2\""),
            (&["--threads", "two"], "--threads: cannot parse \"two\""),
            (&["--threads", "-1"], "--threads: cannot parse \"-1\""),
            (&["--scale", "0"], "--scale must be in (0, 1], got 0"),
            (&["--scale", "1.5"], "--scale must be in (0, 1], got 1.5"),
            (&["--scale", "NaN"], "--scale must be in (0, 1], got NaN"),
            (&["--threads", "0"], "--threads must be at least 1"),
        ] {
            assert_eq!(parse(args), Err(error.to_string()), "{args:?}");
        }
    }

    #[test]
    fn serializable_results() {
        let ctx = tiny_ctx();
        let figures = run_figures(&ctx, Adversary::All, 2);
        let json = serde_json::to_string(&figures).unwrap();
        let back: DatasetFigures = serde_json::from_str(&json).unwrap();
        assert_eq!(figures, back);
    }
}
