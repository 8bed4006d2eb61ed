//! Experiment harness reproducing every table and figure of the MooD
//! paper's evaluation (§4).
//!
//! Each `exp_*` binary regenerates one table or figure; this library
//! holds the shared machinery:
//!
//! * [`ExperimentContext`] — dataset generation, the 15/15-day
//!   chronological split, trained attack suites and the MooD engine;
//! * [`run_figures`] — the full per-dataset evaluation: every mechanism
//!   bar (no-LPPM, Geo-I, TRL, HMC, HybridLPPM, MooD) with non-protected
//!   user counts, data loss, and distortion bands;
//! * serializable result rows for EXPERIMENTS.md.
//!
//! Experiments accept a `scale` factor (1.0 = paper-scale synthetic
//! datasets; smaller for quick runs and CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack, ProfileStore};
use mood_core::{
    protect_dataset, EngineBuilder, HybridLppm, MoodConfig, MoodEngine, ProtectionReport,
};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_metrics::{spatio_temporal_distortion, DistortionBand};
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

    /// The suite for the chosen adversary.
    pub fn suite(&self, adversary: Adversary) -> &AttackSuite {
        match adversary {
            Adversary::ApOnly => &self.suite_ap,
            Adversary::All => &self.suite_all,
        }
    }

    /// Applies `lppm` to every test trace with a deterministic per-user
    /// RNG and returns the protected dataset (original user IDs kept as
    /// ground truth).
    pub fn protect_all(&self, lppm: &dyn Lppm) -> Dataset {
        let traces: Vec<Trace> = self
            .test
            .iter()
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(
                    0xBE11 ^ t.user().as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                lppm.protect(t, &mut rng)
            })
            .collect();
        Dataset::from_traces(traces).expect("user ids preserved")
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

/// Runs the complete per-dataset evaluation: every mechanism bar of
/// Figs. 2/3/6/7/9/10 plus the Fig. 8 fine-grained rows, under the given
/// adversary.
///
/// `threads` parallelizes MooD's per-user protection.
pub fn run_figures(
    ctx: &ExperimentContext,
    adversary: Adversary,
    threads: usize,
) -> DatasetFigures {
    let suite = ctx.suite(adversary);
    let mut mechanisms = Vec::new();

    // --- no-LPPM bar ---
    let eval = suite.evaluate(&ctx.test);
    mechanisms.push(MechanismOutcome {
        mechanism: "no-LPPM".into(),
        non_protected_users: eval.non_protected_count(),
        data_loss_percent: eval.data_loss_ratio() * 100.0,
        bands: BTreeMap::new(),
        protected_users: 0,
    });

    // --- single LPPM bars ---
    for lppm in ctx.lppms() {
        let protected = ctx.protect_all(lppm.as_ref());
        let eval = suite.evaluate(&protected);
        let non_protected: std::collections::BTreeSet<UserId> =
            eval.non_protected_users.iter().copied().collect();
        // data loss counts ORIGINAL records of non-protected users
        let lost: usize = ctx
            .test
            .iter()
            .filter(|t| non_protected.contains(&t.user()))
            .map(Trace::len)
            .sum();
        let distortions: Vec<f64> = ctx
            .test
            .iter()
            .filter(|t| !non_protected.contains(&t.user()))
            .map(|t| {
                let p = protected.get(t.user()).expect("same users");
                spatio_temporal_distortion(t, p)
            })
            .collect();
        mechanisms.push(MechanismOutcome {
            mechanism: lppm.name().to_string(),
            non_protected_users: eval.non_protected_count(),
            data_loss_percent: lost as f64 / ctx.test.record_count() as f64 * 100.0,
            protected_users: distortions.len(),
            bands: band_counts(&distortions),
        });
    }

    // --- HybridLPPM bar ---
    let engine = ctx.engine(adversary);
    let hybrid = HybridLppm::paper_default(&engine);
    let mut hybrid_lost = 0usize;
    let mut hybrid_unprotected = 0usize;
    let mut hybrid_distortions = Vec::new();
    for trace in ctx.test.iter() {
        match hybrid.protect_user(trace, suite) {
            Some(p) => hybrid_distortions.push(p.distortion_m),
            None => {
                hybrid_unprotected += 1;
                hybrid_lost += trace.len();
            }
        }
    }
    mechanisms.push(MechanismOutcome {
        mechanism: "HybridLPPM".into(),
        non_protected_users: hybrid_unprotected,
        data_loss_percent: hybrid_lost as f64 / ctx.test.record_count() as f64 * 100.0,
        protected_users: hybrid_distortions.len(),
        bands: band_counts(&hybrid_distortions),
    });

    // --- MooD bar ---
    let report = protect_dataset(&engine, &ctx.test, threads);
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

/// Runs MooD alone and returns the full protection report (used by the
/// Fig. 8/10 binaries and the examples).
pub fn run_mood(ctx: &ExperimentContext, adversary: Adversary, threads: usize) -> ProtectionReport {
    let engine = ctx.engine(adversary);
    protect_dataset(&engine, &ctx.test, threads)
}

/// Parses `--scale X` and `--threads N` style CLI arguments for the
/// experiment binaries (defaults: scale 1.0, threads = available
/// parallelism).
pub fn cli_options() -> (f64, usize) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = 1.0f64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(1.0);
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                threads = args[i + 1].parse().unwrap_or(threads);
                i += 2;
            }
            _ => i += 1,
        }
    }
    (scale.clamp(0.001, 1.0), threads.max(1))
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
        assert_eq!(engine.profile_store_counters(), counters);
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
    fn serializable_results() {
        let ctx = tiny_ctx();
        let figures = run_figures(&ctx, Adversary::All, 2);
        let json = serde_json::to_string(&figures).unwrap();
        let back: DatasetFigures = serde_json::from_str(&json).unwrap();
        assert_eq!(figures, back);
    }
}
