//! User re-identification attacks (paper §2.2 and §4.1.1).
//!
//! A re-identification attack works in two phases: a **training phase**
//! building a mobility profile per known user from background knowledge
//! `H`, and an **attack phase** matching an anonymous (possibly
//! obfuscated) trace against the learned profiles:
//!
//! ```text
//! A : (R² × R⁺)* → U,   T ↦ A(T, H) = u
//! ```
//!
//! Three state-of-the-art attacks are implemented, matching the paper's
//! §4.1.1 configuration:
//!
//! * [`PoiAttack`] (Primault et al. 2014) — profiles are POI sets;
//!   similarity is geographic distance between POIs (200 m clusters, 1 h
//!   dwell);
//! * [`PitAttack`] (Gambs et al. 2014) — profiles are Mobility Markov
//!   Chains compared by the *stats-prox* distance (stationary +
//!   proximity);
//! * [`ApAttack`] (Maouche et al. 2017) — profiles are heatmaps over
//!   800 m cells compared by Topsoe divergence; the strongest known
//!   attack.
//!
//! The [`Attack`]/[`TrainedAttack`] traits let MooD treat attacks as
//! plug-ins; [`AttackSuite`] trains a set of them at once and answers the
//! question the engine asks: *does at least one attack re-identify this
//! trace?*
//!
//! # Examples
//!
//! ```
//! use mood_attacks::{ApAttack, Attack, AttackSuite};
//! use mood_synth::presets;
//! use mood_trace::TimeDelta;
//!
//! let ds = presets::privamov_like().scaled(0.15).generate();
//! let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
//! let suite = AttackSuite::train(&[&ApAttack::paper_default()], &train);
//! let trace = test.iter().next().unwrap();
//! // raw traces of distinct users are usually re-identified
//! let prediction = suite.attacks()[0].predict(trace);
//! assert!(prediction.predicted.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ap_attack;
mod evaluation;
mod pit_attack;
mod poi_attack;
mod prediction;
mod scratch;
mod store;

pub use ap_attack::ApAttack;
pub use evaluation::{AttackSuite, DatasetEvaluation};
pub use pit_attack::PitAttack;
pub use poi_attack::PoiAttack;
pub use prediction::Prediction;
pub use scratch::AttackScratch;
pub use store::{ChainSet, PoiProfileSet, ProfileStore, StoreCounters};

use mood_trace::{Dataset, Trace};

/// An untrained re-identification attack: configuration plus the
/// knowledge of how to build profiles.
pub trait Attack {
    /// Short attack name ("AP-Attack", "POI-Attack", "PIT-Attack").
    fn name(&self) -> &'static str;

    /// Trains the attack on background knowledge (the adversary's
    /// non-obfuscated past traces, one per known user).
    ///
    /// # Panics
    ///
    /// Implementations panic when `background` is empty — an attack with
    /// no candidates is a configuration error.
    fn train(&self, background: &Dataset) -> Box<dyn TrainedAttack>;

    /// [`Attack::train`] through a shared [`ProfileStore`]: profile sets
    /// already interned for `(background, this attack's parameters)` are
    /// reused instead of rebuilt, so suites, tenants and engine
    /// templates over the same background knowledge train once.
    ///
    /// The contract is strict training equivalence: the trained attack
    /// must be byte-identical (verdicts *and* profiles) to what
    /// [`Attack::train`] produces — store hits are full-compare verified,
    /// never fingerprint-trusted. The default implementation ignores the
    /// store, so third-party attacks stay correct without opting in.
    fn train_with(&self, background: &Dataset, store: &ProfileStore) -> Box<dyn TrainedAttack> {
        let _ = store;
        self.train(background)
    }
}

/// A trained attack, ready to re-identify anonymous traces.
pub trait TrainedAttack: Send + Sync {
    /// Short attack name, same as the untrained attack's.
    fn name(&self) -> &'static str;

    /// Matches an anonymous trace against the learned profiles.
    ///
    /// Returns [`Prediction::none`] when no profile can be built from the
    /// trace (e.g. no POIs) — the attack abstains, which counts as a
    /// failed re-identification.
    fn predict(&self, trace: &Trace) -> Prediction;

    /// `true` when the attack links `trace` back to `true_user`.
    /// (MooD knows the ground truth, paper §4.4.)
    fn re_identifies(&self, trace: &Trace, true_user: mood_trace::UserId) -> bool {
        self.predict(trace).predicted == Some(true_user)
    }

    /// Scratch-aware [`TrainedAttack::re_identifies`]: the only verdict
    /// route in production, building per-trace features into the
    /// caller's reusable per-worker buffers instead of fresh
    /// allocations. It answers the yes/no question directly instead of
    /// computing the full arg-min: the native attacks score the true
    /// user's profile first and prune every other profile under that
    /// score as an *exact* bound, stopping at the first one that beats
    /// it.
    ///
    /// The contract is strict verdict equivalence: for every `(trace,
    /// true_user)` this must return exactly what `re_identifies`
    /// returns — the scratch changes how features are computed, never
    /// what they evaluate to (see [`AttackScratch`] for the full
    /// determinism obligations). The default implementation falls back
    /// to `re_identifies`, so third-party attacks stay correct without
    /// opting in.
    fn reidentify_with(
        &self,
        trace: &Trace,
        true_user: mood_trace::UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        let _ = scratch;
        self.re_identifies(trace, true_user)
    }
}
