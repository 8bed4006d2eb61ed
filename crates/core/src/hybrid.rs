use mood_trace::Trace;

use crate::{MoodEngine, ProtectedTrace};

/// The HybridLPPM baseline (Maouche et al. 2017, the paper's \[22\], with
/// the paper's §4.1.2 variation): a *user-centric single-LPPM* selector.
///
/// Mechanisms are ordered by the data distortion they cause; for each
/// user the first mechanism in the order that defeats **all** attacks is
/// selected. Users no single mechanism protects stay unprotected — those
/// are exactly the orphan users MooD is built for.
///
/// The order ranks an engine's base LPPM set, and the candidates are the
/// engine's own single-stage draws ([`MoodEngine::single_candidates`]).
/// HybridLPPM therefore protects exactly the union of the users each
/// single LPPM protects, on the same noise MooD's single stage scores.
///
/// The paper's order is `HMC → Geo-I → TRL` (least to most degrading in
/// their measurements).
///
/// # Examples
///
/// ```
/// use mood_core::{HybridLppm, MoodEngine};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = MoodEngine::paper_default(&background);
/// let hybrid = HybridLppm::paper_default(&engine);
/// let trace = test.iter().next().unwrap();
/// let _maybe_protected = hybrid.protect_user(&engine, trace);
/// ```
pub struct HybridLppm {
    order: Vec<usize>,
}

impl HybridLppm {
    /// Creates a HybridLPPM trying the base LPPMs at indices `order`
    /// first to last.
    ///
    /// # Panics
    ///
    /// Panics when `order` is empty.
    pub fn new(order: Vec<usize>) -> Self {
        assert!(!order.is_empty(), "hybrid needs at least one LPPM");
        Self { order }
    }

    /// The paper's order HMC → Geo-I → TRL over `engine`'s base set,
    /// which must be the paper's `[Geo-I, TRL, HMC]` (as built by
    /// [`MoodEngine::paper_default`]).
    pub fn paper_default(engine: &MoodEngine) -> Self {
        assert_eq!(
            engine.lppms().len(),
            3,
            "paper hybrid expects the 3-LPPM base set"
        );
        Self::new(vec![2, 0, 1])
    }

    /// Base-set indices in preference order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The first resilient entry, in preference order, of `singles` —
    /// a user's [`MoodEngine::single_candidates`]. `None` for orphan
    /// users (no single mechanism works).
    pub fn select<'a>(&self, singles: &'a [Option<ProtectedTrace>]) -> Option<&'a ProtectedTrace> {
        self.order.iter().find_map(|&i| singles[i].as_ref())
    }

    /// Protects one user with `engine`'s single-stage draws: the first
    /// mechanism in the order whose output defeats every attack of the
    /// engine's suite wins. Returns `None` for orphan users.
    pub fn protect_user(&self, engine: &MoodEngine, trace: &Trace) -> Option<ProtectedTrace> {
        self.select(&engine.single_candidates(trace)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_trace::TimeDelta;

    fn mini_world() -> (mood_trace::Dataset, mood_trace::Dataset) {
        let ds = mood_synth::presets::privamov_like().scaled(0.25).generate();
        ds.split_chronological(TimeDelta::from_days(15))
    }

    #[test]
    fn paper_order_is_hmc_geoi_trl() {
        let (bg, _) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let hybrid = HybridLppm::paper_default(&engine);
        let names: Vec<&str> = hybrid
            .order()
            .iter()
            .map(|&i| engine.lppms()[i].name())
            .collect();
        assert_eq!(names, vec!["HMC", "Geo-I", "TRL"]);
    }

    #[test]
    fn protected_output_resists_suite() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let hybrid = HybridLppm::paper_default(&engine);
        for trace in test.iter().take(6) {
            if let Some(p) = hybrid.protect_user(&engine, trace) {
                assert!(engine.suite().protects(&p.trace, trace.user()));
                assert!(["HMC", "Geo-I", "TRL"].contains(&p.lppm.as_str()));
            }
        }
    }

    #[test]
    fn hybrid_never_beats_mood_at_dataset_level() {
        // Both read the engine's single-stage draws, so the claim holds
        // user by user: MooD's single stage keeps the least distortion
        // among the very candidates HybridLPPM picks from.
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let hybrid = HybridLppm::paper_default(&engine);
        for trace in test.iter() {
            if let Some(h) = hybrid.protect_user(&engine, trace) {
                let mood = engine
                    .search_single(trace)
                    .unwrap_or_else(|| panic!("hybrid protects {}, MooD does not", trace.user()));
                assert!(
                    mood.distortion_m <= h.distortion_m,
                    "{}: MooD {} m, hybrid {} m",
                    trace.user(),
                    mood.distortion_m,
                    h.distortion_m
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let hybrid = HybridLppm::paper_default(&engine);
        let trace = test.iter().next().unwrap();
        assert_eq!(
            hybrid.protect_user(&engine, trace),
            hybrid.protect_user(&engine, trace)
        );
    }

    #[test]
    #[should_panic(expected = "at least one LPPM")]
    fn rejects_empty_order() {
        HybridLppm::new(vec![]);
    }
}
