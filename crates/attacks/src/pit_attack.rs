use std::sync::Arc;

use mood_models::{kernels, CentroidSoa, MarkovChain, PoiExtractor};
use mood_trace::{Dataset, Trace, UserId};

use crate::{Attack, AttackScratch, Prediction, ProfileSet, ProfileStore, TrainedAttack};

/// PIT-Attack (Gambs et al. 2014, the paper's \[16\]): profiles are
/// Mobility Markov Chains; chains are compared with the **stats-prox**
/// distance, the average of a *stationary* distance and a *proximity*
/// distance (the combination the original paper found most effective).
///
/// Our stats-prox rendition:
///
/// * **stationary** — Σᵢ π_a(i) · d(state_aᵢ, nearest state of b): the
///   expected geographic distance from where the anonymous chain spends
///   its time to the candidate's closest place, weighted by the
///   anonymous chain's stationary distribution;
/// * **proximity** — rank-weighted distance between same-rank states of
///   the two chains (states are ordered by weight): Σₖ d(aₖ, bₖ)/(k+1)
///   normalised by Σₖ 1/(k+1), over the common top-5 ranks.
///
/// Both terms are in meters; stats-prox is their mean. The attack
/// abstains when the anonymous trace yields an empty chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PitAttack {
    extractor: PoiExtractor,
    top_k: usize,
}

impl PitAttack {
    /// Creates a PIT-Attack with a custom POI extractor and proximity
    /// depth (`top_k` ranked states compared).
    ///
    /// # Panics
    ///
    /// Panics when `top_k` is zero.
    pub fn new(extractor: PoiExtractor, top_k: usize) -> Self {
        assert!(top_k > 0, "top_k must be positive");
        Self { extractor, top_k }
    }

    /// The paper's configuration: 200 m POI diameter, 1 h dwell, top-5
    /// proximity.
    pub fn paper_default() -> Self {
        Self::new(PoiExtractor::paper_default(), 5)
    }
}

impl Attack for PitAttack {
    fn name(&self) -> &'static str {
        "PIT-Attack"
    }

    fn train_with(&self, background: &Dataset, store: &ProfileStore) -> Box<dyn TrainedAttack> {
        assert!(!background.is_empty(), "background knowledge is empty");
        Box::new(TrainedPitAttack {
            extractor: self.extractor,
            top_k: self.top_k,
            profiles: store.markov_chains(background, &self.extractor),
        })
    }
}

struct TrainedPitAttack {
    extractor: PoiExtractor,
    top_k: usize,
    profiles: Arc<ProfileSet<MarkovChain>>,
}

/// The stationary term of [`stats_prox`]: each anonymous state's
/// nearest candidate centroid, weighted by its stationary probability.
/// The scoring path streams the same sum through the SoA kernel in
/// [`stats_prox_bounded_soa`] so pruning can check after each term.
fn stationary_distance(anon: &MarkovChain, cand: &MarkovChain) -> f64 {
    let pi = anon.stationary();
    let mut sum = 0.0;
    for (i, a_state) in anon.states().iter().enumerate() {
        let nearest = cand
            .states()
            .iter()
            .map(|c| a_state.centroid.approx_distance(&c.centroid))
            .fold(f64::INFINITY, f64::min);
        sum += pi[i] * nearest;
    }
    sum
}

fn proximity_distance(anon: &MarkovChain, cand: &MarkovChain, top_k: usize) -> f64 {
    let depth = top_k.min(anon.state_count()).min(cand.state_count());
    if depth == 0 {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    let mut norm = 0.0;
    for k in 0..depth {
        let w = 1.0 / (k as f64 + 1.0);
        sum += w * anon.states()[k]
            .centroid
            .approx_distance(&cand.states()[k].centroid);
        norm += w;
    }
    sum / norm
}

/// The scalar reference stats-prox — the hot path scores through the
/// bit-identical SoA kernel ([`stats_prox_bounded_soa`]), and the
/// scratch-vs-predict parity tests gate the two against each other.
fn stats_prox(anon: &MarkovChain, cand: &MarkovChain, top_k: usize) -> f64 {
    if cand.is_empty() {
        return f64::INFINITY;
    }
    0.5 * stationary_distance(anon, cand) + 0.5 * proximity_distance(anon, cand, top_k)
}

/// [`stats_prox`] with best-bound pruning on the stationary half, which
/// streams the candidate's SoA state centroids through the two-phase
/// nearest kernel: its terms (`π_i × nearest distance`) are
/// non-negative, so the partial sum is monotone and `0.5 × partial`
/// already exceeding `bound` proves the full stats-prox (which only
/// adds the non-negative proximity half) would too — pruning is exact,
/// and a returned score is bit-identical to the unbounded scalar
/// computation (the kernel's contract, pinned by `mood_models::kernels`
/// proptests).
fn stats_prox_bounded_soa(
    anon: &MarkovChain,
    cand: &MarkovChain,
    cand_centroids: &CentroidSoa,
    top_k: usize,
    bound: f64,
) -> Option<f64> {
    if cand.is_empty() {
        return Some(f64::INFINITY);
    }
    let pi = anon.stationary();
    let sum =
        kernels::weighted_nearest_bounded(anon.states(), pi, cand_centroids, Some(bound), 0.5)?;
    Some(0.5 * sum + 0.5 * proximity_distance(anon, cand, top_k))
}

impl TrainedAttack for TrainedPitAttack {
    fn name(&self) -> &'static str {
        "PIT-Attack"
    }

    fn predict(&self, trace: &Trace) -> Prediction {
        let profile = self.extractor.extract_profile(trace);
        let anon = MarkovChain::from_profile(&profile);
        if anon.is_empty() {
            return Prediction::none();
        }
        let scores: Vec<(UserId, f64)> = self
            .profiles
            .iter()
            .map(|(user, cand, _)| (user, stats_prox(&anon, cand, self.top_k)))
            .collect();
        Prediction::from_scores(scores)
    }

    /// Scratch path: stays, the anonymous profile (via the shared
    /// POI/PIT cache) and its Markov chain are rebuilt into the
    /// worker's buffers, and every other candidate is pruned on the
    /// stationary half under the true user's own stats-prox score as a
    /// fixed bound (verdict equivalence with `predict` is
    /// [`crate::scratch::true_user_wins`]' contract).
    fn reidentify_with(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        let AttackScratch {
            poi,
            chain,
            pit_beater,
            ..
        } = scratch;
        let profile = poi.profile_for(&self.extractor, trace);
        chain.rebuild_from_profile(profile);
        if chain.is_empty() {
            return false; // predict abstains
        }
        let (chains, centroids) = (self.profiles.profiles(), self.profiles.centroids());
        crate::scratch::true_user_wins(
            self.profiles.users(),
            true_user,
            pit_beater,
            |i, bound, _| {
                stats_prox_bounded_soa(chain, &chains[i], &centroids[i], self.top_k, bound)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, Timestamp};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    /// Alternating 2 h blocks between `a` and `b` -> two-state MMC.
    fn commuter(user: u64, a: (f64, f64), b: (f64, f64), t0: i64) -> Trace {
        let mut records = Vec::new();
        for block in 0..8i64 {
            let (lat, lng) = if block % 2 == 0 { a } else { b };
            for i in 0..12 {
                records.push(rec(lat, lng, t0 + block * 7200 + i * 600));
            }
        }
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn background() -> Dataset {
        Dataset::from_traces([
            commuter(1, (46.16, 6.06), (46.18, 6.09), 0),
            commuter(2, (46.25, 6.20), (46.23, 6.17), 0),
        ])
        .unwrap()
    }

    #[test]
    fn matches_same_commute_pattern() {
        let trained = PitAttack::paper_default().train(&background());
        let anon = commuter(99, (46.1601, 6.0601), (46.1801, 6.0901), 1_000_000);
        assert_eq!(trained.predict(&anon).predicted, Some(UserId::new(1)));
    }

    #[test]
    fn abstains_without_chain() {
        let trained = PitAttack::paper_default().train(&background());
        let moving: Vec<Record> = (0..30)
            .map(|i| rec(46.0 + i as f64 * 0.005, 6.0, i * 600))
            .collect();
        let anon = Trace::new(UserId::new(99), moving).unwrap();
        assert_eq!(trained.predict(&anon), Prediction::none());
    }

    #[test]
    fn stationary_distance_zero_for_same_places() {
        let e = PoiExtractor::paper_default();
        let t = commuter(1, (46.16, 6.06), (46.18, 6.09), 0);
        let mmc = MarkovChain::from_profile(&e.extract_profile(&t));
        assert!(stationary_distance(&mmc, &mmc) < 1.0);
        assert!(proximity_distance(&mmc, &mmc, 5) < 1.0);
    }

    #[test]
    fn stats_prox_orders_candidates_geographically() {
        let e = PoiExtractor::paper_default();
        let anon = MarkovChain::from_profile(&e.extract_profile(&commuter(
            9,
            (46.16, 6.06),
            (46.18, 6.09),
            0,
        )));
        let near = MarkovChain::from_profile(&e.extract_profile(&commuter(
            1,
            (46.161, 6.061),
            (46.181, 6.091),
            0,
        )));
        let far = MarkovChain::from_profile(&e.extract_profile(&commuter(
            2,
            (46.25, 6.20),
            (46.23, 6.17),
            0,
        )));
        assert!(stats_prox(&anon, &near, 5) < stats_prox(&anon, &far, 5));
    }

    #[test]
    fn empty_candidate_is_infinite() {
        let e = PoiExtractor::paper_default();
        let anon = MarkovChain::from_profile(&e.extract_profile(&commuter(
            9,
            (46.16, 6.06),
            (46.18, 6.09),
            0,
        )));
        let empty = MarkovChain::from_profile(&mood_models::PoiProfile::from_stays(&[], 200.0));
        assert_eq!(stats_prox(&anon, &empty, 5), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "top_k must be positive")]
    fn rejects_zero_top_k() {
        PitAttack::new(PoiExtractor::paper_default(), 0);
    }

    #[test]
    #[should_panic(expected = "background knowledge is empty")]
    fn train_rejects_empty_background() {
        PitAttack::paper_default().train(&Dataset::new());
    }
}
