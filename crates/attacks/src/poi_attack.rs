use std::sync::Arc;

use mood_models::{kernels, PoiExtractor, PoiProfile};
use mood_trace::{Dataset, Trace, UserId};

use crate::{Attack, AttackScratch, Prediction, ProfileSet, ProfileStore, TrainedAttack};

/// POI-Attack (Primault et al. 2014, the paper's \[27\]): profiles are POI
/// sets; the similarity between an anonymous profile and a candidate is
/// the weighted mean geographic distance from each anonymous POI to the
/// candidate's nearest POI.
///
/// Configuration follows the paper (§4.1.1): POIs are extracted with a
/// 200 m cluster diameter and a 1 h minimum dwell.
///
/// The attack **abstains** on traces from which no POI can be extracted
/// (constantly moving or heavily obfuscated traces) — abstention counts
/// as a failed re-identification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoiAttack {
    extractor: PoiExtractor,
}

impl PoiAttack {
    /// Creates a POI-Attack with a custom extractor.
    pub fn new(extractor: PoiExtractor) -> Self {
        Self { extractor }
    }

    /// The paper's configuration: 200 m diameter, 1 h dwell.
    pub fn paper_default() -> Self {
        Self::new(PoiExtractor::paper_default())
    }

    /// The POI extractor in use.
    pub fn extractor(&self) -> &PoiExtractor {
        &self.extractor
    }
}

impl Attack for PoiAttack {
    fn name(&self) -> &'static str {
        "POI-Attack"
    }

    fn train_with(&self, background: &Dataset, store: &ProfileStore) -> Box<dyn TrainedAttack> {
        assert!(!background.is_empty(), "background knowledge is empty");
        Box::new(TrainedPoiAttack {
            extractor: self.extractor,
            profiles: store.poi_profiles(background, &self.extractor),
        })
    }
}

struct TrainedPoiAttack {
    extractor: PoiExtractor,
    profiles: Arc<ProfileSet<PoiProfile>>,
}

/// Weighted mean distance from each POI of `anon` to the nearest POI of
/// `candidate`; infinite when the candidate has no POIs. This is the
/// scalar reference walk — the hot path scores through the bit-identical
/// SoA kernel ([`kernels::weighted_nearest_bounded`]), and the
/// scratch-vs-predict parity tests gate the two against each other.
fn profile_distance(anon: &PoiProfile, candidate: &PoiProfile) -> f64 {
    if candidate.is_empty() {
        return f64::INFINITY;
    }
    let weights = anon.weights();
    let mut sum = 0.0;
    for (poi, w) in anon.pois().iter().zip(weights.iter()) {
        let nearest = candidate
            .pois()
            .iter()
            .map(|c| poi.centroid.approx_distance(&c.centroid))
            .fold(f64::INFINITY, f64::min);
        sum += w * nearest;
    }
    sum
}

impl TrainedAttack for TrainedPoiAttack {
    fn name(&self) -> &'static str {
        "POI-Attack"
    }

    fn predict(&self, trace: &Trace) -> Prediction {
        let anon = self.extractor.extract_profile(trace);
        if anon.is_empty() {
            return Prediction::none();
        }
        let scores: Vec<(UserId, f64)> = self
            .profiles
            .iter()
            .map(|(user, profile, _)| (user, profile_distance(&anon, profile)))
            .collect();
        Prediction::from_scores(scores)
    }

    /// Scratch path: stays, the anonymous profile and its weights come
    /// from the worker's buffers (the profile via the shared POI/PIT
    /// cache), and candidate matching streams the trained profiles' SoA
    /// centroid arrays through the two-phase nearest kernel, pruning
    /// every other profile with the true user's own distance as a fixed
    /// bound (verdict equivalence with `predict` is
    /// [`crate::scratch::true_user_wins`]' contract; the kernel is
    /// bit-identical to the scalar walk by `mood_models::kernels`'
    /// proptests).
    fn reidentify_with(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        let AttackScratch {
            poi,
            weights,
            poi_beater,
            ..
        } = scratch;
        let profile = poi.profile_for(&self.extractor, trace);
        if profile.is_empty() {
            return false; // predict abstains
        }
        profile.weights_into(weights);
        let centroids = self.profiles.centroids();
        crate::scratch::true_user_wins(
            self.profiles.users(),
            true_user,
            poi_beater,
            |i, bound, _| {
                kernels::weighted_nearest_bounded(
                    profile.pois(),
                    weights,
                    &centroids[i],
                    Some(bound),
                    1.0,
                )
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

    /// A user dwelling at (lat, lng) for `hours`, records every 10 min.
    fn dwell_trace(user: u64, lat: f64, lng: f64, hours: i64, t0: i64) -> Trace {
        let records: Vec<Record> = (0..hours * 6)
            .map(|i| rec(lat, lng, t0 + i * 600))
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn background() -> Dataset {
        Dataset::from_traces([
            dwell_trace(1, 46.16, 6.06, 8, 0),
            dwell_trace(2, 46.25, 6.20, 8, 0),
        ])
        .unwrap()
    }

    #[test]
    fn matches_by_poi_location() {
        let trained = PoiAttack::paper_default().train(&background());
        let anon = dwell_trace(99, 46.1601, 6.0601, 4, 500_000);
        let p = trained.predict(&anon);
        assert_eq!(p.predicted, Some(UserId::new(1)));
    }

    #[test]
    fn abstains_without_pois() {
        let trained = PoiAttack::paper_default().train(&background());
        // constantly moving trace: no dwell -> no POI
        let records: Vec<Record> = (0..30)
            .map(|i| rec(46.0 + i as f64 * 0.005, 6.0, i * 600))
            .collect();
        let anon = Trace::new(UserId::new(99), records).unwrap();
        assert_eq!(trained.predict(&anon), Prediction::none());
    }

    #[test]
    fn candidate_without_pois_gets_infinite_distance() {
        // user 3 constantly moves -> empty profile
        let moving: Vec<Record> = (0..30)
            .map(|i| rec(46.0 + i as f64 * 0.005, 6.0, i * 600))
            .collect();
        let mut bg = background();
        bg.insert(Trace::new(UserId::new(3), moving).unwrap())
            .unwrap();
        let trained = PoiAttack::paper_default().train(&bg);
        let anon = dwell_trace(99, 46.1601, 6.0601, 4, 500_000);
        let p = trained.predict(&anon);
        assert_eq!(p.predicted, Some(UserId::new(1)));
        let score3 = p.scores.iter().find(|(u, _)| *u == UserId::new(3)).unwrap();
        assert_eq!(score3.1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "background knowledge is empty")]
    fn train_rejects_empty_background() {
        PoiAttack::paper_default().train(&Dataset::new());
    }

    #[test]
    fn weighted_distance_prefers_heavier_pois() {
        // anon user spends most time near user 1's place and a little
        // near user 2's -> weights should pull toward user 1
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(rec(46.1602, 6.0602, i * 600)); // ~6.6 h
        }
        for i in 0..8 {
            records.push(rec(46.2502, 6.2002, 40 * 600 + i * 600)); // ~1.3 h
        }
        let anon = Trace::new(UserId::new(99), records).unwrap();
        let trained = PoiAttack::paper_default().train(&background());
        assert_eq!(trained.predict(&anon).predicted, Some(UserId::new(1)));
    }
}
