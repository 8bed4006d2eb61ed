use std::sync::Arc;

use mood_models::{Heatmap, HeatmapSet};
use mood_trace::{Dataset, Trace, UserId};

use crate::{Attack, AttackScratch, Prediction, ProfileStore, TrainedAttack};

/// AP-Attack (Maouche et al. 2017, the paper's \[22\]): heatmap profiles
/// over a uniform grid, compared with the Topsoe divergence.
///
/// The paper calls AP-Attack "the most powerful attack currently known"
/// and uses it alone in the single-attack experiment (Fig. 6). Its one
/// parameter is the grid cell size, 800 m by default (§4.1.1).
///
/// # Examples
///
/// ```
/// use mood_attacks::{ApAttack, Attack, TrainedAttack};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let trained = ApAttack::paper_default().train(&train);
/// let victim = test.iter().next().unwrap();
/// let prediction = trained.predict(victim);
/// assert!(!prediction.scores.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApAttack {
    cell_size_m: f64,
}

impl ApAttack {
    /// Creates an AP-Attack with the given heatmap cell size.
    ///
    /// # Panics
    ///
    /// Panics when `cell_size_m` is not strictly positive and finite.
    pub fn new(cell_size_m: f64) -> Self {
        assert!(
            cell_size_m.is_finite() && cell_size_m > 0.0,
            "cell size must be positive"
        );
        Self { cell_size_m }
    }

    /// The paper's configuration: 800 m cells.
    pub fn paper_default() -> Self {
        Self::new(800.0)
    }

    /// Configured cell size in meters.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }
}

impl Attack for ApAttack {
    fn name(&self) -> &'static str {
        "AP-Attack"
    }

    fn train_with(&self, background: &Dataset, store: &ProfileStore) -> Box<dyn TrainedAttack> {
        assert!(!background.is_empty(), "background knowledge is empty");
        Box::new(TrainedApAttack {
            profiles: store.heatmaps(background, self.cell_size_m),
        })
    }
}

struct TrainedApAttack {
    profiles: Arc<HeatmapSet>,
}

impl TrainedAttack for TrainedApAttack {
    fn name(&self) -> &'static str {
        "AP-Attack"
    }

    fn predict(&self, trace: &Trace) -> Prediction {
        let anon = Heatmap::from_trace(self.profiles.grid(), trace);
        if anon.is_empty() {
            return Prediction::none();
        }
        let scores: Vec<(UserId, f64)> = self
            .profiles
            .iter()
            .map(|(user, profile)| {
                let d = anon.topsoe(profile).unwrap_or(f64::INFINITY);
                (user, d)
            })
            .collect();
        Prediction::from_scores(scores)
    }

    /// Scratch path: the heatmap is rebuilt into the worker's buffer
    /// straight from the trace's records, and every
    /// other profile is matched under the true user's own Topsoe score
    /// as a fixed bound (Topsoe partial sums are monotone — see
    /// [`Heatmap::topsoe_bounded`] — so exceeding it
    /// proves the full score would too; verdict equivalence with
    /// `predict` is [`crate::scratch::true_user_wins`]' contract).
    fn reidentify_with(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        self.decide(trace, true_user, scratch, Heatmap::topsoe_bounded)
    }
}

impl TrainedApAttack {
    /// [`TrainedAttack::reidentify_with`], scoring the query against a
    /// profile exactly with `exact(query, profile, bound)`, which follows
    /// [`Heatmap::topsoe_bounded`].
    ///
    /// The own profile and the hinted rival are scored as in every
    /// attack. Only when neither decides does the scan begin: the set's
    /// [`mood_models::HeatmapIndex`] then bounds every profile's score
    /// from below in one pass over the query's cells, and a rival whose
    /// bound exceeds `b*` answers `None` without the kernel, since its
    /// score exceeds `b*` too.
    fn decide(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
        mut exact: impl FnMut(&Heatmap, &Heatmap, f64) -> Option<f64>,
    ) -> bool {
        let AttackScratch {
            heatmap,
            ap_beater,
            ap_bounds,
            ap_credits,
            ..
        } = scratch;
        let grid = self.profiles.grid();
        heatmap.rebuild_from_cells(trace.records().iter().map(|r| grid.cell_of(&r.point())));
        if heatmap.is_empty() {
            return false; // predict abstains
        }
        let (profiles, index) = (self.profiles.heatmaps(), self.profiles.index());
        let mut bounded = false;
        crate::scratch::true_user_wins(
            self.profiles.users(),
            true_user,
            ap_beater,
            |i, bound, scan| {
                if scan {
                    if !bounded {
                        index.lower_bounds_with(heatmap, ap_bounds, ap_credits);
                        bounded = true;
                    }
                    if ap_bounds[i] > bound {
                        return None;
                    }
                }
                exact(heatmap, &profiles[i], bound)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, TimeDelta, Timestamp};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    /// Background with two users in clearly different neighbourhoods.
    fn two_user_background() -> Dataset {
        let a: Vec<Record> = (0..50).map(|i| rec(46.16, 6.06, i * 600)).collect();
        let b: Vec<Record> = (0..50).map(|i| rec(46.25, 6.20, i * 600)).collect();
        Dataset::from_traces([
            Trace::new(UserId::new(1), a).unwrap(),
            Trace::new(UserId::new(2), b).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn matches_user_by_neighbourhood() {
        let trained = ApAttack::paper_default().train(&two_user_background());
        let anon = Trace::new(
            UserId::new(99),
            (0..20)
                .map(|i| rec(46.161, 6.061, 100_000 + i * 600))
                .collect(),
        )
        .unwrap();
        let p = trained.predict(&anon);
        assert_eq!(p.predicted, Some(UserId::new(1)));
        // margin should be decisive (disjoint neighbourhoods)
        assert!(p.margin().unwrap() > 0.5);
    }

    #[test]
    fn re_identifies_helper_checks_ground_truth() {
        let trained = ApAttack::paper_default().train(&two_user_background());
        let anon = Trace::new(
            UserId::new(2),
            (0..20)
                .map(|i| rec(46.251, 6.201, 100_000 + i * 600))
                .collect(),
        )
        .unwrap();
        assert!(trained.re_identifies(&anon, UserId::new(2)));
        assert!(!trained.re_identifies(&anon, UserId::new(1)));
    }

    #[test]
    #[should_panic(expected = "background knowledge is empty")]
    fn train_rejects_empty_background() {
        ApAttack::paper_default().train(&Dataset::new());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn rejects_bad_cell_size() {
        ApAttack::new(0.0);
    }

    #[test]
    fn scores_cover_every_candidate() {
        let trained = ApAttack::paper_default().train(&two_user_background());
        let anon = Trace::new(
            UserId::new(99),
            vec![rec(46.2, 6.1, 0), rec(46.2, 6.1, 600)],
        )
        .unwrap();
        assert_eq!(trained.predict(&anon).scores.len(), 2);
    }

    /// The work the index saves, pinned: on a fleet of taxis, over raw
    /// test traces and their one-day windows, the verdicts together
    /// score at most a tenth of their rivals exactly (the unfiltered
    /// scan scores every rival it reaches).
    #[test]
    fn index_filtered_verdicts_score_at_most_a_tenth_of_the_rivals_exactly() {
        use mood_synth::presets;
        let ds = presets::cabspotting_like().scaled(0.3).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let trained = TrainedApAttack {
            profiles: Arc::new(HeatmapSet::build(&train, 800.0)),
        };
        assert!(
            trained.profiles.index().hot_rows() > 0,
            "the scan must run on hot rows"
        );
        let windows = test.iter().flat_map(|t| t.windows(TimeDelta::from_days(1)));
        let queries: Vec<Trace> = test.iter().cloned().chain(windows).collect();
        let users = trained.profiles.users();
        let mut scratch = AttackScratch::new();
        let (mut exact, mut rivals, mut wins) = (0usize, 0usize, 0usize);
        for trace in &queries {
            let user = trace.user();
            let verdict = trained.decide(trace, user, &mut scratch, |q, p, bound| {
                exact += 1;
                q.topsoe_bounded(p, bound)
            });
            assert_eq!(verdict, trained.re_identifies(trace, user));
            wins += usize::from(verdict);
            rivals += users.len() - usize::from(users.binary_search(&user).is_ok());
        }
        assert!(wins > 0, "no verdict ran a full scan");
        assert!(
            exact * 10 <= rivals,
            "{exact} exact scores for {rivals} rivals over {} queries",
            queries.len()
        );
    }

    #[test]
    fn works_on_synthetic_residents() {
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let trained = ApAttack::paper_default().train(&train);
        // distinct users (low ids) should mostly be re-identified
        let mut hits = 0;
        let mut total = 0;
        for trace in test.iter().take(5) {
            total += 1;
            if trained.re_identifies(trace, trace.user()) {
                hits += 1;
            }
        }
        assert!(hits * 2 >= total, "AP re-identified only {hits}/{total}");
    }
}
