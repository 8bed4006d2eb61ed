use rand::{Rng, RngCore};

use mood_geo::{CellId, Grid};
use mood_models::{Heatmap, HeatmapSet};
use mood_trace::{Dataset, Record, Trace, UserId};

use crate::Lppm;

/// HeatMap Confusion (Maouche et al. 2018, the paper's \[23\]): the LPPM
/// designed specifically against re-identification attacks.
///
/// HMC represents the trace as a heatmap, alters it to *look like another
/// user's* (the **decoy**), and materializes the altered heatmap back
/// into a trace. Our rendition:
///
/// 1. the decoy is the background user whose heatmap has the smallest
///    Topsoe divergence from the trace's own heatmap (most confusable
///    profile, which also minimizes utility loss);
/// 2. cells are remapped by **rank matching**: the trace's k-th hottest
///    cell maps to the decoy's k-th hottest cell, preserving the shape of
///    the frequency distribution;
/// 3. the trace is rebuilt run by run: each maximal run of consecutive
///    records in one cell moves to the mapped cell with probability
///    `confusion` (keeping its in-cell offsets), or stays in place.
///    Whole runs move together so dwell/trajectory structure survives —
///    and the residual own-structure is exactly why HMC is not a silver
///    bullet against POI-based attacks (paper Fig. 7).
///
/// The paper configures HMC with 800 m cells, matching the original
/// HMC paper (§4.1.2).
///
/// # Examples
///
/// ```
/// use mood_lppm::{Hmc, Lppm};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
/// use rand::SeedableRng;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let hmc = Hmc::paper_default(&background);
/// let trace = test.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let protected = hmc.protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len());
/// ```
pub struct Hmc {
    /// The background profiles to imitate, with the cell-postings index
    /// the decoy scan's lower bounds come from.
    profiles: HeatmapSet,
    /// Each profile's cells, hottest first (ties by cell): the decoy
    /// side of the rank map.
    ranked: Vec<Vec<CellId>>,
    confusion: f64,
}

impl Hmc {
    /// Creates an HMC mechanism imitating `profiles` (heatmaps of the
    /// same background knowledge the attacks train on — MooD's system
    /// model gives the protector access to past traces, §3.1). Each
    /// profile's cells are ranked once, for every rank map to come.
    ///
    /// `confusion` is the probability that a cell-run is remapped
    /// (1.0 = move everything; the original system's utility constraints
    /// leave residual structure, modeled by values < 1).
    ///
    /// # Panics
    ///
    /// Panics when `confusion ∉ [0, 1]`.
    pub fn new(profiles: HeatmapSet, confusion: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&confusion),
            "confusion must be in [0, 1]"
        );
        Self {
            ranked: profiles
                .heatmaps()
                .iter()
                .map(|hm| {
                    hm.ranked_cells()
                        .into_iter()
                        .map(|(cell, _)| cell)
                        .collect()
                })
                .collect(),
            profiles,
            confusion,
        }
    }

    /// The paper's configuration: 800 m cells over the background's
    /// extent, confusion 0.55 (calibrated so HMC's residual own-structure
    /// leaves roughly the paper's share of users exposed to POI/PIT
    /// attacks — the original HMC's utility constraints have the same
    /// effect).
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default(background: &Dataset) -> Self {
        Self::new(HeatmapSet::build(background, 800.0), 0.55)
    }

    /// The grid the heatmaps live on.
    pub fn grid(&self) -> &Grid {
        self.profiles.grid()
    }

    /// Index of the decoy in `profiles` for a trace of `user` with
    /// heatmap `own`: the Topsoe arg-min over non-self users, first
    /// minimum on ties (undefined divergences count as ∞).
    fn decoy_for(&self, user: UserId, own: &Heatmap) -> Option<usize> {
        self.decoy_with(user, own, Heatmap::topsoe_bounded)
    }

    /// [`Hmc::decoy_for`], scoring a profile exactly with
    /// `exact(own, profile, bound)`, which follows
    /// [`Heatmap::topsoe_bounded`]: `None` when the score is undefined
    /// or provably above `bound`.
    ///
    /// The index bounds every profile's score from below in one pass
    /// over `own`'s cells. The profile with the smallest bound is scored
    /// first, and every other one only when its bound does not exceed
    /// the running best, under that best as its pruning bound. A
    /// skipped or pruned profile scores above the best, so it could
    /// neither win nor tie; a tie goes to the lower index whatever the
    /// visiting order, which keeps the first-minimum rule.
    fn decoy_with(
        &self,
        user: UserId,
        own: &Heatmap,
        mut exact: impl FnMut(&Heatmap, &Heatmap, f64) -> Option<f64>,
    ) -> Option<usize> {
        let users = self.profiles.users();
        let others = || (0..users.len()).filter(move |&i| users[i] != user);
        let first = others().next()?;
        if own.is_empty() {
            return Some(first); // every divergence is ∞
        }
        let (mut bounds, mut credits) = (Vec::new(), Vec::new());
        self.profiles
            .index()
            .lower_bounds_with(own, &mut bounds, &mut credits);
        let seed = others()
            .min_by(|&a, &b| bounds[a].total_cmp(&bounds[b]))
            .unwrap_or(first);
        let profile = |i: usize| &self.profiles.heatmaps()[i];
        let mut best = (
            seed,
            exact(own, profile(seed), f64::INFINITY).unwrap_or(f64::INFINITY),
        );
        for i in others() {
            if i == seed || bounds[i] > best.1 {
                continue;
            }
            let d = match exact(own, profile(i), best.1) {
                Some(d) => d,
                // undefined: ∞, which ties an ∞ best
                None if best.1 == f64::INFINITY => f64::INFINITY,
                None => continue,
            };
            if d < best.1 || (d == best.1 && i < best.0) {
                best = (i, d);
            }
        }
        Some(best.0)
    }

    /// The rank-matching cell map from `own` onto the decoy: own k-th
    /// hottest cell → decoy k-th hottest cell (wrapping when the decoy
    /// has fewer cells), sorted by source cell. Only `own`'s cells are
    /// ranked here; the decoy's ranking was stored with the profiles.
    fn rank_map(&self, own: &Heatmap, decoy_idx: Option<usize>) -> Vec<(CellId, CellId)> {
        let Some(decoy_ranked) = decoy_idx.map(|i| &self.ranked[i]) else {
            return Vec::new();
        };
        if decoy_ranked.is_empty() {
            return Vec::new();
        }
        let mut map: Vec<(CellId, CellId)> = own
            .ranked_cells()
            .iter()
            .enumerate()
            .map(|(k, (cell, _))| (*cell, decoy_ranked[k % decoy_ranked.len()]))
            .collect();
        map.sort_by_key(|e| e.0);
        map
    }

    /// Rebuilds the trace run by run: each maximal run of consecutive
    /// records in one cell moves to the mapped cell with probability
    /// `confusion` (one RNG draw per run, decoy or not — the draw order
    /// is part of the determinism contract), or stays in place.
    fn rebuild_records(
        &self,
        trace: &Trace,
        cells: &[CellId],
        decoy_idx: Option<usize>,
        map: &[(CellId, CellId)],
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
    ) {
        if decoy_idx.is_none() {
            // No decoy available (single-user population): nothing to
            // imitate; pass the trace through unchanged (no RNG draws,
            // matching the original behaviour).
            out.extend_from_slice(trace.records());
            return;
        }
        let (rs, grid) = (trace.records(), self.grid());
        let mut i = 0;
        while i < rs.len() {
            // maximal run of consecutive records in the same cell
            let cell = cells[i];
            let mut j = i + 1;
            while j < rs.len() && cells[j] == cell {
                j += 1;
            }
            let move_run = rng.gen::<f64>() < self.confusion;
            let target = map
                .binary_search_by(|e| e.0.cmp(&cell))
                .map(|k| map[k].1)
                .unwrap_or(cell);
            for r in &rs[i..j] {
                if move_run && target != cell {
                    let (fy, fx) = grid.fraction_in_cell(&r.point());
                    out.push(r.with_point(grid.point_in_cell(target, fy, fx)));
                } else {
                    out.push(*r);
                }
            }
            i = j;
        }
    }
}

impl Lppm for Hmc {
    fn name(&self) -> &str {
        "HMC"
    }

    /// Rasterizes the input once, plans on its heatmap (the decoy and
    /// the rank map), then rebuilds the records run by run over the
    /// same cells.
    fn apply(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        let grid = self.grid();
        let cells: Vec<CellId> = trace
            .records()
            .iter()
            .map(|r| grid.cell_of(&r.point()))
            .collect();
        out.clear();
        out.reserve(trace.len());
        let mut own = Heatmap::new();
        own.rebuild_from_cells(cells.iter().copied());
        let decoy_idx = self.decoy_for(trace.user(), &own);
        let map = self.rank_map(&own, decoy_idx);
        self.rebuild_records(trace, &cells, decoy_idx, &map, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, TimeDelta, Timestamp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn dwell_trace(user: u64, lat: f64, lng: f64, n: i64) -> Trace {
        let records: Vec<Record> = (0..n).map(|i| rec(lat, lng, i * 600)).collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn background() -> Dataset {
        Dataset::from_traces([
            dwell_trace(1, 46.16, 6.06, 60),
            dwell_trace(2, 46.25, 6.20, 60),
            dwell_trace(3, 46.20, 6.12, 60),
        ])
        .unwrap()
    }

    /// The user `hmc` imitates for `trace`, and that user's profile.
    fn decoy<'a>(hmc: &'a Hmc, trace: &Trace) -> Option<(UserId, &'a Heatmap)> {
        let own = Heatmap::from_trace(hmc.grid(), trace);
        let i = hmc.decoy_for(trace.user(), &own)?;
        Some((hmc.profiles.users()[i], &hmc.profiles.heatmaps()[i]))
    }

    #[test]
    fn preserves_cardinality_and_timestamps() {
        let hmc = Hmc::paper_default(&background());
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let mut rng = StdRng::seed_from_u64(1);
        let p = hmc.protect(&t, &mut rng);
        assert_eq!(p.len(), t.len());
        for (a, b) in t.records().iter().zip(p.records()) {
            assert_eq!(a.time(), b.time());
        }
    }

    #[test]
    fn decoy_is_nearest_other_profile() {
        let hmc = Hmc::paper_default(&background());
        // user 1's trace: nearest other profile is user 3 (8 km away)
        // rather than user 2 (~14 km)... with disjoint supports Topsoe
        // saturates, so any non-self decoy is acceptable; assert non-self.
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let (decoy, _) = decoy(&hmc, &t).unwrap();
        assert_ne!(decoy, UserId::new(1));
    }

    #[test]
    fn decoy_prefers_overlapping_profile() {
        // user 9's background overlaps user 1's cell exactly
        let mut bg = background();
        bg.insert(dwell_trace(9, 46.1601, 6.0601, 60)).unwrap();
        let hmc = Hmc::paper_default(&bg);
        let t = dwell_trace(1, 46.1602, 6.0602, 40);
        let (decoy, _) = decoy(&hmc, &t).unwrap();
        assert_eq!(decoy, UserId::new(9));
    }

    #[test]
    fn full_confusion_moves_all_mass_to_decoy_cells() {
        let hmc = Hmc::new(HeatmapSet::build(&background(), 800.0), 1.0);
        let grid = hmc.grid();
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let mut rng = StdRng::seed_from_u64(2);
        let p = hmc.protect(&t, &mut rng);
        let (decoy, decoy_hm) = decoy(&hmc, &t).unwrap();
        assert_ne!(decoy, UserId::new(1));
        // every protected record lands in a decoy-occupied cell
        let decoy_cells: std::collections::BTreeSet<CellId> =
            decoy_hm.keys().iter().copied().collect();
        for r in p.records() {
            assert!(decoy_cells.contains(&grid.cell_of(&r.point())));
        }
    }

    #[test]
    fn zero_confusion_is_identity() {
        let hmc = Hmc::new(HeatmapSet::build(&background(), 800.0), 0.0);
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(hmc.protect(&t, &mut rng), t);
    }

    #[test]
    fn single_user_population_returns_unchanged() {
        let bg = Dataset::from_traces([dwell_trace(1, 46.16, 6.06, 60)]).unwrap();
        let hmc = Hmc::paper_default(&bg);
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(hmc.protect(&t, &mut rng), t);
        assert!(decoy(&hmc, &t).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let hmc = Hmc::paper_default(&background());
        let t = dwell_trace(1, 46.161, 6.061, 40);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(hmc.protect(&t, &mut r1), hmc.protect(&t, &mut r2));
    }

    #[test]
    fn apply_into_a_dirty_buffer_equals_protect() {
        let hmc = Hmc::paper_default(&background());
        let traces = [
            dwell_trace(1, 46.161, 6.061, 40),
            dwell_trace(2, 46.251, 6.201, 30),
        ];
        let mut out = vec![rec(0.0, 0.0, 0)]; // dirty recycled buffer
        for round in 0..3 {
            for t in &traces {
                let mut r1 = StdRng::seed_from_u64(11 + round);
                let mut r2 = StdRng::seed_from_u64(11 + round);
                let expected = hmc.protect(t, &mut r1);
                hmc.apply(t, &mut r2, &mut out);
                assert_eq!(out.as_slice(), expected.records(), "round {round}");
            }
        }
    }

    #[test]
    fn equal_heatmaps_of_different_users_get_different_decoys() {
        // user 1 and user 9 dwell at the SAME spot: identical heatmaps,
        // but user 9's decoy may be user 1's profile while user 1 must
        // skip itself.
        let mut bg = background();
        bg.insert(dwell_trace(9, 46.16, 6.06, 60)).unwrap();
        let hmc = Hmc::paper_default(&bg);
        let (spot_lat, spot_lng) = (46.1605, 6.0605);
        let t1 = dwell_trace(1, spot_lat, spot_lng, 40);
        let t9 = dwell_trace(9, spot_lat, spot_lng, 40);
        let (d1, _) = decoy(&hmc, &t1).unwrap();
        let (d9, _) = decoy(&hmc, &t9).unwrap();
        assert_eq!(d1, UserId::new(9));
        assert_eq!(d9, UserId::new(1));
        // protect t1, then t9: same heatmap, other user, and the output
        // a fresh `Hmc` gives
        let mut r = StdRng::seed_from_u64(3);
        let _ = hmc.protect(&t1, &mut r);
        let p9 = hmc.protect(&t9, &mut r);
        let mut fresh_rng = StdRng::seed_from_u64(3);
        let fresh = Hmc::paper_default(&bg);
        let _ = fresh.protect(&t1, &mut fresh_rng);
        assert_eq!(p9, fresh.protect(&t9, &mut fresh_rng));
    }

    /// The unpruned reference `decoy_for` must equal: every non-self
    /// divergence in full, `min_by`'s first minimum.
    fn decoy_oracle(hmc: &Hmc, user: UserId, own: &Heatmap) -> Option<usize> {
        hmc.profiles
            .iter()
            .enumerate()
            .filter(|(_, (u, _))| *u != user)
            .map(|(i, (_, hm))| (i, own.topsoe(hm).unwrap_or(f64::INFINITY)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite or inf"))
            .map(|(i, _)| i)
    }

    #[test]
    fn pruned_decoy_scan_matches_the_full_scan() {
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.3).generate();
        let (mut bg, test) = ds.split_chronological(TimeDelta::from_days(15));
        // Twins of two users (identical heatmaps, larger ids): exact
        // Topsoe ties, which must go to the lower population index.
        let first_twin = bg.iter().map(|t| t.user().as_u64()).max().unwrap() + 1;
        let originals: Vec<Trace> = bg.iter().take(2).cloned().collect();
        for (k, t) in originals.iter().enumerate() {
            let twin = UserId::new(first_twin + k as u64);
            bg.insert(Trace::new(twin, t.records().to_vec()).unwrap())
                .unwrap();
        }
        let hmc = Hmc::paper_default(&bg);
        let outsider = UserId::new(first_twin + 100);
        let owns: Vec<Heatmap> = bg
            .iter()
            .chain(test.iter())
            .map(|t| Heatmap::from_trace(hmc.grid(), t))
            .chain([Heatmap::new()])
            .collect();
        for own in &owns {
            for user in bg.user_ids().into_iter().chain([outsider]) {
                assert_eq!(
                    hmc.decoy_for(user, own),
                    decoy_oracle(&hmc, user, own),
                    "decoy diverged for {user}"
                );
            }
        }
        // the tie itself: an outsider whose heatmap equals the first
        // original's gets the original (index 0), not its twin
        let own = Heatmap::from_trace(hmc.grid(), &originals[0]);
        assert_eq!(hmc.decoy_for(outsider, &own), Some(0));
        assert_eq!(
            hmc.profiles.users()[hmc.decoy_for(originals[0].user(), &own).unwrap()],
            UserId::new(first_twin)
        );
    }

    #[test]
    fn empty_own_heatmap_takes_the_first_other_user() {
        let hmc = Hmc::paper_default(&background());
        for (user, expected) in [(1, 1), (2, 0), (3, 0), (7, 0)] {
            let user = UserId::new(user);
            assert_eq!(hmc.decoy_for(user, &Heatmap::new()), Some(expected));
            assert_eq!(decoy_oracle(&hmc, user, &Heatmap::new()), Some(expected));
        }
    }

    #[test]
    fn single_user_population_decoy_matches_the_full_scan() {
        let bg = Dataset::from_traces([dwell_trace(1, 46.16, 6.06, 60)]).unwrap();
        let hmc = Hmc::paper_default(&bg);
        let own = Heatmap::from_trace(hmc.grid(), &dwell_trace(5, 46.161, 6.061, 40));
        for own in [own, Heatmap::new()] {
            for (user, expected) in [(1, None), (5, Some(0))] {
                let user = UserId::new(user);
                assert_eq!(hmc.decoy_for(user, &own), expected);
                assert_eq!(decoy_oracle(&hmc, user, &own), expected);
            }
        }
    }

    /// An `Hmc` over `heatmaps`, for users `1, 2, …` in order.
    fn with_population(heatmaps: Vec<Heatmap>) -> Hmc {
        let users = (1..=heatmaps.len() as u64).map(UserId::new).collect();
        let grid = Grid::new(
            mood_geo::BoundingBox::new(46.1, 46.3, 6.0, 6.3).unwrap(),
            800.0,
        )
        .unwrap();
        Hmc::new(HeatmapSet::new(grid, users, heatmaps), 0.5)
    }

    /// A count-valued heatmap over a 4-column patch of cells.
    fn counts(cells: &[(u32, u32)]) -> Heatmap {
        let mut hm = Heatmap::new();
        for &(k, c) in cells {
            hm.add(
                CellId {
                    row: k / 4,
                    col: k % 4,
                },
                f64::from(c),
            );
        }
        hm
    }

    proptest::proptest! {
        // The filtered scan against the full one over small, overlapping
        // populations: duplicated heatmaps (exact ties), an own heatmap
        // copied from the population or empty, populations whose every
        // score is undefined (the first non-self index must win, though
        // cells of zero mass give those profiles different bounds), and
        // one-user populations.
        #[test]
        fn filtered_decoy_scan_equals_the_full_scan(
            maps in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1u32..6), 0..8), 1..8),
            copies in proptest::collection::vec(0usize..8, 0..4),
            own in proptest::collection::vec((0u32..16, 1u32..6), 0..8),
            own_copy in 0usize..16,
            undefined in 0u8..4,
            user in 0u64..14,
        ) {
            let massless = |m: &[(u32, u32)]| -> Vec<(u32, u32)> {
                m.iter().map(|&(k, _)| (k, 0)).collect()
            };
            let mut heatmaps: Vec<Heatmap> = maps
                .iter()
                .map(|m| if undefined == 0 { counts(&massless(m)) } else { counts(m) })
                .collect();
            for &k in &copies {
                heatmaps.push(heatmaps[k % heatmaps.len()].clone());
            }
            let own = match heatmaps.get(own_copy) {
                Some(hm) if undefined != 0 => hm.clone(),
                _ => counts(&own),
            };
            let hmc = with_population(heatmaps);
            let user = UserId::new(user);
            for own in [&own, &Heatmap::new()] {
                proptest::prop_assert_eq!(
                    hmc.decoy_for(user, own),
                    decoy_oracle(&hmc, user, own)
                );
            }
        }
    }

    /// The work the index saves, pinned: on a fleet of taxis, over raw
    /// test traces and their one-day windows, the decoy scan scores at
    /// most a tenth of its rivals exactly (the full scan scores all).
    #[test]
    fn filtered_decoy_scan_scores_at_most_a_tenth_of_the_rivals_exactly() {
        use mood_synth::presets;
        let ds = presets::cabspotting_like().scaled(0.3).generate();
        let (bg, test) = ds.split_chronological(TimeDelta::from_days(15));
        let hmc = Hmc::paper_default(&bg);
        assert!(
            hmc.profiles.index().hot_rows() > 0,
            "the scan must run on hot rows"
        );
        let windows = test.iter().flat_map(|t| t.windows(TimeDelta::from_days(1)));
        let queries: Vec<Trace> = test.iter().cloned().chain(windows).collect();
        let (mut exact, mut rivals) = (0usize, 0usize);
        for trace in &queries {
            let own = Heatmap::from_trace(hmc.grid(), trace);
            let decoy = hmc.decoy_with(trace.user(), &own, |q, p, bound| {
                exact += 1;
                q.topsoe_bounded(p, bound)
            });
            assert_eq!(decoy, decoy_oracle(&hmc, trace.user(), &own));
            rivals += hmc
                .profiles
                .users()
                .iter()
                .filter(|&&u| u != trace.user())
                .count();
        }
        assert!(
            exact * 10 <= rivals,
            "{exact} exact scores for {rivals} rivals over {} queries",
            queries.len()
        );
    }

    #[test]
    #[should_panic(expected = "background")]
    fn rejects_empty_background() {
        Hmc::paper_default(&Dataset::new());
    }

    #[test]
    #[should_panic(expected = "confusion must be")]
    fn rejects_bad_confusion() {
        Hmc::new(HeatmapSet::build(&background(), 800.0), 1.5);
    }

    #[test]
    fn confuses_ap_style_matching_on_synthetic_data() {
        // 0.4 scale = 16 users: small enough for CI, large enough that
        // the majority claim is not dominated by per-user noise.
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.4).generate();
        let (bg, test) = ds.split_chronological(TimeDelta::from_days(15));
        let hmc = Hmc::paper_default(&bg);
        let grid = hmc.grid().clone();
        let mut rng = StdRng::seed_from_u64(5);
        // count how many users' protected traces are still closest to
        // their own background heatmap
        let profiles: Vec<(UserId, Heatmap)> = bg
            .iter()
            .map(|t| (t.user(), Heatmap::from_trace(&grid, t)))
            .collect();
        let mut own_wins = 0;
        let mut total = 0;
        for trace in test.iter() {
            let p = hmc.protect(trace, &mut rng);
            let anon = Heatmap::from_trace(&grid, &p);
            let best = profiles
                .iter()
                .min_by(|a, b| {
                    anon.topsoe(&a.1)
                        .unwrap()
                        .partial_cmp(&anon.topsoe(&b.1).unwrap())
                        .unwrap()
                })
                .unwrap();
            total += 1;
            if best.0 == trace.user() {
                own_wins += 1;
            }
        }
        // HMC should defeat heatmap matching for the clear majority
        assert!(
            own_wins * 3 <= total,
            "HMC left {own_wins}/{total} users re-identifiable by heatmap"
        );
    }
}
