//! A cell-postings index over a fixed set of heatmap profiles: one pass
//! over a query's cells bounds every profile's Topsoe divergence from
//! below, so an arg-min or a decision scan runs the exact kernel only
//! on the profiles the bound leaves open.

use mood_geo::CellId;

use crate::divergence::{BOUND_MARGIN, LN_2};
use crate::Heatmap;

/// Cell → `(profile, normalized mass)` postings in CSR form, plus each
/// profile's summed mass and cell count, built once per profile set.
///
/// [`HeatmapIndex::lower_bounds`] gives every profile `P` a bound on the
/// Topsoe divergence `T(Q, P)` from a query `Q` that never exceeds the
/// score [`Heatmap::topsoe`] computes. The real-valued bound is
///
/// ```text
/// ln 2 · (mass only one side holds) + Σ_shared (p − q)² / (2(p + q))
/// ```
///
/// the exact value of every one-sided term, and Pinsker's lower bound
/// on every shared one (see the kernel,
/// [`divergence::topsoe_soa_bounded`](crate::divergence::topsoe_soa_bounded)).
/// Writing `σ = ΣP + ΣQ` for the two summed masses and
/// `c = ln 2 · s − (p − q)²/(2s)` (with `s = p + q`) for the *credit* of
/// a shared cell, it equals `ln 2 · σ − Σ_shared c`. Only the credits
/// need the query, and only on shared cells, so one walk over the
/// query's cells and their postings accumulates them for all profiles
/// at once; cells no profile holds cost a lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapIndex {
    /// Every cell some profile holds with positive mass, ascending.
    cells: Vec<CellId>,
    /// CSR offsets: the postings of `cells[c]` are
    /// `starts[c]..starts[c + 1]`.
    starts: Vec<usize>,
    /// Posting profile indices, ascending within each cell.
    profiles: Vec<u32>,
    /// Posting normalized masses, parallel to `profiles`.
    masses: Vec<f64>,
    /// Per profile: its normalized masses summed in key order.
    summed: Vec<f64>,
    /// Per profile: its cell count, an upper bound on the terms it adds
    /// to the kernel's sum.
    cell_counts: Vec<f64>,
}

impl HeatmapIndex {
    /// Indexes `profiles`, which keep their iteration order as indices.
    /// Cells of zero mass get no posting: the kernel scores such a cell
    /// exactly like a cell the profile lacks.
    ///
    /// # Panics
    ///
    /// Panics with 2³² profiles or more.
    pub fn build<'a>(profiles: impl IntoIterator<Item = &'a Heatmap>) -> Self {
        let profiles: Vec<&Heatmap> = profiles.into_iter().collect();
        assert!(
            u32::try_from(profiles.len()).is_ok(),
            "a heatmap index holds fewer than 2^32 profiles"
        );
        // The distinct cells, merged profile by profile (each key list is
        // ascending, so every merge is linear).
        let mut cells: Vec<CellId> = Vec::new();
        let mut merged: Vec<CellId> = Vec::new();
        for &hm in &profiles {
            merged.clear();
            let mut known = cells.iter().copied().peekable();
            for (cell, _) in held(hm) {
                while let Some(c) = known.next_if(|&c| c < cell) {
                    merged.push(c);
                }
                known.next_if_eq(&cell);
                merged.push(cell);
            }
            merged.extend(known);
            std::mem::swap(&mut cells, &mut merged);
        }

        // Counting sort by cell; profiles visit in index order, so each
        // cell's postings come out ascending by profile.
        let mut starts = vec![0usize; cells.len() + 1];
        for &hm in &profiles {
            for (c, _) in slots(&cells, hm) {
                starts[c + 1] += 1;
            }
        }
        for c in 0..cells.len() {
            starts[c + 1] += starts[c];
        }
        let postings = starts[cells.len()];
        let mut next = starts.clone();
        let mut posting_profiles = vec![0u32; postings];
        let mut masses = vec![0.0f64; postings];
        for (j, &hm) in profiles.iter().enumerate() {
            for (c, p) in slots(&cells, hm) {
                posting_profiles[next[c]] = j as u32;
                masses[next[c]] = p;
                next[c] += 1;
            }
        }
        Self {
            starts,
            profiles: posting_profiles,
            masses,
            summed: profiles
                .iter()
                .map(|hm| hm.normalized().iter().sum())
                .collect(),
            cell_counts: profiles.iter().map(|hm| hm.cell_count() as f64).collect(),
            cells,
        }
    }

    /// Number of indexed profiles.
    fn len(&self) -> usize {
        self.summed.len()
    }

    /// Writes into `out` (cleared first, one entry per profile, in index
    /// order) a lower bound on each profile's Topsoe divergence from
    /// `query`: `out[j] ≤ query.topsoe(profile_j)` whenever that score
    /// is defined. An undefined score (an empty side) counts as `+∞`,
    /// above any bound.
    ///
    /// # Rounding margin
    ///
    /// The bound computed is `ln 2 · σ̂ − Ĉ − σ̂ · (N + 4) · m`, where `σ̂`
    /// and `Ĉ` are the summed masses and credits as computed,
    /// `N = |P| + |Q|` counts both key lists, and `m =` `BOUND_MARGIN`
    /// (`2⁻⁴⁰`, about `2¹³ u` for the unit roundoff `u = 2⁻⁵³`). `N`
    /// bounds the number of terms each sum here and in the kernel adds.
    /// Let `R = ln 2 · O + Λ` be the real bound (one-sided mass `O`,
    /// Pinsker sum `Λ`) and `σ` the real summed mass; `R ≤ ln 2 · σ`.
    ///
    /// * *The kernel's score is at least `(1 − 2m − Nu) R − 2mσ`.* It
    ///   adds at most `N` non-negative terms, so recursive summation
    ///   loses at most a factor `(1 − u)^N`. A one-sided term is
    ///   `fl(v · ln 2) ≥ (1 − u) v ln 2`. A shared term is at least the
    ///   matched-key bound with its own margin `m` (proven there, and
    ///   swept by `matched_lower_bound_never_exceeds_exact_term`), which
    ///   is at least `(1 − 2m) · (p − q)²/(2s) − 2m · s`. Where that
    ///   bound's range guard gives 0 instead (`s < 1e-150`), the term's
    ///   Pinsker value is below `1e-150` and the absolute slack covers
    ///   it: a valid profile's masses sum to 1 up to rounding, so
    ///   `σ ≥ 1`.
    /// * *The index's raw bound `ln 2 · σ̂ − Ĉ` is at most
    ///   `R + (2N + 13) u · ln 2 · σ`.* `σ̂` sums at most `N` masses and
    ///   is scaled once: relative error `(N + 2) u`. Each credit is at
    ///   least `0.19 s` and is computed within `7u · ln 2 · s`; `Ĉ`
    ///   sums at most `N` of them, losing at most `γ_N Ĉ` with
    ///   `Ĉ ≤ ln 2 · σ`. The final subtraction adds one more `u`.
    ///
    /// Their difference is at most `σ · (3.4m + (2.1N + 9.1)u)`, and the
    /// margin `σ̂ (N + 4) m ≥ σ (4m + N · 2¹³ u)(1 − (N + 2)u)` exceeds it,
    /// together with the margin's own rounding, for any `N < 2⁴⁰`.
    /// `heatmap_index::tests` check the result against the computed
    /// score itself.
    pub fn lower_bounds(&self, query: &Heatmap, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len(), 0.0);
        let (keys, masses) = (query.keys(), query.normalized());
        let mut c = 0;
        for (&cell, &q) in keys.iter().zip(masses) {
            c += self.cells[c..].partition_point(|&x| x < cell);
            match self.cells.get(c) {
                Some(&x) if x == cell => {}
                Some(_) => continue,
                None => break,
            }
            let postings = self.starts[c]..self.starts[c + 1];
            for (&j, &p) in self.profiles[postings.clone()]
                .iter()
                .zip(&self.masses[postings])
            {
                // p > 0, so s > 0
                let (s, d) = (p + q, p - q);
                out[j as usize] += LN_2 * s - d * d / (2.0 * s);
            }
            c += 1;
        }
        let q_sum: f64 = masses.iter().sum();
        let q_terms = keys.len() as f64 + 4.0;
        for ((bound, &p_sum), &p_cells) in out.iter_mut().zip(&self.summed).zip(&self.cell_counts) {
            let sigma = p_sum + q_sum;
            let margin = sigma * (p_cells + q_terms) * BOUND_MARGIN;
            *bound = LN_2 * sigma - *bound - margin;
        }
    }
}

/// The cells `hm` holds with positive mass, ascending, with their
/// normalized masses.
fn held(hm: &Heatmap) -> impl Iterator<Item = (CellId, f64)> + '_ {
    hm.keys()
        .iter()
        .zip(hm.normalized())
        .filter(|(_, &p)| p > 0.0)
        .map(|(&cell, &p)| (cell, p))
}

/// [`held`] with each cell replaced by its slot in `cells`, which must
/// hold every one of them. Both lists ascend, so one forward walk finds
/// every slot.
fn slots<'a>(cells: &'a [CellId], hm: &'a Heatmap) -> impl Iterator<Item = (usize, f64)> + 'a {
    let mut c = 0;
    held(hm).map(move |(cell, p)| {
        while cells[c] < cell {
            c += 1;
        }
        (c, p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cell(k: u32) -> CellId {
        CellId {
            row: k / 7,
            col: k % 7,
        }
    }

    fn heatmap(entries: &[(u32, f64)]) -> Heatmap {
        let mut hm = Heatmap::new();
        for &(k, w) in entries {
            hm.add(cell(k), w);
        }
        hm
    }

    /// Every bound the index gives is at most the kernel's computed
    /// score, and never NaN.
    fn assert_sound(profiles: &[Heatmap], queries: &[Heatmap]) {
        let index = HeatmapIndex::build(profiles);
        assert_eq!(index.len(), profiles.len());
        let mut bounds = vec![f64::NAN; 3];
        for query in queries {
            index.lower_bounds(query, &mut bounds);
            assert_eq!(bounds.len(), profiles.len());
            for (j, (profile, &bound)) in profiles.iter().zip(&bounds).enumerate() {
                assert!(!bound.is_nan(), "NaN bound for profile {j}");
                if let Some(score) = query.topsoe(profile) {
                    assert!(
                        bound <= score,
                        "bound {bound:e} above score {score:e} (profile {j}, query {:?})",
                        query.cell_entries().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_are_tight_on_disjoint_and_identical_maps() {
        // disjoint supports: the bound is 2 ln 2 less the margin, and
        // identical maps bound at or below their 0.0 score
        let p = heatmap(&[(0, 3.0), (1, 1.0)]);
        let q = heatmap(&[(5, 2.0), (9, 2.0)]);
        let index = HeatmapIndex::build([&p, &q]);
        let mut bounds = Vec::new();
        index.lower_bounds(&q, &mut bounds);
        let disjoint = q.topsoe(&p).unwrap();
        assert!(bounds[0] <= disjoint && disjoint - bounds[0] < 1e-9);
        assert!(bounds[1] <= 0.0 && bounds[1] > -1e-9);
    }

    #[test]
    fn empty_index_and_empty_query() {
        let index = HeatmapIndex::build(std::iter::empty());
        assert_eq!(index.len(), 0);
        let mut bounds = vec![1.0];
        index.lower_bounds(&heatmap(&[(0, 1.0)]), &mut bounds);
        assert!(bounds.is_empty());
        assert_sound(&[heatmap(&[(0, 1.0)]), Heatmap::new()], &[Heatmap::new()]);
    }

    #[test]
    fn postings_list_profiles_ascending_per_cell() {
        let profiles = [
            heatmap(&[(3, 1.0), (8, 2.0)]),
            heatmap(&[(1, 1.0), (3, 0.0), (8, 1.0)]),
            heatmap(&[(8, 5.0), (20, 1.0)]),
        ];
        let index = HeatmapIndex::build(&profiles);
        assert_eq!(index.cells, [cell(1), cell(3), cell(8), cell(20)]);
        assert_eq!(index.starts, [0, 1, 2, 5, 6]);
        // the zero-mass cell 3 of profile 1 has no posting
        assert_eq!(index.profiles, [1, 0, 0, 1, 2, 2]);
        assert_eq!(index.cell_counts, [2.0, 3.0, 2.0]);
    }

    /// The extreme-mass sweep of `matched_lower_bound_never_exceeds_exact_term`,
    /// through whole heatmaps: a shared cell of relative weight `a`
    /// against `b` beside a unit cell, at `a = b`, a few ulps apart,
    /// at ratios down to 1e-300 and at count ratios, with one-sided
    /// cells of the same weights beside them.
    #[test]
    fn bounds_never_exceed_the_score_at_extreme_masses() {
        let bases = [
            1.0,
            0.5,
            1.0 / 3.0,
            0.1,
            1e-3,
            1e-9,
            1e-100,
            1e-150,
            1e-300,
            f64::MIN_POSITIVE,
            3.0,
            1e149,
            1e200,
            f64::MAX / 4.0,
        ];
        let mut weights = Vec::new();
        for &a in &bases {
            let (mut up, mut down) = (a, a);
            for _ in 0..16 {
                weights.push((a, up));
                weights.push((a, down));
                up = up.next_up();
                down = down.next_down();
            }
            let mut ratio = 1.0;
            while ratio >= 1e-300 {
                weights.push((a, a * ratio));
                weights.push((a, a * (1.0 - ratio)));
                ratio *= 0.3;
            }
        }
        for n in [1.0, 2.0, 3.0, 7.0, 24.0, 531.0, 1e6] {
            for m in [1.0, 5.0, 97.0, 1e6 + 1.0] {
                weights.push((n, m));
            }
        }
        let weights: Vec<(f64, f64)> = weights
            .into_iter()
            .filter(|&(a, b)| b > 0.0 && a > 0.0)
            .collect();
        for chunk in weights.chunks(64) {
            let profiles: Vec<Heatmap> = chunk
                .iter()
                .map(|&(a, _)| heatmap(&[(0, a), (1, 1.0), (2, a)]))
                .collect();
            let queries: Vec<Heatmap> = chunk
                .iter()
                .flat_map(|&(a, b)| {
                    [
                        heatmap(&[(0, b), (1, 1.0)]),
                        heatmap(&[(0, b), (1, 1.0), (3, b)]),
                        heatmap(&[(0, b), (2, a)]),
                    ]
                })
                .collect();
            assert_sound(&profiles, &queries);
        }
    }

    /// A count-valued heatmap over `0..40` cells from `(cell, count)`
    /// draws.
    fn counts(cells: &[(u32, u32)]) -> Heatmap {
        let mut hm = Heatmap::new();
        for &(k, c) in cells {
            hm.add(cell(k), f64::from(c));
        }
        hm
    }

    proptest! {
        // The index's bound never exceeds the kernel's computed score,
        // on the shapes of `two_pass_kernel_is_bit_identical_at_the_score`
        // (shared support with unrelated counts, identical maps, near-
        // equal masses, one-sided), disjoint supports, query cells
        // outside every profile's extent, and empty profiles.
        #[test]
        fn index_bounds_never_exceed_the_computed_score(
            cells in collection::vec((0u32..40, 1u32..200), 1..30),
            others in collection::vec(collection::vec((0u32..40, 1u32..200), 0..30), 0..6),
            nudges in collection::vec(0u32..3, 30..31),
        ) {
            let p = counts(&cells);
            let scaled: Vec<(u32, u32)> = cells.iter().map(|&(k, c)| (k, c * 1000)).collect();
            let near: Vec<(u32, u32)> = p
                .keys()
                .iter()
                .zip(p.weights())
                .zip(&nudges)
                .map(|((c, &w), &n)| (c.row * 7 + c.col, w as u32 * 1000 + n))
                .collect();
            let mut profiles = vec![
                // shared support, unrelated counts
                counts(&p.keys().iter().map(|c| (c.row * 7 + c.col, (c.row * 7 + c.col) * 7 % 199 + 1)).collect::<Vec<_>>()),
                // identical
                p.clone(),
                // near-equal masses
                counts(&near),
                // one-sided only, and beyond the query's extent
                counts(&cells.iter().map(|&(k, c)| (k + 40, c)).collect::<Vec<_>>()),
                // empty
                Heatmap::new(),
            ];
            profiles.extend(others.iter().map(|o| counts(o)));
            let queries = [
                p.clone(),
                counts(&scaled),
                // cells beyond every profile's extent
                counts(&cells.iter().map(|&(k, c)| (k + 200, c)).collect::<Vec<_>>()),
                counts(&[cells[0], (300, 1)]),
                Heatmap::new(),
            ];
            // the identical pair is the tightest case: a bound of at most 0
            prop_assert_eq!(queries[0].topsoe(&profiles[1]), Some(0.0));
            let index = HeatmapIndex::build(&profiles);
            let mut bounds = Vec::new();
            for query in &queries {
                index.lower_bounds(query, &mut bounds);
                for (j, (profile, &bound)) in profiles.iter().zip(&bounds).enumerate() {
                    prop_assert!(!bound.is_nan());
                    if let Some(score) = query.topsoe(profile) {
                        prop_assert!(
                            bound <= score,
                            "bound {:e} above score {:e} (profile {})", bound, score, j
                        );
                    }
                }
            }
        }
    }
}
