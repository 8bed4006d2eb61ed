//! A cell-postings index over a fixed set of heatmap profiles: one pass
//! over a query's cells bounds every profile's Topsoe divergence from
//! below, so an arg-min or a decision scan runs the exact kernel only
//! on the profiles the bound leaves open.

use mood_geo::CellId;

use crate::divergence::{BOUND_MARGIN, LN_2};
use crate::Heatmap;

/// `ln 2 − ½`: a shared cell's credit `ln 2 · s − (p − q)²/(2s)` equals
/// `(ln 2 − ½) · s + 2pq/s`, a form with no cancellation, which the hot
/// rows compute in `f32`.
const ROW_CREDIT_SLOPE: f32 = (LN_2 - 0.5) as f32;

/// The hot rows' relative margin per term, `2⁻²²`: twice what `K`
/// credits summed in `f32` can lose (see
/// [`HeatmapIndex::lower_bounds_with`]).
const ROW_MARGIN: f64 = 1.0 / (1u64 << 22) as f64;

/// Cell → `(profile, normalized mass)` postings, plus each profile's
/// summed mass and cell count, built once per profile set.
///
/// [`HeatmapIndex::lower_bounds_with`] gives every profile `P` a bound on
/// the Topsoe divergence `T(Q, P)` from a query `Q` that never exceeds
/// the score [`Heatmap::topsoe`] computes. The real-valued bound is
///
/// ```text
/// ln 2 · (mass only one side holds) + Σ_shared (p − q)² / (2(p + q))
/// ```
///
/// the exact value of every one-sided term, and Pinsker's lower bound
/// on every shared one.
/// Writing `σ = ΣP + ΣQ` for the two summed masses and
/// `c = ln 2 · s − (p − q)²/(2s)` (with `s = p + q`) for the *credit* of
/// a shared cell, it equals `ln 2 · σ − Σ_shared c`. Only the credits
/// need the query, and only on shared cells, so one walk over the
/// query's cells and their postings accumulates them for all profiles
/// at once; cells no profile holds cost a lookup.
///
/// A cell that at least a third of the profiles hold is *hot*: its
/// postings become one dense, profile-ordered `f32` row, with 0 where a
/// profile lacks the cell, and a query cell's credits accumulate for
/// every profile in one contiguous, branch-free loop that the compiler
/// vectorizes four lanes wide. Every other cell keeps `f64` postings,
/// each costing a scalar division and a scattered add. The threshold
/// follows from the per-element cost: a row element costs about a third
/// of a posting (0.6 against 1.9 ns on a 2-vCPU Xeon, over
/// cabspotting-like queries), so a row is the cheaper form once a third
/// of the profiles hold its cell. Its memory is bounded the same way: 4
/// bytes per profile against 12 per posting.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapIndex {
    /// Every cell some profile holds with positive mass, ascending.
    cells: Vec<CellId>,
    /// Per cell: its row in `rows` if it is hot.
    hot: Vec<Option<u32>>,
    /// One row per hot cell, row-major: `rows[r · n + j]` is profile
    /// `j`'s normalized mass in the cell of row `r`, rounded up to `f32`
    /// (so a held cell stays positive), or 0 when `j` lacks the cell.
    rows: Vec<f32>,
    /// CSR offsets: the postings of `cells[c]` are
    /// `starts[c]..starts[c + 1]`, empty for a hot cell.
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
        let n = profiles.len();
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
        // cell's postings come out ascending by profile. A hot cell gets
        // a row instead.
        let mut holders = vec![0usize; cells.len()];
        for &hm in &profiles {
            for (c, _) in slots(&cells, hm) {
                holders[c] += 1;
            }
        }
        let mut hot_rows = 0;
        let hot: Vec<Option<u32>> = holders
            .iter()
            .map(|&h| {
                (3 * h >= n).then(|| {
                    hot_rows += 1;
                    hot_rows - 1
                })
            })
            .collect();
        let mut starts = vec![0usize; cells.len() + 1];
        for c in 0..cells.len() {
            starts[c + 1] = starts[c] + if hot[c].is_some() { 0 } else { holders[c] };
        }
        let postings = starts[cells.len()];
        let mut next = starts.clone();
        let mut rows = vec![0.0f32; hot_rows as usize * n];
        let mut posting_profiles = vec![0u32; postings];
        let mut masses = vec![0.0f64; postings];
        for (j, &hm) in profiles.iter().enumerate() {
            for (c, p) in slots(&cells, hm) {
                if let Some(r) = hot[c] {
                    rows[r as usize * n + j] = round_up(p);
                } else {
                    posting_profiles[next[c]] = j as u32;
                    masses[next[c]] = p;
                    next[c] += 1;
                }
            }
        }
        Self {
            cells,
            hot,
            rows,
            starts,
            profiles: posting_profiles,
            masses,
            summed: profiles
                .iter()
                .map(|hm| hm.normalized().iter().sum())
                .collect(),
            cell_counts: profiles.iter().map(|hm| hm.cell_count() as f64).collect(),
        }
    }

    /// Number of indexed profiles.
    fn len(&self) -> usize {
        self.summed.len()
    }

    /// Number of hot cells, each stored as a dense row.
    pub fn hot_rows(&self) -> usize {
        self.hot.iter().flatten().count()
    }

    /// Writes into `out` (cleared first, one entry per profile, in index
    /// order) a lower bound on each profile's Topsoe divergence from
    /// `query`: `out[j] ≤ query.topsoe(profile_j)` whenever that score
    /// is defined. An undefined score (an empty side) counts as `+∞`,
    /// above any bound. `credits` is the hot rows' `f32` accumulator,
    /// cleared and refilled like `out`, so that warm buffers make a call
    /// allocation-free.
    ///
    /// For each hot cell the query holds, every profile adds
    /// `(ln 2 − ½) · s + 2pq/s` in `f32` where it holds the cell and 0
    /// where it lacks it; the cold cells' postings add `c` in `f64`.
    ///
    /// # Rounding margin
    ///
    /// The bound computed is
    ///
    /// ```text
    /// max(0, ln 2 · σ̂ − Ĉ − Ĥ − σ̂ · (N + 4) · m − Ĥ · (K + 4) · 2⁻²²)
    /// ```
    ///
    /// where `σ̂` is the summed masses as computed, `Ĉ` and `Ĥ` the
    /// credits of the shared cold and hot cells as computed,
    /// `N = |P| + |Q|` counts both key lists, `K` counts the query's hot
    /// cells, and `m =` `BOUND_MARGIN` (`2⁻⁴⁰`, about `2¹³ u` for the
    /// unit roundoff `u = 2⁻⁵³`). `N` bounds the number of terms each
    /// sum here and in the kernel adds. Let `R = ln 2 · O + Λ` be the
    /// real bound (one-sided mass `O`, Pinsker sum `Λ`), `σ` the real
    /// summed mass, and `H` the real credits of the shared hot cells;
    /// `R ≤ ln 2 · σ`.
    ///
    /// * *The kernel's score is at least `(1 − 2m − Nu) R − 2mσ`.* It
    ///   adds at most `N` non-negative terms, so recursive summation
    ///   loses at most a factor `(1 − u)^N`. A one-sided term is
    ///   `fl(v · ln 2) ≥ (1 − u) v ln 2`. A shared term is at least the
    ///   matched-key bound with its own margin `m` (a lemma of the
    ///   kernel's tests, proven in its doc and swept by
    ///   `matched_lower_bound_never_exceeds_exact_term`), which is at
    ///   least `(1 − 2m) · (p − q)²/(2s) − 2m · s`. Where that
    ///   bound's range guard gives 0 instead (`s < 1e-150`), the term's
    ///   Pinsker value is below `1e-150` and the absolute slack covers
    ///   it: a valid profile's masses sum to 1 up to rounding, so
    ///   `σ ≥ 1`.
    /// * *The `f64` part `ln 2 · σ̂ − Ĉ − H` is at most
    ///   `R + (2N + 14) u · ln 2 · σ`.* `σ̂` sums at most `N` masses and
    ///   is scaled once: relative error `(N + 2) u`. Each credit is at
    ///   least `0.19 s` and is computed within `7u · ln 2 · s`; `Ĉ`
    ///   sums at most `N` of them, losing at most `γ_N Ĉ` with
    ///   `Ĉ ≤ ln 2 · σ`. The two final subtractions add one `u` each.
    /// * *`Ĥ` is at least `H − (K + 4) · 2⁻²³ · Ĥ − K · 2⁻⁷³`.* The
    ///   rows hold masses rounded up, the query's masses are rounded up
    ///   too, and `c` grows with both (`∂c/∂p = ln 2 − ½ + 2q²/s² > 0`),
    ///   so rounding never lowers a credit. Each credit is computed from
    ///   non-negative operands with no cancellation: four roundings on
    ///   either summand's path, each losing at most a factor `1 − v` for
    ///   the `f32` unit roundoff `v = 2⁻²⁴`. Below `f32`'s normal range
    ///   a product or quotient may also lose up to `2⁻¹⁵⁰`, divided by
    ///   `s` once in the quotient; as `2pq/s ≤ s/2`, that loss is at most
    ///   `min(s/2, 2⁻¹⁵⁰/s) + 2⁻¹⁵⁰ < 2⁻⁷⁵`, so a computed credit is at
    ///   least `(1 − v)⁴ c − 2⁻⁷⁴`. Adding `K` non-negative terms loses
    ///   at most a factor `(1 − v)^K`, so
    ///   `Ĥ ≥ (1 − (K + 4) v) H − K · 2⁻⁷⁴`, which gives the claim for
    ///   any `K < 2²²`.
    ///
    /// Their difference is at most
    /// `σ · (3.4m + (2.1N + 9.8)u) + (K + 4) · 2⁻²³ · Ĥ + K · 2⁻⁷³`. The
    /// row margin `Ĥ (K + 4) 2⁻²²` is twice the middle term, so it covers
    /// it together with its own rounding. The `f64` margin
    /// `σ̂ (N + 4) m ≥ σ (4m + N · 2¹³ u)(1 − (N + 2)u)` exceeds the first
    /// term by more than `σ m / 2 ≥ 2⁻⁴¹`, for any `N < 2⁴⁰`, and that
    /// covers the last term and the margin's own rounding. The kernel's
    /// score is never negative (every term is clamped at 0), so the
    /// clamp at 0 keeps the bound below it; the clamp is a comparison,
    /// so a NaN would stay NaN.
    ///
    /// A profile that shares no hot cell with the query keeps the
    /// all-`f64` bound `ln 2 · σ̂ − Ĉ − σ̂ (N + 4) m` to the bit (before
    /// the clamp): its row credits stay 0, and its postings sum as they
    /// would without rows. Otherwise rounding the masses up and the
    /// roundings above raise `Ĥ` over the `f64` credits by at most about
    /// `(K + 8) v Ĥ`, half the row margin, so the rows lower a bound by
    /// less than twice their margin against the all-`f64` bound.
    /// `heatmap_index::tests` check the result against the computed
    /// score itself, and against the all-`f64` bound.
    pub fn lower_bounds_with(&self, query: &Heatmap, out: &mut Vec<f64>, credits: &mut Vec<f32>) {
        let n = self.len();
        out.clear();
        out.resize(n, 0.0);
        credits.clear();
        credits.resize(n, 0.0);
        let (keys, masses) = (query.keys(), query.normalized());
        let mut hot_terms = 0;
        let mut c = 0;
        for (&cell, &q) in keys.iter().zip(masses) {
            c += self.cells[c..].partition_point(|&x| x < cell);
            match self.cells.get(c) {
                Some(&x) if x == cell => {}
                Some(_) => continue,
                None => break,
            }
            if let Some(r) = self.hot[c] {
                let r = r as usize;
                credit_row(&self.rows[r * n..(r + 1) * n], q, credits);
                hot_terms += 1;
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
        let row_margin = (hot_terms as f64 + 4.0) * ROW_MARGIN;
        for (((bound, &hot), &p_sum), &p_cells) in out
            .iter_mut()
            .zip(credits.iter())
            .zip(&self.summed)
            .zip(&self.cell_counts)
        {
            let sigma = p_sum + q_sum;
            let margin = sigma * (p_cells + q_terms) * BOUND_MARGIN;
            let hot = f64::from(hot);
            let b = LN_2 * sigma - *bound - hot - margin - hot * row_margin;
            *bound = if b < 0.0 { 0.0 } else { b };
        }
    }
}

/// Adds one hot row's `f32` credits against a query mass `q` into
/// `credits`: `(ln 2 − ½) · s + 2pq/s` where the profile holds the cell,
/// 0 where it lacks it. Contiguous and branch-free, so it vectorizes.
fn credit_row(row: &[f32], q: f64, credits: &mut [f32]) {
    let q = round_up(q);
    let twice_q = 2.0 * q;
    for (credit, &p) in credits.iter_mut().zip(row) {
        let s = p + q;
        let c = ROW_CREDIT_SLOPE * s + p * twice_q / s;
        *credit += if p > 0.0 { c } else { 0.0 };
    }
}

/// `p` rounded up to `f32`: never below `p`, and positive whenever `p`
/// is, down to masses below `f32`'s range.
fn round_up(p: f64) -> f32 {
    let r = p as f32;
    if f64::from(r) < p {
        r.next_up()
    } else {
        r
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

    impl HeatmapIndex {
        /// [`HeatmapIndex::lower_bounds_with`] with a fresh accumulator.
        fn lower_bounds(&self, query: &Heatmap, out: &mut Vec<f64>) {
            self.lower_bounds_with(query, out, &mut Vec::new());
        }
    }

    /// The all-`f64` bound on `T(query, profile)`: every shared credit
    /// summed in `f64` in the query's key order, no row margin and no
    /// clamp, as the index computed it before it had hot rows. The
    /// looseness oracle.
    fn f64_bound(query: &Heatmap, profile: &Heatmap) -> f64 {
        let (keys, masses) = (query.keys(), query.normalized());
        let mut credits = 0.0;
        for (cell, &q) in keys.iter().zip(masses) {
            let Ok(i) = profile.keys().binary_search(cell) else {
                continue;
            };
            let p = profile.normalized()[i];
            if p > 0.0 {
                let (s, d) = (p + q, p - q);
                credits += LN_2 * s - d * d / (2.0 * s);
            }
        }
        let q_sum: f64 = masses.iter().sum();
        let q_terms = keys.len() as f64 + 4.0;
        let p_sum: f64 = profile.normalized().iter().sum();
        let sigma = p_sum + q_sum;
        let margin = sigma * (profile.cell_count() as f64 + q_terms) * BOUND_MARGIN;
        LN_2 * sigma - credits - margin
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
        // seven profiles: a cell three of them hold is hot
        let mut profiles = vec![
            heatmap(&[(3, 1.0), (8, 2.0)]),
            heatmap(&[(1, 1.0), (3, 0.0), (8, 1.0)]),
            heatmap(&[(8, 5.0), (20, 1.0)]),
        ];
        profiles.extend((0..4).map(|k| heatmap(&[(40, f64::from(k + 1))])));
        let index = HeatmapIndex::build(&profiles);
        assert_eq!(index.cells, [cell(1), cell(3), cell(8), cell(20), cell(40)]);
        assert_eq!(index.hot, [None, None, Some(0), None, Some(1)]);
        // a hot cell has no postings
        assert_eq!(index.starts, [0, 1, 2, 2, 3, 3]);
        // the zero-mass cell 3 of profile 1 has no posting
        assert_eq!(index.profiles, [1, 0, 2]);
        assert_eq!(index.cell_counts, [2.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0]);
        // a row holds every profile's mass, rounded up, and 0 where the
        // profile lacks the cell
        assert_eq!(
            index.rows,
            [
                [
                    round_up(2.0 / 3.0),
                    0.5,
                    round_up(5.0 / 6.0),
                    0.0,
                    0.0,
                    0.0,
                    0.0
                ],
                [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
            ]
            .concat()
        );
    }

    #[test]
    fn masses_enter_rows_rounded_up() {
        for p in [
            0.0,
            1.0,
            0.5,
            2.0 / 3.0,
            0.1,
            1e-30,
            1e-39,
            1e-45,
            1e-46,
            1e-300,
            f64::MIN_POSITIVE,
        ] {
            let r = round_up(p);
            assert!(f64::from(r) >= p, "{p:e} rounds down to {r:e}");
            assert_eq!(r > 0.0, p > 0.0, "{p:e} → {r:e}");
            assert!(r == p as f32 || r == (p as f32).next_up(), "{p:e} → {r:e}");
        }
    }

    #[test]
    fn bounds_are_tight_on_a_hot_row_index() {
        // 64 profiles, two maps alternating: every cell is hot. The
        // disjoint map keeps the all-`f64` bound, 2 ln 2 less the
        // margin; the identical one bounds at exactly 0.
        let p = heatmap(&[(0, 3.0), (1, 1.0)]);
        let q = heatmap(&[(5, 2.0), (9, 7.0)]);
        let profiles: Vec<Heatmap> = (0..64usize)
            .map(|j| {
                if j.is_multiple_of(2) {
                    p.clone()
                } else {
                    q.clone()
                }
            })
            .collect();
        let index = HeatmapIndex::build(&profiles);
        assert_eq!(index.hot_rows(), 4);
        assert!(index.profiles.is_empty());
        let mut bounds = Vec::new();
        index.lower_bounds(&q, &mut bounds);
        let disjoint = q.topsoe(&p).unwrap();
        for (j, &bound) in bounds.iter().enumerate() {
            if j.is_multiple_of(2) {
                assert_eq!(bound, f64_bound(&q, &p));
                assert!(bound <= disjoint && disjoint - bound < 1e-9);
            } else {
                assert_eq!(bound, 0.0);
            }
        }
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
        // on the shapes of `one_walk_kernel_is_bit_identical_at_the_score`
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

    /// Bases of the extreme-mass sweep, plus masses below `f32`'s
    /// normal range.
    const EXTREMES: [f64; 16] = [
        1.0,
        0.5,
        1.0 / 3.0,
        0.1,
        1e-3,
        1e-9,
        1e-39,
        1e-45,
        1e-100,
        1e-300,
        f64::MIN_POSITIVE,
        3.0,
        1e40,
        1e149,
        1e200,
        f64::MAX / 4.0,
    ];

    /// A weight of the extreme-mass sweep: a base, `ulps` ulps up or
    /// down, at the ratio `0.3^k`.
    fn extreme((base, ulps, k): (usize, i32, u32)) -> f64 {
        let mut w = EXTREMES[base] * 0.3f64.powi(k as i32);
        for _ in 0..ulps.unsigned_abs() {
            w = if ulps > 0 { w.next_up() } else { w.next_down() };
        }
        w.max(0.0)
    }

    /// A wide index's profiles, one per weight `a`: the extreme-mass
    /// shape `[(0, a), (1, 1), (2, a)]`, the `pool` cells (shifted past
    /// it) where `(cell + j) % 3 ≠ 0`, and a cell of its own. Cells 0–2
    /// and most pool cells are hot; the own cells keep postings.
    fn wide_profiles(weights: &[(usize, i32, u32)], pool: &[(u32, u32)]) -> Vec<Heatmap> {
        weights
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                let a = extreme(w);
                let mut hm = heatmap(&[(0, a), (1, 1.0), (2, a), (50 + j as u32, 1.0)]);
                for &(k, c) in pool
                    .iter()
                    .filter(|&&(k, _)| !(k as usize + j).is_multiple_of(3))
                {
                    hm.add(cell(3 + k), f64::from(c));
                }
                hm
            })
            .collect()
    }

    /// Queries against [`wide_profiles`]: the extreme-mass test's shapes
    /// at each weight `b`, the pool beside a cold cell at `b`, the
    /// first profile itself and the empty map.
    fn wide_queries(
        profiles: &[Heatmap],
        weights: &[(usize, i32, u32)],
        pool: &[(u32, u32)],
    ) -> Vec<Heatmap> {
        let mut queries = vec![profiles[0].clone(), Heatmap::new()];
        for &w in weights {
            let b = extreme(w);
            queries.push(heatmap(&[(0, b), (1, 1.0)]));
            queries.push(heatmap(&[(0, b), (1, 1.0), (3, b)]));
            queries.push(heatmap(&[(0, b), (2, 1.0)]));
            let mut pooled = heatmap(&[(50, b)]);
            for &(k, c) in pool {
                pooled.add(cell(3 + k), f64::from(c));
            }
            queries.push(pooled);
        }
        queries
    }

    proptest! {
        // Indexes of 64–96 profiles that share cells, so they have hot
        // rows, at the extreme masses of
        // `bounds_never_exceed_the_score_at_extreme_masses` and below
        // `f32`'s normal range: the bound never exceeds the kernel's
        // computed score and is never NaN.
        #[test]
        fn hot_row_bounds_never_exceed_the_computed_score(
            weights in collection::vec((0usize..16, -3i32..4, 0u32..64), 64..97),
            pool in collection::vec((0u32..40, 1u32..200), 0..12),
            query_weights in collection::vec((0usize..16, -3i32..4, 0u32..64), 1..4),
        ) {
            let profiles = wide_profiles(&weights, &pool);
            prop_assert!(HeatmapIndex::build(&profiles).hot_rows() >= 3);
            assert_sound(&profiles, &wide_queries(&profiles, &query_weights, &pool));
        }

        // On the same indexes, the rows lower a bound by less than twice
        // their margin against the all-`f64` bound, and a profile that
        // shares no hot cell with the query keeps that bound to the bit
        // (clamped at 0).
        #[test]
        fn hot_rows_stay_within_twice_their_margin_of_the_f64_bound(
            weights in collection::vec((0usize..16, -3i32..4, 0u32..64), 64..97),
            pool in collection::vec((0u32..40, 1u32..200), 0..12),
            query_weights in collection::vec((0usize..16, -3i32..4, 0u32..64), 1..4),
        ) {
            let profiles = wide_profiles(&weights, &pool);
            let index = HeatmapIndex::build(&profiles);
            let (mut bounds, mut credits) = (Vec::new(), Vec::new());
            let is_hot = |c: &CellId| index.cells.binary_search(c).is_ok_and(|c| index.hot[c].is_some());
            for query in &wide_queries(&profiles, &query_weights, &pool) {
                index.lower_bounds_with(query, &mut bounds, &mut credits);
                let hot_terms = query.keys().iter().filter(|c| is_hot(c)).count();
                for (j, profile) in profiles.iter().enumerate() {
                    let f64_bound = f64_bound(query, profile);
                    let margin = f64::from(credits[j]) * (hot_terms as f64 + 4.0) * ROW_MARGIN;
                    prop_assert!(
                        f64_bound - bounds[j] <= 2.0 * margin + 1e-12,
                        "bound {:e} against the f64 bound {:e}, margin {:e} (profile {})",
                        bounds[j], f64_bound, margin, j
                    );
                    let shares_a_hot_cell = query
                        .keys()
                        .iter()
                        .any(|c| is_hot(c) && profile.probability(*c) > 0.0);
                    if !shares_a_hot_cell {
                        prop_assert_eq!(bounds[j], if f64_bound < 0.0 { 0.0 } else { f64_bound });
                    }
                }
            }
        }
    }
}
