use serde::{Deserialize, Serialize};

use mood_geo::{CellId, Grid};
use mood_trace::Trace;

use crate::divergence;

/// A heatmap mobility profile: per-cell record counts over a
/// [`Grid`] (paper Fig. 1, right; the model behind AP-Attack and HMC).
///
/// Counts are kept raw, and every comparison reads them normalized by the
/// total, so heatmaps built from traces of different lengths compare
/// correctly.
///
/// Internally the counts live in **structure-of-arrays** form — a
/// sorted slice of cells and a parallel slice of `f64` counts — rather
/// than a `BTreeMap` or a pair vector: the candidate hot path rebuilds
/// one heatmap per scored trace, and flat vectors are cleared and
/// refilled in place ([`Heatmap::rebuild_from_cells`]), lookups stay
/// `O(log n)` by binary search on the key slice alone, and the Topsoe
/// comparison streams the normalized masses straight through one
/// branch-light merge walk. Those masses are kept beside the counts,
/// refreshed by every constructor and mutator, so a profile normalizes
/// once when built rather than once per comparison. A heatmap holds its
/// data and nothing else: the run list and count table a build uses
/// are dropped when the build returns.
///
/// # Examples
///
/// ```
/// use mood_geo::{BoundingBox, GeoPoint, Grid};
/// use mood_trace::{Record, Timestamp, Trace, UserId};
/// use mood_models::Heatmap;
///
/// let grid = Grid::new(BoundingBox::new(46.1, 46.3, 6.0, 6.3)?, 800.0)?;
/// let records: Vec<Record> = (0..10)
///     .map(|i| Record::new(GeoPoint::new(46.2, 6.1).unwrap(), Timestamp::from_unix(i * 60)))
///     .collect();
/// let trace = Trace::new(UserId::new(1), records)?;
/// let hm = Heatmap::from_trace(&grid, &trace);
/// assert_eq!(hm.total(), 10.0);
/// assert_eq!(hm.cell_count(), 1);
/// assert_eq!(hm.topsoe(&hm), Some(0.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "HeatmapRepr", into = "HeatmapRepr")]
pub struct Heatmap {
    /// Distinct cells, sorted ascending (row-major), each at most once.
    keys: Vec<CellId>,
    /// Count of `keys[i]` at index `i`.
    weights: Vec<f64>,
    total: f64,
    /// Normalized mass `(weights[i] / total).max(0.0)` at index `i`, the
    /// Topsoe kernel's input. A function of `weights` and `total`:
    /// serialization skips it, and comparing it changes no equality.
    norm: Vec<f64>,
}

/// Serialized form of [`Heatmap`]: cells as a list of pairs (JSON map keys
/// must be strings); the total is recomputed on deserialization.
#[derive(Serialize, Deserialize)]
struct HeatmapRepr {
    cells: Vec<(CellId, f64)>,
}

impl From<Heatmap> for HeatmapRepr {
    fn from(h: Heatmap) -> Self {
        HeatmapRepr {
            cells: h.keys.into_iter().zip(h.weights).collect(),
        }
    }
}

impl From<HeatmapRepr> for Heatmap {
    fn from(r: HeatmapRepr) -> Self {
        let mut hm = Heatmap::new();
        for (c, w) in r.cells {
            let w = if w.is_finite() { w.max(0.0) } else { 0.0 };
            hm.insert(c, w);
        }
        hm.refresh_norm();
        hm
    }
}

impl Heatmap {
    /// An empty heatmap (no records).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the heatmap of a trace over `grid`. Records outside the
    /// grid's bounding box are clamped to border cells (never dropped), so
    /// `total()` always equals the trace length.
    pub fn from_trace(grid: &Grid, trace: &Trace) -> Self {
        let mut hm = Self::new();
        hm.rebuild_from_cells(trace.records().iter().map(|r| grid.cell_of(&r.point())));
        hm
    }

    /// Clears the heatmap and refills it from a cell sequence, one cell
    /// per record, reusing its cell buffers: the scratch-arena form of
    /// [`Heatmap::from_trace`], which is this over the trace's cells.
    /// Only the build's run list and count table are allocated afresh,
    /// and dropped on return.
    ///
    /// The result is identical to building a fresh heatmap from the same
    /// cells: counts are whole numbers, so accumulation order cannot
    /// change the stored values.
    pub fn rebuild_from_cells(&mut self, cells: impl IntoIterator<Item = CellId>) {
        self.keys.clear();
        self.weights.clear();
        self.total = 0.0;
        self.accumulate(cells.into_iter());
        self.refresh_norm();
    }

    /// Largest dense count table [`Heatmap::accumulate`] will allocate
    /// (bins = grid extent actually touched). 64Ki bins cover a
    /// 256×256 grid — far beyond the paper's city-scale grids — at a
    /// worst-case 512 KiB per build; larger extents fall back to the
    /// sort path.
    const DENSE_BINS_MAX: u64 = 1 << 16;

    /// Accumulates a cell sequence into the empty map: collapse
    /// consecutive runs (dwells make them common), then count runs into
    /// a dense per-cell table and emit the touched bins in row-major
    /// order (equals ascending [`CellId`] order). Grids too large for
    /// the table take a sort-and-merge fallback over the packed runs.
    ///
    /// Either path stores exactly what the original
    /// collapse → stable-sort → merge produced: counts are whole
    /// numbers, so no regrouping of the additions can change a stored
    /// value, and both emit orders are ascending cell order.
    fn accumulate(&mut self, cells: impl Iterator<Item = CellId>) {
        debug_assert!(self.keys.is_empty());
        let mut runs: Vec<(u64, f64)> = Vec::with_capacity(cells.size_hint().0);
        let (mut max_row, mut max_col) = (0u32, 0u32);
        for c in cells {
            self.total += 1.0;
            max_row = max_row.max(c.row);
            max_col = max_col.max(c.col);
            let key = pack_cell(c);
            if let Some(last) = runs.last_mut() {
                if last.0 == key {
                    last.1 += 1.0;
                    continue;
                }
            }
            runs.push((key, 1.0));
        }
        if runs.is_empty() {
            return;
        }
        let stride = u64::from(max_col) + 1;
        let size = (u64::from(max_row) + 1) * stride;
        if size <= Self::DENSE_BINS_MAX {
            // Counting path: counts ≥ 1, so a zero bin means untouched.
            let mut bins = vec![0.0f64; size as usize];
            let mut touched: Vec<u32> = Vec::with_capacity(runs.len());
            for &(key, count) in &runs {
                let idx = ((key >> 32) * stride + (key & 0xffff_ffff)) as usize;
                if bins[idx] == 0.0 {
                    touched.push(idx as u32);
                }
                bins[idx] += count;
            }
            touched.sort_unstable();
            self.keys.reserve(touched.len());
            self.weights.reserve(touched.len());
            for &idx in &touched {
                self.keys.push(CellId {
                    row: (u64::from(idx) / stride) as u32,
                    col: (u64::from(idx) % stride) as u32,
                });
                self.weights.push(bins[idx as usize]);
            }
        } else {
            runs.sort_unstable_by_key(|r| r.0);
            self.keys.reserve(runs.len());
            self.weights.reserve(runs.len());
            let mut last_key: Option<u64> = None;
            for &(key, count) in &runs {
                if last_key == Some(key) {
                    *self.weights.last_mut().expect("keys and weights align") += count;
                } else {
                    self.keys.push(unpack_cell(key));
                    self.weights.push(count);
                    last_key = Some(key);
                }
            }
        }
    }

    /// Adds `weight` mass to `cell`.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is negative or not finite.
    pub fn add(&mut self, cell: CellId, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be non-negative"
        );
        self.insert(cell, weight);
        self.refresh_norm();
    }

    /// [`Heatmap::add`] without refreshing the normalized masses, for
    /// callers that insert many cells and refresh once.
    fn insert(&mut self, cell: CellId, weight: f64) {
        match self.keys.binary_search(&cell) {
            Ok(i) => self.weights[i] += weight,
            Err(i) => {
                self.keys.insert(i, cell);
                self.weights.insert(i, weight);
            }
        }
        self.total += weight;
    }

    /// Recomputes every normalized mass from the counts and the total:
    /// exactly the `(w / total).max(0.0)` a comparison would otherwise
    /// compute per cell, so stored and on-the-fly values agree bit for
    /// bit.
    fn refresh_norm(&mut self) {
        let total = self.total;
        self.norm.clear();
        self.norm
            .extend(self.weights.iter().map(|&w| (w / total).max(0.0)));
    }

    /// The distinct cells, sorted ascending (row-major).
    pub fn keys(&self) -> &[CellId] {
        &self.keys
    }

    /// The per-cell counts, parallel to [`Heatmap::keys`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The normalized masses, parallel to [`Heatmap::keys`]: what the
    /// Topsoe kernel reads.
    pub(crate) fn normalized(&self) -> &[f64] {
        &self.norm
    }

    /// The raw per-cell counts as `(cell, count)` pairs, sorted by cell.
    pub fn cell_entries(&self) -> impl Iterator<Item = (CellId, f64)> + '_ {
        self.keys.iter().copied().zip(self.weights.iter().copied())
    }

    /// Total mass (= number of records for trace-built heatmaps).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of distinct non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the heatmap holds no mass.
    pub fn is_empty(&self) -> bool {
        self.total <= 0.0
    }

    /// Raw count of `cell` (0 when absent).
    pub fn count(&self, cell: CellId) -> f64 {
        self.keys
            .binary_search(&cell)
            .map_or(0.0, |i| self.weights[i])
    }

    /// Probability mass of `cell` (0 when absent or the map is empty).
    pub fn probability(&self, cell: CellId) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.count(cell) / self.total
    }

    /// The `k` hottest cells with their counts, descending; ties broken by
    /// cell order so the result is deterministic.
    pub fn top_cells(&self, k: usize) -> Vec<(CellId, f64)> {
        let mut v: Vec<(CellId, f64)> = self.cell_entries().collect();
        Self::rank(&mut v);
        v.truncate(k);
        v
    }

    /// All cells sorted hottest-first (the full ranking HMC's
    /// rank-matching uses).
    pub fn ranked_cells(&self) -> Vec<(CellId, f64)> {
        self.top_cells(self.keys.len())
    }

    fn rank(v: &mut [(CellId, f64)]) {
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    }

    /// Topsoe divergence to `other` (Endres & Schindelin 2003, the
    /// paper's \[13\]), AP-Attack's profile distance, over both
    /// heatmaps' normalized masses `p` and `q`:
    ///
    /// ```text
    /// T(P, Q) = Σ_k [ p ln(2p/(p+q)) + q ln(2q/(p+q)) ]
    /// ```
    ///
    /// Symmetric, non-negative, zero iff the masses agree, and at most
    /// `2 ln 2` (reached when the supports are disjoint); twice the
    /// Jensen–Shannon divergence. `None` when either heatmap is empty.
    /// Reads the maintained normalized masses — no re-summation or
    /// re-normalization — so every comparison sources them the same way.
    pub fn topsoe(&self, other: &Heatmap) -> Option<f64> {
        self.topsoe_bounded(other, f64::INFINITY)
    }

    /// [`Heatmap::topsoe`] with best-bound pruning: returns `None` as
    /// soon as the score provably exceeds `bound`. Every term is
    /// clamped non-negative, so partial sums never decrease and a
    /// pruned score would exceed `bound` too. A returned score is
    /// bit-identical to the unpruned [`Heatmap::topsoe`].
    pub fn topsoe_bounded(&self, other: &Heatmap, bound: f64) -> Option<f64> {
        divergence::topsoe_soa_bounded(
            &self.keys,
            &self.norm,
            self.total,
            &other.keys,
            &other.norm,
            other.total,
            bound,
        )
    }
}

/// Packs a cell into a row-major `u64` key: `row` in the high half,
/// `col` in the low half, so `u64` order equals [`CellId`] order.
fn pack_cell(c: CellId) -> u64 {
    (u64::from(c.row) << 32) | u64::from(c.col)
}

fn unpack_cell(key: u64) -> CellId {
    CellId {
        row: (key >> 32) as u32,
        col: key as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::{BoundingBox, GeoPoint};
    use mood_trace::{Record, Timestamp, UserId};

    fn grid() -> Grid {
        Grid::new(BoundingBox::new(46.1, 46.3, 6.0, 6.3).unwrap(), 800.0).unwrap()
    }

    fn trace_at(points: &[(f64, f64)]) -> Trace {
        let records: Vec<Record> = points
            .iter()
            .enumerate()
            .map(|(i, &(lat, lng))| {
                Record::new(
                    GeoPoint::new(lat, lng).unwrap(),
                    Timestamp::from_unix(i as i64 * 60),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn from_trace_counts_every_record() {
        let t = trace_at(&[(46.15, 6.05), (46.15, 6.05), (46.25, 6.25)]);
        let hm = Heatmap::from_trace(&grid(), &t);
        assert_eq!(hm.total(), 3.0);
        assert_eq!(hm.cell_count(), 2);
    }

    #[test]
    fn out_of_box_points_are_clamped_not_dropped() {
        let t = trace_at(&[(46.15, 6.05), (50.0, 10.0)]);
        let hm = Heatmap::from_trace(&grid(), &t);
        assert_eq!(hm.total(), 2.0);
    }

    #[test]
    fn probability_normalizes() {
        let g = grid();
        let t = trace_at(&[(46.15, 6.05), (46.15, 6.05), (46.25, 6.25), (46.25, 6.25)]);
        let hm = Heatmap::from_trace(&g, &t);
        let c = g.cell_of(&GeoPoint::new(46.15, 6.05).unwrap());
        assert!((hm.probability(c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_heatmap_behaviour() {
        let hm = Heatmap::new();
        assert!(hm.is_empty());
        assert_eq!(hm.cell_count(), 0);
        assert_eq!(hm.probability(CellId { row: 0, col: 0 }), 0.0);
        assert!(hm.topsoe(&hm).is_none());
    }

    #[test]
    fn add_accumulates() {
        let mut hm = Heatmap::new();
        let c = CellId { row: 1, col: 2 };
        hm.add(c, 2.0);
        hm.add(c, 3.0);
        assert_eq!(hm.total(), 5.0);
        assert_eq!(hm.count(c), 5.0);
    }

    #[test]
    #[should_panic(expected = "weight must be non-negative")]
    fn add_rejects_negative() {
        Heatmap::new().add(CellId { row: 0, col: 0 }, -1.0);
    }

    #[test]
    fn cells_are_sorted_and_unique() {
        let mut hm = Heatmap::new();
        for c in [5u32, 1, 3, 1, 5, 2] {
            hm.add(CellId { row: c, col: 0 }, 1.0);
        }
        assert_eq!(hm.keys().len(), 4);
        assert_eq!(hm.keys().len(), hm.weights().len());
        assert!(hm.keys().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(hm.count(CellId { row: 1, col: 0 }), 2.0);
        assert_eq!(hm.cell_entries().count(), 4);
    }

    #[test]
    fn rebuild_from_cells_matches_fresh_build() {
        let g = grid();
        let t = trace_at(&[
            (46.15, 6.05),
            (46.15, 6.05),
            (46.25, 6.25),
            (46.15, 6.05),
            (46.22, 6.12),
        ]);
        let fresh = Heatmap::from_trace(&g, &t);
        let cells: Vec<CellId> = t.records().iter().map(|r| g.cell_of(&r.point())).collect();
        let mut reused = Heatmap::new();
        // fill with junk first: rebuild must fully replace it
        reused.add(CellId { row: 9, col: 9 }, 42.0);
        reused.rebuild_from_cells(cells.iter().copied());
        assert_eq!(reused, fresh);
        // and again, exercising the warmed buffer
        reused.rebuild_from_cells(cells.iter().copied());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn dense_and_sorted_accumulate_paths_agree() {
        // Cells beyond the dense-table extent force the sort fallback;
        // the same sequence shifted into a small extent takes the
        // counting path. Both must produce identical counts.
        let seq: Vec<u32> = vec![5, 5, 1, 3, 1, 5, 2, 2, 2, 0, 3];
        let small: Vec<CellId> = seq.iter().map(|&r| CellId { row: r, col: r }).collect();
        let large: Vec<CellId> = seq
            .iter()
            .map(|&r| CellId {
                row: r + 500_000,
                col: r + 500_000,
            })
            .collect();
        let mut hm_small = Heatmap::new();
        hm_small.rebuild_from_cells(small.iter().copied());
        let mut hm_large = Heatmap::new();
        hm_large.rebuild_from_cells(large.iter().copied());
        assert_eq!(hm_small.total(), hm_large.total());
        assert_eq!(hm_small.cell_count(), hm_large.cell_count());
        for ((ks, ws), (kl, wl)) in hm_small.cell_entries().zip(hm_large.cell_entries()) {
            assert_eq!(ks.row + 500_000, kl.row);
            assert_eq!(ws.to_bits(), wl.to_bits());
        }
        // and each agrees with the incremental reference
        let mut by_add = Heatmap::new();
        for &c in &small {
            by_add.add(c, 1.0);
        }
        assert_eq!(hm_small, by_add);
    }

    #[test]
    fn top_cells_descending_deterministic() {
        let mut hm = Heatmap::new();
        hm.add(CellId { row: 0, col: 0 }, 5.0);
        hm.add(CellId { row: 1, col: 1 }, 10.0);
        hm.add(CellId { row: 2, col: 2 }, 5.0);
        let top = hm.top_cells(3);
        assert_eq!(top[0].0, CellId { row: 1, col: 1 });
        // tie between (0,0) and (2,2) broken by cell order
        assert_eq!(top[1].0, CellId { row: 0, col: 0 });
        assert_eq!(top[2].0, CellId { row: 2, col: 2 });
    }

    #[test]
    fn topsoe_zero_for_identical_profiles() {
        let t = trace_at(&[(46.15, 6.05), (46.25, 6.25)]);
        let hm = Heatmap::from_trace(&grid(), &t);
        assert_eq!(hm.topsoe(&hm), Some(0.0));
    }

    #[test]
    fn topsoe_max_for_disjoint_profiles() {
        let a = Heatmap::from_trace(&grid(), &trace_at(&[(46.15, 6.05)]));
        let b = Heatmap::from_trace(&grid(), &trace_at(&[(46.25, 6.25)]));
        let d = a.topsoe(&b).unwrap();
        assert!((d - 2.0 * divergence::LN_2).abs() < 1e-12);
    }

    #[test]
    fn topsoe_smaller_for_similar_profiles() {
        let a = trace_at(&[(46.15, 6.05), (46.15, 6.05), (46.25, 6.25)]);
        let b = trace_at(&[(46.15, 6.05), (46.25, 6.25), (46.25, 6.25)]);
        let c = trace_at(&[(46.12, 6.27), (46.12, 6.27), (46.12, 6.27)]);
        let g = grid();
        let (ha, hb, hc) = (
            Heatmap::from_trace(&g, &a),
            Heatmap::from_trace(&g, &b),
            Heatmap::from_trace(&g, &c),
        );
        assert!(ha.topsoe(&hb).unwrap() < ha.topsoe(&hc).unwrap());
    }

    #[test]
    fn topsoe_bounded_agrees_with_full_or_prunes() {
        let g = grid();
        let a = Heatmap::from_trace(&g, &trace_at(&[(46.15, 6.05), (46.25, 6.25)]));
        let b = Heatmap::from_trace(&g, &trace_at(&[(46.15, 6.05), (46.12, 6.27)]));
        let full = a.topsoe(&b).unwrap();
        assert_eq!(a.topsoe_bounded(&b, f64::INFINITY), Some(full));
        // a bound below the true score must prune
        assert_eq!(a.topsoe_bounded(&b, full / 2.0), None);
    }

    /// The normalized masses the Topsoe kernel reads, recomputed from
    /// scratch: every constructor and mutator must leave them equal to
    /// this, to the bit.
    fn assert_norm_fresh(hm: &Heatmap) {
        let want: Vec<u64> = hm
            .weights
            .iter()
            .map(|&w| (w / hm.total).max(0.0).to_bits())
            .collect();
        let got: Vec<u64> = hm.norm.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn normalized_masses_track_every_mutation() {
        let g = grid();
        let t = trace_at(&[(46.15, 6.05), (46.15, 6.05), (46.25, 6.25)]);
        let mut hm = Heatmap::from_trace(&g, &t);
        assert_norm_fresh(&hm);
        hm.add(CellId { row: 0, col: 0 }, 2.5);
        assert_norm_fresh(&hm);
        hm.add(CellId { row: 0, col: 0 }, 1.0);
        assert_norm_fresh(&hm);
        let back: Heatmap = serde_json::from_str(&serde_json::to_string(&hm).unwrap()).unwrap();
        assert_norm_fresh(&back);
        let mut reused = hm.clone();
        reused.rebuild_from_cells([CellId { row: 3, col: 1 }, CellId { row: 0, col: 2 }]);
        assert_norm_fresh(&reused);
        reused.rebuild_from_cells([]);
        assert_norm_fresh(&reused);
        assert!(reused.norm.is_empty());
        // the stored masses give the score the scalar oracle computes
        // from raw counts
        let other = Heatmap::from_trace(&g, &trace_at(&[(46.22, 6.12), (46.15, 6.05)]));
        let pairs = |h: &Heatmap| -> Vec<(CellId, f64)> { h.cell_entries().collect() };
        assert_eq!(
            back.topsoe(&other).map(f64::to_bits),
            divergence::topsoe_pairs_reference(
                &pairs(&back),
                back.total(),
                &pairs(&other),
                other.total(),
                f64::INFINITY
            )
            .map(f64::to_bits)
        );
    }

    #[test]
    fn serde_roundtrip() {
        let hm = Heatmap::from_trace(&grid(), &trace_at(&[(46.15, 6.05), (46.25, 6.25)]));
        let json = serde_json::to_string(&hm).unwrap();
        let back: Heatmap = serde_json::from_str(&json).unwrap();
        assert_eq!(hm, back);
    }
}
