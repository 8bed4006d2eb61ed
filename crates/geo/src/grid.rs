use serde::{Deserialize, Serialize};

use crate::{BoundingBox, GeoError, GeoPoint, Result};

/// Identifier of a cell inside a [`Grid`]: `(row, col)` with row 0 the
/// southernmost row and col 0 the westernmost column.
///
/// `CellId` is ordered row-major so cells can key `BTreeMap`s and sort
/// deterministically across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Row index, increasing northward from 0.
    pub row: u32,
    /// Column index, increasing eastward from 0.
    pub col: u32,
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// A uniform metric grid over a bounding box.
///
/// The grid divides its box into cells of approximately `cell_size_m`
/// meters on each side (the paper's AP-attack and HMC both use 800 m
/// cells). Points outside the box are clamped to the border cells, so
/// `cell_of` is total — heatmaps never lose records.
///
/// # Examples
///
/// ```
/// use mood_geo::{BoundingBox, Grid};
///
/// let bbox = BoundingBox::new(46.15, 46.26, 6.05, 6.22)?;
/// let grid = Grid::new(bbox, 800.0)?;
/// assert!(grid.rows() >= 15 && grid.cols() >= 15);
/// let c = grid.cell_of(&bbox.center());
/// assert!(grid.cell_center(c).haversine_distance(&bbox.center()) < 800.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "GridSpec", into = "GridSpec")]
pub struct Grid {
    bbox: BoundingBox,
    cell_size_m: f64,
    rows: u32,
    cols: u32,
    lat_step: f64,
    lng_step: f64,
}

impl Grid {
    /// Creates a grid over `bbox` with square cells of roughly
    /// `cell_size_m` meters. A degenerate box still produces a 1x1 grid.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidCellSize`] when `cell_size_m` is zero,
    /// negative or not finite.
    pub fn new(bbox: BoundingBox, cell_size_m: f64) -> Result<Self> {
        if !cell_size_m.is_finite() || cell_size_m <= 0.0 {
            return Err(GeoError::InvalidCellSize(cell_size_m));
        }
        let rows = (bbox.height_m() / cell_size_m).ceil().max(1.0) as u32;
        let cols = (bbox.width_m() / cell_size_m).ceil().max(1.0) as u32;
        let lat_step = (bbox.max_lat() - bbox.min_lat()) / rows as f64;
        let lng_step = (bbox.max_lng() - bbox.min_lng()) / cols as f64;
        Ok(Self {
            bbox,
            cell_size_m,
            rows,
            cols,
            lat_step,
            lng_step,
        })
    }

    /// The box this grid covers.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Requested cell edge length in meters.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }

    /// Number of rows (south to north).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (west to east).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// The cell containing `p`. Points outside the box are clamped to the
    /// nearest border cell, making this function total.
    pub fn cell_of(&self, p: &GeoPoint) -> CellId {
        let fy = if self.lat_step > 0.0 {
            (p.lat() - self.bbox.min_lat()) / self.lat_step
        } else {
            0.0
        };
        let fx = if self.lng_step > 0.0 {
            (p.lng() - self.bbox.min_lng()) / self.lng_step
        } else {
            0.0
        };
        let row = (fy.floor().max(0.0) as u32).min(self.rows - 1);
        let col = (fx.floor().max(0.0) as u32).min(self.cols - 1);
        CellId { row, col }
    }

    /// Center point of `cell`. Out-of-range indices are clamped to the
    /// grid border, mirroring [`Grid::cell_of`].
    pub fn cell_center(&self, cell: CellId) -> GeoPoint {
        let row = cell.row.min(self.rows - 1) as f64;
        let col = cell.col.min(self.cols - 1) as f64;
        GeoPoint::new(
            self.bbox.min_lat() + (row + 0.5) * self.lat_step,
            self.bbox.min_lng() + (col + 0.5) * self.lng_step,
        )
        .expect("cell center inside valid box is valid")
    }

    /// The point at fractional offsets `(fy, fx) ∈ [0,1]²` inside `cell`,
    /// with `(0,0)` its south-west corner. Used by HMC to re-materialize a
    /// record inside a target cell while preserving its in-cell offset.
    pub fn point_in_cell(&self, cell: CellId, fy: f64, fx: f64) -> GeoPoint {
        let row = cell.row.min(self.rows - 1) as f64;
        let col = cell.col.min(self.cols - 1) as f64;
        let fy = fy.clamp(0.0, 1.0);
        let fx = fx.clamp(0.0, 1.0);
        GeoPoint::new(
            self.bbox.min_lat() + (row + fy) * self.lat_step,
            self.bbox.min_lng() + (col + fx) * self.lng_step,
        )
        .expect("point inside valid box is valid")
    }

    /// Fractional offsets of `p` inside its own cell; the inverse of
    /// [`Grid::point_in_cell`] for in-box points.
    pub fn fraction_in_cell(&self, p: &GeoPoint) -> (f64, f64) {
        let cell = self.cell_of(p);
        let base_lat = self.bbox.min_lat() + cell.row as f64 * self.lat_step;
        let base_lng = self.bbox.min_lng() + cell.col as f64 * self.lng_step;
        let fy = if self.lat_step > 0.0 {
            ((p.lat() - base_lat) / self.lat_step).clamp(0.0, 1.0)
        } else {
            0.5
        };
        let fx = if self.lng_step > 0.0 {
            ((p.lng() - base_lng) / self.lng_step).clamp(0.0, 1.0)
        } else {
            0.5
        };
        (fy, fx)
    }
}

/// Serialized form of [`Grid`]: only the defining parameters are stored;
/// derived fields (rows, steps) are recomputed on deserialization so the
/// round-trip is bit-exact.
#[derive(Serialize, Deserialize)]
struct GridSpec {
    bbox: BoundingBox,
    cell_size_m: f64,
}

impl From<Grid> for GridSpec {
    fn from(g: Grid) -> Self {
        GridSpec {
            bbox: g.bbox,
            cell_size_m: g.cell_size_m,
        }
    }
}

impl TryFrom<GridSpec> for Grid {
    type Error = GeoError;

    fn try_from(spec: GridSpec) -> Result<Self> {
        Grid::new(spec.bbox, spec.cell_size_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geneva_grid() -> Grid {
        let bbox = BoundingBox::new(46.15, 46.26, 6.05, 6.22).unwrap();
        Grid::new(bbox, 800.0).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        let bbox = BoundingBox::new(46.15, 46.26, 6.05, 6.22).unwrap();
        assert!(matches!(
            Grid::new(bbox, 0.0),
            Err(GeoError::InvalidCellSize(_))
        ));
        assert!(Grid::new(bbox, -5.0).is_err());
        assert!(Grid::new(bbox, f64::NAN).is_err());
    }

    #[test]
    fn dimensions_match_extent() {
        let g = geneva_grid();
        // Geneva box is ~12.2 km x ~13.1 km -> 16 x 17 cells of 800 m
        assert!(g.rows() >= 15 && g.rows() <= 17, "rows {}", g.rows());
        assert!(g.cols() >= 15 && g.cols() <= 18, "cols {}", g.cols());
        assert_eq!(g.cell_count(), g.rows() as u64 * g.cols() as u64);
    }

    #[test]
    fn degenerate_box_gives_single_cell() {
        let bbox = BoundingBox::new(46.0, 46.0, 6.0, 6.0).unwrap();
        let g = Grid::new(bbox, 800.0).unwrap();
        assert_eq!(g.cell_count(), 1);
        let p = GeoPoint::new(46.0, 6.0).unwrap();
        assert_eq!(g.cell_of(&p), CellId { row: 0, col: 0 });
    }

    #[test]
    fn cell_of_corners() {
        let g = geneva_grid();
        let sw = GeoPoint::new(g.bbox().min_lat(), g.bbox().min_lng()).unwrap();
        let ne = GeoPoint::new(g.bbox().max_lat(), g.bbox().max_lng()).unwrap();
        assert_eq!(g.cell_of(&sw), CellId { row: 0, col: 0 });
        let top = g.cell_of(&ne);
        assert_eq!(top.row, g.rows() - 1);
        assert_eq!(top.col, g.cols() - 1);
    }

    #[test]
    fn outside_points_clamp_to_border() {
        let g = geneva_grid();
        let far_north = GeoPoint::new(80.0, 6.1).unwrap();
        assert_eq!(g.cell_of(&far_north).row, g.rows() - 1);
        let far_west = GeoPoint::new(46.2, -170.0).unwrap();
        assert_eq!(g.cell_of(&far_west).col, 0);
    }

    #[test]
    fn cell_center_within_cell() {
        let g = geneva_grid();
        for (row, col) in [(0, 0), (3, 5), (15, 16)] {
            let cell = CellId { row, col };
            let center = g.cell_center(cell);
            assert_eq!(
                g.cell_of(&center),
                CellId {
                    row: row.min(g.rows() - 1),
                    col: col.min(g.cols() - 1)
                }
            );
        }
    }

    #[test]
    fn point_in_cell_fraction_roundtrip() {
        let g = geneva_grid();
        let p = GeoPoint::new(46.2031, 6.1269).unwrap();
        let cell = g.cell_of(&p);
        let (fy, fx) = g.fraction_in_cell(&p);
        let back = g.point_in_cell(cell, fy, fx);
        assert!(p.haversine_distance(&back) < 0.5, "residual too large");
    }

    #[test]
    fn adjacent_cell_distance_approx_cell_size() {
        let g = geneva_grid();
        let (a, b) = (CellId { row: 4, col: 4 }, CellId { row: 4, col: 5 });
        let d = g.cell_center(a).approx_distance(&g.cell_center(b));
        assert!((d - g.cell_size_m()).abs() < 120.0, "{d}");
    }

    #[test]
    fn cellid_orders_row_major() {
        let a = CellId { row: 0, col: 9 };
        let b = CellId { row: 1, col: 0 };
        assert!(a < b);
    }

    #[test]
    fn serde_roundtrip() {
        let g = geneva_grid();
        let json = serde_json::to_string(&g).unwrap();
        let back: Grid = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn every_inbox_point_maps_to_valid_cell(
            fy in 0.0f64..1.0,
            fx in 0.0f64..1.0,
            cell_size in 100.0f64..3_000.0,
        ) {
            let bbox = BoundingBox::new(46.15, 46.26, 6.05, 6.22).unwrap();
            let g = Grid::new(bbox, cell_size).unwrap();
            let p = bbox.point_at_fraction(fy, fx);
            let cell = g.cell_of(&p);
            prop_assert!(cell.row < g.rows());
            prop_assert!(cell.col < g.cols());
            // the cell center is within one cell diagonal of the point
            let d = g.cell_center(cell).haversine_distance(&p);
            prop_assert!(d <= cell_size * 1.5, "distance {d} cell {cell_size}");
        }

        #[test]
        fn fraction_roundtrip(fy in 0.001f64..0.999, fx in 0.001f64..0.999) {
            let bbox = BoundingBox::new(46.15, 46.26, 6.05, 6.22).unwrap();
            let g = Grid::new(bbox, 800.0).unwrap();
            let p = bbox.point_at_fraction(fy, fx);
            let cell = g.cell_of(&p);
            let (gy, gx) = g.fraction_in_cell(&p);
            let back = g.point_in_cell(cell, gy, gx);
            prop_assert!(p.haversine_distance(&back) < 1.0);
        }
    }
}
