//! Per-user heatmap profiles over one grid, indexed for profile scans:
//! what AP-Attack matches a trace against and what HMC picks its decoy
//! from.

use mood_geo::Grid;
use mood_trace::{Dataset, UserId};

use crate::{Heatmap, HeatmapIndex};

/// The grid that profiles of `background` are binned over: the
/// background's bounding box widened by 2 km, so that obfuscated traces,
/// which wander outside the raw extent, land in real cells instead of
/// piling up on the border, cut into `cell_size_m` cells.
///
/// # Panics
///
/// Panics when `background` is empty or `cell_size_m` is not strictly
/// positive.
pub fn background_grid(background: &Dataset, cell_size_m: f64) -> Grid {
    let bbox = background
        .bounding_box()
        .expect("background must not be empty")
        .expanded(2_000.0)
        .expect("non-negative margin");
    Grid::new(bbox, cell_size_m).expect("validated cell size")
}

/// Per-user heatmaps over one grid, in ascending-user order, plus the
/// cell-postings index that bounds a query's divergence from each.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapSet {
    grid: Grid,
    users: Vec<UserId>,
    heatmaps: Vec<Heatmap>,
    index: HeatmapIndex,
}

impl HeatmapSet {
    /// One heatmap per user of `background`, over
    /// [`background_grid`]`(background, cell_size_m)`.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty or `cell_size_m` is not strictly
    /// positive.
    pub fn build(background: &Dataset, cell_size_m: f64) -> Self {
        let grid = background_grid(background, cell_size_m);
        let (users, heatmaps) = background
            .iter()
            .map(|trace| (trace.user(), Heatmap::from_trace(&grid, trace)))
            .unzip();
        Self::new(grid, users, heatmaps)
    }

    /// The set of `heatmaps` over `grid`, one per user of `users`, which
    /// must ascend.
    ///
    /// # Panics
    ///
    /// Panics when `users` does not strictly ascend or its length differs
    /// from `heatmaps`'.
    pub fn new(grid: Grid, users: Vec<UserId>, heatmaps: Vec<Heatmap>) -> Self {
        assert_eq!(users.len(), heatmaps.len(), "one heatmap per user");
        assert!(
            users.windows(2).all(|w| w[0] < w[1]),
            "users must strictly ascend"
        );
        Self {
            grid,
            users,
            index: HeatmapIndex::build(&heatmaps),
            heatmaps,
        }
    }

    /// The grid the heatmaps are binned over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Profiles in ascending-user order.
    pub fn heatmaps(&self) -> &[Heatmap] {
        &self.heatmaps
    }

    /// Users, ascending, parallel to [`HeatmapSet::heatmaps`].
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// The cell-postings index over [`HeatmapSet::heatmaps`].
    pub fn index(&self) -> &HeatmapIndex {
        &self.index
    }

    /// Number of profiled users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no user is profiled.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// `(user, heatmap)` pairs in ascending-user order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Heatmap)> + '_ {
        self.users.iter().copied().zip(self.heatmaps.iter())
    }
}
