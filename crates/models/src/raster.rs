//! A small exact cache of trace rasterizations: the grid cell-sequence
//! of a trace, computed once and reused by every consumer on the same
//! grid (AP-Attack's heatmap, HMC's run detection, future grid-based
//! attacks).
//!
//! Candidate scoring rasterizes the same trace repeatedly: the raw trace
//! is rasterized by the attack suite's raw check *and* by the HMC single,
//! and a candidate that HMC extends may still be cached from the suite's
//! verdict on it, all on the paper's shared 800 m grid. [`TraceRaster`] keeps
//! the last few `(grid, trace) → cells` results in leased scratch so
//! those repeats become slice reuse.
//!
//! **Exactness.** A cache hit is only taken after comparing the stored
//! trace records byte-for-byte (plus the grid parameters), never on a
//! fingerprint — a hit provably returns the very cells a fresh
//! rasterization would, so cached and uncached runs are bit-identical.
//! The comparison is cheaper than rasterizing (three `f64` equality
//! checks per record vs. projection arithmetic), so misses stay close to
//! the cost of the plain path.

use mood_geo::{CellId, Grid};
use mood_trace::{Record, Trace, UserId};

/// One cached rasterization. Buffers are recycled on eviction.
struct RasterEntry {
    grid: Grid,
    user: UserId,
    records: Vec<Record>,
    cells: Vec<CellId>,
}

/// An exact, fixed-capacity `(grid, trace) → cell-sequence` cache for
/// reusable scratch (see the module docs).
///
/// Not synchronized: one task at a time holds a `TraceRaster`, per the
/// scratch lease contract (`AttackScratch` embeds one).
///
/// # Examples
///
/// ```
/// use mood_geo::{BoundingBox, GeoPoint, Grid};
/// use mood_models::TraceRaster;
/// use mood_trace::{Record, Timestamp, Trace, UserId};
///
/// let grid = Grid::new(BoundingBox::new(46.1, 46.3, 6.0, 6.3)?, 800.0)?;
/// let records: Vec<Record> = (0..4)
///     .map(|i| Record::new(GeoPoint::new(46.2, 6.1).unwrap(), Timestamp::from_unix(i * 60)))
///     .collect();
/// let trace = Trace::new(UserId::new(1), records)?;
///
/// let mut raster = TraceRaster::new();
/// let first = raster.cells(&grid, &trace).to_vec();
/// let again = raster.cells(&grid, &trace).to_vec();
/// assert_eq!(first, again);
/// assert_eq!(raster.hits(), 1);
/// assert_eq!(raster.misses(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default)]
pub struct TraceRaster {
    entries: Vec<RasterEntry>,
    next_evict: usize,
    hits: u64,
    misses: u64,
}

impl TraceRaster {
    /// How many rasterizations are kept. Sized for the engine's regime:
    /// the raw trace plus the last few intermediate candidates stay
    /// resident while a worker walks one user's variants.
    pub const CAPACITY: usize = 4;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell-sequence of `trace` over `grid` — one cell per record,
    /// in record order. Served from cache when this exact `(grid,
    /// trace)` pair was rasterized recently (verified by full record
    /// comparison), computed and cached otherwise.
    pub fn cells(&mut self, grid: &Grid, trace: &Trace) -> &[CellId] {
        let found = self.entries.iter().position(|e| {
            e.user == trace.user()
                && e.records.len() == trace.len()
                && e.grid == *grid
                && e.records.as_slice() == trace.records()
        });
        if let Some(i) = found {
            self.hits += 1;
            return &self.entries[i].cells;
        }
        self.misses += 1;
        let slot = if self.entries.len() < Self::CAPACITY {
            self.entries.push(RasterEntry {
                grid: grid.clone(),
                user: trace.user(),
                records: Vec::new(),
                cells: Vec::new(),
            });
            self.entries.len() - 1
        } else {
            let slot = self.next_evict;
            self.next_evict = (self.next_evict + 1) % Self::CAPACITY;
            let entry = &mut self.entries[slot];
            entry.grid = grid.clone();
            entry.user = trace.user();
            slot
        };
        let entry = &mut self.entries[slot];
        entry.records.clear();
        entry.records.extend_from_slice(trace.records());
        entry.cells.clear();
        entry
            .cells
            .extend(trace.records().iter().map(|r| grid.cell_of(&r.point())));
        &entry.cells
    }

    /// Cache hits so far (rasterizations served from a stored entry).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (fresh rasterizations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drains the hit/miss counters (for aggregation into shared
    /// metrics) and returns `(hits, misses)`.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    /// `true` once the cache holds at least one warmed-up entry.
    pub fn is_warm(&self) -> bool {
        !self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::{BoundingBox, GeoPoint};
    use mood_trace::Timestamp;

    fn grid(cell_m: f64) -> Grid {
        Grid::new(BoundingBox::new(46.1, 46.3, 6.0, 6.3).unwrap(), cell_m).unwrap()
    }

    fn trace(user: u64, lat0: f64, n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(lat0 + i as f64 * 0.001, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    #[test]
    fn cached_cells_match_fresh_rasterization() {
        let g = grid(800.0);
        let t = trace(1, 46.15, 30);
        let expected: Vec<CellId> = t.records().iter().map(|r| g.cell_of(&r.point())).collect();
        let mut raster = TraceRaster::new();
        assert!(!raster.is_warm());
        assert_eq!(raster.cells(&g, &t), expected.as_slice());
        assert_eq!(raster.cells(&g, &t), expected.as_slice());
        assert!(raster.is_warm());
        assert_eq!((raster.hits(), raster.misses()), (1, 1));
    }

    #[test]
    fn different_grid_same_trace_is_a_miss() {
        let (g800, g400) = (grid(800.0), grid(400.0));
        let t = trace(1, 46.15, 10);
        let mut raster = TraceRaster::new();
        let coarse = raster.cells(&g800, &t).to_vec();
        let fine = raster.cells(&g400, &t).to_vec();
        assert_eq!(raster.misses(), 2);
        assert_ne!(coarse, fine);
        // both entries stay resident
        raster.cells(&g800, &t);
        raster.cells(&g400, &t);
        assert_eq!(raster.hits(), 2);
    }

    #[test]
    fn same_shape_different_records_is_a_miss() {
        let g = grid(800.0);
        let a = trace(1, 46.15, 10);
        let b = trace(1, 46.25, 10); // same user, same length, other cells
        let mut raster = TraceRaster::new();
        let ca = raster.cells(&g, &a).to_vec();
        let cb = raster.cells(&g, &b).to_vec();
        assert_ne!(ca, cb);
        assert_eq!(raster.misses(), 2);
        assert_eq!(raster.hits(), 0);
    }

    #[test]
    fn eviction_recycles_and_stays_exact() {
        let g = grid(800.0);
        let traces: Vec<Trace> = (0..TraceRaster::CAPACITY as u64 + 2)
            .map(|u| trace(u + 1, 46.15 + u as f64 * 0.01, 8))
            .collect();
        let mut raster = TraceRaster::new();
        for _round in 0..3 {
            for t in &traces {
                let expected: Vec<CellId> =
                    t.records().iter().map(|r| g.cell_of(&r.point())).collect();
                assert_eq!(raster.cells(&g, t), expected.as_slice());
            }
        }
        assert!(raster.misses() > 0);
        let (h, m) = raster.take_counters();
        assert_eq!(h + m, 3 * traces.len() as u64);
        assert_eq!((raster.hits(), raster.misses()), (0, 0));
    }
}
