use rand::RngCore;

use mood_geo::Grid;
use mood_models::background_grid;
use mood_trace::{Dataset, Record, Trace};

use crate::Lppm;

/// Spatial cloaking — a *generalization*-family LPPM (the third classic
/// family next to perturbation/Geo-I and dummy generation/TRL; cf. the
/// paper's §2.3 and its k-anonymity related work \[31\], \[1\], \[2\]).
///
/// Every record is generalized to the **center of its grid cell**: all
/// positions within a cell become indistinguishable, a spatial analogue
/// of attribute generalization in k-anonymity systems. Cloaking is
/// deterministic (the RNG is unused), which makes it an interesting
/// composition partner: `Cloaking→Geo-I` is "generalize, then perturb".
///
/// This mechanism is **not** part of the paper's evaluated set; it is the
/// extension the paper names in §6 ("MooD can be extended by using
/// state-of-the-art LPPMs") and is exercised by the 4-LPPM engine tests
/// (composition space |C| = 64).
///
/// # Examples
///
/// ```
/// use mood_lppm::{Lppm, SpatialCloaking};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
/// use rand::SeedableRng;
///
/// let ds = presets::privamov_like().scaled(0.1).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let cloak = SpatialCloaking::from_background(&background, 800.0);
/// let trace = test.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let protected = cloak.protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialCloaking {
    grid: Grid,
}

impl SpatialCloaking {
    /// Creates a cloaking mechanism over an explicit grid.
    pub fn new(grid: Grid) -> Self {
        Self { grid }
    }

    /// Cloaks over the grid the attacks bin `background` on
    /// ([`background_grid`]: its extent widened by 2 km), with
    /// `cell_size_m` cells.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty or `cell_size_m` is not
    /// strictly positive.
    pub fn from_background(background: &Dataset, cell_size_m: f64) -> Self {
        Self::new(background_grid(background, cell_size_m))
    }

    /// The generalization grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

impl Lppm for SpatialCloaking {
    fn name(&self) -> &str {
        "Cloaking"
    }

    fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        out.clear();
        out.reserve(trace.len());
        out.extend(
            trace
                .records()
                .iter()
                .map(|r| r.with_point(self.grid.cell_center(self.grid.cell_of(&r.point())))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::{BoundingBox, GeoPoint};
    use mood_trace::{Record, TimeDelta, Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> Grid {
        Grid::new(BoundingBox::new(46.1, 46.3, 6.0, 6.3).unwrap(), 800.0).unwrap()
    }

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    #[test]
    fn snaps_to_cell_centers() {
        let cloak = SpatialCloaking::new(grid());
        // two points ~25 m apart: guaranteed to share an 800 m cell
        let t = Trace::new(
            UserId::new(1),
            vec![rec(46.1510, 6.0510, 0), rec(46.1512, 6.0511, 600)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = cloak.protect(&t, &mut rng);
        let g = cloak.grid();
        assert_eq!(
            g.cell_of(&t.records()[0].point()),
            g.cell_of(&t.records()[1].point()),
            "test points must share a cell"
        );
        // same cell -> identical generalized points
        assert_eq!(p.records()[0].point(), p.records()[1].point());
        let cell = cloak.grid().cell_of(&t.records()[0].point());
        assert_eq!(p.records()[0].point(), cloak.grid().cell_center(cell));
    }

    #[test]
    fn displacement_bounded_by_cell_diagonal() {
        let cloak = SpatialCloaking::new(grid());
        let t = Trace::new(UserId::new(1), vec![rec(46.2031, 6.1269, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = cloak.protect(&t, &mut rng);
        let d = t.records()[0]
            .point()
            .haversine_distance(&p.records()[0].point());
        assert!(d <= 800.0, "cloaking moved a record {d} m");
    }

    #[test]
    fn is_deterministic_and_rng_free() {
        let cloak = SpatialCloaking::new(grid());
        let t = Trace::new(
            UserId::new(1),
            vec![rec(46.17, 6.12, 0), rec(46.22, 6.21, 600)],
        )
        .unwrap();
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999); // different seed, same output
        assert_eq!(cloak.protect(&t, &mut r1), cloak.protect(&t, &mut r2));
    }

    #[test]
    fn preserves_timestamps_and_user() {
        let cloak = SpatialCloaking::new(grid());
        let t = Trace::new(
            UserId::new(7),
            vec![rec(46.17, 6.12, 5), rec(46.22, 6.21, 600)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = cloak.protect(&t, &mut rng);
        assert_eq!(p.user(), UserId::new(7));
        assert_eq!(p.records()[0].time().as_unix(), 5);
    }

    #[test]
    fn from_background_covers_the_city() {
        let ds = mood_synth::presets::privamov_like().scaled(0.1).generate();
        let (bg, test) = ds.split_chronological(TimeDelta::from_days(15));
        let cloak = SpatialCloaking::from_background(&bg, 800.0);
        let trace = test.iter().next().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = cloak.protect(trace, &mut rng);
        // every cloaked record is inside the grid's box
        for r in p.records() {
            assert!(cloak.grid().bbox().contains(&r.point()));
        }
    }

    #[test]
    #[should_panic(expected = "background must not be empty")]
    fn rejects_empty_background() {
        SpatialCloaking::from_background(&Dataset::new(), 800.0);
    }
}
