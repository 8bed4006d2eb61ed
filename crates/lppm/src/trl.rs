use rand::{Rng, RngCore};

use mood_geo::{GeoPoint, LocalProjection};
use mood_trace::{Record, Trace};

use crate::Lppm;

/// Trilateration-based dummy generation (Huang et al. 2018, the paper's
/// \[18\]): every true position is replaced by **three assisted locations**
/// drawn uniformly within radius `r` of it. The service provider only
/// ever sees the assisted locations; the client recovers the exact
/// answer by trilateration.
///
/// For offline dataset protection (the paper's use of TRL as a dataset
/// LPPM) the obfuscated trace contains the three assisted records per
/// original record, sharing the original timestamp — the published trace
/// is 3x longer and the true position never appears.
///
/// The paper fixes r = 1 km (§4.1.2).
///
/// # Examples
///
/// ```
/// use mood_lppm::{Lppm, Trl};
/// use mood_synth::presets;
/// use rand::SeedableRng;
///
/// let ds = presets::privamov_like().scaled(0.1).generate();
/// let trace = ds.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let protected = Trl::paper_default().protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len() * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trl {
    radius_m: f64,
}

impl Trl {
    /// Creates a TRL mechanism generating assisted locations within
    /// `radius_m` meters of the true position.
    ///
    /// # Panics
    ///
    /// Panics when `radius_m` is not strictly positive and finite.
    pub fn new(radius_m: f64) -> Self {
        assert!(
            radius_m.is_finite() && radius_m > 0.0,
            "radius must be positive"
        );
        Self { radius_m }
    }

    /// The paper's configuration: r = 1 km.
    pub fn paper_default() -> Self {
        Self::new(1_000.0)
    }

    /// The dummy-generation radius in meters.
    pub fn radius_m(&self) -> f64 {
        self.radius_m
    }

    /// The three assisted locations for one true position — the exact
    /// payload a TRL client would send to a location-searching service.
    /// Locations are uniform in the disk of radius `r` and pairwise
    /// non-collinear with overwhelming probability (required for
    /// trilateration).
    pub fn assisted_locations(&self, real: &GeoPoint, rng: &mut dyn RngCore) -> [GeoPoint; 3] {
        let proj = LocalProjection::new(*real);
        let sample = |rng: &mut dyn RngCore| {
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            // sqrt for uniform density over the disk area
            let rho = self.radius_m * rng.gen::<f64>().sqrt();
            proj.to_geo(rho * theta.sin(), rho * theta.cos())
        };
        [sample(rng), sample(rng), sample(rng)]
    }
}

impl Lppm for Trl {
    fn name(&self) -> &str {
        "TRL"
    }

    fn apply(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        out.clear();
        out.reserve(trace.len() * 3);
        for r in trace.records() {
            for loc in self.assisted_locations(&r.point(), rng) {
                out.push(Record::new(loc, r.time()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_trace::{Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn walk(n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn triples_records_preserving_timestamps() {
        let t = walk(10);
        let mut rng = StdRng::seed_from_u64(1);
        let p = Trl::paper_default().protect(&t, &mut rng);
        assert_eq!(p.len(), 30);
        // each original timestamp appears exactly 3 times
        for r in t.records() {
            let count = p.records().iter().filter(|x| x.time() == r.time()).count();
            assert_eq!(count, 3);
        }
    }

    #[test]
    fn assisted_locations_within_radius() {
        let trl = Trl::paper_default();
        let real = GeoPoint::new(46.2, 6.1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            for loc in trl.assisted_locations(&real, &mut rng) {
                let d = real.haversine_distance(&loc);
                assert!(d <= 1_000.0 + 1.0, "assisted location {d} m away");
            }
        }
    }

    #[test]
    fn assisted_locations_are_spread_out() {
        // uniform disk: expected distance from center is 2r/3
        let trl = Trl::paper_default();
        let real = GeoPoint::new(46.2, 6.1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        let n = 3_000;
        for _ in 0..n {
            for loc in trl.assisted_locations(&real, &mut rng) {
                sum += real.haversine_distance(&loc);
            }
        }
        let mean = sum / (3 * n) as f64;
        assert!((mean - 666.7).abs() < 20.0, "mean distance {mean}");
    }

    #[test]
    fn true_position_never_published() {
        let t = walk(50);
        let mut rng = StdRng::seed_from_u64(4);
        let p = Trl::paper_default().protect(&t, &mut rng);
        for orig in t.records() {
            for pub_r in p.records() {
                // probability of an exact hit is zero; distances should
                // be comfortably nonzero
                if pub_r.time() == orig.time() {
                    assert!(orig.point().haversine_distance(&pub_r.point()) > 0.01);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = walk(20);
        let trl = Trl::paper_default();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(trl.protect(&t, &mut r1), trl.protect(&t, &mut r2));
    }

    #[test]
    fn trl_at_the_poles_returns_valid_points_promptly() {
        // At ±90° a metre east is ~1.4e5 degrees of longitude, which
        // must wrap in constant time, not in ±360° steps.
        for lat in [90.0, -90.0] {
            let records = (0..512)
                .map(|i| Record::new(GeoPoint::new(lat, 6.1).unwrap(), Timestamp::from_unix(i)))
                .collect();
            let trace = Trace::new(UserId::new(1), records).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let started = std::time::Instant::now();
            let p = Trl::paper_default().protect(&trace, &mut rng);
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
            assert_eq!(p.len(), 3 * trace.len());
            for q in p.points() {
                assert!((-180.0..=180.0).contains(&q.lng()), "{q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn rejects_bad_radius() {
        Trl::new(-1.0);
    }
}
