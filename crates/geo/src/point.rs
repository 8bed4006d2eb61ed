use serde::{Deserialize, Serialize};

use crate::{GeoError, Result, EARTH_RADIUS_M};

/// A validated WGS-84 geographic point (latitude, longitude) in degrees.
///
/// The constructor rejects non-finite values and out-of-range coordinates,
/// so every `GeoPoint` in the system is known-good — downstream code can do
/// metric geometry without re-validating.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
///
/// let geneva = GeoPoint::new(46.2044, 6.1432)?;
/// assert!(geneva.lat() > 46.0);
/// # Ok::<(), mood_geo::GeoError>(())
/// ```
///
/// Deserialization goes through [`GeoPoint::new`] too, so a point read
/// from JSON is as valid as one built in code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "GeoPointRepr")]
pub struct GeoPoint {
    lat: f64,
    lng: f64,
}

/// Serialized form of [`GeoPoint`]; construction re-validates the range.
#[derive(Deserialize)]
struct GeoPointRepr {
    lat: f64,
    lng: f64,
}

impl TryFrom<GeoPointRepr> for GeoPoint {
    type Error = GeoError;
    fn try_from(r: GeoPointRepr) -> Result<Self> {
        GeoPoint::new(r.lat, r.lng)
    }
}

/// Wraps a longitude in degrees into `[-180, 180]`.
///
/// A longitude within one turn of the range wraps by a single ±360°
/// subtraction, so its bits are exactly `lng ∓ 360`. Anything further
/// out — offsets near the poles, where a degree of longitude is almost
/// no distance — is reduced in closed form, in constant time however
/// large. A NaN or infinite input yields NaN.
pub(crate) fn wrap_longitude(lng: f64) -> f64 {
    let stepped = if lng > 180.0 {
        lng - 360.0
    } else if lng < -180.0 {
        lng + 360.0
    } else {
        return lng;
    };
    if (-180.0..=180.0).contains(&stepped) {
        stepped
    } else {
        (stepped + 180.0).rem_euclid(360.0) - 180.0
    }
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] when `lat ∉ [-90, 90]` or is
    /// not finite, and [`GeoError::InvalidLongitude`] when
    /// `lng ∉ [-180, 180]` or is not finite.
    #[inline]
    pub fn new(lat: f64, lng: f64) -> Result<Self> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lng.is_finite() || !(-180.0..=180.0).contains(&lng) {
            return Err(GeoError::InvalidLongitude(lng));
        }
        Ok(Self { lat, lng })
    }

    /// Latitude in degrees, guaranteed inside `[-90, 90]`.
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, guaranteed inside `[-180, 180]`.
    pub fn lng(&self) -> f64 {
        self.lng
    }

    /// Great-circle distance to `other` in meters using the haversine
    /// formula, accurate to ~0.5 % everywhere on the sphere.
    ///
    /// ```
    /// use mood_geo::GeoPoint;
    /// let a = GeoPoint::new(0.0, 0.0)?;
    /// let b = GeoPoint::new(0.0, 1.0)?;
    /// // one degree of longitude at the equator is ~111.2 km
    /// assert!((a.haversine_distance(&b) - 111_195.0).abs() < 100.0);
    /// # Ok::<(), mood_geo::GeoError>(())
    /// ```
    pub fn haversine_distance(&self, other: &GeoPoint) -> f64 {
        let (lat1, lng1) = (self.lat.to_radians(), self.lng.to_radians());
        let (lat2, lng2) = (other.lat.to_radians(), other.lng.to_radians());
        let dlat = lat2 - lat1;
        let dlng = lng2 - lng1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Fast equirectangular approximation of the distance to `other` in
    /// meters. Within a city-sized region (tens of kilometers) the error
    /// versus haversine is well under 0.1 %, and it is ~3x cheaper — this
    /// is the distance used in the attack inner loops.
    pub fn approx_distance(&self, other: &GeoPoint) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let dx = (other.lng - self.lng).to_radians() * mean_lat.cos();
        let dy = (other.lat - self.lat).to_radians();
        EARTH_RADIUS_M * (dx * dx + dy * dy).sqrt()
    }

    /// Linear interpolation between `self` (at `f = 0`) and `other`
    /// (at `f = 1`) in coordinate space; adequate for the short segments
    /// that occur between consecutive GPS records.
    ///
    /// `f` is clamped to `[0, 1]`.
    pub fn lerp(&self, other: &GeoPoint, f: f64) -> GeoPoint {
        let f = f.clamp(0.0, 1.0);
        let lat = self.lat + (other.lat - self.lat) * f;
        // Interpolate longitude along the short way around the antimeridian.
        let mut dlng = other.lng - self.lng;
        if dlng > 180.0 {
            dlng -= 360.0;
        } else if dlng < -180.0 {
            dlng += 360.0;
        }
        let mut lng = self.lng + dlng * f;
        if lng > 180.0 {
            lng -= 360.0;
        } else if lng < -180.0 {
            lng += 360.0;
        }
        GeoPoint::new(lat.clamp(-90.0, 90.0), lng).expect("interpolation of valid points is valid")
    }

    /// Centroid (arithmetic mean of coordinates) of a non-empty set of
    /// points. Returns `None` for an empty iterator.
    ///
    /// Suitable for the city-scale clusters POI extraction produces; not
    /// for points spanning the antimeridian.
    pub fn centroid<'a, I>(points: I) -> Option<GeoPoint>
    where
        I: IntoIterator<Item = &'a GeoPoint>,
    {
        let mut lat_sum = 0.0;
        let mut lng_sum = 0.0;
        let mut n = 0usize;
        for p in points {
            lat_sum += p.lat;
            lng_sum += p.lng;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let nf = n as f64;
        Some(GeoPoint::new(lat_sum / nf, lng_sum / nf).expect("mean of valid coordinates is valid"))
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    #[test]
    fn rejects_bad_latitude() {
        assert!(matches!(
            GeoPoint::new(91.0, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(f64::NAN, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(f64::INFINITY, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
    }

    #[test]
    fn rejects_bad_longitude() {
        assert!(matches!(
            GeoPoint::new(0.0, -180.5),
            Err(GeoError::InvalidLongitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(0.0, f64::NAN),
            Err(GeoError::InvalidLongitude(_))
        ));
    }

    #[test]
    fn accepts_boundary_values() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert!(GeoPoint::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn haversine_known_distance() {
        // Lyon -> Paris is about 391.5 km.
        let lyon = p(45.7640, 4.8357);
        let paris = p(48.8566, 2.3522);
        let d = lyon.haversine_distance(&paris);
        assert!((d - 391_500.0).abs() < 5_000.0, "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let a = p(46.2, 6.1);
        assert_eq!(a.haversine_distance(&a), 0.0);
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = p(45.76, 4.83);
        let b = p(45.75, 4.85);
        let d1 = a.haversine_distance(&b);
        let d2 = b.haversine_distance(&a);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn approx_distance_close_to_haversine_at_city_scale() {
        let a = p(37.7749, -122.4194); // SF downtown
        let b = p(37.8044, -122.2712); // Oakland
        let h = a.haversine_distance(&b);
        let e = a.approx_distance(&b);
        assert!((h - e).abs() / h < 1e-3, "haversine {h} vs approx {e}");
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = p(45.0, 4.0);
        let b = p(46.0, 5.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lat() - 45.5).abs() < 1e-9);
        assert!((mid.lng() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn lerp_clamps_fraction() {
        let a = p(45.0, 4.0);
        let b = p(46.0, 5.0);
        assert_eq!(a.lerp(&b, -3.0), a);
        assert_eq!(a.lerp(&b, 7.0), b);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(GeoPoint::centroid(std::iter::empty()).is_none());
    }

    #[test]
    fn centroid_of_symmetric_points_is_center() {
        let pts = [p(45.0, 4.0), p(47.0, 6.0)];
        let c = GeoPoint::centroid(pts.iter()).unwrap();
        assert!((c.lat() - 46.0).abs() < 1e-9);
        assert!((c.lng() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn display_has_six_decimals() {
        let s = p(45.0, 4.0).to_string();
        assert_eq!(s, "(45.000000, 4.000000)");
    }

    #[test]
    fn serde_roundtrip() {
        let a = p(45.5, 4.25);
        let json = serde_json::to_string(&a).unwrap();
        let back: GeoPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn deserialization_validates_the_range() {
        for (json, coordinate) in [
            (r#"{"lat":95,"lng":0}"#, "latitude 95"),
            (r#"{"lat":0,"lng":181}"#, "longitude 181"),
            (r#"{"lat":0,"lng":1e300}"#, "longitude 1"),
            (r#"{"lat":-90.5,"lng":0}"#, "latitude -90.5"),
        ] {
            let err = serde_json::from_str::<GeoPoint>(json).unwrap_err();
            assert!(err.to_string().contains(coordinate), "{json}: {err}");
        }
        let edge: GeoPoint = serde_json::from_str(r#"{"lat":-90,"lng":180}"#).unwrap();
        assert_eq!(edge, p(-90.0, 180.0));
    }

    /// Reference: wrapping by repeated ±360° steps.
    pub(super) fn wrap_by_loop(mut lng: f64) -> f64 {
        while lng > 180.0 {
            lng -= 360.0;
        }
        while lng < -180.0 {
            lng += 360.0;
        }
        lng
    }

    #[test]
    fn wrap_longitude_is_bounded_and_in_range() {
        assert_eq!(wrap_longitude(180.0), 180.0);
        assert_eq!(wrap_longitude(-180.0), -180.0);
        assert_eq!(wrap_longitude(540.5), -179.5);
        assert_eq!(wrap_longitude(-540.5), 179.5);
        for lng in [1e300, -1e300, 1e17, 9.5e9, -3.3e12, f64::MAX, f64::MIN] {
            let w = wrap_longitude(lng);
            assert!((-180.0..=180.0).contains(&w), "{lng} -> {w}");
        }
        assert!(wrap_longitude(f64::NAN).is_nan());
        assert!(wrap_longitude(f64::INFINITY).is_nan());
    }

    #[test]
    fn wrap_longitude_matches_a_single_loop_step_to_the_bit() {
        let cases = [
            0.0,
            -0.0,
            179.999_999_999,
            180.000_000_001,
            -180.000_000_001,
            359.9,
            -359.9,
            539.999_999,
            -539.999_999,
            540.0,
            -540.0,
            f64::from_bits(180f64.to_bits() + 1),
            f64::from_bits(540f64.to_bits() - 1),
        ];
        for lng in cases {
            assert_eq!(
                wrap_longitude(lng).to_bits(),
                wrap_by_loop(lng).to_bits(),
                "{lng}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = GeoPoint> {
        // Stay away from the poles where longitude degenerates.
        (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lng)| GeoPoint::new(lat, lng).unwrap())
    }

    proptest! {
        #[test]
        fn distance_nonnegative(a in arb_point(), b in arb_point()) {
            prop_assert!(a.haversine_distance(&b) >= 0.0);
        }

        #[test]
        fn distance_symmetric(a in arb_point(), b in arb_point()) {
            let d1 = a.haversine_distance(&b);
            let d2 = b.haversine_distance(&a);
            prop_assert!((d1 - d2).abs() <= 1e-6 * (1.0 + d1));
        }

        #[test]
        fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
            let ab = a.haversine_distance(&b);
            let bc = b.haversine_distance(&c);
            let ac = a.haversine_distance(&c);
            prop_assert!(ac <= ab + bc + 1e-6);
        }

        #[test]
        fn wrap_longitude_agrees_with_the_loop_within_one_step(lng in -540.0f64..540.0) {
            prop_assert_eq!(wrap_longitude(lng).to_bits(), tests::wrap_by_loop(lng).to_bits());
        }

        #[test]
        fn lerp_stays_between_latitudes(a in arb_point(), b in arb_point(), f in 0.0f64..1.0) {
            let m = a.lerp(&b, f);
            let lo = a.lat().min(b.lat()) - 1e-9;
            let hi = a.lat().max(b.lat()) + 1e-9;
            prop_assert!(m.lat() >= lo && m.lat() <= hi);
        }
    }
}
