use serde::{Deserialize, Serialize};

use crate::point::wrap_longitude;
use crate::{GeoPoint, Result, EARTH_RADIUS_M};

/// A local tangent-plane (east-north) projection around a reference point.
///
/// Protection mechanisms such as Geo-I add *metric* noise: "displace this
/// record by 240 m at bearing 73°". Doing that arithmetic directly on
/// latitude/longitude is error-prone, so [`LocalProjection`] converts
/// between geographic coordinates and a local metric frame centered on a
/// reference point. Within city-scale extents (< 100 km) the planar
/// approximation error is negligible relative to GPS noise.
///
/// # Examples
///
/// ```
/// use mood_geo::{GeoPoint, LocalProjection};
///
/// let center = GeoPoint::new(45.76, 4.83)?;
/// let proj = LocalProjection::new(center);
/// let (x, y) = proj.to_local(&center);
/// assert!(x.abs() < 1e-9 && y.abs() < 1e-9);
///
/// // 1 km east then back:
/// let east = proj.to_geo(1_000.0, 0.0);
/// assert!((center.haversine_distance(&east) - 1_000.0).abs() < 2.0);
/// # Ok::<(), mood_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat: f64,
}

impl LocalProjection {
    /// Creates a projection with `origin` mapped to local `(0, 0)`.
    pub fn new(origin: GeoPoint) -> Self {
        Self {
            origin,
            cos_lat: origin.lat().to_radians().cos(),
        }
    }

    /// Reference point of the projection.
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Projects `p` into the local frame; returns `(x_east_m, y_north_m)`.
    pub fn to_local(&self, p: &GeoPoint) -> (f64, f64) {
        let x = (p.lng() - self.origin.lng()).to_radians() * self.cos_lat * EARTH_RADIUS_M;
        let y = (p.lat() - self.origin.lat()).to_radians() * EARTH_RADIUS_M;
        (x, y)
    }

    /// Inverse projection: local `(x_east_m, y_north_m)` back to WGS-84.
    ///
    /// The result is made valid by clamping the latitude and wrapping the
    /// longitude; for city-scale offsets away from the poles neither
    /// triggers.
    pub fn to_geo(&self, x_east_m: f64, y_north_m: f64) -> GeoPoint {
        let lat = self.origin.lat() + (y_north_m / EARTH_RADIUS_M).to_degrees();
        let lng = self.origin.lng()
            + (x_east_m / (EARTH_RADIUS_M * self.cos_lat.max(1e-12))).to_degrees();
        GeoPoint::new(lat.clamp(-90.0, 90.0), wrap_longitude(lng))
            .expect("clamped projected point is valid")
    }

    /// Displaces `p` by `distance_m` meters in direction `bearing_deg`
    /// (0° = north, 90° = east) through the local frame.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GeoError::InvalidDistance`] for negative or
    /// non-finite distances.
    pub fn displace(&self, p: &GeoPoint, bearing_deg: f64, distance_m: f64) -> Result<GeoPoint> {
        if !distance_m.is_finite() || distance_m < 0.0 {
            return Err(crate::GeoError::InvalidDistance(distance_m));
        }
        let (x, y) = self.to_local(p);
        let theta = bearing_deg.to_radians();
        Ok(self.to_geo(x + distance_m * theta.sin(), y + distance_m * theta.cos()))
    }

    /// Euclidean distance between two points measured in the local frame.
    /// Matches haversine to well under 0.1 % at city scale.
    pub fn local_distance(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let (ax, ay) = self.to_local(a);
        let (bx, by) = self.to_local(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> GeoPoint {
        GeoPoint::new(45.7640, 4.8357).unwrap()
    }

    #[test]
    fn origin_maps_to_zero() {
        let proj = LocalProjection::new(origin());
        let (x, y) = proj.to_local(&origin());
        assert!(x.abs() < 1e-9);
        assert!(y.abs() < 1e-9);
    }

    #[test]
    fn roundtrip_geo_local_geo() {
        let proj = LocalProjection::new(origin());
        let p = GeoPoint::new(45.78, 4.90).unwrap();
        let (x, y) = proj.to_local(&p);
        let back = proj.to_geo(x, y);
        assert!(p.haversine_distance(&back) < 0.01, "residual too large");
    }

    #[test]
    fn north_displacement_increases_latitude() {
        let proj = LocalProjection::new(origin());
        let moved = proj.displace(&origin(), 0.0, 1_000.0).unwrap();
        assert!(moved.lat() > origin().lat());
        assert!((moved.lng() - origin().lng()).abs() < 1e-9);
        let d = origin().haversine_distance(&moved);
        assert!((d - 1_000.0).abs() < 2.0, "{d}");
    }

    #[test]
    fn east_displacement_increases_longitude() {
        let proj = LocalProjection::new(origin());
        let moved = proj.displace(&origin(), 90.0, 1_000.0).unwrap();
        assert!(moved.lng() > origin().lng());
        let d = origin().haversine_distance(&moved);
        assert!((d - 1_000.0).abs() < 2.0, "{d}");
    }

    #[test]
    fn displace_rejects_bad_distance() {
        let proj = LocalProjection::new(origin());
        assert!(proj.displace(&origin(), 0.0, -1.0).is_err());
        assert!(proj.displace(&origin(), 0.0, f64::NAN).is_err());
    }

    #[test]
    fn local_distance_matches_haversine() {
        let proj = LocalProjection::new(origin());
        let a = GeoPoint::new(45.75, 4.82).unwrap();
        let b = GeoPoint::new(45.79, 4.88).unwrap();
        let h = a.haversine_distance(&b);
        let l = proj.local_distance(&a, &b);
        assert!((h - l).abs() / h < 2e-3, "h={h} l={l}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_within_city(
            olat in -60.0f64..60.0,
            olng in -170.0f64..170.0,
            dx in -20_000.0f64..20_000.0,
            dy in -20_000.0f64..20_000.0,
        ) {
            let origin = GeoPoint::new(olat, olng).unwrap();
            let proj = LocalProjection::new(origin);
            let p = proj.to_geo(dx, dy);
            let (x, y) = proj.to_local(&p);
            prop_assert!((x - dx).abs() < 0.5, "x {x} vs {dx}");
            prop_assert!((y - dy).abs() < 0.5, "y {y} vs {dy}");
        }

        #[test]
        fn displacement_distance_is_exact_in_local_frame(
            bearing in 0.0f64..360.0,
            dist in 0.0f64..10_000.0,
        ) {
            let origin = GeoPoint::new(46.0, 6.0).unwrap();
            let proj = LocalProjection::new(origin);
            let moved = proj.displace(&origin, bearing, dist).unwrap();
            let measured = proj.local_distance(&origin, &moved);
            prop_assert!((measured - dist).abs() < 0.5);
        }
    }
}
