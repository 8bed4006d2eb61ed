use serde::{Deserialize, Serialize};

use crate::{GeoError, GeoPoint, Result};

/// An axis-aligned geographic bounding box.
///
/// Bounding boxes define the extent of a city model in `mood-synth` and the
/// extent of [`Grid`](crate::Grid)s used by heatmap profiles. They must not
/// cross the antimeridian (none of the paper's four cities do).
///
/// # Examples
///
/// ```
/// use mood_geo::{BoundingBox, GeoPoint};
///
/// let geneva = BoundingBox::new(46.15, 46.26, 6.05, 6.22)?;
/// let center = geneva.center();
/// assert!(geneva.contains(&center));
/// # Ok::<(), mood_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lng: f64,
    max_lng: f64,
}

impl BoundingBox {
    /// Creates a bounding box from its latitude and longitude extents.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidBoundingBox`] when a minimum exceeds its
    /// maximum, and latitude/longitude errors when either corner is not a
    /// valid coordinate.
    pub fn new(min_lat: f64, max_lat: f64, min_lng: f64, max_lng: f64) -> Result<Self> {
        // Validate corners first so the error pinpoints the bad coordinate.
        GeoPoint::new(min_lat, min_lng)?;
        GeoPoint::new(max_lat, max_lng)?;
        if min_lat > max_lat || min_lng > max_lng {
            return Err(GeoError::InvalidBoundingBox {
                min_lat,
                max_lat,
                min_lng,
                max_lng,
            });
        }
        Ok(Self {
            min_lat,
            max_lat,
            min_lng,
            max_lng,
        })
    }

    /// Smallest box containing every point of a non-empty iterator;
    /// `None` when the iterator is empty.
    pub fn from_points<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a GeoPoint>,
    {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Self {
            min_lat: first.lat(),
            max_lat: first.lat(),
            min_lng: first.lng(),
            max_lng: first.lng(),
        };
        for p in it {
            b.min_lat = b.min_lat.min(p.lat());
            b.max_lat = b.max_lat.max(p.lat());
            b.min_lng = b.min_lng.min(p.lng());
            b.max_lng = b.max_lng.max(p.lng());
        }
        Some(b)
    }

    /// Minimum latitude (southern edge) in degrees.
    pub fn min_lat(&self) -> f64 {
        self.min_lat
    }

    /// Maximum latitude (northern edge) in degrees.
    pub fn max_lat(&self) -> f64 {
        self.max_lat
    }

    /// Minimum longitude (western edge) in degrees.
    pub fn min_lng(&self) -> f64 {
        self.min_lng
    }

    /// Maximum longitude (eastern edge) in degrees.
    pub fn max_lng(&self) -> f64 {
        self.max_lng
    }

    /// `true` when `p` lies inside the box (edges inclusive).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat() >= self.min_lat
            && p.lat() <= self.max_lat
            && p.lng() >= self.min_lng
            && p.lng() <= self.max_lng
    }

    /// Geometric center of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lng + self.max_lng) / 2.0,
        )
        .expect("center of valid box is valid")
    }

    /// Box grown by `margin_m` meters on every side, clamped to valid
    /// coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDistance`] when `margin_m` is negative or
    /// not finite.
    pub fn expanded(&self, margin_m: f64) -> Result<Self> {
        if !margin_m.is_finite() || margin_m < 0.0 {
            return Err(GeoError::InvalidDistance(margin_m));
        }
        let dlat = margin_m / 111_320.0; // meters per degree latitude
        let mean_lat = ((self.min_lat + self.max_lat) / 2.0).to_radians();
        let dlng = margin_m / (111_320.0 * mean_lat.cos().max(1e-6));
        Ok(Self {
            min_lat: (self.min_lat - dlat).max(-90.0),
            max_lat: (self.max_lat + dlat).min(90.0),
            min_lng: (self.min_lng - dlng).max(-180.0),
            max_lng: (self.max_lng + dlng).min(180.0),
        })
    }

    /// North-south extent of the box in meters.
    pub fn height_m(&self) -> f64 {
        let south = GeoPoint::new(self.min_lat, self.min_lng).expect("corner valid");
        let north = GeoPoint::new(self.max_lat, self.min_lng).expect("corner valid");
        south.haversine_distance(&north)
    }

    /// East-west extent of the box in meters, measured at its mid-latitude.
    pub fn width_m(&self) -> f64 {
        let mid = (self.min_lat + self.max_lat) / 2.0;
        let west = GeoPoint::new(mid, self.min_lng).expect("corner valid");
        let east = GeoPoint::new(mid, self.max_lng).expect("corner valid");
        west.haversine_distance(&east)
    }

    /// The point at fractional coordinates `(fy, fx) ∈ [0,1]²` inside the
    /// box, with `(0, 0)` the south-west corner. Fractions are clamped.
    pub fn point_at_fraction(&self, fy: f64, fx: f64) -> GeoPoint {
        let fy = fy.clamp(0.0, 1.0);
        let fx = fx.clamp(0.0, 1.0);
        GeoPoint::new(
            self.min_lat + (self.max_lat - self.min_lat) * fy,
            self.min_lng + (self.max_lng - self.min_lng) * fx,
        )
        .expect("interpolated point inside valid box is valid")
    }
}

impl std::fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.4}..{:.4}] x [{:.4}..{:.4}]",
            self.min_lat, self.max_lat, self.min_lng, self.max_lng
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_box() -> BoundingBox {
        BoundingBox::new(46.15, 46.26, 6.05, 6.22).unwrap()
    }

    #[test]
    fn rejects_inverted_extents() {
        assert!(matches!(
            BoundingBox::new(46.3, 46.2, 6.0, 6.1),
            Err(GeoError::InvalidBoundingBox { .. })
        ));
        assert!(matches!(
            BoundingBox::new(46.1, 46.2, 6.2, 6.1),
            Err(GeoError::InvalidBoundingBox { .. })
        ));
    }

    #[test]
    fn rejects_invalid_corner() {
        assert!(BoundingBox::new(-95.0, 46.2, 6.0, 6.1).is_err());
        assert!(BoundingBox::new(46.1, 46.2, 6.0, 200.0).is_err());
    }

    #[test]
    fn degenerate_box_is_allowed() {
        let b = BoundingBox::new(46.0, 46.0, 6.0, 6.0).unwrap();
        assert!(b.contains(&GeoPoint::new(46.0, 6.0).unwrap()));
    }

    #[test]
    fn contains_center_and_corners() {
        let b = sample_box();
        assert!(b.contains(&b.center()));
        assert!(b.contains(&GeoPoint::new(46.15, 6.05).unwrap()));
        assert!(b.contains(&GeoPoint::new(46.26, 6.22).unwrap()));
        assert!(!b.contains(&GeoPoint::new(46.30, 6.10).unwrap()));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            GeoPoint::new(46.0, 6.0).unwrap(),
            GeoPoint::new(46.5, 6.3).unwrap(),
            GeoPoint::new(46.2, 5.9).unwrap(),
        ];
        let b = BoundingBox::from_points(pts.iter()).unwrap();
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min_lng(), 5.9);
        assert_eq!(b.max_lat(), 46.5);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn expanded_contains_original() {
        let b = sample_box();
        let e = b.expanded(1_000.0).unwrap();
        assert!(e.contains(&GeoPoint::new(b.min_lat(), b.min_lng()).unwrap()));
        assert!(e.min_lat() < b.min_lat());
        assert!(e.max_lng() > b.max_lng());
    }

    #[test]
    fn expanded_rejects_negative_margin() {
        assert!(sample_box().expanded(-5.0).is_err());
    }

    #[test]
    fn extent_meters_sane() {
        let b = sample_box();
        // ~12 km tall, ~13 km wide for the Geneva box
        assert!((b.height_m() - 12_200.0).abs() < 500.0, "{}", b.height_m());
        assert!(b.width_m() > 8_000.0 && b.width_m() < 16_000.0);
    }

    #[test]
    fn point_at_fraction_corners() {
        let b = sample_box();
        let sw = b.point_at_fraction(0.0, 0.0);
        let ne = b.point_at_fraction(1.0, 1.0);
        assert_eq!(sw.lat(), b.min_lat());
        assert_eq!(ne.lng(), b.max_lng());
    }

    #[test]
    fn serde_roundtrip() {
        let b = sample_box();
        let json = serde_json::to_string(&b).unwrap();
        let back: BoundingBox = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_box() -> impl Strategy<Value = BoundingBox> {
        (
            (-60.0f64..60.0),
            (0.01f64..2.0),
            (-170.0f64..170.0),
            (0.01f64..2.0),
        )
            .prop_map(|(lat0, dlat, lng0, dlng)| {
                BoundingBox::new(lat0, lat0 + dlat, lng0, lng0 + dlng).unwrap()
            })
    }

    proptest! {
        #[test]
        fn fraction_points_are_contained(
            b in arb_box(),
            fy in 0.0f64..1.0,
            fx in 0.0f64..1.0,
        ) {
            prop_assert!(b.contains(&b.point_at_fraction(fy, fx)));
        }

        #[test]
        fn center_is_contained(b in arb_box()) {
            prop_assert!(b.contains(&b.center()));
        }
    }
}
