//! Geographic primitives for the MooD mobility-privacy workspace.
//!
//! This crate provides the small, dependency-free geodesy layer every other
//! crate in the workspace builds on:
//!
//! * [`GeoPoint`] — a validated WGS-84 latitude/longitude pair with
//!   haversine and equirectangular distances and destination points;
//! * [`BoundingBox`] — axis-aligned lat/lng boxes with containment,
//!   expansion and sampling helpers;
//! * [`LocalProjection`] — a local east-north (ENU-style) tangent-plane
//!   projection used to do metric geometry (noise, dummy locations)
//!   around a reference point;
//! * [`Grid`] — a uniform metric grid over a bounding box, the substrate of
//!   heatmap profiles and the HMC protection mechanism.
//!
//! All distances are in **meters**, all angles in **degrees** unless stated
//! otherwise.
//!
//! # Examples
//!
//! ```
//! use mood_geo::{GeoPoint, Grid, BoundingBox};
//!
//! let lyon = GeoPoint::new(45.7640, 4.8357).unwrap();
//! let paris = GeoPoint::new(48.8566, 2.3522).unwrap();
//! let d = lyon.haversine_distance(&paris);
//! assert!((d - 391_500.0).abs() < 5_000.0); // ~391.5 km
//!
//! let bbox = BoundingBox::new(45.5, 46.0, 4.6, 5.1).unwrap();
//! let grid = Grid::new(bbox, 800.0).unwrap();
//! let cell = grid.cell_of(&lyon);
//! assert!(grid.cell_center(cell).haversine_distance(&lyon) < 800.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod error;
mod grid;
mod point;
mod projection;

pub use bbox::BoundingBox;
pub use error::GeoError;
pub use grid::{CellId, Grid};
pub use point::GeoPoint;
pub use projection::LocalProjection;

/// Mean Earth radius in meters (IUGG value), used by all spherical formulas.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Convenient result alias for fallible geographic operations.
pub type Result<T> = std::result::Result<T, GeoError>;
