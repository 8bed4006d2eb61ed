use serde::{Deserialize, Serialize};

use mood_geo::GeoPoint;

/// A point in time, stored as whole seconds since the Unix epoch.
///
/// Second granularity matches the paper's datasets (GPS fixes seconds to
/// minutes apart) and keeps arithmetic exact — no floating-point drift in
/// split points or window boundaries.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Creates a timestamp from Unix seconds.
    pub fn from_unix(seconds: i64) -> Self {
        Self(seconds)
    }

    /// Seconds since the Unix epoch.
    pub fn as_unix(&self) -> i64 {
        self.0
    }

    /// The timestamp `delta` later (or earlier for negative deltas),
    /// saturating at the i64 boundaries.
    pub fn offset(&self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(delta.as_secs()))
    }

    /// Signed duration from `earlier` to `self`.
    pub fn since(&self, earlier: Timestamp) -> TimeDelta {
        TimeDelta::from_secs(self.0.saturating_sub(earlier.0))
    }

    /// Midpoint between two timestamps (truncating).
    pub fn midpoint(a: Timestamp, b: Timestamp) -> Timestamp {
        // average without overflow
        Timestamp(a.0 / 2 + b.0 / 2 + (a.0 % 2 + b.0 % 2) / 2)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A signed span of time in whole seconds.
///
/// Used for trace durations, the fine-grained window length (24 h) and the
/// recursion floor δ (4 h) of MooD's Algorithm 1.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TimeDelta(i64);

impl TimeDelta {
    /// A span of `seconds` seconds (may be negative).
    pub const fn from_secs(seconds: i64) -> Self {
        Self(seconds)
    }

    /// A span of `minutes` minutes.
    pub const fn from_mins(minutes: i64) -> Self {
        Self(minutes * 60)
    }

    /// A span of `hours` hours.
    pub const fn from_hours(hours: i64) -> Self {
        Self(hours * 3600)
    }

    /// A span of `days` days.
    pub const fn from_days(days: i64) -> Self {
        Self(days * 86_400)
    }

    /// The span in whole seconds.
    pub const fn as_secs(&self) -> i64 {
        self.0
    }

    /// Absolute value of the span.
    pub fn abs(&self) -> TimeDelta {
        TimeDelta(self.0.abs())
    }
}

impl std::ops::Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Mul<i64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(rhs))
    }
}

impl std::fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        if s % 86_400 == 0 && s >= 86_400 {
            write!(f, "{sign}{}d", s / 86_400)
        } else if s % 3600 == 0 && s >= 3600 {
            write!(f, "{sign}{}h", s / 3600)
        } else {
            write!(f, "{sign}{s}s")
        }
    }
}

/// One spatio-temporal record `r = (lat, lng, t)` (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Record {
    point: GeoPoint,
    time: Timestamp,
}

impl Record {
    /// Creates a record from a validated point and a timestamp.
    pub fn new(point: GeoPoint, time: Timestamp) -> Self {
        Self { point, time }
    }

    /// The geographic position of the record.
    pub fn point(&self) -> GeoPoint {
        self.point
    }

    /// The instant the record was captured.
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// A copy of this record at a different position, same instant.
    /// This is the shape of every LPPM's per-record transformation.
    pub fn with_point(&self, point: GeoPoint) -> Record {
        Record {
            point,
            time: self.time,
        }
    }
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.point, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_unix(1_000);
        assert_eq!(t.offset(TimeDelta::from_secs(500)).as_unix(), 1_500);
        assert_eq!(t.offset(TimeDelta::from_secs(-500)).as_unix(), 500);
        assert_eq!(
            Timestamp::from_unix(2_000).since(t),
            TimeDelta::from_secs(1_000)
        );
    }

    #[test]
    fn timestamp_midpoint() {
        let a = Timestamp::from_unix(100);
        let b = Timestamp::from_unix(200);
        assert_eq!(Timestamp::midpoint(a, b).as_unix(), 150);
        // odd sum truncates
        let c = Timestamp::from_unix(101);
        assert_eq!(Timestamp::midpoint(c, b).as_unix(), 150);
    }

    #[test]
    fn timestamp_ordering() {
        assert!(Timestamp::from_unix(5) < Timestamp::from_unix(9));
    }

    #[test]
    fn delta_constructors_agree() {
        assert_eq!(TimeDelta::from_mins(60), TimeDelta::from_hours(1));
        assert_eq!(TimeDelta::from_hours(24), TimeDelta::from_days(1));
        assert_eq!(TimeDelta::from_days(1).as_secs(), 86_400);
    }

    #[test]
    fn delta_arithmetic() {
        let h = TimeDelta::from_hours(1);
        assert_eq!(h + h, TimeDelta::from_hours(2));
        assert_eq!(h - h, TimeDelta::from_secs(0));
        assert_eq!(h * 24, TimeDelta::from_days(1));
        assert_eq!(TimeDelta::from_secs(-30).abs(), TimeDelta::from_secs(30));
    }

    #[test]
    fn delta_display_picks_unit() {
        assert_eq!(TimeDelta::from_days(2).to_string(), "2d");
        assert_eq!(TimeDelta::from_hours(4).to_string(), "4h");
        assert_eq!(TimeDelta::from_secs(90).to_string(), "90s");
        assert_eq!(TimeDelta::from_hours(-4).to_string(), "-4h");
    }

    #[test]
    fn record_accessors_and_rewrites() {
        let p = GeoPoint::new(46.0, 6.0).unwrap();
        let q = GeoPoint::new(46.1, 6.1).unwrap();
        let r = Record::new(p, Timestamp::from_unix(42));
        assert_eq!(r.point(), p);
        assert_eq!(r.time().as_unix(), 42);
        let moved = r.with_point(q);
        assert_eq!(moved.point(), q);
        assert_eq!(moved.time(), r.time());
    }

    #[test]
    fn serde_roundtrip() {
        let r = Record::new(GeoPoint::new(46.0, 6.0).unwrap(), Timestamp::from_unix(9));
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
