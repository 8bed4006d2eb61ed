use mood_geo::GeoPoint;

/// One leg of a day plan: the agent moves linearly from `from` to `to`
/// during `[start_s, end_s)` (seconds within the day). A stationary dwell
/// has `from == to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Segment {
    pub start_s: i64,
    pub end_s: i64,
    pub from: GeoPoint,
    pub to: GeoPoint,
}

impl Segment {
    fn position_at(&self, t: i64) -> GeoPoint {
        if self.from == self.to || self.end_s <= self.start_s {
            return self.from;
        }
        let f = (t - self.start_s) as f64 / (self.end_s - self.start_s) as f64;
        self.from.lerp(&self.to, f)
    }
}

/// A simulated agent's itinerary for one day: a gap-free sequence of
/// dwell and travel segments covering the agent's active hours.
///
/// The plan is the simulator's intermediate representation: generators
/// build a plan per user-day and then sample GPS records from it at the
/// dataset's sampling interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DayPlan {
    segments: Vec<Segment>,
}

impl DayPlan {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a stationary dwell at `place` during `[start_s, end_s)`.
    /// Empty or inverted intervals are ignored.
    pub(crate) fn dwell(&mut self, place: GeoPoint, start_s: i64, end_s: i64) {
        if end_s > start_s {
            self.segments.push(Segment {
                start_s,
                end_s,
                from: place,
                to: place,
            });
        }
    }

    /// Appends a travel leg from `from` to `to` during `[start_s, end_s)`.
    pub(crate) fn travel(&mut self, from: GeoPoint, to: GeoPoint, start_s: i64, end_s: i64) {
        if end_s > start_s {
            self.segments.push(Segment {
                start_s,
                end_s,
                from,
                to,
            });
        }
    }

    /// Start of the first segment (seconds within the day), or `None` for
    /// an empty plan.
    pub fn start_s(&self) -> Option<i64> {
        self.segments.first().map(|s| s.start_s)
    }

    /// End of the last segment (seconds within the day), or `None` for an
    /// empty plan.
    pub fn end_s(&self) -> Option<i64> {
        self.segments.last().map(|s| s.end_s)
    }

    /// The agent's position at `t` seconds into the day, or `None` when
    /// `t` falls outside every segment (e.g. night hours).
    pub fn position_at(&self, t: i64) -> Option<GeoPoint> {
        // Segments are appended in time order; binary search the start.
        let idx = self.segments.partition_point(|s| s.end_s <= t);
        let seg = self.segments.get(idx)?;
        if t >= seg.start_s && t < seg.end_s {
            Some(seg.position_at(t))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    fn sample_plan() -> DayPlan {
        let home = p(46.20, 6.10);
        let work = p(46.24, 6.16);
        let mut plan = DayPlan::new();
        plan.dwell(home, 7 * 3600, 8 * 3600);
        plan.travel(home, work, 8 * 3600, 8 * 3600 + 1800);
        plan.dwell(work, 8 * 3600 + 1800, 17 * 3600);
        plan.travel(work, home, 17 * 3600, 17 * 3600 + 1800);
        plan.dwell(home, 17 * 3600 + 1800, 23 * 3600);
        plan
    }

    #[test]
    fn dwell_position_is_constant() {
        let plan = sample_plan();
        let a = plan.position_at(7 * 3600 + 100).unwrap();
        let b = plan.position_at(7 * 3600 + 3000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn travel_interpolates() {
        let plan = sample_plan();
        let mid = plan.position_at(8 * 3600 + 900).unwrap();
        let home = p(46.20, 6.10);
        let work = p(46.24, 6.16);
        assert!((mid.lat() - (home.lat() + work.lat()) / 2.0).abs() < 1e-9);
        // moving toward work over time
        let later = plan.position_at(8 * 3600 + 1500).unwrap();
        assert!(later.lat() > mid.lat());
    }

    #[test]
    fn outside_hours_is_none() {
        let plan = sample_plan();
        assert!(plan.position_at(3 * 3600).is_none()); // night
        assert!(plan.position_at(23 * 3600 + 1).is_none()); // after end
    }

    #[test]
    fn boundaries_are_half_open() {
        let plan = sample_plan();
        assert!(plan.position_at(7 * 3600).is_some());
        assert!(plan.position_at(23 * 3600).is_none());
    }

    #[test]
    fn degenerate_intervals_ignored() {
        let mut plan = DayPlan::new();
        plan.dwell(p(46.2, 6.1), 100, 100);
        plan.travel(p(46.2, 6.1), p(46.3, 6.2), 200, 150);
        assert!(plan.start_s().is_none());
        assert!(plan.end_s().is_none());
    }

    #[test]
    fn start_end_accessors() {
        let plan = sample_plan();
        assert_eq!(plan.start_s(), Some(7 * 3600));
        assert_eq!(plan.end_s(), Some(23 * 3600));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random but well-formed plan: alternating dwells and
    /// travels over random places and durations.
    fn arb_plan() -> impl Strategy<Value = DayPlan> {
        proptest::collection::vec(((-0.04f64..0.04), (-0.04f64..0.04), 300i64..7200), 2..12)
            .prop_map(|stops| {
                let mut plan = DayPlan::new();
                let mut t = 6 * 3600;
                let mut here = GeoPoint::new(46.2, 6.1).unwrap();
                for (dlat, dlng, dur) in stops {
                    let next = GeoPoint::new(46.2 + dlat, 6.1 + dlng).unwrap();
                    let leg = 600;
                    plan.travel(here, next, t, t + leg);
                    t += leg;
                    plan.dwell(next, t, t + dur);
                    t += dur;
                    here = next;
                }
                plan
            })
    }

    proptest! {
        #[test]
        fn positions_exist_throughout_active_hours(plan in arb_plan()) {
            let (start, end) = (plan.start_s().unwrap(), plan.end_s().unwrap());
            let step = ((end - start) / 50).max(1);
            let mut t = start;
            while t < end {
                prop_assert!(plan.position_at(t).is_some(), "hole at {t}");
                t += step;
            }
        }

        #[test]
        fn movement_is_continuous(plan in arb_plan()) {
            // no teleports: consecutive stops are at most ~0.08° apart
            // (~11 km diagonal) covered in 600 s legs => < 20 m/s
            let (start, end) = (plan.start_s().unwrap(), plan.end_s().unwrap());
            let step = ((end - start) / 200).max(1);
            let mut t = start;
            let mut prev: Option<GeoPoint> = None;
            while t < end {
                if let Some(p) = plan.position_at(t) {
                    if let Some(q) = prev {
                        let speed = p.approx_distance(&q) / step as f64;
                        prop_assert!(speed < 25.0, "teleport at {t}: {speed} m/s");
                    }
                    prev = Some(p);
                } else {
                    prev = None;
                }
                t += step;
            }
        }

        #[test]
        fn positions_outside_plan_are_none(plan in arb_plan()) {
            let start = plan.start_s().unwrap();
            let end = plan.end_s().unwrap();
            prop_assert!(plan.position_at(start - 1).is_none());
            prop_assert!(plan.position_at(end).is_none());
        }
    }
}
