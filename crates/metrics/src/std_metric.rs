use serde::{Deserialize, Serialize};

use mood_trace::Trace;

/// Spatio-temporal distortion (paper Eq. 8, from the HMC paper \[23\]).
///
/// For every record `x = (p, t)` of the obfuscated trace `T'`, the
/// *temporal projection* of `x` into the original trace `T` is `T`'s
/// interpolated position at time `t` (clamped to `T`'s extent). The STD
/// is the mean distance in meters between each obfuscated record and its
/// projection:
///
/// ```text
/// STD(T, T') = (1/|T'|) Σ_{x ∈ T'} d(x, proj_T(x.t))
/// ```
///
/// Lower is better; `STD(T, T) = 0`.
///
/// `T'` is time-sorted, so the projections walk `T` forward through a
/// [`Trace::projection_cursor`] instead of binary-searching it per
/// record; each projection, and the sum in `T'` order, is bit-identical
/// to folding [`Trace::interpolate_at`]. This is
/// [`spatio_temporal_distortion_within`] with an infinite bound.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Record, Timestamp, Trace, UserId};
/// use mood_metrics::spatio_temporal_distortion;
///
/// let orig = Trace::new(UserId::new(1), vec![
///     Record::new(GeoPoint::new(46.0, 6.0)?, Timestamp::from_unix(0)),
///     Record::new(GeoPoint::new(46.0, 6.2)?, Timestamp::from_unix(100)),
/// ])?;
/// assert_eq!(spatio_temporal_distortion(&orig, &orig), 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn spatio_temporal_distortion(original: &Trace, obfuscated: &Trace) -> f64 {
    spatio_temporal_distortion_within(original, obfuscated, f64::INFINITY)
        .expect("no mean exceeds an infinite bound")
}

/// How many records [`spatio_temporal_distortion_within`] sums between
/// two checks of its bound.
const BOUND_CHECK_RECORDS: usize = 32;

/// [`spatio_temporal_distortion`] that stops as soon as the value is
/// known to exceed `bound`: `None` when `STD(T, T') > bound`, otherwise
/// `Some` of the value, bit-identical to the unbounded one (same cursor,
/// same summation order).
///
/// Every `BOUND_CHECK_RECORDS` records the running sum is divided by
/// `|T'|` and compared with `bound`. Once that exceeds it, the full
/// value does too: every term is a haversine distance, so it is ≥ 0;
/// adding a non-negative `f64` never lowers a sum; and dividing by the
/// same record count is monotone. The last check runs on the complete
/// sum, so `Some(d)` never carries a `d > bound`.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Record, Timestamp, Trace, UserId};
/// use mood_metrics::{spatio_temporal_distortion, spatio_temporal_distortion_within};
///
/// let at = |lng, t| Record::new(GeoPoint::new(46.0, lng).unwrap(), Timestamp::from_unix(t));
/// let orig = Trace::new(UserId::new(1), vec![at(6.0, 0), at(6.2, 100)])?;
/// let moved = Trace::new(UserId::new(1), vec![at(6.01, 0), at(6.2, 100)])?;
/// let std = spatio_temporal_distortion(&orig, &moved);
/// assert_eq!(spatio_temporal_distortion_within(&orig, &moved, std), Some(std));
/// assert_eq!(spatio_temporal_distortion_within(&orig, &moved, std / 2.0), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn spatio_temporal_distortion_within(
    original: &Trace,
    obfuscated: &Trace,
    bound: f64,
) -> Option<f64> {
    let n = obfuscated.len() as f64;
    let mut projection = original.projection_cursor();
    let mut sum = 0.0;
    for block in obfuscated.records().chunks(BOUND_CHECK_RECORDS) {
        for r in block {
            let projected = projection.interpolate_at(r.time());
            sum += projected.haversine_distance(&r.point());
        }
        if sum / n > bound {
            return None;
        }
    }
    Some(sum / n)
}

/// The four utility bands of the paper's Figure 9, classifying a user's
/// STD value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DistortionBand {
    /// STD < 500 m — fit for precise sensing (e.g. noise maps).
    Low,
    /// 500 m ≤ STD < 1 km — fit for area-level sensing (e.g. pollution).
    Medium,
    /// 1 km ≤ STD < 5 km — fit for coarse analyses (e.g. weather).
    High,
    /// STD ≥ 5 km.
    ExtremelyHigh,
}

impl DistortionBand {
    /// Classifies an STD value in meters.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value (STD is a mean of
    /// distances, so this indicates a bug upstream).
    pub fn classify(std_m: f64) -> Self {
        assert!(
            std_m.is_finite() && std_m >= 0.0,
            "STD must be a non-negative finite value, got {std_m}"
        );
        if std_m < 500.0 {
            DistortionBand::Low
        } else if std_m < 1_000.0 {
            DistortionBand::Medium
        } else if std_m < 5_000.0 {
            DistortionBand::High
        } else {
            DistortionBand::ExtremelyHigh
        }
    }

    /// All bands, best to worst.
    pub fn all() -> [DistortionBand; 4] {
        [
            DistortionBand::Low,
            DistortionBand::Medium,
            DistortionBand::High,
            DistortionBand::ExtremelyHigh,
        ]
    }

    /// The paper's label for the band.
    pub fn label(&self) -> &'static str {
        match self {
            DistortionBand::Low => "Low Distortion < 500 meters",
            DistortionBand::Medium => "Medium Distortion < 1000 meters",
            DistortionBand::High => "High Distortion < 5000 meters",
            DistortionBand::ExtremelyHigh => "Extremely High Distortion > 5000 meters",
        }
    }
}

impl std::fmt::Display for DistortionBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::{GeoPoint, LocalProjection};
    use mood_trace::{Record, Timestamp, UserId};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    /// Reference: the per-record `interpolate_at` fold.
    pub(super) fn distortion_reference(original: &Trace, obfuscated: &Trace) -> f64 {
        let mut sum = 0.0;
        for r in obfuscated.records() {
            let projected = original.interpolate_at(r.time());
            sum += projected.haversine_distance(&r.point());
        }
        sum / obfuscated.len() as f64
    }

    fn line_trace() -> Trace {
        let records: Vec<Record> = (0..11)
            .map(|i| rec(46.0 + i as f64 * 0.001, 6.0, i * 100))
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn identity_has_zero_std() {
        let t = line_trace();
        assert_eq!(spatio_temporal_distortion(&t, &t), 0.0);
    }

    #[test]
    fn constant_offset_gives_offset_distance() {
        let t = line_trace();
        // displace every record 300 m east
        let displaced: Vec<Record> = t
            .records()
            .iter()
            .map(|r| {
                let proj = LocalProjection::new(r.point());
                r.with_point(proj.to_geo(300.0, 0.0))
            })
            .collect();
        let t2 = Trace::new(UserId::new(1), displaced).unwrap();
        let std = spatio_temporal_distortion(&t, &t2);
        assert!((std - 300.0).abs() < 1.0, "std = {std}");
    }

    #[test]
    fn interpolates_between_records() {
        // original has records at t=0 and t=100; obfuscated record at
        // t=50 exactly at the midpoint -> zero distortion
        let orig =
            Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0), rec(46.2, 6.0, 100)]).unwrap();
        let obf = Trace::new(UserId::new(1), vec![rec(46.1, 6.0, 50)]).unwrap();
        let std = spatio_temporal_distortion(&orig, &obf);
        assert!(std < 1.0, "std = {std}");
    }

    #[test]
    fn subtrace_timestamps_clamp() {
        // obfuscated record after original's end projects to last point
        let orig =
            Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0), rec(46.1, 6.0, 100)]).unwrap();
        let obf = Trace::new(UserId::new(1), vec![rec(46.1, 6.0, 10_000)]).unwrap();
        assert!(spatio_temporal_distortion(&orig, &obf) < 1.0);
    }

    #[test]
    fn more_records_in_obfuscated_is_fine() {
        // TRL-style 3x duplication: STD is an average, not a sum
        let t = line_trace();
        let tripled: Vec<Record> = t.records().iter().flat_map(|r| [*r, *r, *r]).collect();
        let t3 = Trace::new(UserId::new(1), tripled).unwrap();
        assert!(spatio_temporal_distortion(&t, &t3) < 1e-9);
    }

    #[test]
    fn cursor_fold_is_bit_identical_to_the_per_record_fold() {
        let trace = |records: Vec<Record>| Trace::new(UserId::new(1), records).unwrap();
        let orig = trace(vec![
            rec(46.0, 6.0, 100),
            rec(46.1, 6.2, 200),
            rec(46.2, 6.1, 200),
            rec(46.3, 6.3, 200),
            rec(46.0, 6.4, 350),
            rec(45.9, 6.0, 1_000),
        ]);
        let trl_style = trace(
            orig.records()
                .iter()
                .flat_map(|r| {
                    let p = LocalProjection::new(r.point());
                    [
                        p.to_geo(300.0, 0.0),
                        p.to_geo(0.0, -200.0),
                        p.to_geo(-50.0, 80.0),
                    ]
                    .map(|q| Record::new(q, r.time()))
                })
                .collect(),
        );
        // Before the start, on record times, inside spans, past the end.
        let straddling = trace(
            [0, 99, 100, 150, 200, 201, 349, 350, 700, 999, 1_000, 4_000]
                .into_iter()
                .enumerate()
                .map(|(i, t)| rec(46.05 + i as f64 * 1e-3, 6.1, t))
                .collect(),
        );
        let single = trace(vec![rec(46.1, 6.1, 500)]);
        for (o, b) in [
            (&orig, &trl_style),
            (&orig, &straddling),
            (&straddling, &orig),
            (&single, &straddling),
            (&straddling, &single),
            (&single, &single),
        ] {
            assert_eq!(
                spatio_temporal_distortion(o, b).to_bits(),
                distortion_reference(o, b).to_bits()
            );
        }
    }

    #[test]
    fn band_classification_boundaries() {
        assert_eq!(DistortionBand::classify(0.0), DistortionBand::Low);
        assert_eq!(DistortionBand::classify(499.9), DistortionBand::Low);
        assert_eq!(DistortionBand::classify(500.0), DistortionBand::Medium);
        assert_eq!(DistortionBand::classify(999.9), DistortionBand::Medium);
        assert_eq!(DistortionBand::classify(1_000.0), DistortionBand::High);
        assert_eq!(DistortionBand::classify(4_999.9), DistortionBand::High);
        assert_eq!(
            DistortionBand::classify(5_000.0),
            DistortionBand::ExtremelyHigh
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn band_rejects_nan() {
        DistortionBand::classify(f64::NAN);
    }

    #[test]
    fn bands_ordered_best_to_worst() {
        let all = DistortionBand::all();
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn labels_match_paper_figure9() {
        assert!(DistortionBand::Low.label().contains("500"));
        assert!(DistortionBand::ExtremelyHigh.to_string().contains("5000"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, Timestamp, UserId};
    use proptest::prelude::*;

    /// Traces with strictly increasing timestamps — co-timestamped
    /// records make the temporal projection ambiguous, so `STD(T, T) = 0`
    /// only holds for injective time axes.
    fn arb_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec((1i64..2_000, -0.2f64..0.2, -0.2f64..0.2), 1..60).prop_map(
            |tuples| {
                let mut t_acc = 0i64;
                let records: Vec<Record> = tuples
                    .into_iter()
                    .map(|(dt, dlat, dlng)| {
                        t_acc += dt;
                        Record::new(
                            GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                            Timestamp::from_unix(t_acc),
                        )
                    })
                    .collect();
                Trace::new(UserId::new(1), records).unwrap()
            },
        )
    }

    /// Traces with duplicate-timestamp runs, starting anywhere in
    /// `[0, 3000)` so pairs overlap, nest or miss each other in time.
    fn arb_trace_with_runs() -> impl Strategy<Value = Trace> {
        arb_trace_with_runs_of(1..60)
    }

    /// [`arb_trace_with_runs`] with `len` records.
    fn arb_trace_with_runs_of(len: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
        (
            0i64..3_000,
            proptest::collection::vec((0i64..3, -0.2f64..0.2, -0.2f64..0.2), len),
        )
            .prop_map(|(start, tuples)| {
                let mut at = start;
                let records: Vec<Record> = tuples
                    .into_iter()
                    .map(|(step, dlat, dlng)| {
                        at += step * 40;
                        Record::new(
                            GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                            Timestamp::from_unix(at),
                        )
                    })
                    .collect();
                Trace::new(UserId::new(1), records).unwrap()
            })
    }

    proptest! {
        #[test]
        fn std_is_bit_identical_to_the_per_record_fold(
            a in arb_trace_with_runs(),
            b in arb_trace_with_runs(),
        ) {
            prop_assert_eq!(
                spatio_temporal_distortion(&a, &b).to_bits(),
                tests::distortion_reference(&a, &b).to_bits()
            );
        }

        #[test]
        fn bounded_std_stops_only_above_its_bound(
            // Up to ~5 bound checks, so a stop can land in any block.
            a in arb_trace_with_runs_of(1..150),
            b in arb_trace_with_runs_of(1..150),
            fraction in 0.0f64..1.5,
        ) {
            let full = tests::distortion_reference(&a, &b);
            for bound in [
                f64::INFINITY,
                full,
                full.next_down(),
                0.0,
                full * fraction,
            ] {
                prop_assert_eq!(
                    spatio_temporal_distortion_within(&a, &b, bound).map(f64::to_bits),
                    (full <= bound).then_some(full.to_bits()),
                    "bound {}", bound
                );
            }
        }

        #[test]
        fn std_nonnegative(a in arb_trace(), b in arb_trace()) {
            prop_assert!(spatio_temporal_distortion(&a, &b) >= 0.0);
        }

        #[test]
        fn std_self_zero(a in arb_trace()) {
            prop_assert!(spatio_temporal_distortion(&a, &a) < 1e-9);
        }

        #[test]
        fn std_bounded_by_max_pairwise_distance(a in arb_trace(), b in arb_trace()) {
            // projections stay inside a's bbox, so STD can't exceed the
            // max distance from any b-record to a's bbox corners.
            let std = spatio_temporal_distortion(&a, &b);
            let abb = a.bounding_box();
            let corners = [
                GeoPoint::new(abb.min_lat(), abb.min_lng()).unwrap(),
                GeoPoint::new(abb.min_lat(), abb.max_lng()).unwrap(),
                GeoPoint::new(abb.max_lat(), abb.min_lng()).unwrap(),
                GeoPoint::new(abb.max_lat(), abb.max_lng()).unwrap(),
            ];
            let max_d = b
                .points()
                .map(|p| {
                    corners
                        .iter()
                        .map(|c| p.haversine_distance(c))
                        .fold(0.0f64, f64::max)
                })
                .fold(0.0f64, f64::max);
            prop_assert!(std <= max_d + 1.0);
        }
    }
}
