use serde::{Deserialize, Serialize};

use mood_geo::{BoundingBox, GeoPoint};

use crate::{Record, Result, TimeDelta, Timestamp, TraceError, UserId};

/// A user's mobility trace: a non-empty, time-sorted sequence of
/// [`Record`]s (paper §2.1, `T ∈ (R² × R⁺)*`).
///
/// The sorted-and-non-empty invariant is established at construction and
/// preserved by every operation, so attacks and LPPMs can iterate records
/// without defensive checks.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Record, Timestamp, Trace, TimeDelta, UserId};
///
/// let records: Vec<Record> = (0..48)
///     .map(|i| Record::new(
///         GeoPoint::new(46.2, 6.1).unwrap(),
///         Timestamp::from_unix(i * 1800),
///     ))
///     .collect();
/// let trace = Trace::new(UserId::new(3), records)?;
/// let days = trace.windows(TimeDelta::from_hours(12));
/// assert_eq!(days.len(), 2);
/// # Ok::<(), mood_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "TraceRepr", into = "TraceRepr")]
pub struct Trace {
    user: UserId,
    records: Vec<Record>,
}

impl Trace {
    /// Creates a trace, sorting records by timestamp (stable sort, so
    /// co-timestamped records keep their relative order).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] when `records` is empty.
    pub fn new(user: UserId, mut records: Vec<Record>) -> Result<Self> {
        if records.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        // Fast path: one linear scan skips the O(n log n) sort for
        // already-sorted input (the common case — public datasets ship
        // time-ordered and synth generators emit in order).
        let sorted = records.windows(2).all(|p| p[0].time() <= p[1].time());
        if !sorted {
            records.sort_by_key(|r| r.time());
        }
        Ok(Self { user, records })
    }

    /// Creates a trace from records that are already time-sorted,
    /// validating instead of sorting.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for empty input and
    /// [`TraceError::UnsortedRecords`] with the index of the first
    /// violation otherwise.
    pub fn from_sorted(user: UserId, records: Vec<Record>) -> Result<Self> {
        if records.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        for (i, pair) in records.windows(2).enumerate() {
            if pair[0].time() > pair[1].time() {
                return Err(TraceError::UnsortedRecords { index: i + 1 });
            }
        }
        Ok(Self { user, records })
    }

    /// The user this trace belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// A copy of the trace re-attributed to `user`; the mechanism behind
    /// `renew_Ids` in Algorithm 1.
    pub fn with_user(&self, user: UserId) -> Trace {
        Trace {
            user,
            records: self.records.clone(),
        }
    }

    /// The time-sorted records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the trace and returns its record buffer (still
    /// time-sorted). This is the recycling half of buffer-reusing hot
    /// loops: build a candidate with [`Trace::new`] from a scratch
    /// buffer, and when the candidate is rejected take the allocation
    /// back instead of dropping it.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Number of records (always ≥ 1).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always `false`; present for API completeness (clippy's
    /// `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Timestamp of the first record.
    pub fn start_time(&self) -> Timestamp {
        self.records[0].time()
    }

    /// Timestamp of the last record.
    pub fn end_time(&self) -> Timestamp {
        self.records[self.records.len() - 1].time()
    }

    /// Time spanned from first to last record.
    pub fn duration(&self) -> TimeDelta {
        self.end_time().since(self.start_time())
    }

    /// Iterator over the geographic points of the records.
    pub fn points(&self) -> impl Iterator<Item = GeoPoint> + '_ {
        self.records.iter().map(|r| r.point())
    }

    /// Smallest bounding box containing every record.
    pub fn bounding_box(&self) -> BoundingBox {
        let points: Vec<GeoPoint> = self.points().collect();
        BoundingBox::from_points(points.iter()).expect("trace is non-empty")
    }

    /// Splits at instant `t`: records strictly before `t` on the left,
    /// records at or after `t` on the right. Either side may be `None`
    /// when it would be empty.
    pub fn split_at_time(&self, t: Timestamp) -> (Option<Trace>, Option<Trace>) {
        let split = self.records.partition_point(|r| r.time() < t);
        let left = if split > 0 {
            Some(Trace {
                user: self.user,
                records: self.records[..split].to_vec(),
            })
        } else {
            None
        };
        let right = if split < self.records.len() {
            Some(Trace {
                user: self.user,
                records: self.records[split..].to_vec(),
            })
        } else {
            None
        };
        (left, right)
    }

    /// Cuts the trace in half according to time (paper §3.4): the split
    /// point is the midpoint between the first and last timestamps.
    ///
    /// When all records share one timestamp the "split" puts everything in
    /// one half; callers (MooD's recursion) stop on the δ duration check
    /// before that can loop.
    pub fn split_in_half(&self) -> (Option<Trace>, Option<Trace>) {
        let mid = Timestamp::midpoint(self.start_time(), self.end_time());
        // Put the midpoint record in the right half unless that empties the
        // left; bias so both halves are non-empty whenever possible.
        let (l, r) = self.split_at_time(mid);
        if l.is_some() {
            (l, r)
        } else {
            self.split_at_time(mid.offset(TimeDelta::from_secs(1)))
        }
    }

    /// Chops the trace into consecutive windows of length `window`,
    /// aligned to the first record's timestamp. Empty windows (gaps longer
    /// than `window`) produce no trace. Used to form the 24 h sub-traces
    /// of the fine-grained experiments (§4.5).
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    pub fn windows(&self, window: TimeDelta) -> Vec<Trace> {
        assert!(window.as_secs() > 0, "window must be positive");
        let start = self.start_time().as_unix();
        let w = window.as_secs();
        let mut out: Vec<Trace> = Vec::new();
        let mut bucket: Vec<Record> = Vec::new();
        let mut bucket_idx = 0i64;
        for r in &self.records {
            let idx = (r.time().as_unix() - start) / w;
            if idx != bucket_idx && !bucket.is_empty() {
                out.push(Trace {
                    user: self.user,
                    records: std::mem::take(&mut bucket),
                });
            }
            bucket_idx = idx;
            bucket.push(*r);
        }
        if !bucket.is_empty() {
            out.push(Trace {
                user: self.user,
                records: bucket,
            });
        }
        out
    }

    /// Temporal projection (paper Eq. 8): the expected position at instant
    /// `t`, linearly interpolated between the two records bracketing `t`.
    /// Instants before the first or after the last record clamp to the
    /// nearest record's position.
    pub fn interpolate_at(&self, t: Timestamp) -> GeoPoint {
        point_at(&self.records, t, |records| {
            records.partition_point(|r| r.time() < t)
        })
    }

    /// A cursor answering [`Trace::interpolate_at`] for a stream of
    /// instants, such as another trace's record times.
    pub fn projection_cursor(&self) -> ProjectionCursor<'_> {
        ProjectionCursor {
            records: &self.records,
            next: 0,
        }
    }

    /// Concatenates several fragments of the *same* user into one trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] when `parts` is empty and
    /// [`TraceError::DuplicateUser`] when fragments disagree on the user.
    pub fn concat(parts: &[Trace]) -> Result<Trace> {
        let first = parts.first().ok_or(TraceError::EmptyTrace)?;
        let user = first.user;
        let mut records = Vec::new();
        for p in parts {
            if p.user != user {
                return Err(TraceError::DuplicateUser(p.user));
            }
            records.extend_from_slice(&p.records);
        }
        Trace::new(user, records)
    }
}

/// [`Trace::interpolate_at`] over a stream of instants, walking forward.
///
/// Every answer is bit-identical to `interpolate_at`'s. The cursor keeps
/// the bracket of its last answer, so an instant at or after that bracket
/// walks forward from it instead of binary-searching the whole trace: a
/// time-sorted stream of `m` instants over `n` records costs `O(n + m)`
/// steps rather than `O(m log n)`. An instant before the bracket falls
/// back to the binary search.
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Record, Timestamp, Trace, UserId};
///
/// let trace = Trace::new(UserId::new(1), vec![
///     Record::new(GeoPoint::new(46.0, 6.0)?, Timestamp::from_unix(0)),
///     Record::new(GeoPoint::new(46.2, 6.0)?, Timestamp::from_unix(100)),
///     Record::new(GeoPoint::new(46.2, 6.4)?, Timestamp::from_unix(300)),
/// ])?;
/// let mut cursor = trace.projection_cursor();
/// for t in [-5, 50, 100, 200, 250, 20, 900] {
///     let t = Timestamp::from_unix(t);
///     assert_eq!(cursor.interpolate_at(t), trace.interpolate_at(t));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProjectionCursor<'a> {
    records: &'a [Record],
    /// The bracket of the last in-span answer: the index of the first
    /// record at or after that instant (0 before any).
    next: usize,
}

impl ProjectionCursor<'_> {
    /// The trace's position at `t`, exactly as [`Trace::interpolate_at`].
    pub fn interpolate_at(&mut self, t: Timestamp) -> GeoPoint {
        point_at(self.records, t, |records| {
            let mut i = self.next;
            if i > 0 && records[i - 1].time() >= t {
                // Backwards: the bracket lies at or before the last one.
                i = records[..i].partition_point(|r| r.time() < t);
            } else {
                // Every record before `i` is earlier than `t`, and the
                // last record is later, so the walk stops inside.
                while records[i].time() < t {
                    i += 1;
                }
            }
            self.next = i;
            i
        })
    }
}

/// The position at `t` on non-empty, time-sorted `records`: the first or
/// last record's point outside their span, otherwise the interpolation
/// between the records bracketing `t`. `first_at_or_after` locates the
/// bracket — the index of the first record at or after `t` — and is only
/// called for `t` strictly inside the span, where that index is ≥ 1.
fn point_at(
    records: &[Record],
    t: Timestamp,
    first_at_or_after: impl FnOnce(&[Record]) -> usize,
) -> GeoPoint {
    let (first, last) = (&records[0], &records[records.len() - 1]);
    if t <= first.time() {
        return first.point();
    }
    if t >= last.time() {
        return last.point();
    }
    let i = first_at_or_after(records);
    let before = &records[i - 1];
    let after = &records[i];
    let span = after.time().since(before.time()).as_secs();
    if span == 0 {
        return before.point();
    }
    let f = t.since(before.time()).as_secs() as f64 / span as f64;
    before.point().lerp(&after.point(), f)
}

/// Serialized form of [`Trace`]; construction re-validates the invariant.
#[derive(Serialize, Deserialize)]
struct TraceRepr {
    user: UserId,
    records: Vec<Record>,
}

impl From<Trace> for TraceRepr {
    fn from(t: Trace) -> Self {
        TraceRepr {
            user: t.user,
            records: t.records,
        }
    }
}

impl TryFrom<TraceRepr> for Trace {
    type Error = TraceError;
    fn try_from(r: TraceRepr) -> Result<Self> {
        Trace::new(r.user, r.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lng: f64) -> GeoPoint {
        GeoPoint::new(lat, lng).unwrap()
    }

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(pt(lat, lng), Timestamp::from_unix(t))
    }

    fn walk(n: i64, step_s: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| rec(46.0 + i as f64 * 1e-3, 6.0, i * step_s))
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn new_rejects_empty() {
        assert!(matches!(
            Trace::new(UserId::new(1), vec![]),
            Err(TraceError::EmptyTrace)
        ));
    }

    #[test]
    fn new_sorts_records() {
        let t = Trace::new(
            UserId::new(1),
            vec![rec(46.0, 6.0, 100), rec(46.1, 6.0, 50), rec(46.2, 6.0, 75)],
        )
        .unwrap();
        let times: Vec<i64> = t.records().iter().map(|r| r.time().as_unix()).collect();
        assert_eq!(times, vec![50, 75, 100]);
    }

    #[test]
    fn new_sorted_fast_path_preserves_input() {
        // Already-sorted input (including co-timestamped runs) must come
        // out unchanged, whether the scan takes the fast path or not.
        let records = vec![
            rec(46.0, 6.0, 50),
            rec(46.1, 6.0, 75),
            rec(46.2, 6.0, 75),
            rec(46.3, 6.0, 100),
        ];
        let t = Trace::new(UserId::new(1), records.clone()).unwrap();
        assert_eq!(t.records(), records.as_slice());
        // The unsorted path keeps the same stable tie order.
        let mut shuffled = records.clone();
        shuffled.swap(0, 3);
        let sorted = Trace::new(UserId::new(1), shuffled).unwrap();
        let times: Vec<i64> = sorted
            .records()
            .iter()
            .map(|r| r.time().as_unix())
            .collect();
        assert_eq!(times, vec![50, 75, 75, 100]);
    }

    #[test]
    fn from_sorted_validates() {
        let bad = vec![rec(46.0, 6.0, 100), rec(46.1, 6.0, 50)];
        assert!(matches!(
            Trace::from_sorted(UserId::new(1), bad),
            Err(TraceError::UnsortedRecords { index: 1 })
        ));
        let good = vec![rec(46.0, 6.0, 50), rec(46.1, 6.0, 100)];
        assert!(Trace::from_sorted(UserId::new(1), good).is_ok());
    }

    #[test]
    fn duration_and_bounds() {
        let t = walk(10, 60);
        assert_eq!(t.duration(), TimeDelta::from_secs(9 * 60));
        assert_eq!(t.start_time().as_unix(), 0);
        assert_eq!(t.end_time().as_unix(), 540);
        let bb = t.bounding_box();
        assert!(bb.contains(&t.records()[0].point()));
        assert!(bb.contains(&t.records()[9].point()));
    }

    #[test]
    fn with_user_changes_only_user() {
        let t = walk(5, 60);
        let renamed = t.with_user(UserId::new(42));
        assert_eq!(renamed.user(), UserId::new(42));
        assert_eq!(renamed.records(), t.records());
    }

    #[test]
    fn split_at_time_partitions() {
        let t = walk(10, 60);
        let (l, r) = t.split_at_time(Timestamp::from_unix(300));
        let l = l.unwrap();
        let r = r.unwrap();
        assert_eq!(l.len() + r.len(), 10);
        assert!(l.end_time() < Timestamp::from_unix(300));
        assert!(r.start_time() >= Timestamp::from_unix(300));
        assert_eq!(l.user(), t.user());
    }

    #[test]
    fn split_at_time_boundaries() {
        let t = walk(10, 60);
        let (l, r) = t.split_at_time(Timestamp::from_unix(-5));
        assert!(l.is_none());
        assert_eq!(r.unwrap().len(), 10);
        let (l, r) = t.split_at_time(Timestamp::from_unix(10_000));
        assert_eq!(l.unwrap().len(), 10);
        assert!(r.is_none());
    }

    #[test]
    fn split_in_half_balances() {
        let t = walk(10, 60);
        let (l, r) = t.split_in_half();
        let l = l.unwrap();
        let r = r.unwrap();
        assert_eq!(l.len() + r.len(), 10);
        assert!(l.len() >= 4 && l.len() <= 6);
    }

    #[test]
    fn split_in_half_single_record() {
        let t = Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0)]).unwrap();
        let (l, r) = t.split_in_half();
        // one side carries the record, the other is empty
        assert_eq!(l.iter().chain(r.iter()).map(|t| t.len()).sum::<usize>(), 1);
    }

    #[test]
    fn windows_split_by_duration() {
        // 48 records every 30 min = 24 h of data, minus the last instant
        let t = walk(48, 1800);
        let halves = t.windows(TimeDelta::from_hours(12));
        assert_eq!(halves.len(), 2);
        assert_eq!(halves[0].len(), 24);
        assert_eq!(halves[1].len(), 24);
        for h in &halves {
            assert_eq!(h.user(), t.user());
        }
    }

    #[test]
    fn windows_skip_gaps() {
        let mut records = vec![rec(46.0, 6.0, 0), rec(46.0, 6.0, 600)];
        // 10-day gap, then two more records
        records.push(rec(46.0, 6.0, 864_000));
        records.push(rec(46.0, 6.0, 864_600));
        let t = Trace::new(UserId::new(1), records).unwrap();
        let days = t.windows(TimeDelta::from_days(1));
        assert_eq!(days.len(), 2);
        assert_eq!(days[0].len(), 2);
        assert_eq!(days[1].len(), 2);
    }

    #[test]
    fn windows_preserve_all_records() {
        let t = walk(100, 977);
        let parts = t.windows(TimeDelta::from_hours(3));
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn interpolate_midpoint() {
        let t = Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0), rec(46.2, 6.2, 100)]).unwrap();
        let p = t.interpolate_at(Timestamp::from_unix(50));
        assert!((p.lat() - 46.1).abs() < 1e-9);
        assert!((p.lng() - 6.1).abs() < 1e-9);
    }

    #[test]
    fn interpolate_clamps_outside() {
        let t = Trace::new(
            UserId::new(1),
            vec![rec(46.0, 6.0, 100), rec(46.2, 6.2, 200)],
        )
        .unwrap();
        assert_eq!(t.interpolate_at(Timestamp::from_unix(0)), pt(46.0, 6.0));
        assert_eq!(t.interpolate_at(Timestamp::from_unix(999)), pt(46.2, 6.2));
    }

    #[test]
    fn interpolate_exact_record_time() {
        let t = walk(5, 60);
        let p = t.interpolate_at(Timestamp::from_unix(120));
        assert_eq!(p, t.records()[2].point());
    }

    /// Asserts the cursor answers each instant, in the order given, with
    /// exactly the bits of `interpolate_at`.
    pub(super) fn assert_cursor_matches(trace: &Trace, instants: &[i64]) {
        let mut cursor = trace.projection_cursor();
        for &t in instants {
            let t = Timestamp::from_unix(t);
            let (a, b) = (cursor.interpolate_at(t), trace.interpolate_at(t));
            assert_eq!(a.lat().to_bits(), b.lat().to_bits(), "t = {t}");
            assert_eq!(a.lng().to_bits(), b.lng().to_bits(), "t = {t}");
        }
    }

    #[test]
    fn projection_cursor_matches_interpolate_at_to_the_bit() {
        // A duplicate-timestamp run at 200 and a gap before 900.
        let t = Trace::new(
            UserId::new(1),
            vec![
                rec(46.0, 6.0, 100),
                rec(46.1, 6.3, 200),
                rec(46.2, 6.1, 200),
                rec(46.3, 6.2, 200),
                rec(46.05, 6.15, 260),
                rec(45.9, 5.9, 900),
            ],
        )
        .unwrap();
        // Before the start, on every record time (thrice, like TRL's
        // triples), between records, after the end.
        let mut sorted = vec![-50, 0, 99];
        for r in t.records() {
            sorted.extend([r.time().as_unix(); 3]);
        }
        sorted.extend([150, 199, 201, 259, 261, 600, 899, 901, 5_000]);
        sorted.sort_unstable();
        assert_cursor_matches(&t, &sorted);
        // Backward queries fall back to the binary search.
        assert_cursor_matches(&t, &[600, 150, 150, 899, 201, 100, 5_000, 250, -1]);
        // A one-record trace answers its only point everywhere.
        assert_cursor_matches(&walk(1, 60), &[-10, 0, 10, 5, -3]);
    }

    #[test]
    fn concat_same_user() {
        let t = walk(10, 60);
        let (l, r) = t.split_in_half();
        let joined = Trace::concat(&[l.unwrap(), r.unwrap()]).unwrap();
        assert_eq!(joined, t);
    }

    #[test]
    fn concat_rejects_mixed_users() {
        let a = walk(3, 60);
        let b = walk(3, 60).with_user(UserId::new(2));
        assert!(matches!(
            Trace::concat(&[a, b]),
            Err(TraceError::DuplicateUser(_))
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let t = walk(5, 60);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn serde_rejects_empty_trace() {
        let json = r#"{"user":1,"records":[]}"#;
        assert!(serde_json::from_str::<Trace>(json).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec((0i64..1_000_000, -0.4f64..0.4, -0.4f64..0.4), 1..200).prop_map(
            |tuples| {
                let records: Vec<Record> = tuples
                    .into_iter()
                    .map(|(t, dlat, dlng)| {
                        Record::new(
                            GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                            Timestamp::from_unix(t),
                        )
                    })
                    .collect();
                Trace::new(UserId::new(7), records).unwrap()
            },
        )
    }

    /// Traces with many duplicate-timestamp runs (steps of 0–3 × 50 s).
    fn arb_trace_with_runs() -> impl Strategy<Value = Trace> {
        proptest::collection::vec((0i64..4, -0.4f64..0.4, -0.4f64..0.4), 1..60).prop_map(|tuples| {
            let mut at = 0;
            let records: Vec<Record> = tuples
                .into_iter()
                .map(|(step, dlat, dlng)| {
                    at += step * 50;
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
        fn projection_cursor_matches_interpolate_at(
            t in arb_trace_with_runs(),
            mut instants in proptest::collection::vec(-200i64..9_500, 0..120),
        ) {
            // In the given order, which goes back and forth ...
            tests::assert_cursor_matches(&t, &instants);
            // ... and time-sorted, with every record time in the stream.
            instants.extend(t.records().iter().map(|r| r.time().as_unix()));
            instants.sort_unstable();
            tests::assert_cursor_matches(&t, &instants);
        }

        #[test]
        fn construction_sorts(t in arb_trace()) {
            for pair in t.records().windows(2) {
                prop_assert!(pair[0].time() <= pair[1].time());
            }
        }

        #[test]
        fn split_preserves_records(t in arb_trace(), frac in 0.0f64..1.0) {
            let offset = (t.duration().as_secs() as f64 * frac) as i64;
            let cut = t.start_time().offset(TimeDelta::from_secs(offset));
            let (l, r) = t.split_at_time(cut);
            let total = l.as_ref().map_or(0, Trace::len) + r.as_ref().map_or(0, Trace::len);
            prop_assert_eq!(total, t.len());
        }

        #[test]
        fn windows_preserve_records(t in arb_trace(), hours in 1i64..100) {
            let parts = t.windows(TimeDelta::from_hours(hours));
            let total: usize = parts.iter().map(Trace::len).sum();
            prop_assert_eq!(total, t.len());
            // each window spans less than the window length
            for p in &parts {
                prop_assert!(p.duration() < TimeDelta::from_hours(hours));
            }
        }

        #[test]
        fn interpolation_stays_in_bbox(t in arb_trace(), frac in 0.0f64..1.0) {
            let offset = (t.duration().as_secs() as f64 * frac) as i64;
            let at = t.start_time().offset(TimeDelta::from_secs(offset));
            let p = t.interpolate_at(at);
            let bb = t.bounding_box();
            prop_assert!(bb.expanded(1.0).unwrap().contains(&p));
        }

        #[test]
        fn halves_rejoin_to_original(t in arb_trace()) {
            let (l, r) = t.split_in_half();
            let parts: Vec<Trace> = l.into_iter().chain(r).collect();
            let joined = Trace::concat(&parts).unwrap();
            prop_assert_eq!(joined, t);
        }
    }
}
