use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mood_geo::BoundingBox;

use crate::{Result, TimeDelta, Timestamp, Trace, TraceError, UserId};

/// A mobility dataset: one trace per user.
///
/// Iteration order is always ascending [`UserId`], so experiments are
/// deterministic regardless of insertion order.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Dataset, Record, Timestamp, Trace, UserId};
///
/// let mut ds = Dataset::new();
/// let r = Record::new(GeoPoint::new(46.2, 6.1)?, Timestamp::from_unix(0));
/// ds.insert(Trace::new(UserId::new(1), vec![r])?)?;
/// assert_eq!(ds.user_count(), 1);
/// assert_eq!(ds.record_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(try_from = "Vec<Trace>", into = "Vec<Trace>")]
pub struct Dataset {
    traces: BTreeMap<UserId, Trace>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DuplicateUser`] when two traces share a user.
    pub fn from_traces<I>(traces: I) -> Result<Self>
    where
        I: IntoIterator<Item = Trace>,
    {
        let mut ds = Self::new();
        for t in traces {
            ds.insert(t)?;
        }
        Ok(ds)
    }

    /// Inserts a trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DuplicateUser`] when the dataset already
    /// contains a trace for the same user.
    pub fn insert(&mut self, trace: Trace) -> Result<()> {
        let user = trace.user();
        if self.traces.contains_key(&user) {
            return Err(TraceError::DuplicateUser(user));
        }
        self.traces.insert(user, trace);
        Ok(())
    }

    /// Removes and returns the trace of `user`, if present.
    pub fn remove(&mut self, user: UserId) -> Option<Trace> {
        self.traces.remove(&user)
    }

    /// The trace of `user`, if present.
    pub fn get(&self, user: UserId) -> Option<&Trace> {
        self.traces.get(&user)
    }

    /// Number of users (= number of traces).
    pub fn user_count(&self) -> usize {
        self.traces.len()
    }

    /// `true` when the dataset holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total number of records across all traces (`|D|_r` in Eq. 7).
    pub fn record_count(&self) -> usize {
        self.traces.values().map(Trace::len).sum()
    }

    /// Iterator over traces in ascending user order.
    pub fn iter(&self) -> impl Iterator<Item = &Trace> {
        self.traces.values()
    }

    /// The user IDs present, ascending.
    pub fn user_ids(&self) -> Vec<UserId> {
        self.traces.keys().copied().collect()
    }

    /// Keeps only traces for which `keep` returns `true`.
    pub fn retain<F>(&mut self, mut keep: F)
    where
        F: FnMut(&Trace) -> bool,
    {
        self.traces.retain(|_, t| keep(t));
    }

    /// Smallest bounding box containing every record of every trace, or
    /// `None` for an empty dataset.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        let mut boxes = self.traces.values().map(Trace::bounding_box);
        let first = boxes.next()?;
        Some(boxes.fold(first, |acc, b| {
            BoundingBox::new(
                acc.min_lat().min(b.min_lat()),
                acc.max_lat().max(b.max_lat()),
                acc.min_lng().min(b.min_lng()),
                acc.max_lng().max(b.max_lng()),
            )
            .expect("union of valid boxes is valid")
        }))
    }

    /// Chronological per-user split (paper §4.2): the first `train_span`
    /// of each user's trace becomes background knowledge, the rest the
    /// attack/test trace. Users lacking records on either side are dropped
    /// from **both** sides ("only active users during those periods were
    /// considered").
    ///
    /// # Panics
    ///
    /// Panics if `train_span` is not strictly positive.
    pub fn split_chronological(&self, train_span: TimeDelta) -> (Dataset, Dataset) {
        assert!(train_span.as_secs() > 0, "train_span must be positive");
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for trace in self.traces.values() {
            let cut = trace.start_time().offset(train_span);
            let (l, r) = trace.split_at_time(cut);
            if let (Some(l), Some(r)) = (l, r) {
                train.insert(l).expect("unique users preserved");
                test.insert(r).expect("unique users preserved");
            }
        }
        (train, test)
    }

    /// Earliest record timestamp in the dataset, or `None` when empty.
    pub fn start_time(&self) -> Option<Timestamp> {
        self.traces.values().map(Trace::start_time).min()
    }

    /// Latest record timestamp in the dataset, or `None` when empty.
    pub fn end_time(&self) -> Option<Timestamp> {
        self.traces.values().map(Trace::end_time).max()
    }
}

impl FromIterator<Trace> for Dataset {
    /// Collects traces, silently replacing earlier traces on user
    /// collision. Use [`Dataset::from_traces`] to detect collisions.
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        let mut ds = Dataset::new();
        for t in iter {
            ds.traces.insert(t.user(), t);
        }
        ds
    }
}

impl From<Dataset> for Vec<Trace> {
    fn from(ds: Dataset) -> Self {
        ds.traces.into_values().collect()
    }
}

impl TryFrom<Vec<Trace>> for Dataset {
    type Error = TraceError;
    fn try_from(traces: Vec<Trace>) -> Result<Self> {
        Dataset::from_traces(traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;
    use mood_geo::GeoPoint;

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn trace(user: u64, n: i64, step: i64, t0: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| rec(46.0 + user as f64 * 0.01, 6.0, t0 + i * step))
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut ds = Dataset::new();
        ds.insert(trace(1, 5, 60, 0)).unwrap();
        assert!(matches!(
            ds.insert(trace(1, 3, 60, 0)),
            Err(TraceError::DuplicateUser(_))
        ));
    }

    #[test]
    fn counts() {
        let ds = Dataset::from_traces([trace(1, 5, 60, 0), trace(2, 7, 60, 0)]).unwrap();
        assert_eq!(ds.user_count(), 2);
        assert_eq!(ds.record_count(), 12);
        assert!(!ds.is_empty());
    }

    #[test]
    fn iteration_is_sorted_by_user() {
        let ds = Dataset::from_traces([trace(9, 2, 60, 0), trace(1, 2, 60, 0), trace(5, 2, 60, 0)])
            .unwrap();
        let ids: Vec<u64> = ds.iter().map(|t| t.user().as_u64()).collect();
        assert_eq!(ids, vec![1, 5, 9]);
    }

    #[test]
    fn get_and_remove() {
        let mut ds = Dataset::from_traces([trace(1, 5, 60, 0)]).unwrap();
        assert!(ds.get(UserId::new(1)).is_some());
        assert!(ds.get(UserId::new(2)).is_none());
        assert!(ds.remove(UserId::new(1)).is_some());
        assert!(ds.is_empty());
    }

    #[test]
    fn split_chronological_divides_each_user() {
        // 4 days of data per user, split after 2 days
        let ds = Dataset::from_traces([trace(1, 96, 3600, 0), trace(2, 96, 3600, 0)]).unwrap();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(2));
        assert_eq!(train.user_count(), 2);
        assert_eq!(test.user_count(), 2);
        assert_eq!(train.get(UserId::new(1)).unwrap().len(), 48);
        assert_eq!(test.get(UserId::new(1)).unwrap().len(), 48);
        assert!(
            train.get(UserId::new(1)).unwrap().end_time()
                < test.get(UserId::new(1)).unwrap().start_time()
        );
    }

    #[test]
    fn split_chronological_drops_inactive_users() {
        // user 2's records all fall inside the train window
        let ds = Dataset::from_traces([trace(1, 96, 3600, 0), trace(2, 4, 3600, 0)]).unwrap();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(2));
        assert_eq!(train.user_count(), 1);
        assert_eq!(test.user_count(), 1);
        assert!(train.get(UserId::new(2)).is_none());
    }

    #[test]
    fn bounding_box_covers_all_users() {
        let ds = Dataset::from_traces([trace(1, 3, 60, 0), trace(9, 3, 60, 0)]).unwrap();
        let bb = ds.bounding_box().unwrap();
        for t in ds.iter() {
            for r in t.records() {
                assert!(bb.contains(&r.point()));
            }
        }
    }

    #[test]
    fn retain_filters() {
        let mut ds = Dataset::from_traces([trace(1, 3, 60, 0), trace(2, 30, 60, 0)]).unwrap();
        ds.retain(|t| t.len() > 10);
        assert_eq!(ds.user_count(), 1);
        assert!(ds.get(UserId::new(2)).is_some());
    }

    #[test]
    fn time_bounds() {
        let ds = Dataset::from_traces([trace(1, 5, 60, 100), trace(2, 5, 60, 0)]).unwrap();
        assert_eq!(ds.start_time().unwrap().as_unix(), 0);
        assert_eq!(ds.end_time().unwrap().as_unix(), 340);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = Dataset::from_traces([trace(1, 3, 60, 0), trace(2, 4, 60, 0)]).unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn from_iterator_last_wins() {
        let ds: Dataset = [trace(1, 3, 60, 0), trace(1, 5, 60, 0)]
            .into_iter()
            .collect();
        assert_eq!(ds.user_count(), 1);
        assert_eq!(ds.get(UserId::new(1)).unwrap().len(), 5);
    }
}
