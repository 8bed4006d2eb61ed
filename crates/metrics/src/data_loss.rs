use serde::{Deserialize, Serialize};

/// Record-level data-loss accounting (paper Eq. 7).
///
/// The paper defines data loss over a dataset `D` as the share of records
/// belonging to *non-protected* traces — the data that must be erased
/// before publication to prevent re-identification:
///
/// ```text
/// data_loss(D, Λ, A) = |D_NP|_r / |D|_r
/// ```
///
/// `DataLoss` accumulates the two counters and exposes the ratio.
///
/// # Examples
///
/// ```
/// use mood_metrics::DataLoss;
///
/// let mut loss = DataLoss::new();
/// loss.add_kept(900);
/// loss.add_lost(100);
/// assert!((loss.ratio() - 0.1).abs() < 1e-12);
/// assert_eq!(loss.total_records(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DataLoss {
    kept: usize,
    lost: usize,
}

impl DataLoss {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` protected (published) records.
    pub fn add_kept(&mut self, n: usize) {
        self.kept += n;
    }

    /// Records `n` erased records (non-protected data).
    pub fn add_lost(&mut self, n: usize) {
        self.lost += n;
    }

    /// Number of published records.
    pub fn kept_records(&self) -> usize {
        self.kept
    }

    /// Number of erased records (`|D_NP|_r`).
    pub fn lost_records(&self) -> usize {
        self.lost
    }

    /// Total records considered (`|D|_r`).
    pub fn total_records(&self) -> usize {
        self.kept + self.lost
    }

    /// The data-loss ratio in `[0, 1]`; 0 for an empty account.
    pub fn ratio(&self) -> f64 {
        let total = self.total_records();
        if total == 0 {
            0.0
        } else {
            self.lost as f64 / total as f64
        }
    }

    /// The data-loss ratio as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }

    /// Merges another account into this one.
    #[cfg(test)]
    fn merge(&mut self, other: &DataLoss) {
        self.kept += other.kept;
        self.lost += other.lost;
    }
}

impl std::fmt::Display for DataLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}% lost ({} of {} records)",
            self.percent(),
            self.lost,
            self.total_records()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_account_is_zero() {
        let loss = DataLoss::new();
        assert_eq!(loss.ratio(), 0.0);
        assert_eq!(loss.percent(), 0.0);
        assert_eq!(loss.total_records(), 0);
    }

    #[test]
    fn full_loss() {
        let mut loss = DataLoss::new();
        loss.add_lost(42);
        assert_eq!(loss.ratio(), 1.0);
        assert_eq!(loss.kept_records(), 0);
    }

    #[test]
    fn no_loss() {
        let mut loss = DataLoss::new();
        loss.add_kept(42);
        assert_eq!(loss.ratio(), 0.0);
    }

    #[test]
    fn accumulates() {
        let mut loss = DataLoss::new();
        loss.add_kept(30);
        loss.add_lost(10);
        loss.add_kept(30);
        loss.add_lost(30);
        assert_eq!(loss.total_records(), 100);
        assert!((loss.ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = DataLoss::new();
        a.add_kept(10);
        a.add_lost(5);
        let mut b = DataLoss::new();
        b.add_kept(20);
        b.add_lost(15);
        a.merge(&b);
        assert_eq!(a.kept_records(), 30);
        assert_eq!(a.lost_records(), 20);
    }

    #[test]
    fn display_shows_percent_and_counts() {
        let mut loss = DataLoss::new();
        loss.add_kept(90);
        loss.add_lost(10);
        let s = loss.to_string();
        assert!(s.contains("10.00%"));
        assert!(s.contains("10 of 100"));
    }

    #[test]
    fn serde_roundtrip() {
        let mut loss = DataLoss::new();
        loss.add_kept(7);
        loss.add_lost(3);
        let json = serde_json::to_string(&loss).unwrap();
        let back: DataLoss = serde_json::from_str(&json).unwrap();
        assert_eq!(loss, back);
    }
}
