//! Order statistics, the ledger's metric rows and the output digest.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50
/// that leaves at least ten samples beyond it in a sample of `n`, or
/// `None` when even the median has fewer than ten beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// `whole − Σ parts`: the share of a measured total that no layer
/// claims.
pub fn unattributed(whole: f64, parts: &[f64]) -> f64 {
    whole - parts.iter().sum::<f64>()
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One named measurement: every sample a run took of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// For a host-normalized metric, the samples as timed (see
    /// [`crate::calibrate`]); empty otherwise.
    pub raw: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self::normalized(name, unit, samples, Vec::new())
    }

    pub fn normalized(
        name: &'static str,
        unit: &'static str,
        samples: Vec<f64>,
        raw: Vec<f64>,
    ) -> Self {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        Self {
            name,
            unit,
            samples,
            raw,
        }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// `(p25, p75)` by nearest rank.
    pub fn quartiles(&self) -> (f64, f64) {
        let sorted = self.sorted();
        (
            percentile(&sorted, 25.0).expect("non-empty"),
            percentile(&sorted, 75.0).expect("non-empty"),
        )
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a, 64-bit: the digest every run prints over its outputs, so two
/// runs of one seed can be compared byte for byte without storing them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(5.0));
        assert_eq!(percentile(&sorted, 90.0), Some(9.0));
        assert_eq!(percentile(&sorted, 99.0), Some(10.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&sorted, 25.0), Some(3.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 99.9), Some(100.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn unattributed_is_the_remainder() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 4.5]), 0.5);
        assert_eq!(unattributed(3.0, &[]), 3.0);
        assert!(unattributed(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn metric_summaries() {
        let m = Metric::new("x", "ms", vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(m.median(), 2.5);
        assert_eq!(m.quartiles(), (1.0, 3.0));
        assert_eq!(Metric::single("y", "count", 7.0).median(), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
