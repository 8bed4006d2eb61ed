use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mood_metrics::DataLoss;
use mood_trace::UserId;

use crate::{ProtectionOutcome, UserClass, UserProtection};

/// Per-user distortion record (feeds the paper's Fig. 9 utility bands).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistortionEntry {
    /// The protected user.
    pub user: UserId,
    /// Name of the selected LPPM / composition (for fine-grained users,
    /// the record-weighted representative of their sub-traces).
    pub lppm: String,
    /// Record-weighted mean spatio-temporal distortion in meters.
    pub distortion_m: f64,
}

/// Dataset-level result of a MooD protection run.
///
/// The report owns the full per-user outcomes (including the protected
/// traces, for publication via [`crate::publish`]) and pre-aggregates
/// everything the paper's figures need. The serializable part excludes
/// the traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionReport {
    /// Number of users in the protected dataset.
    pub users_total: usize,
    /// Users whose **raw** trace already resisted every attack.
    pub naturally_protected: usize,
    /// Users per protection class.
    pub class_counts: BTreeMap<UserClass, usize>,
    /// Record-level data loss (Eq. 7) of the whole run.
    pub data_loss: DataLoss,
    /// Per-user distortion entries for users with at least one published
    /// trace.
    pub distortions: Vec<DistortionEntry>,
    outcomes: Vec<UserProtection>,
}

impl ProtectionReport {
    /// Builds the report from per-user outcomes (sorted by user).
    pub fn from_outcomes(outcomes: Vec<UserProtection>) -> Self {
        let mut class_counts: BTreeMap<UserClass, usize> = BTreeMap::new();
        let mut data_loss = DataLoss::new();
        let mut distortions = Vec::new();
        let mut naturally_protected = 0;
        for o in &outcomes {
            *class_counts.entry(o.class).or_insert(0) += 1;
            if o.class == UserClass::NaturallyProtected {
                naturally_protected += 1;
            }
            match &o.outcome {
                ProtectionOutcome::Whole(p) => {
                    data_loss.add_kept(o.original_records);
                    distortions.push(DistortionEntry {
                        user: o.user,
                        lppm: p.lppm.clone(),
                        distortion_m: p.distortion_m,
                    });
                }
                ProtectionOutcome::FineGrained { published, stats } => {
                    data_loss.add_kept(stats.records_published);
                    data_loss.add_lost(stats.records_dropped);
                    if !published.is_empty() {
                        // record-weighted mean distortion over sub-traces
                        let total: f64 = published.iter().map(|p| p.trace.len() as f64).sum();
                        let mean = published
                            .iter()
                            .map(|p| p.distortion_m * p.trace.len() as f64)
                            .sum::<f64>()
                            / total;
                        // the most frequent LPPM among sub-traces
                        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                        for p in published {
                            *counts.entry(p.lppm.as_str()).or_insert(0) += 1;
                        }
                        let lppm = counts
                            .into_iter()
                            .max_by_key(|(_, c)| *c)
                            .map(|(n, _)| n.to_string())
                            .unwrap_or_default();
                        distortions.push(DistortionEntry {
                            user: o.user,
                            lppm,
                            distortion_m: mean,
                        });
                    }
                }
            }
        }
        Self {
            users_total: outcomes.len(),
            naturally_protected,
            class_counts,
            data_loss,
            distortions,
            outcomes,
        }
    }

    /// The full per-user outcomes (with protected traces).
    pub fn outcomes(&self) -> &[UserProtection] {
        &self.outcomes
    }

    /// Users the Multi-LPPM Composition Search could **not** protect as
    /// a whole trace — the "MooD" bars of Figs. 6/7 (fine-grained users
    /// plus unprotectable users).
    pub fn composition_unprotected(&self) -> Vec<UserId> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.outcome, ProtectionOutcome::FineGrained { .. }))
            .map(|o| o.user)
            .collect()
    }

    /// Count of users in `class`.
    pub fn class_count(&self, class: UserClass) -> usize {
        self.class_counts.get(&class).copied().unwrap_or(0)
    }

    /// The fine-grained per-user statistics (the paper's Fig. 8 bars),
    /// in user order.
    pub fn fine_grained_stats(&self) -> Vec<(UserId, crate::FineGrainedStats)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.outcome {
                ProtectionOutcome::FineGrained { stats, .. } => Some((o.user, *stats)),
                _ => None,
            })
            .collect()
    }

    /// Serializable summary (no traces): suitable for writing to JSON in
    /// experiment outputs and the CLI.
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            users_total: self.users_total,
            naturally_protected: self.naturally_protected,
            class_counts: self
                .class_counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            data_loss_percent: self.data_loss.percent(),
            records_total: self.data_loss.total_records(),
            records_lost: self.data_loss.lost_records(),
            composition_unprotected: self.composition_unprotected(),
            distortions: self.distortions.clone(),
        }
    }
}

/// Trace-free, serializable summary of a [`ProtectionReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Users in the protected dataset.
    pub users_total: usize,
    /// Users whose raw trace already resisted every attack.
    pub naturally_protected: usize,
    /// Users per protection class (display name → count).
    pub class_counts: BTreeMap<String, usize>,
    /// Data loss as a percentage of records.
    pub data_loss_percent: f64,
    /// Total records considered.
    pub records_total: usize,
    /// Records erased.
    pub records_lost: usize,
    /// Users the whole-trace composition search could not protect.
    pub composition_unprotected: Vec<UserId>,
    /// Per-user distortions.
    pub distortions: Vec<DistortionEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FineGrainedStats, ProtectedTrace};
    use mood_geo::GeoPoint;
    use mood_metrics::DistortionBand;
    use mood_trace::{Record, Timestamp, Trace};

    fn trace(user: u64, n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn whole_outcome(user: u64, records: i64, distortion: f64) -> UserProtection {
        UserProtection {
            user: UserId::new(user),
            class: UserClass::SingleLppm,
            outcome: ProtectionOutcome::Whole(ProtectedTrace {
                trace: trace(user, records),
                lppm: "Geo-I".into(),
                distortion_m: distortion,
            }),
            original_records: records as usize,
            degraded: false,
        }
    }

    fn fine_outcome(user: u64, published: i64, dropped: usize) -> UserProtection {
        let published_traces = if published > 0 {
            vec![ProtectedTrace {
                trace: trace(user, published),
                lppm: "Geo-I→TRL".into(),
                distortion_m: 1_500.0,
            }]
        } else {
            vec![]
        };
        UserProtection {
            user: UserId::new(user),
            class: if published > 0 {
                UserClass::FineGrained
            } else {
                UserClass::Unprotectable
            },
            outcome: ProtectionOutcome::FineGrained {
                published: published_traces,
                stats: FineGrainedStats {
                    sub_traces_total: 4,
                    sub_traces_protected: if published > 0 { 1 } else { 0 },
                    records_published: published as usize,
                    records_dropped: dropped,
                },
            },
            original_records: published as usize + dropped,
            degraded: false,
        }
    }

    #[test]
    fn aggregates_counts_and_loss() {
        let report = ProtectionReport::from_outcomes(vec![
            whole_outcome(1, 100, 200.0),
            fine_outcome(2, 60, 40),
            fine_outcome(3, 0, 80),
        ]);
        assert_eq!(report.users_total, 3);
        assert_eq!(report.class_count(UserClass::SingleLppm), 1);
        assert_eq!(report.class_count(UserClass::FineGrained), 1);
        assert_eq!(report.class_count(UserClass::Unprotectable), 1);
        assert_eq!(report.data_loss.total_records(), 100 + 100 + 80);
        assert_eq!(report.data_loss.lost_records(), 120);
        assert_eq!(report.composition_unprotected().len(), 2);
    }

    #[test]
    fn distortion_bands_classify() {
        let report = ProtectionReport::from_outcomes(vec![
            whole_outcome(1, 100, 200.0), // Low
            whole_outcome(2, 100, 700.0), // Medium
            fine_outcome(3, 60, 40),      // 1500 m -> High
        ]);
        let bands: Vec<(u64, f64, DistortionBand)> = report
            .distortions
            .iter()
            .map(|e| {
                let band = DistortionBand::classify(e.distortion_m);
                (e.user.as_u64(), e.distortion_m, band)
            })
            .collect();
        assert_eq!(
            bands,
            [
                (1, 200.0, DistortionBand::Low),
                (2, 700.0, DistortionBand::Medium),
                (3, 1_500.0, DistortionBand::High),
            ]
        );
    }

    #[test]
    fn unprotectable_users_have_no_distortion_entry() {
        let report = ProtectionReport::from_outcomes(vec![fine_outcome(1, 0, 80)]);
        assert!(report.distortions.is_empty());
    }

    #[test]
    fn fine_grained_stats_are_exposed() {
        let report = ProtectionReport::from_outcomes(vec![
            whole_outcome(1, 100, 200.0),
            fine_outcome(2, 60, 40),
        ]);
        let stats = report.fine_grained_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, UserId::new(2));
        assert!((stats[0].1.protected_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_serializes() {
        let report = ProtectionReport::from_outcomes(vec![whole_outcome(1, 100, 200.0)]);
        let json = serde_json::to_string(&report.summary()).unwrap();
        let back: ReportSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.users_total, 1);
        assert_eq!(back.data_loss_percent, 0.0);
    }
}
