use serde::{Deserialize, Serialize};

use mood_trace::{Trace, UserId};

/// One published protected trace variant: the obfuscated trace plus the
/// provenance MooD's Best-LPPM-Selection recorded for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedTrace {
    /// The obfuscated trace. Its user ID is still the *original* user —
    /// pseudonyms are assigned at publication time by
    /// [`crate::publish`].
    pub trace: Trace,
    /// Name of the protecting LPPM or composition chain.
    pub lppm: String,
    /// Spatio-temporal distortion of this variant versus the original
    /// (sub-)trace, in meters.
    pub distortion_m: f64,
}

/// Statistics of the fine-grained stage for one user (the paper's
/// Fig. 8: proportion of protected sub-traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FineGrainedStats {
    /// Sub-traces examined (initial windows plus recursive halves that
    /// reached a decision).
    pub sub_traces_total: usize,
    /// Sub-traces for which a protecting variant was found.
    pub sub_traces_protected: usize,
    /// Records published across protected sub-traces (counted on the
    /// *original* records, so data loss refers to the input dataset).
    pub records_published: usize,
    /// Original records erased because their sub-trace stayed
    /// vulnerable below δ.
    pub records_dropped: usize,
}

impl FineGrainedStats {
    /// Proportion of protected sub-traces in `[0, 1]` (1.0 when no
    /// sub-trace was examined).
    pub fn protected_ratio(&self) -> f64 {
        if self.sub_traces_total == 0 {
            1.0
        } else {
            self.sub_traces_protected as f64 / self.sub_traces_total as f64
        }
    }
}

/// How MooD protected (or failed to protect) one user's trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtectionOutcome {
    /// The whole trace is protected by one variant (single LPPM or
    /// composition).
    Whole(ProtectedTrace),
    /// The trace went through fine-grained protection: some sub-traces
    /// are published (each will get its own pseudonym), the rest are
    /// erased.
    FineGrained {
        /// The protected sub-traces, in time order.
        published: Vec<ProtectedTrace>,
        /// Sub-trace accounting for Fig. 8 / Fig. 10.
        stats: FineGrainedStats,
    },
}

impl ProtectionOutcome {
    /// Number of original records that will be erased.
    pub fn records_dropped(&self) -> usize {
        match self {
            ProtectionOutcome::Whole(_) => 0,
            ProtectionOutcome::FineGrained { stats, .. } => stats.records_dropped,
        }
    }

    /// The published protected traces (one for [`ProtectionOutcome::Whole`],
    /// any number for fine-grained outcomes).
    pub fn published(&self) -> Vec<&ProtectedTrace> {
        match self {
            ProtectionOutcome::Whole(p) => vec![p],
            ProtectionOutcome::FineGrained { published, .. } => published.iter().collect(),
        }
    }
}

/// The orphan-disease taxonomy of §3.1, assigned to every user by the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UserClass {
    /// No attack re-identifies even the raw trace ("naturally
    /// insensitive" users, §4.3).
    NaturallyProtected,
    /// At least one single LPPM defeats all attacks (Eq. 5).
    SingleLppm,
    /// Only a composition of ≥ 2 LPPMs defeats all attacks (Eq. 6) —
    /// these are the orphan users MooD's composition search cures.
    MultiLppm,
    /// Only fine-grained sub-trace protection works (possibly
    /// partially).
    FineGrained,
    /// Not even fine-grained protection publishes a single sub-trace.
    Unprotectable,
}

impl UserClass {
    /// `true` for users that are orphan users with respect to the single
    /// LPPMs (Eq. 4): protected by no single mechanism.
    pub fn is_orphan(&self) -> bool {
        matches!(
            self,
            UserClass::MultiLppm | UserClass::FineGrained | UserClass::Unprotectable
        )
    }
}

impl std::fmt::Display for UserClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UserClass::NaturallyProtected => "naturally protected",
            UserClass::SingleLppm => "single-LPPM protected",
            UserClass::MultiLppm => "multi-LPPM protected (orphan)",
            UserClass::FineGrained => "fine-grained protected (orphan)",
            UserClass::Unprotectable => "unprotectable (orphan)",
        };
        f.write_str(s)
    }
}

/// Complete result of protecting one user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProtection {
    /// The user whose trace was protected.
    pub user: UserId,
    /// Taxonomy class (drives Figs. 6/7 and the orphan analysis).
    pub class: UserClass,
    /// The protection outcome with the published material.
    pub outcome: ProtectionOutcome,
    /// Number of records in the user's original trace.
    pub original_records: usize,
    /// `true` when the engine's candidate budget ran out before every
    /// variant was tried: the budget skips whole candidates, and the
    /// outcome publishes only fully scored ones (a tried candidate may
    /// be dropped part-way once it provably cannot win), so the
    /// published bytes are still deterministic, but a larger budget
    /// might have found a lower-distortion variant or protected more
    /// sub-traces.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orphan_classification() {
        assert!(!UserClass::NaturallyProtected.is_orphan());
        assert!(!UserClass::SingleLppm.is_orphan());
        assert!(UserClass::MultiLppm.is_orphan());
        assert!(UserClass::FineGrained.is_orphan());
        assert!(UserClass::Unprotectable.is_orphan());
    }

    #[test]
    fn fine_grained_ratio() {
        let stats = FineGrainedStats {
            sub_traces_total: 8,
            sub_traces_protected: 6,
            records_published: 120,
            records_dropped: 40,
        };
        assert!((stats.protected_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(FineGrainedStats::default().protected_ratio(), 1.0);
    }

    #[test]
    fn display_names_are_informative() {
        assert!(UserClass::MultiLppm.to_string().contains("orphan"));
        assert!(UserClass::NaturallyProtected
            .to_string()
            .contains("naturally"));
    }
}
