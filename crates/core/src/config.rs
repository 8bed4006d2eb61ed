use serde::{Deserialize, Serialize};

use mood_trace::TimeDelta;

use crate::SplitStrategy;

/// Configuration of the MooD engine (the paper's parameters in §3.4 and
/// §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoodConfig {
    /// Recursion floor δ: sub-traces shorter than this are erased instead
    /// of split further (4 h in the paper).
    pub delta: TimeDelta,
    /// Length of the initial fine-grained windows. The paper splits
    /// still-vulnerable traces into 24 h sub-traces ("to simulate the
    /// scenario of a crowdsensing application where users send their
    /// data daily", §4.2) before the recursive halving starts. `None`
    /// starts the recursive halving directly on the whole trace
    /// (Algorithm 1 verbatim).
    pub initial_window: Option<TimeDelta>,
    /// Maximum composition length explored by the Multi-LPPM Composition
    /// Search; `usize::MAX` means "up to the number of base LPPMs" (the
    /// paper explores the full space C).
    pub max_composition_len: usize,
    /// How still-vulnerable sub-traces are split (the paper halves by
    /// time; gap and inter-POI splitting are its §6 future work).
    pub split_strategy: SplitStrategy,
    /// Seed from which every LPPM application derives its randomness;
    /// fixed seed = bit-for-bit reproducible protection.
    pub seed: u64,
}

impl MoodConfig {
    /// The paper's configuration: δ = 4 h, 24 h initial windows, full
    /// composition space.
    pub fn paper_default() -> Self {
        Self {
            delta: TimeDelta::from_hours(4),
            initial_window: Some(TimeDelta::from_hours(24)),
            max_composition_len: usize::MAX,
            split_strategy: SplitStrategy::Halving,
            seed: 0x4d6f_6f44,
        }
    }

    /// Validates the configuration, reporting the first problem found.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad parameter when δ or the initial
    /// window is non-positive, or when `max_composition_len` is zero.
    pub fn check(&self) -> Result<(), String> {
        if self.delta.as_secs() <= 0 {
            return Err("delta must be positive".to_string());
        }
        if let Some(w) = self.initial_window {
            if w.as_secs() <= 0 {
                return Err("initial window must be positive".to_string());
            }
        }
        if self.max_composition_len < 1 {
            return Err("composition length must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for MoodConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_2() {
        let c = MoodConfig::paper_default();
        assert_eq!(c.delta, TimeDelta::from_hours(4));
        assert_eq!(c.initial_window, Some(TimeDelta::from_hours(24)));
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn rejects_zero_delta() {
        let mut c = MoodConfig::paper_default();
        c.delta = TimeDelta::from_secs(0);
        assert_eq!(c.check(), Err("delta must be positive".to_string()));
    }

    #[test]
    fn rejects_zero_window() {
        let mut c = MoodConfig::paper_default();
        c.initial_window = Some(TimeDelta::from_secs(0));
        assert_eq!(
            c.check(),
            Err("initial window must be positive".to_string())
        );
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(MoodConfig::default(), MoodConfig::paper_default());
    }

    #[test]
    fn serde_roundtrip() {
        let c = MoodConfig::paper_default();
        let json = serde_json::to_string(&c).unwrap();
        let back: MoodConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
