use serde::{Deserialize, Serialize};

use mood_trace::{Dataset, UserId};

use crate::generator::first_twin;
use crate::{CityModel, ResidentModel, TaxiModel};

/// Which population model generates the agents of a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PopulationModel {
    /// Commuting residents with home/work/leisure anchors (the MDC,
    /// Privamov and Geolife stand-ins).
    Residents {
        /// Fraction of users with unique anchors. The rest are grouped
        /// into *twin groups* sharing anchors, which makes them naturally
        /// hard to re-identify (they impersonate each other).
        distinct_fraction: f64,
        /// Number of users per twin group (≥ 2).
        twin_group_size: usize,
    },
    /// A taxi fleet sampling fares from one shared hotspot pool (the
    /// Cabspotting stand-in).
    Taxis {
        /// Fraction of drivers biased toward the hotspots nearest their
        /// depot; biased drivers develop distinctive heatmaps.
        biased_fraction: f64,
        /// Number of shared fare hotspots in the city.
        hotspot_count: usize,
    },
}

/// Complete recipe for one synthetic dataset.
///
/// A spec is pure data: calling [`DatasetSpec::generate`] twice yields
/// identical datasets (all randomness derives from `seed`).
///
/// # Examples
///
/// ```
/// use mood_synth::presets;
///
/// let spec = presets::privamov_like().scaled(0.1);
/// let a = spec.generate();
/// let b = spec.generate();
/// assert_eq!(a, b); // bit-for-bit deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Human-readable dataset name (e.g. "mdc-like").
    pub name: String,
    /// The city agents move in.
    pub city: CityModel,
    /// Population model (residents or taxis).
    pub population: PopulationModel,
    /// Number of users.
    pub users: usize,
    /// Number of simulated days (the paper uses the 30 most active days).
    pub days: u32,
    /// Seconds between GPS fixes while an agent is active.
    pub sampling_interval_s: i64,
    /// GPS noise standard deviation in meters (per axis).
    pub gps_noise_m: f64,
    /// Master seed; every stream of randomness derives from it.
    pub seed: u64,
}

impl DatasetSpec {
    /// A copy of the spec scaled to `factor` of the original record
    /// volume: user count is multiplied by `factor` (minimum 2 users,
    /// and at least one twin group's worth for resident populations).
    /// Use small factors for tests, `1.0` for the paper-scale runs.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not in `(0, 1]`.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let mut spec = self.clone();
        spec.users = ((self.users as f64 * factor).round() as usize).max(4);
        spec
    }

    /// Generates the dataset described by this spec.
    pub fn generate(&self) -> Dataset {
        match &self.population {
            PopulationModel::Residents {
                distinct_fraction,
                twin_group_size,
            } => ResidentModel::new(*distinct_fraction, *twin_group_size).generate(self),
            PopulationModel::Taxis {
                biased_fraction,
                hotspot_count,
            } => TaxiModel::new(*biased_fraction, *hotspot_count).generate(self),
        }
    }

    /// Whether `user` is a twin-group member: true for a resident
    /// population's users from `round(users × distinct_fraction)` on,
    /// who share their group's anchors verbatim, and false for taxis,
    /// who have no groups.
    pub fn is_twin(&self, user: UserId) -> bool {
        match &self.population {
            PopulationModel::Residents {
                distinct_fraction, ..
            } => {
                let twins = first_twin(self.users, *distinct_fraction) as u64..self.users as u64;
                twins.contains(&user.as_u64())
            }
            PopulationModel::Taxis { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn scaled_reduces_users() {
        let spec = presets::mdc_like();
        let small = spec.scaled(0.1);
        assert_eq!(small.users, (spec.users as f64 * 0.1).round() as usize);
        assert_eq!(small.days, spec.days);
    }

    #[test]
    fn scaled_floors_at_four_users() {
        let spec = presets::privamov_like();
        let tiny = spec.scaled(0.01);
        assert_eq!(tiny.users, 4);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_zero() {
        presets::mdc_like().scaled(0.0);
    }

    #[test]
    fn twins_are_the_resident_users_past_the_distinct_fraction() {
        let spec = presets::mdc_like().scaled(0.2); // 28 users, 16 distinct
        let twins: Vec<u64> = (0..40).filter(|&u| spec.is_twin(UserId::new(u))).collect();
        assert_eq!(twins, (16..28).collect::<Vec<_>>());
        let taxis = presets::cabspotting_like().scaled(0.02);
        assert!((0..taxis.users as u64).all(|u| !taxis.is_twin(UserId::new(u))));
    }

    #[test]
    fn serde_roundtrip() {
        let spec = presets::cabspotting_like();
        let json = serde_json::to_string(&spec).unwrap();
        let back: DatasetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
