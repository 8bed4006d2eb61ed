//! Utility and privacy metrics for the MooD workspace.
//!
//! * [`spatio_temporal_distortion`] — the paper's utility metric `STD`
//!   (Eq. 8): the average distance between each obfuscated record and its
//!   temporal projection into the original trace. Lower is better.
//!   [`spatio_temporal_distortion_within`] stops early once the value is
//!   known to exceed a bound.
//! * [`DistortionBand`] — the four utility bands of Figure 9
//!   (< 500 m, < 1 km, < 5 km, ≥ 5 km).
//! * [`DataLoss`] — record-level data-loss accounting (Eq. 7): the share
//!   of records that must be erased because no protection resists the
//!   attacks.
//! * [`CountQueryStats`] — cell-count utility for crowd-sensing style
//!   analyses (traffic counts, noise maps): how well a protected dataset
//!   preserves per-cell record counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count_query;
mod data_loss;
mod std_metric;

pub use count_query::CountQueryStats;
pub use data_loss::DataLoss;
pub use std_metric::{
    spatio_temporal_distortion, spatio_temporal_distortion_within, DistortionBand,
};
