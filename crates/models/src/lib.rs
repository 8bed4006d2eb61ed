//! Mobility-profile models used by re-identification attacks and LPPMs.
//!
//! The paper's Figure 1 shows the three classic ways an attacker models a
//! user's mobility, all implemented here:
//!
//! * **Points of Interest** — [`Stay`] clusters extracted by
//!   [`PoiExtractor`] (sequential spatio-temporal clustering, 200 m
//!   diameter / 1 h dwell by default) and aggregated into a [`PoiProfile`];
//! * **Mobility Markov Chains** — [`MarkovChain`], whose states are POIs
//!   ordered by weight and whose edges carry transition probabilities,
//!   with a stationary distribution computed by damped power iteration;
//! * **Heatmaps** — [`Heatmap`], per-cell record counts over a
//!   [`mood_geo::Grid`], compared with the **Topsoe divergence** used by
//!   AP-Attack.
//!
//! [`Heatmap::topsoe`] and [`Heatmap::topsoe_bounded`] are the one
//! Topsoe API: one exact merge walk over the sorted cells, with
//! **best-bound pruning** for the candidate hot path. [`HeatmapIndex`]
//! bounds a query's Topsoe divergence from every profile of a set in
//! one pass over the query's cells, so profile scans run that walk only
//! where the bound leaves a profile in contention. [`HeatmapSet`] holds
//! one heatmap per background user with that index, over the
//! [`background_grid`] that AP-Attack, HMC and spatial cloaking share.
//!
//! Every model supports a scratch-reuse path for hot loops:
//! [`Heatmap::rebuild_from_cells`],
//! [`PoiExtractor::extract_stays_into`],
//! [`PoiProfile::rebuild_from_stays`] and
//! [`MarkovChain::rebuild_from_profile`] refill existing buffers with
//! exactly what the allocating constructors would produce (a heatmap
//! rebuild still builds its count table afresh). A heatmap rebuild
//! takes its cells from any iterator, so a caller rasterizes a trace as
//! it builds and keeps no cell sequence unless it needs one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod divergence;
mod heatmap;
mod heatmap_index;
mod heatmap_set;
pub mod kernels;
mod mmc;
mod poi;

pub use heatmap::Heatmap;
pub use heatmap_index::HeatmapIndex;
pub use heatmap_set::{background_grid, HeatmapSet};
pub use kernels::CentroidSoa;
pub use mmc::MarkovChain;
pub use poi::{Poi, PoiExtractor, PoiProfile, Stay};
