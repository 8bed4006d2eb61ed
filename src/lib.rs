//! MooD — *MObility data privacy as Orphan Disease* (Middleware 2019).
//!
//! This facade crate re-exports the whole workspace under one roof so
//! downstream users can depend on a single crate:
//!
//! * [`trace`] — traces, datasets, the compressed trace store, CSV I/O;
//! * [`geo`] — geodesy, grids, projections;
//! * [`metrics`] — distortion, data loss, count queries;
//! * [`models`] — POI, Markov-chain and heatmap mobility profiles;
//! * [`lppm`] — location privacy protection mechanisms;
//! * [`attacks`] — re-identification attacks and suites;
//! * [`synth`] — synthetic dataset generation;
//! * [`engine`] — the MooD engine, executor layer and pipeline;
//! * [`serve`] — the long-running HTTP protection service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mood_attacks as attacks;
pub use mood_core as engine;
pub use mood_geo as geo;
pub use mood_lppm as lppm;
pub use mood_metrics as metrics;
pub use mood_models as models;
pub use mood_serve as serve;
pub use mood_synth as synth;
pub use mood_trace as trace;
