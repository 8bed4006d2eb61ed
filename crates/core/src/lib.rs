//! The MooD engine — *MObility Data Privacy as Orphan Disease*
//! (Khalfoun et al., Middleware 2019).
//!
//! MooD is a user-centric, fine-grained, multi-LPPM protection system:
//! for each user it searches for a protecting mechanism among single
//! LPPMs, then among all ordered LPPM compositions, and finally falls
//! back to fine-grained protection — splitting the trace and protecting
//! each sub-trace independently under a fresh pseudonym (Algorithm 1).
//! Its goal is to cure *orphan users* — users no single LPPM can protect
//! — and thereby reduce the data loss of a published dataset to nearly
//! zero.
//!
//! # Architecture (paper Fig. 5)
//!
//! * [`MoodEngine`] — the three components of the paper: Multi-LPPM
//!   Composition Search, Fine-Grained Data Protection, Best LPPM
//!   Selection;
//! * [`HybridLppm`] — the strongest prior baseline (Maouche et al. 2017):
//!   per-user selection of a single LPPM in a fixed distortion order;
//! * [`exec`] — the execution layer (the `mood-exec` crate re-exported):
//!   two backends (sequential, and a persistent parked-worker pool)
//!   running candidate evaluations and per-user protection with
//!   bit-for-bit identical results; each candidate task leases its
//!   scratch from the engine's pool, so the hot loops reuse warm
//!   buffers;
//! * [`protect_dataset`] — the parallel dataset pipeline, producing a
//!   [`ProtectionReport`] and a publishable pseudonymized dataset
//!   ([`protect_stream`] yields per-user results as they complete);
//! * [`UserClass`] — the orphan-disease taxonomy of §3.1 (naturally
//!   protected / single-LPPM / multi-LPPM / fine-grained / unprotectable).
//!
//! # Examples
//!
//! ```
//! use mood_core::{MoodConfig, MoodEngine};
//! use mood_synth::presets;
//! use mood_trace::TimeDelta;
//!
//! // a miniature end-to-end run
//! let ds = presets::privamov_like().scaled(0.15).generate();
//! let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
//! let engine = MoodEngine::paper_default(&background);
//! let report = mood_core::protect_dataset(&engine, &test, 1);
//! // MooD's promise: almost no data loss
//! assert!(report.data_loss.ratio() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
pub mod exec;
mod hybrid;
mod outcome;
mod pipeline;
mod report;
mod split;

pub use config::MoodConfig;
pub use engine::{EngineBuilder, EngineError, MoodEngine, ENGINE_STAGES};
pub use exec::{Executor, ExecutorKind, PersistentPoolExecutor, SequentialExecutor};
pub use hybrid::HybridLppm;
pub use mood_obs as obs;
pub use outcome::{FineGrainedStats, ProtectedTrace, ProtectionOutcome, UserClass, UserProtection};
pub use pipeline::{
    protect_dataset, protect_dataset_with, protect_store_stream, protect_store_with,
    protect_stream, publish, StreamError,
};
pub use report::{DistortionEntry, ProtectionReport};
pub use split::SplitStrategy;
