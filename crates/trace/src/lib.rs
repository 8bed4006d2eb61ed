//! Mobility-trace data model for the MooD workspace.
//!
//! The paper models a mobility trace as a time-ordered sequence of
//! spatio-temporal records `r = (lat, lng, t)` belonging to a user
//! (`T ∈ (R² × R⁺)*`, §2.1). This crate provides that model plus the
//! dataset-level operations every experiment needs:
//!
//! * [`Record`] — one GPS fix: a [`mood_geo::GeoPoint`] plus a [`Timestamp`];
//! * [`Trace`] — a user's time-sorted sequence of records, with splitting
//!   (in half, by fixed windows), interpolation (one instant at a time,
//!   or a forward-walking [`ProjectionCursor`] over many) and bounding
//!   boxes;
//! * [`Dataset`] — a collection of traces keyed by unique [`UserId`]s, with
//!   the chronological train/test split used by every re-identification
//!   attack (15-day background knowledge / 15-day attack data);
//! * [`PseudonymFactory`] — fresh user IDs for fine-grained sub-traces
//!   (MooD publishes sub-traces under pseudonyms, §3.4);
//! * [`TraceStore`] — compressed, chunked storage for corpora whose
//!   decoded form exceeds RAM ([`store`]);
//! * CSV input/output ([`io`]), including streaming ingestion straight
//!   into a store ([`io::stream_csv`]).
//!
//! # Examples
//!
//! ```
//! use mood_geo::GeoPoint;
//! use mood_trace::{Record, Timestamp, Trace, UserId};
//!
//! let records = vec![
//!     Record::new(GeoPoint::new(46.20, 6.14)?, Timestamp::from_unix(0)),
//!     Record::new(GeoPoint::new(46.21, 6.15)?, Timestamp::from_unix(600)),
//! ];
//! let trace = Trace::new(UserId::new(1), records)?;
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.duration().as_secs(), 600);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
pub mod io;
mod record;
pub mod store;
mod trace;
mod user;

pub use dataset::Dataset;
pub use error::TraceError;
pub use record::{Record, TimeDelta, Timestamp};
pub use store::{StoreConfig, StoreStats, TraceStore};
pub use trace::{ProjectionCursor, Trace};
pub use user::{PseudonymFactory, UserId};

/// Convenient result alias for fallible trace operations.
pub type Result<T> = std::result::Result<T, TraceError>;
