//! Location Privacy Protection Mechanisms (paper §2.3 and §4.1.2).
//!
//! An LPPM transforms a raw mobility trace into an obfuscated one:
//!
//! ```text
//! L : (R² × R⁺)* → (R² × R⁺)*,   T ↦ L(Υ, T) = T'
//! ```
//!
//! Three representative mechanisms are implemented with the paper's
//! configuration:
//!
//! * [`GeoI`] — Geo-indistinguishability (Andrés et al. 2013): planar
//!   Laplace noise per record, ε = 0.01 m⁻¹ ("medium privacy");
//! * [`Trl`] — Trilateration dummies (Huang et al. 2018): each record is
//!   replaced by 3 assisted locations within r = 1 km;
//! * [`Hmc`] — HeatMap Confusion (Maouche et al. 2018): the trace's
//!   heatmap is made to look like another user's (the *decoy*) by
//!   rank-matched cell remapping, then re-materialized as a trace.
//!
//! Beyond the paper's evaluated set, [`SpatialCloaking`] implements the
//! generalization family (k-anonymity-style cell snapping) — the
//! extension hook the paper names in §6.
//!
//! [`Composition`] applies several LPPMs in sequence (function
//! composition, Eq. 3) and [`enumerate_compositions`] generates the full
//! search space `C` of MooD's Multi-LPPM Composition Search
//! (|C| = Σᵢ n!/(n−i)! = 15 for n = 3); [`arrangements`] is its index
//! form, from which the engine builds its composition tree.
//!
//! Every mechanism is deterministic given its RNG, so whole experiment
//! runs reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cloaking;
mod composition;
mod geo_i;
mod hmc;
mod trl;

pub use cloaking::SpatialCloaking;
pub use composition::{arrangements, composition_space_size, enumerate_compositions, Composition};
pub use geo_i::GeoI;
pub use hmc::Hmc;
pub use trl::Trl;

use rand::RngCore;

use mood_models::TraceRaster;
use mood_trace::{Record, Trace};

/// A Location Privacy Protection Mechanism.
///
/// Implementations must be deterministic given the RNG: applying one
/// to the same trace with an identically-seeded RNG must produce
/// identical records. The output keeps the input's user ID (the ground
/// truth MooD evaluates against).
pub trait Lppm: Send + Sync {
    /// Short mechanism name ("Geo-I", "TRL", "HMC", or a composition
    /// chain like "HMC→Geo-I").
    fn name(&self) -> &str;

    /// Writes the obfuscated records of `trace` into `out`, replacing
    /// its previous contents: MooD evaluates thousands of candidates per
    /// orphan user, so the engine recycles `out` across them and a
    /// per-record mechanism like Geo-I allocates nothing once the buffer
    /// has warmed up.
    ///
    /// The records are time-sorted (the [`Trace`] invariant), and `out`
    /// is **cleared, then filled**: whatever it held before the call is
    /// discarded, never appended to, so callers may hand in a dirty
    /// recycled buffer.
    ///
    /// `raster` is the caller's shared `(grid, trace) → cell-sequence`
    /// cache, the one attack scoring uses on the same scratch arena.
    /// Grid-based mechanisms (HMC) take the input's cells from it, so
    /// rasterizing a trace is shared with, or served by, the attack
    /// side; everything else ignores it. Its hits are verified by full
    /// record comparison, so the records are the same, cold or warm.
    ///
    /// ```
    /// use mood_lppm::{GeoI, Lppm};
    /// use mood_models::TraceRaster;
    /// use mood_synth::presets;
    /// use rand::SeedableRng;
    ///
    /// let ds = presets::privamov_like().scaled(0.1).generate();
    /// let trace = ds.iter().next().unwrap();
    /// let geoi = GeoI::paper_default();
    ///
    /// let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
    /// let expected = geoi.protect(trace, &mut r1).into_records();
    ///
    /// // a recycled buffer full of stale records...
    /// let mut out = vec![expected[0]; 5];
    /// let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
    /// geoi.apply(trace, &mut r2, &mut out, &mut TraceRaster::new());
    /// // ...is cleared then filled: prior contents never leak through
    /// assert_eq!(out, expected);
    /// ```
    fn apply(
        &self,
        trace: &Trace,
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
        raster: &mut TraceRaster,
    );

    /// Produces the obfuscated version of `trace`: [`Lppm::apply`] into
    /// a new buffer, with a new [`TraceRaster`].
    fn protect(&self, trace: &Trace, rng: &mut dyn RngCore) -> Trace {
        let mut records = Vec::new();
        self.apply(trace, rng, &mut records, &mut TraceRaster::new());
        Trace::new(trace.user(), records).expect("LPPMs never produce an empty trace")
    }
}
