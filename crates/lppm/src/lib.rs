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
//!   replaced by 3 assisted locations within r = 1 km; the [`lss`] module
//!   demonstrates the accurate-service property (exact distance recovery
//!   by trilateration);
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
pub mod lss;
mod trl;

pub use cloaking::SpatialCloaking;
pub use composition::{arrangements, composition_space_size, enumerate_compositions, Composition};
pub use geo_i::GeoI;
pub use hmc::Hmc;
pub use trl::Trl;

use std::sync::Arc;

use rand::RngCore;

use mood_models::TraceRaster;
use mood_trace::{Record, Trace};

/// A Location Privacy Protection Mechanism.
///
/// Implementations must be deterministic given the RNG: calling
/// [`Lppm::protect`] with an identically-seeded RNG must produce an
/// identical trace. The output trace keeps the input's user ID (the
/// ground truth MooD evaluates against).
pub trait Lppm: Send + Sync {
    /// Short mechanism name ("Geo-I", "TRL", "HMC", or a composition
    /// chain like "HMC→Geo-I").
    fn name(&self) -> &str;

    /// Produces the obfuscated version of `trace`.
    fn protect(&self, trace: &Trace, rng: &mut dyn RngCore) -> Trace;

    /// Writes the obfuscated records of `trace` into `out`, replacing
    /// its previous contents — the buffer-reusing twin of
    /// [`Lppm::protect`] for hot loops (MooD evaluates thousands of
    /// candidates per orphan user; per-record mechanisms like Geo-I
    /// override this to fill the caller's buffer in place and allocate
    /// nothing once the buffer has warmed up).
    ///
    /// The contract is exact equivalence: the same RNG draws in the
    /// same order, and `out` holding precisely the records `protect`
    /// would have returned (time-sorted, per the [`Trace`] invariant).
    /// In particular `out` is **cleared, then filled**: whatever it held
    /// before the call is discarded, never appended to — callers may
    /// hand in a dirty recycled buffer. The default implementation
    /// delegates to `protect` and moves the resulting buffer out, so
    /// implementations only override it when they can genuinely reuse
    /// `out`'s capacity.
    ///
    /// ```
    /// use mood_lppm::{GeoI, Lppm};
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
    /// geoi.protect_into(trace, &mut r2, &mut out);
    /// // ...is cleared then filled: prior contents never leak through
    /// assert_eq!(out, expected);
    /// ```
    fn protect_into(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        *out = self.protect(trace, rng).into_records();
    }

    /// [`Lppm::protect_into`] with access to the caller's shared
    /// [`TraceRaster`] — the per-worker `(grid, trace) → cell-sequence`
    /// cache that attack scoring uses on the same scratch arena.
    /// Grid-based mechanisms (HMC) override this so rasterizing the
    /// input trace is shared with — or served by — the attack side;
    /// everything else ignores the cache. Same exact-equivalence
    /// contract as `protect_into` (cache hits are verified by full
    /// record comparison, so outputs are bit-identical either way).
    fn protect_into_with(
        &self,
        trace: &Trace,
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
        raster: &mut TraceRaster,
    ) {
        let _ = raster;
        self.protect_into(trace, rng, out);
    }
}

impl<T: Lppm + ?Sized> Lppm for Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn protect(&self, trace: &Trace, rng: &mut dyn RngCore) -> Trace {
        (**self).protect(trace, rng)
    }

    fn protect_into(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        (**self).protect_into(trace, rng, out)
    }

    fn protect_into_with(
        &self,
        trace: &Trace,
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
        raster: &mut TraceRaster,
    ) {
        (**self).protect_into_with(trace, rng, out, raster)
    }
}
