//! The execution layer, re-exported from the standalone [`mood_exec`]
//! crate — *what* the engine evaluates, decoupled from *how* it runs.
//!
//! The trait, both backends (`sequential` and `persistent`), the
//! per-worker scratch-slot helpers and [`ExecutorKind`] live in
//! `mood-exec`, so layers below the engine (notably
//! `mood_attacks::AttackSuite::evaluate_with`) can run on the same
//! backends without depending on `mood-core`. This module adds the one
//! engine-specific piece: [`CandidateJob`], the unit of Algorithm 1's
//! candidate search.
//!
//! See the [`mood_exec`] crate docs for the determinism contract
//! (byte-identical output for every backend × thread count) and the
//! worker-slot/scratch-arena API.

pub use mood_exec::{
    for_each_index_with, map_indexed, map_indexed_with, Executor, ExecutorKind,
    PersistentPoolExecutor, SequentialExecutor,
};

use mood_lppm::Lppm;

/// One unit of engine work: apply variant `variant_idx` (an LPPM or a
/// composition chain) to a trace and judge the result.
///
/// The variant index doubles as the RNG-stream selector — see
/// [`crate::MoodEngine`]'s per-variant RNG derivation — which is what
/// makes candidate evaluation schedulable in any order.
#[derive(Clone, Copy)]
pub struct CandidateJob<'a> {
    /// Global variant index (singles first, then compositions).
    pub variant_idx: usize,
    /// The mechanism to apply.
    pub lppm: &'a dyn Lppm,
}

impl std::fmt::Debug for CandidateJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateJob")
            .field("variant_idx", &self.variant_idx)
            .field("lppm", &self.lppm.name())
            .finish()
    }
}
