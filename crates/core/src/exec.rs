//! The execution layer, re-exported from the standalone [`mood_exec`]
//! crate — *what* the engine evaluates, decoupled from *how* it runs.
//!
//! The trait, both backends (`sequential` and `persistent`), the
//! per-worker scratch-slot helpers and [`ExecutorKind`] live in
//! `mood-exec`, so layers below the engine (notably
//! `mood_attacks::AttackSuite::evaluate_with`) can run on the same
//! backends without depending on `mood-core`.
//!
//! See the [`mood_exec`] crate docs for the determinism contract
//! (byte-identical output for every backend × thread count) and the
//! worker-slot/scratch-arena API.

pub use mood_exec::{
    for_each_index_with, map_indexed, map_indexed_with, Executor, ExecutorKind,
    PersistentPoolExecutor, SequentialExecutor,
};
