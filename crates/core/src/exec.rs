//! The execution layer, re-exported from the standalone [`mood_exec`]
//! crate — *what* the engine evaluates, decoupled from *how* it runs.
//!
//! The trait, both backends (`sequential` and `persistent`),
//! [`map_indexed`] and [`ExecutorKind`] live in `mood-exec`, so layers
//! below the engine (notably `mood_attacks::AttackSuite::evaluate_with`)
//! can run on the same backends without depending on `mood-core`.
//!
//! See the [`mood_exec`] crate docs for the determinism contract
//! (byte-identical output for every backend × thread count). Tasks get
//! only their index: the engine's candidate tasks each lease their
//! scratch from the engine's own pool.

pub use mood_exec::{
    map_indexed, Executor, ExecutorKind, PersistentPoolExecutor, SequentialExecutor,
};
