//! The execution layer: *what* gets evaluated, decoupled from *how* it
//! runs.
//!
//! MooD's hot paths are index-parallel: a per-user search over LPPM
//! candidates (Algorithm 1), a per-user fan-out in the batch pipeline,
//! and a per-trace fan-out in attack evaluation. Every unit of work is
//! independent, and the per-variant RNG derivation upstream makes the
//! work order-free: any scheduler produces bit-for-bit the same result
//! as long as outputs are keyed by their submission index. The
//! [`Executor`] trait captures exactly that contract, and two backends
//! implement it:
//!
//! * [`SequentialExecutor`] — runs tasks inline; zero overhead, the
//!   reference backend;
//! * [`PersistentPoolExecutor`] — a long-lived pool of parked workers
//!   fed through a shared injector, created once and reused by every
//!   subsequent call. It amortizes thread spawn across a whole run,
//!   which is what online, many-small-requests deployments need, and
//!   idle workers claim the next chunk of indices, which balances
//!   skewed workloads, where one orphan user can cost orders of
//!   magnitude more than a naturally protected one.
//!
//! # Worker slots and scratch reuse
//!
//! Beyond plain [`Executor::for_each_index`], every backend reports a
//! **worker slot** for each task invocation via
//! [`Executor::for_each_index_slot`]: a small integer `< max_threads()`
//! identifying the worker running the task, exclusive to one thread at
//! any instant. [`for_each_index_with`] and [`map_indexed_with`] build
//! per-worker **scratch arenas** on top of that guarantee: one lazily
//! initialized scratch value per slot, handed `&mut` to every task the
//! slot runs — so hot loops can reuse buffers and RNG state instead of
//! allocating per task, without any synchronization on the hot path.
//!
//! # Determinism contract
//!
//! Implementations must invoke the task **exactly once per index** and
//! must not return before every invocation has finished. Combined with
//! index-keyed result collection ([`map_indexed`]), this makes every
//! backend × thread count byte-identical to the sequential reference —
//! the `executor_determinism` integration test is the gate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod persistent;
mod sequential;
pub mod service;

pub use persistent::PersistentPoolExecutor;
pub use sequential::SequentialExecutor;
pub use service::{QueueStats, ServicePool, SubmitError};

use std::sync::{Arc, Mutex};

/// An index-parallel execution backend.
///
/// The core primitive — [`Executor::for_each_index_slot`] — runs a task
/// for every index in `0..n`, in any order, on any number of threads,
/// reporting for each invocation the **worker slot** executing it.
/// Callers that need results use [`map_indexed`], which stores each
/// task's output in its own slot so the outcome is independent of
/// scheduling; callers with reusable per-worker state use
/// [`for_each_index_with`] / [`map_indexed_with`].
///
/// Implementations must invoke the task **exactly once per index** and
/// must not return before every invocation has finished.
pub trait Executor: Send + Sync {
    /// Human-readable backend name (CLI/report labels).
    fn name(&self) -> &'static str;

    /// Upper bound on worker threads this backend will use. Worker
    /// slots passed to [`Executor::for_each_index_slot`] are always
    /// strictly below this bound.
    fn max_threads(&self) -> usize;

    /// Runs `task(i, slot)` for every `i` in `0..n`, returning when all
    /// invocations are complete. `slot < max_threads()` identifies the
    /// worker executing the invocation; at any instant a slot is used
    /// by at most one thread, so slot-indexed state needs no locking
    /// beyond what lazy initialization requires.
    fn for_each_index_slot(&self, n: usize, task: &(dyn Fn(usize, usize) + Sync));

    /// Runs `task(i)` for every `i` in `0..n`, returning when all
    /// invocations are complete.
    fn for_each_index(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.for_each_index_slot(n, &|i, _slot| task(i));
    }
}

/// Runs `f` over `0..n` on `executor` and collects the results in index
/// order — deterministic for any backend and thread count.
pub fn map_indexed<T, F>(executor: &dyn Executor, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(executor, n, || (), |(), i| f(i))
}

/// Runs `task(&mut scratch, i)` over `0..n` on `executor`, with one
/// scratch value per worker slot, lazily created by `init` the first
/// time the slot runs a task. Returns the scratch values that were
/// actually created (in slot order), so callers can merge per-worker
/// accumulators — deterministically, if they key accumulated entries by
/// submission index.
pub fn for_each_index_with<S, I, T>(executor: &dyn Executor, n: usize, init: I, task: T) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    T: Fn(&mut S, usize) + Sync,
{
    let slots: Vec<Mutex<Option<S>>> = (0..executor.max_threads().max(1))
        .map(|_| Mutex::new(None))
        .collect();
    executor.for_each_index_slot(n, &|i, slot| {
        // Slots are exclusive to one worker at a time, so this lock is
        // uncontended; it only exists to make lazy init and the final
        // collection safe.
        let mut guard = slots[slot].lock().expect("scratch slot lock");
        let scratch = guard.get_or_insert_with(&init);
        task(scratch, i);
    });
    slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().expect("scratch slot lock"))
        .collect()
}

/// [`map_indexed`] with a per-worker scratch value: runs
/// `f(&mut scratch, i)` over `0..n` and collects the results in index
/// order. The scratch values are dropped when the call returns (their
/// `Drop` impls can recycle buffers into a caller-owned pool).
pub fn map_indexed_with<S, T, I, F>(executor: &dyn Executor, n: usize, init: I, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let out: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    for_each_index_with(executor, n, init, |scratch, i| {
        let value = f(scratch, i);
        let prev = out[i].lock().expect("result slot lock").replace(value);
        assert!(prev.is_none(), "executor ran index {i} twice");
    });
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot lock")
                .unwrap_or_else(|| panic!("executor never ran index {i}"))
        })
        .collect()
}

/// Which execution backend to build — the config-facing name of the
/// execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Run everything inline on the calling thread.
    Sequential,
    /// A long-lived pool of parked workers fed through a shared
    /// injector; threads are spawned once and reused by every call
    /// (the default for batch protection and the service).
    Persistent,
}

impl ExecutorKind {
    /// Every kind, in presentation order.
    pub fn all() -> [ExecutorKind; 2] {
        [ExecutorKind::Sequential, ExecutorKind::Persistent]
    }

    /// Builds the backend with the given thread budget (clamped to at
    /// least 1; the sequential backend ignores it). The persistent
    /// backend spawns its workers here — build it once per run, not
    /// once per call.
    pub fn build(self, threads: usize) -> Arc<dyn Executor> {
        let threads = threads.max(1);
        match self {
            ExecutorKind::Sequential => Arc::new(SequentialExecutor),
            ExecutorKind::Persistent => Arc::new(PersistentPoolExecutor::new(threads)),
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExecutorKind::Sequential => "sequential",
            ExecutorKind::Persistent => "persistent",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn backends() -> Vec<Arc<dyn Executor>> {
        vec![
            ExecutorKind::Sequential.build(1),
            ExecutorKind::Persistent.build(4),
            ExecutorKind::Persistent.build(1),
            ExecutorKind::Persistent.build(16),
        ]
    }

    #[test]
    fn map_indexed_is_identical_across_backends() {
        let expected: Vec<u64> = (0..257u64).map(|i| i * i).collect();
        for exec in backends() {
            let got = map_indexed(exec.as_ref(), 257, |i| (i as u64) * (i as u64));
            assert_eq!(got, expected, "backend {}", exec.name());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for exec in backends() {
            let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            exec.for_each_index(100, &|i| {
                counters[i].fetch_add(1, Ordering::SeqCst);
            });
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "index {i} on {}", exec.name());
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        for exec in backends() {
            let empty: Vec<usize> = map_indexed(exec.as_ref(), 0, |i| i);
            assert!(empty.is_empty());
            let one = map_indexed(exec.as_ref(), 1, |i| i + 41);
            assert_eq!(one, vec![41]);
        }
    }

    #[test]
    fn slots_stay_below_max_threads() {
        for exec in backends() {
            let bound = exec.max_threads();
            let seen = AtomicUsize::new(0);
            exec.for_each_index_slot(200, &|_, slot| {
                assert!(slot < bound, "slot {slot} >= {bound} on {}", exec.name());
                seen.fetch_max(slot + 1, Ordering::SeqCst);
            });
            assert!(seen.load(Ordering::SeqCst) >= 1);
        }
    }

    #[test]
    fn scratch_reused_within_a_call() {
        for exec in backends() {
            let inits = AtomicUsize::new(0);
            let tasks = AtomicUsize::new(0);
            let scratches = for_each_index_with(
                exec.as_ref(),
                500,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |scratch, _i| {
                    *scratch += 1;
                    tasks.fetch_add(1, Ordering::SeqCst);
                },
            );
            assert_eq!(tasks.load(Ordering::SeqCst), 500, "{}", exec.name());
            // One scratch per slot that ran tasks — never one per task.
            assert_eq!(inits.load(Ordering::SeqCst), scratches.len());
            assert!(scratches.len() <= exec.max_threads(), "{}", exec.name());
            assert_eq!(scratches.iter().sum::<usize>(), 500, "{}", exec.name());
        }
    }

    #[test]
    fn map_indexed_with_matches_map_indexed() {
        for exec in backends() {
            let plain = map_indexed(exec.as_ref(), 100, |i| i * 3);
            let scratched = map_indexed_with(exec.as_ref(), 100, || (), |(), i| i * 3);
            assert_eq!(plain, scratched, "{}", exec.name());
        }
    }

    #[test]
    fn skewed_workloads_complete() {
        // One task much slower than the rest: the pool's dynamic
        // claiming must still cover every index exactly once.
        let exec = ExecutorKind::Persistent.build(4);
        let got = map_indexed(exec.as_ref(), 64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn kind_displays_as_its_backend_name() {
        for kind in ExecutorKind::all() {
            assert_eq!(kind.to_string(), kind.build(2).name());
        }
    }

    #[test]
    fn builders_report_threads() {
        assert_eq!(ExecutorKind::Sequential.build(8).max_threads(), 1);
        assert_eq!(ExecutorKind::Persistent.build(0).max_threads(), 1);
        assert_eq!(ExecutorKind::Persistent.build(3).max_threads(), 3);
    }
}
