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
//!   idle workers claim the next index, which balances skewed
//!   workloads, where one orphan user can cost orders of magnitude more
//!   than a naturally protected one.
//!
//! # Per-task state
//!
//! An executor hands a task nothing but its index. A task that wants
//! reusable buffers leases them from a pool the caller owns for the
//! length of the task (the engine's scratch pool, the free list of an
//! attack evaluation), so no backend needs to know which thread runs
//! what.
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
/// [`Executor::for_each_index`] runs a task for every index in `0..n`,
/// in any order, on any number of threads. Callers that need results
/// use [`map_indexed`], which stores each task's output under its own
/// index so the outcome is independent of scheduling.
///
/// Implementations must invoke the task **exactly once per index** and
/// must not return before every invocation has finished.
pub trait Executor: Send + Sync {
    /// Human-readable backend name (CLI/report labels).
    fn name(&self) -> &'static str;

    /// Upper bound on worker threads this backend will use.
    fn max_threads(&self) -> usize;

    /// Runs `task(i)` for every `i` in `0..n`, returning when all
    /// invocations are complete.
    fn for_each_index(&self, n: usize, task: &(dyn Fn(usize) + Sync));
}

/// Runs `f` over `0..n` on `executor` and collects the results in index
/// order — deterministic for any backend and thread count.
pub fn map_indexed<T, F>(executor: &dyn Executor, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let out: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    executor.for_each_index(n, &|i| {
        let value = f(i);
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
