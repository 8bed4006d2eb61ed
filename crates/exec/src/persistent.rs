//! A long-lived pool of parked worker threads fed through a shared
//! injector.
//!
//! MooD's deployment regime is many small requests (one user, one
//! sub-trace, a handful of candidates each), where spawning threads
//! inside every `for_each_index` call would dominate the work itself.
//! This backend creates its workers once, parks them on a condvar, and
//! feeds every subsequent call through a shared injector — idle workers
//! claim the next index as they run dry, so skewed workloads balance
//! without per-call setup.

#[allow(unsafe_code)]
mod task_ref {
    //! The one piece of `unsafe` in the execution layer, isolated and
    //! small: erasing the lifetime of a borrowed task so parked worker
    //! threads (which are `'static`) can run it.

    /// A lifetime-erased reference to a caller's task.
    ///
    /// # Soundness
    ///
    /// `for_each_index` blocks until `finished == n`, and
    /// `finished` only reaches `n` after every claimed index's task
    /// invocation has returned. Workers call the task only for indices
    /// claimed from the injector (`next < n`), and claiming stops once
    /// the injector is exhausted — so no worker can dereference the
    /// pointer after the submitting call returns, which is the whole
    /// region the original borrow was valid for. The `Batch` holding a
    /// `TaskRef` may outlive the call (workers keep `Arc<Batch>`
    /// clones), but after exhaustion they only touch the batch's own
    /// atomics, never the pointer.
    #[derive(Clone, Copy)]
    pub(super) struct TaskRef(*const (dyn Fn(usize) + Sync + 'static));

    // SAFETY: the pointee is `Sync` (shared access from any thread is
    // fine) and the pointer itself is only dereferenced while the
    // submitting call keeps the pointee alive (see above).
    unsafe impl Send for TaskRef {}
    unsafe impl Sync for TaskRef {}

    impl TaskRef {
        /// Erases the borrow. The caller must keep the referent alive —
        /// and the submitting call does, by blocking until the batch is
        /// fully finished — for as long as `call` may run.
        pub(super) fn erase(task: &(dyn Fn(usize) + Sync)) -> Self {
            let short: *const (dyn Fn(usize) + Sync) = std::ptr::from_ref(task);
            // SAFETY: pure lifetime erasure on a raw pointer — layout is
            // identical; validity is argued at the type level above.
            Self(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(short)
            })
        }

        /// Runs the task. Only called for injector-claimed indices of a
        /// batch whose submitter is still blocked (see type docs).
        pub(super) fn call(&self, i: usize) {
            // SAFETY: see the type-level soundness argument.
            (unsafe { &*self.0 })(i)
        }
    }
}

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use task_ref::TaskRef;

use super::Executor;

thread_local! {
    /// Set once per pool worker: the address of the owning pool's shared
    /// state. Lets a nested submission from inside a task detect "this
    /// is my own pool" and run inline instead of deadlocking on itself.
    static WORKER_POOL: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One submitted `for_each_index` call.
struct Batch {
    task: TaskRef,
    n: usize,
    /// The shared injector cursor: the next index to claim.
    next: AtomicUsize,
    /// Invocations that have returned; the batch is complete at `n`.
    finished: AtomicUsize,
    /// The first panic payload raised by an invocation; the submitter
    /// resumes unwinding with it, so the caller sees the task's own
    /// panic, as it would on the sequential backend.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    /// Claims the next unexecuted index, or `None` when the injector is
    /// dry.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }
}

struct State {
    /// Active batches, oldest first. Usually 0 or 1 long; grows only
    /// when several threads submit to the same pool concurrently (e.g.
    /// a shared candidate-level pool called from many user-level
    /// workers).
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for batches (or shutdown).
    work: Condvar,
    /// Submitters park here waiting for their batch to finish.
    done: Condvar,
}

/// A persistent worker pool: threads are spawned once at construction,
/// parked between calls, and joined on drop.
///
/// Work distribution is a shared injector: every call becomes a batch
/// with an atomic cursor, and workers claim the next index whenever
/// they run dry, which balances skewed workloads without spawning a
/// thread per call. Multiple threads may submit
/// batches concurrently; batches queue and workers drain them
/// oldest-first.
///
/// A task that (transitively) calls back into **its own** pool runs the
/// nested batch inline on the same worker — no deadlock.
///
/// Dropping the pool wakes and joins every worker: no leaked threads.
/// A task panic is caught and its payload re-raised on the submitting
/// thread once the batch completes (first panic wins); the pool itself
/// survives and stays usable.
pub struct PersistentPoolExecutor {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl PersistentPoolExecutor {
    /// Spawns a pool of `threads` parked workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mood-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    /// Number of live worker threads (for tests and diagnostics).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

impl std::fmt::Debug for PersistentPoolExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPoolExecutor")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    WORKER_POOL.with(|pool| pool.set(Some(std::ptr::from_ref(shared) as usize)));
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                // Claimable = injector not yet exhausted. Fully claimed
                // but unfinished batches need no more workers.
                if let Some(batch) = state
                    .queue
                    .iter()
                    .find(|b| b.next.load(Ordering::Relaxed) < b.n)
                {
                    break Arc::clone(batch);
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool state lock");
            }
        };
        run_batch(shared, &batch);
    }
}

/// Drains the injector of `batch`, signalling the submitter when the
/// last invocation lands.
fn run_batch(shared: &Shared, batch: &Arc<Batch>) {
    while let Some(i) = batch.claim() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| batch.task.call(i))) {
            let mut first = batch.panic.lock().expect("batch panic slot");
            first.get_or_insert(payload);
        }
        let done = batch.finished.fetch_add(1, Ordering::AcqRel) + 1;
        if done == batch.n {
            let mut state = shared.state.lock().expect("pool state lock");
            state.queue.retain(|b| !Arc::ptr_eq(b, batch));
            shared.done.notify_all();
        }
    }
}

impl Executor for PersistentPoolExecutor {
    fn name(&self) -> &'static str {
        "persistent"
    }

    fn max_threads(&self) -> usize {
        self.threads
    }

    fn for_each_index(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Nested submission from one of this pool's own workers: the
        // worker would otherwise wait for peers that may all be blocked
        // the same way. Run inline on this worker instead.
        let own_pool = Arc::as_ptr(&self.shared) as usize;
        if WORKER_POOL.with(|pool| pool.get() == Some(own_pool)) {
            for i in 0..n {
                task(i);
            }
            return;
        }

        let batch = Arc::new(Batch {
            task: TaskRef::erase(task),
            n,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let mut state = self.shared.state.lock().expect("pool state lock");
        state.queue.push_back(Arc::clone(&batch));
        self.shared.work.notify_all();
        while batch.finished.load(Ordering::Acquire) < n {
            state = self.shared.done.wait(state).expect("pool state lock");
        }
        drop(state);
        let payload = batch.panic.lock().expect("batch panic slot").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for PersistentPoolExecutor {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a task (impossible today)
            // should not abort the drop of the remaining handles.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_indexed;

    #[test]
    fn empty_call_leaves_pool_reusable() {
        let pool = PersistentPoolExecutor::new(4);
        pool.for_each_index(0, &|_| unreachable!("no indices to run"));
        let got = map_indexed(&pool, 10, |i| i * 2);
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        pool.for_each_index(0, &|_| unreachable!("no indices to run"));
        assert_eq!(map_indexed(&pool, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn many_sequential_calls_reuse_the_same_workers() {
        let pool = PersistentPoolExecutor::new(2);
        assert_eq!(pool.worker_count(), 2);
        for round in 0..200 {
            let got = map_indexed(&pool, 7, |i| i + round);
            assert_eq!(got, (0..7).map(|i| i + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.worker_count(), 2);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(PersistentPoolExecutor::new(4));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for round in 0..20 {
                        let got = map_indexed(pool.as_ref(), 31, |i| i * t + round);
                        assert_eq!(got, (0..31).map(|i| i * t + round).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_submission_to_own_pool_runs_inline() {
        let pool = PersistentPoolExecutor::new(2);
        let totals = map_indexed(&pool, 6, |i| {
            // Each outer task fans out again on the same pool.
            let inner = map_indexed(&pool, 4, |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn task_panic_propagates_with_payload_and_pool_survives() {
        let pool = PersistentPoolExecutor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("panic must reach the submitter");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the task's own payload must survive, not a generic message"
        );
        // The pool is still operational afterwards.
        assert_eq!(map_indexed(&pool, 5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Joining in Drop is the no-leak guarantee; this checks it
        // terminates promptly even right after heavy use.
        for _ in 0..10 {
            let pool = PersistentPoolExecutor::new(4);
            let _ = map_indexed(&pool, 100, |i| i);
            drop(pool);
        }
    }
}
