//! A bounded job queue drained by long-lived service workers.
//!
//! The [`Executor`](super::Executor) backends run *index-parallel
//! batches*: the submitter blocks until every task of the batch has
//! finished. A network front-end needs the opposite shape — jobs
//! (connections) arrive one at a time from an acceptor that must
//! **never** block, each job can run for a long time (a keep-alive
//! connection lives as long as the client holds it), and overload has
//! to surface *immediately* so the acceptor can shed load instead of
//! queueing unboundedly. [`ServicePool`] is that shape: a fixed set of
//! workers spawned once, a bounded FIFO queue, a non-blocking
//! [`ServicePool::try_submit`] that reports `Full` for backpressure,
//! and a graceful [`ServicePool::shutdown`] that drains the queue and
//! joins every worker — no leaked threads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why [`ServicePool::try_submit`] rejected a job; the job is handed
/// back so the caller can dispose of it (e.g. answer 503 and close).
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError<T> {
    /// The queue is at capacity — backpressure; shed load.
    Full(T),
    /// The pool is shutting down and accepts no new jobs.
    ShuttingDown(T),
}

struct ServiceState<T> {
    /// Each job carries its enqueue instant so workers can attribute
    /// queue-wait time (observability-only; never affects results).
    queue: VecDeque<(T, Instant)>,
    shutdown: bool,
}

struct ServiceShared<T> {
    state: Mutex<ServiceState<T>>,
    /// Workers park here waiting for jobs (or shutdown).
    work: Condvar,
    capacity: usize,
    /// Handler invocations that panicked (caught; the worker survives).
    panics: AtomicU64,
    /// Jobs currently inside a handler.
    in_flight: AtomicU64,
    /// Total queue-wait nanoseconds across dequeued jobs.
    wait_ns: AtomicU64,
    /// Jobs claimed by a worker since construction.
    dequeued: AtomicU64,
}

/// A point-in-time snapshot of a pool's queue health
/// ([`ServicePool::queue_stats`]) — the source for the serve layer's
/// queue-depth and in-flight gauges and its queue-wait summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs queued and not yet claimed by a worker.
    pub pending: usize,
    /// Jobs currently inside a handler.
    pub in_flight: u64,
    /// Jobs claimed by a worker since construction.
    pub dequeued: u64,
    /// Total time dequeued jobs spent waiting in the queue.
    pub waited: Duration,
}

/// A fixed pool of service workers fed through a bounded FIFO queue.
///
/// Each worker runs `handler(job)` for one job at a time. A handler
/// panic is caught and counted; the worker keeps serving.
///
/// Shutdown semantics: [`ServicePool::shutdown`] (also run on drop)
/// stops admissions, lets workers drain the jobs already queued, then
/// joins them. Handlers that loop (keep-alive connections) are
/// expected to watch their own stop signal and return promptly.
pub struct ServicePool<T: Send + 'static> {
    shared: Arc<ServiceShared<T>>,
    /// Interior mutability so `shutdown(&self)` can join: the acceptor
    /// thread holds the pool behind an `Arc` and still must be able to
    /// trigger a join-free signal path.
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl<T: Send + 'static> ServicePool<T> {
    /// Spawns `threads` workers (at least 1) named `{name}-{i}`,
    /// with room for `capacity` queued jobs (at least 1) beyond the
    /// ones being handled.
    pub fn new<F>(name: &str, threads: usize, capacity: usize, handler: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let threads = threads.max(1);
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
            panics: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
        });
        let handler = Arc::new(handler);
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || service_loop(&shared, handler.as_ref()))
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns the job back as [`SubmitError::Full`] when the queue is
    /// at capacity and [`SubmitError::ShuttingDown`] after shutdown
    /// began.
    pub fn try_submit(&self, job: T) -> Result<(), SubmitError<T>> {
        let mut state = self.shared.state.lock().expect("service state lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown(job));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full(job));
        }
        state.queue.push_back((job, Instant::now()));
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Jobs queued and not yet claimed by a worker.
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .queue
            .len()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.threads
    }

    /// Handler invocations that panicked since construction.
    #[cfg(test)]
    fn handler_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Snapshot of queue depth, in-flight jobs, and accumulated
    /// queue-wait time.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            pending: self.pending(),
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            dequeued: self.shared.dequeued.load(Ordering::Relaxed),
            waited: Duration::from_nanos(self.shared.wait_ns.load(Ordering::Relaxed)),
        }
    }

    /// Stops admissions, drains already-queued jobs and joins every
    /// worker. Idempotent; also runs on drop. Must not be called from
    /// inside a handler (a worker cannot join itself).
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("service state lock");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("service workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for ServicePool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<T: Send + 'static> std::fmt::Debug for ServicePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServicePool")
            .field("threads", &self.threads)
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

fn service_loop<T: Send>(shared: &ServiceShared<T>, handler: &dyn Fn(T)) {
    loop {
        let (job, enqueued) = {
            let mut state = shared.state.lock().expect("service state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("service state lock");
            }
        };
        shared
            .wait_ns
            .fetch_add(enqueued.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.dequeued.fetch_add(1, Ordering::Relaxed);
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(|| handler(job))).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn every_submitted_job_runs_once() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = ServicePool::new("svc-test", 3, 64, move |job: usize| {
            sink.lock().unwrap().push(job);
        });
        for i in 0..50 {
            pool.try_submit(i).expect("queue has room");
        }
        pool.shutdown();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_returns_the_job_for_load_shedding() {
        // One worker blocked on a slow job; capacity 2 then overflow.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let gate = Arc::clone(&release);
        let started = Arc::new((Mutex::new(false), Condvar::new()));
        let started_tx = Arc::clone(&started);
        let pool = ServicePool::new("svc-full", 1, 2, move |_job: u32| {
            let (lock, cv) = &*started_tx;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        pool.try_submit(0).unwrap();
        // Wait until the worker actually holds job 0, so the queue
        // depth below is deterministic.
        {
            let (lock, cv) = &*started;
            let mut s = lock.lock().unwrap();
            while !*s {
                s = cv.wait(s).unwrap();
            }
        }
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        assert_eq!(pool.try_submit(3), Err(SubmitError::Full(3)));
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = ServicePool::new("svc-drain", 2, 32, move |_job: u8| {
            std::thread::sleep(Duration::from_millis(2));
            counter.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..20 {
            pool.try_submit(i).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 20, "queued jobs must drain");
        assert_eq!(pool.try_submit(99), Err(SubmitError::ShuttingDown(99)));
        // Idempotent: a second shutdown is a no-op.
        pool.shutdown();
    }

    #[test]
    fn handler_panics_are_caught_and_counted() {
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = ServicePool::new("svc-panic", 1, 32, move |job: u32| {
            if job == 1 {
                panic!("handler blew up");
            }
            counter.fetch_add(1, Ordering::SeqCst);
        });
        for job in 0..4 {
            pool.try_submit(job).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 3, "survivors keep running");
        assert_eq!(pool.handler_panics(), 1);
    }

    #[test]
    fn queue_stats_track_depth_in_flight_and_wait() {
        // One worker blocked on job 0; two jobs queued behind it, so
        // the snapshot is deterministic: pending == 2, in_flight == 1.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let gate = Arc::clone(&release);
        let started = Arc::new((Mutex::new(false), Condvar::new()));
        let started_tx = Arc::clone(&started);
        let pool = ServicePool::new("svc-stats", 1, 8, move |_job: u32| {
            let (lock, cv) = &*started_tx;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        pool.try_submit(0).unwrap();
        {
            let (lock, cv) = &*started;
            let mut s = lock.lock().unwrap();
            while !*s {
                s = cv.wait(s).unwrap();
            }
        }
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        let stats = pool.queue_stats();
        assert_eq!(stats.pending, 2, "two jobs waiting behind the blocked one");
        assert_eq!(stats.in_flight, 1, "one job inside the handler");
        assert_eq!(stats.dequeued, 1);
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
        let stats = pool.queue_stats();
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.dequeued, 3, "every job was eventually claimed");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shutdown_leaks_no_threads() {
        fn thread_count() -> usize {
            std::fs::read_dir("/proc/self/task")
                .map(|dir| dir.count())
                .unwrap_or(0)
        }
        let before = thread_count();
        for _ in 0..8 {
            let pool = ServicePool::new("svc-leak", 4, 8, |_job: usize| {});
            for i in 0..16 {
                let _ = pool.try_submit(i);
            }
            pool.shutdown();
        }
        let after = thread_count();
        assert!(
            after <= before + 2,
            "thread count grew from {before} to {after} across pool cycles"
        );
    }
}
