use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mood_trace::{Dataset, PseudonymFactory, Trace, TraceStore, UserId};

use crate::exec::{map_indexed, Executor, ExecutorKind};
use crate::{MoodEngine, ProtectionReport, UserProtection};

/// Why [`protect_stream`] could not complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The caller's sink panicked. Protection itself still completed
    /// (the executor is not poisoned and stays reusable), but the sink
    /// was not invoked again after the panic; the payload's message is
    /// carried here.
    SinkPanic(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::SinkPanic(msg) => write!(f, "stream sink panicked: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Renders a panic payload's message, for error reporting.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Protects every user of `dataset` with `engine`, fanning users out to
/// `threads` workers of a persistent pool executor (spawned once for
/// the call, amortized across both the user fan-out and every candidate
/// batch inside it), and assembles the [`ProtectionReport`].
///
/// This is the convenience entry point; [`protect_dataset_with`] takes
/// an explicit [`Executor`] and [`protect_stream`] yields per-user
/// results as they complete. Results are deterministic regardless of
/// backend and thread count: every user's randomness derives from the
/// engine seed, and outcomes are keyed by user before reporting.
///
/// # Panics
///
/// Panics when `threads` is zero.
///
/// # Examples
///
/// ```
/// use mood_core::{protect_dataset, MoodEngine};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = MoodEngine::paper_default(&background);
/// let report = protect_dataset(&engine, &test, 2);
/// assert_eq!(report.users_total, test.user_count());
/// ```
pub fn protect_dataset(engine: &MoodEngine, dataset: &Dataset, threads: usize) -> ProtectionReport {
    assert!(threads > 0, "need at least one worker thread");
    let executor = ExecutorKind::Persistent.build(threads);
    protect_dataset_with(engine, dataset, executor.as_ref())
}

/// Protects every user of `dataset`, running users on `executor` — the
/// outer level of MooD's two-level parallelism (the inner level, across
/// candidate variants, runs on the engine's own executor).
pub fn protect_dataset_with(
    engine: &MoodEngine,
    dataset: &Dataset,
    executor: &dyn Executor,
) -> ProtectionReport {
    let traces: Vec<&Trace> = dataset.iter().collect();
    protect_indexed(engine, traces.len(), |i| traces[i], executor)
}

/// Protects every user of a compressed [`TraceStore`], decoding each
/// user's chunks through the store's byte-budgeted cache as workers
/// pull them — the decoded working set never exceeds the cache budget
/// plus one in-flight trace per worker. The report is byte-identical
/// to [`protect_dataset_with`] on the decoded form of the store,
/// whatever the executor or thread count.
///
/// # Panics
///
/// Panics when the store is unfinished.
pub fn protect_store_with(
    engine: &MoodEngine,
    store: &TraceStore,
    executor: &dyn Executor,
) -> ProtectionReport {
    let users = store.user_ids();
    protect_indexed(engine, users.len(), |i| store.trace(users[i]), executor)
}

/// The shared fan-out: protect `n` users fetched by `get`, sort by
/// user, report. `H` lets callers hand over either borrowed traces
/// (in-memory datasets) or `Arc`s fresh from a store's decode cache.
fn protect_indexed<H, G>(
    engine: &MoodEngine,
    n: usize,
    get: G,
    executor: &dyn Executor,
) -> ProtectionReport
where
    H: std::ops::Deref<Target = Trace>,
    G: Fn(usize) -> H + Sync,
{
    let mut outcomes = map_indexed(executor, n, |i| engine.protect_user(&get(i)));
    outcomes.sort_by_key(|o| o.user);
    ProtectionReport::from_outcomes(outcomes)
}

/// Protects every user of `dataset`, invoking `sink` with each
/// [`UserProtection`] **as it completes** — completion order, not user
/// order — before assembling the final report.
///
/// This is the streaming entry point for the CLI's live progress and
/// for service layers that forward per-user results while a large batch
/// is still running. The sink is serialized (called under a lock), so
/// it may hold `&mut` state without further synchronization; keep it
/// cheap, since a slow sink backpressures the workers.
///
/// The returned report is identical to [`protect_dataset_with`] on the
/// same engine and dataset, whatever the executor.
///
/// A panicking sink cannot poison the executor: the panic is caught,
/// the sink is simply not invoked again, every user still gets
/// protected, and the panic surfaces as [`StreamError::SinkPanic`] —
/// long-running services sharing one executor across requests survive
/// a misbehaving callback.
///
/// # Errors
///
/// Returns [`StreamError::SinkPanic`] when the sink panicked (carrying
/// the first panic's message).
pub fn protect_stream<F>(
    engine: &MoodEngine,
    dataset: &Dataset,
    executor: &dyn Executor,
    sink: F,
) -> Result<ProtectionReport, StreamError>
where
    F: FnMut(&UserProtection) + Send,
{
    let traces: Vec<&Trace> = dataset.iter().collect();
    protect_indexed_stream(engine, traces.len(), |i| traces[i], executor, sink)
}

/// Streaming protection over a compressed [`TraceStore`]: like
/// [`protect_stream`], but users decode through the store's cache on
/// demand. The report equals [`protect_store_with`] (and the in-memory
/// paths) byte-for-byte.
///
/// # Errors
///
/// Returns [`StreamError::SinkPanic`] when the sink panicked (carrying
/// the first panic's message).
///
/// # Panics
///
/// Panics when the store is unfinished.
pub fn protect_store_stream<F>(
    engine: &MoodEngine,
    store: &TraceStore,
    executor: &dyn Executor,
    sink: F,
) -> Result<ProtectionReport, StreamError>
where
    F: FnMut(&UserProtection) + Send,
{
    let users = store.user_ids();
    protect_indexed_stream(
        engine,
        users.len(),
        |i| store.trace(users[i]),
        executor,
        sink,
    )
}

/// The shared streaming fan-out behind [`protect_stream`] and
/// [`protect_store_stream`]; see [`protect_indexed`] for the `H`/`G`
/// shape.
fn protect_indexed_stream<H, G, F>(
    engine: &MoodEngine,
    n: usize,
    get: G,
    executor: &dyn Executor,
    sink: F,
) -> Result<ProtectionReport, StreamError>
where
    H: std::ops::Deref<Target = Trace>,
    G: Fn(usize) -> H + Sync,
    F: FnMut(&UserProtection) + Send,
{
    let sink = Mutex::new(sink);
    let panicked = AtomicBool::new(false);
    let payload: Mutex<Option<String>> = Mutex::new(None);
    let mut outcomes = map_indexed(executor, n, |i| {
        let outcome = engine.protect_user(&get(i));
        if !panicked.load(Ordering::Acquire) {
            // The panic is caught *inside* the guard's scope, so the
            // unwind never crosses the lock and the mutex cannot be
            // poisoned — the flag alone retires the sink.
            let mut guard = sink.lock().expect("sink lock");
            // Re-check under the lock so the sink is never re-entered
            // after a panic observed by another worker.
            if !panicked.load(Ordering::Acquire) {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| (guard)(&outcome))) {
                    panicked.store(true, Ordering::Release);
                    payload
                        .lock()
                        .expect("panic payload lock")
                        .get_or_insert(panic_message(p.as_ref()));
                }
            }
        }
        outcome
    });
    outcomes.sort_by_key(|o| o.user);
    let report = ProtectionReport::from_outcomes(outcomes);
    match payload.into_inner().expect("panic payload lock") {
        Some(message) => Err(StreamError::SinkPanic(message)),
        None => Ok(report),
    }
}

/// Assembles the publishable dataset from protection outcomes: every
/// published (sub-)trace receives a fresh pseudonym (`renew_Ids` of
/// Algorithm 1). Returns the pseudonymized dataset and the
/// pseudonym → original-user ground-truth map (kept by the data curator,
/// never published).
pub fn publish(outcomes: &[UserProtection]) -> (Dataset, BTreeMap<UserId, UserId>) {
    let mut factory = PseudonymFactory::new();
    let mut dataset = Dataset::new();
    let mut ground_truth = BTreeMap::new();
    for outcome in outcomes {
        for protected in outcome.outcome.published() {
            let pseudo = factory.next_id();
            ground_truth.insert(pseudo, outcome.user);
            dataset
                .insert(protected.trace.with_user(pseudo))
                .expect("pseudonyms are unique");
        }
    }
    (dataset, ground_truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_trace::TimeDelta;

    fn mini_world() -> (Dataset, Dataset) {
        let ds = mood_synth::presets::privamov_like().scaled(0.2).generate();
        ds.split_chronological(TimeDelta::from_days(15))
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let seq = protect_dataset(&engine, &test, 1);
        let par = protect_dataset(&engine, &test, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn report_covers_every_user() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let report = protect_dataset(&engine, &test, 2);
        assert_eq!(report.users_total, test.user_count());
        assert_eq!(report.outcomes().len(), test.user_count());
        assert_eq!(
            report.data_loss.total_records(),
            test.record_count(),
            "data loss accounting must cover the whole dataset"
        );
    }

    #[test]
    fn publish_assigns_unique_pseudonyms() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let report = protect_dataset(&engine, &test, 2);
        let (published, ground_truth) = publish(report.outcomes());
        assert_eq!(published.user_count(), ground_truth.len());
        for id in published.user_ids() {
            assert!(id.is_pseudonym());
            assert!(ground_truth.contains_key(&id));
        }
    }

    #[test]
    fn published_dataset_resists_the_suite_under_ground_truth() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let report = protect_dataset(&engine, &test, 2);
        let (published, ground_truth) = publish(report.outcomes());
        for trace in published.iter() {
            let original = ground_truth[&trace.user()];
            assert!(
                engine.suite().protects(trace, original),
                "published trace {} links back to {original}",
                trace.user()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        protect_dataset(&engine, &test, 0);
    }

    #[test]
    fn explicit_executors_match_the_convenience_entry_point() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let reference = protect_dataset(&engine, &test, 1);
        for kind in ExecutorKind::all() {
            let executor = kind.build(4);
            let report = protect_dataset_with(&engine, &test, executor.as_ref());
            assert_eq!(report, reference, "{kind} diverged");
        }
    }

    #[test]
    fn stream_sees_every_user_once_and_matches_batch() {
        use std::collections::BTreeSet;

        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let batch = protect_dataset(&engine, &test, 2);

        let executor = ExecutorKind::Persistent.build(4);
        let mut seen: Vec<UserId> = Vec::new();
        let streamed = crate::protect_stream(&engine, &test, executor.as_ref(), |outcome| {
            seen.push(outcome.user);
        })
        .expect("sink does not panic");
        assert_eq!(streamed, batch);
        // completion order is arbitrary, but coverage is exact
        let unique: BTreeSet<UserId> = seen.iter().copied().collect();
        assert_eq!(seen.len(), test.user_count());
        assert_eq!(unique.len(), test.user_count());
    }

    #[test]
    fn store_backed_protection_matches_in_memory() {
        use mood_trace::StoreConfig;

        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let reference = protect_dataset(&engine, &test, 1);
        // Tiny cache budget: workers constantly decode and evict, yet
        // the report must stay byte-identical to the in-memory run.
        let config = StoreConfig::default()
            .with_seal_records(64)
            .with_cache_budget(16 << 10);
        let store = mood_trace::TraceStore::from_dataset(&test, config);
        for kind in ExecutorKind::all() {
            let executor = kind.build(4);
            let batch = protect_store_with(&engine, &store, executor.as_ref());
            assert_eq!(batch, reference, "{kind} store batch diverged");
            let streamed = protect_store_stream(&engine, &store, executor.as_ref(), |_| {})
                .expect("sink does not panic");
            assert_eq!(streamed, reference, "{kind} store stream diverged");
        }
        let stats = store.stats();
        assert!(
            stats.resident_bytes <= stats.budget_bytes,
            "cache over budget: {stats:?}"
        );
    }

    #[test]
    fn panicking_sink_becomes_an_error_and_spares_the_executor() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let batch = protect_dataset(&engine, &test, 2);

        for kind in ExecutorKind::all() {
            // One long-lived executor across both calls — the regime a
            // service runs in: a panicking callback in request 1 must
            // not poison request 2.
            let executor = kind.build(4);
            let mut calls = 0usize;
            let err = protect_stream(&engine, &test, executor.as_ref(), |_| {
                calls += 1;
                if calls == 2 {
                    panic!("sink exploded on purpose");
                }
            })
            .expect_err("the sink panic must surface as an error");
            assert_eq!(
                err,
                StreamError::SinkPanic("sink exploded on purpose".to_string()),
                "{kind}"
            );
            assert!(err.to_string().contains("sink exploded"), "{kind}");

            // The executor survives and the next stream is untouched.
            let streamed = protect_stream(&engine, &test, executor.as_ref(), |_| {})
                .expect("well-behaved sink");
            assert_eq!(streamed, batch, "{kind} poisoned by earlier sink panic");
        }
    }
}
