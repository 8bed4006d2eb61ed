//! Cross-backend determinism of the execution layer: the contract the
//! whole exec refactor rests on. Every backend × thread-count
//! combination must produce **byte-for-byte** the same protection as
//! the sequential reference — at both parallelism levels (users in the
//! pipeline, candidates in the engine) — while changing the seed must
//! change the outcome.

use std::sync::Arc;

use mood_core::{
    protect_dataset, protect_dataset_with, protect_stream, EngineBuilder, Executor, ExecutorKind,
    MoodEngine, ProtectionReport,
};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn mini_world() -> (Dataset, Dataset) {
    let ds = presets::privamov_like().scaled(0.15).generate();
    ds.split_chronological(TimeDelta::from_days(15))
}

/// Byte-level fingerprint of a report: the serialized summary plus a
/// debug rendering of every outcome (which includes the protected
/// records themselves).
fn fingerprint(report: &ProtectionReport) -> String {
    let summary = serde_json::to_string(&report.summary()).expect("serializable summary");
    format!("{summary}\n{:?}", report.outcomes())
}

#[test]
fn protect_dataset_is_identical_for_every_backend_and_thread_count() {
    let (bg, test) = mini_world();
    let engine = MoodEngine::paper_default(&bg);
    let reference =
        protect_dataset_with(&engine, &test, ExecutorKind::Sequential.build(1).as_ref());
    let reference_bytes = fingerprint(&reference);

    for kind in ExecutorKind::all() {
        for threads in THREAD_COUNTS {
            let executor: Arc<dyn Executor> = kind.build(threads);
            let report = protect_dataset_with(&engine, &test, executor.as_ref());
            assert_eq!(report, reference, "{kind} x{threads} diverged");
            assert_eq!(
                fingerprint(&report),
                reference_bytes,
                "{kind} x{threads} fingerprint diverged"
            );
        }
    }
}

#[test]
fn scratch_attack_path_is_byte_identical_and_observably_reused() {
    // The scratch-aware attack path (leased AttackScratch, pruned
    // profile matching, the verified POI-profile cache) is
    // the engine's default scoring path. Gate it explicitly: every
    // backend × thread count must produce the byte-identical protection
    // AND must demonstrably run on warm attack arenas — if the scratch
    // plumbing silently fell back to the allocating path, the reuse
    // counter would stay at zero and this test would fail even though
    // outputs still matched.
    let (bg, test) = mini_world();
    let engine = MoodEngine::paper_default(&bg);
    let reference =
        protect_dataset_with(&engine, &test, ExecutorKind::Sequential.build(1).as_ref());
    let reference_bytes = fingerprint(&reference);

    for kind in ExecutorKind::all() {
        for threads in THREAD_COUNTS {
            let engine = EngineBuilder::paper_default(&bg)
                .executor(kind.build(threads))
                .build()
                .expect("paper defaults are valid");
            let report =
                protect_dataset_with(&engine, &test, ExecutorKind::Sequential.build(1).as_ref());
            assert_eq!(
                fingerprint(&report),
                reference_bytes,
                "scratch attack path diverged on {kind} x{threads}"
            );
            assert!(
                engine.attack_scratch_reuses() > 0,
                "{kind} x{threads}: no warm attack-scratch starts recorded"
            );
        }
    }
}

#[test]
fn store_trained_engines_are_byte_identical_across_backends_and_threads() {
    // Every engine after the first trains entirely from the shared
    // ProfileStore (verified full-compare hits, zero profile rebuilds).
    // Shared profiles must be invisible in the output: every backend ×
    // thread count over a warm store stays byte-identical to the
    // cold-trained sequential reference.
    use mood_attacks::ProfileStore;

    let (bg, test) = mini_world();
    let reference = protect_dataset(&MoodEngine::paper_default(&bg), &test, 1);
    let reference_bytes = fingerprint(&reference);

    let store = Arc::new(ProfileStore::new());
    let cold = {
        let first = EngineBuilder::paper_default_with_store(&bg, Arc::clone(&store))
            .build()
            .expect("paper defaults are valid");
        let _ = protect_dataset_with(&first, &test, ExecutorKind::Sequential.build(1).as_ref());
        store.counters()
    };

    for kind in ExecutorKind::all() {
        for threads in THREAD_COUNTS {
            let engine = EngineBuilder::paper_default_with_store(&bg, Arc::clone(&store))
                .executor(kind.build(threads))
                .build()
                .expect("paper defaults are valid");
            let report = protect_dataset_with(&engine, &test, kind.build(threads).as_ref());
            assert_eq!(
                fingerprint(&report),
                reference_bytes,
                "warm-store engine diverged on {kind} x{threads}"
            );
        }
    }
    let warm = store.counters();
    assert_eq!(
        warm.profile_builds, cold.profile_builds,
        "warm retrains must not rebuild a single profile"
    );
    assert_eq!(warm.misses, cold.misses);
    assert!(warm.hits > cold.hits, "warm retrains never hit the store");
}

#[test]
fn stage_observed_engines_are_byte_identical_for_every_backend_and_thread_count() {
    // The tracing tentpole's core promise: attaching a stage observer
    // (the span/aggregate layer `mood serve` and `mood trace` hang off
    // the engine) reads clocks but never touches the data path. Every
    // backend × thread count with an observer attached must stay
    // byte-identical to the plain sequential reference — and must
    // actually observe stages, so a silently detached observer can't
    // fake a pass.
    use mood_core::obs::StageAgg;
    use mood_core::ENGINE_STAGES;

    let (bg, test) = mini_world();
    let reference = protect_dataset(&MoodEngine::paper_default(&bg), &test, 1);
    let reference_bytes = fingerprint(&reference);

    for kind in ExecutorKind::all() {
        for threads in THREAD_COUNTS {
            let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
            let engine = EngineBuilder::paper_default(&bg)
                .executor(kind.build(threads))
                .stage_observer(Arc::clone(&agg))
                .build()
                .expect("paper defaults are valid");
            let report = protect_dataset_with(&engine, &test, kind.build(threads).as_ref());
            assert_eq!(
                fingerprint(&report),
                reference_bytes,
                "stage-observed engine diverged on {kind} x{threads}"
            );
            let stages = agg.drain();
            assert!(
                stages.iter().any(|s| s.stage == "raw_check"),
                "{kind} x{threads}: observer attached but no stages recorded"
            );
        }
    }
}

#[test]
fn persistent_candidate_executor_shared_across_user_workers() {
    // The deployment-shaped regime: ONE persistent pool serving the
    // engine's candidate batches while a parallel user-level executor
    // submits to it from many threads at once (concurrent batches in
    // one pool). Results must stay byte-identical to sequential.
    let (bg, test) = mini_world();
    let reference = protect_dataset(&MoodEngine::paper_default(&bg), &test, 1);
    for threads in THREAD_COUNTS {
        let engine = EngineBuilder::paper_default(&bg)
            .executor(ExecutorKind::Persistent.build(threads))
            .build()
            .expect("paper defaults are valid");
        let outer = ExecutorKind::Persistent.build(threads);
        let report = protect_dataset_with(&engine, &test, outer.as_ref());
        assert_eq!(
            report, reference,
            "shared persistent pool x{threads} diverged from sequential reference"
        );
    }
}

#[test]
fn persistent_pool_is_reusable_after_an_empty_call_and_joins_on_drop() {
    use mood_core::PersistentPoolExecutor;

    let pool = PersistentPoolExecutor::new(4);
    assert_eq!(pool.worker_count(), 4);
    // An empty batch must be a no-op, not a wedge.
    pool.for_each_index(0, &|_| unreachable!("no indices to run"));

    // ...and the pool must still do real work afterwards.
    let (bg, test) = mini_world();
    let engine = MoodEngine::paper_default(&bg);
    let report = protect_dataset_with(&engine, &test, &pool);
    pool.for_each_index(0, &|_| unreachable!("no indices to run"));
    let again = protect_dataset_with(&engine, &test, &pool);
    assert_eq!(report, again, "reused pool diverged");

    // Drop joins every worker — if it leaked or deadlocked, this test
    // would hang rather than pass.
    drop(pool);
}

#[test]
fn store_backed_protection_and_evaluation_are_byte_identical() {
    // The trace-store tentpole's determinism contract: protecting and
    // attacking straight from the compressed chunked store — decoded
    // trace by trace through a budget-bounded cache — must stay
    // byte-for-byte identical to the in-memory dataset path, for every
    // backend × thread count. Cache hits, evictions and decode order
    // may all vary with scheduling; none of it may reach the output.
    use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack};
    use mood_core::{protect_store_stream, protect_store_with};
    use mood_trace::{StoreConfig, TraceStore};

    let (bg, test) = mini_world();
    let engine = MoodEngine::paper_default(&bg);
    let suite = AttackSuite::train(
        &[
            &PoiAttack::paper_default() as &dyn Attack,
            &PitAttack::paper_default(),
            &ApAttack::paper_default(),
        ],
        &bg,
    );
    let reference = protect_dataset(&engine, &test, 1);
    let reference_bytes = fingerprint(&reference);
    let eval_reference = suite.evaluate_with(&test, ExecutorKind::Sequential.build(1).as_ref());

    // A budget around two decoded traces keeps the cache churning.
    let max_trace_bytes = test
        .iter()
        .map(|t| t.len() * std::mem::size_of::<mood_trace::Record>())
        .max()
        .expect("non-empty test split");
    let config = StoreConfig::default()
        .with_seal_records(64)
        .with_cache_budget(2 * max_trace_bytes);
    let store = TraceStore::from_dataset(&test, config);

    for kind in ExecutorKind::all() {
        for threads in THREAD_COUNTS {
            let executor = kind.build(threads);
            let report = protect_store_with(&engine, &store, executor.as_ref());
            assert_eq!(
                fingerprint(&report),
                reference_bytes,
                "store-backed protect diverged on {kind} x{threads}"
            );
            let streamed = protect_store_stream(&engine, &store, executor.as_ref(), |_| {})
                .expect("sink does not panic");
            assert_eq!(
                fingerprint(&streamed),
                reference_bytes,
                "store-backed protect_stream diverged on {kind} x{threads}"
            );
            let eval = suite.evaluate_store_with(&store, executor.as_ref());
            assert_eq!(
                eval, eval_reference,
                "store-backed evaluation diverged on {kind} x{threads}"
            );
        }
    }
    let stats = store.stats();
    assert!(
        stats.peak_resident_bytes <= stats.budget_bytes,
        "decoded cache exceeded its budget: {} > {}",
        stats.peak_resident_bytes,
        stats.budget_bytes
    );
    assert!(stats.evictions > 0, "budget never forced an eviction");
}

#[test]
fn streaming_and_batch_agree_under_parallelism() {
    let (bg, test) = mini_world();
    let engine = MoodEngine::paper_default(&bg);
    let batch = protect_dataset(&engine, &test, 4);
    for kind in ExecutorKind::all() {
        let executor = kind.build(4);
        let streamed =
            protect_stream(&engine, &test, executor.as_ref(), |_| {}).expect("sink does not panic");
        assert_eq!(streamed, batch, "{kind} stream diverged");
    }
}

#[test]
fn changing_the_seed_changes_the_protection() {
    let (bg, test) = mini_world();
    let base = EngineBuilder::paper_default(&bg)
        .build()
        .expect("paper defaults are valid");
    let reseeded = EngineBuilder::paper_default(&bg)
        .seed(base.config().seed ^ 0xD15E_A5ED)
        .build()
        .expect("paper defaults are valid");

    let report_a = protect_dataset(&base, &test, 2);
    let report_b = protect_dataset(&reseeded, &test, 2);
    // Classes may coincide, but the published noise must differ
    // somewhere: compare the actual protected records.
    assert_ne!(
        format!("{:?}", report_a.outcomes()),
        format!("{:?}", report_b.outcomes()),
        "different seeds produced identical protected datasets"
    );
}
