//! End-to-end contract of the compressed chunked trace store, through
//! the public facade only: a corpus streamed from CSV into a
//! budget-bounded `TraceStore` must behave exactly like the same corpus
//! fully materialized — same dataset, same protection report — while
//! actually honouring its memory budget and actually compressing.

use mood_core::{protect_dataset, protect_store_with, ExecutorKind, MoodEngine};
use mood_synth::presets;
use mood_trace::{io as trace_io, Record, StoreConfig, TimeDelta};

fn corpus_csv() -> (mood_trace::Dataset, Vec<u8>) {
    let ds = presets::privamov_like().scaled(0.15).generate();
    let mut csv = Vec::new();
    trace_io::write_csv(&ds, &mut csv).expect("serialize corpus");
    (ds, csv)
}

#[test]
fn streamed_ingestion_equals_in_memory_parse() {
    let (ds, csv) = corpus_csv();
    let store = trace_io::stream_csv(&csv[..], StoreConfig::default().with_seal_records(128))
        .expect("well-formed CSV");
    assert_eq!(store.user_count(), ds.user_count());
    assert_eq!(store.record_count(), ds.record_count());
    assert_eq!(store.to_dataset(), ds, "streamed store != parsed dataset");
}

#[test]
fn store_backed_protection_honours_budget_and_matches_in_memory() {
    let (ds, _csv) = corpus_csv();
    let (bg, test) = ds.split_chronological(TimeDelta::from_days(15));
    let mut test_csv = Vec::new();
    trace_io::write_csv(&test, &mut test_csv).expect("serialize test split");

    // Budget of about two decoded traces: big enough to cache, small
    // enough that eight users must churn through it.
    let max_trace_bytes = test
        .iter()
        .map(|t| t.len() * std::mem::size_of::<Record>())
        .max()
        .expect("non-empty test split");
    let store = trace_io::stream_csv(
        &test_csv[..],
        StoreConfig::default().with_cache_budget(2 * max_trace_bytes),
    )
    .expect("well-formed CSV");

    let engine = MoodEngine::paper_default(&bg);
    let reference = protect_dataset(&engine, &test, 2);
    let report = protect_store_with(&engine, &store, ExecutorKind::Persistent.build(2).as_ref());
    assert_eq!(report, reference, "store-backed protection diverged");

    let stats = store.stats();
    assert!(
        stats.peak_resident_bytes <= stats.budget_bytes,
        "cache peak {} exceeded budget {}",
        stats.peak_resident_bytes,
        stats.budget_bytes
    );
    assert!(stats.evictions > 0, "budget never forced an eviction");
    assert!(
        stats.encoded_bytes * 2 <= stats.records * std::mem::size_of::<Record>(),
        "encoded form must be at most half of Vec<Record>: {} vs {}",
        stats.encoded_bytes,
        stats.records * std::mem::size_of::<Record>()
    );
}
