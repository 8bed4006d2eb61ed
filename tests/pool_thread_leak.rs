//! Thread-leak gate for the persistent pool. It counts every thread in
//! the process, so it lives in a test binary of its own: beside the
//! determinism tests, whose pools of up to 8 workers start and stop
//! while it runs, the count moved for reasons unrelated to the pool.

#![cfg(target_os = "linux")]

use mood_core::Executor;

#[test]
fn persistent_pool_does_not_leak_threads() {
    use mood_core::PersistentPoolExecutor;

    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|dir| dir.count())
            .unwrap_or(0)
    }

    // Let unrelated test threads settle, then cycle pools: the thread
    // count after N create/use/drop cycles must not trend upward.
    let before = thread_count();
    for _ in 0..16 {
        let pool = PersistentPoolExecutor::new(4);
        pool.for_each_index(64, &|_| {});
        drop(pool);
    }
    let after = thread_count();
    assert!(
        after <= before + 2,
        "thread count grew from {before} to {after} across pool cycles"
    );
}
