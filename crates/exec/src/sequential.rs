use super::Executor;

/// The reference backend: every task runs inline on the calling thread,
/// in index order.
///
/// This is the executor of record for determinism checks — the parallel
/// backend is correct exactly when it reproduces its output — and the
/// right choice for small inputs or a one-thread budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn max_threads(&self) -> usize {
        1
    }

    fn for_each_index(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            task(i);
        }
    }
}
