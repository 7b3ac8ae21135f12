//! Fixed-size worker-pool job execution.
//!
//! A [`JobExecutor`] runs one *stage* at a time: a vector of independent
//! tasks fanned out over `workers` OS threads, results gathered in task
//! order. This mirrors how the offline retraining jobs in the paper are
//! structured (embarrassingly parallel per-entity solves inside each ALS
//! half-step), while keeping scheduling deterministic enough that training
//! output does not depend on thread interleaving: tasks are claimed from an
//! atomic counter but results land in their task's slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A fixed-parallelism task-stage executor.
pub struct JobExecutor {
    workers: usize,
}

impl JobExecutor {
    /// Creates an executor with `workers` threads per stage (minimum 1).
    pub fn new(workers: usize) -> Self {
        JobExecutor { workers: workers.max(1) }
    }

    /// Creates an executor sized to the machine (`available_parallelism`),
    /// capped at 16 — offline training in Velox shares the node with the
    /// serving path, so it should not monopolize every core.
    pub fn default_parallelism() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::new(n.min(16))
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` once per task input, in parallel, returning results in task
    /// order. `f` must be `Sync` because multiple workers call it
    /// concurrently on distinct tasks.
    ///
    /// Panics in a task propagate (the stage joins all workers first), so a
    /// bug in training code fails the job loudly rather than producing a
    /// silently-truncated model.
    pub fn execute<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = inputs.len();
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        if n > 0 {
            let next = AtomicUsize::new(0);
            let inputs_ref = &inputs;
            let f_ref = &f;
            // Slots are disjoint per task, so hand each worker raw access
            // through a Mutex-free slice split via interior indexing.
            let results_ptr = SlotWriter::new(&mut results);
            let workers = self.workers.min(n);
            // std's scoped threads join on scope exit and re-raise any
            // worker panic, so a bug in training code still fails loudly.
            thread::scope(|scope| {
                for _ in 0..workers {
                    let next = &next;
                    let results_ptr = &results_ptr;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f_ref(i, &inputs_ref[i]);
                        // SAFETY (encapsulated in SlotWriter): each index is
                        // claimed exactly once via the atomic counter.
                        unsafe { results_ptr.write(i, r) };
                    });
                }
            });
        }
        results.into_iter().map(|r| r.expect("every task slot filled")).collect()
    }
}

/// Shared mutable access to distinct `Option<R>` slots, each written at most
/// once by the worker that claimed its index from the atomic counter.
struct SlotWriter<R> {
    ptr: *mut Option<R>,
}

// SAFETY: workers write disjoint slots (guaranteed by the fetch_add claim
// protocol) and the owning Vec outlives the scope.
unsafe impl<R: Send> Sync for SlotWriter<R> {}
unsafe impl<R: Send> Send for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    fn new(slots: &mut Vec<Option<R>>) -> Self {
        SlotWriter { ptr: slots.as_mut_ptr() }
    }

    /// # Safety
    /// `i` must be in bounds and claimed by exactly one caller.
    unsafe fn write(&self, i: usize, value: R) {
        std::ptr::write(self.ptr.add(i), Some(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_in_task_order() {
        let ex = JobExecutor::new(4);
        let inputs: Vec<u64> = (0..1000).collect();
        let out = ex.execute(inputs, |_, &x| x * 2);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, i as u64 * 2);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ex = JobExecutor::new(8);
        let counter = AtomicU64::new(0);
        let inputs: Vec<usize> = (0..500).collect();
        let out = ex.execute(inputs, |_, &i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn empty_stage() {
        let ex = JobExecutor::new(4);
        let out: Vec<u64> = ex.execute(Vec::<u64>::new(), |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential_but_complete() {
        let ex = JobExecutor::new(1);
        assert_eq!(ex.workers(), 1);
        let out = ex.execute((0..100).collect::<Vec<u64>>(), |i, &x| (i as u64, x));
        for (i, &(idx, val)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(val, i as u64);
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let ex = JobExecutor::new(0);
        assert_eq!(ex.workers(), 1);
    }

    #[test]
    fn parallel_results_match_sequential() {
        let seq = JobExecutor::new(1);
        let par = JobExecutor::new(8);
        let inputs: Vec<u64> = (0..2000).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        assert_eq!(seq.execute(inputs.clone(), f), par.execute(inputs, f));
    }

    #[test]
    #[should_panic]
    fn task_panic_propagates() {
        let ex = JobExecutor::new(2);
        let _ = ex.execute(vec![0, 1, 2], |_, &x: &i32| {
            if x == 1 {
                panic!("task failure");
            }
            x
        });
    }
}
