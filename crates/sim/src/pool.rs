//! The workspace's one worker pool: scoped threads claiming job indices
//! from a shared counter, with results collected **by index**.
//!
//! The sharded verify phase ([`crate::verify`]), the generator's
//! sharded candidate search and the batch service layer all run through
//! [`run_indexed`], so each of them produces output identical to its
//! inline single-worker path regardless of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..jobs)` across up to `workers` scoped threads pulling job
/// indices from a shared counter, returning the results in index order.
///
/// With `workers <= 1` or at most one job, every call runs inline on the
/// caller's thread and no thread is spawned.
///
/// ```
/// use marchgen_sim::pool::run_indexed;
///
/// let squares = run_indexed(5, 3, |k| k * k);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn run_indexed<T: Send>(jobs: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(jobs, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    break;
                }
                let out = f(k);
                slots.lock().expect("pool slots lock")[k] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("pool slots lock")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_worker_count() {
        let inline: Vec<usize> = (0..37).map(|k| k * 3).collect();
        for workers in [0usize, 1, 2, 8, 64] {
            assert_eq!(run_indexed(37, workers, |k| k * 3), inline, "{workers}");
        }
        assert!(run_indexed(0, 4, |k| k).is_empty());
    }

    #[test]
    fn a_single_worker_runs_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(4, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
