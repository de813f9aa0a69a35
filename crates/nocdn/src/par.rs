//! A deterministic fan-out: independent jobs on every core, results in
//! input order.
//!
//! The loader's time is SHA-256 over bytes that share nothing: each
//! peer-served object checked against its digest, each serving peer's
//! claim walked for its accountability proof. [`map`] runs such jobs on
//! scoped threads. A job is a pure function of its input: it touches no
//! counter, cache, trace or other shared state, so the caller's serial
//! code stays the one place state changes, and the results merge in
//! input order, so the fan-out changes no output byte. The worker count
//! is [`workers`], the cores the process may run on; there is no knob.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Threads a fan-out may use: `available_parallelism()`, or one when
/// the platform cannot tell. Asked once per process: on Linux each ask
/// reads the cgroup's CPU quota from the file system, which costs more
/// than hashing a small object.
pub(crate) fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// `f` of every item on up to `workers` threads, the calling thread
/// among them, returned in `items`' order. Jobs are taken largest
/// `cost` first (ties in input order) from one shared cursor, so the
/// long ones start early and the short ones fill in around them. With
/// one worker or one job everything runs inline and no thread starts.
pub(crate) fn map<T, R>(
    workers: usize,
    items: &[T],
    cost: impl Fn(&T) -> usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&items[i])));
    // The cursor only hands out positions in `order`: the items are
    // shared before the threads start and each result comes back
    // through `join`, so no data is published through it (`Relaxed`).
    let cursor = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, f(&items[i])));
        }
        done
    };
    let mut results = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(run)).collect();
        let mut results = run();
        for helper in helpers {
            let done = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            results.extend(done);
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).map(|i| (i * 7919) % 101).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let got = map(workers, &items, |&x| x as usize, |x| x * x + 1);
            assert_eq!(got, want, "{workers} workers");
        }
        assert!(map(4, &[] as &[u64], |_| 0, |x| *x).is_empty());
    }

    /// On one worker the jobs run inline, in input order, on the
    /// calling thread; on several, every job still runs exactly once.
    #[test]
    fn every_job_runs_once() {
        let items = [3usize, 9, 1, 9, 4];
        let caller = thread::current().id();
        let started = Mutex::new(Vec::new());
        let record = |&x: &usize| {
            let mut started = started.lock().expect("no job panics");
            started.push((x, thread::current().id() == caller));
        };
        map(1, &items, |&x| x, record);
        let inline: Vec<(usize, bool)> = items.iter().map(|&x| (x, true)).collect();
        assert_eq!(*started.lock().expect("no job panics"), inline);
        for workers in [2, 3, 8] {
            started.lock().expect("no job panics").clear();
            map(workers, &items, |&x| x, record);
            let mut ran: Vec<usize> = started
                .lock()
                .expect("no job panics")
                .iter()
                .map(|&(x, _)| x)
                .collect();
            ran.sort_unstable();
            assert_eq!(ran, [1, 3, 4, 9, 9], "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_fails_the_fan_out() {
        let items: Vec<usize> = (0..8).collect();
        map(2, &items, |_| 1, |&i| assert_ne!(i, 5, "job {i} failed"));
    }
}
