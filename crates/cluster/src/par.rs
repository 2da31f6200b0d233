//! Scoped-thread parallel helpers for the clustering hot paths.
//!
//! Built directly on `std::thread::scope` so the workspace stays
//! dependency-free: rayon is the natural fit but is unavailable in offline
//! builds. With one worker (a single core, or `LOGR_THREADS=1`) every
//! helper degrades to the serial loop, so all call sites are written once
//! and behave identically either way.
//!
//! Work is distributed round-robin over at most [`threads`] workers, which
//! balances the triangular row lengths of condensed distance matrices
//! without a work-stealing queue.

use std::sync::OnceLock;

/// Below this many cells (a condensed triangle over 128 points), a fill
/// runs serially: the thread handshake would dominate the work.
pub(crate) const PARALLEL_MIN_CELLS: usize = 128 * 127 / 2;

/// Workers for a fill of `cells` cells: one below [`PARALLEL_MIN_CELLS`],
/// else `max`.
pub(crate) fn workers(cells: usize, max: usize) -> usize {
    if cells < PARALLEL_MIN_CELLS {
        1
    } else {
        max
    }
}

/// Upper bound on worker threads.
///
/// The `LOGR_THREADS` environment variable overrides the detected core
/// count. CI uses it to exercise the multi-worker fan-out on single-core
/// runners, and `LOGR_THREADS=1` to exercise the serial path. Resolved
/// once per process: every close asks two or three times, the probe reads
/// cgroup files, and nothing changes the variable after start-up.
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        match std::env::var("LOGR_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// Process `tasks` on up to `n_threads` workers; each worker folds its tasks
/// into an accumulator seeded by `init`. Returns the per-worker accumulators
/// in worker order (deterministic for a fixed thread count).
pub(crate) fn fold_tasks<T, A, I, W>(tasks: Vec<T>, n_threads: usize, init: I, worker: W) -> Vec<A>
where
    T: Send,
    A: Send,
    I: Fn() -> A + Sync,
    W: Fn(&mut A, T) + Sync,
{
    let n_threads = n_threads.clamp(1, tasks.len().max(1));
    if n_threads == 1 {
        let mut acc = init();
        for task in tasks {
            worker(&mut acc, task);
        }
        return vec![acc];
    }

    let mut buckets: Vec<Vec<T>> = (0..n_threads).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        buckets[i % n_threads].push(task);
    }
    let init = &init;
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let mut acc = init();
                    for task in bucket {
                        worker(&mut acc, task);
                    }
                    acc
                })
            })
            .collect();
        // lint:allow(no-panic-paths): join() only errs when the worker itself panicked; re-raising that panic on the caller is the correct propagation, not a new failure mode
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
}

/// Split a condensed strict-upper-triangle buffer over `n` points into its
/// per-row slices `(i, rowᵢ)` — row `i` holds the `n − 1 − i` cells
/// `(i, i+1..n)`. The rows partition the buffer, so [`run_tasks`] can fill
/// them lock-free. Shared by the kernel's triangle fill and the shard
/// merge.
pub(crate) fn triangle_rows<T>(buf: &mut [T], n: usize) -> Vec<(usize, &mut [T])> {
    let mut rows: Vec<(usize, &mut [T])> = Vec::with_capacity(n.saturating_sub(1));
    let mut rest = buf;
    for i in 0..n.saturating_sub(1) {
        let (row, tail) = rest.split_at_mut(n - 1 - i);
        rows.push((i, row));
        rest = tail;
    }
    rows
}

/// Process `tasks` on up to `n_threads` workers, discarding results.
pub(crate) fn run_tasks<T, W>(tasks: Vec<T>, n_threads: usize, worker: W)
where
    T: Send,
    W: Fn(T) + Sync,
{
    fold_tasks(tasks, n_threads, || (), |(), task| worker(task));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_covers_every_task_once() {
        for n_threads in [1, 2, 7] {
            let tasks: Vec<usize> = (0..100).collect();
            let partials = fold_tasks(tasks, n_threads, || 0usize, |acc, t| *acc += t);
            assert_eq!(partials.iter().sum::<usize>(), 4950, "threads={n_threads}");
        }
    }

    #[test]
    fn run_tasks_writes_disjoint_slices() {
        let mut data = vec![0u32; 64];
        let chunks: Vec<(usize, &mut [u32])> = data.chunks_mut(10).enumerate().collect();
        run_tasks(chunks, threads(), |(idx, chunk)| {
            for c in chunk.iter_mut() {
                *c = idx as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[63], 7);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let partials = fold_tasks(Vec::<usize>::new(), 8, || 0usize, |acc, t| *acc += t);
        assert_eq!(partials.iter().sum::<usize>(), 0);
    }
}
