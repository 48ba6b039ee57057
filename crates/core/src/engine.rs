//! Deterministic parallel sweep engine for the experiment suite.
//!
//! Every paper figure is a sweep over an independent grid — (rate ×
//! policy), (model × batch), (model × CU count) — so regenerating the
//! evaluation is embarrassingly parallel. [`Engine::par_map`] fans a
//! slice of grid points out over [`std::thread::scope`] workers (no
//! external dependencies, no global thread pool) and **index-stamps**
//! every result: each worker tags what it computes with the input's
//! position and the engine reassembles the output in input order, so
//! the returned `Vec` is byte-for-byte independent of thread
//! interleaving. A deterministic per-point function therefore yields a
//! deterministic sweep at any job count — `jobs = 8` produces exactly
//! the bytes `jobs = 1` does, just sooner.
//!
//! [`grid`] builds the row-major cross product two nested sweep loops
//! used to walk, so a sequential
//! `for a in &xs { for b in &ys { ... } }` ports to
//! `engine.par_map(&grid(&xs, &ys), ...)` with the same result order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic parallel executor with a fixed worker budget.
///
/// # Examples
///
/// ```
/// use rpu_core::engine::{grid, Engine};
///
/// let points = grid(&[1u32, 2], &["a", "b"]);
/// let seq = Engine::sequential().par_map(&points, |i, p| (i, *p));
/// let par = Engine::new(8).par_map(&points, |i, p| (i, *p));
/// // Same bytes at any job count: results come back in input order.
/// assert_eq!(seq, par);
/// assert_eq!(points[1], (1, "b"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    jobs: usize,
}

impl Default for Engine {
    /// The sequential engine (`jobs = 1`).
    fn default() -> Self {
        Self::sequential()
    }
}

impl Engine {
    /// An engine running at most `jobs` grid points concurrently.
    /// `jobs = 0` is clamped to 1.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The single-threaded engine: runs every point inline on the
    /// caller's thread, in input order. The reference the differential
    /// suite compares parallel runs against.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The configured concurrency.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, running up to [`Engine::jobs`] points
    /// concurrently, and returns the results **in input order**.
    ///
    /// Workers are capped at the host's cores
    /// ([`std::thread::available_parallelism`], or `jobs` when unknown):
    /// threads past that only add spawn and switching cost.
    ///
    /// `f` receives each item's index alongside the item. Workers claim
    /// indices from a shared atomic cursor (dynamic load balancing —
    /// grid points like "grow the fleet until the SLO holds" vary
    /// wildly in cost) and stamp every result with its index, so the
    /// output order never depends on which worker finished first. A
    /// panic in any point propagates to the caller after the scope
    /// joins.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let mut workers = self.jobs.min(n);
        if workers > 1 {
            let cores = std::thread::available_parallelism().map_or(workers, usize::from);
            workers = workers.min(cores);
        }
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut stamped: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            done.push((i, f(i, &items[i])));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(done) => done,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        stamped.sort_unstable_by_key(|&(i, _)| i);
        stamped.into_iter().map(|(_, r)| r).collect()
    }
}

/// The row-major cross product of two sweep axes: `grid(&xs, &ys)`
/// enumerates `(x, y)` exactly as `for x in &xs { for y in &ys }`
/// would, so porting a nested sweep loop onto [`Engine::par_map`]
/// preserves its result order.
#[must_use]
pub fn grid<A: Clone, B: Clone>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(xs.len() * ys.len());
    for x in xs {
        for y in ys {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn grid_is_row_major() {
        let g = grid(&[1, 2, 3], &['a', 'b']);
        assert_eq!(
            g,
            vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a'), (3, 'b')]
        );
        assert!(grid::<u32, u32>(&[], &[1]).is_empty());
    }

    #[test]
    fn par_map_preserves_input_order_at_every_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Engine::new(jobs).par_map(&items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn par_map_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = Engine::new(2).par_map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let got = Engine::new(7).par_map(&items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(got.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Engine::new(0).jobs(), 1);
        assert_eq!(Engine::new(0).par_map(&[1, 2], |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = Engine::new(8).par_map(&[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_count_never_exceeds_item_count() {
        // One item with jobs = 8 must take the inline path (observable
        // as the closure running on the caller's thread).
        let caller = std::thread::current().id();
        let got = Engine::new(8).par_map(&[5u32], |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(got, vec![6]);
    }

    #[test]
    fn workers_never_exceed_the_host_cores() {
        let cores = std::thread::available_parallelism().map_or(64, usize::from);
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        let engine = Engine::new(64);
        engine.par_map(&items, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Long enough that every spawned worker claims a point.
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(engine.jobs(), 64, "jobs() reports the configured value");
        let threads = seen.into_inner().unwrap().len();
        assert!(threads <= cores, "{threads} workers on {cores} cores");
    }

    #[test]
    #[should_panic(expected = "point exploded")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let _ = Engine::new(4).par_map(&items, |_, &x| {
            assert!(x != 7, "point exploded");
            x
        });
    }
}
