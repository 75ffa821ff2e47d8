#![warn(missing_docs)]

//! # specrt-par
//!
//! A zero-dependency, deterministic fork-join primitive for the workloads
//! this repository is full of: *many independent, deterministic simulation
//! cases* (fuzz cases, interleaving scripts, experiment grid points) whose
//! results must come back **in input order** no matter how many worker
//! threads ran them.
//!
//! The design is a chunked work queue over [`std::thread::scope`]:
//!
//! * the caller hands over a slice of items and a `Fn(index, &item) -> R`;
//! * `jobs` scoped workers claim chunks of indices from one shared atomic
//!   cursor (dynamic load balancing — a slow case does not stall the rest
//!   of its chunk-mates' workers);
//! * each worker keeps its `(index, result)` pairs locally — no locks on
//!   the result path — and the caller reassembles them into a `Vec<R>`
//!   indexed exactly like the input.
//!
//! That loop is [`par_fold`]: each worker folds its items into one
//! accumulator of its own, and `par_map` is the fold whose accumulator is
//! the worker's list of `(index, result)` pairs. A caller that only needs
//! totals folds into them directly, so its memory does not grow with the
//! item count.
//!
//! **Determinism guarantee:** for a pure `f`, `par_map(j, items, f)`
//! returns the same `Vec<R>` for every `j ≥ 1`, including `j = 1` which
//! runs inline without spawning. Thread scheduling only decides *who*
//! computes an item, never *which* items are computed or how results are
//! ordered. Anything order-dependent must therefore happen in the caller,
//! on the returned in-order vector, or through order-independent merges of
//! [`par_fold`]'s accumulators (sums, minimums, a sort by index) — which is
//! what `specrt-check` and `specrt-core` do.
//!
//! Worker panics propagate to the caller with their original payload, so
//! `should_panic` tests and assertion failures inside cases behave exactly
//! as they do single-threaded.
//!
//! No rayon, no crossbeam: builds are offline and the std scoped-thread
//! pool is ~60 lines.
//!
//! ## Observability
//!
//! Each worker is labelled `worker-N` for `specrt-prof` and wraps its
//! lifecycle in host-profile spans — `par.worker` (whole lifetime),
//! `par.claim` (queue operations) and `par.case` (running one item) — so
//! an opt-in `--profile` run yields a per-worker timeline and utilization
//! fractions. [`par_map_telemetry`] additionally returns a
//! [`PoolTelemetry`] of pure *counts* (workers, chunk claims, per-worker
//! items). The count of items, workers and chunk claims is deterministic;
//! *which* worker claimed an item is scheduling-dependent, which is why
//! telemetry rides the opt-in profile channel and never the gated
//! deterministic outputs.

pub mod pool;

pub use pool::{Lane, QueueFull, WorkerPool};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The worker count "auto" resolves to: the host's available parallelism
/// (falling back to 1 where it cannot be queried).
pub fn default_jobs() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--jobs` CLI value: a positive integer, or `0` meaning "auto"
/// ([`default_jobs`]). Returns `None` for non-numeric input.
pub fn parse_jobs(s: &str) -> Option<usize> {
    match s.parse::<usize>().ok()? {
        0 => Some(default_jobs()),
        n => Some(n),
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in item order. `jobs <= 1` (or a single item) runs inline on the calling
/// thread — the `-j1` reference execution.
///
/// `f` receives `(index, &item)` so callers can label work or index into
/// sibling arrays without cloning context into every item.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_telemetry(jobs, 1, items, f).0
}

/// Worker-pool counters from one [`par_map_telemetry`] run.
///
/// `workers`, `chunk`, `items` and `chunks` are deterministic functions of
/// the call arguments. `claimed` (items run per worker) depends on thread
/// scheduling when `workers > 1`, so it belongs to the opt-in profile /
/// metrics channel, never to gated deterministic outputs. Its *sum* is
/// always `items`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolTelemetry {
    /// Worker threads actually used, after clamping `jobs` to the work
    /// available (`1` means the pool ran inline on the calling thread).
    pub workers: usize,
    /// Claim granularity: consecutive indices grabbed per queue operation.
    pub chunk: usize,
    /// Total items mapped.
    pub items: usize,
    /// Queue operations that found work: `ceil(items / chunk)`.
    pub chunks: usize,
    /// Items executed by each worker, indexed by worker id
    /// (`claimed.len() == workers`; sums to `items`).
    pub claimed: Vec<u64>,
}

impl PoolTelemetry {
    /// Load imbalance as `max(claimed) - min(claimed)`; `0` for a perfectly
    /// even split (and always `0` when `workers <= 1`).
    pub fn imbalance(&self) -> u64 {
        match (self.claimed.iter().max(), self.claimed.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }
}

/// [`par_map`] with an explicit claim granularity that also returns
/// [`PoolTelemetry`] counters: a [`par_fold`] of `(index, result)` pairs,
/// reassembled in item order. Workers grab `chunk` consecutive indices per
/// queue operation: larger chunks amortize the (already tiny) atomic claim
/// for very cheap items, and `chunk = 1` maximizes load balance for coarse
/// items like whole simulation runs.
///
/// The result vector is bit-for-bit identical for every `jobs` and `chunk`
/// for any pure `f`; only the telemetry side channel differs.
///
/// # Panics
///
/// Panics if `chunk == 0`; re-raises the first worker panic otherwise.
pub fn par_map_telemetry<T, R, F>(
    jobs: usize,
    chunk: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, PoolTelemetry)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (parts, telemetry) = par_fold(jobs, chunk, items, Vec::new, |out, i, t| {
        out.push((i, f(i, t)));
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    let out = slots
        .into_iter()
        .map(|r| r.expect("work queue claims every index exactly once"))
        .collect();
    (out, telemetry)
}

/// Folds every item into one accumulator per worker: each of up to `jobs`
/// workers starts from `init()` and calls `fold(&mut acc, index, &item)`
/// on each item it claims, `chunk` consecutive indices per queue
/// operation. Returns the accumulators, indexed by worker id, with the
/// [`PoolTelemetry`] of the run. `jobs <= 1` (or a single chunk) runs
/// inline on the calling thread. Workers are instrumented with
/// `specrt-prof` spans (`par.worker`, `par.claim`, `par.case`) under
/// per-worker `worker-N` labels.
///
/// Which worker folds which item depends on thread scheduling, so a
/// caller whose output must not depend on `jobs` merges the accumulators
/// with an order-independent operation (sums, minimums, a sort by index).
/// Each worker does see its own items in increasing index order, because
/// the queue hands out chunks in index order. There is one accumulator per
/// worker, however many items there are.
///
/// # Panics
///
/// Panics if `chunk == 0`; re-raises the first worker panic otherwise.
pub fn par_fold<T, A, I, F>(
    jobs: usize,
    chunk: usize,
    items: &[T],
    init: I,
    fold: F,
) -> (Vec<A>, PoolTelemetry)
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let jobs = jobs.clamp(1, items.len().div_ceil(chunk).max(1));
    let next = AtomicUsize::new(0);
    // One worker's life: claim chunks from the shared cursor until none is
    // left, folding each claimed item into the worker's accumulator.
    let work = || {
        let _worker = specrt_prof::scope("par.worker");
        let (mut acc, mut claimed) = (init(), 0);
        loop {
            let start = {
                let _claim = specrt_prof::scope("par.claim");
                next.fetch_add(chunk, Ordering::Relaxed)
            };
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                let _case = specrt_prof::scope("par.case");
                fold(&mut acc, i, item);
                claimed += 1;
            }
        }
        (acc, claimed)
    };
    let parts: Vec<(A, u64)> = if jobs <= 1 {
        vec![work()]
    } else {
        let work = &work;
        thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    s.spawn(move || {
                        specrt_prof::set_thread_label(&format!("worker-{w}"));
                        let out = work();
                        // Scoped joins can beat TLS destructors; flush by
                        // hand so this worker's spans reach the next
                        // take_report().
                        specrt_prof::flush_thread();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    let (accs, claimed) = parts.into_iter().unzip();
    let telemetry = PoolTelemetry {
        workers: jobs,
        chunk,
        items: items.len(),
        chunks: items.len().div_ceil(chunk),
        claimed,
    };
    (accs, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_one_runs_inline() {
        let items: Vec<u64> = (0..10).collect();
        let got = par_map(1, &items, |i, &x| x * 2 + i as u64);
        let want: Vec<u64> = (0..10).map(|x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn results_come_back_in_input_order_for_any_job_count() {
        // Uneven work per item so fast items finish out of order.
        let items: Vec<u64> = (0..97).collect();
        let work = |_: usize, &x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 13) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let serial = par_map(1, &items, work);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(par_map(jobs, &items, work), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn chunked_claims_cover_everything() {
        let items: Vec<usize> = (0..41).collect();
        for chunk in [1, 2, 7, 40, 41, 100] {
            let (got, _) = par_map_telemetry(4, chunk, &items, |i, &x| i + x);
            let want: Vec<usize> = (0..41).map(|x| 2 * x).collect();
            assert_eq!(got, want, "chunk={chunk}");
        }
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(16, &items, |_, &x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map(16, &[] as &[u32], |_, &x| x), Vec::<u32>::new());
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..20).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                assert!(x != 13, "unlucky item");
                x
            })
        });
        assert!(r.is_err(), "panic must reach the caller");
    }

    #[test]
    fn fold_keeps_one_accumulator_per_worker() {
        let items: Vec<u64> = (0..101).collect();
        for (jobs, chunk) in [(1, 1), (2, 1), (4, 3), (64, 1)] {
            let (accs, t) = par_fold(
                jobs,
                chunk,
                &items,
                || (0u64, Vec::new()),
                |(sum, seen), i, &x| {
                    *sum += x;
                    seen.push(i);
                },
            );
            assert_eq!(accs.len(), t.workers, "jobs={jobs} chunk={chunk}");
            assert_eq!(accs.iter().map(|a| a.0).sum::<u64>(), 5050);
            let mut all: Vec<usize> = Vec::new();
            for ((_, seen), &n) in accs.iter().zip(&t.claimed) {
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "in index order");
                assert_eq!(seen.len() as u64, n);
                all.extend(seen);
            }
            all.sort_unstable();
            assert_eq!(all, (0..101).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        par_map_telemetry(2, 0, &[1], |_, &x: &i32| x);
    }

    #[test]
    fn parse_jobs_spellings() {
        assert_eq!(parse_jobs("3"), Some(3));
        assert_eq!(parse_jobs("0"), Some(default_jobs()));
        assert_eq!(parse_jobs("auto"), None);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn telemetry_counts_are_consistent() {
        let items: Vec<u64> = (0..53).collect();
        for (jobs, chunk) in [(1, 1), (4, 1), (4, 7), (3, 20), (64, 1)] {
            let (got, t) = par_map_telemetry(jobs, chunk, &items, |i, &x| x + i as u64);
            let want: Vec<u64> = (0..53).map(|x| 2 * x).collect();
            assert_eq!(got, want, "jobs={jobs} chunk={chunk}");
            assert_eq!(t.chunk, chunk);
            assert_eq!(t.items, items.len());
            assert_eq!(t.chunks, items.len().div_ceil(chunk));
            assert!(t.workers >= 1 && t.workers <= jobs.max(1));
            assert_eq!(t.claimed.len(), t.workers);
            assert_eq!(
                t.claimed.iter().sum::<u64>(),
                items.len() as u64,
                "every item claimed exactly once (jobs={jobs} chunk={chunk})"
            );
        }
    }

    #[test]
    fn telemetry_inline_path_claims_everything_on_one_worker() {
        let items = [1u32, 2, 3];
        let (_, t) = par_map_telemetry(1, 1, &items, |_, &x| x);
        assert_eq!(t.workers, 1);
        assert_eq!(t.claimed, vec![3]);
        assert_eq!(t.imbalance(), 0);
        let (_, empty) = par_map_telemetry(8, 1, &[] as &[u32], |_, &x| x);
        assert_eq!(empty.workers, 1);
        assert_eq!(empty.claimed, vec![0]);
        assert_eq!(empty.chunks, 0);
    }
}
