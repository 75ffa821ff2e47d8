//! Thread-local cache-hierarchy recycling for scenario machines.
//!
//! Every scenario run leases a [`MemSystem`], and a fuzz case or a serve
//! request runs several, so building one must be cheap. Nearly all of a
//! fresh build's memory is the per-processor [`CacheHierarchy`] slot
//! vectors (512 + 8192 slots each at the paper's geometry); everything
//! else — directories, network, NUMA allocator, speculative stores — is
//! small and built fresh by [`MemSystem::with_caches`]. So the hierarchies
//! are the only state recycled: [`lease`] takes hierarchies of the
//! requested geometry from a per-thread free list, resets them in place
//! (the flushed-cache state every paper run starts from, §5.2) and builds
//! only the missing ones; dropping the lease hands them back through
//! [`MemSystem::into_caches`].
//!
//! The free list is keyed by [`CacheConfig`] alone, so machines that
//! differ in processor count, interconnect, faults or latencies share it
//! — a fuzz case's node-fault legs, whose crash cycle differs per case,
//! no longer rebuild. It holds at most 64 hierarchies per thread (what
//! four 16-processor machines hold) and evicts the oldest first.
//!
//! Measured on `fuzz_jobs(3000, 1, 1)` (the work of `specrt-check fuzz
//! --cases 3000 --seed 1 --jobs 1`) on a 2-core x86-64 host: pooling
//! whole machines keyed by their full configuration, four per thread and
//! never evicted, built 25,077 of 46,157 leases and took 100–133k minor
//! page faults; recycling hierarchies builds 6 and takes 1.1k, and the run
//! fell from 1.45–1.64 s to 0.99–1.05 s.
//!
//! Correctness: a reset hierarchy must be observationally identical to a
//! fresh one — the serving layer's byte-identity guarantee (cold = warm =
//! any `--jobs`) rides on it. `crates/check/tests/reuse_equiv.rs` renders
//! the pinned corpus on fresh builds and on hierarchies recycled across
//! other configurations and compares the bytes. The pool is thread-local,
//! so parallel workers (`crates/par`) never contend and per-thread
//! behaviour stays deterministic.
//!
//! [`counters`] exposes global build/reuse totals, which the benchmark
//! reports as `machine.pool.reuse_ratio` (telemetry only — never part of
//! a deterministic payload).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use specrt_cache::{CacheConfig, CacheHierarchy};
use specrt_proto::{MemSystem, MemSystemConfig};

/// Hierarchies kept per thread: four 16-processor machines' worth. Enough
/// for a speculative run, its serial re-execution and a checkpoint rerun
/// at the paper's size; more would only hold memory on wide sweeps.
const MAX_FREE: usize = 64;

thread_local! {
    /// Free hierarchies with their geometry, oldest first.
    static FREE: RefCell<Vec<(CacheConfig, CacheHierarchy)>> =
        const { RefCell::new(Vec::new()) };
}

static BUILDS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);

/// A leased [`MemSystem`] whose cache hierarchies return to the thread's
/// free list on drop.
///
/// Dereferences to [`MemSystem`]; scenario code uses it exactly like an
/// owned system.
pub struct PooledMem {
    cache: CacheConfig,
    ms: Option<MemSystem>,
}

/// Leases a system for `cfg`: reset hierarchies of `cfg.cache` geometry
/// from this thread's free list, newest first, plus freshly built ones for
/// the processors the list cannot cover.
pub fn lease(cfg: MemSystemConfig) -> PooledMem {
    let procs = cfg.procs as usize;
    let mut caches = Vec::with_capacity(procs);
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        let mut i = f.len();
        while i > 0 && caches.len() < procs {
            i -= 1;
            if f[i].0 == cfg.cache {
                caches.push(f.remove(i).1);
            }
        }
    });
    let counter = if caches.len() == procs {
        &REUSES
    } else {
        &BUILDS
    };
    counter.fetch_add(1, Ordering::Relaxed);
    {
        let _prof = specrt_prof::scope("machine.reset");
        for c in &mut caches {
            c.reset();
        }
    }
    caches.resize_with(procs, || CacheHierarchy::new(cfg.cache));
    PooledMem {
        cache: cfg.cache,
        ms: Some(MemSystem::with_caches(cfg, caches)),
    }
}

/// Global `(builds, reuses)` lease totals across all threads since process
/// start; a lease is a reuse when every hierarchy came from the free list.
/// Monotonic telemetry; relaxed counters, never part of a deterministic
/// result payload.
pub fn counters() -> (u64, u64) {
    (
        BUILDS.load(Ordering::Relaxed),
        REUSES.load(Ordering::Relaxed),
    )
}

impl Deref for PooledMem {
    type Target = MemSystem;

    fn deref(&self) -> &MemSystem {
        self.ms.as_ref().expect("leased system present until drop")
    }
}

impl DerefMut for PooledMem {
    fn deref_mut(&mut self) -> &mut MemSystem {
        self.ms.as_mut().expect("leased system present until drop")
    }
}

impl Drop for PooledMem {
    fn drop(&mut self) {
        let Some(ms) = self.ms.take() else { return };
        let cache = self.cache;
        // A lease dropped during thread teardown, after the free list
        // itself, just drops its hierarchies.
        let _ = FREE.try_with(|f| {
            let mut f = f.borrow_mut();
            f.extend(ms.into_caches().into_iter().map(|c| (cache, c)));
            let excess = f.len().saturating_sub(MAX_FREE);
            f.drain(..excess);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_hierarchies_of_another_config_with_the_same_geometry() {
        let a = MemSystemConfig {
            procs: 4,
            ..MemSystemConfig::default()
        };
        let b = MemSystemConfig { procs: 3, ..a };
        let (b0, r0) = counters();
        drop(lease(a)); // builds four hierarchies, then frees them
        let leased = lease(b); // three of them come back
        let (b1, r1) = counters();
        assert_eq!(leased.procs(), 3);
        // Other tests on other threads may lease concurrently, but *this*
        // thread's first lease can only have built and its second reused.
        assert!(b1 > b0, "first lease should build ({b0} -> {b1})");
        assert!(r1 > r0, "second lease should reuse ({r0} -> {r1})");
    }

    #[test]
    fn different_geometry_builds_fresh_and_the_free_list_stays_bounded() {
        let small = CacheConfig {
            l1_lines: 4,
            l2_lines: 16,
        };
        let a = MemSystemConfig {
            procs: 64,
            cache: small,
            ..MemSystemConfig::default()
        };
        let b = MemSystemConfig {
            cache: CacheConfig {
                l2_lines: 32,
                ..small
            },
            ..a
        };
        drop(lease(a));
        let (b0, _) = counters();
        let leased = lease(b);
        assert!(counters().0 > b0, "no hierarchy of b's geometry was free");
        assert_eq!(leased.procs(), 64);
        drop(leased);
        // The list is full, and `a`'s hierarchies went first to make room.
        FREE.with(|f| {
            let f = f.borrow();
            assert_eq!(f.len(), MAX_FREE);
            assert!(f.iter().all(|(c, _)| *c == b.cache));
        });
    }
}
