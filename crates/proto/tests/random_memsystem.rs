//! Randomized tests: the full memory system (caches + directory + protocol
//! messages) against the speculation oracles, under randomized access
//! schedules with realistic timing interleavings — driven by the in-repo
//! deterministic [`SplitMix64`] generator.

use specrt_cache::CacheConfig;
use specrt_engine::{Cycles, SplitMix64};
use specrt_ir::ArrayId;
use specrt_mem::{ElemSize, PlacementPolicy, ProcId};
use specrt_proto::{LatencyConfig, MemSystem, MemSystemConfig};
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);

fn small_system(procs: u32) -> MemSystem {
    MemSystem::new(MemSystemConfig {
        procs,
        cache: CacheConfig {
            l1_lines: 8,
            l2_lines: 32,
        },
        latency: LatencyConfig::default(),
        dir_banks: 4,
        net: specrt_proto::NetConfig::flat(),
        dirty_read_downgrades: false,
        retry: specrt_proto::RetryConfig::default(),
    })
}

#[derive(Debug, Clone, Copy)]
struct Access {
    proc: u8,
    elem: u8,
    write: bool,
    gap: u16,
}

fn random_schedule(rng: &mut SplitMix64, procs: u8, elems: u8) -> Vec<Access> {
    (0..rng.below(60))
        .map(|_| Access {
            proc: rng.below(procs as u64) as u8,
            elem: rng.below(elems as u64) as u8,
            write: rng.chance(0.5),
            gap: rng.below(400) as u16,
        })
        .collect()
}

/// Soundness of the non-privatization protocol under arbitrary timing:
/// whenever the machine does NOT flag a failure, the access pattern really
/// was inside the envelope (every element read-only or single-processor).
/// Races may cause *conservative* failures, but never a missed conflict.
#[test]
fn nonpriv_never_misses_a_conflict() {
    let mut rng = SplitMix64::new(0xa0c0_0001);
    for _case in 0..64 {
        let schedule = random_schedule(&mut rng, 4, 16);
        let mut ms = small_system(4);
        ms.alloc_array(A, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        ms.configure_loop(plan, IterationNumbering::iteration_wise());

        let mut now = Cycles(0);
        for a in &schedule {
            now += Cycles(a.gap as u64);
            let out = if a.write {
                ms.write(ProcId(a.proc as u32), A, a.elem as u64, now)
            } else {
                ms.read(ProcId(a.proc as u32), A, a.elem as u64, now)
            };
            now = now.max(out.complete_at);
        }
        ms.drain_all_messages();

        if ms.failure().is_none() {
            // No element may be both written and touched by two processors.
            for e in 0..16u8 {
                let procs: std::collections::BTreeSet<u8> = schedule
                    .iter()
                    .filter(|a| a.elem == e)
                    .map(|a| a.proc)
                    .collect();
                let wrote = schedule.iter().any(|a| a.elem == e && a.write);
                assert!(
                    procs.len() <= 1 || !wrote,
                    "missed conflict on element {e} (procs {procs:?})"
                );
            }
        }
    }
}

/// With well-separated accesses (no in-flight races), the protocol is also
/// *complete*: it passes exactly the envelope.
#[test]
fn nonpriv_exact_without_races() {
    let mut rng = SplitMix64::new(0xa0c0_0002);
    for _case in 0..64 {
        let schedule = random_schedule(&mut rng, 3, 12);
        let mut ms = small_system(3);
        ms.alloc_array(A, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        ms.configure_loop(plan, IterationNumbering::iteration_wise());

        let mut now = Cycles(0);
        for a in &schedule {
            // Leave enough time for every update message to land.
            now += Cycles(2000);
            let out = if a.write {
                ms.write(ProcId(a.proc as u32), A, a.elem as u64, now)
            } else {
                ms.read(ProcId(a.proc as u32), A, a.elem as u64, now)
            };
            now = now.max(out.complete_at);
        }
        ms.drain_all_messages();

        let mut envelope_ok = true;
        for e in 0..12u8 {
            let procs: std::collections::BTreeSet<u8> = schedule
                .iter()
                .filter(|a| a.elem == e)
                .map(|a| a.proc)
                .collect();
            let wrote = schedule.iter().any(|a| a.elem == e && a.write);
            envelope_ok &= procs.len() <= 1 || !wrote;
        }
        assert_eq!(
            ms.failure().is_none(),
            envelope_ok,
            "failure {:?}",
            ms.failure()
        );
    }
}

/// Privatization protocol under per-processor monotone iteration
/// sequences: fails exactly iff some element's max read-first stamp
/// exceeds its min write stamp (when accesses are race-free).
#[test]
fn priv_matches_stamp_oracle() {
    let mut rng = SplitMix64::new(0xa0c0_0003);
    for _case in 0..64 {
        // Per access: (proc, elem, write?, advance?); iterations advance
        // per proc.
        let accesses: Vec<(u32, u64, bool, bool)> = (0..rng.below(40))
            .map(|_| {
                (
                    rng.below(3) as u32,
                    rng.below(8),
                    rng.chance(0.5),
                    rng.chance(0.5),
                )
            })
            .collect();
        let mut ms = small_system(3);
        ms.alloc_array(A, 16, ElemSize::W8, PlacementPolicy::RoundRobin);
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::Priv);
        ms.configure_loop(plan, IterationNumbering::iteration_wise());

        // Assign iterations round-robin: proc p executes iterations
        // p, p+3, p+6, ... in order; each access optionally advances the
        // processor to its next iteration.
        let mut iter_of = [0u64, 1, 2];
        let mut now = Cycles(0);
        // Oracle bookkeeping: per (proc, elem): last iteration that wrote.
        let mut wrote_in: std::collections::HashMap<(u32, u64), u64> = Default::default();
        let mut max_rf = [0u64; 8];
        let mut min_w = [u64::MAX; 8];
        let mut begun = [false; 3];

        for &(proc, elem, write, advance) in &accesses {
            if advance || !begun[proc as usize] {
                if begun[proc as usize] {
                    iter_of[proc as usize] += 3;
                }
                begun[proc as usize] = true;
                ms.begin_iteration(ProcId(proc), iter_of[proc as usize]);
            }
            now += Cycles(2000);
            let iter = iter_of[proc as usize];
            let stamp = iter + 1;
            let out = if write {
                wrote_in.insert((proc, elem), stamp);
                min_w[elem as usize] = min_w[elem as usize].min(stamp);
                ms.write(ProcId(proc), A, elem, now)
            } else {
                // Read-first iff this iteration has not written the element.
                if wrote_in.get(&(proc, elem)) != Some(&stamp) {
                    max_rf[elem as usize] = max_rf[elem as usize].max(stamp);
                }
                ms.read(ProcId(proc), A, elem, now)
            };
            now = now.max(out.complete_at);
        }
        ms.drain_all_messages();

        let oracle_fail = (0..8).any(|e| max_rf[e] > min_w[e]);
        assert_eq!(
            ms.failure().is_some(),
            oracle_fail,
            "failure {:?}, max_rf {:?}, min_w {:?}",
            ms.failure(),
            max_rf,
            min_w
        );
    }
}

/// The reduced no-read-in privatization mode (Figure 5-b) under race-free
/// schedules: fails exactly iff some element is BOTH read-first (by some
/// iteration) and written — the conservative mixed-use rule.
#[test]
fn priv_no_read_in_matches_mixed_use_rule() {
    let mut rng = SplitMix64::new(0xa0c0_0004);
    for _case in 0..48 {
        let accesses: Vec<(u32, u64, bool, bool)> = (0..rng.below(40))
            .map(|_| {
                (
                    rng.below(3) as u32,
                    rng.below(8),
                    rng.chance(0.5),
                    rng.chance(0.5),
                )
            })
            .collect();
        let mut ms = small_system(3);
        ms.alloc_array(A, 16, ElemSize::W8, PlacementPolicy::RoundRobin);
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::Priv3);
        ms.configure_loop(plan, IterationNumbering::iteration_wise());

        let mut iter_of = [0u64, 1, 2];
        let mut begun = [false; 3];
        let mut now = Cycles(0);
        // Oracle per element: set of (proc, iter) writing; read-first marks.
        let mut writes: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 8];
        let mut read_firsts: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 8];
        let mut wrote_this_iter: std::collections::HashSet<(u32, u64, u64)> = Default::default();
        let mut read_this_iter: std::collections::HashSet<(u32, u64, u64)> = Default::default();

        for &(proc, elem, write, advance) in &accesses {
            if advance || !begun[proc as usize] {
                if begun[proc as usize] {
                    iter_of[proc as usize] += 3;
                }
                begun[proc as usize] = true;
                ms.begin_iteration(ProcId(proc), iter_of[proc as usize]);
            }
            now += Cycles(2000);
            let iter = iter_of[proc as usize];
            let out = if write {
                wrote_this_iter.insert((proc, iter, elem));
                writes[elem as usize].push((proc, iter));
                ms.write(ProcId(proc), A, elem, now)
            } else {
                if !wrote_this_iter.contains(&(proc, iter, elem))
                    && !read_this_iter.contains(&(proc, iter, elem))
                {
                    read_firsts[elem as usize].push((proc, iter));
                }
                read_this_iter.insert((proc, iter, elem));
                ms.read(ProcId(proc), A, elem, now)
            };
            assert!(out.read_in.is_none(), "no-read-in mode must never read in");
            now = now.max(out.complete_at);
        }
        ms.drain_all_messages();

        // Oracle: the shared AnyW/AnyR1st bits are sticky, so any
        // coexistence of a read-first and a write on an element fails —
        // even a same-iteration read-then-write sends both signals.
        let oracle_fail = (0..8).any(|e| !read_firsts[e].is_empty() && !writes[e].is_empty());
        assert_eq!(
            ms.failure().is_some(),
            oracle_fail,
            "failure {:?}; rf {:?}; w {:?}",
            ms.failure(),
            read_firsts,
            writes
        );
    }
}
