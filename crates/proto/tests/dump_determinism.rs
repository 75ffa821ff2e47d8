//! Two identical runs of the memory system must produce byte-identical
//! invariant-walk/dump output. `MemSystem` keeps its iterable side tables
//! (`private_layouts`, the debug in-order bookkeeping) in ordered maps and
//! `dump()` sorts everything else, so host hash randomization can never
//! leak into debug output or undermine the fuzzer's `-j1` vs `-jN`
//! byte-identity gate from inside the memory system.

use specrt_cache::CacheConfig;
use specrt_engine::{Cycles, SplitMix64};
use specrt_ir::ArrayId;
use specrt_mem::{ElemSize, PlacementPolicy, ProcId};
use specrt_proto::{LatencyConfig, MemSystem, MemSystemConfig, NetConfig};
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);

/// One deterministic mixed workload: a non-privatized array and a
/// privatized one (so private copies get allocated), randomized accesses
/// from a fixed seed, then a full drain.
fn run_once() -> (String, Option<specrt_spec::FailReason>) {
    let mut ms = MemSystem::new(MemSystemConfig {
        procs: 4,
        cache: CacheConfig {
            l1_lines: 8,
            l2_lines: 32,
        },
        latency: LatencyConfig::default(),
        dir_banks: 4,
        net: NetConfig::flat(),
        dirty_read_downgrades: false,
        retry: specrt_proto::RetryConfig::default(),
    });
    ms.alloc_array(A, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
    ms.alloc_array(B, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    plan.set(B, SpecVariant::Priv);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());

    let mut rng = SplitMix64::new(0xd0_d0);
    let mut now = Cycles(0);
    for p in 0..4u32 {
        ms.begin_iteration(ProcId(p), p as u64);
    }
    for _ in 0..120 {
        now += Cycles(rng.below(500));
        let proc = ProcId(rng.below(4) as u32);
        let arr = if rng.chance(0.5) { A } else { B };
        let idx = rng.below(48);
        let out = if rng.chance(0.4) {
            ms.write(proc, arr, idx, now)
        } else {
            ms.read(proc, arr, idx, now)
        };
        now = now.max(out.complete_at);
    }
    ms.drain_all_messages();
    ms.assert_invariants();
    (ms.dump(), ms.failure().map(|(r, _)| r))
}

#[test]
fn identical_runs_dump_identically() {
    let (dump1, fail1) = run_once();
    let (dump2, fail2) = run_once();
    assert_eq!(fail1, fail2, "verdict must be reproducible");
    assert_eq!(dump1, dump2, "dump must be byte-identical across runs");
    // The dump actually covers the interesting state: directories, caches,
    // and at least one allocated private copy.
    assert!(
        dump1.contains("dir 0:"),
        "missing directory section:\n{dump1}"
    );
    assert!(
        dump1.contains("cache 3:"),
        "missing cache section:\n{dump1}"
    );
    assert!(
        !dump1.contains("private copies: 0"),
        "privatized array must have allocated private copies:\n{dump1}"
    );
}
