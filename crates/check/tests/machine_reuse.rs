//! Machine-reuse correctness: `crates/machine`'s thread-local pool builds
//! each scenario run's [`specrt_proto::MemSystem`] around cache
//! hierarchies reset after earlier runs. Such a system must be
//! observationally identical to a fresh build — cycle counts, verdicts,
//! stats and final memory images alike — because the serve cache's
//! byte-identity guarantee (cold = warm) and the fuzz determinism gate
//! both ride on it.

use specrt_check::{run_case, CaseSpec, ARR_A, ARR_OUT};
use specrt_machine::{pool, run_scenario_configured, MachineConfig, RunResult, Scenario};
use specrt_spec::SpecVariant;

/// One comparable fingerprint of everything a run result observes.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={:?} breakdown={:?} passed={:?} failure={:?} iters={} a={:?} out={:?} stats=[{}] net_msgs={}",
        r.total_cycles,
        r.breakdown,
        r.passed,
        r.failure,
        r.iterations,
        r.final_image.contents(ARR_A),
        r.final_image.contents(ARR_OUT),
        r.stats,
        r.net.messages,
    )
}

/// Back-to-back scenario runs on one thread (second run leases the first
/// run's reset hierarchies) match a first run on a fresh thread (fresh build), cycle
/// for cycle and value for value — across every scenario and protocol mix
/// the differential harness exercises.
#[test]
fn pooled_rerun_is_cycle_and_value_identical() {
    for seed in [0, 3, 5, 0x5eed, 0xfeed_f00d] {
        let case = CaseSpec::generate(seed);
        for (scenario, protocol, live) in [
            (Scenario::Serial, SpecVariant::NonPriv, true),
            (Scenario::Hw, SpecVariant::NonPriv, true),
            (Scenario::Hw, SpecVariant::Priv, true),
            (Scenario::Hw, SpecVariant::Priv3, false),
            (Scenario::Ideal, SpecVariant::NonPriv, true),
        ] {
            let spec = case.loop_spec(protocol, live);
            let cfg = MachineConfig::with_procs(case.procs);
            let fresh = {
                let spec = spec.clone();
                std::thread::spawn(move || {
                    fingerprint(&run_scenario_configured(&spec, scenario, cfg))
                })
                .join()
                .expect("fresh-thread run")
            };
            let first = fingerprint(&run_scenario_configured(&spec, scenario, cfg));
            let second = fingerprint(&run_scenario_configured(&spec, scenario, cfg));
            assert_eq!(first, second, "seed {seed} {scenario:?}: rerun drifted");
            assert_eq!(
                fresh, first,
                "seed {seed} {scenario:?}: fresh-build drifted"
            );
        }
    }
}

/// The full differential harness (all protocol variants + SW baseline +
/// image checks) agrees with itself across pooled reruns, and the pool
/// actually reuses machines while doing so.
#[test]
fn run_case_is_stable_across_pool_reuse() {
    let (_, reuses_before) = pool::counters();
    for seed in [1, 2, 7, 0xabcd] {
        let case = CaseSpec::generate(seed);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a.ok(), b.ok(), "seed {seed}: verdict drifted across reuse");
        assert_eq!(
            format!("{}", a.stats),
            format!("{}", b.stats),
            "seed {seed}: stats drifted across reuse"
        );
    }
    let (_, reuses_after) = pool::counters();
    assert!(
        reuses_after > reuses_before,
        "pool was never hit ({reuses_before} -> {reuses_after})"
    );
}
