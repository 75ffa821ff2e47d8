//! Recovery grid: every failure-recovery policy under every fault kind
//! ends on the serial image, and its observable behaviour is pinned.
//!
//! The grid crosses the pinned fuzz corpus × {nonpriv, priv} × the four
//! recovery policies below × {no fault, 20% message loss, node crash,
//! node pause, node partition}. Node faults strike node `min(1, procs-1)`
//! at half the cycle count of the same run without faults, so they land
//! mid-loop whatever the case's length.
//!
//! Two checks per run:
//! 1. the loop arrays equal the `Serial` scenario's (the serial-oracle
//!    image check, here also for `SerialReexec` under node faults and for
//!    `CheckpointRestart` under message loss, which no campaign covers);
//! 2. per policy, one digest over cycles, Busy/Sync/Mem breakdown,
//!    verdict, failure text, iterations, sorted stats and the `Recovery`
//!    trace events equals the pinned value. A change to any recovery rung
//!    that moves a number, a stat or an event shows up here.

use std::path::PathBuf;

use specrt_check::{parse_seed, CanonHasher, CaseSpec, ARR_A, ARR_OUT, NODE_OUTAGE_CYCLES};
use specrt_machine::{
    run_scenario_configured, CheckpointConfig, MachineConfig, RecoveryPolicy, RunResult, Scenario,
};
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind, TraceEvent};
use specrt_spec::SpecVariant;

/// The policies of the grid with the digest pinned for each.
const POLICIES: [(RecoveryPolicy, u64); 4] = [
    (RecoveryPolicy::SerialReexec, 0xd9efe9808aa22459),
    (
        RecoveryPolicy::RetrySpeculative { max_attempts: 2 },
        0x0f5b73f7328a78fa,
    ),
    (
        RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 1 },
        },
        0x9f620c16326448ec,
    ),
    (
        RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 4 },
        },
        0xc2aa43d95231ea15,
    ),
];

const PROTOCOLS: [SpecVariant; 2] = [SpecVariant::NonPriv, SpecVariant::Priv];

const FAULTS: [&str; 5] = ["none", "drop", "crash", "pause", "partition"];

fn corpus_seeds() -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seeds: Vec<u64> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seed"))
        .map(|e| {
            let text = std::fs::read_to_string(e.path()).expect("seed file readable");
            parse_seed(&text).expect("seed parses")
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// The fault plane of one grid cell. `fault_free_cycles` is the length of
/// the same run without faults.
fn faults(kind: &str, case: &CaseSpec, fault_free_cycles: u64) -> FaultConfig {
    let node = |kind| FaultConfig {
        node_fault: Some(NodeFaultConfig {
            kind,
            node: 1.min(case.procs - 1),
            at_cycle: fault_free_cycles / 2,
        }),
        ..FaultConfig::none()
    };
    match kind {
        "none" => FaultConfig::none(),
        "drop" => FaultConfig {
            seed: case.seed.wrapping_add(1),
            drop_ppm: 200_000,
            ..FaultConfig::none()
        },
        "crash" => node(NodeFaultKind::Crash),
        "pause" => node(NodeFaultKind::Pause {
            for_cycles: NODE_OUTAGE_CYCLES,
        }),
        "partition" => node(NodeFaultKind::Partition {
            for_cycles: NODE_OUTAGE_CYCLES,
        }),
        other => unreachable!("unknown fault kind {other}"),
    }
}

/// Folds everything observable about one run's recovery into `h`.
fn digest_into(h: &mut CanonHasher, r: &RunResult) {
    h.write_u64(r.total_cycles.raw());
    h.write_u64(r.breakdown.busy.raw());
    h.write_u64(r.breakdown.sync.raw());
    h.write_u64(r.breakdown.mem.raw());
    h.write_u64(match r.passed {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    h.write_bool(r.failure.is_some());
    h.write_str(r.failure.as_deref().unwrap_or(""));
    h.write_u64(r.iterations);
    for (name, value) in r.stats.iter() {
        h.write_str(name);
        h.write_u64(value);
    }
    for ev in &r.trace {
        if let TraceEvent::Recovery {
            at,
            action,
            attempt,
        } = ev
        {
            h.write_u64(at.raw());
            h.write_str(action);
            h.write_u64(u64::from(*attempt));
        }
    }
}

#[test]
fn every_policy_under_every_fault_ends_on_the_serial_image_with_pinned_behaviour() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10);
    let mut mismatches = Vec::new();
    let mut digests = Vec::new();
    for (policy, _) in POLICIES {
        let mut h = CanonHasher::new();
        for &seed in &seeds {
            let case = CaseSpec::generate(seed);
            for protocol in PROTOCOLS {
                let spec = case.loop_spec(protocol, true);
                let cfg = |faults: FaultConfig| {
                    let mut cfg = MachineConfig::with_procs(case.procs)
                        .with_net(NetConfig::flat().with_faults(faults))
                        .with_recovery(policy);
                    cfg.trace_capacity = 1 << 14;
                    cfg
                };
                let serial =
                    run_scenario_configured(&spec, Scenario::Serial, cfg(FaultConfig::none()));
                let fault_free =
                    run_scenario_configured(&spec, Scenario::Hw, cfg(FaultConfig::none()));
                for kind in FAULTS {
                    let faults = faults(kind, &case, fault_free.total_cycles.raw());
                    let r = run_scenario_configured(&spec, Scenario::Hw, cfg(faults));
                    if !r
                        .final_image
                        .same_contents(&serial.final_image, &[ARR_A, ARR_OUT])
                    {
                        mismatches.push(format!("{policy:?} seed {seed:#x} {protocol:?} {kind}"));
                    }
                    digest_into(&mut h, &r);
                }
            }
        }
        digests.push(h.finish());
    }
    assert!(
        mismatches.is_empty(),
        "runs that did not end on the serial image:\n{}",
        mismatches.join("\n")
    );
    let pinned: Vec<u64> = POLICIES.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        digests
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>(),
        pinned
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>(),
        "recovery behaviour moved (digests per policy, in POLICIES order)"
    );
}
