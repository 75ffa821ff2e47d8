//! The machine pool recycles cache hierarchies across configurations.
//!
//! A fuzz case leases machines under many configurations that differ only
//! in processor count, interconnect or node fault, and some of them (a
//! crash at a per-case cycle) never recur. The pool must serve all of them
//! from hierarchies freed by earlier leases of the same cache geometry,
//! so once one round of such leases has run, repeating it builds nothing.
//!
//! This is its own test binary: `pool::counters()` is process-global, and
//! no other test may lease while the second round is counted.

use specrt_machine::{pool, MachineConfig};
use specrt_proto::{MemSystemConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

fn crash_at(at_cycle: u64) -> MemSystemConfig {
    let mut cfg = MachineConfig::with_procs(4).mem;
    cfg.net.faults.node_fault = Some(NodeFaultConfig {
        kind: NodeFaultKind::Crash,
        node: 1,
        at_cycle,
    });
    cfg
}

/// Seven distinct configurations, more than the four whole machines the
/// pool used to keep.
fn configs() -> Vec<MemSystemConfig> {
    let mut cfgs: Vec<MemSystemConfig> =
        (1..=4).map(|p| MachineConfig::with_procs(p).mem).collect();
    cfgs.push(
        MachineConfig::with_procs(4)
            .with_net(NetConfig::mesh(4))
            .mem,
    );
    cfgs.push(crash_at(500));
    cfgs.push(crash_at(1500));
    cfgs
}

#[test]
fn a_repeated_round_of_distinct_configs_builds_nothing() {
    let cfgs = configs();
    for cfg in &cfgs {
        drop(pool::lease(*cfg));
    }
    let (builds, reuses) = pool::counters();
    for cfg in &cfgs {
        let leased = pool::lease(*cfg);
        assert_eq!(leased.procs(), cfg.procs);
    }
    let (builds_after, reuses_after) = pool::counters();
    assert_eq!(
        builds_after - builds,
        0,
        "the second round rebuilt hierarchies it had freed"
    );
    assert_eq!(reuses_after - reuses, cfgs.len() as u64);
}
