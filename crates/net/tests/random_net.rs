//! Property tests for the interconnect's hard guarantees.
//!
//! The protocol algorithms assume in-order delivery per (src, dst) pair
//! (§3.2); the network promises it for every topology and bandwidth
//! setting. These tests drive the network with deterministic random
//! traffic (in-tree SplitMix64) and check the invariant plus bit-exact
//! determinism across replays.

use std::collections::HashMap;

use specrt_engine::{Cycles, SplitMix64};
use specrt_mem::NodeId;
use specrt_net::{Delivery, NetConfig, Network, Topology};

/// Random traffic pattern: `msgs` sends at non-decreasing times between
/// random node pairs. Returns `(src, dst, send_time)` triples.
fn traffic(seed: u64, nodes: u32, msgs: usize, burstiness: u64) -> Vec<(NodeId, NodeId, Cycles)> {
    let mut rng = SplitMix64::new(seed);
    let mut now = 0u64;
    let mut out = Vec::with_capacity(msgs);
    for _ in 0..msgs {
        // Bursty clock: long quiet gaps punctuated by same-cycle pileups.
        if rng.chance(0.3) {
            now += rng.below(burstiness.max(1));
        }
        let src = NodeId(rng.below(u64::from(nodes)) as u32);
        let dst = NodeId(rng.below(u64::from(nodes)) as u32);
        out.push((src, dst, Cycles(now)));
    }
    out
}

fn run(net: &mut Network, pattern: &[(NodeId, NodeId, Cycles)]) -> Vec<Delivery> {
    pattern
        .iter()
        .map(|&(src, dst, at)| net.send(src, dst, at))
        .collect()
}

fn check_in_order(pattern: &[(NodeId, NodeId, Cycles)], deliveries: &[Delivery]) {
    let mut last: HashMap<(u32, u32), Cycles> = HashMap::new();
    for (&(src, dst, at), d) in pattern.iter().zip(deliveries) {
        assert!(
            d.arrive >= at,
            "delivery {d:?} precedes its send time {at:?}"
        );
        let prev = last.entry((src.0, dst.0)).or_insert(Cycles::ZERO);
        assert!(
            d.arrive >= *prev,
            "pair ({src:?} -> {dst:?}) reordered: {:?} after {:?}",
            d.arrive,
            prev
        );
        *prev = d.arrive;
    }
}

#[test]
fn in_order_per_pair_under_random_contention() {
    let topologies = [
        (NetConfig::flat(), "flat/infinite-bw"),
        (NetConfig::flat().with_link_service(8), "flat/contended"),
        (NetConfig::mesh(16), "mesh/default-bw"),
        (NetConfig::mesh(16).with_link_service(64), "mesh/starved"),
        (
            NetConfig {
                topology: Topology::mesh_for(12),
                hop_latency: 5,
                link_service: 16,
                ..NetConfig::flat()
            },
            "mesh3x4/explicit",
        ),
    ];
    for (cfg, label) in topologies {
        for seed in 0..8u64 {
            let nodes = 16;
            let pattern = traffic(0x9E37_79B9 ^ seed, nodes, 2000, 40);
            let mut net = Network::new(cfg, nodes, 74);
            let deliveries = run(&mut net, &pattern);
            check_in_order(&pattern, &deliveries);
            // Under contention the starved configs must actually queue,
            // otherwise the property is vacuous.
            if cfg.link_service >= 16 {
                assert!(
                    net.summary().total_queue > 0,
                    "{label} seed {seed}: no queuing observed — test is vacuous"
                );
            }
        }
    }
}

#[test]
fn replay_is_bit_deterministic() {
    let pattern = traffic(42, 16, 3000, 25);
    let mut a = Network::new(NetConfig::mesh(16), 16, 74);
    let mut b = Network::new(NetConfig::mesh(16), 16, 74);
    assert_eq!(run(&mut a, &pattern), run(&mut b, &pattern));
    assert_eq!(a.summary(), b.summary());
}

#[test]
fn flat_zero_load_matches_calibrated_travel() {
    // The degenerate crossbar must reproduce LatencyConfig::travel (§5.1
    // unloaded calibration): net_oneway between distinct nodes, zero
    // within a node, never any queuing.
    let oneway = 74u64;
    let mut net = Network::new(NetConfig::flat(), 16, oneway);
    let mut rng = SplitMix64::new(1);
    for _ in 0..5000 {
        let src = NodeId(rng.below(16) as u32);
        let dst = NodeId(rng.below(16) as u32);
        let now = Cycles(rng.below(1_000_000));
        let d = net.send(src, dst, now);
        let expect = if src == dst { 0 } else { oneway };
        assert_eq!(d.arrive, now + expect);
        assert_eq!(d.queue, Cycles::ZERO);
    }
    assert_eq!(net.summary().total_queue, 0);
    assert!(net.summary().links.is_empty());
}
