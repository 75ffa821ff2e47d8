//! The contended interconnect: configuration, link occupancy, delivery.

use std::collections::BTreeMap;

use specrt_engine::{Cycles, Resource};
use specrt_mem::NodeId;

use crate::fault::{FaultAction, FaultConfig, FaultPlane, FaultStats};
use crate::topology::{LinkId, Topology};

/// Default cycles a mesh link is occupied per message (a 64-byte line at
/// 16 bytes/cycle plus header). `--link-bw` / [`NetConfig::link_service`]
/// override it.
pub const DEFAULT_MESH_LINK_SERVICE: u64 = 4;

/// Interconnect configuration, carried inside the memory-system config.
///
/// The *unloaded calibration* stays in the latency model (`LatencyConfig`,
/// §5.1): a flat network's one-way latency is always the calibrated
/// `net_oneway`, and a mesh with `hop_latency == 0` derives its per-hop
/// latency from that same calibration (`net_oneway / mean_hops`), so the
/// average unloaded remote access still lands on the paper's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Shape of the interconnect.
    pub topology: Topology,
    /// Per-hop wire+router latency in cycles. Ignored for
    /// [`Topology::Flat`] (the calibrated one-way latency applies); `0` on
    /// a mesh means "derive from the calibration" (see
    /// [`Network::new`]).
    pub hop_latency: u64,
    /// Cycles each message occupies every link it crosses — the inverse
    /// bandwidth. `0` models infinite bandwidth (no contention), which is
    /// the seed's abstraction.
    pub link_service: u64,
    /// Message-fault injection rates ([`FaultConfig::none`] = a perfect
    /// network, the default).
    pub faults: FaultConfig,
}

impl NetConfig {
    /// The degenerate constant-latency crossbar: the seed's network
    /// abstraction, bit-identical to the pre-`specrt-net` timings.
    pub fn flat() -> Self {
        NetConfig {
            topology: Topology::Flat,
            hop_latency: 0,
            link_service: 0,
            faults: FaultConfig::none(),
        }
    }

    /// A 2D mesh sized for `nodes` nodes with calibration-derived hop
    /// latency and the default link bandwidth.
    pub fn mesh(nodes: u32) -> Self {
        NetConfig {
            topology: Topology::mesh_for(nodes),
            hop_latency: 0,
            link_service: DEFAULT_MESH_LINK_SERVICE,
            faults: FaultConfig::none(),
        }
    }

    /// Same topology with a different per-message link occupancy.
    pub fn with_link_service(mut self, service: u64) -> Self {
        self.link_service = service;
        self
    }

    /// Same network with a fault plane attached.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Whether this network can exhibit contention or topology-dependent
    /// latency at all (anything beyond the flat infinite-bandwidth
    /// abstraction).
    pub fn is_contended(&self) -> bool {
        self.link_service > 0 || !matches!(self.topology, Topology::Flat)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::flat()
    }
}

/// What the network did with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message reaches its destination.
    pub arrive: Cycles,
    /// Links crossed.
    pub hops: u32,
    /// The pair's zero-load transit time (hops × per-hop cost).
    pub unloaded: Cycles,
    /// Delay beyond `unloaded`: link queuing plus any in-order hold-back.
    pub queue: Cycles,
}

impl Delivery {
    /// Total transit time (`arrive - send`).
    pub fn total(&self) -> Cycles {
        self.unloaded + self.queue
    }
}

/// Occupancy and queuing observed on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// The link.
    pub link: LinkId,
    /// Cycles the link spent serving messages (utilization numerator).
    pub busy: u64,
    /// Cycles messages spent waiting for the link.
    pub queued: u64,
    /// Messages that crossed the link.
    pub msgs: u64,
}

/// Aggregate view of a run's network traffic, cheap to clone into run
/// results and reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetSummary {
    /// Topology label (`flat`, `mesh 4x4`).
    pub topology: String,
    /// Node count.
    pub nodes: u32,
    /// Remote messages routed.
    pub messages: u64,
    /// Intra-node messages (free; never touch the network).
    pub local_messages: u64,
    /// Total links crossed by all messages.
    pub total_hops: u64,
    /// Total cycles of queuing (link waits + in-order hold-back).
    pub total_queue: u64,
    /// Per-link occupancy, densest first is *not* guaranteed — sorted by
    /// link id; use [`NetSummary::hotspot`] for the worst link.
    pub links: Vec<LinkStat>,
}

impl NetSummary {
    /// The most contended link: max queued cycles, ties broken by busy
    /// cycles then link id (deterministic).
    pub fn hotspot(&self) -> Option<&LinkStat> {
        self.links
            .iter()
            .max_by_key(|l| (l.queued, l.busy, std::cmp::Reverse(l.link)))
    }

    /// Mean hops per remote message.
    pub fn mean_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.messages as f64
        }
    }
}

/// The stateful interconnect one simulated machine owns.
///
/// Guarantees:
///
/// * **Determinism** — delivery times are a pure function of the send
///   history; no randomness, no host-order dependence.
/// * **In-order per (src, dst)** — messages between the same pair of nodes
///   arrive in send order (§3.2's standing assumption). Structurally, a
///   pair's messages follow one deterministic path of FIFO links; on top
///   of that, an explicit hold-back clamps each delivery to no earlier
///   than the pair's previous one.
/// * **Degenerate flat case** — `NetConfig::flat()` reproduces the seed's
///   constant-latency `travel()` exactly: latency `net_oneway` between
///   distinct nodes, zero within a node, zero queuing. Sends then mutate
///   nothing but counters, so timings are byte-identical to the
///   pre-network abstraction.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    nodes: u32,
    /// Per-hop latency actually applied (flat: the calibrated one-way).
    hop_latency: u64,
    links: BTreeMap<LinkId, Resource>,
    /// Last delivery time per (src, dst), for the in-order hold-back.
    last_arrival: BTreeMap<(u32, u32), Cycles>,
    faults: FaultPlane,
    messages: u64,
    local_messages: u64,
    total_hops: u64,
    total_queue: Cycles,
}

impl Network {
    /// Builds the network for `nodes` nodes. `calibrated_oneway` is the
    /// latency model's unloaded one-way network latency (`net_oneway`,
    /// §5.1): it *is* the flat one-way latency, and it seeds the mesh
    /// per-hop latency when `cfg.hop_latency` is zero (per-hop =
    /// `net_oneway / mean_hops`, so the mesh's average unloaded transit
    /// matches the calibration).
    pub fn new(cfg: NetConfig, nodes: u32, calibrated_oneway: u64) -> Self {
        let hop_latency = match cfg.topology {
            Topology::Flat => calibrated_oneway,
            Topology::Mesh2D { .. } => {
                if cfg.hop_latency > 0 {
                    cfg.hop_latency
                } else {
                    let mean = cfg.topology.mean_hops(nodes).max(1.0);
                    ((calibrated_oneway as f64 / mean).round() as u64).max(1)
                }
            }
        };
        Network {
            cfg,
            nodes,
            hop_latency,
            links: BTreeMap::new(),
            last_arrival: BTreeMap::new(),
            faults: FaultPlane::new(cfg.faults),
            messages: 0,
            local_messages: 0,
            total_hops: 0,
            total_queue: Cycles::ZERO,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The per-hop latency actually applied (after calibration).
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Classifies the next *faultable* message (drop / duplicate / delay /
    /// deliver). The protocol layer calls this once per asynchronous
    /// message before routing; synchronous request/reply transactions are
    /// not subjected to faults (they model CPU-blocking accesses whose loss
    /// would hang the simulated processor, not a recoverable message).
    /// Inert — no RNG draw, no state change — when faults are disabled.
    pub fn fault_decide(&mut self) -> FaultAction {
        self.faults.decide()
    }

    /// Faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Whether an armed node-level fault swallows a message sent from
    /// `src` to `dst` at cycle `at`. Stateless — a pure function of the
    /// configuration — so it never perturbs the message-rate decision
    /// stream; returns `None` when the message goes through, and the
    /// suspected node (for watchdog escalation) when it is blocked.
    pub fn node_fault_blocks(&self, src: NodeId, dst: NodeId, at: Cycles) -> Option<u32> {
        let nf = self.cfg.faults.node_fault?;
        if nf.blocks(src.0, dst.0, at.raw()) {
            Some(nf.suspect(dst.0))
        } else {
            None
        }
    }

    /// Zero-load transit time from `src` to `dst`.
    pub fn unloaded(&self, src: NodeId, dst: NodeId) -> Cycles {
        let hops = u64::from(self.cfg.topology.hops(src, dst));
        Cycles(hops * (self.hop_latency + self.cfg.link_service))
    }

    /// Routes one message, reserving every link it crosses, and returns
    /// the delivery. The caller supplies the send time; per-link waits and
    /// the in-order hold-back accumulate into [`Delivery::queue`].
    pub fn send(&mut self, src: NodeId, dst: NodeId, now: Cycles) -> Delivery {
        let _prof = specrt_prof::scope("net.route");
        if src == dst {
            self.local_messages += 1;
            return Delivery {
                arrive: now,
                hops: 0,
                unloaded: Cycles::ZERO,
                queue: Cycles::ZERO,
            };
        }
        let unloaded = self.unloaded(src, dst);
        let hops = self.cfg.topology.hops(src, dst);
        self.messages += 1;
        self.total_hops += u64::from(hops);

        if !self.cfg.is_contended() {
            // Degenerate crossbar: a pure constant-latency function. No
            // link state, no hold-back — order per pair follows from the
            // constant latency itself.
            return Delivery {
                arrive: now + unloaded,
                hops,
                unloaded,
                queue: Cycles::ZERO,
            };
        }

        let service = Cycles(self.cfg.link_service);
        let mut t = now;
        for link in self.cfg.topology.route(src, dst) {
            if self.cfg.link_service > 0 {
                let done = self.links.entry(link).or_default().acquire(t, service);
                t = done;
            }
            t += self.hop_latency;
        }
        // In-order per (src, dst): never deliver before the pair's
        // previous message.
        let slot = self.last_arrival.entry((src.0, dst.0)).or_default();
        let arrive = t.max(*slot);
        *slot = arrive;
        let queue = arrive.saturating_sub(now).saturating_sub(unloaded);
        self.total_queue += queue;
        Delivery {
            arrive,
            hops,
            unloaded,
            queue,
        }
    }

    /// Delivery time a message sent now would get, *without* reserving
    /// anything. Used by the protocol to drain in-flight messages up to a
    /// transaction's arrival before reserving the transaction's own path.
    pub fn probe(&self, src: NodeId, dst: NodeId, now: Cycles) -> Cycles {
        if src == dst {
            return now;
        }
        if !self.cfg.is_contended() {
            return now + self.unloaded(src, dst);
        }
        let service = Cycles(self.cfg.link_service);
        let mut t = now;
        for link in self.cfg.topology.route(src, dst) {
            if self.cfg.link_service > 0 {
                let start = self
                    .links
                    .get(&link)
                    .map(|r| r.next_free())
                    .unwrap_or(Cycles::ZERO)
                    .max(t);
                t = start + service;
            }
            t += self.hop_latency;
        }
        t.max(
            self.last_arrival
                .get(&(src.0, dst.0))
                .copied()
                .unwrap_or(Cycles::ZERO),
        )
    }

    /// Snapshot of the traffic observed so far.
    pub fn summary(&self) -> NetSummary {
        NetSummary {
            topology: self.cfg.topology.label(),
            nodes: self.nodes,
            messages: self.messages,
            local_messages: self.local_messages,
            total_hops: self.total_hops,
            total_queue: self.total_queue.raw(),
            links: self
                .links
                .iter()
                .filter(|(_, r)| r.requests() > 0)
                .map(|(link, r)| LinkStat {
                    link: *link,
                    busy: r.total_busy().raw(),
                    queued: r.total_queued().raw(),
                    msgs: r.requests(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N15: NodeId = NodeId(15);

    #[test]
    fn flat_matches_constant_latency_abstraction() {
        let mut net = Network::new(NetConfig::flat(), 16, 74);
        assert_eq!(net.send(N0, N0, Cycles(100)).arrive, Cycles(100));
        let d = net.send(N0, N1, Cycles(100));
        assert_eq!(d.arrive, Cycles(174));
        assert_eq!(d.queue, Cycles::ZERO);
        assert_eq!(d.hops, 1);
        // Infinite bandwidth: a burst to the same pair never queues.
        for i in 0..8 {
            assert_eq!(net.send(N0, N1, Cycles(200 + i)).queue, Cycles::ZERO);
        }
        assert!(net.summary().links.is_empty(), "no link ever occupied");
    }

    #[test]
    fn mesh_calibrates_hop_latency_from_oneway() {
        let net = Network::new(NetConfig::mesh(16), 16, 74);
        // 4x4 mesh mean distance ≈ 2.67 → per-hop ≈ 28.
        assert_eq!(net.hop_latency(), 28);
        // Explicit hop latency wins.
        let cfg = NetConfig {
            hop_latency: 10,
            ..NetConfig::mesh(16)
        };
        assert_eq!(Network::new(cfg, 16, 74).hop_latency(), 10);
    }

    #[test]
    fn mesh_latency_scales_with_distance() {
        let mut net = Network::new(NetConfig::mesh(16).with_link_service(0), 16, 74);
        let near = net.send(N0, N1, Cycles(0));
        let far = net.send(N0, N15, Cycles(0));
        assert_eq!(near.hops, 1);
        assert_eq!(far.hops, 6);
        assert_eq!(far.unloaded.raw(), 6 * net.hop_latency());
        assert!(far.arrive > near.arrive);
    }

    #[test]
    fn constrained_links_queue_and_report() {
        let mut net = Network::new(NetConfig::mesh(16).with_link_service(32), 16, 74);
        // Two messages sharing the whole path at the same instant: the
        // second pipelines behind the first, one service slot later.
        let a = net.send(N0, N15, Cycles(0));
        let b = net.send(N0, N15, Cycles(0));
        assert_eq!(a.queue, Cycles::ZERO);
        assert_eq!(b.queue, Cycles(32), "pipelined one slot behind a");
        assert_eq!(b.arrive, a.arrive + 32u64);
        let s = net.summary();
        assert_eq!(s.messages, 2);
        assert_eq!(s.total_hops, 12);
        assert!(s.total_queue > 0);
        let hot = s.hotspot().expect("links were used");
        assert_eq!(hot.msgs, 2);
        assert!(hot.queued > 0);
    }

    #[test]
    fn in_order_per_pair_holds_even_for_regressing_sends() {
        let mut net = Network::new(NetConfig::mesh(16).with_link_service(16), 16, 74);
        let a = net.send(N0, N15, Cycles(1000));
        // A later call with an earlier send time must not overtake.
        let b = net.send(N0, N15, Cycles(0));
        assert!(b.arrive >= a.arrive, "{:?} overtook {:?}", b, a);
    }

    #[test]
    fn probe_does_not_reserve() {
        let mut net = Network::new(NetConfig::mesh(16).with_link_service(16), 16, 74);
        let p1 = net.probe(N0, N15, Cycles(0));
        let p2 = net.probe(N0, N15, Cycles(0));
        assert_eq!(p1, p2, "probing must not change state");
        let d = net.send(N0, N15, Cycles(0));
        assert_eq!(d.arrive, p1, "probe predicted the real delivery");
        assert!(net.probe(N0, N15, Cycles(0)) > p1, "send reserved links");
    }
}
