//! Deterministic message-fault injection for the interconnect.
//!
//! A [`FaultPlane`] sits beside the routing machinery and decides, per
//! message, whether the interconnect delivers it cleanly, drops it,
//! duplicates it, or holds it for extra cycles. Decisions come from a
//! [`SplitMix64`] stream seeded by [`FaultConfig::seed`], so a run's fault
//! pattern is a pure function of the configuration and the (deterministic)
//! message sequence — reproducible at any `--jobs`, in any process.
//!
//! With every rate at zero the plane is inert: [`FaultPlane::decide`]
//! returns [`FaultAction::Deliver`] without drawing from the RNG or
//! touching a counter, so fault-free runs stay byte-identical to the
//! pre-fault-plane golden traces.

use specrt_engine::SplitMix64;

/// One million — the denominator of every fault rate.
pub const PPM: u32 = 1_000_000;

/// The shape of a node-level fault.
///
/// Where the message rates perturb individual messages, a node fault takes
/// a whole processor/home node (or a link cut) out of the conversation:
/// every message to or from the affected node is force-dropped for the
/// fault's lifetime. The sender-side retry watchdog then observes the
/// silence and escalates to a `NodeUnreachable` failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node goes permanently silent at `at_cycle` — a crash. No
    /// message to or from it is ever delivered again.
    Crash,
    /// A GC-like stall: the node is silent for `for_cycles` cycles
    /// starting at `at_cycle`, then resumes. A retry watchdog whose
    /// backoff outlives the pause recovers without any abort.
    Pause {
        /// Length of the stall window in cycles.
        for_cycles: u64,
    },
    /// A link cut isolating the nodes below the cut point from those at or
    /// above it, for `for_cycles` cycles. Traffic within either group
    /// still flows.
    Partition {
        /// Length of the partition window in cycles.
        for_cycles: u64,
    },
}

/// One scheduled node-level fault.
///
/// The blocking decision is a pure function of this configuration and the
/// (src, dst, send-cycle) triple — no RNG draw, no mutable state — so an
/// armed node fault cannot perturb the message-rate decision stream, and a
/// run with `node_fault: None` is byte-identical to one without the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFaultConfig {
    /// What happens to the node.
    pub kind: NodeFaultKind,
    /// The affected node — for [`NodeFaultKind::Partition`] this is the
    /// cut point: nodes `< node` are severed from nodes `>= node`.
    pub node: u32,
    /// First cycle at which the fault is in force.
    pub at_cycle: u64,
}

impl NodeFaultConfig {
    /// Whether a message sent from `src` to `dst` at cycle `at` is
    /// swallowed by this fault.
    pub fn blocks(&self, src: u32, dst: u32, at: u64) -> bool {
        let in_window = |len: u64| at >= self.at_cycle && at - self.at_cycle < len;
        match self.kind {
            NodeFaultKind::Crash => at >= self.at_cycle && (src == self.node || dst == self.node),
            NodeFaultKind::Pause { for_cycles } => {
                in_window(for_cycles) && (src == self.node || dst == self.node)
            }
            NodeFaultKind::Partition { for_cycles } => {
                in_window(for_cycles) && (src < self.node) != (dst < self.node)
            }
        }
    }

    /// The node a sender should suspect when its retries into this fault
    /// are exhausted: the dead/paused node itself, or — for a partition —
    /// the unreachable destination.
    pub fn suspect(&self, dst: u32) -> u32 {
        match self.kind {
            NodeFaultKind::Crash | NodeFaultKind::Pause { .. } => self.node,
            NodeFaultKind::Partition { .. } => dst,
        }
    }

    /// Stable label of the fault kind, for reports and traces.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            NodeFaultKind::Crash => "crash",
            NodeFaultKind::Pause { .. } => "pause",
            NodeFaultKind::Partition { .. } => "partition",
        }
    }
}

/// Fault-injection rates, in parts per million of messages.
///
/// Rates are integers (not floats) so the config stays `Copy + Eq` and a
/// sweep cell can key a report deterministically. The three rates are
/// mutually exclusive per message: a drawn message is classified by one
/// draw against the cumulative thresholds, so `drop_ppm + dup_ppm +
/// delay_ppm` must not exceed [`PPM`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the decision stream. Two runs with the same seed, rates and
    /// message sequence fault the same messages.
    pub seed: u64,
    /// Probability (ppm) a message is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) a message is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) a message is held for [`FaultConfig::delay_cycles`]
    /// extra cycles.
    pub delay_ppm: u32,
    /// Extra transit cycles a delayed message pays.
    pub delay_cycles: u64,
    /// An optional scheduled node-level fault (crash / pause / partition).
    /// Checked before the message-rate draw and entirely stateless, so
    /// `None` leaves every message-rate decision stream untouched.
    pub node_fault: Option<NodeFaultConfig>,
}

impl FaultConfig {
    /// The inert configuration: no faults, no RNG draws, byte-identical
    /// timings to a network without a fault plane.
    pub const fn none() -> Self {
        FaultConfig {
            seed: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        }
    }

    /// Whether any fault can ever fire.
    pub fn enabled(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0 || self.node_fault.is_some()
    }

    /// Checks every rate against the accepted range. Each rate must be in
    /// `0..=1_000_000` ppm and the three rates together must not exceed
    /// [`PPM`] (one classification draw covers all three).
    pub fn validate(&self) -> Result<(), String> {
        for (name, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("dup_ppm", self.dup_ppm),
            ("delay_ppm", self.delay_ppm),
        ] {
            if ppm > PPM {
                return Err(format!(
                    "fault rate {name}={ppm} out of range (accepted range: 0..=1_000_000 ppm)"
                ));
            }
        }
        let sum = u64::from(self.drop_ppm) + u64::from(self.dup_ppm) + u64::from(self.delay_ppm);
        if sum > u64::from(PPM) {
            return Err(format!(
                "fault rates sum to {sum} ppm (drop_ppm + dup_ppm + delay_ppm must not \
                 exceed 1_000_000 ppm)"
            ));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the fault plane decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// The message vanishes in transit; the sender sees nothing.
    Drop,
    /// The message arrives twice (the copy takes its own trip through the
    /// routing layer, so it lands at or after the original).
    Duplicate,
    /// The message arrives `.0` cycles later than routing alone dictates.
    Delay(u64),
}

/// Counts of faults actually injected, for reports and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages classified (only counted while faults are enabled).
    pub decided: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
}

/// The seeded decision stream. Owned by a [`crate::Network`]; single-writer
/// by construction (one simulated machine owns one network), so the draw
/// order — and therefore the fault pattern — follows the simulation's own
/// deterministic message order.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultPlane {
    /// Builds the plane for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside the accepted range (see
    /// [`FaultConfig::validate`]); callers building configs from user
    /// input should call `validate()` first and surface the error.
    pub fn new(cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        FaultPlane {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Classifies the next message. Inert (no RNG draw, no counter) when
    /// every message rate is zero — a node-fault-only configuration leaves
    /// the decision stream untouched, since node faults are decided
    /// statelessly before this draw.
    pub fn decide(&mut self) -> FaultAction {
        if self.cfg.drop_ppm == 0 && self.cfg.dup_ppm == 0 && self.cfg.delay_ppm == 0 {
            return FaultAction::Deliver;
        }
        self.stats.decided += 1;
        let r = self.rng.below(u64::from(PPM)) as u32;
        if r < self.cfg.drop_ppm {
            self.stats.dropped += 1;
            FaultAction::Drop
        } else if r < self.cfg.drop_ppm + self.cfg.dup_ppm {
            self.stats.duplicated += 1;
            FaultAction::Duplicate
        } else if r < self.cfg.drop_ppm + self.cfg.dup_ppm + self.cfg.delay_ppm {
            self.stats.delayed += 1;
            FaultAction::Delay(self.cfg.delay_cycles)
        } else {
            FaultAction::Deliver
        }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_inert() {
        let mut p = FaultPlane::new(FaultConfig::none());
        for _ in 0..100 {
            assert_eq!(p.decide(), FaultAction::Deliver);
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let cfg = FaultConfig {
            seed: 0x5eed,
            drop_ppm: 100_000,
            dup_ppm: 100_000,
            delay_ppm: 100_000,
            delay_cycles: 64,
            node_fault: None,
        };
        let mut a = FaultPlane::new(cfg);
        let mut b = FaultPlane::new(cfg);
        let sa: Vec<_> = (0..1000).map(|_| a.decide()).collect();
        let sb: Vec<_> = (0..1000).map(|_| b.decide()).collect();
        assert_eq!(sa, sb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0, "10% drop rate never fired in 1000");
        assert!(a.stats().duplicated > 0);
        assert!(a.stats().delayed > 0);
    }

    #[test]
    fn rates_roughly_respected() {
        let cfg = FaultConfig {
            seed: 7,
            drop_ppm: 500_000,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        };
        let mut p = FaultPlane::new(cfg);
        for _ in 0..10_000 {
            p.decide();
        }
        let s = p.stats();
        assert_eq!(s.decided, 10_000);
        // 50% ± generous slack.
        assert!((4_000..6_000).contains(&s.dropped), "dropped={}", s.dropped);
    }

    #[test]
    fn delay_carries_configured_cycles() {
        let cfg = FaultConfig {
            seed: 1,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: PPM,
            delay_cycles: 96,
            node_fault: None,
        };
        let mut p = FaultPlane::new(cfg);
        assert_eq!(p.decide(), FaultAction::Delay(96));
    }

    #[test]
    fn out_of_range_rates_are_rejected_with_the_accepted_range() {
        let cfg = FaultConfig {
            drop_ppm: PPM + 1,
            ..FaultConfig::none()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("drop_ppm"), "{err}");
        assert!(err.contains("0..=1_000_000"), "{err}");
        let cfg = FaultConfig {
            drop_ppm: 600_000,
            dup_ppm: 600_000,
            ..FaultConfig::none()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("sum"), "{err}");
        assert!(FaultConfig::none().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plane_construction_panics_on_invalid_rates() {
        let _ = FaultPlane::new(FaultConfig {
            dup_ppm: PPM + 7,
            ..FaultConfig::none()
        });
    }

    #[test]
    fn node_fault_only_plane_draws_no_rng() {
        let cfg = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 1,
                at_cycle: 0,
            }),
            ..FaultConfig::none()
        };
        assert!(cfg.enabled());
        let mut p = FaultPlane::new(cfg);
        for _ in 0..64 {
            assert_eq!(p.decide(), FaultAction::Deliver);
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn crash_blocks_both_directions_forever() {
        let f = NodeFaultConfig {
            kind: NodeFaultKind::Crash,
            node: 2,
            at_cycle: 100,
        };
        assert!(!f.blocks(2, 0, 99), "before onset");
        assert!(f.blocks(2, 0, 100), "from the node");
        assert!(f.blocks(0, 2, 1_000_000), "to the node, forever");
        assert!(!f.blocks(0, 1, 500), "bystanders unaffected");
        assert_eq!(f.suspect(0), 2);
    }

    #[test]
    fn pause_blocks_only_inside_the_window() {
        let f = NodeFaultConfig {
            kind: NodeFaultKind::Pause { for_cycles: 50 },
            node: 1,
            at_cycle: 100,
        };
        assert!(!f.blocks(1, 0, 99));
        assert!(f.blocks(1, 0, 100));
        assert!(f.blocks(0, 1, 149));
        assert!(!f.blocks(0, 1, 150), "window is half-open");
        assert_eq!(f.suspect(0), 1);
    }

    #[test]
    fn partition_cuts_only_cross_group_traffic() {
        let f = NodeFaultConfig {
            kind: NodeFaultKind::Partition { for_cycles: 80 },
            node: 2,
            at_cycle: 10,
        };
        assert!(f.blocks(0, 3, 10), "cross-cut");
        assert!(f.blocks(3, 1, 89), "cross-cut, other direction");
        assert!(!f.blocks(0, 1, 50), "within the low group");
        assert!(!f.blocks(2, 3, 50), "within the high group");
        assert!(!f.blocks(0, 3, 90), "after the window");
        assert_eq!(f.suspect(3), 3, "partition suspects the destination");
    }
}
