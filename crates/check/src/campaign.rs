//! Deterministic fault-injection campaign: sweep the interconnect fault
//! plane over generated loops and prove the resilience story end to end.
//!
//! A campaign is a grid of *cells* — fault kind (`drop` / `duplicate` /
//! `delay`) × injection rate (ppm) × fault seed. Every cell runs the same
//! set of generated [`CaseSpec`] loops on the hardware scenario under a
//! lossy interconnect and checks the one property faults must never break:
//! **the final memory image equals the serial oracle's in every run** —
//! whether the loop completed speculatively, recovered through the
//! watchdog's retransmissions, re-ran under
//! [`RecoveryPolicy::RetrySpeculative`], or fell back to the paper's serial
//! safety net.
//!
//! Alongside the safety check the campaign produces a *degradation report*
//! per cell: completion rate (runs that still passed speculatively), mean
//! retransmissions per run, and added latency relative to the fault-free
//! baseline of the same loops. [`CampaignReport::render_json`] is a
//! deterministic JSON document; cells fan out over a [`specrt_par`] worker
//! pool and merge in grid order, so the rendering is byte-identical for
//! every `--jobs` value (a CI cross-check pins this).

use specrt_machine::{
    run_scenario_configured, CheckpointConfig, MachineConfig, RecoveryPolicy, RunResult, Scenario,
};
use specrt_mem::MemoryImage;
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::{fault, SpecVariant};

use crate::generate::{CaseSpec, ARR_A, ARR_OUT};

/// The network fault kinds a campaign sweeps, in report order.
pub const FAULT_KINDS: [&str; 3] = ["drop", "duplicate", "delay"];

/// Extra in-flight cycles the `delay` kind adds to an affected message.
pub const DELAY_CYCLES: u64 = 2_000;

/// The node-fault kinds the node grid sweeps, in report order.
pub const NODE_FAULT_KINDS: [&str; 3] = ["crash", "pause", "partition"];

/// Outage length of `pause` and `partition` node-grid cells.
pub const NODE_OUTAGE_CYCLES: u64 = 60_000;

/// An `at_cycle` far beyond any run's length: the configured fault never
/// strikes, and the cell doubles as the inertness gate — it must be
/// cycle-exact against the fault-free baseline of the same recovery policy.
pub const NODE_FAULT_NEVER: u64 = u64::MAX / 2;

/// Campaign grid parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Generated case seeds `0..cases` (the hand-written templates first).
    pub cases: u64,
    /// Fault-plane seeds per (kind, rate) cell.
    pub fault_seeds: u64,
    /// Injection rates swept, in parts per million of messages affected.
    /// Rate `0` cells double as the regression gate: they must behave
    /// byte-identically to the fault-free baseline.
    pub rates_ppm: Vec<u32>,
    /// Failure-recovery policy of every hardware run (and of the fault-free
    /// baseline, so latency ratios compare like with like).
    pub recovery: RecoveryPolicy,
    /// Optional node-level fault grid (crash / pause / partition), run in
    /// addition to the message-level grid and reported as `node_cells`.
    pub node_grid: Option<NodeGridConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cases: 6,
            fault_seeds: 2,
            rates_ppm: vec![0, 50_000, 200_000],
            recovery: RecoveryPolicy::RetrySpeculative { max_attempts: 1 },
            node_grid: None,
        }
    }
}

/// The node-fault grid: `kind × node × at_cycle` cells, each running every
/// case seed under both protocols with a single node crashed, paused, or
/// partitioned off at `at_cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGridConfig {
    /// Node ids struck by the fault (clamped per case to `procs - 1` so a
    /// grid spanning large machines stays meaningful on small ones).
    pub nodes: Vec<u32>,
    /// Cycle offsets the fault activates at. Include [`NODE_FAULT_NEVER`]
    /// to pin the inertness gate.
    pub at_cycles: Vec<u64>,
    /// Recovery policy of the node runs (and of their fault-free baseline).
    pub recovery: RecoveryPolicy,
}

impl Default for NodeGridConfig {
    fn default() -> Self {
        NodeGridConfig {
            nodes: vec![1],
            at_cycles: vec![0, 2_000, NODE_FAULT_NEVER],
            recovery: RecoveryPolicy::CheckpointRestart {
                checkpoint: CheckpointConfig { every_iters: 4 },
            },
        }
    }
}

/// Stable single-token rendering of a recovery policy for the JSON report.
fn recovery_label(r: RecoveryPolicy) -> String {
    match r {
        RecoveryPolicy::SerialReexec => "serial-reexec".to_string(),
        RecoveryPolicy::RetrySpeculative { max_attempts } => {
            format!("retry-speculative({max_attempts})")
        }
        RecoveryPolicy::CheckpointRestart { checkpoint } => {
            format!("checkpoint-restart({})", checkpoint.every_iters)
        }
    }
}

/// The two hardware protocols every case runs under.
const PROTOCOLS: [SpecVariant; 2] = [SpecVariant::NonPriv, SpecVariant::Priv];

/// Aggregate outcome of one campaign cell (kind × rate × fault seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Fault kind (one of [`FAULT_KINDS`]).
    pub kind: &'static str,
    /// Injection rate in ppm.
    pub rate_ppm: u32,
    /// Fault-plane seed of the cell.
    pub fault_seed: u64,
    /// Hardware runs executed (cases × protocols).
    pub runs: u64,
    /// Runs whose speculation passed (no serial fallback).
    pub speculative_passes: u64,
    /// Runs that aborted and took the serial safety net.
    pub serial_fallbacks: u64,
    /// Runs whose final image differed from the serial oracle. Any nonzero
    /// value is a correctness bug — faults may cost time, never answers.
    pub image_mismatches: u64,
    /// Messages the fault plane dropped / duplicated / extra-delayed.
    pub faults_injected: u64,
    /// Watchdog retransmissions across all runs.
    pub resends: u64,
    /// Speculative loop re-runs taken by the recovery policy.
    pub reruns: u64,
    /// Watchdog escalations (every transmission of a message lost).
    pub exhausted: u64,
    /// Summed machine cycles of the cell's runs.
    pub total_cycles: u64,
    /// Summed cycles of the same runs on the fault-free interconnect.
    pub baseline_cycles: u64,
}

/// Aggregate outcome of one node-fault cell (kind × node × at_cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCellReport {
    /// Node-fault kind (one of [`NODE_FAULT_KINDS`]).
    pub kind: &'static str,
    /// Node struck (before per-case clamping).
    pub node: u32,
    /// Cycle the fault activates at.
    pub at_cycle: u64,
    /// Hardware runs executed (cases × protocols).
    pub runs: u64,
    /// Runs whose speculation passed without any recovery.
    pub speculative_passes: u64,
    /// Runs that recovered through a checkpoint restart.
    pub checkpoint_restores: u64,
    /// Runs that ended in a serial re-execution (whole loop or suffix).
    pub serial_fallbacks: u64,
    /// Runs whose final image differed from the serial oracle (must be 0).
    pub image_mismatches: u64,
    /// Messages the node fault swallowed across all runs.
    pub swallowed: u64,
    /// Watchdog escalations to `NodeUnreachable`.
    pub unreachable: u64,
    /// Checkpoint snapshots taken.
    pub snapshots: u64,
    /// Watchdog retransmissions across all runs.
    pub resends: u64,
    /// Summed machine cycles of the cell's runs.
    pub total_cycles: u64,
    /// Summed cycles of the same runs on the fault-free interconnect
    /// (under the node grid's recovery policy).
    pub baseline_cycles: u64,
}

/// Outcome of a whole campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// The grid that was run.
    pub cfg: CampaignConfig,
    /// Per-cell outcomes in grid order (kind, then rate, then fault seed).
    pub cells: Vec<CellReport>,
    /// Node-fault cells in grid order (kind, then node, then at_cycle);
    /// empty when the campaign ran without a node grid.
    pub node_cells: Vec<NodeCellReport>,
    /// Speculative passes of the fault-free baseline (same cases,
    /// protocols and recovery policy — the completion rate faults are
    /// judged against).
    pub baseline_passes: u64,
    /// Runs per cell (cases × protocols).
    pub runs_per_cell: u64,
}

impl CampaignReport {
    /// Whether every run of every cell reproduced the serial oracle image.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.image_mismatches == 0)
            && self.node_cells.iter().all(|c| c.image_mismatches == 0)
    }

    /// Total image mismatches (must be zero).
    pub fn image_mismatches(&self) -> u64 {
        self.cells.iter().map(|c| c.image_mismatches).sum::<u64>()
            + self
                .node_cells
                .iter()
                .map(|c| c.image_mismatches)
                .sum::<u64>()
    }

    /// Deterministic JSON rendering — the `BENCH_faults.json` artifact.
    /// Stable key order, integers except the two fixed-precision ratios,
    /// byte-identical across worker counts.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"campaign\": {");
        let _ = write!(
            out,
            "\"cases\": {}, \"fault_seeds\": {}, \"rates_ppm\": {:?}, \
             \"kinds\": [\"drop\", \"duplicate\", \"delay\"], \
             \"protocols\": [\"nonpriv\", \"priv\"], \
             \"recovery\": \"{}\", \"runs_per_cell\": {}, \
             \"baseline_passes\": {}",
            self.cfg.cases,
            self.cfg.fault_seeds,
            self.cfg.rates_ppm,
            recovery_label(self.cfg.recovery),
            self.runs_per_cell,
            self.baseline_passes,
        );
        if let Some(ng) = &self.cfg.node_grid {
            let _ = write!(
                out,
                ", \"node_grid\": {{\"kinds\": [\"crash\", \"pause\", \"partition\"], \
                 \"nodes\": {:?}, \"at_cycles\": {:?}, \"recovery\": \"{}\"}}",
                ng.nodes,
                ng.at_cycles,
                recovery_label(ng.recovery),
            );
        }
        out.push_str("},\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let added_pct = if c.baseline_cycles > 0 {
                (c.total_cycles as f64 - c.baseline_cycles as f64) * 100.0
                    / c.baseline_cycles as f64
            } else {
                0.0
            };
            let _ = write!(
                out,
                "    {{\"kind\": \"{}\", \"rate_ppm\": {}, \"fault_seed\": {}, \
                 \"runs\": {}, \"speculative_passes\": {}, \"serial_fallbacks\": {}, \
                 \"image_mismatches\": {}, \"faults_injected\": {}, \"resends\": {}, \
                 \"reruns\": {}, \"exhausted\": {}, \"total_cycles\": {}, \
                 \"baseline_cycles\": {}, \"added_latency_pct\": {:.2}}}",
                c.kind,
                c.rate_ppm,
                c.fault_seed,
                c.runs,
                c.speculative_passes,
                c.serial_fallbacks,
                c.image_mismatches,
                c.faults_injected,
                c.resends,
                c.reruns,
                c.exhausted,
                c.total_cycles,
                c.baseline_cycles,
                added_pct,
            );
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"node_cells\": [\n");
        for (i, c) in self.node_cells.iter().enumerate() {
            let added_pct = if c.baseline_cycles > 0 {
                (c.total_cycles as f64 - c.baseline_cycles as f64) * 100.0
                    / c.baseline_cycles as f64
            } else {
                0.0
            };
            let _ = write!(
                out,
                "    {{\"kind\": \"{}\", \"node\": {}, \"at_cycle\": {}, \"runs\": {}, \
                 \"speculative_passes\": {}, \"checkpoint_restores\": {}, \
                 \"serial_fallbacks\": {}, \"image_mismatches\": {}, \"swallowed\": {}, \
                 \"unreachable\": {}, \"snapshots\": {}, \"resends\": {}, \
                 \"total_cycles\": {}, \"baseline_cycles\": {}, \
                 \"added_latency_pct\": {:.2}}}",
                c.kind,
                c.node,
                c.at_cycle,
                c.runs,
                c.speculative_passes,
                c.checkpoint_restores,
                c.serial_fallbacks,
                c.image_mismatches,
                c.swallowed,
                c.unreachable,
                c.snapshots,
                c.resends,
                c.total_cycles,
                c.baseline_cycles,
                added_pct,
            );
            out.push_str(if i + 1 < self.node_cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"summary\": {");
        let runs: u64 = self.cells.iter().map(|c| c.runs).sum();
        let passes: u64 = self.cells.iter().map(|c| c.speculative_passes).sum();
        let resends: u64 = self.cells.iter().map(|c| c.resends).sum();
        let completion = if runs > 0 {
            passes as f64 * 100.0 / runs as f64
        } else {
            100.0
        };
        let mean_resends = if runs > 0 {
            resends as f64 / runs as f64
        } else {
            0.0
        };
        let node_runs: u64 = self.node_cells.iter().map(|c| c.runs).sum();
        let node_restores: u64 = self.node_cells.iter().map(|c| c.checkpoint_restores).sum();
        let node_unreachable: u64 = self.node_cells.iter().map(|c| c.unreachable).sum();
        let _ = write!(
            out,
            "\"runs\": {}, \"image_mismatches\": {}, \"completion_rate_pct\": {:.2}, \
             \"mean_resends_per_run\": {:.4}, \"node_runs\": {}, \
             \"node_checkpoint_restores\": {}, \"node_unreachable\": {}",
            runs,
            self.image_mismatches(),
            completion,
            mean_resends,
            node_runs,
            node_restores,
            node_unreachable,
        );
        out.push_str("}\n}\n");
        out
    }
}

/// The fault plane of one cell. Rates are mutually exclusive per kind so a
/// cell isolates one failure mode; the seed is mixed with the case seed so
/// every run draws an independent — but reproducible — decision stream.
fn cell_faults(kind: &'static str, rate_ppm: u32, fault_seed: u64, case_seed: u64) -> FaultConfig {
    let seed = fault_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(case_seed.rotate_left(17))
        .wrapping_add(1);
    match kind {
        "drop" => FaultConfig {
            seed,
            drop_ppm: rate_ppm,
            ..FaultConfig::none()
        },
        "duplicate" => FaultConfig {
            seed,
            dup_ppm: rate_ppm,
            ..FaultConfig::none()
        },
        "delay" => FaultConfig {
            seed,
            delay_ppm: rate_ppm,
            delay_cycles: DELAY_CYCLES,
            ..FaultConfig::none()
        },
        other => unreachable!("unknown fault kind {other}"),
    }
}

/// The fault plane of one node-grid cell: a single node-level fault, no
/// message-level rates (node faults are pure functions of the topology and
/// the clock, so these cells draw no randomness at all).
fn node_cell_faults(kind: &'static str, node: u32, at_cycle: u64) -> FaultConfig {
    let kind = match kind {
        "crash" => NodeFaultKind::Crash,
        "pause" => NodeFaultKind::Pause {
            for_cycles: NODE_OUTAGE_CYCLES,
        },
        "partition" => NodeFaultKind::Partition {
            for_cycles: NODE_OUTAGE_CYCLES,
        },
        other => unreachable!("unknown node fault kind {other}"),
    };
    FaultConfig {
        node_fault: Some(NodeFaultConfig {
            kind,
            node,
            at_cycle,
        }),
        ..FaultConfig::none()
    }
}

fn machine_cfg(procs: u32, recovery: RecoveryPolicy, faults: FaultConfig) -> MachineConfig {
    MachineConfig::with_procs(procs)
        .with_net(NetConfig::flat().with_faults(faults))
        .with_recovery(recovery)
}

fn hw_run(case: &CaseSpec, protocol: SpecVariant, cfg: MachineConfig) -> RunResult {
    run_scenario_configured(&case.loop_spec(protocol, true), Scenario::Hw, cfg)
}

/// One case's precomputed ground truth: the serial image plus the fault-free
/// hardware runs it is compared against.
struct Baseline {
    case: CaseSpec,
    serial: MemoryImage,
    /// Per protocol (in [`PROTOCOLS`] order): (passed speculatively, cycles).
    fault_free: Vec<(bool, u64)>,
}

/// Runs the campaign grid over `jobs` worker threads. Deterministic: the
/// report (and its JSON rendering) is byte-identical for every `jobs ≥ 1`.
pub fn run_campaign(cfg: &CampaignConfig, jobs: usize) -> CampaignReport {
    // Ground truth first: serial oracle image and fault-free hardware
    // timing per case, computed once and shared by every cell.
    let case_seeds: Vec<u64> = (0..cfg.cases).collect();
    let recovery = cfg.recovery;
    // Replicate the caller's active fault injection onto every worker
    // thread (it is thread-local), as the fuzzer does.
    let injected = fault::current();
    let baselines: Vec<Baseline> = specrt_par::par_map(jobs, &case_seeds, |_, &seed| {
        let _prof = specrt_prof::scope("campaign.baseline");
        let _guard = injected.map(fault::Injected::new);
        let case = CaseSpec::generate(seed);
        let serial = run_scenario_configured(
            &case.loop_spec(SpecVariant::NonPriv, true),
            Scenario::Serial,
            machine_cfg(case.procs, recovery, FaultConfig::none()),
        )
        .final_image;
        let fault_free = PROTOCOLS
            .iter()
            .map(|&protocol| {
                let r = hw_run(
                    &case,
                    protocol,
                    machine_cfg(case.procs, recovery, FaultConfig::none()),
                );
                (r.passed == Some(true), r.total_cycles.raw())
            })
            .collect();
        Baseline {
            case,
            serial,
            fault_free,
        }
    });
    let baseline_passes = baselines
        .iter()
        .flat_map(|b| &b.fault_free)
        .filter(|(passed, _)| *passed)
        .count() as u64;

    // The grid, in report order.
    let mut grid: Vec<(&'static str, u32, u64)> = Vec::new();
    for kind in FAULT_KINDS {
        for &rate in &cfg.rates_ppm {
            for fault_seed in 0..cfg.fault_seeds {
                grid.push((kind, rate, fault_seed));
            }
        }
    }

    let cells = specrt_par::par_map(jobs, &grid, |_, &(kind, rate_ppm, fault_seed)| {
        let _prof = specrt_prof::scope("campaign.cell");
        let _guard = injected.map(fault::Injected::new);
        let mut cell = CellReport {
            kind,
            rate_ppm,
            fault_seed,
            runs: 0,
            speculative_passes: 0,
            serial_fallbacks: 0,
            image_mismatches: 0,
            faults_injected: 0,
            resends: 0,
            reruns: 0,
            exhausted: 0,
            total_cycles: 0,
            baseline_cycles: 0,
        };
        for b in &baselines {
            let faults = cell_faults(kind, rate_ppm, fault_seed, b.case.seed);
            for (pi, &protocol) in PROTOCOLS.iter().enumerate() {
                let r = hw_run(
                    &b.case,
                    protocol,
                    machine_cfg(b.case.procs, recovery, faults),
                );
                cell.runs += 1;
                match r.passed {
                    Some(true) => cell.speculative_passes += 1,
                    _ => cell.serial_fallbacks += 1,
                }
                if !r.final_image.same_contents(&b.serial, &[ARR_A, ARR_OUT]) {
                    cell.image_mismatches += 1;
                }
                cell.faults_injected += r.stats.get("fault.dropped")
                    + r.stats.get("fault.duplicated")
                    + r.stats.get("fault.delayed");
                cell.resends += r.stats.get("retry.resends");
                cell.reruns += r.stats.get("retry.speculative_reruns");
                cell.exhausted += r.stats.get("retry.exhausted");
                cell.total_cycles += r.total_cycles.raw();
                cell.baseline_cycles += b.fault_free[pi].1;
            }
        }
        cell
    });

    // The node-fault grid, when configured. It has its own fault-free
    // baseline: the node recovery policy (checkpoint restart by default)
    // clamps stamp windows and pays snapshot barriers, so its cycles differ
    // from the message grid's baseline even with no fault in sight.
    let node_cells = match &cfg.node_grid {
        None => Vec::new(),
        Some(ng) => {
            let node_recovery = ng.recovery;
            let node_baselines: Vec<Baseline> =
                specrt_par::par_map(jobs, &case_seeds, |_, &seed| {
                    let _prof = specrt_prof::scope("campaign.node_baseline");
                    let _guard = injected.map(fault::Injected::new);
                    let case = CaseSpec::generate(seed);
                    let serial = run_scenario_configured(
                        &case.loop_spec(SpecVariant::NonPriv, true),
                        Scenario::Serial,
                        machine_cfg(case.procs, node_recovery, FaultConfig::none()),
                    )
                    .final_image;
                    let fault_free = PROTOCOLS
                        .iter()
                        .map(|&protocol| {
                            let r = hw_run(
                                &case,
                                protocol,
                                machine_cfg(case.procs, node_recovery, FaultConfig::none()),
                            );
                            (r.passed == Some(true), r.total_cycles.raw())
                        })
                        .collect();
                    Baseline {
                        case,
                        serial,
                        fault_free,
                    }
                });

            let mut node_grid: Vec<(&'static str, u32, u64)> = Vec::new();
            for kind in NODE_FAULT_KINDS {
                for &node in &ng.nodes {
                    for &at_cycle in &ng.at_cycles {
                        node_grid.push((kind, node, at_cycle));
                    }
                }
            }

            specrt_par::par_map(jobs, &node_grid, |_, &(kind, node, at_cycle)| {
                let _prof = specrt_prof::scope("campaign.node_cell");
                let _guard = injected.map(fault::Injected::new);
                let mut cell = NodeCellReport {
                    kind,
                    node,
                    at_cycle,
                    runs: 0,
                    speculative_passes: 0,
                    checkpoint_restores: 0,
                    serial_fallbacks: 0,
                    image_mismatches: 0,
                    swallowed: 0,
                    unreachable: 0,
                    snapshots: 0,
                    resends: 0,
                    total_cycles: 0,
                    baseline_cycles: 0,
                };
                for b in &node_baselines {
                    // Keep the struck node on the machine: a grid written
                    // for 4 processors still means something on a 2-proc
                    // case.
                    let node = node.min(b.case.procs - 1);
                    let faults = node_cell_faults(kind, node, at_cycle);
                    for (pi, &protocol) in PROTOCOLS.iter().enumerate() {
                        let r = hw_run(
                            &b.case,
                            protocol,
                            machine_cfg(b.case.procs, node_recovery, faults),
                        );
                        cell.runs += 1;
                        let restores = r.stats.get("checkpoint.restores");
                        match r.passed {
                            Some(true) if restores == 0 => cell.speculative_passes += 1,
                            Some(true) => cell.checkpoint_restores += 1,
                            _ => cell.serial_fallbacks += 1,
                        }
                        if !r.final_image.same_contents(&b.serial, &[ARR_A, ARR_OUT]) {
                            cell.image_mismatches += 1;
                        }
                        cell.swallowed += r.stats.get("fault.node.dropped");
                        cell.unreachable += r.stats.get("fault.node.unreachable");
                        cell.snapshots += r.stats.get("checkpoint.snapshots");
                        cell.resends += r.stats.get("retry.resends");
                        cell.total_cycles += r.total_cycles.raw();
                        cell.baseline_cycles += b.fault_free[pi].1;
                    }
                }
                cell
            })
        }
    };

    CampaignReport {
        cfg: cfg.clone(),
        cells,
        node_cells,
        baseline_passes,
        runs_per_cell: cfg.cases * PROTOCOLS.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            cases: 4,
            fault_seeds: 1,
            rates_ppm: vec![0, 200_000],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn every_run_reproduces_the_serial_oracle() {
        let r = run_campaign(&small(), 1);
        assert!(
            r.ok(),
            "image mismatches under faults:\n{}",
            r.render_json()
        );
        assert_eq!(r.cells.len(), 3 * 2); // kinds × rates (1 seed)
        assert!(r.cells.iter().all(|c| c.runs == r.runs_per_cell));
    }

    #[test]
    fn zero_rate_cells_match_the_fault_free_baseline_exactly() {
        let r = run_campaign(&small(), 1);
        for c in r.cells.iter().filter(|c| c.rate_ppm == 0) {
            assert_eq!(c.faults_injected, 0, "{c:?}");
            assert_eq!(c.resends, 0, "{c:?}");
            assert_eq!(
                c.total_cycles, c.baseline_cycles,
                "fault plane at rate 0 must be inert: {c:?}"
            );
        }
    }

    #[test]
    fn nonzero_rates_actually_inject_faults() {
        let r = run_campaign(&small(), 1);
        let injected: u64 = r
            .cells
            .iter()
            .filter(|c| c.rate_ppm > 0)
            .map(|c| c.faults_injected)
            .sum();
        assert!(
            injected > 0,
            "20% cells injected nothing:\n{}",
            r.render_json()
        );
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let cfg = small();
        let one = run_campaign(&cfg, 1).render_json();
        for jobs in [2, 4] {
            assert_eq!(run_campaign(&cfg, jobs).render_json(), one, "jobs={jobs}");
        }
    }

    /// A campaign with a node grid: enough cases to include template 8
    /// (whose cross-node clean-line reads generate the asynchronous update
    /// traffic node faults swallow), small message grid.
    fn small_nodes() -> CampaignConfig {
        CampaignConfig {
            cases: 9,
            fault_seeds: 1,
            rates_ppm: vec![0],
            node_grid: Some(NodeGridConfig::default()),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn node_grid_runs_reproduce_the_serial_oracle() {
        let r = run_campaign(&small_nodes(), 1);
        assert!(r.ok(), "node-fault image mismatches:\n{}", r.render_json());
        // kinds (3) × nodes (1) × at_cycles (3).
        assert_eq!(r.node_cells.len(), 9);
        assert!(r.node_cells.iter().all(|c| c.runs == r.runs_per_cell));
        // At least one cell actually swallowed traffic and escalated.
        let unreachable: u64 = r.node_cells.iter().map(|c| c.unreachable).sum();
        assert!(
            unreachable > 0,
            "no cell escalated to NodeUnreachable:\n{}",
            r.render_json()
        );
    }

    #[test]
    fn never_firing_node_cells_are_cycle_exact() {
        let r = run_campaign(&small_nodes(), 1);
        for c in r
            .node_cells
            .iter()
            .filter(|c| c.at_cycle == NODE_FAULT_NEVER)
        {
            assert_eq!(c.swallowed, 0, "{c:?}");
            assert_eq!(c.unreachable, 0, "{c:?}");
            assert_eq!(
                c.total_cycles, c.baseline_cycles,
                "an armed-but-never-firing node fault must be inert: {c:?}"
            );
        }
    }

    #[test]
    fn node_report_is_byte_identical_across_worker_counts() {
        let cfg = small_nodes();
        let one = run_campaign(&cfg, 1).render_json();
        assert_eq!(run_campaign(&cfg, 3).render_json(), one);
    }
    #[test]
    fn checkpoint_restart_alone_never_corrupts_the_image() {
        // Regression: forcing stamp windows (checkpoint snapshots) with no
        // fault armed used to let stamped-priv private copies survive the
        // window barrier, serving stale data in the next window while the
        // cleared stamps erased the conflict evidence — a silently wrong
        // image.  Every template must match the serial oracle even when
        // the run is chopped into tiny checkpoint windows.
        for seed in 9u64..12 {
            let case = CaseSpec::generate(seed);
            let recovery = RecoveryPolicy::CheckpointRestart {
                checkpoint: CheckpointConfig { every_iters: 4 },
            };
            let serial = run_scenario_configured(
                &case.loop_spec(SpecVariant::NonPriv, true),
                Scenario::Serial,
                machine_cfg(case.procs, recovery, FaultConfig::none()),
            );
            for protocol in [SpecVariant::NonPriv, SpecVariant::Priv] {
                let r = hw_run(
                    &case,
                    protocol,
                    machine_cfg(case.procs, recovery, FaultConfig::none()),
                );
                assert!(
                    r.final_image.same_contents(
                        &serial.final_image,
                        &[crate::generate::ARR_A, crate::generate::ARR_OUT]
                    ),
                    "seed {seed} {protocol:?}: checkpointed run diverged from serial"
                );
            }
        }
    }
}
