//! The differential check: one generated case, every execution mode, one
//! ground truth.
//!
//! For a [`CaseSpec`] this module
//!
//! 1. traces every iteration functionally ([`specrt_ir::trace_iteration`])
//!    to obtain the per-iteration access sequences on the array under test,
//! 2. derives the *expected* verdict of each protocol from the trace oracle
//!    in `specrt_lrpd::oracle` (plus a direct shadow replay for the software
//!    baseline),
//! 3. runs the loop on the full machine under the non-privatization
//!    protocol, both privatization variants, and the software LRPD test,
//! 4. asserts every verdict matches its expectation and every final memory
//!    image matches the serial run.
//!
//! The serial image comparison is unconditional: a passed speculation must
//! have produced the serial result, and a failed one must have restored and
//! serially re-executed — either way the observable memory is the serial
//! one. Protocols may be *conservative* only where timing decides the
//! verdict (dynamic schedules); there the verdict assertion is skipped and
//! only the image is checked.

use specrt_engine::StatSet;
use specrt_ir::{trace_iteration, AccessKind, MapMemory};
use specrt_lrpd::oracle::nonpriv_envelope_holds;
use specrt_lrpd::{analyze_iteration_traces, LrpdShadow};
use specrt_machine::{
    run_scenario, run_scenario_configured, CheckpointConfig, MachineConfig, RecoveryPolicy,
    RunResult, Scenario, SwVariant,
};
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::SpecVariant;

use crate::campaign::NODE_OUTAGE_CYCLES;
use crate::generate::{CaseSpec, ARR_A, ARR_OUT};

/// One disagreement between a machine run and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The run's pass/fail verdict differs from the oracle's expectation.
    Verdict {
        /// Scenario label (e.g. `"hw-nonpriv"`).
        scenario: &'static str,
        /// What the oracle says the verdict must be.
        expected: bool,
        /// What the machine reported (`None`: scenario reports no verdict).
        got: Option<bool>,
    },
    /// The run's final memory image differs from the serial run's.
    Image {
        /// Scenario label.
        scenario: &'static str,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Verdict {
                scenario,
                expected,
                got,
            } => write!(f, "{scenario}: verdict {got:?}, oracle expected {expected}"),
            Mismatch::Image { scenario } => {
                write!(f, "{scenario}: final memory image differs from serial")
            }
        }
    }
}

/// Outcome of differentially checking one case.
#[derive(Debug)]
pub struct CaseResult {
    /// Every oracle disagreement found (empty = case passed).
    pub mismatches: Vec<Mismatch>,
    /// Merged protocol statistics of the hardware runs (race-case coverage
    /// accounting).
    pub stats: StatSet,
}

impl CaseResult {
    /// Whether the machine agreed with the oracle everywhere.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Per-iteration access sequences on the array under test, obtained by
/// functional (serial-order) execution.
pub fn oracle_traces(case: &CaseSpec) -> Vec<Vec<(u64, AccessKind)>> {
    let _prof = specrt_prof::scope("fuzz.oracle");
    let body = case.body();
    let mut mem = MapMemory::new();
    (0..case.iters())
        .map(|i| {
            let (trace, _busy) =
                trace_iteration(&body, i, 0, &mut mem).expect("generated body executes");
            trace
                .iter()
                .filter(|t| t.arr == ARR_A)
                .map(|t| (t.idx, t.kind))
                .collect()
        })
        .collect()
}

/// The software LRPD expectation: replay the trace into one global shadow
/// (marking in serial order is equivalent to per-processor marking plus
/// merging — the test is order-independent) and run the analysis phase.
fn sw_expected(case: &CaseSpec, traces: &[Vec<(u64, AccessKind)>]) -> bool {
    let mut shadow = LrpdShadow::new(case.elems);
    for (i, tr) in traces.iter().enumerate() {
        for &(e, kind) in tr {
            match kind {
                AccessKind::Read => shadow.mark_read(e, i as u64 + 1),
                AccessKind::Write => shadow.mark_write(e, i as u64 + 1),
            }
        }
    }
    shadow.analyze(true).passed()
}

/// The no-read-in privatization expectation (Fig. 5-b state): FAIL iff some
/// element is both written during the loop and read-first (not covered by an
/// earlier write of the *same iteration*) somewhere.
fn priv3_expected(traces: &[Vec<(u64, AccessKind)>]) -> bool {
    use std::collections::HashSet;
    let mut written: HashSet<u64> = HashSet::new();
    let mut uncovered_read: HashSet<u64> = HashSet::new();
    for tr in traces {
        let mut covered: HashSet<u64> = HashSet::new();
        for &(e, kind) in tr {
            match kind {
                AccessKind::Read => {
                    if !covered.contains(&e) {
                        uncovered_read.insert(e);
                    }
                }
                AccessKind::Write => {
                    covered.insert(e);
                    written.insert(e);
                }
            }
        }
    }
    written.is_disjoint(&uncovered_read)
}

fn check_one(
    label: &'static str,
    run: &RunResult,
    serial: &RunResult,
    expected: Option<bool>,
    image_ids: &[specrt_ir::ArrayId],
    out: &mut Vec<Mismatch>,
) {
    let _prof = specrt_prof::scope("fuzz.image_diff");
    if let Some(expected) = expected {
        if run.passed != Some(expected) {
            out.push(Mismatch::Verdict {
                scenario: label,
                expected,
                got: run.passed,
            });
        }
    }
    if !run
        .final_image
        .same_contents(&serial.final_image, image_ids)
    {
        out.push(Mismatch::Image { scenario: label });
    }
}

/// Differentially checks one case across all protocols and the software
/// baseline.
pub fn run_case(case: &CaseSpec) -> CaseResult {
    let traces = oracle_traces(case);
    let assignment = case.assignment();
    let mut mismatches = Vec::new();
    let mut stats = StatSet::new();

    let serial = run_scenario(
        &case.loop_spec(SpecVariant::NonPriv, true),
        Scenario::Serial,
        case.procs,
    );

    // Hardware, non-privatization: pass iff the executed schedule keeps
    // every written element on a single processor (the envelope). Dynamic
    // schedules have no static assignment — image check only.
    let np = run_scenario(
        &case.loop_spec(SpecVariant::NonPriv, true),
        Scenario::Hw,
        case.procs,
    );
    let np_expected = assignment
        .as_ref()
        .map(|a| nonpriv_envelope_holds(&traces, a));
    check_one(
        "hw-nonpriv",
        &np,
        &serial,
        np_expected,
        &[ARR_A, ARR_OUT],
        &mut mismatches,
    );
    stats.merge(&np.stats);

    // Hardware, privatization with read-in + copy-out: pass iff no
    // flow dependence (read-first after an earlier iteration's write).
    let verdict = analyze_iteration_traces(&traces);
    let pv = run_scenario(
        &case.loop_spec(SpecVariant::Priv, true),
        Scenario::Hw,
        case.procs,
    );
    check_one(
        "hw-priv",
        &pv,
        &serial,
        Some(verdict.priv_read_in_ok()),
        &[ARR_A, ARR_OUT],
        &mut mismatches,
    );
    stats.merge(&pv.stats);

    // Hardware, reduced no-read-in privatization: the array under test is
    // dead after the loop (no copy-out), so only the plain output array is
    // compared against serial.
    let p3 = run_scenario(
        &case.loop_spec(SpecVariant::Priv3, false),
        Scenario::Hw,
        case.procs,
    );
    check_one(
        "hw-priv3",
        &p3,
        &serial,
        Some(priv3_expected(&traces)),
        &[ARR_OUT],
        &mut mismatches,
    );
    stats.merge(&p3.stats);

    // Software LRPD baseline, iteration-wise stamps.
    let sw = run_scenario(
        &case.loop_spec(SpecVariant::Priv, true),
        Scenario::Sw(SwVariant::IterationWise),
        case.procs,
    );
    check_one(
        "sw-lrpd",
        &sw,
        &serial,
        Some(sw_expected(case, &traces)),
        &[ARR_A, ARR_OUT],
        &mut mismatches,
    );

    CaseResult { mismatches, stats }
}

/// Differentially checks the node-fault legs of one case: every node-level
/// fault kind is fired *mid-loop* — halfway through the fault-free cycle
/// count of the same configuration — against node 1, under
/// checkpoint-restart recovery. Whatever path the machine takes (checkpoint
/// restore with a partial re-run, or whole-loop serial re-execution when no
/// checkpoint precedes the failure), the final memory image must be the
/// serial one. Verdicts are not asserted: a node fault may legitimately
/// turn a would-pass run into a recovered `Some(false)`.
pub fn node_fault_legs(case: &CaseSpec) -> Vec<Mismatch> {
    let _prof = specrt_prof::scope("fuzz.node_legs");
    let recovery = RecoveryPolicy::CheckpointRestart {
        checkpoint: CheckpointConfig { every_iters: 2 },
    };
    let cfg = |faults: FaultConfig| {
        MachineConfig::with_procs(case.procs)
            .with_net(NetConfig::flat().with_faults(faults))
            .with_recovery(recovery)
    };
    let spec = case.loop_spec(SpecVariant::NonPriv, true);
    let serial = run_scenario_configured(&spec, Scenario::Serial, cfg(FaultConfig::none()));
    let fault_free = run_scenario_configured(&spec, Scenario::Hw, cfg(FaultConfig::none()));
    let at_cycle = fault_free.total_cycles.raw() / 2;
    let node = 1u32.min(case.procs - 1);
    let mut out = Vec::new();
    for (label, kind) in [
        ("hw-node-crash", NodeFaultKind::Crash),
        (
            "hw-node-pause",
            NodeFaultKind::Pause {
                for_cycles: NODE_OUTAGE_CYCLES,
            },
        ),
        (
            "hw-node-partition",
            NodeFaultKind::Partition {
                for_cycles: NODE_OUTAGE_CYCLES,
            },
        ),
    ] {
        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind,
                node,
                at_cycle,
            }),
            ..FaultConfig::none()
        };
        let r = run_scenario_configured(&spec, Scenario::Hw, cfg(faults));
        if !r
            .final_image
            .same_contents(&serial.final_image, &[ARR_A, ARR_OUT])
        {
            out.push(Mismatch::Image { scenario: label });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::TEMPLATE_SEEDS;

    #[test]
    fn all_templates_agree_with_oracle() {
        for seed in 0..TEMPLATE_SEEDS {
            let case = CaseSpec::generate(seed);
            let r = run_case(&case);
            assert!(r.ok(), "template seed {seed} disagrees: {:?}", r.mismatches);
        }
    }

    #[test]
    fn all_templates_survive_node_faults_mid_loop() {
        for seed in 0..TEMPLATE_SEEDS {
            let case = CaseSpec::generate(seed);
            let legs = node_fault_legs(&case);
            assert!(legs.is_empty(), "template seed {seed} lost data: {legs:?}");
        }
    }

    #[test]
    fn priv3_predicate_basics() {
        use AccessKind::{Read, Write};
        // Covered read of a written element: fine.
        assert!(priv3_expected(&[vec![(0, Write), (0, Read)]]));
        // Uncovered read of an element written in another iteration: FAIL.
        assert!(!priv3_expected(&[vec![(0, Write)], vec![(0, Read)]]));
        // Uncovered read of a never-written element: fine.
        assert!(priv3_expected(&[vec![(0, Read)], vec![(1, Write)]]));
    }
}
