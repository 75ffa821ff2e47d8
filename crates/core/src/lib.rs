#![warn(missing_docs)]

//! # specrt-core
//!
//! The top-level public API of the `specrt` system: a speculative run-time
//! loop parallelization runtime for a simulated CC-NUMA multiprocessor,
//! reproducing *"Hardware for Speculative Run-Time Parallelization in
//! Distributed Shared-Memory Multiprocessors"* (Zhang, Rauchwerger &
//! Torrellas, HPCA 1998).
//!
//! ## Quickstart
//!
//! ```
//! use specrt_core::{ParallelizationStrategy, SpeculativeRuntime};
//! use specrt_workloads::{ocean, Scale};
//!
//! // A loop the compiler could not analyze (Ocean's ftrvmt.do109 stand-in).
//! let spec = ocean::instance(0, false);
//!
//! // Parallelize it speculatively on an 8-processor machine using the
//! // paper's hardware scheme.
//! let runtime = SpeculativeRuntime::new(8);
//! let outcome = runtime.run(&spec, ParallelizationStrategy::Hardware);
//! assert_eq!(outcome.passed, Some(true)); // the loop was a doall
//! ```
//!
//! ## Modules
//!
//! * [`experiments`] — drivers that regenerate every figure of the paper's
//!   evaluation section (Figures 11–14) plus the state-cost table and the
//!   §4.1 chunking ablation;
//! * [`report`] — plain-text table rendering for the experiment results.
//!
//! The heavy lifting lives in the subsystem crates (`specrt-engine`, `-ir`,
//! `-mem`, `-cache`, `-spec`, `-proto`, `-lrpd`, `-machine`,
//! `-workloads`), all re-exported by the `specrt` facade crate.

pub mod experiments;
pub mod report;

use specrt_machine::{run_scenario, LoopSpec, RunResult, Scenario, SwVariant};
use specrt_proto::SharerSet;

pub use specrt_machine::{ArrayDecl, MachineConfig, Scenario as MachineScenario, ScheduleKind};

/// How a loop should be (speculatively) parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelizationStrategy {
    /// Run serially (baseline / fallback).
    Serial,
    /// Doall without any run-time test (only valid if the loop is known
    /// parallel — the paper's `Ideal` upper bound).
    Unchecked,
    /// The software LRPD test, iteration-wise stamps.
    SoftwareIterationWise,
    /// The software LRPD test, processor-wise (requires static scheduling).
    SoftwareProcessorWise,
    /// The paper's hardware scheme: cache-coherence-protocol extensions
    /// detect dependences on the fly and abort immediately.
    Hardware,
}

impl ParallelizationStrategy {
    fn scenario(self) -> Scenario {
        match self {
            ParallelizationStrategy::Serial => Scenario::Serial,
            ParallelizationStrategy::Unchecked => Scenario::Ideal,
            ParallelizationStrategy::SoftwareIterationWise => {
                Scenario::Sw(SwVariant::IterationWise)
            }
            ParallelizationStrategy::SoftwareProcessorWise => {
                Scenario::Sw(SwVariant::ProcessorWise)
            }
            ParallelizationStrategy::Hardware => Scenario::Hw,
        }
    }
}

/// The speculative run-time parallelization runtime.
///
/// Owns nothing but the machine size; every [`run`](Self::run) builds a
/// fresh simulated machine (the paper flushes caches between loop
/// executions to mimic real conditions).
#[derive(Debug, Clone, Copy)]
pub struct SpeculativeRuntime {
    procs: u32,
}

impl SpeculativeRuntime {
    /// A runtime for a `procs`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero or exceeds the directory's full-map
    /// presence mask of [`SharerSet::MAX_PROCS`] (64) processors.
    pub fn new(procs: u32) -> Self {
        assert!(
            procs > 0 && procs <= SharerSet::MAX_PROCS,
            "1..={} processors supported",
            SharerSet::MAX_PROCS
        );
        SpeculativeRuntime { procs }
    }

    /// Number of processors.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Runs `spec` under `strategy`, returning timing, the Busy/Sync/Mem
    /// breakdown, the test verdict, and the final memory contents.
    ///
    /// Speculative strategies are always *safe*: if the run-time test
    /// fails, state is restored and the loop re-executes serially, so the
    /// final contents equal a serial execution regardless of the verdict.
    pub fn run(&self, spec: &LoopSpec, strategy: ParallelizationStrategy) -> RunResult {
        run_scenario(spec, strategy.scenario(), self.procs)
    }

    /// Convenience: runs `spec` under every strategy of interest and
    /// returns `(serial, ideal, sw, hw)` using the given SW variant.
    pub fn run_all(
        &self,
        spec: &LoopSpec,
        sw: SwVariant,
    ) -> (RunResult, RunResult, RunResult, RunResult) {
        (
            self.run(spec, ParallelizationStrategy::Serial),
            self.run(spec, ParallelizationStrategy::Unchecked),
            run_scenario(spec, Scenario::Sw(sw), self.procs),
            self.run(spec, ParallelizationStrategy::Hardware),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_workloads::adm;

    #[test]
    fn runtime_runs_all_strategies() {
        let spec = adm::instance(0, false);
        let rt = SpeculativeRuntime::new(4);
        let (serial, ideal, sw, hw) = rt.run_all(&spec, SwVariant::ProcessorWise);
        assert!(serial.total_cycles > ideal.total_cycles);
        assert_eq!(hw.passed, Some(true));
        assert_eq!(sw.passed, Some(true));
        assert!(hw.speedup_over(&serial) > 1.0);
    }

    #[test]
    fn strategies_map_to_scenarios() {
        assert_eq!(ParallelizationStrategy::Hardware.scenario(), Scenario::Hw);
        assert_eq!(
            ParallelizationStrategy::SoftwareProcessorWise.scenario(),
            Scenario::Sw(SwVariant::ProcessorWise)
        );
        assert_eq!(ParallelizationStrategy::Serial.scenario(), Scenario::Serial);
    }

    #[test]
    #[should_panic(expected = "processors supported")]
    fn zero_procs_rejected() {
        SpeculativeRuntime::new(0);
    }

    #[test]
    #[should_panic(expected = "1..=64 processors supported")]
    fn sixty_five_procs_rejected() {
        SpeculativeRuntime::new(65);
    }
}
