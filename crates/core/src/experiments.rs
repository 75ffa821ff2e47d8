//! Drivers that regenerate the paper's evaluation (Figures 11–14), the
//! §3.4 state-cost comparison, and §4.1 ablations.
//!
//! Every driver returns structured rows; `specrt-bench`'s `experiments`
//! binary renders them with [`crate::report`] and they are exercised by the
//! micro benches. The paper's absolute numbers come from a different
//! substrate (Tangolite + Perfect Club binaries); what these drivers are
//! expected to reproduce is the *shape* of each figure — who wins, by
//! roughly what factor, and where the crossovers are. `EXPERIMENTS.md`
//! records paper-vs-measured for each one.

use specrt_engine::TimeBreakdown;
use specrt_machine::{run_scenario, RunResult, Scenario, SwVariant};
use specrt_spec::StateCost;
use specrt_workloads::{all_workloads, Scale, Workload};

/// Aggregated totals of one scenario over all invocations of a loop.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTotals {
    /// Sum of wall-clock cycles over invocations.
    pub cycles: u64,
    /// Component-wise sum of the average-per-processor breakdowns.
    pub breakdown: TimeBreakdown,
    /// Invocations whose run-time test passed (speculative scenarios).
    pub passes: u64,
    /// Invocations whose run-time test failed.
    pub fails: u64,
}

impl ScenarioTotals {
    fn absorb(&mut self, r: &RunResult) {
        self.cycles += r.total_cycles.raw();
        self.breakdown = self.breakdown.merged(&r.breakdown);
        match r.passed {
            Some(true) => self.passes += 1,
            Some(false) => self.fails += 1,
            None => {}
        }
    }
}

/// All four scenarios of one loop, aggregated over its invocations.
#[derive(Debug, Clone)]
pub struct LoopResults {
    /// Workload name.
    pub workload: String,
    /// The paper's loop identifier.
    pub paper_loop: String,
    /// Processors used.
    pub procs: u32,
    /// Serial totals.
    pub serial: ScenarioTotals,
    /// Ideal (doall, no test) totals.
    pub ideal: ScenarioTotals,
    /// Software-scheme totals (the paper's variant for this loop).
    pub sw: ScenarioTotals,
    /// Hardware-scheme totals.
    pub hw: ScenarioTotals,
}

impl LoopResults {
    /// Speedup of a scenario over serial.
    pub fn speedup(&self, s: &ScenarioTotals) -> f64 {
        self.serial.cycles as f64 / s.cycles as f64
    }
}

/// Runs a batch of `(workload, procs)` evaluations with the individual
/// `run_scenario` calls — each an independent, deterministic simulation —
/// fanned out over `jobs` worker threads. Results are reassembled in the
/// flattening order (workload, then invocation, then Serial/Ideal/SW/HW),
/// so the output is identical for every `jobs ≥ 1`.
fn run_workloads_jobs(batch: &[(&Workload, u32)], jobs: usize) -> Vec<LoopResults> {
    let mut units: Vec<(usize, &specrt_machine::LoopSpec, Scenario, u32)> = Vec::new();
    for (wi, &(w, procs)) in batch.iter().enumerate() {
        for spec in &w.invocations {
            for scenario in [
                Scenario::Serial,
                Scenario::Ideal,
                Scenario::Sw(w.sw_variant),
                Scenario::Hw,
            ] {
                units.push((wi, spec, scenario, procs));
            }
        }
    }
    let results = specrt_par::par_map(jobs, &units, |_, &(_, spec, scenario, procs)| {
        run_scenario(spec, scenario, procs)
    });
    let mut out: Vec<LoopResults> = batch
        .iter()
        .map(|&(w, procs)| LoopResults {
            workload: w.name.to_string(),
            paper_loop: w.paper_loop.to_string(),
            procs,
            serial: ScenarioTotals::default(),
            ideal: ScenarioTotals::default(),
            sw: ScenarioTotals::default(),
            hw: ScenarioTotals::default(),
        })
        .collect();
    for (&(wi, _, scenario, _), r) in units.iter().zip(&results) {
        let row = &mut out[wi];
        match scenario {
            Scenario::Serial => row.serial.absorb(r),
            Scenario::Ideal => row.ideal.absorb(r),
            Scenario::Sw(_) => row.sw.absorb(r),
            Scenario::Hw => row.hw.absorb(r),
        }
    }
    out
}

/// Runs all four scenarios of `w` on `procs` processors, aggregating over
/// every invocation.
pub fn run_workload(w: &Workload, procs: u32) -> LoopResults {
    run_workloads_jobs(&[(w, procs)], 1)
        .pop()
        .expect("one workload in, one result out")
}

/// Runs every workload at its paper processor count, with the scenario
/// runs distributed over `jobs` worker threads. Identical output for every
/// `jobs ≥ 1`.
pub fn evaluate_all_jobs(scale: Scale, jobs: usize) -> Vec<LoopResults> {
    let workloads = all_workloads(scale);
    let batch: Vec<(&Workload, u32)> = workloads.iter().map(|w| (w, w.procs)).collect();
    run_workloads_jobs(&batch, jobs)
}

// ----------------------------------------------------------------------
// Figure 11: speedups
// ----------------------------------------------------------------------

/// One bar group of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Loop name.
    pub workload: String,
    /// Processors (8 for Ocean, 16 otherwise).
    pub procs: u32,
    /// Speedup of the Ideal execution.
    pub ideal: f64,
    /// Speedup of the software scheme.
    pub sw: f64,
    /// Speedup of the hardware scheme.
    pub hw: f64,
}

/// Figure 11 from precomputed results.
pub fn fig11_from(results: &[LoopResults]) -> Vec<Fig11Row> {
    results
        .iter()
        .map(|r| Fig11Row {
            workload: r.workload.clone(),
            procs: r.procs,
            ideal: r.speedup(&r.ideal),
            sw: r.speedup(&r.sw),
            hw: r.speedup(&r.hw),
        })
        .collect()
}

/// Runs and summarizes Figure 11, with the scenario runs distributed over
/// `jobs` workers.
pub fn fig11_jobs(scale: Scale, jobs: usize) -> Vec<Fig11Row> {
    fig11_from(&evaluate_all_jobs(scale, jobs))
}

// ----------------------------------------------------------------------
// Figure 12: execution-time breakdown
// ----------------------------------------------------------------------

/// One bar of Figure 12: a scenario's Busy/Sync/Mem, normalized to the
/// loop's serial execution time.
#[derive(Debug, Clone)]
pub struct Fig12Bar {
    /// Scenario label (`Serial`, `Ideal`, `SW`, `HW`).
    pub scenario: String,
    /// Busy fraction of serial time.
    pub busy: f64,
    /// Sync fraction of serial time.
    pub sync: f64,
    /// Mem fraction of serial time.
    pub mem: f64,
}

impl Fig12Bar {
    /// Total normalized height of the bar.
    pub fn total(&self) -> f64 {
        self.busy + self.sync + self.mem
    }

    fn from(b: &TimeBreakdown, serial_cycles: u64, label: &str) -> Fig12Bar {
        let n = serial_cycles as f64;
        Fig12Bar {
            scenario: label.to_string(),
            busy: b.busy.raw() as f64 / n,
            sync: b.sync.raw() as f64 / n,
            mem: b.mem.raw() as f64 / n,
        }
    }
}

/// One bar group of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Loop name.
    pub workload: String,
    /// Processors.
    pub procs: u32,
    /// Bars in Serial/Ideal/SW/HW order.
    pub bars: Vec<Fig12Bar>,
}

/// Figure 12 from precomputed results.
pub fn fig12_from(results: &[LoopResults]) -> Vec<Fig12Row> {
    results
        .iter()
        .map(|r| {
            let n = r.serial.cycles;
            Fig12Row {
                workload: r.workload.clone(),
                procs: r.procs,
                bars: vec![
                    Fig12Bar::from(&r.serial.breakdown, n, "Serial1"),
                    Fig12Bar::from(&r.ideal.breakdown, n, &format!("Ideal{}", r.procs)),
                    Fig12Bar::from(&r.sw.breakdown, n, &format!("SW{}", r.procs)),
                    Fig12Bar::from(&r.hw.breakdown, n, &format!("HW{}", r.procs)),
                ],
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Figure 13: slowdown due to failure
// ----------------------------------------------------------------------

/// One bar group of Figure 13: execution time of the forced-failure
/// instance, normalized to serial.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Loop name.
    pub workload: String,
    /// Serial bar (1.0 by construction).
    pub serial: Fig12Bar,
    /// Software scheme (fails after running the whole loop).
    pub sw: Fig12Bar,
    /// Hardware scheme (fails as soon as the dependence occurs).
    pub hw: Fig12Bar,
    /// Iterations the hardware scheme executed before aborting.
    pub hw_iterations_before_abort: u64,
    /// The loop's iteration count.
    pub iterations: u64,
}

/// Runs Figure 13: forces the failure of one instance of each loop
/// (the §6.2 recipes baked into each workload's `failure_instance`), with
/// one worker per loop (each row needs three scenario runs of the same
/// forced-failure instance). Identical output for every `jobs ≥ 1`.
pub fn fig13_jobs(scale: Scale, jobs: usize) -> Vec<Fig13Row> {
    let workloads = all_workloads(scale);
    specrt_par::par_map(jobs, &workloads, |_, w| {
        {
            let spec = &w.failure_instance;
            let serial = run_scenario(spec, Scenario::Serial, w.procs);
            // Track's recipe is "run the iteration-wise tests on the loop
            // instantiation that needs processor-wise tests to pass"; the
            // other loops fail under their usual variant too.
            let sw_variant = if w.name == "track" {
                SwVariant::IterationWise
            } else {
                w.sw_variant
            };
            let sw = run_scenario(spec, Scenario::Sw(sw_variant), w.procs);
            let hw = run_scenario(spec, Scenario::Hw, w.procs);
            assert_eq!(sw.passed, Some(false), "{}: SW must fail", w.name);
            assert_eq!(hw.passed, Some(false), "{}: HW must fail", w.name);
            let n = serial.total_cycles.raw();
            Fig13Row {
                workload: w.name.to_string(),
                serial: Fig12Bar::from(&serial.breakdown, n, "Serial"),
                sw: Fig12Bar::from(&sw.breakdown, n, "SW"),
                hw: Fig12Bar::from(&hw.breakdown, n, "HW"),
                hw_iterations_before_abort: hw.iterations,
                iterations: spec.iters,
            }
        }
    })
}

// ----------------------------------------------------------------------
// Figure 14: scalability
// ----------------------------------------------------------------------

/// One point of Figure 14: speedups at a processor count.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Loop name.
    pub workload: String,
    /// Processor count of this point.
    pub procs: u32,
    /// Ideal speedup.
    pub ideal: f64,
    /// Software-scheme speedup.
    pub sw: f64,
    /// Hardware-scheme speedup.
    pub hw: f64,
}

/// Runs Figure 14: P3m, Adm and Track at 8 and 16 processors (Ocean is
/// too small to run with 16, as in the paper), with the scenario runs of
/// every (loop, processor-count) point distributed over `jobs` workers.
/// Identical output for every `jobs ≥ 1`.
pub fn fig14_jobs(scale: Scale, jobs: usize) -> Vec<Fig14Row> {
    let workloads = all_workloads(scale);
    let batch: Vec<(&Workload, u32)> = workloads
        .iter()
        .filter(|w| w.name != "ocean")
        .flat_map(|w| [(w, 8u32), (w, 16)])
        .collect();
    run_workloads_jobs(&batch, jobs)
        .iter()
        .map(|r| Fig14Row {
            workload: r.workload.clone(),
            procs: r.procs,
            ideal: r.speedup(&r.ideal),
            sw: r.speedup(&r.sw),
            hw: r.speedup(&r.hw),
        })
        .collect()
}

// ----------------------------------------------------------------------
// State-cost table (Figure 5 / §3.4)
// ----------------------------------------------------------------------

/// One row of the per-element overhead-state comparison.
#[derive(Debug, Clone)]
pub struct StateCostRow {
    /// Configuration label.
    pub config: String,
    /// Hardware directory bits per element.
    pub hw_dir_bits: u32,
    /// Hardware cache-tag bits per element.
    pub hw_tag_bits: u32,
    /// Software shadow bits per element.
    pub sw_bits: u32,
    /// HW / SW state ratio.
    pub ratio: f64,
}

/// The §3.4 hardware-vs-software state comparison for the paper's machine
/// sizes.
pub fn state_cost_table() -> Vec<StateCostRow> {
    let mut rows = Vec::new();
    for (procs, iters, read_in) in [
        (16u32, (1u64 << 16) - 1, false),
        (16, (1 << 16) - 1, true),
        (8, (1 << 10) - 1, false),
        (64, (1 << 20) - 1, true),
    ] {
        let c = StateCost::new(procs, iters);
        rows.push(StateCostRow {
            config: format!(
                "{procs} procs, 2^{} iters, read-in {}",
                64 - iters.leading_zeros(),
                if read_in { "yes" } else { "no" }
            ),
            hw_dir_bits: c.hw_dir_bits(read_in),
            hw_tag_bits: c.hw_tag_bits(),
            sw_bits: c.sw_bits(read_in),
            ratio: c.hw_over_sw_ratio(read_in),
        });
    }
    rows
}

// ----------------------------------------------------------------------
// Ablations (§4.1)
// ----------------------------------------------------------------------

/// One point of the chunk-size ablation on the privatization protocol.
#[derive(Debug, Clone)]
pub struct ChunkAblationRow {
    /// Superiteration size (1 = iteration-wise).
    pub chunk: u64,
    /// HW wall-clock cycles.
    pub hw_cycles: u64,
    /// Read-first signals sent to the shared directory.
    pub read_first_signals: u64,
    /// Stamp bits the directory needs at this chunking.
    pub stamp_bits: u32,
}

/// A privatization workload with heavy *read-first* traffic: every
/// iteration reads a handful of read-only table elements (each read is a
/// read-first for its iteration, generating a shared-directory signal)
/// before writing its own private slots. Used by the §4.1 ablation, where
/// P3m itself would show nothing (its iterations always write before
/// reading).
fn read_first_heavy_loop(iters: u64) -> specrt_machine::LoopSpec {
    use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
    use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind};
    use specrt_mem::ElemSize;
    use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

    let w = ArrayId(0);
    let out = ArrayId(1);
    let mut b = ProgramBuilder::new();
    // Read four read-only table slots (read-first every iteration).
    let mut acc = b.mov(Operand::ImmF(0.0));
    for slot in 0..4 {
        let v = b.load(w, Operand::ImmI(slot));
        acc = b.binop(BinOp::FAdd, Operand::Reg(acc), Operand::Reg(v));
    }
    // Write a private scratch slot, then read it back.
    let e = b.binop(BinOp::Rem, Operand::Iter, Operand::ImmI(60));
    let e2 = b.binop(BinOp::Add, Operand::Reg(e), Operand::ImmI(4));
    b.store(w, Operand::Reg(e2), Operand::Reg(acc));
    let rv = b.load(w, Operand::Reg(e2));
    b.store(out, Operand::Iter, Operand::Reg(rv));
    b.compute(30);
    let body = b.build().expect("read-first loop verifies");
    let mut plan = TestPlan::new();
    plan.set(w, SpecVariant::Priv);
    LoopSpec {
        name: "read-first-heavy".into(),
        body,
        iters,
        arrays: vec![
            ArrayDecl::with_init(w, ElemSize::W8, vec![Scalar::Float(1.0); 64]),
            ArrayDecl::zeroed(out, iters, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![out],
        stamp_window: None,
    }
}

/// §4.1: "group contiguous iterations in chunks and use block cyclic
/// scheduling … the number of read-first iterations and, in general, the
/// number of messages and protocol tests decreases." Runs a
/// read-first-heavy privatization loop under increasing superiteration
/// sizes, one worker per chunk size.
pub fn ablation_chunking_jobs(scale: Scale, jobs: usize) -> Vec<ChunkAblationRow> {
    use specrt_machine::ScheduleKind;
    use specrt_spec::IterationNumbering;
    let iters = scale.pick(200, 1500, 6000);
    let procs = 16;
    specrt_par::par_map(jobs, &[1u64, 4, 16, 64], |_, &chunk| {
        let mut spec = read_first_heavy_loop(iters);
        if chunk > 1 {
            spec.numbering = IterationNumbering::chunked(chunk);
            spec.schedule = ScheduleKind::BlockCyclic { block: chunk };
        }
        let hw = run_scenario(&spec, Scenario::Hw, procs);
        assert_eq!(
            hw.passed,
            Some(true),
            "chunked read-first loop must pass: {:?}",
            hw.failure
        );
        ChunkAblationRow {
            chunk,
            hw_cycles: hw.total_cycles.raw(),
            read_first_signals: hw.stats.get("priv_read_first_signals"),
            stamp_bits: spec.numbering.stamp_bits(iters),
        }
    })
}

/// One point of the §2.2.4 profitability sweep.
#[derive(Debug, Clone)]
pub struct DensityRow {
    /// Conflict density of the generated instances.
    pub density: f64,
    /// Fraction of instances whose speculation passed.
    pub pass_rate: f64,
    /// Mean HW time, normalized to serial.
    pub hw_over_serial: f64,
    /// Mean SW time, normalized to serial.
    pub sw_over_serial: f64,
}

/// §2.2.4: "the compiler can use heuristics and statistics about the
/// parallelization success-rate … and automatically decide when run-time
/// parallelization can be profitable." Sweeps the conflict density of a
/// synthetic loop family and reports pass rates and expected costs: the
/// crossover where speculation stops paying is where `hw_over_serial`
/// crosses 1.0. The `(density, seed)` instances are distributed over `jobs`
/// workers; per-instance ratios are summed in instance order, so the
/// floating-point accumulation — and thus the output — is identical for
/// every `jobs ≥ 1`.
pub fn extension_density_jobs(scale: Scale, jobs: usize) -> Vec<DensityRow> {
    const DENSITIES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.25, 0.5];
    let instances = scale.pick(3, 8, 16);
    let iters = scale.pick(64, 128, 256);
    let procs = 8;
    let units: Vec<(f64, u64)> = DENSITIES
        .iter()
        .flat_map(|&density| (0..instances).map(move |seed| (density, seed)))
        .collect();
    let per_instance = specrt_par::par_map(jobs, &units, |_, &(density, seed)| {
        let spec = specrt_workloads::synth::conflict_loop(iters, density, seed);
        let serial = run_scenario(&spec, Scenario::Serial, procs);
        let hw = run_scenario(&spec, Scenario::Hw, procs);
        let sw = run_scenario(
            &spec,
            Scenario::Sw(specrt_workloads::synth::SW_VARIANT),
            procs,
        );
        (
            hw.passed == Some(true),
            hw.total_cycles.raw() as f64 / serial.total_cycles.raw() as f64,
            sw.total_cycles.raw() as f64 / serial.total_cycles.raw() as f64,
        )
    });
    DENSITIES
        .iter()
        .zip(per_instance.chunks(instances as usize))
        .map(|(&density, chunk)| {
            let mut passes = 0u32;
            let mut hw_sum = 0.0;
            let mut sw_sum = 0.0;
            for &(passed, hw_ratio, sw_ratio) in chunk {
                if passed {
                    passes += 1;
                }
                hw_sum += hw_ratio;
                sw_sum += sw_ratio;
            }
            DensityRow {
                density,
                pass_rate: passes as f64 / instances as f64,
                hw_over_serial: hw_sum / instances as f64,
                sw_over_serial: sw_sum / instances as f64,
            }
        })
        .collect()
}

/// One point of the abort-latency / coherence-policy sensitivity sweep.
#[derive(Debug, Clone)]
pub struct PolicyAblationRow {
    /// Configuration label.
    pub config: String,
    /// HW total cycles on the forced-failure Ocean instance (abort-latency
    /// rows) or on the parallel Ocean instance (coherence rows).
    pub hw_cycles: u64,
}

/// Sensitivity to the abort broadcast latency (failure path) and to the
/// dirty-read coherence policy (invalidate-on-fetch vs the classic DASH
/// sharing write-back), one worker per configuration point.
pub fn ablation_policy_jobs(_scale: Scale, jobs: usize) -> Vec<PolicyAblationRow> {
    use specrt_machine::{run_scenario_configured, MachineConfig};
    // Abort latency probes the forced-failure instance; the coherence
    // policies run the parallel instance.
    let fail_spec = specrt_workloads::ocean::instance(0, true);
    let ok_spec = specrt_workloads::ocean::instance(0, false);
    let mut units: Vec<(String, MachineConfig, bool)> = Vec::new();
    for abort in [50u64, 200, 1000, 5000] {
        let mut cfg = MachineConfig::with_procs(8);
        cfg.abort_latency = abort;
        units.push((format!("abort latency {abort} (failing run)"), cfg, true));
    }
    for (label, downgrade) in [("invalidate-on-fetch", false), ("sharing write-back", true)] {
        let mut cfg = MachineConfig::with_procs(8);
        cfg.mem.dirty_read_downgrades = downgrade;
        units.push((format!("dirty reads: {label}"), cfg, false));
    }
    specrt_par::par_map(jobs, &units, |_, (config, cfg, failing)| {
        let spec = if *failing { &fail_spec } else { &ok_spec };
        let hw = run_scenario_configured(spec, Scenario::Hw, *cfg);
        assert_eq!(hw.passed, Some(!*failing), "{config}: {:?}", hw.failure);
        PolicyAblationRow {
            config: config.clone(),
            hw_cycles: hw.total_cycles.raw(),
        }
    })
}

/// One point of the machine-sensitivity ablation.
#[derive(Debug, Clone)]
pub struct MachineAblationRow {
    /// Configuration label.
    pub config: String,
    /// HW speedup over the same machine's serial run.
    pub hw_speedup: f64,
    /// SW speedup over the same machine's serial run.
    pub sw_speedup: f64,
}

/// Sensitivity of the headline comparison to the machine model: §5.1 notes
/// the small caches were chosen to match the workloads' working sets. We
/// sweep cache geometry and the write-buffer depth on Ocean (the most
/// memory-bound loop) and check that HW > SW survives every configuration,
/// one worker per machine configuration.
pub fn ablation_machine_jobs(_scale: Scale, jobs: usize) -> Vec<MachineAblationRow> {
    use specrt_cache::CacheConfig;
    use specrt_machine::{run_scenario_configured, MachineConfig};

    let spec = specrt_workloads::ocean::instance(0, false);
    let w = all_workloads(Scale::Smoke)
        .into_iter()
        .find(|w| w.name == "ocean")
        .expect("ocean exists");
    let configs: Vec<(String, MachineConfig)> = vec![
        (
            "paper (32K/512K, wb16)".into(),
            MachineConfig::with_procs(w.procs),
        ),
        ("half caches (16K/256K)".into(), {
            let mut c = MachineConfig::with_procs(w.procs);
            c.mem.cache = CacheConfig {
                l1_lines: 256,
                l2_lines: 4096,
            };
            c
        }),
        ("double caches (64K/1M)".into(), {
            let mut c = MachineConfig::with_procs(w.procs);
            c.mem.cache = CacheConfig {
                l1_lines: 1024,
                l2_lines: 16384,
            };
            c
        }),
        ("write buffer 2".into(), {
            let mut c = MachineConfig::with_procs(w.procs);
            c.write_buffer = 2;
            c
        }),
        ("write buffer 64".into(), {
            let mut c = MachineConfig::with_procs(w.procs);
            c.write_buffer = 64;
            c
        }),
        ("detailed fetch&op barrier".into(), {
            let mut c = MachineConfig::with_procs(w.procs);
            c.detailed_barrier = true;
            c
        }),
    ];
    specrt_par::par_map(jobs, &configs, |_, (label, cfg)| {
        let serial = run_scenario_configured(&spec, Scenario::Serial, *cfg);
        let hw = run_scenario_configured(&spec, Scenario::Hw, *cfg);
        let sw = run_scenario_configured(&spec, Scenario::Sw(w.sw_variant), *cfg);
        MachineAblationRow {
            config: label.clone(),
            hw_speedup: serial.total_cycles.raw() as f64 / hw.total_cycles.raw() as f64,
            sw_speedup: serial.total_cycles.raw() as f64 / sw.total_cycles.raw() as f64,
        }
    })
}

/// One point of the Track block-size ablation.
#[derive(Debug, Clone)]
pub struct TrackBlockRow {
    /// Dynamic scheduling block size.
    pub block: u64,
    /// Whether the hardware test passed.
    pub passed: bool,
    /// HW wall-clock cycles.
    pub hw_cycles: u64,
}

/// §5.2: "the plain dynamically-scheduled hardware scheme passes all loops
/// if the iterations are scheduled in blocks of a few iterations each."
/// Runs Track's not-fully-parallel instance under various dynamic block
/// sizes: block 1 splits the colliding iteration pairs across processors
/// and must fail. One worker per block size.
pub fn ablation_track_block_jobs(_scale: Scale, jobs: usize) -> Vec<TrackBlockRow> {
    use specrt_machine::ScheduleKind;
    specrt_par::par_map(jobs, &[1u64, 2, 4, 8], |_, &block| {
        let mut spec = specrt_workloads::track::instance(3, true);
        spec.schedule = ScheduleKind::Dynamic { block };
        let hw = run_scenario(&spec, Scenario::Hw, 16);
        TrackBlockRow {
            block,
            passed: hw.passed == Some(true),
            hw_cycles: hw.total_cycles.raw(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_smoke_shapes_hold() {
        let rows = fig11_jobs(Scale::Smoke, 1);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.ideal > 1.0, "{}: Ideal must beat Serial", r.workload);
            assert!(r.hw > 1.0, "{}: HW must beat Serial", r.workload);
            assert!(
                r.hw > r.sw,
                "{}: HW ({:.2}) must beat SW ({:.2})",
                r.workload,
                r.hw,
                r.sw
            );
            assert!(
                r.ideal >= r.hw * 0.95,
                "{}: Ideal is an upper bound",
                r.workload
            );
        }
    }

    #[test]
    fn fig13_smoke_failure_shapes_hold() {
        let rows = fig13_jobs(Scale::Smoke, 1);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.hw.total() < r.sw.total(),
                "{}: HW failure ({:.2}) must cost less than SW ({:.2})",
                r.workload,
                r.hw.total(),
                r.sw.total()
            );
            assert!(
                r.hw.total() >= 1.0,
                "{}: failure cannot beat serial",
                r.workload
            );
            assert!(
                r.hw_iterations_before_abort < r.iterations,
                "{}: HW must abort early",
                r.workload
            );
        }
    }

    #[test]
    fn parallel_figure_runs_match_single_threaded() {
        // f64's Debug rendering is shortest-round-trip exact, so equal
        // Debug strings mean bitwise-equal floats: the worker pool must be
        // invisible in every figure row.
        let serial = format!("{:?}", fig13_jobs(Scale::Smoke, 1));
        let parallel = format!("{:?}", fig13_jobs(Scale::Smoke, 4));
        assert_eq!(serial, parallel, "fig13 must not depend on --jobs");

        let serial = format!("{:?}", evaluate_all_jobs(Scale::Smoke, 1));
        let parallel = format!("{:?}", evaluate_all_jobs(Scale::Smoke, 4));
        assert_eq!(serial, parallel, "evaluate_all must not depend on --jobs");
    }

    #[test]
    fn state_cost_table_favors_hardware() {
        let rows = state_cost_table();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.ratio < 1.0, "{}: HW needs less state", r.config);
        }
    }

    #[test]
    fn density_sweep_shows_profitability_crossover() {
        let rows = extension_density_jobs(Scale::Smoke, 1);
        assert!(
            (rows[0].pass_rate - 1.0).abs() < 1e-9,
            "density 0 always passes"
        );
        assert!(rows[0].hw_over_serial < 1.0, "parallel case must pay off");
        let last = rows.last().unwrap();
        assert!(last.pass_rate < 1.0, "high density must fail sometimes");
        // Pass rate is nonincreasing in density (same seeds per density).
        for w in rows.windows(2) {
            assert!(
                w[1].pass_rate <= w[0].pass_rate + 1e-9,
                "pass rate must not increase with density: {rows:?}"
            );
        }
    }

    #[test]
    fn abort_latency_monotonically_increases_failure_cost() {
        let rows = ablation_policy_jobs(Scale::Smoke, 1);
        let aborts: Vec<u64> = rows
            .iter()
            .filter(|r| r.config.starts_with("abort latency"))
            .map(|r| r.hw_cycles)
            .collect();
        for w in aborts.windows(2) {
            assert!(
                w[1] >= w[0],
                "higher abort latency cannot be cheaper: {aborts:?}"
            );
        }
        // Both coherence policies complete the parallel run.
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn hw_beats_sw_on_every_machine_configuration() {
        for row in ablation_machine_jobs(Scale::Smoke, 1) {
            assert!(
                row.hw_speedup > row.sw_speedup,
                "{}: HW {:.2} vs SW {:.2}",
                row.config,
                row.hw_speedup,
                row.sw_speedup
            );
        }
    }

    #[test]
    fn chunking_reduces_read_first_signals() {
        let rows = ablation_chunking_jobs(Scale::Smoke, 1);
        assert!(rows[0].read_first_signals > 0, "iteration-wise must signal");
        for w in rows.windows(2) {
            assert!(
                w[1].read_first_signals < w[0].read_first_signals,
                "larger chunks must send fewer signals: {rows:?}"
            );
            assert!(w[1].stamp_bits <= w[0].stamp_bits);
        }
    }

    #[test]
    fn track_block_ablation_block1_fails() {
        let rows = ablation_track_block_jobs(Scale::Smoke, 1);
        assert!(!rows[0].passed, "block 1 splits colliding pairs");
        assert!(rows[2].passed, "block 4 keeps pairs together");
        let pass_cost = rows[2].hw_cycles;
        let fail_cost = rows[0].hw_cycles;
        assert!(
            fail_cost > pass_cost,
            "failing run pays the serial fallback"
        );
    }
}
