//! The paper's four execution scenarios (§6): `Serial`, `Ideal`, `SW`
//! (software LRPD) and `HW` (the proposed hardware scheme).
//!
//! Each scenario is a sequence of *phases* run on the simulated machine;
//! every phase is an executor run whose time and Busy/Sync/Mem breakdown
//! accumulate into the result:
//!
//! * **Serial** — all iterations on one processor, all data local (§6:
//!   "the uniprocessor execution of the loop, where all the data is
//!   allocated in the memory local to the processor").
//! * **Ideal** — the doall without any tests: privatized arrays still use
//!   private copies (the compiler privatized them) but no dependence test
//!   runs and no update messages are sent.
//! * **SW** — backup → shadow zero-out → marking loop (instrumented
//!   per-processor bodies) → merging-analysis loop → outcome; on failure,
//!   restore + serial re-execution; on success, copy-out of live
//!   privatized arrays.
//! * **HW** — backup → speculative loop under the protocol extensions with
//!   immediate abort on FAIL; on failure, the recovery policy's ladder of
//!   rungs (the paper's is restore + serial re-execution); on success,
//!   copy-out.
//!
//! Serial re-execution is modelled on a one-processor machine with local
//! data, matching the paper's accounting ("the HW execution time includes
//! the parallel execution up to when the dependence is detected … plus the
//! Serial time", §6.2).

use std::collections::BTreeMap;

use specrt_engine::{Cycles, StatSet, TimeBreakdown};
use specrt_ir::{ArrayId, Program, Scalar};
use specrt_lrpd::phases::{
    copy_body_region, merge_analysis_body, merge_analysis_body_bitmap, reduction_body,
    zero_shadow_body, zero_shadow_body_bitmap,
};
use specrt_lrpd::shadow::{CNT_ATM, CNT_ATW, CNT_BAD_NP, CNT_BAD_WR, CNT_LEN};
use specrt_lrpd::{instrument_for_proc, sw_private_copy_id, InstrumentConfig, ShadowIds};
use specrt_mem::{ArrayBackup, ElemSize, MemoryImage, NodeId, PlacementPolicy, ProcId};
use specrt_proto::{private_copy_id, FaultConfig, NetSummary, TraceEvent};
use specrt_spec::{fault, FailReason, IterationNumbering, ProtocolKind, TestPlan};

use crate::config::{MachineConfig, RecoveryPolicy};
use crate::exec::{ExecEnd, ExecSummary, Executor};
use crate::loopspec::{LoopSpec, ScheduleKind};
use crate::pool::PooledMem;
use crate::sched::{BlockCyclic, DynamicSelf, Replicated, Scheduler, StaticChunked, Windowed};

/// Reserved id bit for backup copies.
const BACKUP_BASE: u32 = 0x1000_0000;
/// Reserved id bit for copy-out timing scratch arrays.
const SCRATCH_BASE: u32 = 0x0800_0000;
/// Reserved id bit for the software scheme's global reduction flags.
const REDUCE_BASE: u32 = 0x0400_0000;

fn backup_id(arr: ArrayId) -> ArrayId {
    ArrayId(BACKUP_BASE | arr.0)
}

fn scratch_id(arr: ArrayId) -> ArrayId {
    ArrayId(SCRATCH_BASE | arr.0)
}

fn reduce_id(arr: ArrayId) -> ArrayId {
    ArrayId(REDUCE_BASE | arr.0)
}

/// Last-writer values tracked by the executor: `(array, element)` →
/// `(iteration + 1, value)`.
type Winners = BTreeMap<(ArrayId, u64), (u64, Scalar)>;

/// Which software-test granularity to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwVariant {
    /// Iteration-wise stamps, any scheduling.
    IterationWise,
    /// Processor-wise (1-bit) test: stamps collapse to the processor's
    /// chunk; requires static contiguous scheduling (§2.2.3).
    ProcessorWise,
}

/// An execution scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Uniprocessor, local data, no tests.
    Serial,
    /// Doall without tests (upper bound).
    Ideal,
    /// Software LRPD test.
    Sw(SwVariant),
    /// Hardware speculation protocols.
    Hw,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Serial => write!(f, "Serial"),
            Scenario::Ideal => write!(f, "Ideal"),
            Scenario::Sw(SwVariant::IterationWise) => write!(f, "SW(iter)"),
            Scenario::Sw(SwVariant::ProcessorWise) => write!(f, "SW(proc)"),
            Scenario::Hw => write!(f, "HW"),
        }
    }
}

/// Result of running a loop under one scenario.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scenario run.
    pub scenario: Scenario,
    /// Loop name.
    pub name: String,
    /// End-to-end wall-clock cycles, including all phases (and serial
    /// re-execution if the test failed).
    pub total_cycles: Cycles,
    /// Average per-processor Busy/Sync/Mem decomposition over all phases.
    pub breakdown: TimeBreakdown,
    /// Whether the run-time test passed (`None` for Serial/Ideal).
    pub passed: Option<bool>,
    /// Failure description if the test failed.
    pub failure: Option<String>,
    /// Iterations executed speculatively (before any abort).
    pub iterations: u64,
    /// Final contents of the loop's arrays (for correctness checks).
    pub final_image: MemoryImage,
    /// Protocol statistics (HW/Ideal runs).
    pub stats: StatSet,
    /// Interconnect traffic summary (messages, hops, queueing, per-link
    /// occupancy) of the run's speculative machine.
    pub net: NetSummary,
    /// Structured trace events collected during the run (empty unless
    /// [`MachineConfig::trace_capacity`] is non-zero).
    pub trace: Vec<TraceEvent>,
}

impl RunResult {
    /// Speedup of this run relative to a serial run of the same loop.
    pub fn speedup_over(&self, serial: &RunResult) -> f64 {
        serial.total_cycles.raw() as f64 / self.total_cycles.raw() as f64
    }
}

/// A leased machine with the loop's arrays loaded: the memory system, its
/// functional image, and the wall clock and per-processor Busy/Sync/Mem
/// the phases run on it have accumulated.
struct Machine {
    cfg: MachineConfig,
    ms: PooledMem,
    image: MemoryImage,
    per_proc: Vec<TimeBreakdown>,
    now: Cycles,
}

impl Machine {
    /// Leases a machine for `cfg` (tracing as `cfg` asks) and loads the
    /// loop's arrays — with `from`'s contents, or their initial values —
    /// plus the barrier array. `local` places every array on node 0, as
    /// the serial runs do.
    fn load(spec: &LoopSpec, cfg: MachineConfig, local: bool, from: Option<&MemoryImage>) -> Self {
        let mut ms = crate::pool::lease(cfg.mem);
        if cfg.trace_capacity > 0 {
            ms.enable_event_trace(cfg.trace_capacity);
            ms.set_net_trace(cfg.trace_net);
        }
        let _prof = specrt_prof::scope("machine.setup");
        let mut image = MemoryImage::new();
        let placement = if local {
            PlacementPolicy::Local(NodeId(0))
        } else {
            PlacementPolicy::RoundRobin
        };
        for a in &spec.arrays {
            ms.alloc_array(a.id, a.len, a.elem, placement);
            let values = from.map_or_else(|| a.padded_init(), |from| from.contents(a.id));
            image.register_with(a.id, values);
        }
        // Synchronization infrastructure: barrier counter + sense flag.
        ms.alloc_array(
            crate::exec::BARRIER_ARRAY,
            2,
            ElemSize::W8,
            PlacementPolicy::Local(NodeId(0)),
        );
        image.register(crate::exec::BARRIER_ARRAY, 2);
        Machine {
            per_proc: vec![TimeBreakdown::new(); cfg.procs() as usize],
            now: Cycles::ZERO,
            cfg,
            ms,
            image,
        }
    }

    fn absorb(&mut self, summary: &ExecSummary) {
        for (acc, bd) in self.per_proc.iter_mut().zip(&summary.per_proc) {
            *acc = acc.merged(bd);
        }
        self.now = self.now.max(summary.finish_time);
    }

    /// Runs one non-speculative phase from the current time; it must
    /// complete.
    fn phase(&mut self, programs: Vec<Program>, sched: &mut dyn Scheduler) {
        let summary = Executor::new(&self.cfg, &mut self.ms, &mut self.image, programs, sched)
            .starting_at(self.now)
            .run();
        assert_eq!(summary.end, ExecEnd::Completed);
        self.absorb(&summary);
    }

    /// Registers every processor's private copy of the privatized arrays.
    fn register_private_copies(&mut self, spec: &LoopSpec) {
        for arr in spec.plan.priv_arrays() {
            for p in 0..self.cfg.procs() {
                let id = private_copy_id(arr, ProcId(p));
                self.image.register(id, spec.array(arr).len);
            }
        }
    }

    /// Emits a `Recovery` trace event at the current time.
    fn recovery_event(&mut self, action: &'static str, attempt: u32) {
        if self.ms.tracer().enabled() {
            let at = self.now;
            self.ms.tracer_mut().emit(TraceEvent::Recovery {
                at,
                action,
                attempt,
            });
        }
    }

    /// The result of the finished run. `stats` is passed in because each
    /// scenario reads them at its own point (speculative ones before
    /// copy-out).
    fn finish(
        mut self,
        scenario: Scenario,
        spec: &LoopSpec,
        failure: Option<String>,
        iterations: u64,
        stats: StatSet,
    ) -> RunResult {
        let n = self.per_proc.len().max(1) as u64;
        RunResult {
            scenario,
            name: spec.name.clone(),
            total_cycles: self.now,
            breakdown: self
                .per_proc
                .iter()
                .fold(TimeBreakdown::new(), |a, b| a.merged(b))
                .scaled(1, n),
            passed: matches!(scenario, Scenario::Hw | Scenario::Sw(_)).then_some(failure.is_none()),
            failure,
            iterations,
            stats,
            net: self.ms.net_summary(),
            trace: self.ms.take_event_trace(),
            final_image: self.image,
        }
    }
}

fn make_sched(
    kind: ScheduleKind,
    total: u64,
    procs: u32,
    cfg: &MachineConfig,
) -> Box<dyn Scheduler> {
    match kind {
        ScheduleKind::Static => {
            Box::new(StaticChunked::new(total, procs, cfg.sched_static_overhead))
        }
        ScheduleKind::BlockCyclic { block } => Box::new(BlockCyclic::new(
            total,
            procs,
            block,
            cfg.sched_static_overhead,
        )),
        ScheduleKind::Dynamic { block } => Box::new(DynamicSelf::new(
            total,
            procs,
            block,
            cfg.sched_lock_hold,
            cfg.sched_static_overhead,
        )),
    }
}

/// Runs `spec` under `scenario` on a `procs`-processor machine.
///
/// # Panics
///
/// Panics on malformed specs (undeclared arrays, invalid programs) — these
/// are construction bugs, not run-time conditions.
pub fn run_scenario(spec: &LoopSpec, scenario: Scenario, procs: u32) -> RunResult {
    run_scenario_configured(spec, scenario, MachineConfig::with_procs(procs))
}

/// [`run_scenario`] with an explicit machine configuration (cache geometry,
/// latencies, write-buffer depth, …). The `Serial` scenario and any serial
/// re-execution use the same configuration with one processor.
pub fn run_scenario_configured(
    spec: &LoopSpec,
    scenario: Scenario,
    cfg: MachineConfig,
) -> RunResult {
    match scenario {
        Scenario::Serial => run_serial(spec, cfg),
        Scenario::Ideal => run_ideal(spec, cfg),
        Scenario::Hw => run_hw(spec, cfg),
        Scenario::Sw(variant) => run_sw(spec, cfg, variant),
    }
}

fn single_proc(mut cfg: MachineConfig) -> MachineConfig {
    cfg.mem.procs = 1;
    cfg
}

// ----------------------------------------------------------------------
// Serial
// ----------------------------------------------------------------------

fn run_serial(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let mut s = Machine::load(spec, single_proc(cfg), true, None);
    let iterations = serial_pass(spec, &mut s, 0);
    let stats = s.ms.stats().clone();
    s.finish(Scenario::Serial, spec, None, iterations, stats)
}

/// Runs iterations `[from, spec.iters)` on the one-processor machine `s`
/// under plain coherence. Returns the iterations run.
fn serial_pass(spec: &LoopSpec, s: &mut Machine, from: u64) -> u64 {
    s.ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
    let inner = StaticChunked::new(spec.iters - from, 1, s.cfg.sched_static_overhead);
    let mut sched = Windowed::new(Box::new(inner), from);
    let summary = Executor::new(
        &s.cfg,
        &mut s.ms,
        &mut s.image,
        vec![spec.body.clone()],
        &mut sched,
    )
    .run();
    assert_eq!(
        summary.end,
        ExecEnd::Completed,
        "serial execution cannot fail"
    );
    s.absorb(&summary);
    summary.iterations
}

/// Serial re-execution after a failed speculation: runs `[from,
/// spec.iters)` on a fresh one-processor machine seeded with `m`'s image
/// (loop entry after a restore when `from` is 0, else a checkpoint), then
/// copies the loop arrays back. The serial time is wall-clock for the
/// whole machine, so it folds into every processor of `m`.
fn serial_rerun(spec: &LoopSpec, m: &mut Machine, from: u64) {
    let _prof = specrt_prof::scope("machine.serial_reexec");
    let mut cfg = single_proc(m.cfg);
    cfg.trace_capacity = 0;
    let mut s = Machine::load(spec, cfg, true, Some(&m.image));
    serial_pass(spec, &mut s, from);
    m.now += s.now;
    for bd in &mut m.per_proc {
        *bd = bd.merged(&s.per_proc[0]);
    }
    for a in &spec.arrays {
        m.image.set_contents(a.id, s.image.contents(a.id));
    }
}

// ----------------------------------------------------------------------
// Ideal
// ----------------------------------------------------------------------

fn run_ideal(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::load(spec, cfg, false, None);

    // Privatized arrays keep their data path; non-privatized tested arrays
    // revert to plain coherence; no test runs at all.
    let mut plan = TestPlan::new();
    for (arr, kind) in spec.plan.arrays_under_test() {
        if kind.is_privatized() {
            plan.set(arr, kind);
        }
    }
    let priv_arrays = plan.priv_arrays();
    m.ms.configure_loop(plan, spec.numbering);
    m.ms.set_test_enabled(false);
    m.register_private_copies(spec);
    // Scratch arrays for copy-out timing.
    let live_priv: Vec<ArrayId> = spec
        .live_after
        .iter()
        .copied()
        .filter(|a| priv_arrays.contains(a))
        .collect();
    for &arr in &live_priv {
        let decl = spec.array(arr);
        m.ms.alloc_array(
            scratch_id(arr),
            decl.len,
            decl.elem,
            PlacementPolicy::RoundRobin,
        );
        m.image.register(scratch_id(arr), decl.len);
    }

    let mut sched = make_sched(spec.schedule, spec.iters, procs, &m.cfg);
    let mut exec = Executor::new(
        &m.cfg,
        &mut m.ms,
        &mut m.image,
        vec![spec.body.clone(); procs as usize],
        sched.as_mut(),
    )
    .route_privatized(true);
    for &arr in &priv_arrays {
        for p in 0..procs {
            exec = exec.track_copy_out(private_copy_id(arr, ProcId(p)), arr);
        }
    }
    let summary = exec.run();
    assert_eq!(summary.end, ExecEnd::Completed, "ideal run cannot fail");
    m.absorb(&summary);

    copy_out_phase(spec, &mut m, &live_priv, &summary.winners, true);
    let stats = m.ms.stats().clone();
    m.finish(Scenario::Ideal, spec, None, summary.iterations, stats)
}

// ----------------------------------------------------------------------
// Shared phases
// ----------------------------------------------------------------------

/// Runs a copy loop `dst[off+e] = src[off+e]` over `len` elements in
/// parallel.
fn copy_phase(m: &mut Machine, src: ArrayId, dst: ArrayId, region: (u64, u64)) {
    let (off, len) = region;
    let procs = m.cfg.procs();
    let body = copy_body_region(src, dst, off);
    let mut sched = StaticChunked::new(len, procs, m.cfg.sched_static_overhead);
    m.phase(vec![body; procs as usize], &mut sched);
}

/// The backed-up arrays of a speculative run.
struct Backup {
    /// Arrays copied to their backup up front.
    dense: Vec<ArrayId>,
    /// Arrays saved on first write (§2.2.1).
    sparse: Vec<ArrayId>,
    /// Functional snapshot of the sparse arrays, for the restore path.
    snapshot: ArrayBackup,
}

/// The backup phase. Densely-backed arrays are copied up front; sparsely-
/// backed arrays (§2.2.1's save-on-first-write) cost nothing here — the
/// hardware/software saves each element's old value alongside its first
/// write, which our model folds into the write itself — and are captured
/// functionally for the restore path.
fn backup_phase(spec: &LoopSpec, m: &mut Machine) -> Backup {
    let _prof = specrt_prof::scope("machine.backup");
    let (sparse, dense): (Vec<ArrayId>, Vec<ArrayId>) = spec
        .backup_arrays()
        .into_iter()
        .partition(|&arr| spec.array(arr).sparse_backup);
    for &arr in &dense {
        copy_phase(m, arr, backup_id(arr), spec.array(arr).backup_elems());
    }
    let snapshot = m.image.snapshot(&sparse);
    Backup {
        dense,
        sparse,
        snapshot,
    }
}

/// The restore phase: dense arrays copy their backup region back; sparse
/// arrays restore only the elements that were actually written (the
/// executor's last-writer tracking counts them).
fn restore_phase(spec: &LoopSpec, m: &mut Machine, backup: &Backup, winners: &Winners) {
    let _prof = specrt_prof::scope("machine.restore");
    for &arr in &backup.dense {
        copy_phase(m, backup_id(arr), arr, spec.array(arr).backup_elems());
    }
    for &arr in &backup.sparse {
        let count = winners.range((arr, 0)..=(arr, u64::MAX)).count() as u64;
        if count > 0 {
            // Timing: copy `count` saved elements back; functionally the
            // snapshot below reinstates the exact old values.
            copy_phase(m, backup_id(arr), arr, (0, count));
        }
    }
    m.image.restore(&backup.snapshot);
}

/// Merges one window's last-writer map into the run's accumulated one:
/// the higher stamp (`iteration + 1`) wins. Windows partition the
/// iteration space, so two windows can never record the *same* stamp for
/// the same `(array, element)` — the `>=` tiebreak only fires when a map
/// is merged over itself (idempotence), never to pick between distinct
/// writes. Together with `BTreeMap`'s fixed iteration order this makes
/// the merge order-independent: no window arrival order, host hash seed,
/// or `--jobs` schedule can leak into verdicts, stats, or images (pinned
/// by `winner_merge_tests`).
fn merge_winners(into: &mut Winners, from: &Winners) {
    for (k, v) in from {
        let e = into.entry(*k).or_insert(*v);
        if v.0 >= e.0 {
            *e = *v;
        }
    }
}

/// The copy-out phase: timed as a parallel copy of each live privatized
/// array; functionally, the tracked last-writer values are applied.
fn copy_out_phase(
    spec: &LoopSpec,
    m: &mut Machine,
    live_priv: &[ArrayId],
    winners: &Winners,
    hw_private_src: bool,
) {
    let _prof = specrt_prof::scope("machine.copy_out");
    for &arr in live_priv {
        let decl = spec.array(arr);
        // Timing: each processor copies its slice from its own private copy
        // into a scratch array with the same distribution as the original;
        // functionally the last-writer values are applied below, so the
        // scratch contents are snapshot-restored.
        let snapshot = m.image.contents(scratch_id(arr));
        let src = if hw_private_src {
            private_copy_id(arr, ProcId(0))
        } else {
            sw_private_copy_id(arr, ProcId(0))
        };
        copy_phase(m, src, scratch_id(arr), (0, decl.len));
        m.image.set_contents(scratch_id(arr), snapshot);
        for (&(warr, idx), &(_, value)) in winners {
            if warr == arr {
                m.image.write(arr, idx, value);
            }
        }
    }
}

/// Registers backup and scratch allocations used by the speculative
/// scenarios. Returns the live privatized arrays.
fn setup_speculative_storage(spec: &LoopSpec, m: &mut Machine) -> Vec<ArrayId> {
    let _prof = specrt_prof::scope("machine.setup");
    for arr in spec.backup_arrays() {
        let decl = spec.array(arr);
        m.ms.alloc_array(
            backup_id(arr),
            decl.len,
            decl.elem,
            PlacementPolicy::RoundRobin,
        );
        m.image.register(backup_id(arr), decl.len);
    }
    let live_priv: Vec<ArrayId> = spec
        .live_after
        .iter()
        .copied()
        .filter(|&a| spec.plan.kind_of(a).is_privatized())
        .collect();
    for &arr in &live_priv {
        let decl = spec.array(arr);
        m.ms.alloc_array(
            scratch_id(arr),
            decl.len,
            decl.elem,
            PlacementPolicy::RoundRobin,
        );
        m.image.register(scratch_id(arr), decl.len);
    }
    live_priv
}

// ----------------------------------------------------------------------
// HW
// ----------------------------------------------------------------------

/// The newest checkpoint of a `CheckpointRestart` run, snapshotted at a
/// window barrier: the first iteration a rerun must execute, the committed
/// image, the accumulated last-writer map, and the iterations completed so
/// far.
struct Checkpoint {
    start: u64,
    image: MemoryImage,
    winners: Winners,
    iterations: u64,
}

/// The outcome of a speculative pass over the loop, or of a recovery rung.
struct Attempt {
    failed: Option<FailReason>,
    iterations: u64,
    winners: Winners,
    /// Protocol statistics as the result reports them.
    stats: StatSet,
}

/// One step of the recovery ladder that follows a failed speculative
/// attempt (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Restore the backups and re-run the whole loop speculatively on the
    /// same machine; the fault plane stays armed.
    Retry,
    /// Roll back to the newest checkpoint and re-run the iterations after
    /// it speculatively on a fresh machine.
    Rerun,
    /// Re-execute serially from the rollback target: loop entry, or the
    /// checkpoint a failed rerun rolled back to.
    Serial,
}

/// The rungs `policy` walks after the first failed attempt, given whether
/// a checkpoint precedes the failure. Every ladder ends in the serial
/// safety net.
fn ladder(policy: RecoveryPolicy, checkpointed: bool) -> impl Iterator<Item = Rung> {
    let (retries, rerun) = match policy {
        RecoveryPolicy::SerialReexec => (0, false),
        RecoveryPolicy::RetrySpeculative { max_attempts } => (max_attempts, false),
        RecoveryPolicy::CheckpointRestart { .. } => (0, checkpointed),
    };
    std::iter::repeat_n(Rung::Retry, retries as usize)
        .chain(rerun.then_some(Rung::Rerun))
        .chain([Rung::Serial])
}

/// Runs iterations `[start, start + len)` speculatively on `m` from its
/// current time, tracking the last writers of the private copies and of
/// the `sparse`ly backed arrays.
fn spec_window(
    spec: &LoopSpec,
    m: &mut Machine,
    sparse: &[ArrayId],
    start: u64,
    len: u64,
) -> ExecSummary {
    let procs = m.cfg.procs();
    let mut sched = Windowed::new(make_sched(spec.schedule, len, procs, &m.cfg), start);
    let mut exec = Executor::new(
        &m.cfg,
        &mut m.ms,
        &mut m.image,
        vec![spec.body.clone(); procs as usize],
        &mut sched,
    )
    .route_privatized(true)
    .speculative(true)
    .starting_at(m.now);
    for arr in spec.plan.priv_arrays() {
        for p in 0..procs {
            exec = exec.track_copy_out(private_copy_id(arr, ProcId(p)), arr);
        }
    }
    for &arr in sparse {
        exec = exec.track_copy_out(arr, arr);
    }
    exec.run()
}

/// One speculative pass over the whole loop on `m` — the first attempt or
/// an in-place retry — under the protocol extensions. Under
/// `CheckpointRestart` every window barrier replaces `ckpt` with a
/// snapshot of the committed prefix.
fn speculate(
    spec: &LoopSpec,
    m: &mut Machine,
    sparse: &[ArrayId],
    ckpt: &mut Option<Checkpoint>,
) -> Attempt {
    // §3.3: if the stamps would overflow, run the loop in windows separated
    // by all-processor synchronizations that reset the stamps.
    let mut window = spec
        .stamp_window
        .filter(|_| !spec.plan.priv_arrays().is_empty())
        .unwrap_or(spec.iters)
        .max(1);
    // Checkpoint cadence: under CheckpointRestart the loop always runs in
    // windows of at most `every_iters`, so a window barrier — the quiescent
    // point a checkpoint snapshots — occurs at least that often.
    let checkpointing = match m.cfg.recovery {
        RecoveryPolicy::CheckpointRestart { checkpoint } => {
            assert!(
                checkpoint.every_iters > 0,
                "checkpoint.every_iters=0 (MachineConfig::validate rejects it)"
            );
            window = window.min(checkpoint.every_iters);
            true
        }
        _ => false,
    };
    // Loop-entry image, kept only to model the injected stale-snapshot bug
    // (the checkpoint analogue of forgetting to merge dirty-line tags).
    let stale_image = (checkpointing && fault::active(fault::FaultKind::CkptSkipDirtySnapshot))
        .then(|| m.image.clone());

    m.ms.configure_loop(spec.plan.clone(), spec.numbering);
    let mut iterations = 0u64;
    let mut winners = Winners::new();
    let mut failed = None;
    let mut start = 0u64;
    while start < spec.iters {
        let len = window.min(spec.iters - start);
        if start > 0 {
            // Synchronization point: all in-flight protocol messages land,
            // the stamps reset, and a barrier separates the windows.
            m.ms.drain_all_messages();
            // Window-flushed verdict: a conflict hidden on a dirty line
            // must surface *before* the prefix is declared committed (and
            // snapshotted) — the same merge the loop-end verdict does, at
            // every barrier.
            if m.ms.failure().is_none() {
                m.ms.merge_dirty_tags(m.now);
            }
            if let Some((reason, _)) = m.ms.failure() {
                failed = Some(reason);
                break;
            }
            m.ms.reset_stamp_window(start);
            // Partial commit (§3.3): fold the accumulated last-writer
            // values of the privatized arrays into the shared image. The
            // stamp reset wipes the private directories, so the next
            // window's read-ins go back to shared memory — which must hold
            // every value the committed prefix wrote, or a processor
            // re-reads-in stale data over its own earlier-window private
            // write.
            for (&(arr, idx), &(_, value)) in &winners {
                m.image.write(arr, idx, value);
            }
            m.now += Cycles(m.cfg.barrier_overhead);
            if checkpointing {
                // Snapshot the committed prefix (the winner values are
                // already folded into the image at this barrier). The
                // injected `CkptSkipDirtySnapshot` bug records the
                // loop-entry image instead; the campaign's serial-oracle
                // image check must flag the stale rollback it causes.
                *ckpt = Some(Checkpoint {
                    start,
                    image: stale_image.as_ref().unwrap_or(&m.image).clone(),
                    winners: winners.clone(),
                    iterations,
                });
                m.ms.incr_stat("checkpoint.snapshots");
                // Committing the snapshot to safe storage costs one more
                // barrier episode on top of the window barrier.
                m.now += Cycles(m.cfg.barrier_overhead);
            }
        }
        let summary = spec_window(spec, m, sparse, start, len);
        m.absorb(&summary);
        iterations += summary.iterations;
        merge_winners(&mut winners, &summary.winners);
        if let ExecEnd::Failed { reason, .. } = summary.end {
            failed = Some(reason);
            break;
        }
        start += len;
    }
    m.ms.drain_all_messages();
    // Quiescent point: every protocol message has landed; the directory
    // and cache views must agree before the verdict is read.
    #[cfg(debug_assertions)]
    m.ms.assert_invariants();
    // Flushed-verdict semantics (paper §4, flush-after-every-loop): a
    // dirty line's locally accumulated access bits never reached the
    // directory, so a conflict hidden by a silent dirty-hit write could
    // escape a drain-point-only verdict. Merge them (state-only, no
    // eviction, no timing charge) before reading the verdict. A run that
    // already failed promptly skips the merge — its verdict is settled and
    // the failure state must not be perturbed.
    if failed.is_none() {
        m.ms.merge_dirty_tags(m.now);
        if let Some((reason, at)) = m.ms.failure() {
            m.now = m.now.max(at) + Cycles(m.cfg.abort_latency);
            failed = Some(reason);
        }
    }
    let stats = m.ms.stats().clone();
    // Post-loop phases (restore / copy-out / serial fallback) run under
    // plain coherence.
    m.ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
    Attempt {
        failed,
        iterations,
        winners,
        stats,
    }
}

/// Re-runs the iterations `[ckpt.start, spec.iters)` speculatively on a
/// fresh `survivors`-processor machine seeded with the checkpoint image,
/// tracking the `sparse`ly backed arrays as the first attempt did.
/// The suspected node is fenced out and the survivors restart on a
/// fault-free interconnect — re-injecting the same deterministic node
/// fault would kill every recovery attempt (DESIGN.md §16 records the
/// simplification). Returns the rerun machine and its summary, or `None`
/// when the rerun fails again (a deterministic dependence violation in the
/// suffix).
fn checkpoint_rerun(
    spec: &LoopSpec,
    ckpt: &Checkpoint,
    mut cfg: MachineConfig,
    survivors: u32,
    sparse: &[ArrayId],
) -> Option<(Machine, ExecSummary)> {
    let _prof = specrt_prof::scope("machine.ckpt_rerun");
    cfg.mem.procs = survivors;
    cfg.mem.net.faults = FaultConfig::none();
    cfg.trace_capacity = 0;
    let mut r = Machine::load(spec, cfg, false, Some(&ckpt.image));
    r.register_private_copies(spec);
    r.ms.configure_loop(spec.plan.clone(), spec.numbering);
    // Stamps restart relative to the checkpoint, exactly as the original
    // machine's window barrier would have left them.
    r.ms.reset_stamp_window(ckpt.start);
    let summary = spec_window(spec, &mut r, sparse, ckpt.start, spec.iters - ckpt.start);
    r.absorb(&summary);
    r.ms.drain_all_messages();
    let completed = matches!(summary.end, ExecEnd::Completed);
    if completed {
        r.ms.merge_dirty_tags(r.now);
    }
    (completed && r.ms.failure().is_none()).then_some((r, summary))
}

fn run_hw(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::load(spec, cfg, false, None);
    let live_priv = setup_speculative_storage(spec, &mut m);
    let backup = backup_phase(spec, &mut m);
    m.register_private_copies(spec);

    let mut ckpt = None;
    let mut run = speculate(spec, &mut m, &backup.sparse, &mut ckpt);
    // The recovery ladder. `attempt` counts the speculative recovery
    // attempts so far; the serial rung's event carries the count that
    // preceded it. `from` is the serial rung's rollback target.
    let mut attempt = 0;
    let mut from = 0;
    for rung in ladder(cfg.recovery, ckpt.is_some()) {
        let Some(reason) = run.failed else { break };
        match rung {
            Rung::Retry => {
                // Restore the backups (costed like any abort), re-arm the
                // speculation hardware, and go around again: a transient
                // failure (a lost message escalated by the watchdog) need
                // not repeat.
                attempt += 1;
                restore_phase(spec, &mut m, &backup, &run.winners);
                // Private copies restart clean, exactly as a fresh loop
                // entry would see them (their read-in/copy-out decisions
                // were wiped with the access bits).
                for arr in spec.plan.priv_arrays() {
                    for p in 0..procs {
                        let zeros = vec![Scalar::ZERO; spec.array(arr).len as usize];
                        m.image.set_contents(private_copy_id(arr, ProcId(p)), zeros);
                    }
                }
                m.ms.reset_speculation();
                m.recovery_event("retry-speculative", attempt);
                run = speculate(spec, &mut m, &backup.sparse, &mut ckpt);
            }
            Rung::Rerun => {
                // Roll back to the newest checkpoint and re-run only the
                // lost iterations — on the survivors when a node was
                // declared unreachable (the fresh schedule redistributes
                // its remaining chunk).
                attempt += 1;
                m.recovery_event("checkpoint-restart", attempt);
                m.ms.incr_stat("checkpoint.restores");
                // Timed rollback: the same restore traffic any abort pays;
                // functionally the checkpoint image then replaces the
                // speculative one wholesale.
                restore_phase(spec, &mut m, &backup, &run.winners);
                let ck = ckpt.take().expect("a rerun rung follows a checkpoint");
                let survivors = match reason {
                    FailReason::NodeUnreachable { .. } => procs.saturating_sub(1).max(1),
                    _ => procs,
                };
                let rerun = checkpoint_rerun(spec, &ck, cfg, survivors, &backup.sparse);
                from = ck.start;
                m.image = ck.image;
                if let Some((r, summary)) = rerun {
                    m.now += r.now;
                    for (bd, rb) in m.per_proc.iter_mut().zip(&r.per_proc) {
                        *bd = bd.merged(rb);
                    }
                    for a in &spec.arrays {
                        m.image.set_contents(a.id, r.image.contents(a.id));
                    }
                    let mut winners = ck.winners;
                    merge_winners(&mut winners, &summary.winners);
                    let mut stats = m.ms.stats().clone();
                    stats.merge(r.ms.stats());
                    run = Attempt {
                        failed: None,
                        iterations: ck.iterations + summary.iterations,
                        winners,
                        stats,
                    };
                }
            }
            Rung::Serial => {
                // The paper's SerialReexec baseline emits no Recovery
                // event, so its traces stay byte-identical to the
                // pre-resilience golden traces.
                if cfg.recovery != RecoveryPolicy::SerialReexec {
                    m.recovery_event("serial-reexec", attempt);
                }
                if from == 0 {
                    restore_phase(spec, &mut m, &backup, &run.winners);
                } else {
                    // The rerun failed again (a deterministic dependence
                    // violation in the suffix): only the iterations the
                    // checkpoint does not cover re-execute, on the image
                    // the rerun rung already restored.
                    m.ms.incr_stat("checkpoint.serial_fallbacks");
                    run.stats = m.ms.stats().clone();
                }
                serial_rerun(spec, &mut m, from);
            }
        }
    }
    if run.failed.is_none() {
        copy_out_phase(spec, &mut m, &live_priv, &run.winners, true);
    }
    let failure = run.failed.map(|reason| reason.to_string());
    m.finish(Scenario::Hw, spec, failure, run.iterations, run.stats)
}

// ----------------------------------------------------------------------
// SW
// ----------------------------------------------------------------------

fn run_sw(spec: &LoopSpec, cfg: MachineConfig, variant: SwVariant) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::load(spec, cfg, false, None);
    let live_priv = setup_speculative_storage(spec, &mut m);

    let tested: Vec<(ArrayId, ProtocolKind)> = spec.plan.arrays_under_test().collect();
    let priv_arrays = spec.plan.priv_arrays();
    // Processor-wise shadows are 1-bit-per-element bitmaps (§2.2.3),
    // manipulated 64 elements per word; iteration-wise shadows are 4-byte
    // stamp arrays.
    let bitmap = variant == SwVariant::ProcessorWise;

    // Allocate shadow arrays (node-local) and counters, plus software
    // private copies of privatized arrays.
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        for p in 0..procs {
            let ids = ShadowIds::new(arr, ProcId(p));
            let node = PlacementPolicy::Local(NodeId(p));
            if bitmap {
                let words = len.div_ceil(64);
                for sid in [ids.w_last(), ids.r_cur(), ids.np()] {
                    m.ms.alloc_array(sid, words, ElemSize::W8, node);
                    m.image.register(sid, words);
                }
            } else {
                for sid in ids.data_shadows() {
                    m.ms.alloc_array(sid, len, ElemSize::W4, node);
                    m.image.register(sid, len);
                }
            }
            m.ms.alloc_array(ids.counters(), CNT_LEN, ElemSize::W8, node);
            m.image.register(ids.counters(), CNT_LEN);
        }
        // Global reduction flags (read by processor 0's final reduction).
        m.ms.alloc_array(
            reduce_id(arr),
            CNT_LEN,
            ElemSize::W8,
            PlacementPolicy::Local(NodeId(0)),
        );
        m.image.register(reduce_id(arr), CNT_LEN);
    }
    for &arr in &priv_arrays {
        let decl = spec.array(arr);
        for p in 0..procs {
            let id = sw_private_copy_id(arr, ProcId(p));
            m.ms.alloc_array(id, decl.len, decl.elem, PlacementPolicy::Local(NodeId(p)));
            m.image.register(id, decl.len);
        }
    }
    m.ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());

    // Phase 1: backup.
    let backup = backup_phase(spec, &mut m);

    // Phase 2: shadow zero-out (each processor clears its own shadows;
    // bitmap shadows clear 64 elements per store).
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        let units = if bitmap { len.div_ceil(64) } else { len };
        let programs: Vec<Program> = (0..procs)
            .map(|p| {
                let ids = ShadowIds::new(arr, ProcId(p));
                if bitmap {
                    zero_shadow_body_bitmap(&ids)
                } else {
                    zero_shadow_body(&ids)
                }
            })
            .collect();
        let mut sched = Replicated::new(units, procs, m.cfg.sched_static_overhead);
        m.phase(programs, &mut sched);
    }

    // Phase 3: the marking loop.
    let (numbering, schedule) = match variant {
        SwVariant::IterationWise => (spec.numbering, spec.schedule),
        SwVariant::ProcessorWise => (
            IterationNumbering::processor_wise(spec.iters, procs),
            ScheduleKind::Static,
        ),
    };
    let icfg = InstrumentConfig {
        plan: spec.plan.clone(),
        numbering,
        bitmap,
    };
    let programs: Vec<Program> = (0..procs)
        .map(|p| instrument_for_proc(&spec.body, &icfg, ProcId(p)))
        .collect();
    let mut sched = make_sched(schedule, spec.iters, procs, &m.cfg);
    let mut exec =
        Executor::new(&m.cfg, &mut m.ms, &mut m.image, programs, sched.as_mut()).starting_at(m.now);
    for &arr in &priv_arrays {
        for p in 0..procs {
            exec = exec.track_copy_out(sw_private_copy_id(arr, ProcId(p)), arr);
        }
    }
    for &arr in &backup.sparse {
        exec = exec.track_copy_out(arr, arr);
    }
    let summary = exec.run();
    assert_eq!(
        summary.end,
        ExecEnd::Completed,
        "SW marking loop runs to completion"
    );
    m.absorb(&summary);

    // Phase 4: merging + analysis (word-granular for bitmap shadows).
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        let units = if bitmap { len.div_ceil(64) } else { len };
        let all: Vec<ShadowIds> = (0..procs).map(|p| ShadowIds::new(arr, ProcId(p))).collect();
        let programs: Vec<Program> = (0..procs)
            .map(|p| {
                if bitmap {
                    merge_analysis_body_bitmap(&all, ProcId(p))
                } else {
                    merge_analysis_body(&all, ProcId(p))
                }
            })
            .collect();
        let mut sched = StaticChunked::new(units, procs, m.cfg.sched_static_overhead);
        m.phase(programs, &mut sched);
    }

    // Phase 5: the final reduction over the per-processor counters, run
    // serially on processor 0 (one remote counter line per processor).
    for &(arr, _) in &tested {
        let all: Vec<ShadowIds> = (0..procs).map(|p| ShadowIds::new(arr, ProcId(p))).collect();
        let body = reduction_body(&all, reduce_id(arr), bitmap);
        let mut sched = crate::sched::SingleProc::new(procs as u64, m.cfg.sched_static_overhead);
        m.phase(vec![body; procs as usize], &mut sched);
    }
    // The verdict is read from the simulated machine's reduction output.
    let mut failing = Vec::new();
    for &(arr, kind) in &tested {
        let g = reduce_id(arr);
        let atw = m.image.read(g, CNT_ATW).as_int();
        let slot1 = m.image.read(g, CNT_ATM).as_int();
        let bad_wr = m.image.read(g, CNT_BAD_WR).as_int() != 0;
        let bad_np = m.image.read(g, CNT_BAD_NP).as_int() != 0;
        // Test (c): no element written by two (super)iterations — expressed
        // as `Atw == Atm` for stamps, or directly as the absence of a
        // multi-writer overlap for bitmaps.
        let single_writers = if bitmap { slot1 == 0 } else { atw == slot1 };
        let ok = if bad_wr {
            false
        } else if single_writers {
            true
        } else if kind.is_privatized() {
            !bad_np
        } else {
            false
        };
        if !ok {
            failing.push(arr.to_string());
        }
    }

    let stats = m.ms.stats().clone();
    let failure =
        (!failing.is_empty()).then(|| format!("LRPD test failed for {}", failing.join(", ")));
    if failure.is_some() {
        // The serial safety net from loop entry; the software scheme has
        // no other recovery.
        restore_phase(spec, &mut m, &backup, &summary.winners);
        serial_rerun(spec, &mut m, 0);
    } else {
        copy_out_phase(spec, &mut m, &live_priv, &summary.winners, false);
    }
    m.finish(
        Scenario::Sw(variant),
        spec,
        failure,
        summary.iterations,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{BinOp, Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);
    const K: ArrayId = ArrayId(1);
    const OUT: ArrayId = ArrayId(2);

    /// Pins the determinism contract of [`merge_winners`]: the
    /// accumulated last-writer map must not depend on the order windows
    /// are merged in, and merging a window over itself must be a no-op —
    /// so no arrival order, host hash seed, or `--jobs` schedule can
    /// leak into verdicts, stats, or final images.
    mod winner_merge_tests {
        use super::super::merge_winners;
        use specrt_ir::ArrayId;
        use specrt_ir::Scalar;
        use std::collections::BTreeMap;

        type Winners = BTreeMap<(ArrayId, u64), (u64, Scalar)>;
        type Entry = ((u32, u64), (u64, i64));

        fn window(entries: &[Entry]) -> Winners {
            entries
                .iter()
                .map(|&((a, e), (stamp, v))| ((ArrayId(a), e), (stamp, Scalar::Int(v))))
                .collect()
        }

        #[test]
        fn merge_is_order_independent() {
            // Three windows over disjoint stamp ranges (as real windows
            // are), with overlapping element sets.
            let w1 = window(&[((0, 0), (1, 10)), ((0, 1), (2, 11))]);
            let w2 = window(&[((0, 0), (4, 20)), ((1, 3), (3, 21))]);
            let w3 = window(&[((0, 1), (6, 30)), ((1, 3), (5, 31))]);
            let windows = [&w1, &w2, &w3];
            let orders: &[[usize; 3]] = &[
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ];
            let mut results = orders.iter().map(|order| {
                let mut acc = Winners::new();
                for &i in order {
                    merge_winners(&mut acc, windows[i]);
                }
                acc
            });
            let first = results.next().unwrap();
            assert!(
                results.all(|r| r == first),
                "winner merge must not depend on window order"
            );
            // Highest stamp won everywhere.
            assert_eq!(first[&(ArrayId(0), 0)], (4, Scalar::Int(20)));
            assert_eq!(first[&(ArrayId(0), 1)], (6, Scalar::Int(30)));
            assert_eq!(first[&(ArrayId(1), 3)], (5, Scalar::Int(31)));
        }

        #[test]
        fn merge_is_idempotent() {
            let w = window(&[((0, 0), (3, 7)), ((2, 9), (8, 1))]);
            let mut acc = Winners::new();
            merge_winners(&mut acc, &w);
            let once = acc.clone();
            merge_winners(&mut acc, &w);
            assert_eq!(acc, once, "self-merge must be a no-op");
        }
    }

    /// `A[K[i]] += 1` with K a permutation: parallel without privatization.
    fn permutation_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        let idx = b.load(K, Operand::Iter);
        let v = b.load(A, Operand::Reg(idx));
        let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
        b.store(A, Operand::Reg(idx), Operand::Reg(v2));
        b.compute(120);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        // K[i] = (i * 7) mod n is a permutation when gcd(7, n) = 1... we use
        // n a power of two, so it is.
        let k_init: Vec<Scalar> = (0..n).map(|i| Scalar::Int(((i * 7) % n) as i64)).collect();
        let a_init: Vec<Scalar> = (0..n).map(|i| Scalar::Float(i as f64)).collect();
        LoopSpec {
            name: "permutation".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::with_init(A, ElemSize::W8, a_init),
                ArrayDecl::with_init(K, ElemSize::W8, k_init),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        }
    }

    /// `OUT[i] = A[K[i]]` with A read-only under test. Every element read
    /// that hits a resident *clean* line emits an asynchronous `ROnly`
    /// update — and reads never dirty the lines — so protocol messages
    /// flow across the whole loop, and again on every speculative retry
    /// (the access bits reset, the lines stay clean). That makes this the
    /// workload of choice for node-fault tests: a crash or pause anywhere
    /// in the run reliably swallows some update and arms the watchdog.
    fn gather_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        let idx = b.load(K, Operand::Iter);
        let v = b.load(A, Operand::Reg(idx));
        b.store(OUT, Operand::Iter, Operand::Reg(v));
        b.compute(120);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        let k_init: Vec<Scalar> = (0..n).map(|i| Scalar::Int(((i * 7) % n) as i64)).collect();
        let a_init: Vec<Scalar> = (0..n).map(|i| Scalar::Float(i as f64)).collect();
        LoopSpec {
            name: "gather".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::with_init(A, ElemSize::W8, a_init),
                ArrayDecl::with_init(K, ElemSize::W8, k_init),
                ArrayDecl::zeroed(OUT, n, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A, OUT],
            stamp_window: None,
        }
    }

    /// All iterations collide on A[0]: not parallel.
    fn colliding_loop(n: u64) -> LoopSpec {
        let mut spec = permutation_loop(n);
        let k_init: Vec<Scalar> = (0..n).map(|_| Scalar::Int(0)).collect();
        spec.arrays[1] = ArrayDecl::with_init(K, ElemSize::W8, k_init);
        spec.name = "colliding".into();
        spec
    }

    /// Workspace loop: every iteration writes then reads A[0..4];
    /// privatizable.
    fn workspace_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        for e in 0..4 {
            b.store(A, Operand::ImmI(e), Operand::Iter);
        }
        let mut acc = b.mov(Operand::ImmI(0));
        for e in 0..4 {
            let v = b.load(A, Operand::ImmI(e));
            acc = b.binop(BinOp::Add, Operand::Reg(acc), Operand::Reg(v));
        }
        b.store(K, Operand::Iter, Operand::Reg(acc));
        b.compute(15);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: false,
                copy_out: false,
            },
        );
        LoopSpec {
            name: "workspace".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::zeroed(A, 4, ElemSize::W8),
                ArrayDecl::zeroed(K, n, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![],
            stamp_window: None,
        }
    }

    fn check_matches_serial(spec: &LoopSpec, scenario: Scenario, procs: u32) -> RunResult {
        let serial = run_scenario(spec, Scenario::Serial, procs);
        let run = run_scenario(spec, scenario, procs);
        // Privatized arrays that are dead after the loop hold unspecified
        // values; compare only live state.
        let ids: Vec<ArrayId> = spec
            .arrays
            .iter()
            .map(|a| a.id)
            .filter(|&id| !spec.plan.kind_of(id).is_privatized() || spec.live_after.contains(&id))
            .collect();
        assert!(
            run.final_image.same_contents(&serial.final_image, &ids),
            "{scenario} final state differs from serial for {}",
            spec.name
        );
        run
    }

    #[test]
    fn hw_passes_parallel_loop_and_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(run.passed, Some(true), "{:?}", run.failure);
        assert_eq!(run.iterations, 64);
    }

    #[test]
    fn hw_fails_colliding_loop_and_recovers() {
        let spec = colliding_loop(64);
        let run = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(run.passed, Some(false));
        assert!(run.failure.is_some());
        assert!(run.iterations < 64, "must abort early");
    }

    #[test]
    fn sw_passes_parallel_loop_and_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(run.passed, Some(true), "{:?}", run.failure);
    }

    #[test]
    fn sw_fails_colliding_loop_and_recovers() {
        let spec = colliding_loop(64);
        let run = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(run.passed, Some(false));
        assert_eq!(run.iterations, 64, "SW only learns of failure at the end");
    }

    #[test]
    fn ideal_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Ideal, 4);
        assert_eq!(run.passed, None);
    }

    #[test]
    fn hw_faster_than_sw_faster_than_serial_on_parallel_loop() {
        let spec = permutation_loop(256);
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let ideal = run_scenario(&spec, Scenario::Ideal, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert!(ideal.total_cycles < serial.total_cycles);
        assert!(hw.total_cycles < serial.total_cycles, "HW should speed up");
        assert!(
            hw.total_cycles < sw.total_cycles,
            "HW {} should beat SW {}",
            hw.total_cycles,
            sw.total_cycles
        );
        assert!(ideal.total_cycles <= hw.total_cycles);
        assert!(hw.speedup_over(&serial) > 1.0);
    }

    #[test]
    fn hw_failure_detected_earlier_than_sw() {
        let spec = colliding_loop(128);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert!(
            hw.total_cycles < sw.total_cycles,
            "early abort must beat run-to-completion: HW {} vs SW {}",
            hw.total_cycles,
            sw.total_cycles
        );
    }

    #[test]
    fn privatized_workspace_passes_hw_and_sw() {
        let spec = workspace_loop(32);
        let hw = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        let sw = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
    }

    #[test]
    fn processor_wise_passes_same_proc_dependences() {
        // Iterations 2k and 2k+1 collide on A[k]; static chunking with 4
        // processors over 32 iterations puts each colliding pair on the
        // same processor, so the processor-wise SW test and the HW test
        // (processor-wise by construction) pass, while the iteration-wise
        // SW test fails.
        let mut b = ProgramBuilder::new();
        let half = b.binop(BinOp::Div, Operand::Iter, Operand::ImmI(2));
        let v = b.load(A, Operand::Reg(half));
        let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
        b.store(A, Operand::Reg(half), Operand::Reg(v2));
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        let spec = LoopSpec {
            name: "pairs".into(),
            body,
            iters: 32,
            arrays: vec![ArrayDecl::zeroed(A, 16, ElemSize::W8)],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        };
        let pw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 4);
        assert_eq!(pw.passed, Some(true), "{:?}", pw.failure);
        let iw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(iw.passed, Some(false));
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    }

    /// A lossy interconnect makes the watchdog abort the first speculative
    /// attempt; `RetrySpeculative` restores the backups, re-runs the loop
    /// (drawing fresh fault decisions), and passes — where the paper's
    /// `SerialReexec` policy falls straight back to serial. Both end on the
    /// serial-equivalent memory image. The drop rate and fault seed are
    /// picked so the first attempt deterministically loses an update
    /// message past the retransmission budget.
    #[test]
    fn retry_policy_recovers_transient_message_loss() {
        use crate::config::RecoveryPolicy;
        use specrt_proto::{FaultConfig, NetConfig};

        let spec = permutation_loop(64);
        let faults = FaultConfig {
            seed: 6,
            drop_ppm: 350_000,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        };
        let mut cfg = MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
        cfg.mem.retry.timeout = 64;
        cfg.mem.retry.max_retries = 1;
        cfg.trace_capacity = 4096;
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);

        // Paper policy: the loss escalates into abort + serial fallback.
        let base = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(base.passed, Some(false));
        assert!(
            base.failure.as_deref().unwrap_or("").contains("lost"),
            "expected a message-loss abort, got {:?}",
            base.failure
        );
        assert!(base.final_image.same_contents(&serial.final_image, &[A]));

        // Retry policy: the re-run draws different fault decisions and
        // completes speculatively.
        let retry = run_scenario_configured(
            &spec,
            Scenario::Hw,
            cfg.with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 3 }),
        );
        assert_eq!(retry.passed, Some(true), "{:?}", retry.failure);
        assert!(retry.stats.get("retry.speculative_reruns") >= 1);
        assert!(retry.final_image.same_contents(&serial.final_image, &[A]));
        assert!(
            retry.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "retry-speculative",
                    ..
                }
            )),
            "retry must be visible in the event trace"
        );
    }

    /// A deterministic dependence violation fails every speculative
    /// attempt: `RetrySpeculative` burns its budget, lands in the serial
    /// safety net, and still produces the serial result.
    #[test]
    fn retry_policy_exhausts_on_deterministic_conflict() {
        use crate::config::RecoveryPolicy;

        let spec = colliding_loop(64);
        let mut cfg = MachineConfig::with_procs(4)
            .with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 2 });
        cfg.trace_capacity = 4096;
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);
        let run = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(run.passed, Some(false));
        assert!(run.failure.is_some());
        assert_eq!(run.stats.get("retry.speculative_reruns"), 2);
        assert!(run.final_image.same_contents(&serial.final_image, &[A]));
        let serial_fallback = run.trace.iter().any(|e| {
            matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    attempt: 2,
                    ..
                }
            )
        });
        assert!(serial_fallback, "exhaustion must emit the fallback event");
    }

    /// A `NodePause` outlasting every retransmission backoff exhausts the
    /// `RetrySpeculative` budget: each attempt escalates to
    /// `NodeUnreachable`, and after the budget burns the machine falls back
    /// to serial re-execution with the serial-equivalent image. The
    /// per-attempt cost (abort + restore + re-run to the same escalation
    /// point) is probe-pinned: the node fault is a pure function of
    /// (src, dst, cycle) and draws no RNG, so consecutive attempts cost
    /// exactly the same number of cycles.
    #[test]
    fn retry_exhaustion_under_long_pause_falls_back_to_serial() {
        use crate::config::RecoveryPolicy;
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let spec = gather_loop(64);
        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Pause {
                    for_cycles: u64::MAX / 2,
                },
                node: 2,
                at_cycle: 1,
            }),
            ..FaultConfig::none()
        };
        let run_with = |attempts: u32| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
            cfg.mem.retry.timeout = 64;
            cfg.mem.retry.max_retries = 2;
            cfg.trace_capacity = 4096;
            cfg.recovery = RecoveryPolicy::RetrySpeculative {
                max_attempts: attempts,
            };
            run_scenario_configured(&spec, Scenario::Hw, cfg)
        };
        let serial = run_scenario(&spec, Scenario::Serial, 4);

        let runs: Vec<RunResult> = [1u32, 2, 3].map(run_with).to_vec();
        for run in &runs {
            assert_eq!(run.passed, Some(false), "{:?}", run.failure);
            assert!(
                run.failure.as_deref().unwrap_or("").contains("unreachable"),
                "expected watchdog escalation, got {:?}",
                run.failure
            );
            assert!(run.stats.get("fault.node.unreachable") >= 1);
            assert!(run
                .final_image
                .same_contents(&serial.final_image, &[A, OUT]));
        }
        assert_eq!(runs[0].stats.get("retry.speculative_reruns"), 1);
        assert_eq!(runs[1].stats.get("retry.speculative_reruns"), 2);
        assert_eq!(runs[2].stats.get("retry.speculative_reruns"), 3);
        for (run, budget) in runs.iter().zip([1u32, 2, 3]) {
            assert!(
                run.trace.iter().any(|e| matches!(
                    e,
                    TraceEvent::Recovery {
                        action: "serial-reexec",
                        attempt,
                        ..
                    } if *attempt == budget
                )),
                "missing serial fallback event for budget {budget}"
            );
        }
        // Probe-pinned per-attempt cost: cycle-exact linearity across
        // budgets.
        let t: Vec<u64> = runs.iter().map(|r| r.total_cycles.raw()).collect();
        assert!(t[1] > t[0], "an extra attempt must cost time");
        assert_eq!(
            t[2] - t[1],
            t[1] - t[0],
            "per-attempt cost must be cycle-exact: {t:?}"
        );
    }

    /// The acceptance scenario for the checkpoint plane: a node crash
    /// mid-loop under `CheckpointRestart` rolls back to the last window
    /// checkpoint and re-runs only the lost iterations on the survivors —
    /// the loop still *passes*, no whole-loop serial re-execution happens,
    /// and the final image is the serial one.
    #[test]
    fn checkpoint_restart_recovers_node_crash_without_full_reexec() {
        use crate::config::{CheckpointConfig, RecoveryPolicy};
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let spec = gather_loop(64);
        let recovery = RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 16 },
        };
        let mk_cfg = |faults: FaultConfig| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
            cfg.mem.retry.timeout = 64;
            cfg.mem.retry.max_retries = 2;
            cfg.trace_capacity = 4096;
            cfg.recovery = recovery;
            cfg
        };
        // Fault-free probe run under the same checkpointing cadence, to pin
        // a crash time that lands past the first checkpoint.
        let probe = run_scenario_configured(&spec, Scenario::Hw, mk_cfg(FaultConfig::none()));
        assert_eq!(probe.passed, Some(true), "{:?}", probe.failure);
        assert!(probe.stats.get("checkpoint.snapshots") >= 3);
        assert_eq!(probe.stats.get("checkpoint.restores"), 0);
        let crash_at = probe.total_cycles.raw() * 2 / 3;

        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 3,
                at_cycle: crash_at,
            }),
            ..FaultConfig::none()
        };
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, mk_cfg(faults));
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert_eq!(hw.iterations, 64, "every iteration must commit");
        assert!(hw.stats.get("fault.node.unreachable") >= 1);
        assert!(hw.stats.get("checkpoint.restores") >= 1);
        assert_eq!(hw.stats.get("checkpoint.serial_fallbacks"), 0);
        assert!(
            hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "checkpoint-restart",
                    ..
                }
            )),
            "restart must be visible in the event trace"
        );
        assert!(
            !hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    ..
                }
            )),
            "recovery must not fall back to serial re-execution"
        );
        assert!(hw.final_image.same_contents(&serial.final_image, &[A, OUT]));
    }

    /// With no checkpoint preceding the failure (crash before the first
    /// window barrier), `CheckpointRestart` degrades to the serial safety
    /// net — and a deterministic conflict makes the post-restore rerun fail
    /// again, exercising the suffix-serial fallback. Both end on the serial
    /// image.
    #[test]
    fn checkpoint_restart_serial_fallbacks_match_serial() {
        use crate::config::{CheckpointConfig, RecoveryPolicy};
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let recovery = RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 16 },
        };

        // Crash from cycle 0: the very first window dies (the permutation
        // loop's early clean-line hits send updates before the first
        // barrier), no checkpoint exists, and the whole loop re-executes
        // serially.
        let spec = permutation_loop(64);
        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 1,
                at_cycle: 0,
            }),
            ..FaultConfig::none()
        };
        let mut cfg = MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
        cfg.mem.retry.timeout = 64;
        cfg.mem.retry.max_retries = 2;
        cfg.recovery = recovery;
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(hw.passed, Some(false), "{:?}", hw.failure);
        assert_eq!(hw.stats.get("checkpoint.restores"), 0);
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));

        // Deterministic late conflict: the first two windows pass and
        // checkpoint, iterations 32+ all collide on A[0] — the restart
        // reruns the suffix, fails again deterministically, and only the
        // suffix re-executes serially from the checkpoint.
        let mut spec = permutation_loop(64);
        let k_init: Vec<Scalar> = (0..64)
            .map(|i| Scalar::Int(if i < 32 { i } else { 0 }))
            .collect();
        spec.arrays[1] = ArrayDecl::with_init(K, ElemSize::W8, k_init);
        spec.name = "late-collision".into();
        let mut cfg = MachineConfig::with_procs(4);
        cfg.recovery = recovery;
        cfg.trace_capacity = 4096;
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(hw.passed, Some(false));
        assert!(hw.stats.get("checkpoint.restores") >= 1);
        assert!(hw.stats.get("checkpoint.serial_fallbacks") >= 1);
        assert!(
            hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "checkpoint-restart",
                    ..
                }
            )) && hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    ..
                }
            )),
            "both recovery stages must be visible in the event trace"
        );
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
    }

    /// The FAIL broadcast rides the same interconnect as everything else:
    /// on a congested mesh the abort traffic queues behind hot links, yet
    /// the post-detection `abort_latency` is still charged on top of the
    /// (delayed) detection time, and the machine quiesces — `run_hw` drains
    /// every in-flight message and checks directory/cache agreement before
    /// the serial safety net runs, so the final image must still be the
    /// serial one.
    #[test]
    fn mesh_contention_delays_abort_but_keeps_accounting_and_quiescence() {
        use specrt_proto::NetConfig;

        let spec = colliding_loop(64);
        let serial = run_scenario(&spec, Scenario::Serial, 4);

        let hot = |abort: u64| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::mesh(4).with_link_service(400));
            cfg.abort_latency = abort;
            cfg
        };
        let run = run_scenario_configured(&spec, Scenario::Hw, hot(200));
        assert_eq!(run.passed, Some(false));
        assert!(
            run.iterations < 64,
            "must abort early even under contention"
        );
        assert!(
            run.net.total_queue > 0,
            "a 400-cycle link service must actually queue: {:?}",
            run.net
        );
        assert!(
            run.final_image.same_contents(&serial.final_image, &[A]),
            "machine must quiesce and fall back to the serial answer"
        );

        // Detection is network-bound: the same abort on the flat
        // infinite-bandwidth crossbar resolves sooner end to end.
        let mut flat_cfg = MachineConfig::with_procs(4);
        flat_cfg.abort_latency = 200;
        let flat = run_scenario_configured(&spec, Scenario::Hw, flat_cfg);
        assert_eq!(flat.passed, Some(false));
        assert!(
            run.total_cycles > flat.total_cycles,
            "hot mesh {} must be slower to detect + recover than flat {}",
            run.total_cycles.raw(),
            flat.total_cycles.raw()
        );

        // `abort_latency` accounting survives contention. The charge is
        // `max(detect + abort_latency, pending network drain)` per
        // processor, so short latencies can hide inside the queue drain —
        // but once the latency dominates, lengthening it by Δ must push the
        // end-to-end time out by exactly Δ.
        let slow = run_scenario_configured(&spec, Scenario::Hw, hot(5_000));
        let slower = run_scenario_configured(&spec, Scenario::Hw, hot(10_000));
        assert_eq!(slow.passed, Some(false));
        assert!(slow.total_cycles > run.total_cycles, "latency not charged");
        assert_eq!(
            slower.total_cycles.raw() - slow.total_cycles.raw(),
            5_000,
            "dominant abort_latency must shift the end time rigidly: {} vs {}",
            slower.total_cycles.raw(),
            slow.total_cycles.raw()
        );
        assert!(slow.final_image.same_contents(&serial.final_image, &[A]));
    }
}

#[cfg(test)]
mod stamp_window_tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{BinOp, Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);
    const OUT: ArrayId = ArrayId(1);

    /// A privatized read-in workload: every iteration reads four table
    /// slots (read-first) and writes its own scratch slot.
    fn priv_spec(iters: u64, window: Option<u64>) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        let mut acc = b.mov(Operand::ImmF(0.0));
        for slot in 0..4 {
            let v = b.load(A, Operand::ImmI(slot));
            acc = b.binop(BinOp::FAdd, Operand::Reg(acc), Operand::Reg(v));
        }
        let e = b.binop(BinOp::Rem, Operand::Iter, Operand::ImmI(20));
        let e2 = b.binop(BinOp::Add, Operand::Reg(e), Operand::ImmI(4));
        b.store(A, Operand::Reg(e2), Operand::Reg(acc));
        let rv = b.load(A, Operand::Reg(e2));
        b.store(OUT, Operand::Iter, Operand::Reg(rv));
        b.compute(20);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: true,
                copy_out: false,
            },
        );
        LoopSpec {
            name: "stamp-window".into(),
            body,
            iters,
            arrays: vec![
                ArrayDecl::with_init(
                    A,
                    ElemSize::W8,
                    (0..24)
                        .map(|i| specrt_ir::Scalar::Float(1.0 + i as f64))
                        .collect(),
                ),
                ArrayDecl::zeroed(OUT, iters, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![OUT],
            stamp_window: window,
        }
    }

    #[test]
    fn windowed_run_passes_and_matches_serial() {
        let spec = priv_spec(64, Some(16));
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert_eq!(hw.iterations, 64);
        assert!(hw.stats.get("stamp_window_resets") >= 3);
        assert!(hw.final_image.same_contents(&serial.final_image, &[OUT]));
    }

    #[test]
    fn windowed_run_costs_more_than_unwindowed() {
        let plain = run_scenario(&priv_spec(64, None), Scenario::Hw, 4);
        let windowed = run_scenario(&priv_spec(64, Some(8)), Scenario::Hw, 4);
        assert_eq!(plain.passed, Some(true));
        assert_eq!(windowed.passed, Some(true));
        assert!(
            windowed.total_cycles > plain.total_cycles,
            "periodic synchronization must cost: {} vs {}",
            windowed.total_cycles,
            plain.total_cycles
        );
    }

    #[test]
    fn window_boundary_masks_cross_window_flow_dependence() {
        // Iteration 0 writes element 30; iteration 40 reads it first. With
        // a 32-iteration window the barrier orders them (valid!), so the
        // windowed run passes while the unwindowed stamped run fails.
        let mut b = ProgramBuilder::new();
        let is0 = b.binop(BinOp::CmpEq, Operand::Iter, Operand::ImmI(0));
        let not0 = b.label();
        let end = b.label();
        b.bz(Operand::Reg(is0), not0);
        b.store(A, Operand::ImmI(30), Operand::ImmF(7.0));
        b.jmp(end);
        b.bind(not0);
        let is40 = b.binop(BinOp::CmpEq, Operand::Iter, Operand::ImmI(40));
        b.bz(Operand::Reg(is40), end);
        let v = b.load(A, Operand::ImmI(30));
        b.store(OUT, Operand::ImmI(40), Operand::Reg(v));
        b.bind(end);
        b.compute(10);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: true,
                copy_out: false,
            },
        );
        let mk = |window| LoopSpec {
            name: "cross-window".into(),
            body: body.clone(),
            iters: 64,
            arrays: vec![
                ArrayDecl::zeroed(A, 32, ElemSize::W8),
                ArrayDecl::zeroed(OUT, 64, ElemSize::W8),
            ],
            plan: plan.clone(),
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![OUT],
            stamp_window: window,
        };
        let unwindowed = run_scenario(&mk(None), Scenario::Hw, 2);
        assert_eq!(
            unwindowed.passed,
            Some(false),
            "flow dependence across procs"
        );
        let windowed = run_scenario(&mk(Some(32)), Scenario::Hw, 2);
        assert_eq!(windowed.passed, Some(true), "{:?}", windowed.failure);
        // Both end in the serial state regardless.
        let serial = run_scenario(&mk(None), Scenario::Serial, 2);
        assert!(windowed
            .final_image
            .same_contents(&serial.final_image, &[OUT]));
        assert!(unwindowed
            .final_image
            .same_contents(&serial.final_image, &[OUT]));
    }
}

#[cfg(test)]
mod detailed_barrier_tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);

    fn simple_spec(iters: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(30);
        LoopSpec {
            name: "barrier-test".into(),
            body: b.build().unwrap(),
            iters,
            arrays: vec![ArrayDecl::zeroed(A, iters, ElemSize::W8)],
            plan: TestPlan::new(),
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        }
    }

    #[test]
    fn detailed_barrier_completes_and_matches_serial() {
        let spec = simple_spec(64);
        let mut cfg = MachineConfig::with_procs(8);
        cfg.detailed_barrier = true;
        let run = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(run.passed, Some(true));
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);
        assert!(run.final_image.same_contents(&serial.final_image, &[A]));
    }

    #[test]
    fn detailed_barrier_cost_grows_with_processors() {
        // With the constant model the barrier costs the same at 4 and 16
        // processors; the detailed model serializes arrivals and wake-ups
        // at the counter's home bank, so sync per processor grows.
        let spec = simple_spec(64);
        let sync_of = |procs: u32| {
            let mut cfg = MachineConfig::with_procs(procs);
            cfg.detailed_barrier = true;
            let r = run_scenario_configured(&spec, Scenario::Ideal, cfg);
            r.breakdown.sync.raw()
        };
        let s4 = sync_of(4);
        let s16 = sync_of(16);
        assert!(
            s16 > s4,
            "barrier hot-spot must grow with processors: {s4} vs {s16}"
        );
    }

    #[test]
    fn detailed_barrier_exceeds_constant_model_under_contention() {
        let spec = simple_spec(64);
        let cfg = MachineConfig::with_procs(16);
        let constant = run_scenario_configured(&spec, Scenario::Ideal, cfg);
        let mut dcfg = cfg;
        dcfg.detailed_barrier = true;
        let detailed = run_scenario_configured(&spec, Scenario::Ideal, dcfg);
        assert!(
            detailed.total_cycles > constant.total_cycles,
            "16-way fetch&op serialization must cost more than the constant: {} vs {}",
            detailed.total_cycles,
            constant.total_cycles
        );
    }
}
