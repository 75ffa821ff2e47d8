//! [`MemSystem`]: the full memory system one simulated machine owns.
//!
//! Every simulated load/store enters through [`MemSystem::read`] /
//! [`MemSystem::write`] and returns an [`AccessOutcome`] carrying the
//! completion time (unloaded §5.1 latency plus queueing at the home
//! directory), an optional read-in order (privatization protocol), with any
//! speculation failure recorded on the system. Asynchronous access-bit
//! update messages travel through an internal event queue with network
//! latency, so update-vs-write races reach the directory exactly as in the
//! paper's algorithms (f)–(h).

use std::fmt::Write as _;
use std::ops::Range;

use specrt_cache::{CacheConfig, CacheHierarchy, ElemTag, HitLevel, LineState, LineTags, Victim};
use specrt_engine::{BankedResource, Cycles, EventQueue, StatSet};
use specrt_ir::ArrayId;
use specrt_mem::{ArrayLayout, ElemSize, LineAddr, NodeId, NumaAllocator, PlacementPolicy, ProcId};
use specrt_net::{Delivery, FaultAction, FaultStats, NetConfig, NetSummary, Network};
use specrt_spec::{
    nonpriv_complete_write, CacheEmission, CacheEvent, DirEmission, DirEvent, FailReason,
    IterationNumbering, PrivateEffect, PrivateEvent, ProtocolSpec, RaceSite, SpecVariant, TestPlan,
};
use specrt_trace::{HitKind, TraceEvent, Tracer};

use crate::bits::{PrivateDirStore, SharedDirStore};
use crate::directory::{DirLineState, DirectoryNode, SharerSet};
use crate::latency::LatencyConfig;

/// Reserved id space for per-processor private copies of privatized arrays.
const PRIVATE_ID_BASE: u32 = 0x8000_0000;

/// The [`ArrayId`] under which processor `proc`'s private copy of `arr` is
/// allocated. Workload arrays must keep their ids below `2^23`.
pub fn private_copy_id(arr: ArrayId, proc: ProcId) -> ArrayId {
    assert!(arr.0 < (1 << 23), "array id {arr} too large to privatize");
    assert!(proc.0 < 256, "processor id {proc} too large");
    ArrayId(PRIVATE_ID_BASE | (arr.0 << 8) | proc.0)
}

/// Result of one simulated memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// When the access completes (data available / store globally
    /// performed). Loads stall the processor until then; stores retire into
    /// the write buffer.
    pub complete_at: Cycles,
    /// For the privatization protocol: the element range of the accessed
    /// line that was just **read in** from the shared array. The functional
    /// layer must copy those shared values into the private copy.
    pub read_in: Option<Range<u64>>,
}

impl AccessOutcome {
    /// An access that completes at `complete_at` and reads nothing in.
    fn at(complete_at: Cycles) -> AccessOutcome {
        AccessOutcome {
            complete_at,
            read_in: None,
        }
    }
}

/// Configuration of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// Number of processors (= nodes).
    pub procs: u32,
    /// Cache geometry per node.
    pub cache: CacheConfig,
    /// Latency model.
    pub latency: LatencyConfig,
    /// Directory banks per node (per-line serialization with cross-line
    /// parallelism).
    pub dir_banks: usize,
    /// Interconnect model. [`NetConfig::flat()`] (the default) reproduces
    /// the seed's constant-latency abstraction exactly; a mesh with finite
    /// link bandwidth makes the §5.1 latencies "increase with resource
    /// contention" as the paper says they do on a real machine.
    pub net: NetConfig,
    /// Sharing write-back: on a read request for a dirty line, the owner
    /// writes back and *keeps a clean shared copy* (classic DASH) instead of
    /// dropping it (invalidate-on-fetch, the default — simpler and usually
    /// better under the migratory sharing these loops exhibit). Access bits
    /// stay with the owner's retained copy either way.
    pub dirty_read_downgrades: bool,
    /// Timeout/retry policy for asynchronous protocol messages when the
    /// interconnect's fault plane is lossy. Irrelevant (never consulted)
    /// on a fault-free network.
    pub retry: RetryConfig,
}

/// Sender-side watchdog policy for asynchronous protocol update messages.
///
/// The paper assumes reliable delivery; under a lossy [`NetConfig`] fault
/// plane each update message gets a watchdog timer. If the (implicit)
/// directory acknowledgement does not come back within the timeout, the
/// sender retransmits with bounded exponential backoff; replay at the
/// directory is idempotent (duplicate `First_update`s serialize exactly as
/// race cases (f)/(g) dictate — at worst a redundant `Redundant`/bounce).
/// When every transmission is lost the watchdog escalates into the paper's
/// own safety net: [`specrt_spec::FailReason::MessageLost`] aborts the
/// speculative run, backups are restored, and the loop re-executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Cycles the watchdog waits before the first retransmission; each
    /// further attempt doubles the wait (exponential backoff).
    pub timeout: u64,
    /// Retransmissions attempted before escalating to an abort.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: 512,
            max_retries: 4,
        }
    }
}

impl Default for MemSystemConfig {
    fn default() -> Self {
        MemSystemConfig {
            procs: 16,
            cache: CacheConfig::default(),
            latency: LatencyConfig::default(),
            dir_banks: 8,
            net: NetConfig::flat(),
            dirty_read_downgrades: false,
            retry: RetryConfig::default(),
        }
    }
}

/// An asynchronous protocol message in flight.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// An update or signal for the shared-directory entry of `arr[idx]`:
    /// a `First_update`, an `ROnly_update`, or a read-first or first-write
    /// signal.
    Dir {
        arr: ArrayId,
        idx: u64,
        ev: DirEvent,
    },
    /// A `First_update_fail` bounce to `target`'s copy of `arr[idx]`.
    FirstUpdateFail {
        arr: ArrayId,
        idx: u64,
        target: ProcId,
    },
}

/// The simulated machine's memory system: caches, directories, NUMA memory,
/// plain coherence, and the speculation protocol extensions.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    numa: NumaAllocator,
    plan: TestPlan,
    numbering: IterationNumbering,
    caches: Vec<CacheHierarchy>,
    dirs: Vec<DirectoryNode>,
    dir_banks: Vec<BankedResource>,
    net: Network,
    /// Emit [`TraceEvent::Net`] per routed message. Opt-in (and off by
    /// default) so the dense network stream never perturbs existing
    /// transaction-level golden traces.
    net_trace: bool,
    shared_dir: SharedDirStore,
    private_dir: PrivateDirStore,
    /// Private-copy layouts, `(array, per-processor slots)`. A flat
    /// linear-scan structure, not a map: the lookup sits on the hot
    /// per-access path of every privatized protocol and a loop tests a
    /// handful of arrays at most, so a scan beats tree traversal — and
    /// the per-proc slot is a direct index. [`Self::dump`] sorts at
    /// render time, so the conformance harness's byte-for-byte dump
    /// comparison is unaffected by insertion order.
    private_layouts: Vec<(ArrayId, Vec<Option<ArrayLayout>>)>,
    msgs: EventQueue<Msg>,
    failure: Option<(FailReason, Cycles)>,
    cur_eff_iter: Vec<u64>,
    stats: StatSet,
    test_enabled: bool,
    stamp_base: u64,
    tracer: Tracer,
    /// Scratch: queueing delay of the last directory transaction, read by
    /// the tracing path right after the dispatch that produced it.
    last_queue: Cycles,
    /// Scratch: the first race site the traced access took itself (not
    /// one of a message it drained), for the transaction trace.
    case: Option<RaceSite>,
    /// Scratch: abort context `(proc, arr, idx, iter)` of the access or
    /// message currently being processed, consumed by [`Self::fail`].
    cur_ctx: Option<(Option<u32>, u32, u64, Option<u64>)>,
    /// Latest scheduled delivery time per `(src, dst)` node pair. On a
    /// fault-free network this only *asserts* (debug builds) the
    /// interconnect's in-order per-path guarantee — the computed arrival is
    /// never earlier. Under a lossy fault plane it becomes an active
    /// go-back-N clamp: a retransmitted or extra-delayed message raises the
    /// path's watermark, and every later message on the path delivers at or
    /// after it, preserving the §3.2 in-order assumption the protocol
    /// algorithms rely on. A flat `nodes × nodes` vector indexed
    /// `src * nodes + dst`: [`Self::deliver`] touches it for every
    /// asynchronous message, and node counts are small and fixed.
    msg_arrival: Vec<Cycles>,
}

impl MemSystem {
    /// Creates a memory system with no arrays allocated.
    pub fn new(cfg: MemSystemConfig) -> Self {
        let caches = (0..cfg.procs)
            .map(|_| CacheHierarchy::new(cfg.cache))
            .collect();
        Self::with_caches(cfg, caches)
    }

    /// Creates a memory system with no arrays allocated around `caches`,
    /// one empty hierarchy of `cfg.cache` geometry per processor (a fresh
    /// one or a [`CacheHierarchy::reset`] one: the paper flushes the caches
    /// before every run, §5.2). Everything else is built fresh. The machine
    /// pool recycles hierarchies through this and [`Self::into_caches`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.procs` exceeds the directory's presence mask or
    /// `caches` does not hold one hierarchy per processor.
    pub fn with_caches(cfg: MemSystemConfig, caches: Vec<CacheHierarchy>) -> Self {
        assert!(
            cfg.procs <= SharerSet::MAX_PROCS,
            "{} procs exceed the directory's full-map presence mask",
            cfg.procs
        );
        let procs = cfg.procs as usize;
        assert_eq!(caches.len(), procs, "one cache hierarchy per processor");
        debug_assert!(
            caches.iter().all(|c| c.resident_lines() == 0),
            "recycled cache hierarchy not reset"
        );
        MemSystem {
            numa: NumaAllocator::new(cfg.procs),
            plan: TestPlan::new(),
            numbering: IterationNumbering::iteration_wise(),
            caches,
            dirs: (0..procs).map(|_| DirectoryNode::new()).collect(),
            dir_banks: (0..procs)
                .map(|_| BankedResource::new(cfg.dir_banks))
                .collect(),
            net: Network::new(cfg.net, cfg.procs, cfg.latency.net_oneway),
            net_trace: false,
            shared_dir: SharedDirStore::new(),
            private_dir: PrivateDirStore::new(),
            private_layouts: Vec::new(),
            msgs: EventQueue::new(),
            failure: None,
            cur_eff_iter: vec![0; procs],
            stats: StatSet::new(),
            test_enabled: true,
            stamp_base: 0,
            tracer: Tracer::off(),
            last_queue: Cycles(0),
            case: None,
            cur_ctx: None,
            msg_arrival: vec![Cycles(0); procs * procs],
            cfg,
        }
    }

    /// Consumes the system, returning its per-processor cache hierarchies
    /// (with whatever lines they still hold) for [`Self::with_caches`] to
    /// reuse after a reset.
    pub fn into_caches(self) -> Vec<CacheHierarchy> {
        self.caches
    }

    /// Number of processors.
    pub fn procs(&self) -> u32 {
        self.cfg.procs
    }

    /// The latency model in use.
    pub fn latency(&self) -> &LatencyConfig {
        &self.cfg.latency
    }

    /// Allocates a workload array.
    pub fn alloc_array(
        &mut self,
        arr: ArrayId,
        len: u64,
        elem: ElemSize,
        policy: PlacementPolicy,
    ) -> ArrayLayout {
        self.numa.alloc_array(arr, len, elem, policy)
    }

    /// Layout of a previously allocated array.
    ///
    /// # Panics
    ///
    /// Panics if the array was never allocated.
    pub fn layout(&self, arr: ArrayId) -> ArrayLayout {
        *self.numa.address_map().layout(arr)
    }

    /// Configures the speculation state for a new loop: assigns the test
    /// plan and iteration numbering, allocates private copies for
    /// privatized arrays (first time only), registers/clears all access-bit
    /// stores and cache access bits, and clears any recorded failure.
    pub fn configure_loop(&mut self, plan: TestPlan, numbering: IterationNumbering) {
        self.numbering = numbering;
        for (arr, variant) in plan.arrays_under_test() {
            if self.shared_dir.variant_of(arr) == Some(variant) {
                continue;
            }
            let layout = self.layout(arr);
            self.shared_dir.register(arr, variant, layout.len);
            if variant == SpecVariant::NonPriv {
                continue;
            }
            for p in 0..self.cfg.procs {
                let proc = ProcId(p);
                if self.private_layout_get(arr, proc).is_none() {
                    let pid = private_copy_id(arr, proc);
                    let playout = self.numa.alloc_array(
                        pid,
                        layout.len,
                        layout.elem,
                        PlacementPolicy::Local(proc.node()),
                    );
                    self.private_layout_set(arr, proc, playout);
                }
                self.private_dir.register(arr, proc, variant, layout.len);
            }
        }
        self.plan = plan;
        self.shared_dir.clear();
        self.private_dir.clear();
        // Hardware tag reset at loop start: every resident line gets fresh
        // access bits sized for the protocol it now runs under (lines may
        // have been cached by pre-loop phases under a different plan).
        for c in &mut self.caches {
            c.clear_all_access_bits();
        }
        let mut retags: Vec<(usize, specrt_mem::LineAddr, LineTags)> = Vec::new();
        for (ci, c) in self.caches.iter().enumerate() {
            for line in c.resident() {
                let tags = self.fresh_tags_for_line(line);
                retags.push((ci, line, tags));
            }
        }
        for (ci, line, tags) in retags {
            self.caches[ci].set_tags(line, tags);
        }
        self.failure = None;
        self.test_enabled = true;
        self.stamp_base = 0;
        for e in &mut self.cur_eff_iter {
            *e = 0;
        }
    }

    /// The test plan currently configured.
    pub fn plan(&self) -> &TestPlan {
        &self.plan
    }

    /// Enables or disables the dependence *test* while keeping the data
    /// paths (privatized routing, read-in) intact. Used by the paper's
    /// `Ideal` scenario: "the doall execution of the loop without any tests
    /// for correctness" (§6). Disabled tests send no update messages and
    /// record no failures.
    pub fn set_test_enabled(&mut self, on: bool) {
        self.test_enabled = on;
    }

    /// Marks the start of `global_iter` (0-based) on `proc`: computes the
    /// effective stamp and, on a superiteration boundary, clears the
    /// per-iteration cache access bits (the hardware's qualified reset).
    pub fn begin_iteration(&mut self, proc: ProcId, global_iter: u64) {
        debug_assert!(
            global_iter >= self.stamp_base,
            "iteration {global_iter} precedes the stamp window base {}",
            self.stamp_base
        );
        let eff = self.numbering.effective(global_iter - self.stamp_base);
        let slot = &mut self.cur_eff_iter[proc.0 as usize];
        if *slot != eff {
            *slot = eff;
            self.caches[proc.0 as usize].clear_iteration_bits();
            // Figure 5-b mode: the private directory's Read1st/Write bits
            // are "cleared at the beginning of each iteration" (§4.1).
            self.private_dir.clear_iteration_bits(proc);
        }
    }

    /// Starts recording protocol events (accesses, speculative state
    /// transitions, delivered access-bit messages, aborts) into a ring
    /// buffer keeping the most recent `capacity` events. Useful for
    /// debugging protocol interleavings and for the `protocol_trace`
    /// example. Shorthand for `set_tracer(Tracer::ring(capacity))`.
    pub fn enable_event_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::ring(capacity);
    }

    /// Installs a tracer (any [`specrt_trace::TraceSink`] behind it).
    /// `Tracer::off()` disables tracing; disabled tracing costs one flag
    /// check per access.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the installed tracer, so higher layers (scheduler,
    /// executor) can emit their events into the same stream.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Takes the recorded events, leaving tracing enabled with an empty
    /// buffer.
    pub fn take_event_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// §3.3 stamp-overflow resynchronization point: all processors have
    /// synchronized after `base` iterations; the privatization time stamps
    /// reset to zero and subsequent effective iteration numbers are
    /// relative to `base`. Sound because the synchronizing barrier orders
    /// every earlier iteration before every later one, so dependences that
    /// cross the window boundary are satisfied, not violations.
    pub fn reset_stamp_window(&mut self, base: u64) {
        self.stamp_base = base;
        self.shared_dir.clear_stamps();
        // The touched marks go too, not just the stamps: the barrier
        // commits the prefix (the machine layer folds the winners into
        // shared memory), so every stamped private copy is stale — another
        // processor's committed write may supersede it, and the shared
        // directory that would have caught the conflict was just cleared.
        // The next access must re-run the read-in decision against the
        // committed shared data.
        self.private_dir.clear_stamps();
        for e in &mut self.cur_eff_iter {
            *e = 0;
        }
        for c in &mut self.caches {
            c.clear_iteration_bits();
        }
        // Discard resident private-copy lines of the *stamped*
        // privatization protocol for the same reason: a window-2 cache hit
        // on a window-1 line would serve pre-commit data. Eviction is
        // state-only here; the re-fetch misses of the next window carry
        // the timing cost. The no-read-in variant keeps its lines — its
        // sticky bits survive the reset, so cross-window conflicts are
        // still detected and an undetected private value is by
        // construction the processor's own.
        let mut stale: Vec<(usize, LineAddr)> = Vec::new();
        for (arr, per_proc) in &self.private_layouts {
            if self.plan.variant_of(*arr) != Some(SpecVariant::Priv) {
                continue;
            }
            for (p, layout) in per_proc.iter().enumerate() {
                let Some(layout) = layout else { continue };
                let first = layout.base.line().0;
                for line in first..first + layout.line_count() {
                    stale.push((p, LineAddr(line)));
                }
            }
        }
        for (p, line) in stale {
            if let Some((state, _tags)) = self.caches[p].invalidate(line) {
                // State-only directory bookkeeping (the quiescent-barrier
                // analogue of `retire_victim`, with no routing charge): a
                // private line's authoritative stamps live in the private
                // store, so no tag merge is needed.
                let home = self.numa.home_of(line.base());
                let proc = ProcId(p as u32);
                if state == LineState::Dirty {
                    if self.dirs[home.0 as usize].state(line) == DirLineState::Dirty(proc) {
                        self.dirs[home.0 as usize].writeback_to_uncached(line, proc);
                    }
                } else {
                    self.dirs[home.0 as usize].remove_sharer(line, proc);
                }
            }
        }
        self.stats.incr("stamp_window_resets");
    }

    /// Abort-side reset: re-arms the speculation hardware for a fresh
    /// speculative attempt after an abort
    /// (`RecoveryPolicy::RetrySpeculative`). Drops every in-flight protocol
    /// message (the abort broadcast quashes them), clears the recorded
    /// failure, every access-bit store on both the directory and cache
    /// sides, and the per-path delivery watermarks. Statistics and the
    /// fault plane's RNG stream are deliberately *not* reset: counters keep
    /// accumulating across attempts, and the re-run draws fresh fault
    /// decisions — a transient message loss need not repeat.
    pub fn reset_speculation(&mut self) {
        self.msgs.clear();
        self.failure = None;
        self.stamp_base = 0;
        self.shared_dir.clear();
        self.private_dir.clear();
        for e in &mut self.cur_eff_iter {
            *e = 0;
        }
        for c in &mut self.caches {
            c.clear_all_access_bits();
        }
        self.msg_arrival.fill(Cycles(0));
        self.stats.incr("retry.speculative_reruns");
    }

    /// The recorded speculation failure, if any.
    pub fn failure(&self) -> Option<(FailReason, Cycles)> {
        self.failure
    }

    /// Delivers every pending asynchronous protocol message (loop end: the
    /// test only passes once all in-flight updates have been checked).
    pub fn drain_all_messages(&mut self) {
        let _prof = specrt_prof::scope("proto.drain_all");
        while let Some(t) = self.msgs.peek_time() {
            self.drain_messages(t);
        }
        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// Checks the directory/cache coherence invariant at a quiescent point:
    /// a line the directory calls `Dirty(owner)` must be held dirty by
    /// exactly that cache and no other, a `Shared` line's sharers must each
    /// hold a non-dirty copy, and conversely every dirty cached line must be
    /// registered as `Dirty` at its home directory. Cheap enough to run
    /// after every drain; the conformance harness and debug builds call it
    /// whenever the message queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if any of the above invariants is violated.
    pub fn assert_invariants(&self) {
        for (node, dir) in self.dirs.iter().enumerate() {
            for (line, state) in dir.iter() {
                match state {
                    DirLineState::Uncached => {}
                    DirLineState::Shared(sharers) => {
                        for p in sharers.iter() {
                            let st = self.caches[p.0 as usize].state_of(line);
                            assert!(
                                st.is_some() && st != Some(LineState::Dirty),
                                "dir {node}: {line} shared by {p} but cache state is {st:?}"
                            );
                        }
                    }
                    DirLineState::Dirty(owner) => {
                        assert_eq!(
                            self.caches[owner.0 as usize].state_of(line),
                            Some(LineState::Dirty),
                            "dir {node}: {line} dirty at {owner} but cache disagrees"
                        );
                        for (p, cache) in self.caches.iter().enumerate() {
                            if p as u32 != owner.0 {
                                assert_eq!(
                                    cache.state_of(line),
                                    None,
                                    "dir {node}: {line} dirty at {owner} but also cached by proc {p}"
                                );
                            }
                        }
                    }
                }
            }
        }
        for (p, cache) in self.caches.iter().enumerate() {
            for line in cache.resident() {
                if cache.state_of(line) == Some(LineState::Dirty) {
                    let home = self.numa.home_of(line.base());
                    assert_eq!(
                        self.dirs[home.0 as usize].state(line),
                        DirLineState::Dirty(ProcId(p as u32)),
                        "proc {p}: {line} dirty in cache but home dir {home} disagrees"
                    );
                }
            }
        }
    }

    /// Renders the coherence-visible state of the whole memory system as a
    /// deterministic multi-line string: per-node directory lines (sorted by
    /// address), per-processor resident lines with their coherence state,
    /// and the private-copy layout table. Two runs of the same deterministic
    /// simulation produce byte-identical dumps — the conformance harness
    /// pins that, so host hash randomization can never leak into debug
    /// output, golden files, or the `-j1` vs `-jN` determinism gate.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (node, dir) in self.dirs.iter().enumerate() {
            let mut lines: Vec<(LineAddr, &DirLineState)> = dir.iter().collect();
            lines.sort_by_key(|(l, _)| *l);
            let _ = writeln!(out, "dir {node}: {} tracked", lines.len());
            for (line, state) in lines {
                let _ = writeln!(out, "  {line} {state:?}");
            }
        }
        for (p, cache) in self.caches.iter().enumerate() {
            let resident = cache.resident();
            let _ = writeln!(out, "cache {p}: {} resident", resident.len());
            for line in resident {
                let _ = writeln!(out, "  {line} {:?}", cache.state_of(line));
            }
        }
        // Sort-at-dump: the live structure is a flat scan-ordered vector;
        // the rendered table keeps the historical (array, proc) key order.
        let mut privs: Vec<(ArrayId, ProcId, &ArrayLayout)> = Vec::new();
        for (arr, per_proc) in &self.private_layouts {
            for (p, layout) in per_proc.iter().enumerate() {
                if let Some(layout) = layout {
                    privs.push((*arr, ProcId(p as u32), layout));
                }
            }
        }
        privs.sort_by_key(|&(arr, proc, _)| (arr, proc));
        let _ = writeln!(out, "private copies: {}", privs.len());
        for (arr, proc, layout) in privs {
            let _ = writeln!(out, "  {arr} @ {proc}: {layout:?}");
        }
        out
    }

    /// Empties all caches (the paper flushes caches after every loop
    /// invocation). Dirty victims are written back, merging access bits.
    pub fn flush_caches(&mut self, now: Cycles) {
        for p in 0..self.cfg.procs {
            let proc = ProcId(p);
            let victims = self.caches[p as usize].flush();
            for v in victims {
                self.retire_victim(proc, v, now);
            }
        }
        for d in &mut self.dirs {
            d.clear();
        }
        self.stats.incr("cache_flushes");
    }

    /// Aggregate protocol statistics.
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// Bumps one statistics counter from outside the protocol layer — the
    /// machine-side recovery machinery (checkpoint snapshots/restores)
    /// records its counters into the same [`StatSet`] the run reports.
    pub fn incr_stat(&mut self, key: &'static str) {
        self.stats.incr(key);
    }

    /// The interconnect in use.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Snapshot of the interconnect's traffic (messages, hops, queueing,
    /// per-link occupancy).
    pub fn net_summary(&self) -> NetSummary {
        self.net.summary()
    }

    /// Faults the interconnect's fault plane has injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.net.fault_stats()
    }

    /// Enables/disables per-message [`TraceEvent::Net`] emission (off by
    /// default; requires a tracer to be installed to have any effect).
    pub fn set_net_trace(&mut self, on: bool) {
        self.net_trace = on;
    }

    // ------------------------------------------------------------------
    // Access entry points
    // ------------------------------------------------------------------

    /// Simulates a load of `arr[idx]` by `proc` issued at `now`.
    pub fn read(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> AccessOutcome {
        self.access(proc, arr, idx, now, false)
    }

    /// Simulates a store to `arr[idx]` by `proc` issued at `now`.
    pub fn write(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> AccessOutcome {
        self.access(proc, arr, idx, now, true)
    }

    fn access(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        now: Cycles,
        is_write: bool,
    ) -> AccessOutcome {
        let _prof = specrt_prof::scope("proto.access");
        self.drain_messages(now);
        let enabled = self.tracer.enabled();
        let (hit, pre) = if enabled {
            self.last_queue = Cycles(0);
            self.case = None;
            let iter = self
                .plan
                .privatizes(arr)
                .then(|| self.cur_eff_iter[proc.0 as usize]);
            self.cur_ctx = Some((Some(proc.0), arr.0, idx, iter));
            (
                self.probe_hit(proc, arr, idx),
                self.spec_state_label(arr, idx),
            )
        } else {
            (HitKind::Miss, None)
        };
        let out = match (self.plan.variant_of(arr), is_write) {
            (None, w) => self.plain_access(proc, arr, idx, now, w),
            (Some(SpecVariant::NonPriv), false) => self.nonpriv_read(proc, arr, idx, now),
            (Some(SpecVariant::NonPriv), true) => self.nonpriv_write(proc, arr, idx, now),
            (Some(SpecVariant::Priv), false) => self.priv_read(proc, arr, idx, now),
            (Some(SpecVariant::Priv), true) => self.priv_write(proc, arr, idx, now),
            (Some(SpecVariant::Priv3), w) => self.priv3_access(proc, arr, idx, now, w),
        };
        if enabled {
            let home = self.trace_home(proc, arr, idx);
            self.tracer.emit(TraceEvent::Transaction {
                at: now,
                proc: proc.0,
                arr: arr.0,
                idx,
                write: is_write,
                hit,
                home,
                queue: self.last_queue,
                complete: out.complete_at,
                case: self.case.map(RaceSite::label),
            });
            self.emit_spec_transition(now, Some(proc.0), arr, idx, pre);
            self.cur_ctx = None;
        }
        out
    }

    /// What level `arr[idx]` would hit in `proc`'s caches (for tracing only;
    /// does not count as an access).
    fn probe_hit(&self, proc: ProcId, arr: ArrayId, idx: u64) -> HitKind {
        let layout = if self.plan.privatizes(arr) {
            match self.private_layout_get(arr, proc) {
                Some(l) => *l,
                None => return HitKind::Miss,
            }
        } else {
            self.layout(arr)
        };
        let line = layout.addr_of(idx).line();
        match self.caches[proc.0 as usize].probe(line) {
            HitLevel::L1 => HitKind::L1,
            HitLevel::L2 => HitKind::L2,
            HitLevel::Miss => HitKind::Miss,
        }
    }

    /// Home node of the address `proc` actually accesses for `arr[idx]`
    /// (the local private copy for privatized arrays).
    fn trace_home(&self, proc: ProcId, arr: ArrayId, idx: u64) -> u32 {
        if self.plan.privatizes(arr) {
            match self.private_layout_get(arr, proc) {
                Some(l) => self.numa.home_of(l.addr_of(idx)).0,
                None => proc.node().0,
            }
        } else {
            self.shared_elem_home(arr, idx).0
        }
    }

    /// Rendered speculative directory state of `arr[idx]` under the current
    /// plan, if the array is under test.
    fn spec_state_label(&self, arr: ArrayId, idx: u64) -> Option<(&'static str, String)> {
        let protocol = match self.plan.variant_of(arr)? {
            SpecVariant::NonPriv => "nonpriv",
            SpecVariant::Priv => "priv",
            SpecVariant::Priv3 => "priv-noreadin",
        };
        Some((protocol, self.shared_dir.get(arr, idx)?.state_label()))
    }

    /// Emits a [`TraceEvent::SpecTransition`] if the shared directory state
    /// of `arr[idx]` differs from the `pre`-dispatch snapshot.
    fn emit_spec_transition(
        &mut self,
        at: Cycles,
        proc: Option<u32>,
        arr: ArrayId,
        idx: u64,
        pre: Option<(&'static str, String)>,
    ) {
        let Some((protocol, from)) = pre else {
            return;
        };
        let Some((_, to)) = self.spec_state_label(arr, idx) else {
            return;
        };
        if from == to {
            return;
        }
        let iter = self.cur_ctx.and_then(|(_, _, _, iter)| iter);
        self.tracer.emit(TraceEvent::SpecTransition {
            at,
            proc: proc.unwrap_or(u32::MAX),
            arr: arr.0,
            idx,
            protocol,
            from,
            to,
            iter,
        });
    }

    // ------------------------------------------------------------------
    // Plain coherence
    // ------------------------------------------------------------------

    fn plain_access(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        now: Cycles,
        is_write: bool,
    ) -> AccessOutcome {
        let layout = self.layout(arr);
        let line = layout.addr_of(idx).line();
        let level = self.caches[proc.0 as usize].access(line);
        let complete_at = match (level, is_write) {
            (HitLevel::Miss, false) => {
                self.fetch_line(proc, line, LineState::Clean, LineTags::empty(), now)
            }
            (_, false) => now + self.hit_latency(level),
            (_, true) => {
                let dirty = self.caches[proc.0 as usize].state_of(line) == Some(LineState::Dirty);
                match (level, dirty) {
                    (HitLevel::Miss, _) => {
                        self.fetch_line(proc, line, LineState::Dirty, LineTags::empty(), now)
                    }
                    (_, true) => now + self.hit_latency(level),
                    (_, false) => self.upgrade_line(proc, line, LineTags::empty(), now),
                }
            }
        };
        AccessOutcome::at(complete_at)
    }

    // ------------------------------------------------------------------
    // ProtocolSpec execution
    // ------------------------------------------------------------------
    //
    // Every protocol state transition — directory entries, cache access
    // bits, private-copy stamps — funnels through the pure
    // [`ProtocolSpec`] element-layer steps via the choke points below.
    // The memory system contributes only the *executor* concerns (timing,
    // NUMA homes, cache geometry, message transport); the race-case logic
    // itself is the same transition function `specrt-check model`
    // enumerates. Directory state lives in a [`SharedDirStore`] and a
    // [`PrivateDirStore`], whose only element writers are their `step`s, so
    // no transition can bypass [`ProtocolSpec::dir_step`] or
    // [`ProtocolSpec::private_dir_step`].

    /// Counts a race site the protocol took — the one call every element
    /// step's site goes through — and names the traced access's first own
    /// site as its `case`.
    fn took(&mut self, site: RaceSite) {
        self.stats.incr(site.key());
        if self.case.is_none() && !site.delivery() {
            self.case = Some(site);
        }
    }

    /// Runs [`ProtocolSpec::dir_step`] at one shared-directory element at
    /// time `at` and discharges its emission: a FAIL, or the
    /// `First_update_fail` bounce to a `First_update` that lost its race.
    fn dir_step(&mut self, arr: ArrayId, idx: u64, ev: DirEvent, at: Cycles) {
        let (em, site) = self.shared_dir.step(arr, idx, ev);
        self.took(site);
        match em {
            None => {}
            Some(DirEmission::SendFirstUpdateFail { target }) => {
                self.stats.incr("first_update_bounces");
                let home = self.shared_elem_home(arr, idx);
                let bounce = Msg::FirstUpdateFail { arr, idx, target };
                self.send(at, home, target.node(), bounce);
            }
            Some(DirEmission::Fail(reason)) => self.fail(reason, at),
        }
    }

    /// Runs [`ProtocolSpec::private_dir_step`] at element `idx` of `proc`'s
    /// private copy of `arr`.
    fn private_dir_step(
        &mut self,
        arr: ArrayId,
        proc: ProcId,
        idx: u64,
        ev: PrivateEvent,
    ) -> PrivateEffect {
        let (effect, site) = self.private_dir.step(arr, proc, idx, ev);
        self.took(site);
        effect
    }

    /// Runs one of the spec's cache-tag steps (`step`) on `proc`'s resident
    /// tag at `offset` of `line`, stores the new tag and returns the step's
    /// output.
    fn tag_step<T>(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        offset: usize,
        step: impl FnOnce(ElemTag) -> (ElemTag, T, RaceSite),
    ) -> T {
        let tag = self.caches[proc.0 as usize]
            .tags_mut(line)
            .expect("resident line has tags")
            .get_mut(offset);
        let (next, out, site) = step(*tag);
        *tag = next;
        self.took(site);
        out
    }

    // ------------------------------------------------------------------
    // Non-privatization protocol
    // ------------------------------------------------------------------

    fn nonpriv_read(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> AccessOutcome {
        let layout = self.layout(arr);
        let addr = layout.addr_of(idx);
        let line = addr.line();
        let home = self.numa.home_of(addr);
        let level = self.caches[proc.0 as usize].access(line);
        let complete_at = if level != HitLevel::Miss {
            let done = now + self.hit_latency(level);
            let dirty = self.caches[proc.0 as usize].state_of(line) == Some(LineState::Dirty);
            let offset = self.elem_offset(&layout, line, idx);
            let step = |t| ProtocolSpec::cache_step(t, dirty, CacheEvent::Read { reader: proc });
            match self.tag_step(proc, line, offset, step) {
                None => {}
                Some(CacheEmission::SendFirstUpdate) => {
                    self.stats.incr("nonpriv_first_updates");
                    let ev = DirEvent::FirstUpdate { sender: proc };
                    self.send(now, proc.node(), home, Msg::Dir { arr, idx, ev });
                }
                Some(CacheEmission::SendROnlyUpdate) => {
                    self.stats.incr("nonpriv_r_only_updates");
                    let ev = DirEvent::ROnlyUpdate { sender: proc };
                    self.send(now, proc.node(), home, Msg::Dir { arr, idx, ev });
                }
                Some(CacheEmission::Fail(reason)) => self.fail(reason, done),
                Some(CacheEmission::NeedWriteReq) => unreachable!("read emitted a write request"),
            }
            done
        } else {
            // Miss: deliver in-flight updates, fetch (merging any dirty
            // owner's tag state into the directory), and only then run the
            // directory-side test and project the reply tags — exactly the
            // ordering of algorithm (b).
            self.drain_before_transaction(proc.node(), home, now);
            let done = self.coherence_fetch(proc, line, false, now);
            self.dir_step(arr, idx, DirEvent::ReadReq { from: proc }, now);
            let tags = self.project_nonpriv_tags(&layout, line, proc);
            self.install_line(proc, line, LineState::Clean, tags, now);
            done
        };
        AccessOutcome::at(complete_at)
    }

    fn nonpriv_write(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        now: Cycles,
    ) -> AccessOutcome {
        let layout = self.layout(arr);
        let addr = layout.addr_of(idx);
        let line = addr.line();
        let home = self.numa.home_of(addr);
        let level = self.caches[proc.0 as usize].access(line);
        let complete_at = if level != HitLevel::Miss {
            let dirty = self.caches[proc.0 as usize].state_of(line) == Some(LineState::Dirty);
            let offset = self.elem_offset(&layout, line, idx);
            let hit_done = now + self.hit_latency(level);
            let step = |t| ProtocolSpec::cache_step(t, dirty, CacheEvent::Write { writer: proc });
            match self.tag_step(proc, line, offset, step) {
                None => hit_done,
                Some(CacheEmission::NeedWriteReq) => {
                    // Upgrade: the directory runs the authoritative test and
                    // the grant refreshes the whole line's tags.
                    self.drain_before_transaction(proc.node(), home, now);
                    self.dir_step(arr, idx, DirEvent::WriteReq { from: proc }, now);
                    let mut tags = self.project_nonpriv_tags(&layout, line, proc);
                    if tags.is_tracked() {
                        nonpriv_complete_write(tags.get_mut(offset));
                    }
                    self.upgrade_line(proc, line, tags, now)
                }
                Some(CacheEmission::Fail(reason)) => {
                    self.fail(reason, hit_done);
                    hit_done
                }
                Some(em) => unreachable!("write emitted {em:?}"),
            }
        } else {
            // Algorithm (d): writeback+invalidate the owner and merge its
            // tag state, *then* test and grant.
            self.drain_before_transaction(proc.node(), home, now);
            let done = self.coherence_fetch(proc, line, true, now);
            self.dir_step(arr, idx, DirEvent::WriteReq { from: proc }, now);
            let offset = self.elem_offset(&layout, line, idx);
            let mut tags = self.project_nonpriv_tags(&layout, line, proc);
            if tags.is_tracked() {
                nonpriv_complete_write(tags.get_mut(offset));
            }
            self.install_line(proc, line, LineState::Dirty, tags, now);
            done
        };
        AccessOutcome::at(complete_at)
    }

    /// Builds the line tags sent with a data reply: the directory state
    /// projected into `viewer`'s NONE/OWN/OTHER view (Fig. 6-b/d: "Copy dir
    /// state to tag state for all the words in the line").
    fn project_nonpriv_tags(
        &self,
        layout: &ArrayLayout,
        line: LineAddr,
        viewer: ProcId,
    ) -> LineTags {
        let range = match layout.elems_on_line(line) {
            Some(r) => r,
            None => return LineTags::empty(),
        };
        let mut tags = LineTags::cleared((range.end - range.start) as usize);
        for (i, idx) in range.clone().enumerate() {
            *tags.get_mut(i) = self
                .shared_dir
                .get(layout.id, idx)
                .expect("array under the non-privatization test")
                .to_tag(viewer);
        }
        tags
    }

    // ------------------------------------------------------------------
    // Privatization protocol
    // ------------------------------------------------------------------

    fn priv_read(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> AccessOutcome {
        let eff = self.effective_iter(proc);
        let playout = self.private_layout(arr, proc);
        let line = playout.addr_of(idx).line();
        let level = self.caches[proc.0 as usize].access(line);
        if level == HitLevel::Miss {
            return self.priv_miss(proc, arr, idx, &playout, false, now);
        }
        let offset = self.elem_offset(&playout, line, idx);
        let step = |t| ProtocolSpec::private_cache_step(SpecVariant::Priv, t, false);
        if self.tag_step(proc, line, offset, step) {
            self.stats.incr("priv_read_first_signals");
            // Private directory is local: update synchronously, then
            // forward the read-first signal to the shared home.
            let ev = PrivateEvent::ReadFirstSignal { iter: eff };
            let effect = self.private_dir_step(arr, proc, idx, ev);
            debug_assert_eq!(effect, PrivateEffect::SignalReadFirst);
            self.signal_home(proc, arr, idx, DirEvent::ReadFirst { iter: eff }, now);
        }
        AccessOutcome::at(now + self.hit_latency(level))
    }

    fn priv_write(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> AccessOutcome {
        let eff = self.effective_iter(proc);
        let playout = self.private_layout(arr, proc);
        let line = playout.addr_of(idx).line();
        let level = self.caches[proc.0 as usize].access(line);
        if level == HitLevel::Miss {
            return self.priv_miss(proc, arr, idx, &playout, true, now);
        }
        let dirty = self.caches[proc.0 as usize].state_of(line) == Some(LineState::Dirty);
        let offset = self.elem_offset(&playout, line, idx);
        let step = |t| ProtocolSpec::private_cache_step(SpecVariant::Priv, t, true);
        if self.tag_step(proc, line, offset, step) {
            self.stats.incr("priv_first_write_signals");
            let ev = PrivateEvent::FirstWriteSignal { iter: eff };
            if self.private_dir_step(arr, proc, idx, ev) == PrivateEffect::SignalFirstWrite {
                self.signal_home(proc, arr, idx, DirEvent::FirstWrite { iter: eff }, now);
            }
        }
        if dirty {
            return AccessOutcome::at(now + self.hit_latency(level));
        }
        // Local upgrade of the private line.
        let tags = self.private_line_tags(proc, arr, &playout, line, Some(offset));
        AccessOutcome::at(self.upgrade_line(proc, line, tags, now))
    }

    /// A privatized miss, algorithms (c) and (h): the private directory
    /// decides between reading the line in from the shared array (which
    /// runs the shared directory's test), signalling the shared directory,
    /// and a plain refill from the private copy.
    fn priv_miss(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        playout: &ArrayLayout,
        write: bool,
        now: Cycles,
    ) -> AccessOutcome {
        let iter = self.effective_iter(proc);
        let line = playout.addr_of(idx).line();
        let range = playout.elems_on_line(line).expect("line within array");
        let line_untouched = self.private_dir.line_untouched(arr, proc, range.clone());
        let (ev, state) = if write {
            let ev = PrivateEvent::WriteMiss {
                iter,
                line_untouched,
            };
            (ev, LineState::Dirty)
        } else {
            let ev = PrivateEvent::ReadMiss {
                iter,
                line_untouched,
            };
            (ev, LineState::Clean)
        };
        let effect = self.private_dir_step(arr, proc, idx, ev);
        let mut read_in = None;
        let tags = self.private_line_tags(proc, arr, playout, line, None);
        let mut complete_at = self.fetch_line(proc, line, state, tags, now);
        match effect {
            PrivateEffect::TestReadFirst | PrivateEffect::TestFirstWrite => {
                self.stats.incr("priv_read_ins");
                if self.test_enabled {
                    let home = self.shared_elem_home(arr, idx);
                    self.drain_before_transaction(proc.node(), home, now);
                    let ev = if write {
                        DirEvent::ReadInForWrite { iter }
                    } else {
                        DirEvent::ReadIn { iter }
                    };
                    self.dir_step(arr, idx, ev, now);
                }
                complete_at += self.shared_fetch_latency(proc, arr, idx, now);
                read_in = Some(range);
            }
            PrivateEffect::SignalReadFirst => {
                self.stats.incr("priv_read_first_signals");
                self.signal_home(proc, arr, idx, DirEvent::ReadFirst { iter }, now);
            }
            PrivateEffect::SignalFirstWrite => {
                self.signal_home(proc, arr, idx, DirEvent::FirstWrite { iter }, now);
            }
            PrivateEffect::None => {}
            PrivateEffect::Fail(reason) => unreachable!("stamped miss failed: {reason}"),
        }
        AccessOutcome {
            complete_at,
            read_in,
        }
    }

    // ------------------------------------------------------------------
    // Privatization protocol, reduced no-read-in state (Figure 5-b / §4.1)
    // ------------------------------------------------------------------

    /// A no-read-in access. A hit steps the tag and signals the private
    /// directory on the iteration's first read or write; a miss always
    /// reaches it. The private directory forwards the signal it asks for
    /// (with stamp 1: the shared bits ignore stamps) or FAILs locally.
    fn priv3_access(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        now: Cycles,
        write: bool,
    ) -> AccessOutcome {
        let iter = self.effective_iter(proc);
        let playout = self.private_layout(arr, proc);
        let line = playout.addr_of(idx).line();
        let level = self.caches[proc.0 as usize].access(line);
        let offset = self.elem_offset(&playout, line, idx);
        let write_at = write.then_some(offset);
        let (ev, complete_at) = if level == HitLevel::Miss {
            let tags = self.private_line_tags(proc, arr, &playout, line, write_at);
            let (ev, state) = if write {
                let ev = PrivateEvent::WriteMiss {
                    iter,
                    line_untouched: false,
                };
                (ev, LineState::Dirty)
            } else {
                let ev = PrivateEvent::ReadMiss {
                    iter,
                    line_untouched: false,
                };
                (ev, LineState::Clean)
            };
            (Some(ev), self.fetch_line(proc, line, state, tags, now))
        } else {
            let step = |t| ProtocolSpec::private_cache_step(SpecVariant::Priv3, t, write);
            let signal = self.tag_step(proc, line, offset, step);
            let ev = if write {
                PrivateEvent::FirstWriteSignal { iter }
            } else {
                PrivateEvent::ReadFirstSignal { iter }
            };
            let dirty = self.caches[proc.0 as usize].state_of(line) == Some(LineState::Dirty);
            let done = if write && !dirty {
                let tags = self.private_line_tags(proc, arr, &playout, line, write_at);
                self.upgrade_line(proc, line, tags, now)
            } else {
                now + self.hit_latency(level)
            };
            (signal.then_some(ev), done)
        };
        let effect = match ev {
            Some(ev) => self.private_dir_step(arr, proc, idx, ev),
            None => PrivateEffect::None,
        };
        match effect {
            PrivateEffect::None => {}
            PrivateEffect::SignalReadFirst => {
                self.stats.incr("priv_read_first_signals");
                self.signal_home(proc, arr, idx, DirEvent::ReadFirst { iter: 1 }, now);
            }
            PrivateEffect::SignalFirstWrite => {
                self.stats.incr("priv_first_write_signals");
                self.signal_home(proc, arr, idx, DirEvent::FirstWrite { iter: 1 }, now);
            }
            PrivateEffect::Fail(reason) => self.fail(reason, now),
            effect => unreachable!("no-read-in step produced {effect:?}"),
        }
        AccessOutcome::at(complete_at)
    }

    /// Refill tags for `proc`'s private `line`, projected from its private
    /// directory in the current iteration, with `Write` also set at
    /// `write_at` (a write the private directory has not seen yet).
    fn private_line_tags(
        &self,
        proc: ProcId,
        arr: ArrayId,
        playout: &ArrayLayout,
        line: LineAddr,
        write_at: Option<usize>,
    ) -> LineTags {
        let range = playout.elems_on_line(line).expect("line within array");
        let eff = self.cur_eff_iter[proc.0 as usize];
        let mut tags = self.private_dir.line_tags(arr, proc, range, eff);
        if let Some(off) = write_at {
            tags.get_mut(off).set_write(true);
        }
        tags
    }

    /// Latency of a cache hit at `level` (zero for a miss, which the fetch
    /// transaction charges).
    fn hit_latency(&self, level: HitLevel) -> Cycles {
        Cycles(match level {
            HitLevel::L1 => self.cfg.latency.l1_hit,
            HitLevel::L2 => self.cfg.latency.l2_hit,
            HitLevel::Miss => 0,
        })
    }

    fn effective_iter(&self, proc: ProcId) -> u64 {
        let eff = self.cur_eff_iter[proc.0 as usize];
        assert!(
            eff > 0,
            "{proc} accessed a privatized array outside an iteration"
        );
        eff
    }

    fn private_layout(&self, arr: ArrayId, proc: ProcId) -> ArrayLayout {
        *self
            .private_layout_get(arr, proc)
            .unwrap_or_else(|| panic!("no private copy of {arr} for {proc}"))
    }

    /// Point lookup in the flat private-layout table (hot path: one
    /// linear scan over the few arrays under test, then a direct
    /// per-processor index).
    fn private_layout_get(&self, arr: ArrayId, proc: ProcId) -> Option<&ArrayLayout> {
        self.private_layouts
            .iter()
            .find(|(a, _)| *a == arr)
            .and_then(|(_, per_proc)| per_proc.get(proc.0 as usize))
            .and_then(Option::as_ref)
    }

    fn private_layout_set(&mut self, arr: ArrayId, proc: ProcId, layout: ArrayLayout) {
        let procs = self.cfg.procs as usize;
        let per_proc = match self.private_layouts.iter_mut().find(|(a, _)| *a == arr) {
            Some((_, v)) => v,
            None => {
                self.private_layouts.push((arr, vec![None; procs]));
                &mut self.private_layouts.last_mut().expect("just pushed").1
            }
        };
        per_proc[proc.0 as usize] = Some(layout);
    }

    /// Sends a privatization read-first or first-write signal `ev` from
    /// `proc` to the shared home of `arr[idx]`, unless the test is off.
    fn signal_home(&mut self, proc: ProcId, arr: ArrayId, idx: u64, ev: DirEvent, now: Cycles) {
        if !self.test_enabled {
            return;
        }
        if matches!(ev, DirEvent::FirstWrite { .. }) {
            self.stats.incr("priv_first_write_shared");
        }
        let home = self.shared_elem_home(arr, idx);
        self.send(now, proc.node(), home, Msg::Dir { arr, idx, ev });
    }

    fn shared_elem_home(&self, arr: ArrayId, idx: u64) -> NodeId {
        let layout = self.layout(arr);
        self.numa.home_of(layout.addr_of(idx))
    }

    /// Latency of fetching the shared array's line during a read-in,
    /// including queueing at the shared home's directory.
    fn shared_fetch_latency(
        &mut self,
        proc: ProcId,
        arr: ArrayId,
        idx: u64,
        now: Cycles,
    ) -> Cycles {
        let addr = self.layout(arr).addr_of(idx);
        let home = self.numa.home_of(addr);
        let base = self.cfg.latency.miss_base(proc.node(), home);
        self.round_trip(proc, home, addr.line(), now, |_| base) - now
    }

    // ------------------------------------------------------------------
    // Interconnect routing
    // ------------------------------------------------------------------

    /// Routes one message through the interconnect, reserving the links it
    /// crosses, and (when network tracing is on) emits the corresponding
    /// [`TraceEvent::Net`].
    fn route(&mut self, src: NodeId, dst: NodeId, now: Cycles) -> Delivery {
        let d = self.net.send(src, dst, now);
        if self.net_trace && src != dst && self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Net {
                at: now,
                src: src.0,
                dst: dst.0,
                hops: d.hops,
                queue: d.queue,
                transit: d.arrive.saturating_sub(now),
            });
        }
        d
    }

    /// One calibrated round trip from `proc` to `home` about `line`, sent
    /// at `now`: routes the request, serializes it at the home's directory
    /// bank for one memory service, runs `serve` while the bank holds the
    /// line (it returns the unloaded base latency), and routes the reply.
    /// Returns the completion time: `now` plus the base, the bank queueing
    /// and whatever latency the interconnect added *beyond its calibrated
    /// share*. On an unloaded flat network both legs cost exactly the
    /// calibrated `travel()`, the correction is zero, and the result is
    /// bit-identical to the seed's `now + base + queue`.
    fn round_trip(
        &mut self,
        proc: ProcId,
        home: NodeId,
        line: LineAddr,
        now: Cycles,
        serve: impl FnOnce(&mut Self) -> Cycles,
    ) -> Cycles {
        let src = proc.node();
        let service = Cycles(self.cfg.latency.mem_service);
        let req = self.route(src, home, now);
        let bank_end = self.dir_banks[home.0 as usize].acquire(line.0, req.arrive, service);
        let queue = bank_end.saturating_sub(req.arrive).saturating_sub(service);
        self.last_queue = queue;
        let base = serve(self);
        let rep = self.route(home, src, bank_end);
        let legs_actual = (req.arrive - now) + (rep.arrive - bank_end);
        let legs_calib = self.cfg.latency.travel(src, home) + self.cfg.latency.travel(home, src);
        now + (base + queue + legs_actual).saturating_sub(legs_calib)
    }

    // ------------------------------------------------------------------
    // Coherence transactions
    // ------------------------------------------------------------------

    /// Runs a full fetch transaction for `line` on behalf of `proc` and
    /// fills the cache in `state`. Returns the completion time.
    fn fetch_line(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        state: LineState,
        tags: LineTags,
        now: Cycles,
    ) -> Cycles {
        let done = self.coherence_fetch(proc, line, state == LineState::Dirty, now);
        self.install_line(proc, line, state, tags, now);
        done
    }

    /// The directory-side half of a fetch: serializes at the home bank,
    /// fetches/merges a dirty owner's line (algorithm (b)/(d): "send
    /// writeback request to owner; wait for reply; update dir … using the
    /// tag state"), invalidates sharers for exclusive requests, and updates
    /// the line's directory state for the new holder. Returns the
    /// completion time. Any speculation-directory test must run *after*
    /// this call, so it sees the merged state; the cache fill follows via
    /// [`install_line`].
    ///
    /// [`install_line`]: Self::install_line
    fn coherence_fetch(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        exclusive: bool,
        now: Cycles,
    ) -> Cycles {
        self.stats.incr("transactions");
        let home = self.numa.home_of(line.base());
        self.round_trip(proc, home, line, now, |this| {
            let lat = this.cfg.latency;
            let dir_state = this.dirs[home.0 as usize].state(line);
            let mut base = lat.miss_base(proc.node(), home);
            match dir_state {
                DirLineState::Uncached => {}
                DirLineState::Shared(sharers) => {
                    if exclusive {
                        // Invalidate all sharers.
                        let mut any_remote = false;
                        for s in sharers.iter() {
                            if s != proc {
                                this.stats.incr("invalidations");
                                this.invalidate_at_cache(s, line);
                                if s.node() != home {
                                    any_remote = true;
                                }
                            }
                        }
                        if any_remote {
                            base += Cycles(lat.invalidate_extra);
                        }
                    }
                }
                DirLineState::Dirty(owner) => {
                    debug_assert_ne!(owner, proc, "requester cannot own a missing line");
                    base = lat.miss_with_owner(proc.node(), home, owner.node());
                    this.stats.incr("owner_fetches");
                    if !exclusive && this.cfg.dirty_read_downgrades {
                        // Sharing write-back (classic DASH): the owner keeps
                        // a clean copy; its tags stay valid from its
                        // viewpoint.
                        let owner_tags = this.caches[owner.0 as usize]
                            .tags_of(line)
                            .cloned()
                            .unwrap_or_else(LineTags::empty);
                        this.merge_tags_into_dir(owner, line, &owner_tags, now);
                        this.caches[owner.0 as usize].mark_clean(line);
                        this.dirs[home.0 as usize]
                            .downgrade_to_shared(line, SharerSet::single(owner));
                    } else {
                        // Invalidate-on-fetch: the owner writes back and
                        // drops its copy; merge its tags into the directory.
                        let (_, owner_tags) = this.caches[owner.0 as usize]
                            .invalidate(line)
                            .expect("directory says owner holds the line");
                        this.merge_tags_into_dir(owner, line, &owner_tags, now);
                        this.dirs[home.0 as usize].writeback_to_uncached(line, owner);
                    }
                }
            }
            match exclusive {
                true => this.dirs[home.0 as usize].set_dirty(line, proc),
                false => this.dirs[home.0 as usize].add_sharer(line, proc),
            }
            base
        })
    }

    /// The cache-side half of a fetch: fills the line (with the reply's
    /// access bits) and retires any displaced victim.
    fn install_line(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        state: LineState,
        tags: LineTags,
        now: Cycles,
    ) {
        if let Some(v) = self.caches[proc.0 as usize].fill(line, state, tags) {
            self.retire_victim(proc, v, now);
        }
    }

    /// Upgrades a resident clean line to dirty (write to shared line): the
    /// home invalidates other sharers and grants exclusivity; `new_tags`
    /// replace the line's access bits (directory projection).
    fn upgrade_line(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        new_tags: LineTags,
        now: Cycles,
    ) -> Cycles {
        self.stats.incr("upgrades");
        let home = self.numa.home_of(line.base());
        self.round_trip(proc, home, line, now, |this| {
            let lat = this.cfg.latency;
            let mut base = lat.miss_base(proc.node(), home);
            let dir_state = this.dirs[home.0 as usize].state(line);
            let mut any_remote = false;
            for s in dir_state.sharers() {
                if s != proc {
                    this.stats.incr("invalidations");
                    this.invalidate_at_cache(s, line);
                    if s.node() != home {
                        any_remote = true;
                    }
                }
            }
            if any_remote {
                base += Cycles(lat.invalidate_extra);
            }
            this.dirs[home.0 as usize].set_dirty(line, proc);
            let cache = &mut this.caches[proc.0 as usize];
            cache.mark_dirty(line);
            cache.set_tags(line, new_tags);
            base
        })
    }

    /// Invalidation at a sharer's cache. Clean lines drop their tags: any
    /// tag state a clean line accumulated was already messaged to the home.
    fn invalidate_at_cache(&mut self, proc: ProcId, line: LineAddr) {
        self.caches[proc.0 as usize].invalidate(line);
        let home = self.numa.home_of(line.base());
        self.dirs[home.0 as usize].remove_sharer(line, proc);
    }

    /// Handles a line displaced from a cache: dirty victims write back
    /// (merging access bits into the home directory, algorithm (e)); clean
    /// victims just notify the directory.
    fn retire_victim(&mut self, proc: ProcId, v: Victim, now: Cycles) {
        let home = self.numa.home_of(v.line.base());
        if v.dirty {
            self.stats.incr("writebacks");
            // Charge directory occupancy for the write-back (asynchronous;
            // the processor does not wait).
            let arrive = self.route(proc.node(), home, now).arrive;
            self.dir_banks[home.0 as usize].acquire(
                v.line.0,
                arrive,
                Cycles(self.cfg.latency.mem_service),
            );
            self.merge_tags_into_dir(proc, v.line, &v.tags, now);
            if self.dirs[home.0 as usize].state(v.line) == DirLineState::Dirty(proc) {
                self.dirs[home.0 as usize].writeback_to_uncached(v.line, proc);
            }
        } else {
            self.dirs[home.0 as usize].remove_sharer(v.line, proc);
        }
    }

    /// Merges a dirty line's per-element tags into the directory's
    /// non-privatization state as `Writeback` events, each one race site
    /// (e) (private-copy lines have their authoritative stamps in the
    /// private store already and are skipped). Returns whether the line is
    /// under the non-privatization test (and was therefore merged).
    fn merge_tags_into_dir(
        &mut self,
        owner: ProcId,
        line: LineAddr,
        tags: &LineTags,
        now: Cycles,
    ) -> bool {
        if !tags.is_tracked() {
            return false;
        }
        let Some((arr, first_elem)) = self.numa.address_map().locate(line.base()) else {
            return false;
        };
        if self.plan.variant_of(arr) != Some(SpecVariant::NonPriv) {
            return false;
        }
        let layout = self.layout(arr);
        let range = layout.elems_on_line(line).expect("line within array");
        debug_assert_eq!(range.start, first_elem);
        for (i, idx) in range.enumerate() {
            if i >= tags.len() {
                break;
            }
            let tag = tags.get(i);
            self.dir_step(arr, idx, DirEvent::Writeback { tag, owner }, now);
        }
        true
    }

    /// Merges every resident **dirty** tracked line's accumulated access
    /// bits into its home directory *without* evicting the line — the
    /// verdict-time equivalent of the paper's flush-after-every-loop (§4).
    ///
    /// Rationale: a dirty hit-write under the non-privatization protocol
    /// is silent — the `Own`/`NoShr` bits accumulate in the owning cache
    /// and only reach the directory when the line is displaced. With ≥3
    /// tracked elements per line there is a reachable window (a writer
    /// exclusive-fetches a line through a directory-untouched element
    /// while the reader's `First_update` is still in flight, then
    /// hit-writes the read element on the now-dirty line) where a real
    /// cross-processor conflict is invisible at the post-drain quiescent
    /// point. Scenario runners call this after
    /// [`Self::drain_all_messages`] and before reading the verdict, so
    /// the machine's verdict matches the flushed semantics the model
    /// checker proves.
    ///
    /// State-only: the merge replays the same [`DirEvent::Writeback`]
    /// steps an eviction would (idempotent on consistent state, so a
    /// later real write-back of the still-resident line is harmless) and
    /// charges no simulated time or directory occupancy. Each merged line
    /// increments the `verdict_merges` stat, and each merged element
    /// counts race site (e), the decision the model checker's final flush
    /// takes for the same line.
    pub fn merge_dirty_tags(&mut self, now: Cycles) {
        let mut dirty: Vec<(ProcId, LineAddr, LineTags)> = Vec::new();
        for (p, cache) in self.caches.iter().enumerate() {
            for line in cache.resident() {
                if cache.state_of(line) != Some(LineState::Dirty) {
                    continue;
                }
                if let Some(tags) = cache.tags_of(line) {
                    if tags.is_tracked() {
                        dirty.push((ProcId(p as u32), line, *tags));
                    }
                }
            }
        }
        for (proc, line, tags) in dirty {
            if self.merge_tags_into_dir(proc, line, &tags, now) {
                self.stats.incr("verdict_merges");
            }
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous messages
    // ------------------------------------------------------------------

    fn send(&mut self, now: Cycles, from: NodeId, to: NodeId, msg: Msg) {
        self.stats.incr("update_messages");
        let retry = self.cfg.retry;
        let mut send_at = now;
        let mut attempt: u32 = 0;
        loop {
            // An armed node-level fault swallows the message before the
            // message-rate draw. The check is stateless (no RNG), so a
            // config without a node fault keeps its decision stream — and
            // its timings — bit-for-bit.
            let exhausted = if let Some(suspect) = self.net.node_fault_blocks(from, to, send_at) {
                self.stats.incr("fault.node.dropped");
                self.emit_node_fault(send_at, from, to, suspect, attempt);
                // Every retransmission vanishing into the same silent node
                // escalates past "a message was lost" to "the node is gone".
                FailReason::NodeUnreachable {
                    node: ProcId(suspect),
                }
            } else {
                match self.net.fault_decide() {
                    FaultAction::Deliver => {
                        let arrive = self.route(from, to, send_at).arrive + Cycles(1);
                        self.deliver(from, to, arrive, msg);
                        return;
                    }
                    FaultAction::Delay(extra) => {
                        self.stats.incr("fault.delayed");
                        self.emit_fault(send_at, from, to, "delay", attempt);
                        let arrive =
                            self.route(from, to, send_at).arrive + Cycles(1) + Cycles(extra);
                        self.deliver(from, to, arrive, msg);
                        return;
                    }
                    FaultAction::Duplicate => {
                        self.stats.incr("fault.duplicated");
                        self.emit_fault(send_at, from, to, "duplicate", attempt);
                        // Both copies take a real trip through the routing
                        // layer; the directory's replay is idempotent, so
                        // the straggler serializes like any raced update.
                        let first = self.route(from, to, send_at).arrive + Cycles(1);
                        let second = self.route(from, to, send_at).arrive + Cycles(1);
                        self.deliver(from, to, first, msg);
                        self.deliver(from, to, second, msg);
                        return;
                    }
                    FaultAction::Drop => {
                        self.stats.incr("fault.dropped");
                        self.emit_fault(send_at, from, to, "drop", attempt);
                        // An exhausted watchdog means the dependence test
                        // can no longer be trusted: escalate into the
                        // paper's abort/restore/serial safety net.
                        FailReason::MessageLost {
                            attempts: attempt + 1,
                        }
                    }
                }
            };
            // The lost copy still occupied links before vanishing. Back off
            // and resend, or fail once the retries are spent.
            let _ = self.route(from, to, send_at);
            let wait = Cycles(retry.timeout.checked_shl(attempt).unwrap_or(u64::MAX));
            if attempt >= retry.max_retries {
                self.stats.incr("retry.exhausted");
                if matches!(exhausted, FailReason::NodeUnreachable { .. }) {
                    self.stats.incr("fault.node.unreachable");
                }
                self.fail(exhausted, send_at + wait);
                return;
            }
            self.stats.incr("retry.resends");
            send_at += wait;
            attempt += 1;
        }
    }

    /// Schedules one delivered copy, clamping to the path's in-order
    /// watermark (identity on a fault-free network — debug builds assert
    /// that).
    fn deliver(&mut self, from: NodeId, to: NodeId, arrive: Cycles, msg: Msg) {
        let nodes = self.cfg.procs as usize;
        let slot = &mut self.msg_arrival[from.0 as usize * nodes + to.0 as usize];
        #[cfg(debug_assertions)]
        if !self.net.config().faults.enabled() {
            assert!(
                arrive >= *slot,
                "out-of-order delivery {from}->{to}: {arrive} scheduled before {last}",
                arrive = arrive.raw(),
                last = slot.raw(),
            );
        }
        let arrive = arrive.max(*slot);
        *slot = arrive;
        self.msgs.push_lenient(arrive, msg);
    }

    /// Emits a [`TraceEvent::Fault`] for one fault-plane decision.
    fn emit_fault(&mut self, at: Cycles, from: NodeId, to: NodeId, kind: &'static str, n: u32) {
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault {
                at,
                src: from.0,
                dst: to.0,
                kind,
                attempt: n,
            });
        }
    }

    /// Emits a [`TraceEvent::NodeFault`] for one send swallowed by a
    /// node-level fault.
    fn emit_node_fault(&mut self, at: Cycles, from: NodeId, to: NodeId, node: u32, n: u32) {
        if self.tracer.enabled() {
            let kind = self
                .net
                .config()
                .faults
                .node_fault
                .map_or("node", |nf| nf.kind_label());
            self.tracer.emit(TraceEvent::NodeFault {
                at,
                src: from.0,
                dst: to.0,
                node,
                kind,
                attempt: n,
            });
        }
    }

    fn drain_messages(&mut self, upto: Cycles) {
        let _prof = specrt_prof::scope("proto.drain");
        while let Some(t) = self.msgs.peek_time() {
            if t > upto {
                break;
            }
            let (at, msg) = self.msgs.pop().expect("peeked");
            self.handle_message(at, msg);
        }
    }

    fn handle_message(&mut self, at: Cycles, msg: Msg) {
        let _prof = specrt_prof::scope("proto.dir_msg");
        // Preserve the abort context of any in-progress access: messages
        // delivered mid-transaction carry their own context.
        let saved_ctx = self.cur_ctx.take();
        let enabled = self.tracer.enabled();
        let mut pre = None;
        if enabled {
            let (kind, arr, idx, sender, iter) = match msg {
                Msg::Dir { arr, idx, ev } => {
                    let (kind, sender, iter) = match ev {
                        DirEvent::FirstUpdate { sender } => ("First_update", Some(sender.0), None),
                        DirEvent::ROnlyUpdate { sender } => ("ROnly_update", Some(sender.0), None),
                        DirEvent::ReadFirst { iter } => ("read-first signal", None, Some(iter)),
                        DirEvent::FirstWrite { iter } => ("first-write signal", None, Some(iter)),
                        ev => unreachable!("{ev:?} travels in a transaction, not a message"),
                    };
                    (kind, arr, idx, sender, iter)
                }
                Msg::FirstUpdateFail { arr, idx, target } => {
                    ("First_update_fail", arr, idx, Some(target.0), None)
                }
            };
            self.tracer.emit(TraceEvent::Message {
                at,
                kind,
                arr: arr.0,
                idx,
            });
            self.cur_ctx = Some((sender, arr.0, idx, iter));
            pre = Some((sender, arr, idx, self.spec_state_label(arr, idx)));
        }
        match msg {
            Msg::Dir { arr, idx, ev } => {
                self.charge_update_service(arr, idx, at);
                self.dir_step(arr, idx, ev, at);
            }
            Msg::FirstUpdateFail { arr, idx, target } => {
                let layout = self.layout(arr);
                let line = layout.addr_of(idx).line();
                let offset = self.elem_offset(&layout, line, idx);
                let cache = &mut self.caches[target.0 as usize];
                let dirty = cache.state_of(line) == Some(LineState::Dirty);
                let tracked = cache.probe(line) != HitLevel::Miss
                    && cache.tags_mut(line).is_some_and(|tags| tags.is_tracked());
                // If the line was displaced meanwhile, its write-back merge
                // already reconciled the state with the directory.
                if tracked {
                    let ev = CacheEvent::FirstUpdateFail { target };
                    let step = |t| ProtocolSpec::cache_step(t, dirty, ev);
                    if let Some(CacheEmission::Fail(reason)) =
                        self.tag_step(target, line, offset, step)
                    {
                        self.fail(reason, at);
                    }
                }
            }
        }
        if let Some((sender, arr, idx, snap)) = pre {
            self.emit_spec_transition(at, sender, arr, idx, snap);
        }
        self.cur_ctx = saved_ctx;
    }

    fn charge_update_service(&mut self, arr: ArrayId, idx: u64, at: Cycles) {
        let layout = self.layout(arr);
        let addr = layout.addr_of(idx);
        let home = self.numa.home_of(addr);
        self.dir_banks[home.0 as usize].acquire(
            addr.line().0,
            at,
            Cycles(self.cfg.latency.update_service),
        );
    }

    /// Delivers every queued update message that would reach its
    /// destination no later than a transaction from `from` arriving at a
    /// home node (in-order delivery: messages sent earlier on the same
    /// path must be processed before the transaction).
    fn drain_before_transaction(&mut self, from: NodeId, home: NodeId, now: Cycles) {
        // Probe, don't send: the transaction's own links are reserved when
        // the coherence path routes it; this only estimates its arrival so
        // earlier in-flight messages are processed first.
        let arrive = self.net.probe(from, home, now);
        self.drain_messages(arrive);
    }

    fn fail(&mut self, reason: FailReason, at: Cycles) {
        self.stats.incr("speculation_failures_detected");
        if self.tracer.enabled() {
            let (proc, arr, idx, iter) = match self.cur_ctx {
                Some((p, a, i, it)) => (p, Some(a), Some(i), it),
                None => (None, None, None, None),
            };
            self.tracer.emit(TraceEvent::Abort {
                at,
                proc,
                arr,
                idx,
                iter,
                label: reason.label(),
                reason: reason.to_string(),
            });
        }
        match self.failure {
            Some((_, t)) if t <= at => {}
            _ => self.failure = Some((reason, at)),
        }
    }

    /// A DASH-style uncached fetch&op on `arr[idx]`: the operation executes
    /// atomically at the element's home memory (serializing at the home
    /// directory bank) without allocating the line in any cache. Returns
    /// the completion time. The *functional* read-modify-write is the
    /// caller's business — this models only timing and serialization, which
    /// is what synchronization primitives (barrier counters, lock grants)
    /// need.
    pub fn fetch_op(&mut self, proc: ProcId, arr: ArrayId, idx: u64, now: Cycles) -> Cycles {
        self.stats.incr("fetch_ops");
        let addr = self.layout(arr).addr_of(idx);
        let home = self.numa.home_of(addr);
        let base = self.cfg.latency.miss_base(proc.node(), home);
        self.round_trip(proc, home, addr.line(), now, |_| base)
    }

    /// Whether lines of `arr` carry speculation access bits under the
    /// current plan: arrays under test, and private copies of privatized
    /// arrays.
    fn array_is_tracked(&self, arr: ArrayId) -> bool {
        if self.plan.variant_of(arr).is_some() {
            return true;
        }
        if arr.0 >= PRIVATE_ID_BASE {
            let base = ArrayId((arr.0 >> 8) & ((1 << 23) - 1));
            return self.plan.privatizes(base);
        }
        false
    }

    /// Fresh (cleared) tags sized for a resident line under the current
    /// plan.
    fn fresh_tags_for_line(&self, line: LineAddr) -> LineTags {
        match self.numa.address_map().locate(line.base()) {
            Some((arr, _)) if self.array_is_tracked(arr) => {
                let layout = self.numa.address_map().layout(arr);
                match layout.elems_on_line(line) {
                    Some(r) => LineTags::cleared((r.end - r.start) as usize),
                    None => LineTags::empty(),
                }
            }
            _ => LineTags::empty(),
        }
    }

    fn elem_offset(&self, layout: &ArrayLayout, line: LineAddr, idx: u64) -> usize {
        let range = layout.elems_on_line(line).expect("line within array");
        debug_assert!(range.contains(&idx));
        (idx - range.start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_spec::PrivateDirElem;

    fn small_system(procs: u32) -> MemSystem {
        MemSystem::new(MemSystemConfig {
            procs,
            cache: CacheConfig {
                l1_lines: 16,
                l2_lines: 64,
            },
            latency: LatencyConfig::default(),
            dir_banks: 4,
            net: NetConfig::flat(),
            dirty_read_downgrades: false,
            retry: RetryConfig::default(),
        })
    }

    const A: ArrayId = ArrayId(0);
    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    #[test]
    fn private_copy_ids_are_unique() {
        let a = private_copy_id(ArrayId(1), ProcId(0));
        let b = private_copy_id(ArrayId(1), ProcId(1));
        let c = private_copy_id(ArrayId(2), ProcId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.0 >= PRIVATE_ID_BASE);
    }

    #[test]
    fn plain_read_miss_then_hits() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let t0 = Cycles(0);
        let o = ms.read(P0, A, 0, t0);
        // First page is homed on node 0, so this is a local miss: 60 cycles.
        assert_eq!(o.complete_at, Cycles(60));
        let o = ms.read(P0, A, 1, o.complete_at);
        // Same line now in L1.
        assert_eq!(o.complete_at, Cycles(61));
    }

    #[test]
    fn plain_remote_read_costs_two_hops() {
        let mut ms = small_system(2);
        // One page on node 0; allocate a second array landing on node 1.
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        let b = ArrayId(1);
        ms.alloc_array(b, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let o = ms.read(P0, b, 0, Cycles(0));
        assert_eq!(o.complete_at, Cycles(208));
    }

    #[test]
    fn dirty_remote_line_costs_three_hops() {
        let mut ms = small_system(3);
        let b = ArrayId(1);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 0
        ms.alloc_array(b, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 1
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        // P2 dirties b[0] (home node 1).
        let o = ms.write(ProcId(2), b, 0, Cycles(0));
        let t = o.complete_at;
        // P0 reads it: requester 0, home 1, owner 2 → 3 hops.
        let o = ms.read(P0, b, 0, t);
        assert_eq!(o.complete_at - t, Cycles(291));
    }

    #[test]
    fn write_to_shared_line_invalidates_sharers() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let t = ms.read(P0, A, 0, Cycles(0)).complete_at;
        let t = ms.read(P1, A, 0, t).complete_at;
        let t = ms.write(P0, A, 0, t).complete_at;
        assert_eq!(ms.stats().get("invalidations"), 1);
        // P1 misses now.
        let o = ms.read(P1, A, 0, t);
        assert!(o.complete_at - t >= Cycles(60));
    }

    #[test]
    fn directory_bank_contention_queues() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        // P1's remote miss arrives at the home (node 0) at t=74 and holds
        // the bank until t=114; P0's local miss issued at t=80 must queue.
        let b = ms.read(P1, A, 0, Cycles(0)).complete_at;
        assert_eq!(b, Cycles(208));
        let a = ms.read(P0, A, 0, Cycles(80)).complete_at;
        // Unloaded it would be 80+60=140; queueing behind P1 adds 34.
        assert_eq!(a, Cycles(174), "local transaction must queue behind P1");
    }

    // ---- non-privatization end-to-end ----

    fn nonpriv_plan() -> TestPlan {
        let mut p = TestPlan::new();
        p.set(A, SpecVariant::NonPriv);
        p
    }

    #[test]
    fn nonpriv_disjoint_writers_pass() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let mut t = Cycles(0);
        for i in 0..8 {
            t = ms.write(P0, A, i, t).complete_at;
            t = ms.write(P1, A, 16 + i, t).complete_at;
        }
        ms.drain_all_messages();
        assert!(ms.failure().is_none());
    }

    #[test]
    fn nonpriv_read_only_sharing_passes() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let mut t = Cycles(0);
        for i in 0..8 {
            t = ms.read(P0, A, i, t).complete_at;
            t = ms.read(P1, A, i, t).complete_at;
        }
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "failure: {:?}", ms.failure());
    }

    #[test]
    fn nonpriv_write_then_remote_read_fails() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
        let _ = ms.read(P1, A, 3, t);
        ms.drain_all_messages();
        let (reason, _) = ms.failure().expect("must fail");
        assert_eq!(reason.label(), "read_of_remotely_written");
    }

    #[test]
    fn nonpriv_read_then_remote_write_fails() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.read(P0, A, 3, Cycles(0)).complete_at;
        // Let the First_update arrive before the write transaction.
        let t = t + Cycles(1000);
        let _ = ms.write(P1, A, 3, t);
        ms.drain_all_messages();
        let (reason, _) = ms.failure().expect("must fail");
        assert_eq!(reason.label(), "write_conflict");
    }

    #[test]
    fn hidden_conflict_caught_only_by_verdict_merge() {
        // The hide-a-conflict window (ROADMAP item 5): a drain-point-only
        // verdict misses a conflict whose evidence is split between an
        // in-flight update and a silently written dirty line.
        //
        //  1. P1 fills line 0 clean (miss via element 1), then hit-reads
        //     element 0 — its First_update crosses the network (~74cy).
        //  2. While the update is in flight, P0 exclusive-fetches line 0
        //     through the untouched element 2. The directory still shows
        //     element 0 untouched, so P0's granted tags say so too; P1's
        //     clean copy is invalidated, dropping its tag state.
        //  3. P0 silently dirty-hit-writes element 0 — the line is dirty,
        //     so no message is sent.
        //  4. The update lands at a directory that never saw the write:
        //     accepted, First(cpu1). Directory and P0's cache now hold
        //     contradictory halves of a write conflict.
        //
        // Draining leaves no failure (the old verdict read would PASS);
        // only merging the dirty line's tags into the directory exposes
        // the conflict.
        let mut ms = small_system(2);
        ms.alloc_array(A, 64, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.read(P1, A, 1, Cycles(0)).complete_at; // remote fill
        let t = ms.read(P1, A, 0, t).complete_at; // clean hit: update in flight
        let t = ms.write(P0, A, 2, t + Cycles(2)).complete_at; // local, beats update
        let _ = ms.write(P0, A, 0, t); // silent dirty hit
        ms.drain_all_messages();
        assert!(
            ms.failure().is_none(),
            "drain-point verdict would wrongly PASS, got {:?}",
            ms.failure()
        );
        ms.merge_dirty_tags(Cycles(1000));
        let (reason, _) = ms.failure().expect("merged verdict must FAIL");
        assert_eq!(reason.label(), "write_conflict");
        assert!(ms.stats().get("verdict_merges") >= 1);
    }

    #[test]
    fn nonpriv_update_write_race_detected() {
        // P0 reads element 3 at t=0 (First_update in flight), P1 writes it
        // immediately: the write request reaches the directory before the
        // update; the late update must FAIL (algorithm (f)).
        let mut ms = small_system(2);
        // Home the array remotely from both by using 3 procs? With 2 procs
        // the array's first page homes on node 0 = P0: P0's update is
        // local (fast). Make P1 the reader so its update crosses the net.
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let _ = ms.read(P1, A, 3, Cycles(0)); // update arrives ~t+75
        let _ = ms.write(P0, A, 3, Cycles(1)); // local write req, processed first
        ms.drain_all_messages();
        let (reason, _) = ms.failure().expect("race must fail");
        assert!(
            reason.label() == "first_update_race" || reason.label() == "write_conflict",
            "unexpected reason {reason:?}"
        );
    }

    #[test]
    fn nonpriv_same_processor_mixed_access_passes() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let mut t = Cycles(0);
        for _ in 0..3 {
            t = ms.read(P0, A, 5, t).complete_at;
            t = ms.write(P0, A, 5, t).complete_at;
        }
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "failure: {:?}", ms.failure());
    }

    // ---- privatization end-to-end ----

    fn priv_plan() -> TestPlan {
        let mut p = TestPlan::new();
        p.set(A, SpecVariant::Priv);
        p
    }

    #[test]
    fn priv_write_before_read_same_iteration_passes() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        let mut t = Cycles(0);
        for (proc, iters) in [(P0, 0..4u64), (P1, 4..8)] {
            for i in iters {
                ms.begin_iteration(proc, i);
                t = ms.write(proc, A, 2, t).complete_at;
                t = ms.read(proc, A, 2, t).complete_at;
            }
        }
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "failure: {:?}", ms.failure());
    }

    #[test]
    fn priv_read_first_after_earlier_write_fails() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        // Iteration 0 (P0) writes element 2; iteration 5 (P1) reads it first.
        ms.begin_iteration(P0, 0);
        let t = ms.write(P0, A, 2, Cycles(0)).complete_at;
        ms.begin_iteration(P1, 5);
        let _ = ms.read(P1, A, 2, t + Cycles(1000));
        ms.drain_all_messages();
        let (reason, _) = ms.failure().expect("flow dependence must fail");
        assert_eq!(reason.label(), "read_first_after_write");
        // P0's write miss reads the line in for writing, Fig. 9 (h) then
        // (j); P1's read miss reads it in, (c) then (e), and fails there.
        let sites = [
            RaceSite::PrivH,
            RaceSite::PrivJ,
            RaceSite::PrivC,
            RaceSite::PrivE,
        ];
        for site in sites {
            assert_eq!(ms.stats().get(site.key()), 1, "site {}", site.label());
        }
    }

    #[test]
    fn priv_reads_then_later_writes_pass_with_read_in() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        // Early iterations read (P0), later iterations write (P1).
        let mut t = Cycles(0);
        ms.begin_iteration(P0, 0);
        let o = ms.read(P0, A, 2, t);
        assert!(o.read_in.is_some(), "first touch must read in");
        t = o.complete_at;
        ms.begin_iteration(P1, 6);
        let o = ms.write(P1, A, 2, t);
        t = o.complete_at;
        let _ = t;
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "failure: {:?}", ms.failure());
        // Only P1's private directory records a write, so copy-out takes
        // its value.
        let pmax_w = |p| match ms.private_dir.get(A, p, 2) {
            PrivateDirElem::Priv { elem, .. } => elem.pmax_w,
            e => panic!("stamped array holds {e:?}"),
        };
        assert_eq!((pmax_w(P0), pmax_w(P1)), (0, 7));
    }

    #[test]
    fn priv_read_in_happens_once_per_line() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        ms.begin_iteration(P0, 0);
        let o1 = ms.read(P0, A, 0, Cycles(0));
        assert!(o1.read_in.is_some());
        // Element 1 is on the same line, already read in.
        let o2 = ms.read(P0, A, 1, o1.complete_at);
        assert!(o2.read_in.is_none());
        assert_eq!(ms.stats().get("priv_read_ins"), 1);
        // The miss takes Fig. 9 (c) and the read-in (e); the hit read-first
        // takes (a) at the tags and (b) at the private directory.
        let sites = [
            RaceSite::PrivC,
            RaceSite::PrivE,
            RaceSite::PrivA,
            RaceSite::PrivB,
        ];
        for site in sites {
            assert_eq!(ms.stats().get(site.key()), 1, "site {}", site.label());
        }
    }

    #[test]
    fn priv_chunked_numbering_masks_dependences_within_chunk() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::chunked(8));
        // Write in iteration 0, read-first in iteration 5: same chunk →
        // same stamp → passes (the processor-wise relaxation of §2.2.3).
        ms.begin_iteration(P0, 0);
        let t = ms.write(P0, A, 2, Cycles(0)).complete_at;
        ms.begin_iteration(P0, 5);
        let _ = ms.read(P0, A, 2, t + Cycles(500));
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "failure: {:?}", ms.failure());
    }

    #[test]
    fn flush_caches_forces_remisses() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let t = ms.read(P0, A, 0, Cycles(0)).complete_at;
        ms.flush_caches(t);
        let o = ms.read(P0, A, 0, t);
        assert!(o.complete_at - t >= Cycles(60), "flushed line must miss");
    }

    #[test]
    fn failure_keeps_earliest() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
        let t = ms.read(P1, A, 3, t + Cycles(10)).complete_at; // fail 1
        let _ = ms.read(P1, A, 4, t);
        let first = ms.failure().unwrap().1;
        let _ = ms.write(P1, A, 3, t + Cycles(1000)); // would fail again later
        assert_eq!(ms.failure().unwrap().1, first);
    }

    #[test]
    fn fetch_op_serializes_at_home_without_caching() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 0
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        // Remote fetch&op: one 2-hop round trip, bank busy 74..114.
        let b = ms.fetch_op(P1, A, 0, Cycles(0));
        assert_eq!(b, Cycles(208));
        // A local fetch&op issued at t=80 arrives while the bank is busy
        // and queues behind it (unloaded it would finish at 140).
        let a = ms.fetch_op(P0, A, 0, Cycles(80));
        assert_eq!(a, Cycles(174), "hot-spot serialization");
        // The operation is uncached: a subsequent read still misses.
        let o = ms.read(P0, A, 0, a);
        assert!(o.complete_at - a >= Cycles(60));
        assert_eq!(ms.stats().get("fetch_ops"), 2);
    }

    #[test]
    fn sharing_writeback_keeps_owner_copy() {
        let mut cfg = MemSystemConfig {
            procs: 3,
            cache: CacheConfig {
                l1_lines: 16,
                l2_lines: 64,
            },
            latency: LatencyConfig::default(),
            dir_banks: 4,
            net: NetConfig::flat(),
            dirty_read_downgrades: true,
            retry: RetryConfig::default(),
        };
        let mut ms = MemSystem::new(cfg);
        let b = ArrayId(1);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 0
        ms.alloc_array(b, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 1
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        // P2 dirties b[0]; P0 reads it: with sharing write-back, P2 keeps a
        // clean copy and a subsequent P2 read is an L1 hit.
        let t = ms.write(ProcId(2), b, 0, Cycles(0)).complete_at;
        let t = ms.read(ProcId(0), b, 0, t).complete_at;
        let o = ms.read(ProcId(2), b, 0, t);
        assert_eq!(o.complete_at - t, Cycles(1), "owner retained a copy");

        // With the default invalidate-on-fetch, the owner misses instead.
        cfg.dirty_read_downgrades = false;
        let mut ms = MemSystem::new(cfg);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.alloc_array(b, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let t = ms.write(ProcId(2), b, 0, Cycles(0)).complete_at;
        let t = ms.read(ProcId(0), b, 0, t).complete_at;
        let o = ms.read(ProcId(2), b, 0, t);
        assert!(o.complete_at - t > Cycles(12), "owner was invalidated");
    }

    #[test]
    fn sharing_writeback_preserves_nonpriv_detection() {
        let mut ms = MemSystem::new(MemSystemConfig {
            procs: 2,
            cache: CacheConfig {
                l1_lines: 16,
                l2_lines: 64,
            },
            latency: LatencyConfig::default(),
            dir_banks: 4,
            net: NetConfig::flat(),
            dirty_read_downgrades: true,
            retry: RetryConfig::default(),
        });
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
        let _ = ms.read(P1, A, 3, t + Cycles(1000));
        ms.drain_all_messages();
        assert!(ms.failure().is_some(), "conflict must still be caught");
    }

    #[test]
    fn stamp_window_reset_discards_private_copies() {
        // A write populates the private copy; a §3.3 stamp reset marks the
        // window boundary where the machine folds committed values back
        // into the shared image, so the private copy is stale afterwards.
        // A read in the next window must re-read-in from the shared array
        // (served with the committed value by the machine layer) rather
        // than hit a leftover private line from the previous window.
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        ms.begin_iteration(P0, 0);
        let t = ms.write(P0, A, 2, Cycles(0)).complete_at;
        ms.drain_all_messages();
        ms.reset_stamp_window(16);
        ms.begin_iteration(P0, 16);
        let out = ms.read(P0, A, 2, t + Cycles(2000));
        assert!(
            out.read_in.is_some(),
            "the next window must re-read-in the committed value"
        );
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "{:?}", ms.failure());
    }

    #[test]
    fn stamp_window_reset_restarts_effective_numbering() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(priv_plan(), IterationNumbering::iteration_wise());
        // Window 0: iteration 7 writes element 5.
        ms.begin_iteration(P0, 7);
        let t = ms.write(P0, A, 5, Cycles(0)).complete_at;
        ms.drain_all_messages();
        ms.reset_stamp_window(8);
        // Window 1: iteration 9 (effective stamp 2) reads element 5 first.
        // Without the reset this would be a read-first after a write
        // (stamp 8 > MinW 8... exactly at boundary); with the reset the
        // stamps are clean and the read-first passes.
        ms.begin_iteration(P1, 9);
        let _ = ms.read(P1, A, 5, t + Cycles(2000));
        ms.drain_all_messages();
        assert!(ms.failure().is_none(), "{:?}", ms.failure());
    }

    #[test]
    fn configure_loop_resets_state() {
        let mut ms = small_system(2);
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
        let _ = ms.read(P1, A, 3, t);
        ms.drain_all_messages();
        assert!(ms.failure().is_some());
        ms.flush_caches(t + Cycles(10_000));
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        assert!(ms.failure().is_none());
        // The same pattern by a single processor now passes.
        let t2 = Cycles(100_000);
        let t2 = ms.write(P0, A, 3, t2).complete_at;
        let _ = ms.read(P0, A, 3, t2);
        ms.drain_all_messages();
        assert!(ms.failure().is_none());
    }

    #[test]
    fn flat_network_reproduces_unloaded_latencies_exactly() {
        // Golden check for the network integration: with the flat
        // zero-contention network (the default), the §5.1 unloaded round
        // trips come out exactly — 60 local, 208 remote 2-hop, 291 remote
        // 3-hop — i.e. the interconnect layer adds zero cycles and zero
        // state compared to the seed's constant-latency abstraction.
        let mut ms = small_system(3);
        let b = ArrayId(1);
        ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 0
        ms.alloc_array(b, 8, ElemSize::W8, PlacementPolicy::RoundRobin); // node 1
        ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let local = ms.read(P0, A, 0, Cycles(0)).complete_at;
        assert_eq!(local, Cycles(60), "local miss");
        let two = ms.read(P0, b, 0, Cycles(10_000));
        assert_eq!(two.complete_at - Cycles(10_000), Cycles(208), "2-hop miss");
        // P2 dirties the line; P0 (remote to home n1 and owner n2) rereads.
        let t = ms.write(ProcId(2), b, 1, Cycles(20_000)).complete_at;
        let three = ms.read(P0, b, 1, t + Cycles(10_000));
        assert_eq!(
            three.complete_at - (t + Cycles(10_000)),
            Cycles(291),
            "3-hop miss"
        );
        let s = ms.net_summary();
        assert_eq!(s.total_queue, 0, "flat network never queues");
        assert!(s.links.is_empty(), "flat network reserves no links");
        assert!(s.messages > 0, "traffic was still accounted");
    }

    #[test]
    fn mesh_with_constrained_links_queues_and_slows_misses() {
        let mesh = MemSystem::new(MemSystemConfig {
            procs: 16,
            net: NetConfig::mesh(16).with_link_service(64),
            ..MemSystemConfig::default()
        });
        let flat = MemSystem::new(MemSystemConfig {
            procs: 16,
            ..MemSystemConfig::default()
        });
        let run = |mut ms: MemSystem| {
            ms.alloc_array(A, 256, ElemSize::W8, PlacementPolicy::RoundRobin);
            ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
            // Every processor hammers node 0's memory at the same instant:
            // the links into node 0 saturate on the mesh.
            let mut last = Cycles(0);
            for p in 1..16 {
                let o = ms.read(ProcId(p), A, 0, Cycles(0));
                last = last.max(o.complete_at);
            }
            (last, ms.net_summary())
        };
        let (flat_done, flat_sum) = run(flat);
        let (mesh_done, mesh_sum) = run(mesh);
        assert_eq!(flat_sum.total_queue, 0);
        assert!(
            mesh_sum.total_queue > 0,
            "constrained mesh links must queue: {mesh_sum:?}"
        );
        assert!(
            mesh_done > flat_done,
            "contention must slow the hot-spot: mesh {mesh_done} vs flat {flat_done}"
        );
        let hot = mesh_sum.hotspot().expect("links were used");
        assert!(hot.queued > 0, "hotspot link shows queueing: {hot:?}");
    }

    #[test]
    fn mesh_keeps_protocol_outcomes_identical() {
        // Topology changes timing, never protocol semantics: the same
        // conflicting access pattern fails under both networks, and the
        // same clean pattern passes under both.
        for net in [NetConfig::flat(), NetConfig::mesh(4).with_link_service(32)] {
            let mut ms = MemSystem::new(MemSystemConfig {
                procs: 4,
                net,
                ..MemSystemConfig::default()
            });
            ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
            ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
            let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
            let _ = ms.read(P1, A, 3, t + Cycles(1000));
            ms.drain_all_messages();
            assert!(ms.failure().is_some(), "conflict caught under {net:?}");
        }
    }

    /// A read-only storm over a non-privatized array: round one misses
    /// (synchronous directory tests), round two hits in cache and sends the
    /// asynchronous `First_update`/`ROnly_update` stream — the messages the
    /// fault plane perturbs. No writes, so the only possible failure is a
    /// lost message.
    fn run_read_storm(faults: specrt_net::FaultConfig) -> MemSystem {
        let mut ms = MemSystem::new(MemSystemConfig {
            procs: 4,
            net: NetConfig::flat().with_faults(faults),
            ..MemSystemConfig::default()
        });
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let mut t = Cycles(0);
        for _round in 0..2 {
            for p in 0..4u32 {
                for i in 0..32 {
                    let o = ms.read(ProcId(p), A, i, t);
                    t = o.complete_at + Cycles(1);
                }
            }
        }
        ms.drain_all_messages();
        ms
    }

    #[test]
    fn dropped_updates_retry_and_recover() {
        let ms = run_read_storm(specrt_net::FaultConfig {
            seed: 0x5eed,
            drop_ppm: 200_000,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        });
        assert!(ms.stats().get("fault.dropped") > 0, "no drop ever fired");
        assert!(ms.stats().get("retry.resends") > 0, "drops must retransmit");
        assert_eq!(
            ms.failure(),
            None,
            "bounded retries recover a 20% loss rate"
        );
        assert!(ms.fault_stats().dropped > 0);
    }

    #[test]
    fn duplicated_updates_replay_idempotently() {
        let clean = run_read_storm(specrt_net::FaultConfig::none());
        let dup = run_read_storm(specrt_net::FaultConfig {
            seed: 1,
            drop_ppm: 0,
            dup_ppm: 1_000_000,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        });
        assert!(dup.stats().get("fault.duplicated") > 0);
        assert_eq!(dup.failure(), None, "duplicates must not fail a clean run");
        assert_eq!(
            dup.dump(),
            clean.dump(),
            "directory replay of duplicates must be idempotent"
        );
    }

    #[test]
    fn delayed_updates_stay_in_order_and_pass() {
        let ms = run_read_storm(specrt_net::FaultConfig {
            seed: 2,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 1_000_000,
            delay_cycles: 10_000,
            node_fault: None,
        });
        assert!(ms.stats().get("fault.delayed") > 0);
        assert_eq!(
            ms.failure(),
            None,
            "delay alone must never fail a clean run"
        );
    }

    #[test]
    fn total_loss_escalates_to_message_lost_abort() {
        let ms = run_read_storm(specrt_net::FaultConfig {
            seed: 3,
            drop_ppm: 1_000_000,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        });
        assert!(ms.stats().get("retry.exhausted") > 0);
        let (reason, _) = ms.failure().expect("total loss must abort");
        assert_eq!(reason.label(), "message_lost");
    }

    #[test]
    fn faulty_network_still_catches_real_conflicts() {
        // Drop/duplicate/delay must never mask a genuine dependence: the
        // same conflicting pattern as mesh_keeps_protocol_outcomes_identical
        // under an aggressive fault plane still records a failure.
        let faults = specrt_net::FaultConfig {
            seed: 7,
            drop_ppm: 100_000,
            dup_ppm: 100_000,
            delay_ppm: 100_000,
            delay_cycles: 500,
            node_fault: None,
        };
        let mut ms = MemSystem::new(MemSystemConfig {
            procs: 4,
            net: NetConfig::mesh(4).with_link_service(32).with_faults(faults),
            ..MemSystemConfig::default()
        });
        ms.alloc_array(A, 32, ElemSize::W8, PlacementPolicy::RoundRobin);
        ms.configure_loop(nonpriv_plan(), IterationNumbering::iteration_wise());
        let t = ms.write(P0, A, 3, Cycles(0)).complete_at;
        let _ = ms.read(P1, A, 3, t + Cycles(1000));
        ms.drain_all_messages();
        assert!(ms.failure().is_some(), "conflict caught despite faults");
    }
}
