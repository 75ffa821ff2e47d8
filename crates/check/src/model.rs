//! Bounded model checker over the pure [`ProtocolSpec`] transition
//! function.
//!
//! This module enumerates the **system layer of `specrt_spec::protospec`**
//! — the same element-level transition code the simulator executes — over
//! a configurable [`SpecScope`] (`lines × elems × procs`, up to 2×3×4) and
//! all three protocol variants (`nonpriv`, `priv`, `priv3`).
//!
//! ## Search structure
//!
//! A *script* assigns each processor an ordered access sequence (at most
//! [`MAX_OPS_PER_PROC`] accesses each, [`ModelConfig::max_ops`] in total).
//! For each script an explicit-frontier BFS explores every interleaving of
//! processor accesses, in-flight message deliveries and cache evictions.
//! States are fixed-capacity `Copy` values, and each `(state, script
//! positions)` node is deduplicated by its exact packed encoding
//! ([`ProtocolSpec::pack`]): the memo is a set of packed keys, so two
//! distinct nodes never merge, and the frontier holds packed keys that are
//! decoded ([`KeyLayout::unpack`](specrt_spec::KeyLayout::unpack)) when
//! popped. Each successor's key is built from its parent's
//! ([`KeyLayout::repack`](specrt_spec::KeyLayout::repack)): only the
//! entities the step recorded as written are re-encoded, and debug builds
//! check the result against a full pack. BFS order makes the first bad
//! state found the shallowest one, so counterexample event paths are
//! minimal for their script; scripts are enumerated smallest-first, so the
//! reported counterexample *script* is minimal too.
//!
//! ## Symmetry reduction
//!
//! Processor identities are interchangeable under `nonpriv` and `priv3`
//! (the protocols compare ids only for equality), so scripts are
//! enumerated as multisets — one canonical representative (sorted
//! per-processor sequences) per permutation orbit. The stamped `priv`
//! variant orders processors by their iteration stamp, which breaks full
//! symmetry but keeps invariance under order-preserving compaction: idle
//! processors are canonically trailing, and every ordered tuple of
//! non-empty sequences is enumerated once.
//!
//! ## Checked properties
//!
//! * **Soundness at quiescence** (all scripts finished, no messages in
//!   flight, all cache copies written back): the run has FAILed or the
//!   script's access pattern is inside the paper's envelope for the
//!   variant. A quiescent PASS of a non-envelope script is a *violation*.
//!   The write-back condition mirrors the machine, which flushes caches
//!   after every loop and only then reads the verdict: dirty lines carry
//!   locally accumulated tag bits whose conflicts surface at the
//!   write-back merge (race case (e)), so a pre-flush state is not a
//!   verdict.
//! * **Dirty exclusivity** (`nonpriv`): at most one dirty copy per line at
//!   every explored state.
//! * **Directory consistency** (`nonpriv`): no non-FAILed directory
//!   element is simultaneously `NoShr` (write-exclusive) and `ROnly`
//!   (read-shared) — the clean protocol FAILs instead of entering that
//!   contradiction, and the `drop-ronly` mutation is caught exactly here.
//! * **Dir ↔ cache-tag agreement** (`nonpriv`, at quiescence, clean
//!   copies): `First = OWN` implies the directory names that processor,
//!   and `NoShr`/`ROnly` tag bits imply the directory bits. (Dirty copies
//!   reconcile at write-back and are exempt by design.)
//! * **Stamp monotonicity** (`priv`): `MaxR1st` never decreases, `MinW`
//!   never increases across any transition, and `MaxR1st ≤ MinW` in every
//!   non-FAILed state. These are counted separately as *invariant
//!   violations* — the `swap-ts-compare` mutation breaks them without
//!   necessarily producing a quiescent pass.
//! * **Tag ↔ private-directory agreement** (`priv`/`priv3`): a set
//!   `Read1st`/`Write` tag bit implies the matching private-directory
//!   stamp/bit at every state.
//!
//! Race-site coverage counts every [`RaceSite`] the element steps emit as
//! [`SpecEmission::Race`], per variant: Figs. 6–7 (a)–(h), Fig. 9 (a)–(j)
//! and the no-read-in variant's §4.1 sites. The machine counts the same
//! sites ([`Coverage::of_stats`]), so `specrt-check coverage` compares the
//! two sides site by site.
//!
//! ## Determinism and parallelism
//!
//! Exploration is partitioned by script over `specrt_par::par_map`, whose
//! results come back in input order; per-script exploration is
//! deterministic, counters are sums, and the counterexample is re-derived
//! from the first bad script — so reports are **byte-identical at any
//! `--jobs`**. An active [`fault`] injection is re-installed in every
//! worker thread (the injection is part of the transition function under
//! test).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use specrt_cache::FirstTag;
use specrt_engine::{Cycles, StatSet};
use specrt_mem::ProcId;
use specrt_spec::protospec::{MAX_INFLIGHT, MAX_LINES, MAX_PROCS};
use specrt_spec::{
    fault, DirElem, FlightMsg, InlineVec, PackedState, Pcs, PrivateDirElem, ProtocolSpec, RaceSite,
    SpecEmission, SpecMessage, SpecScope, SpecState, SpecVariant,
};
use specrt_trace::{HitKind, TraceEvent};

use crate::generate::Op;

/// Race-site counts of one protocol variant, taken by the model checker
/// or by the machine. Its `Display` is the report line: `label=count` per
/// site of the variant, in letter order.
#[derive(Debug, Clone)]
pub struct Coverage {
    /// The variant whose sites are counted.
    pub variant: SpecVariant,
    /// `counts[i]` = times the variant's `i`-th site, in letter order, was
    /// taken (the tail past its last site stays zero). perfbench digests
    /// this array by value, so it stays a fixed-size array.
    pub counts: [u64; RaceSite::MAX_PER_VARIANT],
}

impl Coverage {
    /// No site of `variant` taken yet.
    pub fn new(variant: SpecVariant) -> Coverage {
        Coverage {
            variant,
            counts: [0; RaceSite::MAX_PER_VARIANT],
        }
    }

    /// The machine's counts of `variant`'s sites, read from the
    /// `MemSystem` counters in `stats`.
    pub fn of_stats(variant: SpecVariant, stats: &StatSet) -> Coverage {
        let mut c = Coverage::new(variant);
        for (n, site) in c.counts.iter_mut().zip(RaceSite::of(variant)) {
            *n = stats.get(site.key());
        }
        c
    }

    /// The variant's sites never taken. perfbench prints this.
    pub fn unvisited(&self) -> Vec<RaceSite> {
        RaceSite::of(self.variant)
            .zip(self.counts)
            .filter_map(|(site, n)| (n == 0).then_some(site))
            .collect()
    }

    /// Whether every site of the variant was taken. perfbench gates on
    /// this.
    pub fn complete(&self) -> bool {
        self.unvisited().is_empty()
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (site, n)) in RaceSite::of(self.variant).zip(self.counts).enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={n}", site.label())?;
        }
        Ok(())
    }
}

/// Per-processor access-sequence cap (sequences of 0, 1 or 2 accesses).
pub const MAX_OPS_PER_PROC: usize = 2;

/// Default total-accesses cap per script.
pub const DEFAULT_MAX_OPS: usize = 5;

/// One script: each processor's ordered access sequence.
pub type Script = Vec<Vec<Op>>;

/// Configuration of one model-checking run.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Protocol variant under test.
    pub variant: SpecVariant,
    /// Bounded scope (validate before use).
    pub scope: SpecScope,
    /// Total accesses allowed per script.
    pub max_ops: usize,
    /// Worker threads (0 = all cores); the report is identical for any
    /// value.
    pub jobs: usize,
}

impl ModelConfig {
    /// The acceptance-target configuration: 2 lines × 3 elems × 4 procs.
    pub fn full(variant: SpecVariant) -> ModelConfig {
        ModelConfig {
            variant,
            scope: SpecScope {
                lines: 2,
                elems: 3,
                procs: 4,
            },
            max_ops: DEFAULT_MAX_OPS,
            jobs: 1,
        }
    }

    /// A reduced smoke-test configuration: 1 line × 2 elems × 2 procs.
    pub fn smoke(variant: SpecVariant) -> ModelConfig {
        ModelConfig {
            variant,
            scope: SpecScope {
                lines: 1,
                elems: 2,
                procs: 2,
            },
            max_ops: 4,
            jobs: 1,
        }
    }
}

/// A minimal witness of a property violation: the smallest offending
/// script and a shortest event path to the first bad state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Variant it was found under.
    pub variant: SpecVariant,
    /// Scope it was found at.
    pub scope: SpecScope,
    /// The offending script.
    pub script: Script,
    /// Shortest message sequence from the initial state to the bad state.
    pub path: Vec<SpecMessage>,
}

impl Counterexample {
    /// Replays the event path through the spec and renders it as trace
    /// events (one `Transaction` per access with the first race site it
    /// took itself, as the machine's trace names it; one `Message` per
    /// delivery/eviction), ready for the trace exporters.
    pub fn trace(&self) -> Vec<TraceEvent> {
        let spec = ProtocolSpec::new(self.variant, self.scope);
        let mut s = spec.init();
        let mut pcs = vec![0usize; self.scope.procs as usize];
        let mut events = Vec::new();
        for (at, m) in self.path.iter().enumerate() {
            let at = Cycles(at as u64);
            match *m {
                SpecMessage::Access { proc, write, elem } => {
                    let line = self.scope.line_of(elem);
                    let resident = s.copies[self.scope.copy_index(proc, line)].is_some();
                    let (ns, em, _) = spec.step(&s, m);
                    events.push(TraceEvent::Transaction {
                        at,
                        proc: proc as u32,
                        arr: 0,
                        idx: elem as u64,
                        write,
                        hit: if resident { HitKind::L1 } else { HitKind::Miss },
                        home: 0,
                        queue: Cycles(0),
                        complete: Cycles(at.0 + 1),
                        case: em.iter().find_map(|e| match e {
                            SpecEmission::Race(site) if !site.delivery() => Some(site.label()),
                            _ => None,
                        }),
                    });
                    pcs[proc as usize] += 1;
                    s = ns;
                }
                SpecMessage::Deliver { index } => {
                    let f = s.inflight[index];
                    let kind = match f.msg {
                        FlightMsg::FirstUpdate { .. } => "First_update",
                        FlightMsg::ROnlyUpdate { .. } => "ROnly_update",
                        FlightMsg::FirstUpdateFail { .. } => "First_update_fail",
                        FlightMsg::ReadFirst { .. } => "Read1st_signal",
                        FlightMsg::FirstWrite { .. } => "First_write_signal",
                    };
                    events.push(TraceEvent::Message {
                        at,
                        kind,
                        arr: 0,
                        idx: f.msg.elem() as u64,
                    });
                    let (ns, _, _) = spec.step(&s, m);
                    s = ns;
                }
                SpecMessage::Evict { proc, line } => {
                    events.push(TraceEvent::Message {
                        at,
                        kind: "evict",
                        arr: proc as u32,
                        idx: line as u64,
                    });
                    let (ns, _, _) = spec.step(&s, m);
                    s = ns;
                }
            }
        }
        events
    }

    /// Deterministic human-readable rendering: the script, then the
    /// replayed event path as trace lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ops: usize = self.script.iter().map(Vec::len).sum();
        out.push_str(&format!(
            "minimal counterexample ({}, {} op(s)):\n",
            self.variant.name(),
            ops
        ));
        for (p, seq) in self.script.iter().enumerate() {
            let ops: Vec<String> = seq
                .iter()
                .map(|op| match op {
                    Op::Read(e) => format!("R{e}"),
                    Op::Write(e) => format!("W{e}"),
                })
                .collect();
            out.push_str(&format!(
                "  p{p}: {}\n",
                if ops.is_empty() {
                    "(idle)".to_string()
                } else {
                    ops.join(" ")
                }
            ));
        }
        out.push_str(&format!("event path ({} step(s)):\n", self.path.len()));
        for e in self.trace() {
            out.push_str(&format!("  {e}\n"));
        }
        out
    }
}

/// The merged result of one model-checking run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Variant checked.
    pub variant: SpecVariant,
    /// Scope checked.
    pub scope: SpecScope,
    /// Total-accesses cap used.
    pub max_ops: usize,
    /// Scripts enumerated (after symmetry reduction).
    pub scripts: u64,
    /// Unique states discovered across all scripts.
    pub states: u64,
    /// Successor encounters that hit an already-explored state.
    pub dedup_hits: u64,
    /// Scripts with a quiescent PASS outside the envelope (soundness
    /// violations).
    pub violations: u64,
    /// Per-state/per-transition invariant failures (monotonicity, dirty
    /// exclusivity, dir↔tag agreement).
    pub invariant_violations: u64,
    /// Envelope scripts that no interleaving lets PASS.
    pub conservative: u64,
    /// Race-case site coverage over the whole run.
    pub coverage: Coverage,
    /// Witness for the first bad script, if any.
    pub counterexample: Option<Counterexample>,
}

impl ModelReport {
    /// Whether the run found no violation of any checked property.
    pub fn ok(&self) -> bool {
        self.violations == 0 && self.invariant_violations == 0
    }

    /// Fraction of successor encounters answered by the memo table.
    pub fn dedup_rate(&self) -> f64 {
        let total = self.states + self.dedup_hits;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }

    /// Deterministic report text (identical at any `--jobs`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "model {} {}x{}x{} max-ops {}: {} scripts, {} states, dedup {:.1}% ({} hits), \
             {} violation(s), {} invariant violation(s), {} conservative script(s)\n",
            self.variant.name(),
            self.scope.lines,
            self.scope.elems,
            self.scope.procs,
            self.max_ops,
            self.scripts,
            self.states,
            100.0 * self.dedup_rate(),
            self.dedup_hits,
            self.violations,
            self.invariant_violations,
            self.conservative,
        );
        out.push_str(&format!("race-case coverage: {}\n", self.coverage));
        if let Some(cex) = &self.counterexample {
            out.push_str(&cex.render());
        }
        out
    }
}

/// Enumerates the symmetry-reduced script universe for one variant,
/// smallest total-op-count first.
pub fn enumerate_scripts(variant: SpecVariant, scope: SpecScope, max_ops: usize) -> Vec<Script> {
    let seqs = atom_seqs(scope.elems);
    let procs = scope.procs as usize;
    let mut out = Vec::new();
    let mut picked = Vec::new();
    match variant {
        // Fully processor-symmetric: one sorted (non-decreasing
        // sequence-index) representative per permutation orbit.
        SpecVariant::NonPriv | SpecVariant::Priv3 => {
            multiset_scripts(&seqs, procs, max_ops, 0, 0, &mut picked, &mut out);
        }
        // Stamps order processors; only compaction symmetry applies:
        // ordered tuples of non-empty sequences, idle processors trailing.
        SpecVariant::Priv => {
            for active in 0..=procs {
                ordered_scripts(&seqs, procs, active, max_ops, 0, &mut picked, &mut out);
            }
        }
    }
    out.sort_by_key(|s| s.iter().map(Vec::len).sum::<usize>());
    out
}

/// All per-processor sequences of at most [`MAX_OPS_PER_PROC`] accesses
/// over `elems` elements, the empty sequence first.
fn atom_seqs(elems: u16) -> Vec<Vec<Op>> {
    let mut atoms = Vec::new();
    for e in 0..elems as u64 {
        atoms.push(Op::Read(e));
        atoms.push(Op::Write(e));
    }
    let mut seqs = vec![Vec::new()];
    for &a in &atoms {
        seqs.push(vec![a]);
    }
    for &a in &atoms {
        for &b in &atoms {
            seqs.push(vec![a, b]);
        }
    }
    seqs
}

fn multiset_scripts(
    seqs: &[Vec<Op>],
    procs: usize,
    max_ops: usize,
    start: usize,
    used: usize,
    picked: &mut Vec<usize>,
    out: &mut Vec<Script>,
) {
    if picked.len() == procs {
        out.push(picked.iter().map(|&i| seqs[i].clone()).collect());
        return;
    }
    for i in start..seqs.len() {
        if used + seqs[i].len() > max_ops {
            continue;
        }
        picked.push(i);
        multiset_scripts(seqs, procs, max_ops, i, used + seqs[i].len(), picked, out);
        picked.pop();
    }
}

fn ordered_scripts(
    seqs: &[Vec<Op>],
    procs: usize,
    active: usize,
    max_ops: usize,
    used: usize,
    picked: &mut Vec<usize>,
    out: &mut Vec<Script>,
) {
    if picked.len() == active {
        let mut script: Script = picked.iter().map(|&i| seqs[i].clone()).collect();
        script.resize(procs, Vec::new());
        out.push(script);
        return;
    }
    // Index 0 is the empty sequence: active processors pick from 1...
    for i in 1..seqs.len() {
        if used + seqs[i].len() > max_ops {
            continue;
        }
        picked.push(i);
        ordered_scripts(
            seqs,
            procs,
            active,
            max_ops,
            used + seqs[i].len(),
            picked,
            out,
        );
        picked.pop();
    }
}

/// Whether `script` is inside the paper's soundness envelope for
/// `variant` — the access patterns the dependence test must let PASS.
pub fn envelope_holds(variant: SpecVariant, script: &Script) -> bool {
    let elems: Vec<u64> = {
        let mut all: Vec<u64> = script
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Read(e) | Op::Write(e) => *e,
            })
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    };
    elems.into_iter().all(|e| match variant {
        // Every element read-only or touched by a single processor.
        SpecVariant::NonPriv => {
            let written = script
                .iter()
                .flatten()
                .any(|op| matches!(op, Op::Write(x) if *x == e));
            let touchers = script
                .iter()
                .filter(|seq| {
                    seq.iter()
                        .any(|op| matches!(op, Op::Read(x) | Op::Write(x) if *x == e))
                })
                .count();
            !written || touchers <= 1
        }
        // No read-first iteration later than some writing iteration
        // (stamp(p) = p + 1).
        SpecVariant::Priv => {
            let readers_first: Vec<u64> = (0..script.len())
                .filter(|&p| reads_first(&script[p], e))
                .map(|p| p as u64 + 1)
                .collect();
            let writers: Vec<u64> = (0..script.len())
                .filter(|&p| {
                    script[p]
                        .iter()
                        .any(|op| matches!(op, Op::Write(x) if *x == e))
                })
                .map(|p| p as u64 + 1)
                .collect();
            !readers_first.iter().any(|r| writers.iter().any(|w| r > w))
        }
        // Without read-in, any read-first plus any write (even by the same
        // processor) FAILs.
        SpecVariant::Priv3 => {
            let any_r1st = script.iter().any(|seq| reads_first(seq, e));
            let any_w = script
                .iter()
                .flatten()
                .any(|op| matches!(op, Op::Write(x) if *x == e));
            !(any_r1st && any_w)
        }
    })
}

/// Whether `seq`'s first access to element `e` is a read.
fn reads_first(seq: &[Op], e: u64) -> bool {
    seq.iter()
        .find_map(|op| match op {
            Op::Read(x) if *x == e => Some(true),
            Op::Write(x) if *x == e => Some(false),
            _ => None,
        })
        .unwrap_or(false)
}

/// Per-script exploration result (merged in script order, so totals are
/// independent of worker count).
#[derive(Debug, Clone, Default)]
struct ScriptOutcome {
    states: u64,
    dedup_hits: u64,
    violation: bool,
    invariant_violations: u64,
    any_pass: bool,
    /// Times each race site was taken, indexed like [`Coverage::counts`].
    sites: [u64; RaceSite::MAX_PER_VARIANT],
}

/// Location of the first bad state found, for path reconstruction:
/// an explored ancestor key plus an optional extra edge.
type BadState = (PackedState, Option<SpecMessage>);

/// Hashes a packed key with one folded multiply per word: the key is
/// already an exact encoding, so hashing only has to spread its bits.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        let m = u128::from(self.0 ^ w) * 0x9E37_79B9_7F4A_7C15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyBuild = BuildHasherDefault<KeyHasher>;

/// The messages enabled in one state: at most one access per processor,
/// one delivery per in-flight message and one eviction per copy.
pub type Enabled =
    InlineVec<SpecMessage, { MAX_PROCS as usize * (1 + MAX_LINES as usize) + MAX_INFLIGHT }>;

/// Explores every interleaving of one script; if `want_path`, also returns
/// a shortest event path to the first bad state (BFS depth order).
fn explore(
    spec: &ProtocolSpec,
    script: &Script,
    want_path: bool,
) -> (ScriptOutcome, Option<Vec<SpecMessage>>) {
    let envelope = envelope_holds(spec.variant, script);
    let mut outcome = ScriptOutcome::default();
    let layout = spec.key_layout();
    // The variant's first site: `Coverage::counts` indexes from it.
    let first_site = RaceSite::of(spec.variant).next().map_or(0, |s| s as usize);
    let init_key = spec.pack(&spec.init(), &Pcs::filled(0, spec.scope.procs as usize));
    let mut memo: HashSet<PackedState, KeyBuild> = HashSet::default();
    memo.insert(init_key);
    outcome.states = 1;
    let mut parents: HashMap<PackedState, (PackedState, SpecMessage), KeyBuild> =
        HashMap::default();
    let mut frontier: VecDeque<PackedState> = VecDeque::new();
    frontier.push_back(init_key);
    let mut bad: Option<BadState> = None;

    while let Some(key) = frontier.pop_front() {
        let (s, pcs) = layout.unpack(&key);
        let done = pcs
            .iter()
            .enumerate()
            .all(|(p, &pc)| pc as usize == script[p].len());
        // The verdict is only final once every cache copy has been written
        // back: the machine flushes all caches after a loop (dirty victims
        // merge their access bits at the directory — race case (e), where
        // deferred dirty-line conflicts surface), and only then reads
        // PASS/FAIL. Eviction messages stay enabled while copies remain, so
        // every done state reaches its flushed form within the exploration.
        let flushed = s.copies.iter().all(Option::is_none);
        if !s.failed && done && s.inflight.is_empty() && flushed {
            outcome.any_pass = true;
            if !envelope {
                outcome.violation = true;
                if bad.is_none() {
                    bad = Some((key, None));
                }
            }
        }
        if s.failed {
            // FAIL is absorbing: the speculation aborts, nothing further
            // is protocol-relevant.
            continue;
        }
        if want_path && bad.is_some() {
            break;
        }
        for &m in &enabled_messages(spec, &s, &pcs, script) {
            let (ns, em, written) = spec.step(&s, &m);
            let mut npcs = pcs;
            if let SpecMessage::Access { proc, .. } = m {
                npcs[proc as usize] += 1;
            }
            for e in &em {
                if let SpecEmission::Race(site) = e {
                    outcome.sites[*site as usize - first_site] += 1;
                }
            }
            // Transition invariant: privatization stamps move one way.
            if spec.variant == SpecVariant::Priv && !stamps_monotonic(&s, &ns) {
                outcome.invariant_violations += 1;
                if bad.is_none() {
                    bad = Some((key, Some(m)));
                }
            }
            let nkey = layout.repack(&key, &ns, &npcs, written);
            debug_assert_eq!(
                nkey,
                spec.pack(&ns, &npcs),
                "delta key differs from the full pack after {m:?}"
            );
            if memo.insert(nkey) {
                outcome.states += 1;
                // State invariants, checked once per unique state.
                if !state_invariants_hold(spec, &ns, &npcs, script) {
                    outcome.invariant_violations += 1;
                    if bad.is_none() {
                        bad = Some((key, Some(m)));
                    }
                }
                if want_path {
                    parents.insert(nkey, (key, m));
                }
                frontier.push_back(nkey);
            } else {
                outcome.dedup_hits += 1;
            }
        }
    }

    let path = if want_path {
        bad.map(|(ancestor, extra)| {
            let mut path = Vec::new();
            let mut k = ancestor;
            while k != init_key {
                let (pk, m) = parents[&k];
                path.push(m);
                k = pk;
            }
            path.reverse();
            path.extend(extra);
            path
        })
    } else {
        None
    };
    (outcome, path)
}

/// The messages enabled in node `(s, pcs)` of `script`, deterministically
/// ordered: accesses by processor, deliveries by queue index, evictions by
/// (processor, line). The explorer and the spec purity walk in
/// `tests/spec_shadow.rs` both enumerate successors through this.
pub fn enabled_messages(
    spec: &ProtocolSpec,
    s: &SpecState,
    pcs: &[u16],
    script: &Script,
) -> Enabled {
    let mut out = Enabled::filled(SpecMessage::Deliver { index: 0 }, 0);
    for (p, &pc) in pcs.iter().enumerate() {
        if let Some(op) = script[p].get(pc as usize) {
            let (write, elem) = match op {
                Op::Read(e) => (false, *e as u16),
                Op::Write(e) => (true, *e as u16),
            };
            out.push(SpecMessage::Access {
                proc: p as u16,
                write,
                elem,
            });
        }
    }
    for index in 0..s.inflight.len() {
        out.push(SpecMessage::Deliver { index });
    }
    for proc in 0..spec.scope.procs {
        for line in 0..spec.scope.lines {
            if s.copies[spec.scope.copy_index(proc, line)].is_some() {
                out.push(SpecMessage::Evict { proc, line });
            }
        }
    }
    out
}

/// `MaxR1st` non-decreasing, `MinW` non-increasing across one transition.
fn stamps_monotonic(prev: &SpecState, next: &SpecState) -> bool {
    prev.dir.iter().zip(&next.dir).all(|(a, b)| match (a, b) {
        (DirElem::Priv(a), DirElem::Priv(b)) => b.max_r1st >= a.max_r1st && b.min_w <= a.min_w,
        _ => true,
    })
}

/// Per-state invariants for one freshly discovered state.
fn state_invariants_hold(spec: &ProtocolSpec, s: &SpecState, pcs: &[u16], script: &Script) -> bool {
    match spec.variant {
        SpecVariant::NonPriv => {
            nonpriv_dirty_exclusive(spec, s)
                && nonpriv_dir_consistent(s)
                && nonpriv_quiescent_agreement(spec, s, pcs, script)
        }
        SpecVariant::Priv => priv_stamps_consistent(s) && priv_tag_agreement(spec, s),
        SpecVariant::Priv3 => priv3_tag_agreement(spec, s),
    }
}

/// At most one dirty copy of each line (non-privatization: dirty means
/// exclusive; private-copy variants legitimately hold many dirty copies).
fn nonpriv_dirty_exclusive(spec: &ProtocolSpec, s: &SpecState) -> bool {
    (0..spec.scope.lines).all(|line| {
        (0..spec.scope.procs)
            .filter(|&p| {
                s.copies[spec.scope.copy_index(p, line)]
                    .as_ref()
                    .is_some_and(|c| c.dirty)
            })
            .count()
            <= 1
    })
}

/// No non-FAILed directory element is simultaneously write-exclusive and
/// read-shared: `NoShr ∧ ROnly` asserts "written by one processor only"
/// and "read by more than the writer" at once, which the clean protocol
/// always resolves to FAIL instead (the write-request `ROnly` test, the
/// update-vs-`NoShr` races (g)/(h), and the write-back merge all refuse
/// it). The `drop-ronly` mutation grants the conflicting write request
/// and manufactures exactly this state.
fn nonpriv_dir_consistent(s: &SpecState) -> bool {
    s.failed
        || s.dir.iter().all(|d| {
            let DirElem::NonPriv(e) = d else {
                return false;
            };
            !(e.no_shr && e.r_only)
        })
}

/// At a quiescent non-FAILed state, clean-copy tag bits agree with the
/// directory: every update they imply has been delivered. Dirty copies
/// accumulate local state and reconcile at write-back, so they are exempt.
fn nonpriv_quiescent_agreement(
    spec: &ProtocolSpec,
    s: &SpecState,
    pcs: &[u16],
    script: &Script,
) -> bool {
    let done = pcs
        .iter()
        .enumerate()
        .all(|(p, &pc)| pc as usize == script[p].len());
    if s.failed || !done || !s.inflight.is_empty() {
        return true;
    }
    (0..spec.scope.procs).all(|p| {
        (0..spec.scope.lines).all(|line| {
            let Some(copy) = &s.copies[spec.scope.copy_index(p, line)] else {
                return true;
            };
            if copy.dirty {
                return true;
            }
            spec.scope.line_range(line).enumerate().all(|(off, e)| {
                let DirElem::NonPriv(d) = s.dir[e as usize] else {
                    return false;
                };
                let t = copy.tags.get(off);
                (t.first() != FirstTag::Own || d.first == Some(ProcId(p as u32)))
                    && (!t.no_shr() || d.no_shr)
                    && (!t.r_only() || d.r_only)
            })
        })
    })
}

/// `MaxR1st ≤ MinW` in every non-FAILed state.
fn priv_stamps_consistent(s: &SpecState) -> bool {
    s.failed
        || s.dir.iter().all(|d| match d {
            DirElem::Priv(e) => e.max_r1st <= e.min_w,
            _ => true,
        })
}

/// A set `Read1st`/`Write` tag bit implies the private directory recorded
/// the same stamp (the tag is a cache of the private-directory state).
fn priv_tag_agreement(spec: &ProtocolSpec, s: &SpecState) -> bool {
    (0..spec.scope.procs).all(|p| {
        let eff = ProtocolSpec::stamp(p);
        (0..spec.scope.lines).all(|line| {
            let Some(copy) = &s.copies[spec.scope.copy_index(p, line)] else {
                return true;
            };
            spec.scope.line_range(line).enumerate().all(|(off, e)| {
                let PrivateDirElem::Priv { elem, .. } = s.pdir[spec.scope.pdir_index(p, e)] else {
                    return false;
                };
                let t = copy.tags.get(off);
                (!t.read1st() || elem.pmax_r1st == eff) && (!t.write() || elem.pmax_w == eff)
            })
        })
    })
}

/// Same agreement for the reduced no-read-in bits.
fn priv3_tag_agreement(spec: &ProtocolSpec, s: &SpecState) -> bool {
    (0..spec.scope.procs).all(|p| {
        (0..spec.scope.lines).all(|line| {
            let Some(copy) = &s.copies[spec.scope.copy_index(p, line)] else {
                return true;
            };
            spec.scope.line_range(line).enumerate().all(|(off, e)| {
                let PrivateDirElem::Priv3(pd) = s.pdir[spec.scope.pdir_index(p, e)] else {
                    return false;
                };
                let t = copy.tags.get(off);
                (!t.read1st() || pd.read1st) && (!t.write() || pd.write)
            })
        })
    })
}

/// Runs the bounded model checker.
///
/// # Panics
///
/// Panics if the scope does not validate — callers should surface
/// [`SpecScope::validate`]'s message first.
pub fn run_model(cfg: &ModelConfig) -> ModelReport {
    let scope = cfg.scope.validate().expect("validated scope");
    let spec = ProtocolSpec::new(cfg.variant, scope);
    let scripts = enumerate_scripts(cfg.variant, scope, cfg.max_ops);
    // Exploration runs the protocol code, which consults the thread-local
    // fault plane: re-install the caller's injection in every worker.
    let injected = fault::current();
    let outcomes = specrt_par::par_map(cfg.jobs, &scripts, |_, script| {
        let _guard = injected.map(fault::Injected::new);
        explore(&spec, script, false).0
    });

    let mut report = ModelReport {
        variant: cfg.variant,
        scope,
        max_ops: cfg.max_ops,
        scripts: scripts.len() as u64,
        states: 0,
        dedup_hits: 0,
        violations: 0,
        invariant_violations: 0,
        conservative: 0,
        coverage: Coverage::new(cfg.variant),
        counterexample: None,
    };
    let mut first_bad = None;
    for (i, (script, o)) in scripts.iter().zip(&outcomes).enumerate() {
        report.states += o.states;
        report.dedup_hits += o.dedup_hits;
        report.violations += u64::from(o.violation);
        report.invariant_violations += o.invariant_violations;
        if envelope_holds(cfg.variant, script) && !o.any_pass {
            report.conservative += 1;
        }
        for (c, n) in report.coverage.counts.iter_mut().zip(o.sites) {
            *c += n;
        }
        if first_bad.is_none() && (o.violation || o.invariant_violations > 0) {
            first_bad = Some(i);
        }
    }
    if let Some(i) = first_bad {
        // Scripts are size-sorted, so the first bad script is minimal;
        // re-explore it with parent tracking for a shortest event path.
        let (_, path) = explore(&spec, &scripts[i], true);
        report.counterexample = Some(Counterexample {
            variant: cfg.variant,
            scope,
            script: scripts[i].clone(),
            path: path.expect("bad script must re-derive a path"),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_universe_is_symmetry_reduced_and_size_sorted() {
        let scope = SpecScope {
            lines: 1,
            elems: 2,
            procs: 2,
        };
        let scripts = enumerate_scripts(SpecVariant::NonPriv, scope, 4);
        // Non-decreasing sizes.
        let sizes: Vec<usize> = scripts
            .iter()
            .map(|s| s.iter().map(Vec::len).sum())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        // No permutation duplicates: sorting the two sequences of any
        // script reproduces the script itself (canonical form).
        for s in &scripts {
            let mut sorted = s.clone();
            sorted.sort_by_key(|seq| format!("{seq:?}"));
            let mut canon = s.clone();
            canon.sort_by_key(|seq| format!("{seq:?}"));
            assert_eq!(sorted, canon);
        }
        // The stamped variant enumerates strictly more scripts (ordering
        // matters) but still compacts idle processors to the tail.
        let privs = enumerate_scripts(SpecVariant::Priv, scope, 4);
        assert!(privs.len() > scripts.len());
        for s in &privs {
            let first_idle = s.iter().position(Vec::is_empty).unwrap_or(s.len());
            assert!(s[first_idle..].iter().all(Vec::is_empty), "{s:?}");
        }
    }

    #[test]
    fn envelope_oracles() {
        let r0 = Op::Read(0);
        let w0 = Op::Write(0);
        // Cross-processor write sharing breaks the nonpriv envelope.
        assert!(envelope_holds(
            SpecVariant::NonPriv,
            &vec![vec![r0], vec![r0]]
        ));
        assert!(!envelope_holds(
            SpecVariant::NonPriv,
            &vec![vec![r0], vec![w0]]
        ));
        // priv: read-first at a later stamp than a write fails; the
        // reverse order of stamps is fine.
        assert!(!envelope_holds(
            SpecVariant::Priv,
            &vec![vec![w0], vec![r0]]
        ));
        assert!(envelope_holds(SpecVariant::Priv, &vec![vec![r0], vec![w0]]));
        // Same-processor read-then-write is allowed with stamps...
        assert!(envelope_holds(SpecVariant::Priv, &vec![vec![r0, w0]]));
        // ...but not without read-in.
        assert!(!envelope_holds(SpecVariant::Priv3, &vec![vec![r0, w0]]));
        assert!(envelope_holds(SpecVariant::Priv3, &vec![vec![w0, r0]]));
    }

    #[test]
    fn smoke_scopes_are_sound_and_cover_all_races() {
        for variant in SpecVariant::ALL {
            let report = run_model(&ModelConfig::smoke(variant));
            assert!(report.ok(), "{}:\n{}", variant.name(), report.render());
            assert!(
                report.coverage.complete(),
                "{} missed {:?}",
                variant.name(),
                report.coverage.unvisited()
            );
        }
    }
}
