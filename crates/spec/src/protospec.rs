//! The protocol's race-case serialization logic as a **pure transition
//! function** (ROADMAP item 5).
//!
//! Two layers:
//!
//! * the **element layer** — [`ProtocolSpec::dir_step`] (one directory
//!   element × one message → new element state × emissions) plus the
//!   cache-tag and private-directory steps. `specrt-proto`'s `MemSystem`
//!   *executes* these for its real directory/tag stores, so the simulator
//!   and the model checker run literally the same transition code; the
//!   timing, NUMA and cache-geometry concerns stay in the executor.
//! * the **system layer** — [`ProtocolSpec::step`]: a typed, fixed-capacity
//!   `Copy` [`SpecState`] (directory entries, per-line tag bits,
//!   private-copy stamps, the pending message queue) over a bounded
//!   [`SpecScope`] (`lines × elems × procs`), advanced by
//!   [`SpecMessage`]s (a processor access, a message delivery, an
//!   eviction). `specrt-check`'s bounded model checker *enumerates* this
//!   function; every branch bottoms out in the same element-layer calls
//!   the simulator executes.
//!
//! Determinism: `step` is a pure function of `(state, message)` — it
//! copies its successor state and allocates nothing, emissions included;
//! it never reads clocks or ambient configuration, and its only
//! environmental input is the thread-local [`crate::fault`] injection
//! plane (itself part of the conceptual input: a deliberately-broken
//! protocol is a *different* transition function).
//! Under a fixed injection, two evaluations agree bit-for-bit; the
//! executor double-evaluates under `debug_assertions` to enforce this.
//!
//! The per-processor iteration model of the system layer: processor `p`
//! runs exactly one speculative iteration with 1-based stamp `p + 1`, so
//! privatization stamps are ordered by processor index. Stamps are only
//! ever compared, so this loses no generality beyond bounding the
//! iteration count — the bounded-scope analogue of the paper's iteration
//! numbering.

use std::ops::Range;

use specrt_cache::{ElemTag, LineTags};
use specrt_mem::ProcId;

use crate::inline_vec::InlineVec;
use crate::nonpriv::{
    nonpriv_cache_read, nonpriv_cache_write, nonpriv_complete_write, nonpriv_on_first_update_fail,
    FirstUpdateOutcome, NonPrivDirElem, NonPrivReadAction, NonPrivWriteAction,
};
use crate::privat::{
    priv_cache_read, priv_cache_write, PrivPrivateElem, PrivSharedElem, PrivateReadMissOutcome,
    PrivateReadOutcome, PrivateWriteMissOutcome, PrivateWriteOutcome,
};
use crate::privat3::{NoReadInOutcome, PrivNoReadInPrivate, PrivNoReadInShared};
use crate::FailReason;

// ---------------------------------------------------------------------
// Element layer: what the simulator executes
// ---------------------------------------------------------------------

/// One element's worth of shared-directory state under any protocol
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirElem {
    /// Non-privatization `First`/`NoShr`/`ROnly` state (Fig. 4).
    NonPriv(NonPrivDirElem),
    /// Privatization `MaxR1st`/`MinW` stamps (Fig. 5-a).
    Priv(PrivSharedElem),
    /// Reduced no-read-in `AnyR1st`/`AnyW` bits (Fig. 5-b).
    Priv3(PrivNoReadInShared),
}

impl DirElem {
    /// The non-privatization payload.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `NonPriv`.
    pub fn unwrap_nonpriv(self) -> NonPrivDirElem {
        match self {
            DirElem::NonPriv(e) => e,
            other => panic!("expected NonPriv element, got {other:?}"),
        }
    }

    /// The privatization payload.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `Priv`.
    pub fn unwrap_priv(self) -> PrivSharedElem {
        match self {
            DirElem::Priv(e) => e,
            other => panic!("expected Priv element, got {other:?}"),
        }
    }

    /// The reduced no-read-in payload.
    ///
    /// # Panics
    ///
    /// Panics if the variant is not `Priv3`.
    pub fn unwrap_priv3(self) -> PrivNoReadInShared {
        match self {
            DirElem::Priv3(e) => e,
            other => panic!("expected Priv3 element, got {other:?}"),
        }
    }
}

/// An element-scope message arriving at the shared directory: the
/// synchronous requests carried by coherence transactions and the
/// asynchronous update/signal messages of Figs. 6–9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEvent {
    /// A read miss's directory-side test (algorithm (b)).
    ReadReq {
        /// The requesting processor.
        from: ProcId,
    },
    /// A write miss's / upgrade's directory-side test (algorithm (d)).
    WriteReq {
        /// The requesting processor.
        from: ProcId,
    },
    /// One element of a dirty victim's tag state merging into the
    /// directory (algorithm (e)).
    Writeback {
        /// The merged cache tag.
        tag: ElemTag,
        /// The evicting owner.
        owner: ProcId,
    },
    /// A `First_update` message (algorithm (f)).
    FirstUpdate {
        /// The update's sender.
        sender: ProcId,
    },
    /// An `ROnly_update` message (algorithm (h)).
    ROnlyUpdate {
        /// The update's sender.
        sender: ProcId,
    },
    /// A read-first signal or read-in request (privatization algorithms
    /// (d)/(e); `iter` is ignored by the no-read-in variant).
    ReadFirst {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A first-write signal or read-in-for-write request (privatization
    /// algorithms (i)/(j)).
    FirstWrite {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
}

/// An obligation the executor must discharge after a directory step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEmission {
    /// Bounce a `First_update_fail` back at `target` (the raced
    /// `First_update`'s sender — race case (f) begets (g)).
    SendFirstUpdateFail {
        /// The losing sender.
        target: ProcId,
    },
    /// The dependence test failed: abort the speculative execution.
    Fail(FailReason),
}

/// An element-scope event at a processor's cache tags under the
/// non-privatization protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A hit read (algorithm (a)).
    Read {
        /// The reading processor.
        reader: ProcId,
    },
    /// A hit write (algorithm (c)).
    Write {
        /// The writing processor.
        writer: ProcId,
    },
    /// The tag update completing a granted write (end of algorithm (d)).
    CompleteWrite,
    /// A `First_update_fail` bounce arriving (algorithm (g)).
    FirstUpdateFail {
        /// The bounced processor.
        target: ProcId,
    },
}

/// What a non-privatization cache-tag step asks the executor to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEmission {
    /// Send a `First_update` for this element to its home.
    SendFirstUpdate,
    /// Send an `ROnly_update` for this element to its home.
    SendROnlyUpdate,
    /// The write needs a directory transaction (upgrade, algorithm (d)).
    NeedWriteReq,
    /// The tag-side test failed: abort.
    Fail(FailReason),
}

/// An event at one element of a **private**-copy directory
/// (privatization variant, Fig. 8 algorithms (b), (c), (g), (h)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateEvent {
    /// The cache forwarded a read-first signal (hit path).
    ReadFirstSignal {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A read miss; `line_untouched` is the read-in test over the whole
    /// line.
    ReadMiss {
        /// 1-based effective iteration stamp.
        iter: u64,
        /// Whether every element of the line is still untouched.
        line_untouched: bool,
    },
    /// The cache forwarded a first-write signal (hit path).
    FirstWriteSignal {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A write miss.
    WriteMiss {
        /// 1-based effective iteration stamp.
        iter: u64,
        /// Whether every element of the line is still untouched.
        line_untouched: bool,
    },
}

/// What a private-directory step obliges the executor to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateEffect {
    /// Nothing: handled entirely locally.
    None,
    /// Forward a read-first signal to the shared directory.
    SignalReadFirst,
    /// Run the shared directory's read-first test locally (read-in).
    TestReadFirst,
    /// Forward a first-write signal to the shared directory.
    SignalFirstWrite,
    /// Run the shared directory's first-write test locally
    /// (read-in-for-write).
    TestFirstWrite,
}

/// The protocol specification: a namespace for the pure element-layer
/// steps, and — when constructed over a [`SpecScope`] — the system-layer
/// transition function the bounded model checker enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Which protocol variant the system layer models.
    pub variant: SpecVariant,
    /// The bounded scope (lines × elems × procs).
    pub scope: SpecScope,
}

impl ProtocolSpec {
    /// **The** directory transition function: one element state × one
    /// message → new element state × at most one emission. Pure: the
    /// input is taken by value and the successor returned; the executor
    /// decides where both live.
    ///
    /// # Panics
    ///
    /// Panics if the event does not apply to the element's protocol
    /// variant (e.g. a `First_update` at a privatization element) — the
    /// executor routed a message to the wrong store.
    pub fn dir_step(elem: DirElem, ev: DirEvent) -> (DirElem, Option<DirEmission>) {
        match (elem, ev) {
            (DirElem::NonPriv(mut e), DirEvent::ReadReq { from }) => {
                let em = e.on_read_req(from).err().map(DirEmission::Fail);
                (DirElem::NonPriv(e), em)
            }
            (DirElem::NonPriv(mut e), DirEvent::WriteReq { from }) => {
                let em = e.on_write_req(from).err().map(DirEmission::Fail);
                (DirElem::NonPriv(e), em)
            }
            (DirElem::NonPriv(mut e), DirEvent::Writeback { tag, owner }) => {
                let em = e.merge_writeback(tag, owner).err().map(DirEmission::Fail);
                (DirElem::NonPriv(e), em)
            }
            (DirElem::NonPriv(mut e), DirEvent::FirstUpdate { sender }) => {
                let em = match e.on_first_update(sender) {
                    Ok(FirstUpdateOutcome::Accepted) | Ok(FirstUpdateOutcome::Redundant) => None,
                    Ok(FirstUpdateOutcome::Bounced) => {
                        Some(DirEmission::SendFirstUpdateFail { target: sender })
                    }
                    Err(reason) => Some(DirEmission::Fail(reason)),
                };
                (DirElem::NonPriv(e), em)
            }
            (DirElem::NonPriv(mut e), DirEvent::ROnlyUpdate { sender }) => {
                let em = e.on_r_only_update(sender).err().map(DirEmission::Fail);
                (DirElem::NonPriv(e), em)
            }
            (DirElem::Priv(mut e), DirEvent::ReadFirst { iter }) => {
                let em = e.on_read_first(iter).err().map(DirEmission::Fail);
                (DirElem::Priv(e), em)
            }
            (DirElem::Priv(mut e), DirEvent::FirstWrite { iter }) => {
                let em = e.on_first_write(iter).err().map(DirEmission::Fail);
                (DirElem::Priv(e), em)
            }
            (DirElem::Priv3(mut e), DirEvent::ReadFirst { .. }) => {
                let em = e.on_read_first().err().map(DirEmission::Fail);
                (DirElem::Priv3(e), em)
            }
            (DirElem::Priv3(mut e), DirEvent::FirstWrite { .. }) => {
                let em = e.on_first_write().err().map(DirEmission::Fail);
                (DirElem::Priv3(e), em)
            }
            (elem, ev) => panic!("protocol spec: event {ev:?} does not apply to {elem:?}"),
        }
    }

    /// The non-privatization cache-tag transition function (algorithms
    /// (a), (c), (g) and the grant completion of (d)).
    pub fn cache_step(
        tag: ElemTag,
        dirty: bool,
        ev: CacheEvent,
    ) -> (ElemTag, Option<CacheEmission>) {
        let mut t = tag;
        let em = match ev {
            CacheEvent::Read { reader } => match nonpriv_cache_read(&mut t, dirty, reader) {
                Ok(NonPrivReadAction::NoMessage) => None,
                Ok(NonPrivReadAction::SendFirstUpdate) => Some(CacheEmission::SendFirstUpdate),
                Ok(NonPrivReadAction::SendROnlyUpdate) => Some(CacheEmission::SendROnlyUpdate),
                Err(reason) => Some(CacheEmission::Fail(reason)),
            },
            CacheEvent::Write { writer } => match nonpriv_cache_write(&mut t, dirty, writer) {
                Ok(NonPrivWriteAction::WriteNow) => None,
                Ok(NonPrivWriteAction::NeedWriteReq) => Some(CacheEmission::NeedWriteReq),
                Err(reason) => Some(CacheEmission::Fail(reason)),
            },
            CacheEvent::CompleteWrite => {
                nonpriv_complete_write(&mut t);
                None
            }
            CacheEvent::FirstUpdateFail { target } => nonpriv_on_first_update_fail(&mut t, target)
                .err()
                .map(CacheEmission::Fail),
        };
        (t, em)
    }

    /// The privatization cache-tag read step: returns the new tag and
    /// whether a read-first signal must go to the private directory.
    pub fn private_cache_read(tag: ElemTag) -> (ElemTag, bool) {
        let mut t = tag;
        let signal = priv_cache_read(&mut t) == PrivateReadOutcome::ReadFirstSignal;
        (t, signal)
    }

    /// The privatization cache-tag write step: returns the new tag and
    /// whether a first-write signal must go to the private directory.
    pub fn private_cache_write(tag: ElemTag) -> (ElemTag, bool) {
        let mut t = tag;
        let signal = priv_cache_write(&mut t) == PrivateWriteOutcome::FirstWriteSignal;
        (t, signal)
    }

    /// The private-directory transition function of the privatization
    /// variant (stamped, Fig. 8).
    pub fn private_step(
        elem: PrivPrivateElem,
        ev: PrivateEvent,
    ) -> (PrivPrivateElem, PrivateEffect) {
        let mut e = elem;
        let effect = match ev {
            PrivateEvent::ReadFirstSignal { iter } => {
                e.on_read_first_signal(iter);
                PrivateEffect::SignalReadFirst
            }
            PrivateEvent::ReadMiss {
                iter,
                line_untouched,
            } => match e.on_read_miss(iter, line_untouched) {
                PrivateReadMissOutcome::ReadIn => PrivateEffect::TestReadFirst,
                PrivateReadMissOutcome::ReadFirst => PrivateEffect::SignalReadFirst,
                PrivateReadMissOutcome::Plain => PrivateEffect::None,
            },
            PrivateEvent::FirstWriteSignal { iter } => {
                if e.on_first_write_signal(iter) {
                    PrivateEffect::SignalFirstWrite
                } else {
                    PrivateEffect::None
                }
            }
            PrivateEvent::WriteMiss {
                iter,
                line_untouched,
            } => match e.on_write_miss(iter, line_untouched) {
                PrivateWriteMissOutcome::ReadInForWrite => PrivateEffect::TestFirstWrite,
                PrivateWriteMissOutcome::NotifyShared => PrivateEffect::SignalFirstWrite,
                PrivateWriteMissOutcome::Local => PrivateEffect::None,
            },
        };
        (e, effect)
    }

    /// The private-directory transition function of the reduced
    /// no-read-in variant (Fig. 5-b bits).
    pub fn private3_step(
        elem: PrivNoReadInPrivate,
        write: bool,
    ) -> (PrivNoReadInPrivate, Result<NoReadInOutcome, FailReason>) {
        let mut e = elem;
        let r = if write { e.on_write() } else { e.on_read() };
        (e, r)
    }
}

// ---------------------------------------------------------------------
// System layer: what the model checker enumerates
// ---------------------------------------------------------------------

/// Which protocol variant the system-layer model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpecVariant {
    /// Non-privatization (Figs. 4, 6, 7).
    NonPriv,
    /// Privatization with `MaxR1st`/`MinW` stamps and read-in (Figs. 8, 9).
    Priv,
    /// Reduced no-read-in privatization (Fig. 5-b / §4.1).
    Priv3,
}

impl SpecVariant {
    /// All variants, in canonical report order.
    pub const ALL: [SpecVariant; 3] = [SpecVariant::NonPriv, SpecVariant::Priv, SpecVariant::Priv3];

    /// The variant's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            SpecVariant::NonPriv => "nonpriv",
            SpecVariant::Priv => "priv",
            SpecVariant::Priv3 => "priv3",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<SpecVariant> {
        SpecVariant::ALL.into_iter().find(|v| v.name() == s)
    }
}

/// Largest supported line count.
pub const MAX_LINES: u16 = 2;
/// Largest supported total element count.
pub const MAX_ELEMS: u16 = 3;
/// Largest supported processor count.
pub const MAX_PROCS: u16 = 4;
/// Most messages in flight at once. Each access sends at most one
/// message, and a `First_update_fail` bounce replaces the `First_update`
/// it answers, so the queue never holds more messages than accesses were
/// performed; the model checker's scripts run at most two accesses on each
/// of [`MAX_PROCS`] processors. A longer run panics on the ninth message
/// instead of growing.
pub const MAX_INFLIGHT: usize = 8;
/// Most emissions of one step: two access-site race marks, one per drained
/// in-flight message, one per merged write-back element, and one `Fail`.
const MAX_EMISSIONS: usize = 2 + MAX_INFLIGHT + MAX_ELEMS as usize + 1;

/// The emissions of one [`ProtocolSpec::step`].
pub type Emissions = InlineVec<SpecEmission, MAX_EMISSIONS>;
/// Per-processor script positions, as [`ProtocolSpec::unpack`] returns
/// them.
pub type Pcs = InlineVec<u16, { MAX_PROCS as usize }>;

/// The bounded scope of the system-layer model: `elems` array elements
/// laid out contiguously over `lines` cache lines, accessed by `procs`
/// processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecScope {
    /// Cache lines the elements are spread over.
    pub lines: u16,
    /// Total elements under test.
    pub elems: u16,
    /// Processors (= speculative iterations).
    pub procs: u16,
}

impl SpecScope {
    /// Validates the scope, returning a human-readable rejection for
    /// unsupported combinations.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid ranges when out of range.
    pub fn validate(self) -> Result<SpecScope, String> {
        let ok = (1..=MAX_LINES).contains(&self.lines)
            && (1..=MAX_ELEMS).contains(&self.elems)
            && (1..=MAX_PROCS).contains(&self.procs)
            && self.elems >= self.lines;
        if ok {
            Ok(self)
        } else {
            Err(format!(
                "unsupported scope {}x{}x{} (lines x elems x procs); valid: lines 1-{MAX_LINES}, \
                 elems lines-{MAX_ELEMS}, procs 1-{MAX_PROCS}",
                self.lines, self.elems, self.procs
            ))
        }
    }

    /// Elements per line (the last line may hold fewer).
    fn per_line(self) -> u16 {
        self.elems.div_ceil(self.lines)
    }

    /// The line holding element `elem`.
    pub fn line_of(self, elem: u16) -> u16 {
        elem / self.per_line()
    }

    /// The elements on `line`.
    pub fn line_range(self, line: u16) -> Range<u16> {
        let start = line * self.per_line();
        let end = (start + self.per_line()).min(self.elems);
        start..end
    }

    /// Index of `proc`'s copy of `line` in [`SpecState::copies`].
    pub fn copy_index(self, proc: u16, line: u16) -> usize {
        proc as usize * self.lines as usize + line as usize
    }

    /// Index of `(proc, elem)` in [`SpecState::pdir`].
    pub fn pdir_index(self, proc: u16, elem: u16) -> usize {
        proc as usize * self.elems as usize + elem as usize
    }
}

/// A processor's cached copy of one line: per-element tags plus the
/// dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCopy {
    /// Whether the copy is dirty (exclusive).
    pub dirty: bool,
    /// Per-element tags, indexed by offset within the line.
    pub tags: LineTags,
}

/// One element of a processor's private-copy directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateDirElem {
    /// Stamped private directory (priv variant), plus the sticky
    /// touched mark feeding the line-granularity read-in test.
    Priv {
        /// The `PMaxR1st`/`PMaxW` stamps.
        elem: PrivPrivateElem,
        /// Whether the element was ever read in or written.
        touched: bool,
    },
    /// Reduced no-read-in bits (priv3 variant).
    Priv3(PrivNoReadInPrivate),
}

/// An in-flight asynchronous message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight {
    /// Sending processor (for bounces: the bounce target — the home
    /// sends those, and per-processor FIFO draining never applies).
    pub src: u16,
    /// The payload.
    pub msg: FlightMsg,
}

/// Payload of an in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightMsg {
    /// Non-privatization `First_update`.
    FirstUpdate {
        /// Target element.
        elem: u16,
    },
    /// Non-privatization `ROnly_update`.
    ROnlyUpdate {
        /// Target element.
        elem: u16,
    },
    /// Non-privatization `First_update_fail` bounce.
    FirstUpdateFail {
        /// Target element.
        elem: u16,
        /// Bounced processor.
        target: u16,
    },
    /// Privatization read-first signal.
    ReadFirst {
        /// Target element.
        elem: u16,
        /// 1-based iteration stamp.
        iter: u64,
    },
    /// Privatization first-write signal.
    FirstWrite {
        /// Target element.
        elem: u16,
        /// 1-based iteration stamp.
        iter: u64,
    },
}

impl FlightMsg {
    /// The element the message is about.
    pub fn elem(self) -> u16 {
        match self {
            FlightMsg::FirstUpdate { elem }
            | FlightMsg::ROnlyUpdate { elem }
            | FlightMsg::FirstUpdateFail { elem, .. }
            | FlightMsg::ReadFirst { elem, .. }
            | FlightMsg::FirstWrite { elem, .. } => elem,
        }
    }

    /// Whether per-processor FIFO draining before a transaction applies
    /// (update/signal messages; bounces travel home → processor).
    pub fn drains(self) -> bool {
        !matches!(self, FlightMsg::FirstUpdateFail { .. })
    }
}

/// The system-layer protocol state: typed, fixed-capacity and `Copy`
/// (capacities from [`MAX_ELEMS`], [`MAX_LINES`], [`MAX_PROCS`] and
/// [`MAX_INFLIGHT`]); [`ProtocolSpec::pack`] encodes it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecState {
    /// Shared-directory state, one entry per element.
    pub dir: InlineVec<DirElem, { MAX_ELEMS as usize }>,
    /// Cached line copies, indexed `proc * lines + line`.
    pub copies: InlineVec<Option<LineCopy>, { MAX_PROCS as usize * MAX_LINES as usize }>,
    /// Private-directory state, indexed `proc * elems + elem`
    /// (empty under the non-privatization variant).
    pub pdir: InlineVec<PrivateDirElem, { MAX_PROCS as usize * MAX_ELEMS as usize }>,
    /// In-flight messages in send order.
    pub inflight: InlineVec<Flight, MAX_INFLIGHT>,
    /// Whether the speculation has FAILed (absorbing).
    pub failed: bool,
}

/// A message to the system-layer transition function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMessage {
    /// Processor `proc` performs its next access.
    Access {
        /// The accessing processor.
        proc: u16,
        /// Whether the access is a write.
        write: bool,
        /// The accessed element.
        elem: u16,
    },
    /// Deliver in-flight message `index`.
    Deliver {
        /// Index into [`SpecState::inflight`].
        index: usize,
    },
    /// Evict processor `proc`'s copy of `line`.
    Evict {
        /// The evicting processor.
        proc: u16,
        /// The displaced line.
        line: u16,
    },
}

/// Observable side effects of one system-layer step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecEmission {
    /// Race-case site `'a' + .0` was exercised (coverage accounting).
    Race(u8),
    /// The dependence test failed (the new state has `failed` set).
    Fail(FailReason),
}

impl ProtocolSpec {
    /// A system-layer spec over a validated scope.
    pub fn new(variant: SpecVariant, scope: SpecScope) -> ProtocolSpec {
        ProtocolSpec { variant, scope }
    }

    /// Processor `p`'s 1-based iteration stamp.
    pub fn stamp(proc: u16) -> u64 {
        proc as u64 + 1
    }

    /// The initial (all-clear, empty-cache) state.
    pub fn init(&self) -> SpecState {
        let elem = match self.variant {
            SpecVariant::NonPriv => DirElem::NonPriv(NonPrivDirElem::default()),
            SpecVariant::Priv => DirElem::Priv(PrivSharedElem::default()),
            SpecVariant::Priv3 => DirElem::Priv3(PrivNoReadInShared::default()),
        };
        let pdir_elem = match self.variant {
            SpecVariant::Priv => PrivateDirElem::Priv {
                elem: PrivPrivateElem::default(),
                touched: false,
            },
            _ => PrivateDirElem::Priv3(PrivNoReadInPrivate::default()),
        };
        let no_flight = Flight {
            src: 0,
            msg: FlightMsg::FirstUpdate { elem: 0 },
        };
        SpecState {
            dir: InlineVec::filled(elem, self.scope.elems as usize),
            copies: InlineVec::filled(None, self.scope.procs as usize * self.scope.lines as usize),
            pdir: InlineVec::filled(pdir_elem, self.pdir_len()),
            inflight: InlineVec::filled(no_flight, 0),
            failed: false,
        }
    }

    /// **The** system-layer transition function:
    /// `step(State, Message) -> (State, Emissions)`. Pure — see the
    /// module docs for the determinism contract.
    ///
    /// # Panics
    ///
    /// Panics on a message that is not enabled in `s` (delivery index out
    /// of range, eviction of an absent copy, element out of scope), and on
    /// a send past [`MAX_INFLIGHT`] messages.
    pub fn step(&self, s: &SpecState, m: &SpecMessage) -> (SpecState, Emissions) {
        let mut next = *s;
        let mut em = Emissions::filled(SpecEmission::Race(0), 0);
        match *m {
            SpecMessage::Access { proc, write, elem } => {
                assert!(elem < self.scope.elems, "element {elem} out of scope");
                assert!(proc < self.scope.procs, "processor {proc} out of scope");
                if !next.failed {
                    match self.variant {
                        SpecVariant::NonPriv => {
                            self.nonpriv_access(&mut next, &mut em, proc, write, elem)
                        }
                        SpecVariant::Priv => {
                            self.priv_access(&mut next, &mut em, proc, write, elem)
                        }
                        SpecVariant::Priv3 => {
                            self.priv3_access(&mut next, &mut em, proc, write, elem)
                        }
                    }
                }
            }
            SpecMessage::Deliver { index } => {
                assert!(index < next.inflight.len(), "no in-flight message {index}");
                if !next.failed {
                    self.deliver(&mut next, &mut em, index);
                }
            }
            SpecMessage::Evict { proc, line } => {
                let ci = self.scope.copy_index(proc, line);
                let copy = next.copies[ci].take().expect("evicting an absent copy");
                if !next.failed && copy.dirty && self.variant == SpecVariant::NonPriv {
                    // Dirty victims merge their tag state home (algorithm
                    // (e)); private-copy stamps are already authoritative
                    // in the private directory, so those just drop.
                    self.merge_writeback(&mut next, &mut em, &copy, proc, line);
                }
            }
        }
        (next, em)
    }

    /// Private-directory entries: one per `(proc, elem)` under the
    /// privatization variants, none under non-privatization.
    pub(crate) fn pdir_len(&self) -> usize {
        match self.variant {
            SpecVariant::NonPriv => 0,
            _ => self.scope.procs as usize * self.scope.elems as usize,
        }
    }

    fn fail(&self, s: &mut SpecState, em: &mut Emissions, reason: FailReason) {
        s.failed = true;
        em.push(SpecEmission::Fail(reason));
    }

    /// Applies a directory step to `s.dir[elem]`, translating emissions.
    fn dir_step_at(&self, s: &mut SpecState, em: &mut Emissions, elem: u16, ev: DirEvent) {
        let (next, emission) = ProtocolSpec::dir_step(s.dir[elem as usize], ev);
        s.dir[elem as usize] = next;
        match emission {
            None => {}
            Some(DirEmission::SendFirstUpdateFail { target }) => s.inflight.push(Flight {
                src: target.0 as u16,
                msg: FlightMsg::FirstUpdateFail {
                    elem,
                    target: target.0 as u16,
                },
            }),
            Some(DirEmission::Fail(reason)) => self.fail(s, em, reason),
        }
    }

    /// The dirty owner of `line`, if any.
    fn dirty_owner(&self, s: &SpecState, line: u16) -> Option<u16> {
        (0..self.scope.procs).find(|&p| {
            s.copies[self.scope.copy_index(p, line)]
                .as_ref()
                .is_some_and(|c| c.dirty)
        })
    }

    /// Merges a dirty copy of `line` into the directory (algorithm (e)).
    fn merge_writeback(
        &self,
        s: &mut SpecState,
        em: &mut Emissions,
        copy: &LineCopy,
        owner: u16,
        line: u16,
    ) {
        for (off, elem) in self.scope.line_range(line).enumerate() {
            em.push(SpecEmission::Race(4)); // (e)
            self.dir_step_at(
                s,
                em,
                elem,
                DirEvent::Writeback {
                    tag: copy.tags.get(off),
                    owner: ProcId(owner as u32),
                },
            );
            if s.failed {
                return;
            }
        }
    }

    /// Delivers `proc`'s own in-flight update/signal messages about
    /// elements of `line` in FIFO order: the executor's
    /// `drain_before_transaction` plus the per-(src, dst) in-order
    /// network guarantee. Same-line elements share a home; messages to
    /// other homes keep racing (that nondeterminism stays explored).
    fn drain_own(&self, s: &mut SpecState, em: &mut Emissions, proc: u16, line: u16) {
        while !s.failed {
            let Some(i) = s.inflight.iter().position(|f| {
                f.src == proc && f.msg.drains() && self.scope.line_of(f.msg.elem()) == line
            }) else {
                return;
            };
            self.deliver(s, em, i);
        }
    }

    /// Delivers in-flight message `i`.
    fn deliver(&self, s: &mut SpecState, em: &mut Emissions, i: usize) {
        let f = s.inflight.remove(i);
        match f.msg {
            FlightMsg::FirstUpdate { elem } => {
                em.push(SpecEmission::Race(5)); // (f)
                self.dir_step_at(
                    s,
                    em,
                    elem,
                    DirEvent::FirstUpdate {
                        sender: ProcId(f.src as u32),
                    },
                );
            }
            FlightMsg::ROnlyUpdate { elem } => {
                em.push(SpecEmission::Race(7)); // (h)
                self.dir_step_at(
                    s,
                    em,
                    elem,
                    DirEvent::ROnlyUpdate {
                        sender: ProcId(f.src as u32),
                    },
                );
            }
            FlightMsg::FirstUpdateFail { elem, target } => {
                em.push(SpecEmission::Race(6)); // (g)
                let line = self.scope.line_of(elem);
                let off = (elem - self.scope.line_range(line).start) as usize;
                let ci = self.scope.copy_index(target, line);
                if let Some(copy) = &mut s.copies[ci] {
                    let (tag, emission) = ProtocolSpec::cache_step(
                        copy.tags.get(off),
                        copy.dirty,
                        CacheEvent::FirstUpdateFail {
                            target: ProcId(target as u32),
                        },
                    );
                    *copy.tags.get_mut(off) = tag;
                    if let Some(CacheEmission::Fail(reason)) = emission {
                        self.fail(s, em, reason);
                    }
                }
                // A displaced line already reconciled via its write-back
                // merge; the bounce is dropped, as in the executor.
            }
            FlightMsg::ReadFirst { elem, iter } => {
                em.push(SpecEmission::Race(3)); // (d): delivered read-first
                self.dir_step_at(s, em, elem, DirEvent::ReadFirst { iter });
            }
            FlightMsg::FirstWrite { elem, iter } => {
                em.push(SpecEmission::Race(7)); // (h): delivered first-write
                self.dir_step_at(s, em, elem, DirEvent::FirstWrite { iter });
            }
        }
    }

    /// Projects the directory's element states into `viewer`'s line tags
    /// (the data-reply projection of Fig. 6-b/d).
    fn project(&self, s: &SpecState, line: u16, viewer: u16) -> LineTags {
        let range = self.scope.line_range(line);
        let mut tags = LineTags::cleared(range.len());
        for (off, e) in range.enumerate() {
            *tags.get_mut(off) = match s.dir[e as usize] {
                DirElem::NonPriv(d) => d.to_tag(ProcId(viewer as u32)),
                _ => unreachable!("projection is a non-privatization concept"),
            };
        }
        tags
    }

    fn nonpriv_access(
        &self,
        s: &mut SpecState,
        em: &mut Emissions,
        proc: u16,
        write: bool,
        elem: u16,
    ) {
        let line = self.scope.line_of(elem);
        let range = self.scope.line_range(line);
        let off = (elem - range.start) as usize;
        let ci = self.scope.copy_index(proc, line);
        let resident = s.copies[ci].is_some();
        match (resident, write) {
            (true, false) => {
                // Hit read — algorithm (a).
                em.push(SpecEmission::Race(0));
                let copy = s.copies[ci].as_mut().expect("resident");
                let (tag, emission) = ProtocolSpec::cache_step(
                    copy.tags.get(off),
                    copy.dirty,
                    CacheEvent::Read {
                        reader: ProcId(proc as u32),
                    },
                );
                *copy.tags.get_mut(off) = tag;
                match emission {
                    None => {}
                    Some(CacheEmission::SendFirstUpdate) => s.inflight.push(Flight {
                        src: proc,
                        msg: FlightMsg::FirstUpdate { elem },
                    }),
                    Some(CacheEmission::SendROnlyUpdate) => s.inflight.push(Flight {
                        src: proc,
                        msg: FlightMsg::ROnlyUpdate { elem },
                    }),
                    Some(CacheEmission::Fail(reason)) => self.fail(s, em, reason),
                    Some(CacheEmission::NeedWriteReq) => unreachable!("read emitted a write req"),
                }
            }
            (false, false) => {
                // Read miss — algorithm (b).
                em.push(SpecEmission::Race(1));
                self.drain_own(s, em, proc, line);
                if s.failed {
                    return;
                }
                if let Some(q) = self.dirty_owner(s, line) {
                    let copy = s.copies[self.scope.copy_index(q, line)]
                        .take()
                        .expect("owner resident");
                    self.merge_writeback(s, em, &copy, q, line);
                    if s.failed {
                        return;
                    }
                }
                self.dir_step_at(
                    s,
                    em,
                    elem,
                    DirEvent::ReadReq {
                        from: ProcId(proc as u32),
                    },
                );
                s.copies[ci] = Some(LineCopy {
                    dirty: false,
                    tags: self.project(s, line, proc),
                });
            }
            (true, true) => {
                // Hit write — algorithm (c), upgrading via (d) if clean.
                em.push(SpecEmission::Race(2));
                let copy = s.copies[ci].as_mut().expect("resident");
                let (tag, emission) = ProtocolSpec::cache_step(
                    copy.tags.get(off),
                    copy.dirty,
                    CacheEvent::Write {
                        writer: ProcId(proc as u32),
                    },
                );
                *copy.tags.get_mut(off) = tag;
                match emission {
                    None => {}
                    Some(CacheEmission::NeedWriteReq) => {
                        em.push(SpecEmission::Race(3));
                        self.drain_own(s, em, proc, line);
                        if s.failed {
                            return;
                        }
                        self.grant_write(s, em, proc, line, elem, off);
                    }
                    Some(CacheEmission::Fail(reason)) => self.fail(s, em, reason),
                    Some(CacheEmission::SendFirstUpdate) | Some(CacheEmission::SendROnlyUpdate) => {
                        unreachable!("write emitted an update")
                    }
                }
            }
            (false, true) => {
                // Write miss — algorithm (d).
                em.push(SpecEmission::Race(3));
                self.drain_own(s, em, proc, line);
                if s.failed {
                    return;
                }
                if let Some(q) = self.dirty_owner(s, line) {
                    let copy = s.copies[self.scope.copy_index(q, line)]
                        .take()
                        .expect("owner resident");
                    self.merge_writeback(s, em, &copy, q, line);
                    if s.failed {
                        return;
                    }
                }
                self.grant_write(s, em, proc, line, elem, off);
            }
        }
    }

    /// The directory grants a write of `elem`: invalidate the other
    /// sharers of its line, run the write test, install the projected
    /// tags with the write completion applied, dirty.
    fn grant_write(
        &self,
        s: &mut SpecState,
        em: &mut Emissions,
        proc: u16,
        line: u16,
        elem: u16,
        off: usize,
    ) {
        for q in 0..self.scope.procs {
            if q != proc {
                s.copies[self.scope.copy_index(q, line)] = None;
            }
        }
        self.dir_step_at(
            s,
            em,
            elem,
            DirEvent::WriteReq {
                from: ProcId(proc as u32),
            },
        );
        let mut tags = self.project(s, line, proc);
        let (tag, _) = ProtocolSpec::cache_step(tags.get(off), true, CacheEvent::CompleteWrite);
        *tags.get_mut(off) = tag;
        s.copies[self.scope.copy_index(proc, line)] = Some(LineCopy { dirty: true, tags });
    }

    /// Whether every element of `line` is untouched in `proc`'s private
    /// copy (the read-in test).
    fn line_untouched(&self, s: &SpecState, proc: u16, line: u16) -> bool {
        self.scope
            .line_range(line)
            .all(|e| match s.pdir[self.scope.pdir_index(proc, e)] {
                PrivateDirElem::Priv { touched, .. } => !touched,
                PrivateDirElem::Priv3(_) => unreachable!("read-in test under no-read-in variant"),
            })
    }

    /// Private-line refill tags reconstructed from `proc`'s private
    /// directory stamps (so refills after an eviction do not re-signal).
    fn private_project(&self, s: &SpecState, proc: u16, line: u16) -> LineTags {
        let eff = ProtocolSpec::stamp(proc);
        let range = self.scope.line_range(line);
        let mut tags = LineTags::cleared(range.len());
        for (off, e) in range.enumerate() {
            let t = tags.get_mut(off);
            match s.pdir[self.scope.pdir_index(proc, e)] {
                PrivateDirElem::Priv { elem, .. } => {
                    if elem.pmax_w == eff {
                        t.set_write(true);
                    }
                    if elem.pmax_r1st == eff {
                        t.set_read1st(true);
                    }
                }
                PrivateDirElem::Priv3(elem) => {
                    if elem.write {
                        t.set_write(true);
                    }
                    if elem.read1st {
                        t.set_read1st(true);
                    }
                }
            }
        }
        tags
    }

    /// Applies a stamped private-directory step at `(proc, elem)`.
    fn private_step_at(
        &self,
        s: &mut SpecState,
        proc: u16,
        elem: u16,
        ev: PrivateEvent,
    ) -> PrivateEffect {
        let pi = self.scope.pdir_index(proc, elem);
        let PrivateDirElem::Priv { elem: e, .. } = s.pdir[pi] else {
            unreachable!("stamped step under no-read-in variant")
        };
        let (e2, effect) = ProtocolSpec::private_step(e, ev);
        s.pdir[pi] = PrivateDirElem::Priv {
            elem: e2,
            touched: true,
        };
        effect
    }

    fn priv_access(
        &self,
        s: &mut SpecState,
        em: &mut Emissions,
        proc: u16,
        write: bool,
        elem: u16,
    ) {
        let eff = ProtocolSpec::stamp(proc);
        let line = self.scope.line_of(elem);
        let range = self.scope.line_range(line);
        let off = (elem - range.start) as usize;
        let ci = self.scope.copy_index(proc, line);
        let resident = s.copies[ci].is_some();
        match (resident, write) {
            (true, false) => {
                // Hit read — algorithm (a): signal on first read of the
                // iteration.
                em.push(SpecEmission::Race(0));
                let copy = s.copies[ci].as_mut().expect("resident");
                let (tag, signal) = ProtocolSpec::private_cache_read(copy.tags.get(off));
                *copy.tags.get_mut(off) = tag;
                if signal {
                    self.private_step_at(
                        s,
                        proc,
                        elem,
                        PrivateEvent::ReadFirstSignal { iter: eff },
                    );
                    s.inflight.push(Flight {
                        src: proc,
                        msg: FlightMsg::ReadFirst { elem, iter: eff },
                    });
                }
            }
            (false, false) => {
                // Read miss — algorithm (c): read-in / read-first / plain.
                em.push(SpecEmission::Race(1));
                let untouched = self.line_untouched(s, proc, line);
                let effect = self.private_step_at(
                    s,
                    proc,
                    elem,
                    PrivateEvent::ReadMiss {
                        iter: eff,
                        line_untouched: untouched,
                    },
                );
                s.copies[ci] = Some(LineCopy {
                    dirty: false,
                    tags: self.private_project(s, proc, line),
                });
                match effect {
                    PrivateEffect::TestReadFirst => {
                        em.push(SpecEmission::Race(2)); // (c): read-in test
                        self.drain_own(s, em, proc, line);
                        if s.failed {
                            return;
                        }
                        self.dir_step_at(s, em, elem, DirEvent::ReadFirst { iter: eff });
                    }
                    PrivateEffect::SignalReadFirst => s.inflight.push(Flight {
                        src: proc,
                        msg: FlightMsg::ReadFirst { elem, iter: eff },
                    }),
                    PrivateEffect::None => {}
                    _ => unreachable!("read miss emitted a write effect"),
                }
            }
            (true, true) => {
                // Hit write — algorithm (g), with a local upgrade if clean.
                em.push(SpecEmission::Race(4)); // (e): hit write
                let copy = s.copies[ci].as_mut().expect("resident");
                let (tag, signal) = ProtocolSpec::private_cache_write(copy.tags.get(off));
                *copy.tags.get_mut(off) = tag;
                copy.dirty = true;
                if signal {
                    let effect = self.private_step_at(
                        s,
                        proc,
                        elem,
                        PrivateEvent::FirstWriteSignal { iter: eff },
                    );
                    if effect == PrivateEffect::SignalFirstWrite {
                        s.inflight.push(Flight {
                            src: proc,
                            msg: FlightMsg::FirstWrite { elem, iter: eff },
                        });
                    }
                }
            }
            (false, true) => {
                // Write miss — algorithm (h).
                em.push(SpecEmission::Race(5)); // (f): write miss
                let untouched = self.line_untouched(s, proc, line);
                let effect = self.private_step_at(
                    s,
                    proc,
                    elem,
                    PrivateEvent::WriteMiss {
                        iter: eff,
                        line_untouched: untouched,
                    },
                );
                let mut tags = self.private_project(s, proc, line);
                tags.get_mut(off).set_write(true);
                s.copies[ci] = Some(LineCopy { dirty: true, tags });
                match effect {
                    PrivateEffect::TestFirstWrite => {
                        em.push(SpecEmission::Race(6)); // (g): read-in for write
                        self.drain_own(s, em, proc, line);
                        if s.failed {
                            return;
                        }
                        self.dir_step_at(s, em, elem, DirEvent::FirstWrite { iter: eff });
                    }
                    PrivateEffect::SignalFirstWrite => s.inflight.push(Flight {
                        src: proc,
                        msg: FlightMsg::FirstWrite { elem, iter: eff },
                    }),
                    PrivateEffect::None => {}
                    _ => unreachable!("write miss emitted a read effect"),
                }
            }
        }
    }

    fn priv3_access(
        &self,
        s: &mut SpecState,
        em: &mut Emissions,
        proc: u16,
        write: bool,
        elem: u16,
    ) {
        let line = self.scope.line_of(elem);
        let range = self.scope.line_range(line);
        let off = (elem - range.start) as usize;
        let ci = self.scope.copy_index(proc, line);
        let resident = s.copies[ci].is_some();
        let signal = if resident {
            em.push(SpecEmission::Race(if write { 4 } else { 0 })); // (e) / (a)
            let copy = s.copies[ci].as_mut().expect("resident");
            let (tag, signal) = if write {
                ProtocolSpec::private_cache_write(copy.tags.get(off))
            } else {
                ProtocolSpec::private_cache_read(copy.tags.get(off))
            };
            *copy.tags.get_mut(off) = tag;
            if write {
                copy.dirty = true;
            }
            signal
        } else {
            em.push(SpecEmission::Race(if write { 5 } else { 1 })); // (f) / (b)
            let mut tags = self.private_project(s, proc, line);
            if write {
                tags.get_mut(off).set_write(true);
            }
            s.copies[ci] = Some(LineCopy { dirty: write, tags });
            true // the private directory decides below
        };
        if signal {
            em.push(SpecEmission::Race(if write { 6 } else { 2 })); // (g) / (c)
            let pi = self.scope.pdir_index(proc, elem);
            let PrivateDirElem::Priv3(e) = s.pdir[pi] else {
                unreachable!("no-read-in step under stamped variant")
            };
            let (e2, r) = ProtocolSpec::private3_step(e, write);
            s.pdir[pi] = PrivateDirElem::Priv3(e2);
            match r {
                Ok(NoReadInOutcome::NotifyShared) => s.inflight.push(Flight {
                    src: proc,
                    msg: if write {
                        FlightMsg::FirstWrite { elem, iter: 1 }
                    } else {
                        FlightMsg::ReadFirst { elem, iter: 1 }
                    },
                }),
                Ok(NoReadInOutcome::Local) => {}
                Err(reason) => self.fail(s, em, reason),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope() -> SpecScope {
        SpecScope {
            lines: 1,
            elems: 2,
            procs: 2,
        }
    }

    #[test]
    fn dir_step_is_pure() {
        let e = DirElem::NonPriv(NonPrivDirElem::default());
        let ev = DirEvent::ReadReq { from: ProcId(1) };
        let a = ProtocolSpec::dir_step(e, ev);
        let b = ProtocolSpec::dir_step(e, ev);
        assert_eq!(a, b, "two evaluations must agree");
        assert_eq!(
            e.unwrap_nonpriv(),
            NonPrivDirElem::default(),
            "input moved, not mutated"
        );
    }

    #[test]
    fn first_update_race_bounces() {
        let mut e = NonPrivDirElem::default();
        e.on_first_update(ProcId(0)).unwrap();
        let (_, em) = ProtocolSpec::dir_step(
            DirElem::NonPriv(e),
            DirEvent::FirstUpdate { sender: ProcId(1) },
        );
        assert_eq!(
            em,
            Some(DirEmission::SendFirstUpdateFail { target: ProcId(1) })
        );
    }

    #[test]
    fn system_step_leaves_input_untouched() {
        let spec = ProtocolSpec::new(SpecVariant::NonPriv, scope());
        let s0 = spec.init();
        let snapshot = s0;
        let (s1, _) = spec.step(
            &s0,
            &SpecMessage::Access {
                proc: 0,
                write: true,
                elem: 0,
            },
        );
        assert_eq!(s0, snapshot, "step must not mutate its input");
        assert_ne!(s1, s0, "a write access must change state");
    }

    #[test]
    fn scope_validation_rejects_out_of_range() {
        assert!(SpecScope {
            lines: 3,
            elems: 3,
            procs: 2
        }
        .validate()
        .is_err());
        assert!(SpecScope {
            lines: 2,
            elems: 1,
            procs: 2
        }
        .validate()
        .is_err());
        assert!(SpecScope {
            lines: 2,
            elems: 3,
            procs: 4
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn geometry_splits_elems_over_lines() {
        let s = SpecScope {
            lines: 2,
            elems: 3,
            procs: 2,
        };
        assert_eq!(s.line_of(0), 0);
        assert_eq!(s.line_of(1), 0);
        assert_eq!(s.line_of(2), 1);
        assert_eq!(s.line_range(0), 0..2);
        assert_eq!(s.line_range(1), 2..3);
    }
}
