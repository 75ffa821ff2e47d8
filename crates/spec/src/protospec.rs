//! The protocol's race-case serialization logic as a **pure transition
//! function** — the one definition the simulator executes and the model
//! checker enumerates.
//!
//! Two layers:
//!
//! * the **element layer** — [`ProtocolSpec::dir_step`] (one directory
//!   element × one message → new element state × emissions), the
//!   cache-tag steps, and [`ProtocolSpec::private_dir_step`] over one
//!   [`PrivateDirElem`] of either privatization variant. They dispatch
//!   straight to the per-variant state machines of [`crate::nonpriv`],
//!   [`crate::privat`] and [`crate::privat3`], which return this module's
//!   emission types themselves, and each returns the [`RaceSite`] the
//!   step took. `specrt-proto`'s `MemSystem` *executes*
//!   these for its shared- and private-directory stores and cache tags,
//!   so the simulator and the model checker run literally the same
//!   transition code; the timing, NUMA and cache-geometry concerns stay
//!   in the executor.
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
//! copies its successor state and allocates nothing, emissions included
//! ([`ProtocolSpec::step_into`] runs the same step in caller-owned
//! buffers); it never reads clocks or ambient configuration, and its only
//! environmental input is the thread-local [`crate::fault`] injection
//! plane (itself part of the conceptual input: a deliberately-broken
//! protocol is a *different* transition function).
//! Under a fixed injection, two evaluations agree bit-for-bit; tests
//! double-evaluate `step` over the model checker's reachable state space
//! and `dir_step` on fixed inputs to enforce this.
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
    NonPrivDirElem,
};
use crate::privat::{priv_cache_read, priv_cache_write, PrivPrivateElem, PrivSharedElem};
use crate::privat3::{PrivNoReadInPrivate, PrivNoReadInShared};
use crate::site::RaceSite;
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
    /// The all-clear element of `variant` (loop start).
    pub fn new(variant: SpecVariant) -> DirElem {
        match variant {
            SpecVariant::NonPriv => DirElem::NonPriv(NonPrivDirElem::default()),
            SpecVariant::Priv => DirElem::Priv(PrivSharedElem::default()),
            SpecVariant::Priv3 => DirElem::Priv3(PrivNoReadInShared::default()),
        }
    }

    /// Compact state label for tracing (see each variant's
    /// `state_label`).
    pub fn state_label(&self) -> String {
        match self {
            DirElem::NonPriv(e) => e.state_label(),
            DirElem::Priv(e) => e.state_label(),
            DirElem::Priv3(e) => e.state_label(),
        }
    }

    /// The non-privatization data-reply projection into `viewer`'s tag
    /// view (Fig. 6-b/d: "Copy dir state to tag state").
    ///
    /// # Panics
    ///
    /// Panics on a privatization element: private copies have no
    /// directory projection.
    pub fn to_tag(&self, viewer: ProcId) -> ElemTag {
        match self {
            DirElem::NonPriv(e) => e.to_tag(viewer),
            other => panic!("projection is a non-privatization concept, got {other:?}"),
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
    /// A read-first signal arriving (privatization algorithm (d); `iter`
    /// is ignored by the no-read-in variant).
    ReadFirst {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A read-in request's read-first test (privatization algorithm (e),
    /// the same test as [`Self::ReadFirst`]).
    ReadIn {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A first-write signal arriving (privatization algorithm (i); `iter`
    /// is ignored by the no-read-in variant).
    FirstWrite {
        /// 1-based effective iteration stamp.
        iter: u64,
    },
    /// A read-in-for-write request's first-write test (privatization
    /// algorithm (j), the same test as [`Self::FirstWrite`]).
    ReadInForWrite {
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

/// An event at one element of a **private**-copy directory (Fig. 9
/// algorithms (b), (c), (g), (h)). The no-read-in variant ignores `iter`
/// and `line_untouched`: it never reads in.
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
    /// The private directory's own test failed (no-read-in variant: a
    /// read-first after an earlier iteration of the processor wrote).
    Fail(FailReason),
}

/// One element of a processor's private-copy directory, in either
/// privatization variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateDirElem {
    /// Stamped private directory (Fig. 8), plus the sticky touched mark
    /// feeding the line-granularity read-in test.
    Priv {
        /// The `PMaxR1st`/`PMaxW` stamps.
        elem: PrivPrivateElem,
        /// Whether the element was ever read in or written.
        touched: bool,
    },
    /// Reduced no-read-in bits (§4.1).
    Priv3(PrivNoReadInPrivate),
}

impl PrivateDirElem {
    /// The all-clear element of a privatization `variant` (loop start).
    ///
    /// # Panics
    ///
    /// Panics on the non-privatization variant, which has no private
    /// directory.
    pub fn new(variant: SpecVariant) -> PrivateDirElem {
        match variant {
            SpecVariant::Priv => PrivateDirElem::Priv {
                elem: PrivPrivateElem::default(),
                touched: false,
            },
            SpecVariant::Priv3 => PrivateDirElem::Priv3(PrivNoReadInPrivate::default()),
            SpecVariant::NonPriv => {
                panic!("the non-privatization variant has no private directory")
            }
        }
    }

    /// The cache tag a refill of this element's private line carries in
    /// effective iteration `eff`: `Write`/`Read1st` are set when the
    /// matching stamp equals `eff`, or when the no-read-in bit is up, so a
    /// refill after an eviction does not signal again.
    pub fn refill_tag(self, eff: u64) -> ElemTag {
        let (read1st, write) = match self {
            PrivateDirElem::Priv { elem, .. } => (elem.pmax_r1st == eff, elem.pmax_w == eff),
            PrivateDirElem::Priv3(e) => (e.read1st, e.write),
        };
        let mut tag = ElemTag::CLEAR;
        tag.set_read1st(read1st);
        tag.set_write(write);
        tag
    }

    /// Whether the element was ever read in or written: a line whose
    /// elements are all untouched is read in from the shared array.
    ///
    /// # Panics
    ///
    /// Panics on a no-read-in element, which never reads in.
    pub fn touched(self) -> bool {
        match self {
            PrivateDirElem::Priv { touched, .. } => touched,
            PrivateDirElem::Priv3(_) => panic!("read-in test under the no-read-in variant"),
        }
    }
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
    /// message → new element state × at most one emission, and the race
    /// site the event takes. Pure: the input is taken by value and the
    /// successor returned; the executor decides where both live.
    ///
    /// # Panics
    ///
    /// Panics if the event does not apply to the element's protocol
    /// variant (e.g. a `First_update` at a privatization element, or a
    /// read-in at a no-read-in element) — the executor routed a message to
    /// the wrong store.
    pub fn dir_step(mut elem: DirElem, ev: DirEvent) -> (DirElem, Option<DirEmission>, RaceSite) {
        let (tested, site) = match (&mut elem, ev) {
            (DirElem::NonPriv(e), DirEvent::FirstUpdate { sender }) => {
                let em = e.on_first_update(sender);
                return (elem, em, RaceSite::NonPrivF);
            }
            (DirElem::NonPriv(e), DirEvent::ReadReq { from }) => {
                (e.on_read_req(from), RaceSite::NonPrivB)
            }
            (DirElem::NonPriv(e), DirEvent::WriteReq { from }) => {
                (e.on_write_req(from), RaceSite::NonPrivD)
            }
            (DirElem::NonPriv(e), DirEvent::Writeback { tag, owner }) => {
                (e.merge_writeback(tag, owner), RaceSite::NonPrivE)
            }
            (DirElem::NonPriv(e), DirEvent::ROnlyUpdate { sender }) => {
                (e.on_r_only_update(sender), RaceSite::NonPrivH)
            }
            (DirElem::Priv(e), DirEvent::ReadFirst { iter }) => {
                (e.on_read_first(iter), RaceSite::PrivD)
            }
            (DirElem::Priv(e), DirEvent::ReadIn { iter }) => {
                (e.on_read_first(iter), RaceSite::PrivE)
            }
            (DirElem::Priv(e), DirEvent::FirstWrite { iter }) => {
                (e.on_first_write(iter), RaceSite::PrivI)
            }
            (DirElem::Priv(e), DirEvent::ReadInForWrite { iter }) => {
                (e.on_first_write(iter), RaceSite::PrivJ)
            }
            (DirElem::Priv3(e), DirEvent::ReadFirst { .. }) => {
                (e.on_read_first(), RaceSite::Priv3D)
            }
            (DirElem::Priv3(e), DirEvent::FirstWrite { .. }) => {
                (e.on_first_write(), RaceSite::Priv3I)
            }
            (elem, ev) => panic!("protocol spec: event {ev:?} does not apply to {elem:?}"),
        };
        (elem, tested.err().map(DirEmission::Fail), site)
    }

    /// The non-privatization cache-tag transition function (algorithms
    /// (a), (c) and (g)). A granted write completes its tag with
    /// [`nonpriv_complete_write`], which takes no decision.
    pub fn cache_step(
        mut tag: ElemTag,
        dirty: bool,
        ev: CacheEvent,
    ) -> (ElemTag, Option<CacheEmission>, RaceSite) {
        let (em, site) = match ev {
            CacheEvent::Read { reader } => (
                nonpriv_cache_read(&mut tag, dirty, reader),
                RaceSite::NonPrivA,
            ),
            CacheEvent::Write { writer } => (
                nonpriv_cache_write(&mut tag, dirty, writer),
                RaceSite::NonPrivC,
            ),
            CacheEvent::FirstUpdateFail { target } => {
                let em = nonpriv_on_first_update_fail(&mut tag, target)
                    .err()
                    .map(CacheEmission::Fail);
                (em, RaceSite::NonPrivG)
            }
        };
        (tag, em, site)
    }

    /// The privatization cache-tag step of a hit (algorithms (a) and (f),
    /// which `variant`'s private directory reads alike): returns the new
    /// tag, whether a read-first (or first-write) signal must go to the
    /// private directory, and the site.
    ///
    /// # Panics
    ///
    /// Panics under the non-privatization variant, whose tags step through
    /// [`Self::cache_step`].
    pub fn private_cache_step(
        variant: SpecVariant,
        mut tag: ElemTag,
        write: bool,
    ) -> (ElemTag, bool, RaceSite) {
        let signal = if write {
            priv_cache_write(&mut tag)
        } else {
            priv_cache_read(&mut tag)
        };
        let site = match (variant, write) {
            (SpecVariant::Priv, false) => RaceSite::PrivA,
            (SpecVariant::Priv, true) => RaceSite::PrivF,
            (SpecVariant::Priv3, false) => RaceSite::Priv3A,
            (SpecVariant::Priv3, true) => RaceSite::Priv3F,
            (SpecVariant::NonPriv, _) => panic!("private cache step under non-privatization"),
        };
        (tag, signal, site)
    }

    /// **The** private-directory transition function: one element × one
    /// event → new element × effect, and the race site the event takes.
    /// The stamped arm marks the element touched; the no-read-in arm runs
    /// the same bit test for a signal and a miss, and reports its local
    /// FAIL as [`PrivateEffect::Fail`].
    pub fn private_dir_step(
        elem: PrivateDirElem,
        ev: PrivateEvent,
    ) -> (PrivateDirElem, PrivateEffect, RaceSite) {
        match elem {
            PrivateDirElem::Priv { mut elem, .. } => {
                let (effect, site) = match ev {
                    PrivateEvent::ReadFirstSignal { iter } => {
                        (elem.on_read_first_signal(iter), RaceSite::PrivB)
                    }
                    PrivateEvent::ReadMiss {
                        iter,
                        line_untouched,
                    } => (elem.on_read_miss(iter, line_untouched), RaceSite::PrivC),
                    PrivateEvent::FirstWriteSignal { iter } => {
                        (elem.on_first_write_signal(iter), RaceSite::PrivG)
                    }
                    PrivateEvent::WriteMiss {
                        iter,
                        line_untouched,
                    } => (elem.on_write_miss(iter, line_untouched), RaceSite::PrivH),
                };
                let elem = PrivateDirElem::Priv {
                    elem,
                    touched: true,
                };
                (elem, effect, site)
            }
            PrivateDirElem::Priv3(mut e) => {
                let (write, site) = match ev {
                    PrivateEvent::ReadFirstSignal { .. } => (false, RaceSite::Priv3B),
                    PrivateEvent::ReadMiss { .. } => (false, RaceSite::Priv3C),
                    PrivateEvent::FirstWriteSignal { .. } => (true, RaceSite::Priv3G),
                    PrivateEvent::WriteMiss { .. } => (true, RaceSite::Priv3H),
                };
                let effect = if write {
                    if e.on_write() {
                        PrivateEffect::SignalFirstWrite
                    } else {
                        PrivateEffect::None
                    }
                } else {
                    match e.on_read() {
                        Ok(true) => PrivateEffect::SignalReadFirst,
                        Ok(false) => PrivateEffect::None,
                        Err(reason) => PrivateEffect::Fail(reason),
                    }
                };
                (PrivateDirElem::Priv3(e), effect, site)
            }
        }
    }
}

// ---------------------------------------------------------------------
// System layer: what the model checker enumerates
// ---------------------------------------------------------------------

/// Which speculation protocol tests an array: the selector of the
/// machine's [`TestPlan`](crate::TestPlan) and of the system-layer model
/// alike. A privatized array's copy-out follows the loop's live-out
/// arrays, not the variant.
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

    /// Whether the variant privatizes the array (`Priv` and `Priv3`).
    pub fn is_privatized(self) -> bool {
        matches!(self, SpecVariant::Priv | SpecVariant::Priv3)
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
/// Most emissions of one step: the access's two element-step sites, one
/// site per drained in-flight message, one per merged write-back element,
/// and one `Fail`.
const MAX_EMISSIONS: usize = 2 + MAX_INFLIGHT + MAX_ELEMS as usize + 1;

/// The emissions of one [`ProtocolSpec::step`].
pub type Emissions = InlineVec<SpecEmission, MAX_EMISSIONS>;
/// Per-processor script positions, as
/// [`KeyLayout::unpack`](crate::packed::KeyLayout::unpack) returns them.
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
    /// An element step took this race site (coverage accounting).
    Race(RaceSite),
    /// The dependence test failed (the new state has `failed` set).
    Fail(FailReason),
}

/// The recording path of [`ProtocolSpec::step`]. The step's helpers hold
/// a [`Successor`], which reads as a [`SpecState`] but is written only
/// through its mutators, and each mutator marks the entity it writes, so
/// no write of a step goes unrecorded.
mod successor {
    use std::ops::Deref;

    use super::{
        DirElem, Flight, LineCopy, PrivateDirElem, SpecState, MAX_ELEMS, MAX_LINES, MAX_PROCS,
    };

    // One mask bit per entry of each container.
    const _: () = assert!(
        MAX_PROCS as usize * MAX_ELEMS as usize <= 16
            && MAX_PROCS as usize * MAX_LINES as usize <= 16
    );

    /// Which entities of a [`SpecState`] one
    /// [`ProtocolSpec::step`](super::ProtocolSpec::step) wrote: bit `i` of
    /// `dir`, `copies` and `pdir` marks entry `i` of that container, and
    /// `inflight` marks any send or delivery. The failed flag is not
    /// recorded: it shares the packed header with the script positions,
    /// which the caller advances, so
    /// [`KeyLayout::repack`](crate::packed::KeyLayout::repack) always
    /// rewrites the header.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Written {
        pub(crate) dir: u16,
        pub(crate) copies: u16,
        pub(crate) pdir: u16,
        pub(crate) inflight: bool,
    }

    /// The state a step turns into its successor in place, and its record
    /// of writes.
    pub(super) struct Successor<'a> {
        state: &'a mut SpecState,
        written: Written,
    }

    impl<'a> Successor<'a> {
        /// Starts a step on `state`, which holds the parent.
        pub(super) fn new(state: &'a mut SpecState) -> Successor<'a> {
            Successor {
                state,
                written: Written::default(),
            }
        }

        pub(super) fn finish(self) -> Written {
            self.written
        }

        pub(super) fn fail(&mut self) {
            self.state.failed = true;
        }

        pub(super) fn set_dir(&mut self, elem: u16, d: DirElem) {
            self.state.dir[elem as usize] = d;
            self.written.dir |= 1 << elem;
        }

        pub(super) fn set_copy(&mut self, ci: usize, copy: LineCopy) {
            self.state.copies[ci] = Some(copy);
            self.written.copies |= 1 << ci;
        }

        /// Removes copy `ci`; only a present copy counts as written.
        pub(super) fn take_copy(&mut self, ci: usize) -> Option<LineCopy> {
            let copy = self.state.copies[ci].take();
            if copy.is_some() {
                self.written.copies |= 1 << ci;
            }
            copy
        }

        /// Copy `ci` to change in place, marked if present.
        pub(super) fn copy_mut(&mut self, ci: usize) -> Option<&mut LineCopy> {
            let copy = self.state.copies[ci].as_mut();
            if copy.is_some() {
                self.written.copies |= 1 << ci;
            }
            copy
        }

        pub(super) fn set_pdir(&mut self, pi: usize, p: PrivateDirElem) {
            self.state.pdir[pi] = p;
            self.written.pdir |= 1 << pi;
        }

        pub(super) fn push_flight(&mut self, f: Flight) {
            self.state.inflight.push(f);
            self.written.inflight = true;
        }

        pub(super) fn remove_flight(&mut self, i: usize) -> Flight {
            self.written.inflight = true;
            self.state.inflight.remove(i)
        }
    }

    impl Deref for Successor<'_> {
        type Target = SpecState;

        fn deref(&self) -> &SpecState {
            self.state
        }
    }
}

use successor::Successor;
pub use successor::Written;

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
        // Non-privatization keeps no private directory: its `pdir` is
        // empty, so the fill element is never stored.
        let pdir_elem = PrivateDirElem::new(match self.variant {
            SpecVariant::NonPriv => SpecVariant::Priv3,
            v => v,
        });
        let no_flight = Flight {
            src: 0,
            msg: FlightMsg::FirstUpdate { elem: 0 },
        };
        SpecState {
            dir: InlineVec::filled(DirElem::new(self.variant), self.scope.elems as usize),
            copies: InlineVec::filled(None, self.scope.procs as usize * self.scope.lines as usize),
            pdir: InlineVec::filled(pdir_elem, self.pdir_len()),
            inflight: InlineVec::filled(no_flight, 0),
            failed: false,
        }
    }

    /// **The** system-layer transition function:
    /// `step(State, Message) -> (State, Emissions, Written)`. Pure — see
    /// the module docs for the determinism contract. [`Written`] records
    /// every entity of the successor the step wrote, for
    /// [`KeyLayout::repack`](crate::packed::KeyLayout::repack). The
    /// by-value form of [`Self::step_into`]: one copy of `s`, then the
    /// step in place.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::step_into`] does.
    pub fn step(&self, s: &SpecState, m: &SpecMessage) -> (SpecState, Emissions, Written) {
        let mut next = *s;
        let mut em = Emissions::filled(SpecEmission::Race(RaceSite::ALL[0]), 0);
        let written = self.step_into(m, &mut next, &mut em);
        (next, em, written)
    }

    /// [`Self::step`] in place: `next` holds the parent on entry and the
    /// successor on return, `em` is cleared and then holds the step's
    /// emissions, and the returned [`Written`] marks every entity of
    /// `next` the step wrote. Every write goes through `Successor`'s
    /// marking mutators, exactly as in `step`, so the model checker
    /// steps one reused buffer per successor instead of returning states
    /// by value.
    ///
    /// # Panics
    ///
    /// Panics on a message that is not enabled in `next` (delivery index
    /// out of range, eviction of an absent copy, element out of scope),
    /// and on a send past [`MAX_INFLIGHT`] messages.
    pub fn step_into(&self, m: &SpecMessage, next: &mut SpecState, em: &mut Emissions) -> Written {
        em.clear();
        let mut next = Successor::new(next);
        match *m {
            SpecMessage::Access { proc, write, elem } => {
                assert!(elem < self.scope.elems, "element {elem} out of scope");
                assert!(proc < self.scope.procs, "processor {proc} out of scope");
                if !next.failed {
                    match self.variant {
                        SpecVariant::NonPriv => {
                            self.nonpriv_access(&mut next, em, proc, write, elem)
                        }
                        SpecVariant::Priv => self.priv_access(&mut next, em, proc, write, elem),
                        SpecVariant::Priv3 => self.priv3_access(&mut next, em, proc, write, elem),
                    }
                }
            }
            SpecMessage::Deliver { index } => {
                assert!(index < next.inflight.len(), "no in-flight message {index}");
                if !next.failed {
                    self.deliver(&mut next, em, index);
                }
            }
            SpecMessage::Evict { proc, line } => {
                let ci = self.scope.copy_index(proc, line);
                let copy = next.take_copy(ci).expect("evicting an absent copy");
                if !next.failed && copy.dirty && self.variant == SpecVariant::NonPriv {
                    // Dirty victims merge their tag state home (algorithm
                    // (e)); private-copy stamps are already authoritative
                    // in the private directory, so those just drop.
                    self.merge_writeback(&mut next, em, &copy, proc, line);
                }
            }
        }
        next.finish()
    }

    /// Private-directory entries: one per `(proc, elem)` under the
    /// privatization variants, none under non-privatization.
    pub(crate) fn pdir_len(&self) -> usize {
        match self.variant {
            SpecVariant::NonPriv => 0,
            _ => self.scope.procs as usize * self.scope.elems as usize,
        }
    }

    fn fail(&self, s: &mut Successor, em: &mut Emissions, reason: FailReason) {
        s.fail();
        em.push(SpecEmission::Fail(reason));
    }

    /// Applies a directory step to `s.dir[elem]`, emitting its site and
    /// translating its emission.
    fn dir_step_at(&self, s: &mut Successor, em: &mut Emissions, elem: u16, ev: DirEvent) {
        let (next, emission, site) = ProtocolSpec::dir_step(s.dir[elem as usize], ev);
        s.set_dir(elem, next);
        em.push(SpecEmission::Race(site));
        match emission {
            None => {}
            Some(DirEmission::SendFirstUpdateFail { target }) => s.push_flight(Flight {
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
        s: &mut Successor,
        em: &mut Emissions,
        copy: &LineCopy,
        owner: u16,
        line: u16,
    ) {
        for (off, elem) in self.scope.line_range(line).enumerate() {
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
    fn drain_own(&self, s: &mut Successor, em: &mut Emissions, proc: u16, line: u16) {
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
    fn deliver(&self, s: &mut Successor, em: &mut Emissions, i: usize) {
        let f = s.remove_flight(i);
        let sender = ProcId(f.src as u32);
        let (elem, ev) = match f.msg {
            FlightMsg::FirstUpdate { elem } => (elem, DirEvent::FirstUpdate { sender }),
            FlightMsg::ROnlyUpdate { elem } => (elem, DirEvent::ROnlyUpdate { sender }),
            FlightMsg::ReadFirst { elem, iter } => (elem, DirEvent::ReadFirst { iter }),
            FlightMsg::FirstWrite { elem, iter } => (elem, DirEvent::FirstWrite { iter }),
            FlightMsg::FirstUpdateFail { elem, target } => {
                let line = self.scope.line_of(elem);
                let off = (elem - self.scope.line_range(line).start) as usize;
                let ci = self.scope.copy_index(target, line);
                let ev = CacheEvent::FirstUpdateFail {
                    target: ProcId(target as u32),
                };
                // A displaced line already reconciled via its write-back
                // merge; the bounce is dropped, as in the executor.
                let step = |t, dirty| ProtocolSpec::cache_step(t, dirty, ev);
                if let Some(Some(CacheEmission::Fail(reason))) =
                    Self::tag_step_at(s, em, ci, off, step)
                {
                    self.fail(s, em, reason);
                }
                return;
            }
        };
        self.dir_step_at(s, em, elem, ev);
    }

    /// Projects the directory's element states into `viewer`'s line tags
    /// (the data-reply projection of Fig. 6-b/d).
    fn project(&self, s: &SpecState, line: u16, viewer: u16) -> LineTags {
        let range = self.scope.line_range(line);
        let mut tags = LineTags::cleared(range.len());
        for (off, e) in range.enumerate() {
            *tags.get_mut(off) = s.dir[e as usize].to_tag(ProcId(viewer as u32));
        }
        tags
    }

    fn nonpriv_access(
        &self,
        s: &mut Successor,
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
                let ev = CacheEvent::Read {
                    reader: ProcId(proc as u32),
                };
                let step = |t, dirty| ProtocolSpec::cache_step(t, dirty, ev);
                match Self::tag_step_at(s, em, ci, off, step).expect("resident") {
                    None => {}
                    Some(CacheEmission::SendFirstUpdate) => s.push_flight(Flight {
                        src: proc,
                        msg: FlightMsg::FirstUpdate { elem },
                    }),
                    Some(CacheEmission::SendROnlyUpdate) => s.push_flight(Flight {
                        src: proc,
                        msg: FlightMsg::ROnlyUpdate { elem },
                    }),
                    Some(CacheEmission::Fail(reason)) => self.fail(s, em, reason),
                    Some(CacheEmission::NeedWriteReq) => unreachable!("read emitted a write req"),
                }
            }
            (false, false) => {
                // Read miss — algorithm (b).
                self.drain_own(s, em, proc, line);
                if s.failed {
                    return;
                }
                if let Some(q) = self.dirty_owner(s, line) {
                    let copy = s
                        .take_copy(self.scope.copy_index(q, line))
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
                let tags = self.project(s, line, proc);
                s.set_copy(ci, LineCopy { dirty: false, tags });
            }
            (true, true) => {
                // Hit write — algorithm (c), upgrading via (d) if clean.
                let ev = CacheEvent::Write {
                    writer: ProcId(proc as u32),
                };
                let step = |t, dirty| ProtocolSpec::cache_step(t, dirty, ev);
                match Self::tag_step_at(s, em, ci, off, step).expect("resident") {
                    None => {}
                    Some(CacheEmission::NeedWriteReq) => {
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
                self.drain_own(s, em, proc, line);
                if s.failed {
                    return;
                }
                if let Some(q) = self.dirty_owner(s, line) {
                    let copy = s
                        .take_copy(self.scope.copy_index(q, line))
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
        s: &mut Successor,
        em: &mut Emissions,
        proc: u16,
        line: u16,
        elem: u16,
        off: usize,
    ) {
        for q in 0..self.scope.procs {
            if q != proc {
                s.take_copy(self.scope.copy_index(q, line));
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
        nonpriv_complete_write(tags.get_mut(off));
        let ci = self.scope.copy_index(proc, line);
        s.set_copy(ci, LineCopy { dirty: true, tags });
    }

    /// Whether every element of `line` is untouched in `proc`'s private
    /// copy (the read-in test).
    fn line_untouched(&self, s: &SpecState, proc: u16, line: u16) -> bool {
        self.scope
            .line_range(line)
            .all(|e| !s.pdir[self.scope.pdir_index(proc, e)].touched())
    }

    /// Private-line refill tags reconstructed from `proc`'s private
    /// directory (so refills after an eviction do not re-signal).
    fn private_project(&self, s: &SpecState, proc: u16, line: u16) -> LineTags {
        let eff = ProtocolSpec::stamp(proc);
        let range = self.scope.line_range(line);
        let mut tags = LineTags::cleared(range.len());
        for (off, e) in range.enumerate() {
            *tags.get_mut(off) = s.pdir[self.scope.pdir_index(proc, e)].refill_tag(eff);
        }
        tags
    }

    /// Applies a private-directory step at `(proc, elem)`, emitting its
    /// site.
    fn private_step_at(
        &self,
        s: &mut Successor,
        em: &mut Emissions,
        proc: u16,
        elem: u16,
        ev: PrivateEvent,
    ) -> PrivateEffect {
        let pi = self.scope.pdir_index(proc, elem);
        let (next, effect, site) = ProtocolSpec::private_dir_step(s.pdir[pi], ev);
        s.set_pdir(pi, next);
        em.push(SpecEmission::Race(site));
        effect
    }

    /// Runs a cache-tag step (`step` of the tag and the copy's dirty bit)
    /// on the tag at `off` of copy `ci`, emitting its site; `None` when
    /// the copy is absent.
    fn tag_step_at<T>(
        s: &mut Successor,
        em: &mut Emissions,
        ci: usize,
        off: usize,
        step: impl FnOnce(ElemTag, bool) -> (ElemTag, T, RaceSite),
    ) -> Option<T> {
        let copy = s.copy_mut(ci)?;
        let (tag, out, site) = step(copy.tags.get(off), copy.dirty);
        *copy.tags.get_mut(off) = tag;
        em.push(SpecEmission::Race(site));
        Some(out)
    }

    /// Steps the tag at `off` of the resident private copy `ci` through a
    /// hit (dirtying the copy on a write), emitting the site; returns
    /// whether the private directory must be signalled.
    fn private_hit(
        &self,
        s: &mut Successor,
        em: &mut Emissions,
        ci: usize,
        off: usize,
        write: bool,
    ) -> bool {
        let step = |t, _| ProtocolSpec::private_cache_step(self.variant, t, write);
        let signal = Self::tag_step_at(s, em, ci, off, step).expect("resident");
        if write {
            s.copy_mut(ci).expect("resident").dirty = true;
        }
        signal
    }

    fn priv_access(
        &self,
        s: &mut Successor,
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
                if self.private_hit(s, em, ci, off, false) {
                    self.private_step_at(
                        s,
                        em,
                        proc,
                        elem,
                        PrivateEvent::ReadFirstSignal { iter: eff },
                    );
                    s.push_flight(Flight {
                        src: proc,
                        msg: FlightMsg::ReadFirst { elem, iter: eff },
                    });
                }
            }
            (false, false) => {
                // Read miss — algorithm (c): read-in / read-first / plain.
                let untouched = self.line_untouched(s, proc, line);
                let effect = self.private_step_at(
                    s,
                    em,
                    proc,
                    elem,
                    PrivateEvent::ReadMiss {
                        iter: eff,
                        line_untouched: untouched,
                    },
                );
                let tags = self.private_project(s, proc, line);
                s.set_copy(ci, LineCopy { dirty: false, tags });
                match effect {
                    PrivateEffect::TestReadFirst => {
                        self.drain_own(s, em, proc, line);
                        if s.failed {
                            return;
                        }
                        self.dir_step_at(s, em, elem, DirEvent::ReadIn { iter: eff });
                    }
                    PrivateEffect::SignalReadFirst => s.push_flight(Flight {
                        src: proc,
                        msg: FlightMsg::ReadFirst { elem, iter: eff },
                    }),
                    PrivateEffect::None => {}
                    _ => unreachable!("read miss emitted a write effect"),
                }
            }
            (true, true) => {
                // Hit write — algorithm (f), with a local upgrade if clean.
                if self.private_hit(s, em, ci, off, true) {
                    let effect = self.private_step_at(
                        s,
                        em,
                        proc,
                        elem,
                        PrivateEvent::FirstWriteSignal { iter: eff },
                    );
                    if effect == PrivateEffect::SignalFirstWrite {
                        s.push_flight(Flight {
                            src: proc,
                            msg: FlightMsg::FirstWrite { elem, iter: eff },
                        });
                    }
                }
            }
            (false, true) => {
                // Write miss — algorithm (h).
                let untouched = self.line_untouched(s, proc, line);
                let effect = self.private_step_at(
                    s,
                    em,
                    proc,
                    elem,
                    PrivateEvent::WriteMiss {
                        iter: eff,
                        line_untouched: untouched,
                    },
                );
                let mut tags = self.private_project(s, proc, line);
                tags.get_mut(off).set_write(true);
                s.set_copy(ci, LineCopy { dirty: true, tags });
                match effect {
                    PrivateEffect::TestFirstWrite => {
                        self.drain_own(s, em, proc, line);
                        if s.failed {
                            return;
                        }
                        self.dir_step_at(s, em, elem, DirEvent::ReadInForWrite { iter: eff });
                    }
                    PrivateEffect::SignalFirstWrite => s.push_flight(Flight {
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
        s: &mut Successor,
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
            self.private_hit(s, em, ci, off, write)
        } else {
            let mut tags = self.private_project(s, proc, line);
            if write {
                tags.get_mut(off).set_write(true);
            }
            s.set_copy(ci, LineCopy { dirty: write, tags });
            true // the private directory decides below
        };
        if signal {
            let iter = ProtocolSpec::stamp(proc);
            let line_untouched = false;
            let ev = match (write, resident) {
                (false, true) => PrivateEvent::ReadFirstSignal { iter },
                (false, false) => PrivateEvent::ReadMiss {
                    iter,
                    line_untouched,
                },
                (true, true) => PrivateEvent::FirstWriteSignal { iter },
                (true, false) => PrivateEvent::WriteMiss {
                    iter,
                    line_untouched,
                },
            };
            // The shared directory's no-read-in test ignores stamps; the
            // signals carry 1.
            let msg = match self.private_step_at(s, em, proc, elem, ev) {
                PrivateEffect::None => return,
                PrivateEffect::SignalReadFirst => FlightMsg::ReadFirst { elem, iter: 1 },
                PrivateEffect::SignalFirstWrite => FlightMsg::FirstWrite { elem, iter: 1 },
                PrivateEffect::Fail(reason) => return self.fail(s, em, reason),
                effect => unreachable!("no-read-in signal produced {effect:?}"),
            };
            s.push_flight(Flight { src: proc, msg });
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
            e,
            DirElem::new(SpecVariant::NonPriv),
            "input copied, not mutated"
        );
    }

    #[test]
    fn first_update_race_bounces() {
        let mut e = NonPrivDirElem::default();
        e.on_first_update(ProcId(0));
        let (_, em, site) = ProtocolSpec::dir_step(
            DirElem::NonPriv(e),
            DirEvent::FirstUpdate { sender: ProcId(1) },
        );
        assert_eq!(
            em,
            Some(DirEmission::SendFirstUpdateFail { target: ProcId(1) })
        );
        assert_eq!(site, RaceSite::NonPrivF);
    }

    #[test]
    fn signals_and_read_ins_share_a_test_but_not_a_site() {
        // Fig. 9 (d)/(e) and (i)/(j): one stamp test each, two letters.
        let mut e = PrivSharedElem::default();
        e.on_first_write(3).unwrap();
        let elem = DirElem::Priv(e);
        let pairs = [
            (
                DirEvent::ReadFirst { iter: 5 },
                DirEvent::ReadIn { iter: 5 },
            ),
            (
                DirEvent::FirstWrite { iter: 2 },
                DirEvent::ReadInForWrite { iter: 2 },
            ),
        ];
        let mut sites = Vec::new();
        for (signal, read_in) in pairs {
            let (a, a_em, a_site) = ProtocolSpec::dir_step(elem, signal);
            let (b, b_em, b_site) = ProtocolSpec::dir_step(elem, read_in);
            assert_eq!((a, a_em), (b, b_em));
            sites.extend([a_site, b_site]);
        }
        let want = [
            RaceSite::PrivD,
            RaceSite::PrivE,
            RaceSite::PrivI,
            RaceSite::PrivJ,
        ];
        assert_eq!(sites, want);
    }

    #[test]
    fn private_dir_step_runs_both_variants() {
        // Stamped: every step marks the element touched.
        let fresh = PrivateDirElem::new(SpecVariant::Priv);
        assert!(!fresh.touched());
        let ev = PrivateEvent::WriteMiss {
            iter: 2,
            line_untouched: true,
        };
        let (e, effect, site) = ProtocolSpec::private_dir_step(fresh, ev);
        assert_eq!(
            (effect, site),
            (PrivateEffect::TestFirstWrite, RaceSite::PrivH)
        );
        assert!(e.touched());
        assert!(e.refill_tag(2).write() && !e.refill_tag(3).write());

        // No-read-in: signals only, and the local FAIL is an effect.
        let (read, write) = (
            PrivateEvent::ReadFirstSignal { iter: 1 },
            PrivateEvent::FirstWriteSignal { iter: 1 },
        );
        let (e, effect, site) =
            ProtocolSpec::private_dir_step(PrivateDirElem::new(SpecVariant::Priv3), write);
        assert_eq!(
            (effect, site),
            (PrivateEffect::SignalFirstWrite, RaceSite::Priv3G)
        );
        assert!(e.refill_tag(7).write(), "no-read-in bits ignore stamps");
        assert_eq!(
            ProtocolSpec::private_dir_step(e, write).1,
            PrivateEffect::None
        );
        let PrivateDirElem::Priv3(mut bits) = e else {
            unreachable!()
        };
        bits.clear_iteration();
        assert!(matches!(
            ProtocolSpec::private_dir_step(PrivateDirElem::Priv3(bits), read).1,
            PrivateEffect::Fail(FailReason::ReadFirstAfterWrite { .. })
        ));
    }

    #[test]
    fn no_read_in_misses_run_the_signal_test_under_their_own_site() {
        // Fig. 9 (c) and (h) on §4.1's bits: a miss never reads in, and
        // steps the bits exactly as the hit's signal does.
        let fresh = PrivateDirElem::new(SpecVariant::Priv3);
        let cases = [
            (
                PrivateEvent::ReadFirstSignal { iter: 1 },
                PrivateEvent::ReadMiss {
                    iter: 1,
                    line_untouched: true,
                },
                RaceSite::Priv3C,
            ),
            (
                PrivateEvent::FirstWriteSignal { iter: 1 },
                PrivateEvent::WriteMiss {
                    iter: 1,
                    line_untouched: true,
                },
                RaceSite::Priv3H,
            ),
        ];
        for (signal, miss, site) in cases {
            let (a, a_effect, _) = ProtocolSpec::private_dir_step(fresh, signal);
            let (b, b_effect, b_site) = ProtocolSpec::private_dir_step(fresh, miss);
            assert_eq!((a, a_effect, site), (b, b_effect, b_site));
        }
    }

    #[test]
    fn system_step_leaves_input_untouched() {
        let spec = ProtocolSpec::new(SpecVariant::NonPriv, scope());
        let s0 = spec.init();
        let snapshot = s0;
        let (s1, _, _) = spec.step(
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
