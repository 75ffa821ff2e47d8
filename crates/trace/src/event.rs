//! The structured event schema.
//!
//! Events use raw `u32`/`u64` identifiers for processors, arrays and nodes
//! so that this crate sits below the memory/protocol layers in the
//! dependency graph (it depends only on `specrt-engine`); the emitting
//! layer converts its typed ids at the (already traced, therefore cold)
//! emission site.

use std::fmt;

use specrt_engine::Cycles;

/// Where an access hit in the issuing processor's cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// Primary-cache hit.
    L1,
    /// Secondary-cache hit.
    L2,
    /// Miss; the line was fetched from its home node.
    Miss,
}

impl HitKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            HitKind::L1 => "l1",
            HitKind::L2 => "l2",
            HitKind::Miss => "miss",
        }
    }
}

/// One structured observation of the simulated machine.
///
/// All times are simulated [`Cycles`]; `proc` doubles as the node id (the
/// machine is one processor per node, §5).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A protocol transaction: a load/store entered `MemSystem::read`/
    /// `write` and completed at `complete`.
    Transaction {
        /// Issue time.
        at: Cycles,
        /// Issuing processor.
        proc: u32,
        /// Array accessed.
        arr: u32,
        /// Element index.
        idx: u64,
        /// Store (true) or load.
        write: bool,
        /// Cache level the access hit at.
        hit: HitKind,
        /// Home node of the element.
        home: u32,
        /// Cycles the transaction waited for its home directory bank.
        queue: Cycles,
        /// Completion time.
        complete: Cycles,
        /// The label of the first race site the access took itself
        /// (`specrt_spec::RaceSite::label`): `a`–`h` for Figs. 6–7, `9a`–`9j`
        /// for Fig. 9, `4.1a`… for the no-read-in variant of §4.1. A message
        /// the access drains first never names it; a miss that merges a
        /// dirty owner's line names that write-back merge (`e`). `None` on
        /// arrays outside the speculation test.
        case: Option<&'static str>,
    },
    /// A per-element speculative state transition observed at the
    /// directory: `NoShr`/`ROnly`/`First` movement for the
    /// non-privatization protocol, `MaxR1st`/`MinW` stamp movement for the
    /// privatization protocol.
    SpecTransition {
        /// Observation time.
        at: Cycles,
        /// Processor whose access caused the transition.
        proc: u32,
        /// Array under test.
        arr: u32,
        /// Element index.
        idx: u64,
        /// Protocol family label (`nonpriv`, `priv`, `priv-noreadin`).
        protocol: &'static str,
        /// State before the access, e.g. `Clear` or `MaxR1st=2,MinW=inf`.
        from: String,
        /// State after the access.
        to: String,
        /// Effective iteration stamp of the access, when stamped.
        iter: Option<u64>,
    },
    /// An asynchronous access-bit message was delivered at its home.
    Message {
        /// Delivery time.
        at: Cycles,
        /// Message kind (`First_update`, `ROnly_update`, …).
        kind: &'static str,
        /// Array the message concerns.
        arr: u32,
        /// Element index.
        idx: u64,
    },
    /// The interconnect routed a message (opt-in: emitted only when the
    /// memory system's network tracing is enabled, since protocol-heavy
    /// runs route thousands of messages).
    Net {
        /// Send time.
        at: Cycles,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Links crossed.
        hops: u32,
        /// Cycles spent queued on links (beyond the unloaded transit).
        queue: Cycles,
        /// Total transit time (delivery − send).
        transit: Cycles,
    },
    /// The scheduler dispatched work to a processor.
    Sched {
        /// Dispatch time.
        at: Cycles,
        /// Processor receiving the work.
        proc: u32,
        /// First global iteration of the dispatched chunk.
        iter: u64,
        /// Scheduling-policy label (`static`, `dynamic`, …).
        policy: &'static str,
        /// Dispatch overhead charged.
        overhead: Cycles,
        /// Idle wait before the work became available.
        wait: Cycles,
    },
    /// The interconnect's fault plane perturbed a message in transit
    /// (dropped, duplicated, or delayed it).
    Fault {
        /// Send time of the affected message.
        at: Cycles,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// What happened (`drop`, `duplicate`, `delay`).
        kind: &'static str,
        /// Which transmission the decision applied to (0 = original send,
        /// n = n-th retransmission).
        attempt: u32,
    },
    /// A node-level fault (crash, pause, or partition) swallowed a
    /// message: the interconnect force-dropped it because a whole node —
    /// not a single message — is out of the conversation.
    NodeFault {
        /// Send time of the swallowed message.
        at: Cycles,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// The node the sender will suspect if retries stay swallowed.
        node: u32,
        /// Fault shape (`crash`, `pause`, `partition`).
        kind: &'static str,
        /// Which transmission was swallowed (0 = original send).
        attempt: u32,
    },
    /// The machine exercised a recovery path after a speculation failure:
    /// a speculative retry, or the paper's serial re-execution safety net.
    Recovery {
        /// When recovery began.
        at: Cycles,
        /// Recovery action (`retry-speculative`, `checkpoint-restart`,
        /// `serial-reexec`).
        action: &'static str,
        /// Attempt number (1-based across retries; serial fallback carries
        /// the attempt count that preceded it).
        attempt: u32,
    },
    /// Abort forensics: the speculation FAILed.
    Abort {
        /// Detection time.
        at: Cycles,
        /// Processor whose access or message exposed the failure.
        proc: Option<u32>,
        /// Array involved, when the failing site knew it.
        arr: Option<u32>,
        /// Element index involved.
        idx: Option<u64>,
        /// Effective iteration stamp at the failing site.
        iter: Option<u64>,
        /// Machine-readable `FailReason` label.
        label: &'static str,
        /// Human-readable single-line rendering of the `FailReason`.
        reason: String,
    },
}

impl TraceEvent {
    /// Time the event was observed.
    pub fn at(&self) -> Cycles {
        match self {
            TraceEvent::Transaction { at, .. }
            | TraceEvent::SpecTransition { at, .. }
            | TraceEvent::Message { at, .. }
            | TraceEvent::Net { at, .. }
            | TraceEvent::Sched { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::NodeFault { at, .. }
            | TraceEvent::Recovery { at, .. }
            | TraceEvent::Abort { at, .. } => *at,
        }
    }

    /// Stable kind label used by the exporters (`txn`, `spec`, `msg`,
    /// `net`, `sched`, `fault`, `nodefault`, `recovery`, `abort`).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Transaction { .. } => "txn",
            TraceEvent::SpecTransition { .. } => "spec",
            TraceEvent::Message { .. } => "msg",
            TraceEvent::Net { .. } => "net",
            TraceEvent::Sched { .. } => "sched",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::NodeFault { .. } => "nodefault",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Abort { .. } => "abort",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Transaction {
                at,
                proc,
                arr,
                idx,
                write,
                hit,
                home,
                queue,
                complete,
                case,
            } => write!(
                f,
                "t={:<8} cpu{proc} {} arr{arr}[{idx}] {} home=n{home} queue={} (done {}){}",
                at.raw(),
                if *write { "store" } else { "load " },
                hit.label(),
                queue.raw(),
                complete.raw(),
                case.map(|c| format!(" case=({c})")).unwrap_or_default(),
            ),
            TraceEvent::SpecTransition {
                at,
                proc,
                arr,
                idx,
                protocol,
                from,
                to,
                iter,
            } => write!(
                f,
                "t={:<8} cpu{proc} {protocol} arr{arr}[{idx}] {from} -> {to}{}",
                at.raw(),
                iter.map(|i| format!(" @iter {i}")).unwrap_or_default(),
            ),
            TraceEvent::Message { at, kind, arr, idx } => {
                write!(f, "t={:<8} dir   {kind} for arr{arr}[{idx}]", at.raw())
            }
            TraceEvent::Net {
                at,
                src,
                dst,
                hops,
                queue,
                transit,
            } => write!(
                f,
                "t={:<8} net   n{src}->n{dst} hops={hops} queue={} transit={}",
                at.raw(),
                queue.raw(),
                transit.raw(),
            ),
            TraceEvent::Sched {
                at,
                proc,
                iter,
                policy,
                overhead,
                wait,
            } => write!(
                f,
                "t={:<8} cpu{proc} sched[{policy}] iter {iter} (overhead {} wait {})",
                at.raw(),
                overhead.raw(),
                wait.raw(),
            ),
            TraceEvent::Fault {
                at,
                src,
                dst,
                kind,
                attempt,
            } => write!(
                f,
                "t={:<8} FAULT n{src}->n{dst} {kind} (attempt {attempt})",
                at.raw(),
            ),
            TraceEvent::NodeFault {
                at,
                src,
                dst,
                node,
                kind,
                attempt,
            } => write!(
                f,
                "t={:<8} NFLT  n{src}->n{dst} {kind} n{node} (attempt {attempt})",
                at.raw(),
            ),
            TraceEvent::Recovery {
                at,
                action,
                attempt,
            } => write!(f, "t={:<8} RECOV {action} (attempt {attempt})", at.raw(),),
            TraceEvent::Abort {
                at,
                proc,
                arr,
                idx,
                iter,
                reason,
                ..
            } => write!(
                f,
                "t={:<8} FAIL  {reason}{}{}{}",
                at.raw(),
                proc.map(|p| format!(" cpu{p}")).unwrap_or_default(),
                match (arr, idx) {
                    (Some(a), Some(i)) => format!(" arr{a}[{i}]"),
                    _ => String::new(),
                },
                iter.map(|i| format!(" iter {i}")).unwrap_or_default(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_times_are_stable() {
        let e = TraceEvent::Message {
            at: Cycles(42),
            kind: "First_update",
            arr: 1,
            idx: 3,
        };
        assert_eq!(e.kind(), "msg");
        assert_eq!(e.at(), Cycles(42));
        assert!(e.to_string().contains("First_update"));
    }

    #[test]
    fn hit_labels_distinct() {
        let mut labels = [HitKind::L1, HitKind::L2, HitKind::Miss].map(|h| h.label());
        labels.sort_unstable();
        let n = labels.len();
        labels.to_vec().dedup();
        assert_eq!(labels.len(), n);
    }
}
