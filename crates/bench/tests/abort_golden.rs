//! Golden JSONL traces of one minimized abort per protocol, plus the
//! non-privatization race that bounces instead of aborting.
//!
//! The two abort fixtures were shrunk to a handful of accesses by the
//! conformance harness's shrinker; all three are pinned here as
//! observable surfaces:
//!
//! * **non-privatization, Fig. 7-f**: a `First_update` sent from a remote
//!   reader races with a local write that reaches the home directory first
//!   (`dir.NoShr` already set when the update lands) — the directory
//!   resolves the race by FAILing the speculation;
//! * **privatization, Fig. 8-e**: an earlier iteration's first-write stamps
//!   `MinW`, then a later iteration read-firsts the same element
//!   (`MaxR1st > MinW` would be required) — a flow dependence, FAIL;
//! * **no-read-in privatization, §4.1** (hand-built): a processor
//!   read-firsts an element it wrote in an earlier iteration, and its
//!   private directory's `WriteAny` bit FAILs the read on the spot;
//! * **non-privatization, Figs. 6-f/g** (hand-built, no abort): two
//!   `First_update`s for one element, the later one bounced with a
//!   `First_update_fail` — race case (f) begets (g).
//!
//! Like `trace_golden.rs`, timestamps and event order are fully
//! deterministic; regenerate deliberately with
//! `REGEN_GOLDEN=1 cargo test -p specrt-bench --test abort_golden`.

use specrt_engine::Cycles;
use specrt_ir::ArrayId;
use specrt_mem::{ElemSize, PlacementPolicy, ProcId};
use specrt_proto::{MemSystem, MemSystemConfig};
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt_trace::export::jsonl;

const A: ArrayId = ArrayId(0);
const P0: ProcId = ProcId(0);
const P1: ProcId = ProcId(1);

fn system(protocol: SpecVariant) -> MemSystem {
    let mut ms = MemSystem::new(MemSystemConfig {
        procs: 2,
        ..MemSystemConfig::default()
    });
    ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
    let mut plan = TestPlan::new();
    plan.set(A, protocol);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());
    ms.enable_event_trace(256);
    ms
}

/// The Fig. 7-f race, minimized: cpu1 (remote to the home of line 0) reads
/// element 0 (miss: the directory learns `First` synchronously), then reads
/// element 1 — a *hit* whose tag still says `First = NONE`, so a
/// `First_update` starts its slow trip home. Before it lands, cpu0 (local
/// to the home) writes element 1: the write request wins the race at the
/// directory and sets `NoShr`. The late update then arrives at a
/// write-marked element — algorithm (f) FAILs the speculation.
fn nonpriv_first_update_race() -> Vec<specrt_trace::TraceEvent> {
    let mut ms = system(SpecVariant::NonPriv);
    let mut now = Cycles(0);
    let out = ms.read(P1, A, 0, now);
    now = out.complete_at + Cycles(1);
    let out = ms.read(P1, A, 1, now);
    now = out.complete_at + Cycles(1);
    ms.write(P0, A, 1, now);
    ms.drain_all_messages();
    ms.take_event_trace()
}

/// The Fig. 8-e flow dependence, minimized: iteration 1 (cpu0) first-writes
/// element 3 (`MinW = 1`), then iteration 3 (cpu1) read-firsts it — a later
/// iteration consuming an earlier iteration's value. The shared directory's
/// read-first test (`iter > MinW`) FAILs the speculation.
fn priv_read_first_after_write() -> Vec<specrt_trace::TraceEvent> {
    let mut ms = system(SpecVariant::Priv);
    let mut now = Cycles(0);
    ms.begin_iteration(P0, 0);
    let out = ms.write(P0, A, 3, now);
    now = out.complete_at + Cycles(40);
    ms.begin_iteration(P1, 2);
    ms.read(P1, A, 3, now);
    ms.drain_all_messages();
    ms.take_event_trace()
}

/// §4.1's local test: cpu0 writes element 1 in iteration 1, which raises
/// its private `WriteAny`, and reads it first in its next iteration. The
/// line is still cached, so the hit's read-first signal reaches the
/// private directory, which FAILs at once instead of forwarding it.
fn priv3_read_first_after_own_write() -> Vec<specrt_trace::TraceEvent> {
    let mut ms = system(SpecVariant::Priv3);
    ms.begin_iteration(P0, 0);
    let now = ms.write(P0, A, 1, Cycles(0)).complete_at + Cycles(1);
    ms.begin_iteration(P0, 1);
    ms.read(P0, A, 1, now);
    ms.drain_all_messages();
    ms.take_event_trace()
}

/// Race (f) begetting (g): cpu1 and cpu0 each read-miss a different
/// element of line 0, so both hold the line with element 2 still
/// `First = NONE` in their tags. Both then hit-read element 2 and send a
/// `First_update`. The directory takes the first to arrive as `First` and
/// bounces the other with a `First_update_fail`, which marks the element
/// read-shared in the loser's tag. Nobody wrote, so the loop passes.
fn nonpriv_first_update_bounce() -> Vec<specrt_trace::TraceEvent> {
    let mut ms = system(SpecVariant::NonPriv);
    let mut now = Cycles(0);
    for (proc, idx) in [(P1, 0), (P0, 1), (P1, 2), (P0, 2)] {
        now = ms.read(proc, A, idx, now).complete_at + Cycles(1);
    }
    ms.drain_all_messages();
    assert_eq!(ms.failure(), None, "a bounced First_update does not abort");
    ms.take_event_trace()
}

fn first_abort_reason(events: &[specrt_trace::TraceEvent]) -> Option<String> {
    events.iter().find_map(|e| match e {
        specrt_trace::TraceEvent::Abort { reason, .. } => Some(reason.clone()),
        _ => None,
    })
}

fn check_golden(name: &str, got: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
    let path = format!("{dir}/{name}.jsonl");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        got,
        golden.trim_end(),
        "{name}: JSONL abort trace diverged from the golden file; if the \
         timing or schema change is intentional, regenerate with \
         REGEN_GOLDEN=1 cargo test -p specrt-bench --test abort_golden"
    );
}

#[test]
fn nonpriv_fig7f_abort_matches_golden() {
    let events = nonpriv_first_update_race();
    let reason = first_abort_reason(&events).expect("the update race must abort");
    assert!(
        reason.contains("Fig. 7-f"),
        "expected the Fig. 7-f First_update race, got: {reason}"
    );
    check_golden("abort_golden_nonpriv", &jsonl(&events));
}

#[test]
fn priv_fig8e_abort_matches_golden() {
    let events = priv_read_first_after_write();
    let reason = first_abort_reason(&events).expect("the flow dependence must abort");
    assert!(
        reason.contains("Fig. 8-e"),
        "expected the Fig. 8-e read-first-after-write failure, got: {reason}"
    );
    check_golden("abort_golden_priv", &jsonl(&events));
}

/// How many delivered messages of `kind` the trace holds.
fn messages(events: &[specrt_trace::TraceEvent], kind: &str) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, specrt_trace::TraceEvent::Message { kind: k, .. } if *k == kind))
        .count()
}

#[test]
fn priv3_local_read_first_abort_matches_golden() {
    let events = priv3_read_first_after_own_write();
    assert!(first_abort_reason(&events).is_some(), "the read must abort");
    assert_eq!(
        messages(&events, "read-first signal"),
        0,
        "the FAIL is local: no read-first signal leaves the processor"
    );
    check_golden("abort_golden_priv3", &jsonl(&events));
}

#[test]
fn nonpriv_first_update_bounce_matches_golden() {
    let events = nonpriv_first_update_bounce();
    assert_eq!(
        messages(&events, "First_update_fail"),
        1,
        "exactly one First_update is bounced"
    );
    check_golden("bounce_golden_nonpriv", &jsonl(&events));
}
