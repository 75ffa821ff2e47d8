//! Golden test: the JSONL export of a tiny deterministic protocol replay.
//!
//! The scenario is the paper's Figure 2 loop on two processors (the same
//! replay as `examples/protocol_trace.rs`, shortened): every latency in
//! the model is deterministic, so the emitted event stream — timestamps,
//! hit levels, race cases, the FAIL — is bit-stable. If this test breaks,
//! either the protocol timing or the trace schema changed; both are
//! observable surfaces that downstream tooling (Perfetto imports, log
//! scrapers) depends on, so the change must be deliberate.

use specrt_engine::Cycles;
use specrt_ir::ArrayId;
use specrt_mem::{ElemSize, PlacementPolicy, ProcId};
use specrt_proto::{MemSystem, MemSystemConfig};
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt_trace::export::jsonl;

const A: ArrayId = ArrayId(0);

/// Replays the first four iterations of Figure 2 (K = [1,2,3,4],
/// L = [2,2,4,4], B1 = [T,F,T,F]) with iterations 1..=3 on cpu0 and 4 on
/// cpu1; iteration 4 reads element 4, which iteration 3 wrote — a true
/// cross-processor flow dependence the protocol must FAIL on.
fn replay() -> Vec<specrt_trace::TraceEvent> {
    let mut ms = MemSystem::new(MemSystemConfig {
        procs: 2,
        ..MemSystemConfig::default()
    });
    ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());
    ms.enable_event_trace(256);

    let k = [1u64, 2, 3, 4];
    let l = [2u64, 2, 4, 4];
    let b1 = [true, false, true, false];
    let mut now = Cycles(0);
    for i in 0..4 {
        let proc = ProcId(if i < 3 { 0 } else { 1 });
        let out = ms.read(proc, A, k[i], now);
        now = out.complete_at + Cycles(40);
        if b1[i] {
            let out = ms.write(proc, A, l[i], now);
            now = out.complete_at + Cycles(40);
        }
        if ms.failure().is_some() {
            break;
        }
    }
    ms.drain_all_messages();
    ms.take_event_trace()
}

#[test]
fn figure2_replay_matches_golden_jsonl() {
    let got = jsonl(&replay());
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/trace_golden.jsonl");
        std::fs::write(path, format!("{got}\n")).expect("write golden");
        return;
    }
    let golden = include_str!("trace_golden.jsonl").trim_end();
    assert_eq!(
        got, golden,
        "JSONL trace of the Figure 2 replay diverged from the golden file; \
         if the timing or schema change is intentional, regenerate with \
         REGEN_GOLDEN=1 cargo test -p specrt-bench figure2_replay"
    );
}

#[test]
fn figure2_replay_fails_with_forensic_context() {
    let events = replay();
    let aborts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            specrt_trace::TraceEvent::Abort {
                proc, arr, reason, ..
            } => Some((proc, arr, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(aborts.len(), 1, "Figure 2's loop is not parallel");
    let (proc, arr, reason) = &aborts[0];
    assert_eq!(**arr, Some(A.0), "abort names the array under test");
    assert!(proc.is_some(), "abort names the failing processor");
    assert!(reason.contains("[Fig."), "reason cites the paper figure");
}
