//! Watch the hardware protocol work, access by access.
//!
//! This example drives the memory-system layer (`specrt::proto`) directly —
//! no loop executor — replaying the access pattern of the paper's Figure 2
//! loop on two processors with event tracing enabled. The printed trace
//! shows the coherence traffic, the access-bit messages the
//! non-privatization protocol adds, and the exact moment the speculation
//! FAILs: iteration 4 (on processor 1) reads element 4, which iteration 3
//! (on processor 0) wrote — the first of Figure 2's cross-iteration
//! dependences to cross a processor boundary.
//!
//! Run with: `cargo run --release --example protocol_trace`

use specrt::engine::Cycles;
use specrt::ir::ArrayId;
use specrt::mem::{ElemSize, PlacementPolicy, ProcId};
use specrt::proto::{MemSystem, MemSystemConfig};
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);

fn main() {
    let mut ms = MemSystem::new(MemSystemConfig {
        procs: 2,
        ..MemSystemConfig::default()
    });
    ms.alloc_array(A, 8, ElemSize::W8, PlacementPolicy::RoundRobin);
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());
    ms.enable_event_trace(64);

    // Figure 2: K = [1,2,3,4,1], L = [2,2,4,4,2], B1 = [T,F,T,F,T].
    // Iterations 1..=3 run on cpu0, 4..=5 on cpu1 (static chunking).
    let k = [1u64, 2, 3, 4, 1];
    let l = [2u64, 2, 4, 4, 2];
    let b1 = [true, false, true, false, true];

    println!("access pattern of Figure 2 under the non-privatization protocol:\n");
    let mut now = Cycles(0);
    for i in 0..5 {
        let proc = ProcId(if i < 3 { 0 } else { 1 });
        // z = A(K(i))
        let out = ms.read(proc, A, k[i], now);
        now = out.complete_at + Cycles(40);
        // if (B1(i)) A(L(i)) = z + C(i)
        if b1[i] {
            let out = ms.write(proc, A, l[i], now);
            now = out.complete_at + Cycles(40);
        }
        if ms.failure().is_some() {
            break;
        }
    }
    ms.drain_all_messages();

    for ev in ms.take_event_trace() {
        println!("{ev}");
    }
    match ms.failure() {
        Some((reason, at)) => {
            println!("\nspeculation FAILED at {at}: {reason}");
            println!("(the machine would now abort, restore, and re-execute serially)");
        }
        None => println!("\nspeculation passed"),
    }
    assert!(ms.failure().is_some(), "Figure 2's loop is not parallel");
}
