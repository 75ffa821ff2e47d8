//! Failure and recovery: the paper's headline latency advantage.
//!
//! A time-stepping loop carries a real flow dependence (iteration `i`
//! consumes iteration `i-8`'s result across processors). Both run-time
//! tests correctly reject it — but the hardware scheme aborts the moment
//! the coherence protocol sees the dependence, while the software scheme
//! only learns after running the whole loop (paper §6.2 / Figure 13).
//!
//! Run with: `cargo run --release --example failure_recovery`

use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt::{ParallelizationStrategy, SpeculativeRuntime};

fn main() {
    const N: u64 = 128;
    let a = ArrayId(0);

    // A(i) = A(i-8) + 1 for i >= 8: a genuine cross-iteration flow
    // dependence with distance 8 — iterations land on different processors.
    let mut b = ProgramBuilder::new();
    let lo = b.binop(BinOp::CmpLt, Operand::Iter, Operand::ImmI(8));
    let skip = b.label();
    b.bnz(Operand::Reg(lo), skip);
    let prev = b.binop(BinOp::Sub, Operand::Iter, Operand::ImmI(8));
    let v = b.load(a, Operand::Reg(prev));
    let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
    b.store(a, Operand::Iter, Operand::Reg(v2));
    b.bind(skip);
    b.compute(60);
    let body = b.build().expect("body verifies");

    let mut plan = TestPlan::new();
    plan.set(a, SpecVariant::NonPriv);
    let spec = LoopSpec {
        name: "time-step".into(),
        body,
        iters: N,
        arrays: vec![ArrayDecl::with_init(
            a,
            ElemSize::W8,
            (0..N).map(|i| Scalar::Float(i as f64)).collect(),
        )],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Dynamic { block: 2 },
        live_after: vec![a],
        stamp_window: None,
    };

    let runtime = SpeculativeRuntime::new(16);
    let serial = runtime.run(&spec, ParallelizationStrategy::Serial);
    let hw = runtime.run(&spec, ParallelizationStrategy::Hardware);
    let sw = runtime.run(&spec, ParallelizationStrategy::SoftwareIterationWise);

    println!("serial reference: {}", serial.total_cycles);
    println!(
        "HW: detected '{}' after {} of {} iterations → total {} ({:.2}x serial)",
        hw.failure.as_deref().unwrap_or("?"),
        hw.iterations,
        N,
        hw.total_cycles,
        hw.total_cycles.raw() as f64 / serial.total_cycles.raw() as f64
    );
    println!(
        "SW: detected '{}' after {} of {} iterations → total {} ({:.2}x serial)",
        sw.failure.as_deref().unwrap_or("?"),
        sw.iterations,
        N,
        sw.total_cycles,
        sw.total_cycles.raw() as f64 / serial.total_cycles.raw() as f64
    );

    assert_eq!(hw.passed, Some(false));
    assert_eq!(sw.passed, Some(false));
    assert!(hw.iterations < N, "HW aborts mid-loop");
    assert_eq!(sw.iterations, N, "SW must finish the loop before it knows");
    assert!(
        hw.total_cycles < sw.total_cycles,
        "early detection is cheaper"
    );
    for r in [&hw, &sw] {
        assert!(
            r.final_image.same_contents(&serial.final_image, &[a]),
            "restore + serial re-execution must reproduce the serial state"
        );
    }
    println!("both schemes recovered to the exact serial state ✓");
}
