//! Quickstart: speculatively parallelize a loop the compiler cannot
//! analyze.
//!
//! The loop is the paper's motivating pattern (Figure 1-c): an array
//! updated through an input-dependent index array,
//!
//! ```text
//! do i = 1, n
//!     A(K(i)) = A(K(i)) * 1.5 + 1.0
//! enddo
//! ```
//!
//! Whether this is parallel depends entirely on the contents of `K`. We run
//! it under the paper's hardware scheme on a simulated 8-processor CC-NUMA
//! machine: the cache-coherence protocol extensions test for cross-iteration
//! dependences while the loop runs.
//!
//! Run with: `cargo run --release --example quickstart`

use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt::{ParallelizationStrategy, SpeculativeRuntime};

fn main() {
    const N: u64 = 256;
    let a = ArrayId(0);
    let k = ArrayId(1);

    // The loop body, in the runtime's mini-IR (one iteration).
    let mut b = ProgramBuilder::new();
    let idx = b.load(k, Operand::Iter); // idx = K(i)
    let v = b.load(a, Operand::Reg(idx)); // v = A(idx)
    let v2 = b.binop(BinOp::FMul, Operand::Reg(v), Operand::ImmF(1.5));
    let v3 = b.binop(BinOp::FAdd, Operand::Reg(v2), Operand::ImmF(1.0));
    b.store(a, Operand::Reg(idx), Operand::Reg(v3)); // A(idx) = v*1.5 + 1
    b.compute(50); // the rest of the iteration's work
    let body = b.build().expect("body verifies");

    // Input data: K happens to be a permutation, so the loop is parallel —
    // but only the run-time test can know that.
    let k_init: Vec<Scalar> = (0..N).map(|i| Scalar::Int(((i * 13) % N) as i64)).collect();
    let a_init: Vec<Scalar> = (0..N).map(|i| Scalar::Float(i as f64)).collect();

    // Put A under the non-privatization test.
    let mut plan = TestPlan::new();
    plan.set(a, SpecVariant::NonPriv);

    let spec = LoopSpec {
        name: "quickstart".into(),
        body,
        iters: N,
        arrays: vec![
            ArrayDecl::with_init(a, ElemSize::W8, a_init),
            ArrayDecl::with_init(k, ElemSize::W8, k_init),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![a],
        stamp_window: None,
    };

    let runtime = SpeculativeRuntime::new(8);
    let serial = runtime.run(&spec, ParallelizationStrategy::Serial);
    let hw = runtime.run(&spec, ParallelizationStrategy::Hardware);

    println!("loop: {} iterations on {} processors", N, runtime.procs());
    println!("serial execution: {}", serial.total_cycles);
    println!(
        "speculative (HW): {}  → speedup {:.2}x",
        hw.total_cycles,
        hw.speedup_over(&serial)
    );
    println!(
        "run-time test verdict: {}",
        if hw.passed == Some(true) {
            "parallel (speculation kept)"
        } else {
            "not parallel (re-executed serially)"
        }
    );
    assert!(
        hw.final_image.same_contents(&serial.final_image, &[a]),
        "speculative result must equal serial"
    );
    println!("final array contents verified against serial execution ✓");
}
