//! The paper's Figure 2 worked example, end to end.
//!
//! ```text
//! do i = 1, 5
//!     z = A(K(i))
//!     if (B1(i)) A(L(i)) = z + C(i)
//! enddo
//! K = [1,2,3,4,1]   L = [2,2,4,4,2]   B1 = [T,F,T,F,T]
//! ```
//!
//! The figure shows the shadow-array contents after marking
//! (`A_w = 0101`, `A_r = 1111`, `A_np = 1111`, `Atw = 3`, `Atm = 2`) and
//! concludes the test fails. We reproduce the shadow state with the pure
//! LRPD reference, then run the same loop through the full simulated
//! machine under both the software and the hardware schemes.
//!
//! Run with: `cargo run --release --example lrpd_figure2`

use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::lrpd::{LrpdOutcome, LrpdShadow};
use specrt::machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt::{ParallelizationStrategy, SpeculativeRuntime};

const K: [u64; 5] = [1, 2, 3, 4, 1];
const L: [u64; 5] = [2, 2, 4, 4, 2];
const B1: [bool; 5] = [true, false, true, false, true];

fn main() {
    // --- Pure algorithm: reproduce the figure's shadow arrays. ---
    let mut sh = LrpdShadow::new(5);
    for i in 0..5u64 {
        let iter = i + 1;
        sh.mark_read(K[i as usize], iter);
        if B1[i as usize] {
            sh.mark_write(L[i as usize], iter);
        }
    }
    println!("shadow arrays after marking (elements 1..4):");
    let bits = |f: &dyn Fn(u64) -> bool| -> String {
        (1..=4).map(|e| if f(e) { '1' } else { '0' }).collect()
    };
    println!("  A_w  = {}", bits(&|e| sh.a_w(e)));
    println!("  A_r  = {}", bits(&|e| sh.a_r(e)));
    println!("  A_np = {}", bits(&|e| sh.a_np(e)));
    println!("  Atw  = {}   Atm = {}", sh.atw(), sh.atm());
    let verdict = sh.analyze(true);
    println!("analysis: {verdict:?}");
    assert!(matches!(verdict, LrpdOutcome::NotParallel(_)));

    // --- Full machine: the same loop under SW and HW schemes. ---
    let a = ArrayId(0);
    let karr = ArrayId(1);
    let larr = ArrayId(2);
    let barr = ArrayId(3);
    let carr = ArrayId(4);
    let mut b = ProgramBuilder::new();
    let ki = b.load(karr, Operand::Iter);
    let z = b.load(a, Operand::Reg(ki));
    let cond = b.load(barr, Operand::Iter);
    let skip = b.label();
    b.bz(Operand::Reg(cond), skip);
    let li = b.load(larr, Operand::Iter);
    let ci = b.load(carr, Operand::Iter);
    let sum = b.binop(BinOp::FAdd, Operand::Reg(z), Operand::Reg(ci));
    b.store(a, Operand::Reg(li), Operand::Reg(sum));
    b.bind(skip);
    let body = b.build().unwrap();

    let mut plan = TestPlan::new();
    plan.set(a, SpecVariant::NonPriv);
    let spec = LoopSpec {
        name: "figure2".into(),
        body,
        iters: 5,
        arrays: vec![
            ArrayDecl::with_init(
                a,
                ElemSize::W8,
                (0..5).map(|i| Scalar::Float(i as f64)).collect(),
            ),
            ArrayDecl::with_init(
                karr,
                ElemSize::W8,
                K.iter().map(|&v| Scalar::Int(v as i64)).collect(),
            ),
            ArrayDecl::with_init(
                larr,
                ElemSize::W8,
                L.iter().map(|&v| Scalar::Int(v as i64)).collect(),
            ),
            ArrayDecl::with_init(
                barr,
                ElemSize::W8,
                B1.iter().map(|&v| Scalar::Int(v as i64)).collect(),
            ),
            ArrayDecl::with_init(
                carr,
                ElemSize::W8,
                (0..5).map(|i| Scalar::Float(10.0 + i as f64)).collect(),
            ),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![a],
        stamp_window: None,
    };

    let runtime = SpeculativeRuntime::new(4);
    let serial = runtime.run(&spec, ParallelizationStrategy::Serial);
    let sw = runtime.run(&spec, ParallelizationStrategy::SoftwareIterationWise);
    let hw = runtime.run(&spec, ParallelizationStrategy::Hardware);
    println!("\nfull machine:");
    println!(
        "  SW verdict: passed={:?} ({})",
        sw.passed,
        sw.failure.as_deref().unwrap_or("-")
    );
    println!(
        "  HW verdict: passed={:?} ({})",
        hw.passed,
        hw.failure.as_deref().unwrap_or("-")
    );
    assert_eq!(sw.passed, Some(false));
    assert_eq!(hw.passed, Some(false));
    for r in [&sw, &hw] {
        assert!(r.final_image.same_contents(&serial.final_image, &[a]));
    }
    println!("  both schemes rejected the loop and recovered to the serial state ✓");
}
