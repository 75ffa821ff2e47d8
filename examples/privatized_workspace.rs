//! Privatization with read-in and copy-out (paper §2.2.3 / §3.3).
//!
//! A molecular-dynamics-style accumulation: early iterations only *read* a
//! parameter table, later iterations *overwrite* parts of it, and the table
//! is live after the loop. That pattern (Figure 3 of the paper) defeats the
//! basic privatization test but passes the hardware privatization protocol
//! with **read-in** (private copies lazily initialized from the shared
//! array) and **copy-out** (last writer merged back at loop end).
//!
//! Run with: `cargo run --release --example privatized_workspace`

use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt::{ParallelizationStrategy, SpeculativeRuntime};

fn main() {
    const N: u64 = 96; // iterations
    const TAB: u64 = 32; // parameter table size
    let table = ArrayId(0);
    let out = ArrayId(1);

    // Iterations 0..N/2 read table[i % TAB]; iterations N/2..N first write
    // then read their slot. Reads therefore never follow a write from an
    // earlier iteration: MaxR1st <= MinW holds and the loop is parallel
    // with read-in/copy-out.
    let mut b = ProgramBuilder::new();
    let slot = b.binop(BinOp::Rem, Operand::Iter, Operand::ImmI(TAB as i64));
    let is_late = b.binop(BinOp::CmpLe, Operand::ImmI((N / 2) as i64), Operand::Iter);
    let read_only = b.label();
    let end = b.label();
    b.bnz(Operand::Reg(is_late), read_only);
    // Early iteration: consume the original table value.
    let v = b.load(table, Operand::Reg(slot));
    let r = b.binop(BinOp::FMul, Operand::Reg(v), Operand::ImmF(2.0));
    b.store(out, Operand::Iter, Operand::Reg(r));
    b.jmp(end);
    b.bind(read_only);
    // Late iteration: refresh its slot, then use the refreshed value.
    let nv = b.binop(BinOp::FAdd, Operand::Iter, Operand::ImmF(0.5));
    b.store(table, Operand::Reg(slot), Operand::Reg(nv));
    let v2 = b.load(table, Operand::Reg(slot));
    b.store(out, Operand::Iter, Operand::Reg(v2));
    b.bind(end);
    b.compute(40);
    let body = b.build().expect("body verifies");

    let mut plan = TestPlan::new();
    plan.set(table, SpecVariant::Priv);

    let spec = LoopSpec {
        name: "privatized-workspace".into(),
        body,
        iters: N,
        arrays: vec![
            ArrayDecl::with_init(
                table,
                ElemSize::W8,
                (0..TAB).map(|i| Scalar::Float(100.0 + i as f64)).collect(),
            ),
            ArrayDecl::zeroed(out, N, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![table, out],
        stamp_window: None,
    };

    let runtime = SpeculativeRuntime::new(8);
    let serial = runtime.run(&spec, ParallelizationStrategy::Serial);
    let hw = runtime.run(&spec, ParallelizationStrategy::Hardware);

    println!("privatization verdict: passed = {:?}", hw.passed);
    println!(
        "serial {} vs HW {} → speedup {:.2}x",
        serial.total_cycles,
        hw.total_cycles,
        hw.speedup_over(&serial)
    );
    println!("read-ins performed: {}", hw.stats.get("priv_read_ins"));
    assert_eq!(hw.passed, Some(true), "loop must pass with read-in support");
    assert!(
        hw.final_image
            .same_contents(&serial.final_image, &[table, out]),
        "copy-out must reconstruct the serially-final table"
    );
    println!("copy-out reconstructed the live table exactly ✓");

    // The same loop *without* read-in support fails the basic privatization
    // test: early reads would consume uninitialized private copies, so the
    // compiler must request the full protocol.
    let mut basic = spec.clone();
    basic.plan.set(table, SpecVariant::NonPriv);
    let basic_run = runtime.run(&basic, ParallelizationStrategy::Hardware);
    println!(
        "same loop under the non-privatization test: passed = {:?} ({})",
        basic_run.passed,
        basic_run.failure.as_deref().unwrap_or("-")
    );
    assert_eq!(basic_run.passed, Some(false));
    assert!(
        basic_run
            .final_image
            .same_contents(&serial.final_image, &[table, out]),
        "failed speculation must still end in the serial state"
    );
}
