//! Irregular scatter-update: a sparse-solver-style kernel compared under
//! every strategy.
//!
//! This is the class of loop the paper's introduction motivates (SPICE,
//! DYNA-3D, GAUSSIAN, …): each iteration updates a row of a state vector
//! through an input-dependent index list, with real numeric work per
//! element. We run it Serial / Unchecked (Ideal) / Software-LRPD /
//! Hardware and print the paper-style comparison: speedups and
//! Busy/Sync/Mem breakdowns.
//!
//! Run with: `cargo run --release --example irregular_scatter`

use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt::mem::ElemSize;
use specrt::report::{f2, Table};
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};
use specrt::{ParallelizationStrategy, SpeculativeRuntime};

fn build_loop(n: u64, row: u64) -> LoopSpec {
    let state = ArrayId(0); // scattered state vector (under test)
    let rows = ArrayId(1); // row start per iteration (input-dependent)
    let coef = ArrayId(2); // read-only coefficients

    let mut b = ProgramBuilder::new();
    let base = b.load(rows, Operand::Iter);
    let j = b.mov(Operand::ImmI(0));
    let top = b.label();
    let done = b.label();
    b.bind(top);
    let c = b.binop(BinOp::CmpLt, Operand::Reg(j), Operand::ImmI(row as i64));
    b.bz(Operand::Reg(c), done);
    let idx = b.binop(BinOp::Add, Operand::Reg(base), Operand::Reg(j));
    let v = b.load(state, Operand::Reg(idx));
    let cj = b.binop(BinOp::And, Operand::Reg(j), Operand::ImmI(63));
    let cv = b.load(coef, Operand::Reg(cj));
    let v2 = b.binop(BinOp::FMul, Operand::Reg(v), Operand::Reg(cv));
    let v3 = b.binop(BinOp::FAdd, Operand::Reg(v2), Operand::ImmF(0.01));
    b.compute(4); // stencil arithmetic
    b.store(state, Operand::Reg(idx), Operand::Reg(v3));
    b.binop_into(j, BinOp::Add, Operand::Reg(j), Operand::ImmI(1));
    b.jmp(top);
    b.bind(done);
    let body = b.build().expect("body verifies");

    // Rows are disjoint (a matrix coloring the compiler cannot prove).
    let mut order: Vec<u64> = (0..n).collect();
    // Simple deterministic shuffle.
    for i in (1..order.len()).rev() {
        order.swap(i, (i * 7919) % (i + 1));
    }
    let rows_init: Vec<Scalar> = order
        .iter()
        .map(|&r| Scalar::Int((r * row) as i64))
        .collect();

    let mut plan = TestPlan::new();
    plan.set(state, SpecVariant::NonPriv);
    LoopSpec {
        name: "irregular-scatter".into(),
        body,
        iters: n,
        arrays: vec![
            ArrayDecl::with_init(
                state,
                ElemSize::W8,
                (0..n * row)
                    .map(|i| Scalar::Float(i as f64 * 1e-3))
                    .collect(),
            ),
            ArrayDecl::with_init(rows, ElemSize::W8, rows_init),
            ArrayDecl::with_init(
                coef,
                ElemSize::W8,
                (0..64)
                    .map(|i| Scalar::Float(1.0 + i as f64 * 1e-2))
                    .collect(),
            ),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![state],
        stamp_window: None,
    }
}

fn main() {
    let spec = build_loop(64, 48);
    let runtime = SpeculativeRuntime::new(16);

    let mut table = Table::new(vec![
        "strategy", "cycles", "speedup", "busy", "sync", "mem", "verdict",
    ]);
    let serial = runtime.run(&spec, ParallelizationStrategy::Serial);
    for (label, strategy) in [
        ("Serial", ParallelizationStrategy::Serial),
        ("Ideal", ParallelizationStrategy::Unchecked),
        (
            "SW (proc-wise)",
            ParallelizationStrategy::SoftwareProcessorWise,
        ),
        ("HW", ParallelizationStrategy::Hardware),
    ] {
        let r = runtime.run(&spec, strategy);
        table.row(vec![
            label.into(),
            r.total_cycles.raw().to_string(),
            f2(r.speedup_over(&serial)),
            r.breakdown.busy.raw().to_string(),
            r.breakdown.sync.raw().to_string(),
            r.breakdown.mem.raw().to_string(),
            match r.passed {
                Some(true) => "parallel".into(),
                Some(false) => "serialized".into(),
                None => "-".to_string(),
            },
        ]);
        assert!(
            r.final_image
                .same_contents(&serial.final_image, &[ArrayId(0)]),
            "{label}: result mismatch"
        );
    }
    println!("{}", table.render());
    println!("all strategies produce bit-identical final state ✓");
}
