//! Edge-case integration tests: degenerate loop shapes the runtime must
//! handle gracefully.

use specrt::ir::{ArrayId, Operand, ProgramBuilder, Scalar};
use specrt::machine::{run_scenario, ArrayDecl, LoopSpec, Scenario, ScheduleKind, SwVariant};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);

fn base_spec(iters: u64, body_builder: impl FnOnce(&mut ProgramBuilder)) -> LoopSpec {
    let mut b = ProgramBuilder::new();
    body_builder(&mut b);
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    LoopSpec {
        name: "edge".into(),
        body: b.build().unwrap(),
        iters,
        arrays: vec![ArrayDecl::with_init(
            A,
            ElemSize::W8,
            (0..64).map(|i| Scalar::Float(i as f64)).collect(),
        )],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A],
        stamp_window: None,
    }
}

#[test]
fn single_iteration_loop() {
    let spec = base_spec(1, |b| {
        b.store(A, Operand::Iter, Operand::ImmF(42.0));
    });
    for scenario in [
        Scenario::Serial,
        Scenario::Hw,
        Scenario::Sw(SwVariant::IterationWise),
        Scenario::Sw(SwVariant::ProcessorWise),
    ] {
        let r = run_scenario(&spec, scenario, 8);
        assert_ne!(
            r.passed,
            Some(false),
            "{scenario}: one iteration cannot conflict"
        );
        assert_eq!(r.final_image.read(A, 0), Scalar::Float(42.0), "{scenario}");
    }
}

#[test]
fn more_processors_than_iterations() {
    let spec = base_spec(3, |b| {
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(10);
    });
    let hw = run_scenario(&spec, Scenario::Hw, 16);
    assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    assert_eq!(hw.iterations, 3);
}

#[test]
fn empty_body_loop() {
    let spec = base_spec(16, |b| {
        b.compute(5);
    });
    let hw = run_scenario(&spec, Scenario::Hw, 4);
    assert_eq!(hw.passed, Some(true), "no accesses, nothing to conflict");
    let sw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 4);
    assert_eq!(sw.passed, Some(true));
}

#[test]
fn read_only_loop_under_test_passes_everywhere() {
    let spec = {
        let mut s = base_spec(32, |b| {
            b.load(A, Operand::Iter);
            b.compute(8);
        });
        s.live_after.clear();
        s
    };
    for scenario in [
        Scenario::Hw,
        Scenario::Sw(SwVariant::IterationWise),
        Scenario::Sw(SwVariant::ProcessorWise),
    ] {
        let r = run_scenario(&spec, scenario, 8);
        assert_eq!(r.passed, Some(true), "{scenario}: {:?}", r.failure);
    }
}

#[test]
fn every_iteration_same_element_fails_hw_quickly() {
    let spec = base_spec(64, |b| {
        let v = b.load(A, Operand::ImmI(7));
        let v2 = b.binop(specrt::ir::BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
        b.store(A, Operand::ImmI(7), Operand::Reg(v2));
        b.compute(20);
    });
    let serial = run_scenario(&spec, Scenario::Serial, 8);
    let hw = run_scenario(&spec, Scenario::Hw, 8);
    assert_eq!(hw.passed, Some(false));
    assert!(hw.iterations < 64);
    assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
    // The final value is 64 increments over the initial 7.0.
    assert_eq!(hw.final_image.read(A, 7), Scalar::Float(7.0 + 64.0));
}

#[test]
fn dynamic_block_one_works_on_parallel_loops() {
    let mut spec = base_spec(48, |b| {
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(15);
    });
    spec.schedule = ScheduleKind::Dynamic { block: 1 };
    let hw = run_scenario(&spec, Scenario::Hw, 8);
    assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    assert_eq!(hw.iterations, 48);
}

#[test]
fn block_cyclic_schedule_end_to_end() {
    let mut spec = base_spec(50, |b| {
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(15);
    });
    spec.schedule = ScheduleKind::BlockCyclic { block: 3 };
    let serial = run_scenario(&spec, Scenario::Serial, 8);
    let hw = run_scenario(&spec, Scenario::Hw, 8);
    assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
}

#[test]
fn zero_iteration_loop() {
    // Nothing runs: every scenario must pass trivially and leave the
    // initial image untouched. The fuzzer generator covers this shape as
    // template seed 0.
    let spec = base_spec(0, |b| {
        b.store(A, Operand::Iter, Operand::ImmF(1.0));
    });
    let serial = run_scenario(&spec, Scenario::Serial, 4);
    for scenario in [
        Scenario::Hw,
        Scenario::Sw(SwVariant::IterationWise),
        Scenario::Sw(SwVariant::ProcessorWise),
    ] {
        let r = run_scenario(&spec, scenario, 4);
        assert_ne!(r.passed, Some(false), "{scenario}: nothing ran");
        assert_eq!(r.iterations, 0, "{scenario}");
        assert!(
            r.final_image.same_contents(&serial.final_image, &[A]),
            "{scenario}: image must stay at its initial contents"
        );
    }
}

#[test]
fn all_processors_hammer_one_element() {
    // Every iteration reads and writes the same element of a one-element
    // array (fuzzer template seed 2): HW must fail, abort, and restore the
    // serial result exactly.
    let mut b = ProgramBuilder::new();
    let v = b.load(A, Operand::ImmI(0));
    let v2 = b.binop(specrt::ir::BinOp::Add, Operand::Reg(v), Operand::ImmI(1));
    b.store(A, Operand::ImmI(0), Operand::Reg(v2));
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    let spec = LoopSpec {
        name: "hammer".into(),
        body: b.build().unwrap(),
        iters: 8,
        arrays: vec![ArrayDecl::zeroed(A, 1, ElemSize::W8)],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A],
        stamp_window: None,
    };
    let serial = run_scenario(&spec, Scenario::Serial, 4);
    let hw = run_scenario(&spec, Scenario::Hw, 4);
    assert_eq!(hw.passed, Some(false), "cross-processor element sharing");
    assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
    assert_eq!(hw.final_image.read(A, 0), Scalar::Int(8));
}

#[test]
fn write_only_loop() {
    // Disjoint writes, no reads of the array under test (fuzzer template
    // seed 3): no flow dependences, every protocol must pass.
    let spec = base_spec(32, |b| {
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(5);
    });
    let serial = run_scenario(&spec, Scenario::Serial, 8);
    for scenario in [
        Scenario::Hw,
        Scenario::Sw(SwVariant::IterationWise),
        Scenario::Sw(SwVariant::ProcessorWise),
    ] {
        let r = run_scenario(&spec, scenario, 8);
        assert_eq!(r.passed, Some(true), "{scenario}: {:?}", r.failure);
        assert!(r.final_image.same_contents(&serial.final_image, &[A]));
    }
}

#[test]
fn arrays_with_one_element() {
    // A single-element array under test, written by exactly one iteration.
    let mut b = ProgramBuilder::new();
    let c = b.binop(specrt::ir::BinOp::CmpEq, Operand::Iter, Operand::ImmI(5));
    let skip = b.label();
    b.bz(Operand::Reg(c), skip);
    b.store(A, Operand::ImmI(0), Operand::ImmF(9.0));
    b.bind(skip);
    b.compute(10);
    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    let spec = LoopSpec {
        name: "one-elem".into(),
        body: b.build().unwrap(),
        iters: 16,
        arrays: vec![ArrayDecl::zeroed(A, 1, ElemSize::W8)],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A],
        stamp_window: None,
    };
    let hw = run_scenario(&spec, Scenario::Hw, 4);
    assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    assert_eq!(hw.final_image.read(A, 0), Scalar::Float(9.0));
}
