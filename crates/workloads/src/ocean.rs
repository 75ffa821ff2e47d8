//! Ocean — `ftrvmt.do109` (§5.2).
//!
//! Paper facts reproduced: executed thousands of times (4129 in the paper;
//! scaled here), 32 iterations most of the time, small working set
//! (258×64 complex elements ≈ 16 K 8-byte elements), data accessed with
//! different strides in different executions, non-privatization algorithm
//! for both schemes, good load balance → static scheduling and the
//! processor-wise software test, 8 processors.
//!
//! The synthetic body is an FFT-style butterfly pass: iteration `i`
//! transforms a 16-element strided section starting at `OFF[i]` — a
//! subscripted base the compiler cannot analyze. Sections are disjoint in
//! parallel instances; the §6.2 forced-failure instance makes two sections
//! on different processors collide.

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind, SwVariant};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

use crate::common::{permutation, rng_for, Scale, Workload};

/// The transformed data array (under the non-privatization test).
pub const A: ArrayId = ArrayId(0);
/// Per-iteration section bases (input data; read-only).
pub const OFF: ArrayId = ArrayId(1);
/// Butterfly coefficients (read-only).
pub const C: ArrayId = ArrayId(2);

const A_LEN: u64 = 33024; // 258 * 64 complex elements = 33024 scalar words
const C_LEN: u64 = 64;
const SECTION: u64 = 516; // 33024 / 64 complex per iteration, x2 scalars / 2
const ITERS: u64 = 32;
const TAG: u64 = 1;

/// The Ocean workload at `scale` (8 processors).
pub fn workload(scale: Scale) -> Workload {
    let invocations = scale.pick(3, 40, 400);
    let specs = (0..invocations).map(|inv| instance(inv, false)).collect();
    Workload {
        name: "ocean",
        paper_loop: "ftrvmt.do109",
        procs: 8,
        invocations: specs,
        failure_instance: instance(0, true),
        sw_variant: SwVariant::ProcessorWise,
    }
}

/// One invocation. `force_failure` inserts a cross-processor dependence
/// (the §6.2 recipe: "we insert a cross-iteration dependence").
pub fn instance(inv: u64, force_failure: bool) -> LoopSpec {
    let mut rng = rng_for(TAG, inv);
    // "Data is accessed with different strides in different executions."
    let stride = [1u64, 2][(inv % 2) as usize];
    let span = SECTION * stride;
    let base = if A_LEN > ITERS * span {
        (inv * 577) % (A_LEN - ITERS * span)
    } else {
        0
    };

    let sigma = permutation(&mut rng, ITERS);
    let mut off: Vec<Scalar> = sigma
        .iter()
        .map(|&s| Scalar::Int((base + s * span) as i64))
        .collect();
    if force_failure {
        // Iterations 1 and 17 land on different static chunks (4 iterations
        // per processor on 8 processors): a true cross-processor flow
        // dependence that both schemes must reject.
        off[17] = off[1];
    }

    // Iteration body: one butterfly pass over a 516-element strided
    // section (the paper's loop processes a full column per iteration).
    let mut b = ProgramBuilder::new();
    let base_reg = b.load(OFF, Operand::Iter);
    let j = b.mov(Operand::ImmI(0));
    let top = b.label();
    let done = b.label();
    b.bind(top);
    let cond = b.binop(BinOp::CmpLt, Operand::Reg(j), Operand::ImmI(SECTION as i64));
    b.bz(Operand::Reg(cond), done);
    let offs = b.binop(BinOp::Mul, Operand::Reg(j), Operand::ImmI(stride as i64));
    let idx = b.binop(BinOp::Add, Operand::Reg(base_reg), Operand::Reg(offs));
    let v = b.load(A, Operand::Reg(idx));
    let cidx = b.binop(
        BinOp::And,
        Operand::Reg(j),
        Operand::ImmI((C_LEN - 1) as i64),
    );
    let c = b.load(C, Operand::Reg(cidx));
    let v2 = b.binop(BinOp::FMul, Operand::Reg(v), Operand::Reg(c));
    let v3 = b.binop(BinOp::FAdd, Operand::Reg(v2), Operand::ImmF(0.5));
    // Twiddle arithmetic of the butterfly.
    b.compute(3);
    b.store(A, Operand::Reg(idx), Operand::Reg(v3));
    b.binop_into(j, BinOp::Add, Operand::Reg(j), Operand::ImmI(1));
    b.jmp(top);
    b.bind(done);
    b.compute(10);
    let body = b.build().expect("ocean body verifies");

    let a_init: Vec<Scalar> = (0..A_LEN).map(|i| Scalar::Float(i as f64 * 0.01)).collect();
    let c_init: Vec<Scalar> = (0..C_LEN)
        .map(|j| Scalar::Float(1.0 + j as f64 * 0.001))
        .collect();

    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);

    LoopSpec {
        name: format!("ocean#{inv}{}", if force_failure { "!fail" } else { "" }),
        body,
        iters: ITERS,
        arrays: vec![
            // The compiler can bound the modified region from OFF's range,
            // so only that region is backed up (§2.2.1).
            ArrayDecl::with_init(A, ElemSize::W8, a_init)
                .with_backup_region(base, (ITERS * span).min(A_LEN - base)),
            ArrayDecl::with_init(OFF, ElemSize::W8, off),
            ArrayDecl::with_init(C, ElemSize::W8, c_init),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A],
        stamp_window: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_machine::{run_scenario, Scenario, SwVariant};

    #[test]
    fn parallel_instance_passes_hw_and_matches_serial() {
        let spec = instance(0, false);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
        assert!(hw.total_cycles < serial.total_cycles);
    }

    #[test]
    fn parallel_instance_passes_processor_wise_sw() {
        let spec = instance(1, false);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 8);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
        assert!(sw.final_image.same_contents(&serial.final_image, &[A]));
    }

    #[test]
    fn forced_failure_fails_and_recovers() {
        let spec = instance(0, true);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(false));
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
    }

    #[test]
    fn strides_differ_across_invocations() {
        // Different invocations exercise different strides.
        let i0 = instance(0, false);
        let i1 = instance(1, false);
        assert_ne!(i0.body, i1.body, "stride is baked into the body");
    }

    #[test]
    fn sections_are_disjoint() {
        let spec = instance(2, false);
        let offs: Vec<i64> = spec.arrays[1]
            .init
            .iter()
            .map(|s| match s {
                Scalar::Int(v) => *v,
                _ => panic!("OFF holds ints"),
            })
            .collect();
        let stride = [1u64, 2][2 % 2];
        let span = (SECTION * stride) as i64;
        let mut sorted = offs.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= span, "sections overlap: {w:?}");
        }
    }
}
