//! Adm — `run.do20` (§5.2).
//!
//! Paper facts reproduced: many invocations (900 in the paper; scaled
//! here) of a small-working-set loop with 32 or 64 iterations, **mixed**
//! arrays — some under the non-privatization schemes, some under the
//! privatization schemes — 8-byte elements, good load balance → static
//! scheduling and the processor-wise software test; 16 processors.
//!
//! The synthetic body updates a gather/scatter target `X` at a
//! subscripted, per-iteration-distinct location, using a small privatized
//! workspace `T` that every iteration fills before reading back.

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind, SwVariant};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

use crate::common::{permutation, rng_for, Scale, Workload};

/// Scatter target (non-privatization test).
pub const X: ArrayId = ArrayId(0);
/// Privatized workspace (write-then-read each iteration).
pub const T: ArrayId = ArrayId(1);
/// Per-iteration target indices (read-only, input-dependent).
pub const KX: ArrayId = ArrayId(2);
/// Coefficients (read-only).
pub const C: ArrayId = ArrayId(3);

const X_LEN: u64 = 2048;
const X_SLICE: u64 = 32;
const T_LEN: u64 = 16;
const C_LEN: u64 = 64;
const T_SLOTS: u64 = 4;
const TAG: u64 = 3;

/// The Adm workload at `scale` (16 processors).
pub fn workload(scale: Scale) -> Workload {
    let invocations = scale.pick(3, 30, 200);
    let specs = (0..invocations).map(|inv| instance(inv, false)).collect();
    Workload {
        name: "adm",
        paper_loop: "run.do20",
        procs: 16,
        invocations: specs,
        failure_instance: instance(0, true),
        sw_variant: SwVariant::ProcessorWise,
    }
}

/// One invocation. With `force_failure`, the workspace is **not**
/// privatized and runs under the non-privatization algorithm (the §6.2
/// recipe) — every processor writes `T[0..4]`, an immediate conflict.
pub fn instance(inv: u64, force_failure: bool) -> LoopSpec {
    let mut rng = rng_for(TAG, inv);
    // "32 or 64 iterations in each case."
    let iters = if inv.is_multiple_of(2) { 32 } else { 64 };
    // Each iteration owns an 8-element slice of X at a subscripted,
    // input-dependent position (disjoint across iterations).
    let sigma = permutation(&mut rng, X_LEN / X_SLICE);
    let kx_init: Vec<Scalar> = (0..iters)
        .map(|i| Scalar::Int((sigma[i as usize] * X_SLICE) as i64))
        .collect();
    let c_init: Vec<Scalar> = (0..C_LEN)
        .map(|j| Scalar::Float(0.25 + j as f64 * 0.01))
        .collect();
    let x_init: Vec<Scalar> = (0..X_LEN).map(|i| Scalar::Float(i as f64 * 0.5)).collect();

    let mut b = ProgramBuilder::new();
    let k = b.load(KX, Operand::Iter);
    // Fill the workspace: T[s] = C[(iter + s) % C_LEN] * 1.5
    for s in 0..T_SLOTS {
        let ci = b.binop(BinOp::Add, Operand::Iter, Operand::ImmI(s as i64));
        let cm = b.binop(BinOp::Rem, Operand::Reg(ci), Operand::ImmI(C_LEN as i64));
        let c = b.load(C, Operand::Reg(cm));
        let cv = b.binop(BinOp::FMul, Operand::Reg(c), Operand::ImmF(1.5));
        b.store(T, Operand::ImmI(s as i64), Operand::Reg(cv));
    }
    // Read it back and accumulate.
    let mut acc = b.mov(Operand::ImmF(0.0));
    for s in 0..T_SLOTS {
        let v = b.load(T, Operand::ImmI(s as i64));
        acc = b.binop(BinOp::FAdd, Operand::Reg(acc), Operand::Reg(v));
    }
    // Scatter: X[k..k+32] += acc (a column update of the physics state).
    for jj in 0..X_SLICE {
        let xi = b.binop(BinOp::Add, Operand::Reg(k), Operand::ImmI(jj as i64));
        let xv = b.load(X, Operand::Reg(xi));
        let xv2 = b.binop(BinOp::FAdd, Operand::Reg(xv), Operand::Reg(acc));
        b.store(X, Operand::Reg(xi), Operand::Reg(xv2));
        b.compute(24);
    }
    b.compute(400);
    let body = b.build().expect("adm body verifies");

    let mut plan = TestPlan::new();
    plan.set(X, SpecVariant::NonPriv);
    if force_failure {
        plan.set(T, SpecVariant::NonPriv);
    } else {
        plan.set(T, SpecVariant::Priv3);
    }

    LoopSpec {
        name: format!("adm#{inv}{}", if force_failure { "!fail" } else { "" }),
        body,
        iters,
        arrays: vec![
            // X is written at one subscripted element per iteration: the
            // sparse save-on-first-write backup of §2.2.1 applies.
            ArrayDecl::with_init(X, ElemSize::W8, x_init).with_sparse_backup(),
            ArrayDecl::zeroed(T, T_LEN, ElemSize::W8),
            ArrayDecl::with_init(KX, ElemSize::W8, kx_init),
            ArrayDecl::with_init(C, ElemSize::W8, c_init),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![X],
        stamp_window: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_machine::{run_scenario, Scenario, SwVariant};

    #[test]
    fn mixed_tests_pass_and_match_serial() {
        let spec = instance(0, false);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert!(hw.final_image.same_contents(&serial.final_image, &[X]));
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 8);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
        assert!(sw.final_image.same_contents(&serial.final_image, &[X]));
    }

    #[test]
    fn forced_failure_without_privatizing_workspace() {
        let spec = instance(0, true);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(false));
        assert!(hw.final_image.same_contents(&serial.final_image, &[X]));
    }

    #[test]
    fn iteration_counts_alternate() {
        assert_eq!(instance(0, false).iters, 32);
        assert_eq!(instance(1, false).iters, 64);
    }

    #[test]
    fn scatter_targets_are_distinct() {
        let spec = instance(4, false);
        let mut kx: Vec<i64> = spec.arrays[2]
            .init
            .iter()
            .map(|s| match s {
                Scalar::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        kx.sort_unstable();
        kx.dedup();
        assert_eq!(kx.len() as u64, spec.iters, "slice bases must be distinct");
        assert!(kx.iter().all(|&k| k % X_SLICE as i64 == 0));
    }
}
