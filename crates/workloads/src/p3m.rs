//! P3m — `pp.do100` (§5.2).
//!
//! Paper facts reproduced: a single invocation with a very large iteration
//! count (97 336 in the paper, 15 000 simulated there; scaled here), a very
//! large working set, arrays needing the **privatization** algorithm with
//! 4-byte elements, no read-in or copy-out, and highly imbalanced
//! iterations requiring **dynamic scheduling**; 16 processors.
//!
//! The synthetic body is a particle-particle interaction kernel: iteration
//! `i` visits `NB[i]` neighbours (a heavy-tailed count), gathers positions
//! from a large read-only array, and accumulates partial forces in a
//! privatized workspace that every iteration writes before reading.

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind, SwVariant};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

use crate::common::{rng_for, Scale, Workload};

/// Particle positions (large, read-only).
pub const POS: ArrayId = ArrayId(0);
/// Privatized force workspace (written before read in every iteration).
pub const W: ArrayId = ArrayId(1);
/// Per-particle accumulated output (disjoint writes; not under test).
pub const OUT: ArrayId = ArrayId(2);
/// Neighbour counts (read-only; the imbalance profile).
pub const NB: ArrayId = ArrayId(3);

const POS_LEN: u64 = 65536;
const W_LEN: u64 = 1024;
const TAG: u64 = 2;

/// The P3m workload at `scale` (16 processors, one invocation).
pub fn workload(scale: Scale) -> Workload {
    let iters = scale.pick(300, 3000, 15000);
    Workload {
        name: "p3m",
        paper_loop: "pp.do100",
        procs: 16,
        invocations: vec![instance(iters, false)],
        failure_instance: instance(scale.pick(200, 600, 2000), true),
        sw_variant: SwVariant::IterationWise,
    }
}

/// One instance with `iters` iterations. With `force_failure`, the arrays
/// under test are *not* privatized and the non-privatization algorithm runs
/// instead — the §6.2 recipe, which fails immediately because every
/// processor writes the shared workspace.
pub fn instance(iters: u64, force_failure: bool) -> LoopSpec {
    let mut rng = rng_for(TAG, 0);
    // Heavy-tailed neighbour counts: mostly 4..16, occasionally 60..160.
    let nb_init: Vec<Scalar> = (0..iters)
        .map(|_| {
            let n = if rng.chance(0.15) {
                rng.range(60, 160)
            } else {
                rng.range(4, 16)
            };
            Scalar::Int(n as i64)
        })
        .collect();
    let pos_init: Vec<Scalar> = (0..POS_LEN)
        .map(|i| Scalar::Float((i as f64 * 0.37).sin()))
        .collect();

    let mut b = ProgramBuilder::new();
    let nb = b.load(NB, Operand::Iter);
    let j = b.mov(Operand::ImmI(0));
    let acc = b.mov(Operand::ImmF(0.0));
    let top = b.label();
    let done = b.label();
    b.bind(top);
    let cond = b.binop(BinOp::CmpLt, Operand::Reg(j), Operand::Reg(nb));
    b.bz(Operand::Reg(cond), done);
    // posidx = (iter*8 + j) % POS_LEN: a particle's neighbours are
    // spatially clustered, so consecutive visits share cache lines.
    let t1 = b.binop(BinOp::Mul, Operand::Iter, Operand::ImmI(8));
    let t3 = b.binop(BinOp::Add, Operand::Reg(t1), Operand::Reg(j));
    let posidx = b.binop(BinOp::Rem, Operand::Reg(t3), Operand::ImmI(POS_LEN as i64));
    let p = b.load(POS, Operand::Reg(posidx));
    // widx = (iter + j*13) % W_LEN; write-then-read (privatizable).
    let u1 = b.binop(BinOp::Mul, Operand::Reg(j), Operand::ImmI(13));
    let u2 = b.binop(BinOp::Add, Operand::Reg(u1), Operand::Iter);
    let widx = b.binop(BinOp::Rem, Operand::Reg(u2), Operand::ImmI(W_LEN as i64));
    b.store(W, Operand::Reg(widx), Operand::Reg(p));
    let v = b.load(W, Operand::Reg(widx));
    b.binop_into(acc, BinOp::FAdd, Operand::Reg(acc), Operand::Reg(v));
    // Pairwise force evaluation (distance, cutoff, accumulation).
    b.compute(6);
    b.binop_into(j, BinOp::Add, Operand::Reg(j), Operand::ImmI(1));
    b.jmp(top);
    b.bind(done);
    b.store(OUT, Operand::Iter, Operand::Reg(acc));
    b.compute(12);
    let body = b.build().expect("p3m body verifies");

    let mut plan = TestPlan::new();
    if force_failure {
        plan.set(W, SpecVariant::NonPriv);
    } else {
        plan.set(W, SpecVariant::Priv3);
    }

    LoopSpec {
        name: format!("p3m{}", if force_failure { "!fail" } else { "" }),
        body,
        iters,
        arrays: vec![
            ArrayDecl::with_init(POS, ElemSize::W4, pos_init),
            ArrayDecl::zeroed(W, W_LEN, ElemSize::W4),
            ArrayDecl::zeroed(OUT, iters, ElemSize::W4),
            ArrayDecl::with_init(NB, ElemSize::W4, nb_init),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Dynamic { block: 4 },
        live_after: vec![OUT],
        // The paper's full P3m runs 97,336 iterations — beyond 16-bit
        // stamps, needing §3.3's periodic resynchronization. We mirror
        // that at `Full` scale (15,000 iterations → two 8K-iteration
        // windows); smaller scales run unwindowed.
        stamp_window: if iters > (1 << 13) {
            Some(1 << 13)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_machine::{run_scenario, Scenario, SwVariant};

    #[test]
    fn privatized_instance_passes_and_matches_serial() {
        let spec = instance(120, false);
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert!(hw.final_image.same_contents(&serial.final_image, &[OUT]));
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
        assert!(sw.final_image.same_contents(&serial.final_image, &[OUT]));
    }

    #[test]
    fn forced_failure_without_privatization() {
        let spec = instance(80, true);
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(false), "shared workspace must conflict");
        assert!(hw.final_image.same_contents(&serial.final_image, &[OUT, W]));
        assert!(hw.iterations < 80, "HW aborts before completing");
    }

    #[test]
    fn neighbour_counts_are_imbalanced() {
        let spec = instance(500, false);
        let counts: Vec<i64> = spec.arrays[3]
            .init
            .iter()
            .map(|s| match s {
                Scalar::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max >= 60 && min <= 16, "imbalance profile: {min}..{max}");
    }

    #[test]
    fn dynamic_scheduling_declared() {
        let spec = instance(100, false);
        assert!(matches!(spec.schedule, ScheduleKind::Dynamic { .. }));
    }
}
