//! Synthetic conflict-density loops.
//!
//! §2.2.4 of the paper: "the compiler can use heuristics and statistics
//! about the parallelization success-rate in previous executions and
//! automatically decide when run-time parallelization can be profitable."
//! This module provides the knob that discussion needs: a family of loops
//! whose probability of being parallel is controlled by a conflict-density
//! parameter, used by the profitability sweep in
//! `specrt_core::experiments::extension_density_jobs` and by stress tests.

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind, SwVariant};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

use crate::common::{permutation, rng_for};

/// The updated array (under the non-privatization test).
pub const A: ArrayId = ArrayId(0);
/// Per-iteration target indices.
pub const IDX: ArrayId = ArrayId(1);
/// Per-iteration output (not under test).
pub const OUT: ArrayId = ArrayId(2);

const TAG: u64 = 9;

/// A read-modify-write loop over `A[IDX[i]]` where, with probability
/// `density`, an iteration's target duplicates another iteration's —
/// creating a cross-iteration dependence that is a cross-*processor*
/// dependence whenever the two iterations land on different chunks.
///
/// `density == 0.0` is always parallel; density `1.0` conflicts almost
/// surely. `seed` varies the instance.
///
/// # Panics
///
/// Panics if `density` is outside `[0, 1]`.
pub fn conflict_loop(iters: u64, density: f64, seed: u64) -> LoopSpec {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = rng_for(TAG, seed);
    let sigma = permutation(&mut rng, iters);
    let mut idx: Vec<u64> = sigma;
    for i in 0..iters as usize {
        if rng.chance(density) {
            // Duplicate a uniformly random other iteration's target.
            let victim = rng.below(iters) as usize;
            idx[i] = idx[victim];
        }
    }
    let idx_init: Vec<Scalar> = idx.iter().map(|&v| Scalar::Int(v as i64)).collect();

    let mut b = ProgramBuilder::new();
    let t = b.load(IDX, Operand::Iter);
    let v = b.load(A, Operand::Reg(t));
    let v2 = b.binop(BinOp::FMul, Operand::Reg(v), Operand::ImmF(1.0625));
    let v3 = b.binop(BinOp::FAdd, Operand::Reg(v2), Operand::ImmF(0.25));
    b.store(A, Operand::Reg(t), Operand::Reg(v3));
    b.store(OUT, Operand::Iter, Operand::Reg(v3));
    b.compute(60);
    let body = b.build().expect("conflict loop verifies");

    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    LoopSpec {
        name: format!("synth-density-{density:.2}#{seed}"),
        body,
        iters,
        arrays: vec![
            ArrayDecl::with_init(
                A,
                ElemSize::W8,
                (0..iters).map(|i| Scalar::Float(i as f64)).collect(),
            ),
            ArrayDecl::with_init(IDX, ElemSize::W8, idx_init),
            ArrayDecl::zeroed(OUT, iters, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A, OUT],
        stamp_window: None,
    }
}

/// The software variant to compare against for this family.
pub const SW_VARIANT: SwVariant = SwVariant::ProcessorWise;

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_machine::{run_scenario, Scenario};

    #[test]
    fn zero_density_is_parallel() {
        let spec = conflict_loop(64, 0.0, 1);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    }

    #[test]
    fn high_density_fails_and_recovers() {
        let spec = conflict_loop(64, 0.9, 1);
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(false));
        assert!(hw.final_image.same_contents(&serial.final_image, &[A, OUT]));
    }

    #[test]
    fn instances_vary_with_seed() {
        let a = conflict_loop(32, 0.5, 1);
        let b = conflict_loop(32, 0.5, 2);
        assert_ne!(a.arrays[1].init, b.arrays[1].init);
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn bad_density_rejected() {
        conflict_loop(8, 1.5, 0);
    }
}
