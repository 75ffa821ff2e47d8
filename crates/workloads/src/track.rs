//! Track — `nlfilt.do300` (§5.2).
//!
//! Paper facts reproduced: 56 invocations averaging ~480 iterations, four
//! arrays under the non-privatization schemes with 4- and 8-byte elements,
//! the fraction of accesses to the tested arrays varying from 0% to 44%
//! across invocations, load imbalance (so the hardware scheme uses
//! dynamically-scheduled small blocks while the processor-wise software
//! test is stuck with static scheduling), and — crucially — **5 of the 56
//! invocations are not fully parallel**: adjacent iterations touch the same
//! element, so the iteration-wise software test fails while the
//! processor-wise software test and the hardware scheme (with block
//! scheduling keeping adjacent iterations on one processor) pass.

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind, SwVariant};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

use crate::common::{permutation, rng_for, Scale, Workload};

/// The four tested arrays (track state, 4- and 8-byte elements).
pub const A0: ArrayId = ArrayId(0);
/// Second tested array.
pub const A1: ArrayId = ArrayId(1);
/// Third tested array.
pub const A2: ArrayId = ArrayId(2);
/// Fourth tested array.
pub const A3: ArrayId = ArrayId(3);
/// Per-iteration target indices.
pub const IDX: ArrayId = ArrayId(4);
/// Per-iteration filter work counts (imbalance).
pub const CNT: ArrayId = ArrayId(5);
/// Large read-only filter data (the untested fraction of accesses).
pub const WORK: ArrayId = ArrayId(6);
/// Per-iteration output (analyzable, not under test).
pub const OUT: ArrayId = ArrayId(7);
/// Per-iteration condition: whether the iteration touches tested arrays.
pub const FLAG: ArrayId = ArrayId(8);

const TESTED_LEN: u64 = 640;
const WORK_LEN: u64 = 4096;
const TAG: u64 = 4;

/// The Track workload at `scale` (16 processors). One in eleven
/// invocations is a not-fully-parallel instance (5 of 56 at full scale,
/// like the paper).
pub fn workload(scale: Scale) -> Workload {
    let invocations = scale.pick(4, 14, 56);
    let specs = (0..invocations)
        .map(|inv| instance(inv, inv % 11 == 3))
        .collect();
    Workload {
        name: "track",
        paper_loop: "nlfilt.do300",
        procs: 16,
        invocations: specs,
        // Figure 13 runs "the iteration-wise tests on the loop
        // instantiation that needs processor-wise tests to pass": block-1
        // dynamic scheduling splits the colliding pairs across processors,
        // so the hardware test fails too.
        failure_instance: {
            let mut s = instance(3, true);
            s.schedule = ScheduleKind::Dynamic { block: 1 };
            s
        },
        sw_variant: SwVariant::ProcessorWise,
    }
}

/// One invocation. With `paired`, ~10% of adjacent iteration pairs
/// `(2k, 2k+1)` collide on an element (the not-fully-parallel instances).
pub fn instance(inv: u64, paired: bool) -> LoopSpec {
    let mut rng = rng_for(TAG, inv);
    let iters = 360 + (inv % 5) * 60; // ~480 on average
                                      // iters <= 600 < TESTED_LEN (640), so the permutation maps injectively
                                      // into the tested arrays: parallel instances never collide.
    let sigma = permutation(&mut rng, iters);
    let mut idx_init: Vec<Scalar> = sigma.iter().map(|&s| Scalar::Int(s as i64)).collect();
    // "The fraction of accesses to these arrays changes from 0% to 44%."
    let density = (inv % 8) as f64 / 8.0;
    let mut flag_init: Vec<Scalar> = (0..iters)
        .map(|_| Scalar::Int(rng.chance(density) as i64))
        .collect();
    if paired {
        for k in 0..(iters / 2) {
            if rng.chance(0.1) {
                idx_init[(2 * k + 1) as usize] = idx_init[(2 * k) as usize];
                flag_init[(2 * k) as usize] = Scalar::Int(1);
                flag_init[(2 * k + 1) as usize] = Scalar::Int(1);
            }
        }
    }
    // Imbalanced filter work.
    let cnt_init: Vec<Scalar> = (0..iters)
        .map(|_| {
            let c = if rng.chance(0.2) {
                rng.range(30, 80)
            } else {
                rng.range(2, 12)
            };
            Scalar::Int(c as i64)
        })
        .collect();
    let work_init: Vec<Scalar> = (0..WORK_LEN)
        .map(|i| Scalar::Float((i as f64 * 0.11).cos()))
        .collect();

    let mut b = ProgramBuilder::new();
    // Untested filter work: acc = sum over CNT[iter] reads of WORK.
    let cnt = b.load(CNT, Operand::Iter);
    let j = b.mov(Operand::ImmI(0));
    let acc = b.mov(Operand::ImmF(0.0));
    let top = b.label();
    let done = b.label();
    b.bind(top);
    let c = b.binop(BinOp::CmpLt, Operand::Reg(j), Operand::Reg(cnt));
    b.bz(Operand::Reg(c), done);
    let w1 = b.binop(BinOp::Mul, Operand::Iter, Operand::ImmI(13));
    let w2 = b.binop(BinOp::Add, Operand::Reg(w1), Operand::Reg(j));
    let widx = b.binop(BinOp::Rem, Operand::Reg(w2), Operand::ImmI(WORK_LEN as i64));
    let wv = b.load(WORK, Operand::Reg(widx));
    b.binop_into(acc, BinOp::FAdd, Operand::Reg(acc), Operand::Reg(wv));
    b.binop_into(j, BinOp::Add, Operand::Reg(j), Operand::ImmI(1));
    b.jmp(top);
    b.bind(done);
    // Conditionally update the four tested arrays at IDX[iter].
    let flag = b.load(FLAG, Operand::Iter);
    let skip = b.label();
    b.bz(Operand::Reg(flag), skip);
    let t = b.load(IDX, Operand::Iter);
    for arr in [A0, A1, A2, A3] {
        let v = b.load(arr, Operand::Reg(t));
        let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::Reg(acc));
        b.store(arr, Operand::Reg(t), Operand::Reg(v2));
    }
    b.bind(skip);
    b.store(OUT, Operand::Iter, Operand::Reg(acc));
    b.compute(8);
    let body = b.build().expect("track body verifies");

    let mut plan = TestPlan::new();
    for arr in [A0, A1, A2, A3] {
        plan.set(arr, SpecVariant::NonPriv);
    }

    let tested_init = |scale: f64| -> Vec<Scalar> {
        (0..TESTED_LEN)
            .map(|i| Scalar::Float(i as f64 * scale))
            .collect()
    };

    LoopSpec {
        name: format!("track#{inv}{}", if paired { "!pairs" } else { "" }),
        body,
        iters,
        arrays: vec![
            ArrayDecl::with_init(A0, ElemSize::W4, tested_init(0.1)),
            ArrayDecl::with_init(A1, ElemSize::W8, tested_init(0.2)),
            ArrayDecl::with_init(A2, ElemSize::W4, tested_init(0.3)),
            ArrayDecl::with_init(A3, ElemSize::W8, tested_init(0.4)),
            ArrayDecl::with_init(IDX, ElemSize::W8, idx_init),
            ArrayDecl::with_init(CNT, ElemSize::W4, cnt_init),
            ArrayDecl::with_init(WORK, ElemSize::W8, work_init),
            ArrayDecl::zeroed(OUT, iters, ElemSize::W8),
            ArrayDecl::with_init(FLAG, ElemSize::W4, flag_init),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        // "The plain dynamically-scheduled hardware scheme passes all loops
        // if the iterations are scheduled in blocks of a few iterations
        // each": aligned blocks of 4 keep the colliding pairs together.
        schedule: ScheduleKind::Dynamic { block: 4 },
        live_after: vec![A0, A1, A2, A3],
        stamp_window: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_machine::{run_scenario, Scenario, SwVariant};

    const TESTED: [ArrayId; 4] = [A0, A1, A2, A3];

    #[test]
    fn parallel_instance_passes_everywhere() {
        let spec = instance(1, false);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert!(hw.final_image.same_contents(&serial.final_image, &TESTED));
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 8);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
    }

    #[test]
    fn paired_instance_fails_iteration_wise_but_passes_coarser_tests() {
        let spec = instance(3, true);
        let iw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 8);
        assert_eq!(iw.passed, Some(false), "iteration-wise must fail");
        let pw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 8);
        assert_eq!(pw.passed, Some(true), "{:?}", pw.failure);
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    }

    #[test]
    fn paired_instance_final_state_correct_either_way() {
        let spec = instance(3, true);
        let serial = run_scenario(&spec, Scenario::Serial, 8);
        let iw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 8);
        assert!(iw.final_image.same_contents(&serial.final_image, &TESTED));
        let hw = run_scenario(&spec, Scenario::Hw, 8);
        assert!(hw.final_image.same_contents(&serial.final_image, &TESTED));
    }

    #[test]
    fn tested_access_fraction_varies() {
        // Invocation 0 has density 0 (no tested accesses); invocation 7 has
        // the highest density.
        let f0: i64 = instance(0, false).arrays[8]
            .init
            .iter()
            .map(|s| s.as_int())
            .sum();
        let f7: i64 = instance(7, false).arrays[8]
            .init
            .iter()
            .map(|s| s.as_int())
            .sum();
        assert_eq!(f0, 0);
        assert!(f7 > 100);
    }

    #[test]
    fn five_of_fiftysix_fail_at_full_scale() {
        let paired: Vec<u64> = (0..56).filter(|i| i % 11 == 3).collect();
        assert_eq!(paired.len(), 5);
    }
}
