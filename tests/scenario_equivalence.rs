//! Cross-crate integration property: for randomly generated loops —
//! parallel or not — every execution strategy ends in the exact state a
//! serial execution produces, and the hardware verdict is sound with
//! respect to the ground-truth dependence oracle. Randomness comes from
//! the in-repo deterministic [`SplitMix64`] generator.

use specrt::engine::SplitMix64;
use specrt::ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt::machine::{run_scenario, ArrayDecl, LoopSpec, Scenario, ScheduleKind, SwVariant};
use specrt::mem::ElemSize;
use specrt::spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);
const KR: ArrayId = ArrayId(1);
const KW: ArrayId = ArrayId(2);
const WF: ArrayId = ArrayId(3);
const OUT: ArrayId = ArrayId(4);

/// Loop: v = A[KR[i]]; if WF[i] { A[KW[i]] = v + 1 }; OUT[i] = v.
/// The dependence structure is entirely in the generated index data.
fn build_spec(
    kr: Vec<i64>,
    kw: Vec<i64>,
    wf: Vec<bool>,
    elems: u64,
    schedule: ScheduleKind,
) -> LoopSpec {
    let iters = kr.len() as u64;
    let mut b = ProgramBuilder::new();
    let r = b.load(KR, Operand::Iter);
    let v = b.load(A, Operand::Reg(r));
    let f = b.load(WF, Operand::Iter);
    let skip = b.label();
    b.bz(Operand::Reg(f), skip);
    let w = b.load(KW, Operand::Iter);
    let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
    b.store(A, Operand::Reg(w), Operand::Reg(v2));
    b.bind(skip);
    b.store(OUT, Operand::Iter, Operand::Reg(v));
    b.compute(25);
    let body = b.build().unwrap();

    let mut plan = TestPlan::new();
    plan.set(A, SpecVariant::NonPriv);
    LoopSpec {
        name: "prop-loop".into(),
        body,
        iters,
        arrays: vec![
            ArrayDecl::with_init(
                A,
                ElemSize::W8,
                (0..elems).map(|i| Scalar::Float(i as f64)).collect(),
            ),
            ArrayDecl::with_init(KR, ElemSize::W8, kr.into_iter().map(Scalar::Int).collect()),
            ArrayDecl::with_init(KW, ElemSize::W8, kw.into_iter().map(Scalar::Int).collect()),
            ArrayDecl::with_init(
                WF,
                ElemSize::W8,
                wf.into_iter().map(|b| Scalar::Int(b as i64)).collect(),
            ),
            ArrayDecl::zeroed(OUT, iters, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule,
        live_after: vec![A, OUT],
        stamp_window: None,
    }
}

fn random_schedule(rng: &mut SplitMix64) -> ScheduleKind {
    match rng.below(3) {
        0 => ScheduleKind::Static,
        1 => ScheduleKind::BlockCyclic {
            block: rng.range(1, 4),
        },
        _ => ScheduleKind::Dynamic {
            block: rng.range(1, 4),
        },
    }
}

fn random_indices(
    rng: &mut SplitMix64,
    bound: u64,
    lo: u64,
    hi: u64,
) -> (Vec<i64>, Vec<i64>, Vec<bool>) {
    let kr: Vec<i64> = (0..rng.range(lo, hi))
        .map(|_| rng.below(bound) as i64)
        .collect();
    let kw_seed: Vec<i64> = (0..rng.range(lo, hi))
        .map(|_| rng.below(bound) as i64)
        .collect();
    let iters = kr.len().min(kw_seed.len());
    let wf: Vec<bool> = (0..iters).map(|_| rng.chance(0.5)).collect();
    (kr[..iters].to_vec(), kw_seed[..iters].to_vec(), wf)
}

/// Every strategy's final live state equals the serial state, regardless
/// of whether the loop is parallel.
#[test]
fn all_strategies_end_in_serial_state() {
    let mut rng = SplitMix64::new(0x5ce0_0001);
    for _case in 0..24 {
        let (kr, kw, wf) = random_indices(&mut rng, 12, 4, 24);
        let schedule = random_schedule(&mut rng);
        let spec = build_spec(kr, kw, wf, 12, schedule);

        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let live = [A, OUT];
        for scenario in [
            Scenario::Hw,
            Scenario::Sw(SwVariant::IterationWise),
            Scenario::Sw(SwVariant::ProcessorWise),
        ] {
            // Ideal on a non-parallel loop is undefined behaviour in the
            // paper, so it is not exercised here.
            let r = run_scenario(&spec, scenario, 4);
            assert!(
                r.final_image.same_contents(&serial.final_image, &live),
                "{scenario} diverged from serial (passed {:?}, {:?})",
                r.passed,
                r.failure
            );
        }
    }
}

/// Soundness: when the hardware scheme keeps the speculation, the loop
/// truly had no cross-processor conflict (per the schedule-independent
/// sufficient condition: read-only or single-writer-single-toucher).
#[test]
fn hw_pass_implies_no_conflict() {
    let mut rng = SplitMix64::new(0x5ce0_0002);
    for _case in 0..24 {
        let (kr, kw, wf) = random_indices(&mut rng, 10, 4, 20);
        let iters = kr.len();
        let spec = build_spec(kr.clone(), kw.clone(), wf.clone(), 10, ScheduleKind::Static);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        if hw.passed == Some(true) {
            // Derive the per-processor envelope under static chunking.
            let chunk = (iters as u64).div_ceil(4).max(1);
            let proc_of = |i: usize| (i as u64 / chunk) as u32;
            for e in 0..10i64 {
                let mut touch: std::collections::BTreeSet<u32> = Default::default();
                let mut wrote = false;
                for i in 0..iters {
                    if kr[i] == e {
                        touch.insert(proc_of(i));
                    }
                    if wf[i] && kw[i] == e {
                        touch.insert(proc_of(i));
                        wrote = true;
                    }
                }
                assert!(
                    touch.len() <= 1 || !wrote,
                    "HW passed but element {e} written and touched by {touch:?}"
                );
            }
        }
    }
}
