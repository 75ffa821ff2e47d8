//! Randomized tests: the LRPD test against the ground-truth dependence
//! oracle, and the instrumented-IR marking against the pure algorithm —
//! driven by the in-repo deterministic [`SplitMix64`] generator.

use specrt_engine::SplitMix64;
use specrt_ir::{
    execute_iteration, AccessKind, ArrayId, BinOp, MemOracle, Operand, Program, ProgramBuilder,
    Scalar,
};
use specrt_lrpd::{
    analyze_iteration_traces, instrument_for_proc, InstrumentConfig, LrpdOutcome, LrpdShadow,
    OracleVerdict, ShadowIds,
};
use specrt_mem::ProcId;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

/// One iteration's accesses: (element, is_write) in program order.
type IterTrace = Vec<(u64, bool)>;

fn random_traces(rng: &mut SplitMix64) -> Vec<IterTrace> {
    (0..rng.range(1, 8))
        .map(|_| {
            (0..rng.below(6))
                .map(|_| (rng.below(6), rng.chance(0.5)))
                .collect()
        })
        .collect()
}

fn mark_all(traces: &[IterTrace]) -> LrpdShadow {
    let mut sh = LrpdShadow::new(6);
    for (i, t) in traces.iter().enumerate() {
        let iter = i as u64 + 1;
        for &(e, w) in t {
            if w {
                sh.mark_write(e, iter);
            } else {
                sh.mark_read(e, iter);
            }
        }
    }
    sh
}

fn to_oracle(traces: &[IterTrace]) -> Vec<Vec<(u64, AccessKind)>> {
    traces
        .iter()
        .map(|t| {
            t.iter()
                .map(|&(e, w)| {
                    (
                        e,
                        if w {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    )
                })
                .collect()
        })
        .collect()
}

/// LRPD without privatization passes exactly the loops the oracle calls
/// DoallNoPriv.
#[test]
fn lrpd_nopriv_equals_oracle() {
    let mut rng = SplitMix64::new(0x14bd_0001);
    for _case in 0..256 {
        let traces = random_traces(&mut rng);
        let sh = mark_all(&traces);
        let verdict = analyze_iteration_traces(&to_oracle(&traces));
        let lrpd_ok = sh.analyze(false) == LrpdOutcome::DoallNoPriv;
        assert_eq!(
            lrpd_ok,
            verdict == OracleVerdict::DoallNoPriv,
            "traces {traces:?}"
        );
    }
}

/// LRPD with privatization passes exactly the loops the oracle calls
/// DoallNoPriv or DoallPriv (basic privatization, no read-in).
#[test]
fn lrpd_priv_equals_oracle() {
    let mut rng = SplitMix64::new(0x14bd_0002);
    for _case in 0..256 {
        let traces = random_traces(&mut rng);
        let sh = mark_all(&traces);
        let verdict = analyze_iteration_traces(&to_oracle(&traces));
        let lrpd_ok = sh.analyze(true).passed();
        assert_eq!(lrpd_ok, verdict.priv_ok(), "traces {traces:?}");
    }
}

/// The privatized verdict is monotone: whatever passes without
/// privatization also passes with it.
#[test]
fn privatization_only_helps() {
    let mut rng = SplitMix64::new(0x14bd_0003);
    for _case in 0..256 {
        let traces = random_traces(&mut rng);
        let sh = mark_all(&traces);
        if sh.analyze(false) == LrpdOutcome::DoallNoPriv {
            assert!(sh.analyze(true).passed());
        }
    }
}

/// Merging per-processor shadows is equivalent to marking globally when
/// iterations are partitioned across processors.
#[test]
fn merge_equals_global_marking() {
    let mut rng = SplitMix64::new(0x14bd_0004);
    for _case in 0..256 {
        let traces = random_traces(&mut rng);
        let procs = rng.range(1, 4) as usize;
        let global = mark_all(&traces);
        let mut shadows = vec![LrpdShadow::new(6); procs];
        for (i, t) in traces.iter().enumerate() {
            let iter = i as u64 + 1;
            let p = i % procs;
            for &(e, w) in t {
                if w {
                    shadows[p].mark_write(e, iter);
                } else {
                    shadows[p].mark_read(e, iter);
                }
            }
        }
        let mut merged = LrpdShadow::new(6);
        for sh in &shadows {
            merged.merge(sh);
        }
        assert_eq!(merged.analyze(true), global.analyze(true));
        assert_eq!(merged.analyze(false), global.analyze(false));
        assert_eq!(merged.atw(), global.atw());
        assert_eq!(merged.atm(), global.atm());
    }
}

// ----------------------------------------------------------------------
// Instrumented-IR marking vs. pure algorithm
// ----------------------------------------------------------------------

#[derive(Default)]
struct Mem(std::collections::HashMap<(ArrayId, u64), Scalar>);

impl MemOracle for Mem {
    fn read(&mut self, arr: ArrayId, idx: u64) -> Scalar {
        self.0.get(&(arr, idx)).copied().unwrap_or(Scalar::ZERO)
    }
    fn write(&mut self, arr: ArrayId, idx: u64, value: Scalar) {
        self.0.insert((arr, idx), value);
    }
}

const A: ArrayId = ArrayId(0);
const K: ArrayId = ArrayId(1);
const WF: ArrayId = ArrayId(2);

/// A loop body whose iteration reads `A[K[2i]]` and (conditionally on
/// `WF[i]`) writes `A[K[2i+1]]` — enough to produce arbitrary single-read/
/// single-write iteration traces from the generated index data.
fn generic_body() -> Program {
    let mut b = ProgramBuilder::new();
    let i2 = b.binop(BinOp::Mul, Operand::Iter, Operand::ImmI(2));
    let ridx = b.load(K, Operand::Reg(i2));
    let v = b.load(A, Operand::Reg(ridx));
    let wf = b.load(WF, Operand::Iter);
    let skip = b.label();
    b.bz(Operand::Reg(wf), skip);
    let i21 = b.binop(BinOp::Add, Operand::Reg(i2), Operand::ImmI(1));
    let widx = b.load(K, Operand::Reg(i21));
    let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
    b.store(A, Operand::Reg(widx), Operand::Reg(v2));
    b.bind(skip);
    b.build().unwrap()
}

fn random_kvals_wflags(rng: &mut SplitMix64) -> (Vec<i64>, Vec<bool>) {
    let kvals: Vec<i64> = (0..rng.range(2, 16)).map(|_| rng.below(6) as i64).collect();
    let wflags: Vec<bool> = (0..8).map(|_| rng.chance(0.5)).collect();
    (kvals, wflags)
}

/// Executing the instrumented body leaves shadow memory whose observable
/// predicates (A_w, A_r, A_np, Atw) agree with the pure reference marking
/// the same accesses.
#[test]
fn instrumented_marks_agree_with_reference() {
    let mut rng = SplitMix64::new(0x14bd_0005);
    for _case in 0..64 {
        let (kvals, wflags) = random_kvals_wflags(&mut rng);
        let iters = (kvals.len() / 2) as u64;
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let cfg = InstrumentConfig {
            plan,
            numbering: IterationNumbering::iteration_wise(),
            bitmap: false,
        };
        let prog = instrument_for_proc(&generic_body(), &cfg, ProcId(0));

        let mut mem = Mem::default();
        for (i, &k) in kvals.iter().enumerate() {
            mem.write(K, i as u64, Scalar::Int(k));
        }
        for (i, &f) in wflags.iter().enumerate() {
            mem.write(WF, i as u64, Scalar::Int(f as i64));
        }
        let mut reference = LrpdShadow::new(6);
        for i in 0..iters {
            execute_iteration(&prog, i, 0, &mut mem).unwrap();
            let iter = i + 1;
            reference.mark_read(kvals[(2 * i) as usize] as u64, iter);
            if wflags[i as usize % 8] {
                reference.mark_write(kvals[(2 * i + 1) as usize] as u64, iter);
            }
        }

        let ids = ShadowIds::new(A, ProcId(0));
        for e in 0..6u64 {
            let w = mem.read(ids.w_last(), e).as_int() as u64;
            let rc = mem.read(ids.r_cur(), e).as_int() as u64;
            let rs = mem.read(ids.r_sticky(), e).as_int() != 0;
            let np = mem.read(ids.np(), e).as_int() != 0;
            assert_eq!(w != 0, reference.a_w(e), "A_w[{e}]");
            assert_eq!(rs || rc != 0, reference.a_r(e), "A_r[{e}]");
            assert_eq!(np, reference.a_np(e), "A_np[{e}]");
        }
        let atw = mem.read(ids.counters(), 0).as_int() as u64;
        assert_eq!(atw, reference.atw());
    }
}

/// The bitmap (processor-wise) instrumentation marks the same
/// A_w/A_r/A_np predicates as a reference shadow where the whole processor
/// execution counts as one superiteration.
#[test]
fn bitmap_marks_agree_with_superiteration_reference() {
    let mut rng = SplitMix64::new(0x14bd_0006);
    for _case in 0..64 {
        let (kvals, wflags) = random_kvals_wflags(&mut rng);
        let iters = (kvals.len() / 2) as u64;
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let cfg = InstrumentConfig {
            plan,
            numbering: IterationNumbering::processor_wise(iters, 1),
            bitmap: true,
        };
        let prog = instrument_for_proc(&generic_body(), &cfg, ProcId(0));

        let mut mem = Mem::default();
        for (i, &k) in kvals.iter().enumerate() {
            mem.write(K, i as u64, Scalar::Int(k));
        }
        for (i, &f) in wflags.iter().enumerate() {
            mem.write(WF, i as u64, Scalar::Int(f as i64));
        }
        // Reference: all iterations share stamp 1 (one superiteration).
        let mut reference = LrpdShadow::new(6);
        for i in 0..iters {
            execute_iteration(&prog, i, 0, &mut mem).unwrap();
            reference.mark_read(kvals[(2 * i) as usize] as u64, 1);
            if wflags[i as usize % 8] {
                reference.mark_write(kvals[(2 * i + 1) as usize] as u64, 1);
            }
        }
        let ids = ShadowIds::new(A, ProcId(0));
        let aw = mem.read(ids.w_last(), 0).as_int() as u64;
        let ar = mem.read(ids.r_cur(), 0).as_int() as u64;
        let anp = mem.read(ids.np(), 0).as_int() as u64;
        for e in 0..6u64 {
            let bit = 1u64 << e;
            assert_eq!(aw & bit != 0, reference.a_w(e), "A_w[{e}]");
            assert_eq!(ar & bit != 0, reference.a_r(e), "A_r[{e}]");
            assert_eq!(anp & bit != 0, reference.a_np(e), "A_np[{e}]");
        }
    }
}
