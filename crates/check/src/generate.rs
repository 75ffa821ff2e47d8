//! Random loop generation for the differential fuzzer.
//!
//! A [`CaseSpec`] is a tiny, fully explicit description of one
//! subscripted-subscript loop: how many processors, how many elements of the
//! array under test, the iteration schedule, and the exact sequence of
//! reads/writes each iteration performs. It deterministically expands to a
//! [`LoopSpec`] whose body is a chain of `iter == i` branches, so the same
//! seed always produces the same machine-visible access stream.
//!
//! Seeds 0..[`TEMPLATE_SEEDS`] are hand-written templates covering the
//! degenerate shapes `tests/edge_cases.rs` also pins down (0-iteration loop,
//! single-element array, all processors hammering one element, write-only
//! loop, …); larger seeds are drawn from [`SplitMix64`].

use specrt_engine::SplitMix64;
use specrt_ir::{ArrayId, BinOp, Operand, Program, ProgramBuilder};
use specrt_machine::{ArrayDecl, LoopSpec, ScheduleKind};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

/// The array under the run-time test.
pub const ARR_A: ArrayId = ArrayId(0);
/// A plain per-iteration output array (keeps every iteration observable in
/// the final memory image even when it never touches [`ARR_A`]).
pub const ARR_OUT: ArrayId = ArrayId(1);

/// Number of hand-written template seeds preceding the random ones.
pub const TEMPLATE_SEEDS: u64 = 9;

/// One access to the array under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load element `.0` into the running accumulator.
    Read(u64),
    /// Store a value derived from the accumulator to element `.0`.
    Write(u64),
}

/// A generated test case: the access pattern of one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Seed this case was generated from (0 after shrinking).
    pub seed: u64,
    /// Processor count.
    pub procs: u32,
    /// Length of the array under test.
    pub elems: u64,
    /// Iteration schedule.
    pub schedule: ScheduleKind,
    /// `ops[i]` = ordered accesses of iteration `i`.
    pub ops: Vec<Vec<Op>>,
}

impl CaseSpec {
    /// Iteration count.
    pub fn iters(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Total number of accesses to the array under test (the size metric
    /// the shrinker minimizes).
    pub fn accesses(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Static iteration→processor assignment, or `None` for dynamic
    /// schedules (whose assignment depends on timing).
    pub fn assignment(&self) -> Option<Vec<u32>> {
        let iters = self.iters();
        match self.schedule {
            ScheduleKind::Static => {
                let chunk = iters.div_ceil(self.procs as u64).max(1);
                Some(
                    (0..iters)
                        .map(|i| ((i / chunk) as u32).min(self.procs - 1))
                        .collect(),
                )
            }
            ScheduleKind::BlockCyclic { block } => Some(
                (0..iters)
                    .map(|i| ((i / block) % self.procs as u64) as u32)
                    .collect(),
            ),
            ScheduleKind::Dynamic { .. } => None,
        }
    }

    /// Expands the case to a full loop body program.
    ///
    /// Each iteration `i` runs its own `ops[i]` sequence: reads fold the
    /// loaded value into an accumulator, writes store `acc + c(i,k,e)` for a
    /// per-site constant, and every iteration ends by storing the
    /// accumulator to `ARR_OUT[i]`. Distinct write sites store distinct
    /// values, so a mis-ordered execution is visible in the final image.
    pub fn body(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let acc = b.mov(Operand::ImmI(0));
        let done = b.label();
        for (i, iter_ops) in self.ops.iter().enumerate() {
            let skip = b.label();
            let is_i = b.binop(BinOp::CmpEq, Operand::Iter, Operand::ImmI(i as i64));
            b.bz(Operand::Reg(is_i), skip);
            for (k, op) in iter_ops.iter().enumerate() {
                match *op {
                    Op::Read(e) => {
                        let v = b.load(ARR_A, Operand::ImmI(e as i64));
                        b.binop_into(acc, BinOp::Add, Operand::Reg(acc), Operand::Reg(v));
                    }
                    Op::Write(e) => {
                        let c = (i as i64) * 131 + (k as i64) * 17 + e as i64 + 1;
                        let v = b.binop(BinOp::Add, Operand::Reg(acc), Operand::ImmI(c));
                        b.store(ARR_A, Operand::ImmI(e as i64), Operand::Reg(v));
                    }
                }
            }
            b.store(ARR_OUT, Operand::Iter, Operand::Reg(acc));
            b.jmp(done);
            b.bind(skip);
        }
        b.store(ARR_OUT, Operand::Iter, Operand::Reg(acc));
        b.bind(done);
        b.build().expect("generated program is well-formed")
    }

    /// Expands the case to a [`LoopSpec`] putting [`ARR_A`] under
    /// `protocol`. `live` controls whether `ARR_A` is in `live_after`
    /// (read-in-free privatization requires it dead after the loop).
    pub fn loop_spec(&self, protocol: SpecVariant, live: bool) -> LoopSpec {
        let mut plan = TestPlan::new();
        plan.set(ARR_A, protocol);
        let mut live_after = vec![ARR_OUT];
        if live {
            live_after.insert(0, ARR_A);
        }
        LoopSpec {
            name: format!("fuzz/seed{:#x}", self.seed),
            body: self.body(),
            iters: self.iters(),
            arrays: vec![
                ArrayDecl::zeroed(ARR_A, self.elems, ElemSize::W8),
                ArrayDecl::zeroed(ARR_OUT, self.iters().max(1), ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: self.schedule,
            live_after,
            stamp_window: None,
        }
    }

    /// Generates the case for `seed`: a template for small seeds, random
    /// otherwise.
    pub fn generate(seed: u64) -> CaseSpec {
        if seed < TEMPLATE_SEEDS {
            return template(seed);
        }
        let mut rng = SplitMix64::new(seed);
        let procs = 2 + rng.below(3) as u32;
        let elems = 1 + rng.below(6);
        let schedule = match rng.below(4) {
            0 | 1 => ScheduleKind::Static,
            2 => ScheduleKind::BlockCyclic {
                block: 1 + rng.below(2),
            },
            _ => ScheduleKind::Dynamic {
                block: 1 + rng.below(2),
            },
        };
        let iters = rng.below(11);
        let ops = (0..iters)
            .map(|_| {
                (0..rng.below(4))
                    .map(|_| {
                        let e = rng.below(elems);
                        if rng.chance(0.5) {
                            Op::Read(e)
                        } else {
                            Op::Write(e)
                        }
                    })
                    .collect()
            })
            .collect();
        CaseSpec {
            seed,
            procs,
            elems,
            schedule,
            ops,
        }
    }
}

/// The hand-written template cases for seeds `0..TEMPLATE_SEEDS`.
fn template(seed: u64) -> CaseSpec {
    use Op::{Read, Write};
    let (procs, elems, schedule, ops): (u32, u64, ScheduleKind, Vec<Vec<Op>>) = match seed {
        // 0-iteration loop: nothing runs, everything must trivially pass.
        0 => (2, 2, ScheduleKind::Static, vec![]),
        // Single-element array, read-only.
        1 => (2, 1, ScheduleKind::Static, vec![vec![Read(0)]; 4]),
        // All processors hammering one element with reads and writes.
        2 => (4, 1, ScheduleKind::Static, vec![vec![Read(0), Write(0)]; 8]),
        // Write-only loop (no flow dependences, only output deps).
        3 => (
            3,
            4,
            ScheduleKind::Static,
            (0..6).map(|i| vec![Write(i % 4)]).collect(),
        ),
        // Fully disjoint per-iteration elements: must pass everywhere.
        4 => (
            2,
            4,
            ScheduleKind::Static,
            (0..4).map(|i| vec![Read(i), Write(i)]).collect(),
        ),
        // Workspace pattern (write then read the same element each
        // iteration): privatizable, not a non-priv doall.
        5 => (2, 2, ScheduleKind::Static, vec![vec![Write(0), Read(0)]; 6]),
        // The injected-fault trigger: two processors read element 0, then
        // the First processor writes it — legal only if ROnly is ignored.
        6 => (
            2,
            2,
            ScheduleKind::Static,
            vec![vec![Read(0)], vec![Write(0)], vec![Read(0)], vec![]],
        ),
        // Cross-processor flow dependence through element 1.
        7 => (
            2,
            2,
            ScheduleKind::BlockCyclic { block: 1 },
            vec![vec![Write(1)], vec![], vec![], vec![Read(1)]],
        ),
        // Hide-a-conflict window (ROADMAP item 5). The array's home is
        // cpu0's node, so cpu1's update messages are the slow leg: cpu1
        // misses line 0 via element 1, then hit-reads element 0 on the
        // clean resident line — that element's First_update is now in
        // flight for a cross-network delay. cpu0, delayed past the fill by
        // four read misses on far lines, exclusive-upgrades line 0 through
        // the untouched element 2 while the update is still traveling (the
        // granted tags show element 0 untouched), then silently
        // dirty-hit-writes element 0 — no message, because the line is
        // dirty. The update lands afterwards and is accepted: directory
        // says First(cpu1), cpu0's cache says Own+NoShr, and no prompt
        // check ever sees both. Only merging the dirty line's tags into
        // the directory before the verdict is read exposes the conflict.
        8 => (
            2,
            64,
            ScheduleKind::Static,
            vec![
                vec![Read(32), Read(40), Read(48), Read(56), Write(2), Write(0)],
                vec![Read(1), Read(0)],
            ],
        ),
        _ => unreachable!("template seeds are 0..TEMPLATE_SEEDS"),
    };
    CaseSpec {
        seed,
        procs,
        elems,
        schedule,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 3, 7, 8, 42, 0x5eed] {
            let a = CaseSpec::generate(seed);
            let b = CaseSpec::generate(seed);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.procs, b.procs);
            assert_eq!(a.elems, b.elems);
        }
    }

    #[test]
    fn templates_cover_required_degenerate_shapes() {
        // 0-iteration loop.
        assert_eq!(CaseSpec::generate(0).iters(), 0);
        // Single-element array.
        assert_eq!(CaseSpec::generate(1).elems, 1);
        // All processors hammering one element.
        let hammer = CaseSpec::generate(2);
        assert_eq!(hammer.elems, 1);
        assert!(hammer.procs >= 4);
        // Write-only loop.
        assert!(CaseSpec::generate(3)
            .ops
            .iter()
            .flatten()
            .all(|o| matches!(o, Op::Write(_))));
    }

    #[test]
    fn static_assignment_matches_chunking() {
        let c = CaseSpec {
            seed: 0,
            procs: 2,
            elems: 1,
            schedule: ScheduleKind::Static,
            ops: vec![vec![]; 4],
        };
        assert_eq!(c.assignment().unwrap(), vec![0, 0, 1, 1]);
        let bc = CaseSpec {
            schedule: ScheduleKind::BlockCyclic { block: 1 },
            ..c
        };
        assert_eq!(bc.assignment().unwrap(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn body_indexes_stay_in_bounds() {
        for seed in 0..40 {
            let c = CaseSpec::generate(seed);
            for ops in &c.ops {
                for op in ops {
                    let (Op::Read(e) | Op::Write(e)) = op;
                    assert!(*e < c.elems, "seed {seed}: element {e} out of bounds");
                }
            }
        }
    }
}
