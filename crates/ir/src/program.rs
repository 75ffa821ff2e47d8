//! Programs, the builder API, and static verification.

use std::fmt;
use std::sync::Arc;

use crate::instr::{ArrayId, BinOp, Instr, Operand, Reg};

/// A verified straight-line-with-branches program: the body of one loop
/// iteration.
///
/// Construct with [`ProgramBuilder`]; [`ProgramBuilder::build`] verifies
/// branch targets and register usage so interpreters can execute without
/// bounds anxiety. A built program is immutable and shares its
/// instructions, so a clone (one per processor of a phase) copies a
/// pointer, not the instruction list.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Arc<[Instr]>,
    reg_count: u16,
}

impl Program {
    /// The instructions in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn instr(&self, pc: usize) -> Instr {
        self.instrs[pc]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of registers the program uses (max index + 1).
    pub fn reg_count(&self) -> u16 {
        self.reg_count
    }

    /// All array ids referenced by loads/stores, deduplicated, in first-use
    /// order. Useful for building memory layouts and dependence oracles.
    pub fn referenced_arrays(&self) -> Vec<ArrayId> {
        let mut seen = Vec::new();
        for i in self.instrs.iter() {
            let arr = match i {
                Instr::Load { arr, .. } | Instr::Store { arr, .. } => Some(*arr),
                _ => None,
            };
            if let Some(a) = arr {
                if !seen.contains(&a) {
                    seen.push(a);
                }
            }
        }
        seen
    }

    /// Whether the program ever stores to `arr`.
    pub fn writes_array(&self, arr: ArrayId) -> bool {
        self.instrs
            .iter()
            .any(|i| matches!(i, Instr::Store { arr: a, .. } if *a == arr))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:4}: {i}")?;
        }
        Ok(())
    }
}

/// Errors found when verifying a built program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A branch targets an instruction index past the end of the program.
    /// (Targeting exactly `len` is allowed: it means "fall off the end".)
    BranchOutOfRange {
        /// Instruction index of the offending branch.
        pc: usize,
        /// Its target.
        target: usize,
        /// Program length.
        len: usize,
    },
    /// An unresolved label remained at build time.
    UnboundLabel {
        /// The label index.
        label: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BranchOutOfRange { pc, target, len } => {
                write!(f, "branch at {pc} targets {target}, program length {len}")
            }
            VerifyError::UnboundLabel { label } => {
                write!(f, "label {label} was created but never bound")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A forward-reference label handed out by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Incremental program construction with automatic register allocation and
/// labels for forward branches.
///
/// # Examples
///
/// A conditional store (the `if (B1(i)) then A(L(i)) = …` pattern from the
/// paper's Figure 2):
///
/// ```
/// use specrt_ir::{ArrayId, Operand, ProgramBuilder};
///
/// let b1 = ArrayId(0);
/// let l = ArrayId(1);
/// let a = ArrayId(2);
/// let mut b = ProgramBuilder::new();
/// let cond = b.load(b1, Operand::Iter);
/// let skip = b.label();
/// b.bz(Operand::Reg(cond), skip);
/// let idx = b.load(l, Operand::Iter);
/// b.store(a, Operand::Reg(idx), Operand::ImmF(1.0));
/// b.bind(skip);
/// let prog = b.build().unwrap();
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    next_reg: u16,
    labels: Vec<Option<usize>>,
    // (pc, label) pairs to patch at build time.
    patches: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Allocates a fresh register.
    ///
    /// # Panics
    ///
    /// Panics after 256 registers; loop bodies that large should be split.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < 256, "out of IR registers");
        let r = Reg(self.next_reg as u8);
        self.next_reg += 1;
        r
    }

    /// Current instruction index (the PC the *next* pushed instruction gets).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Appends `compute n`.
    pub fn compute(&mut self, n: u32) -> &mut Self {
        self.push(Instr::Compute(n))
    }

    /// Appends a load into a fresh register and returns that register.
    pub fn load(&mut self, arr: ArrayId, idx: Operand) -> Reg {
        let dst = self.reg();
        self.push(Instr::Load { dst, arr, idx });
        dst
    }

    /// Appends a store.
    pub fn store(&mut self, arr: ArrayId, idx: Operand, src: Operand) -> &mut Self {
        self.push(Instr::Store { arr, idx, src })
    }

    /// Appends a move into a fresh register and returns it.
    pub fn mov(&mut self, src: Operand) -> Reg {
        let dst = self.reg();
        self.push(Instr::Mov { dst, src });
        dst
    }

    /// Appends a binary op into a fresh register and returns it.
    pub fn binop(&mut self, op: BinOp, a: Operand, b: Operand) -> Reg {
        let dst = self.reg();
        self.push(Instr::Bin { op, dst, a, b });
        dst
    }

    /// Appends a binary op into an existing register.
    pub fn binop_into(&mut self, dst: Reg, op: BinOp, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::Bin { op, dst, a, b })
    }

    /// Creates a label to be bound later with [`bind`](Self::bind).
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.instrs.len());
        self
    }

    /// Appends a branch-if-zero to `label`.
    pub fn bz(&mut self, cond: Operand, label: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), label.0));
        self.push(Instr::Bz { cond, target: 0 })
    }

    /// Appends a branch-if-nonzero to `label`.
    pub fn bnz(&mut self, cond: Operand, label: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), label.0));
        self.push(Instr::Bnz { cond, target: 0 })
    }

    /// Appends an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), label.0));
        self.push(Instr::Jmp { target: 0 })
    }

    /// Finalizes the program: patches labels and verifies branch targets.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if a label was never bound or a branch target
    /// lies beyond one-past-the-end.
    pub fn build(mut self) -> Result<Program, VerifyError> {
        for (pc, label) in &self.patches {
            let target = self.labels[*label].ok_or(VerifyError::UnboundLabel { label: *label })?;
            match &mut self.instrs[*pc] {
                Instr::Bz { target: t, .. }
                | Instr::Bnz { target: t, .. }
                | Instr::Jmp { target: t } => *t = target,
                other => unreachable!("patch points at non-branch {other:?}"),
            }
        }
        let len = self.instrs.len();
        for (pc, i) in self.instrs.iter().enumerate() {
            let target = match i {
                Instr::Bz { target, .. } | Instr::Bnz { target, .. } | Instr::Jmp { target } => {
                    Some(*target)
                }
                _ => None,
            };
            if let Some(t) = target {
                if t > len {
                    return Err(VerifyError::BranchOutOfRange { pc, target: t, len });
                }
            }
        }
        Ok(Program {
            instrs: self.instrs.into(),
            reg_count: self.next_reg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_sequential_registers() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.reg(), Reg(0));
        assert_eq!(b.reg(), Reg(1));
    }

    #[test]
    fn labels_patch_forward_branches() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bz(Operand::ImmI(0), l);
        b.compute(5);
        b.bind(l);
        b.compute(1);
        let p = b.build().unwrap();
        assert_eq!(
            p.instr(0),
            Instr::Bz {
                cond: Operand::ImmI(0),
                target: 2
            }
        );
    }

    #[test]
    fn labels_support_backward_branches() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.compute(1);
        b.bnz(Operand::ImmI(1), top);
        let p = b.build().unwrap();
        assert_eq!(
            p.instr(1),
            Instr::Bnz {
                cond: Operand::ImmI(1),
                target: 0
            }
        );
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jmp(l);
        assert_eq!(b.build(), Err(VerifyError::UnboundLabel { label: 0 }));
    }

    #[test]
    fn branch_to_end_is_allowed() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.jmp(end);
        b.bind(end);
        let p = b.build().unwrap();
        assert_eq!(p.instr(0), Instr::Jmp { target: 1 });
    }

    #[test]
    fn raw_out_of_range_branch_is_error() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Jmp { target: 99 });
        assert!(matches!(
            b.build(),
            Err(VerifyError::BranchOutOfRange { target: 99, .. })
        ));
    }

    #[test]
    fn referenced_arrays_dedupes_in_order() {
        let mut b = ProgramBuilder::new();
        let r = b.load(ArrayId(3), Operand::Iter);
        b.store(ArrayId(1), Operand::Iter, Operand::Reg(r));
        b.load(ArrayId(3), Operand::Iter);
        let p = b.build().unwrap();
        assert_eq!(p.referenced_arrays(), vec![ArrayId(3), ArrayId(1)]);
        assert!(p.writes_array(ArrayId(1)));
        assert!(!p.writes_array(ArrayId(3)));
    }

    #[test]
    fn display_lists_instructions() {
        let mut b = ProgramBuilder::new();
        b.compute(2);
        let p = b.build().unwrap();
        assert!(p.to_string().contains("compute 2"));
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }
}
