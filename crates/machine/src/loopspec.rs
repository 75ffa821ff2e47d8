//! Loop specifications: everything the runtime needs to know about one
//! candidate loop.

use specrt_ir::{ArrayId, Program, Scalar};
use specrt_mem::ElemSize;
use specrt_spec::{IterationNumbering, TestPlan};

/// How iterations are scheduled onto processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Static contiguous chunks (one per processor).
    Static,
    /// Block-cyclic with the given block size.
    BlockCyclic {
        /// Iterations per block.
        block: u64,
    },
    /// Lock-based dynamic self-scheduling grabbing `block` iterations at a
    /// time.
    Dynamic {
        /// Iterations grabbed per lock acquisition.
        block: u64,
    },
}

/// One array accessed by the loop.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Logical id referenced by the loop body.
    pub id: ArrayId,
    /// Number of elements.
    pub len: u64,
    /// Element size (4- or 8-byte, §5.2).
    pub elem: ElemSize,
    /// Initial contents (padded with zeros if shorter than `len`).
    pub init: Vec<Scalar>,
    /// The element region the backup phase must save, as `(offset, len)`
    /// (compiler-identified modified region, §2.2.1: "it is also possible
    /// to reduce the amount of backup requirements"). `None` saves the
    /// whole array.
    pub backup_region: Option<(u64, u64)>,
    /// Sparse backup (§2.2.1: "if the pattern of access is sparse, it is
    /// better to save individual elements … just before they are
    /// modified"): no up-front copy; on failure only the elements actually
    /// written are restored.
    pub sparse_backup: bool,
}

impl ArrayDecl {
    /// A zero-initialized array.
    pub fn zeroed(id: ArrayId, len: u64, elem: ElemSize) -> Self {
        ArrayDecl {
            id,
            len,
            elem,
            init: Vec::new(),
            backup_region: None,
            sparse_backup: false,
        }
    }

    /// An array with explicit initial contents (its length).
    pub fn with_init(id: ArrayId, elem: ElemSize, init: Vec<Scalar>) -> Self {
        ArrayDecl {
            id,
            len: init.len() as u64,
            elem,
            init,
            backup_region: None,
            sparse_backup: false,
        }
    }

    /// Marks the array for sparse (save-on-first-write) backup.
    pub fn with_sparse_backup(mut self) -> Self {
        self.sparse_backup = true;
        self
    }

    /// Limits the backup phase to the `len` elements starting at `offset`
    /// (the compiler-identified modified region).
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the array.
    pub fn with_backup_region(mut self, offset: u64, len: u64) -> Self {
        assert!(offset + len <= self.len, "backup region out of bounds");
        self.backup_region = Some((offset, len));
        self
    }

    /// The `(offset, len)` region the backup phase saves.
    pub fn backup_elems(&self) -> (u64, u64) {
        self.backup_region.unwrap_or((0, self.len))
    }

    /// Initial contents padded to `len`.
    pub fn padded_init(&self) -> Vec<Scalar> {
        let mut v = self.init.clone();
        v.resize(self.len as usize, Scalar::ZERO);
        v
    }
}

/// A candidate loop for speculative run-time parallelization.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Human-readable name (e.g. `ocean/ftrvmt.do109`).
    pub name: String,
    /// The body of one iteration.
    pub body: Program,
    /// Iteration count.
    pub iters: u64,
    /// All arrays the loop touches.
    pub arrays: Vec<ArrayDecl>,
    /// Which arrays are under which run-time test.
    pub plan: TestPlan,
    /// Effective iteration numbering for the tests (iteration-wise,
    /// chunked, or processor-wise).
    pub numbering: IterationNumbering,
    /// Iteration scheduling.
    pub schedule: ScheduleKind,
    /// Privatized arrays that are live after the loop (need copy-out).
    pub live_after: Vec<ArrayId>,
    /// §3.3 stamp-overflow resynchronization: "if the loop has so many
    /// iterations that the time stamps would overflow, we synchronize all
    /// processors periodically after a fixed number of iterations … at
    /// synchronization points, the effective iteration number … is reset to
    /// zero." `Some(w)` runs the speculative loop in windows of `w`
    /// iterations separated by barriers, resetting the privatization stamps
    /// at each boundary. `None` runs unwindowed.
    pub stamp_window: Option<u64>,
}

impl LoopSpec {
    /// Declaration of array `id`.
    ///
    /// # Panics
    ///
    /// Panics if the loop does not declare `id`.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        self.arrays
            .iter()
            .find(|a| a.id == id)
            .unwrap_or_else(|| panic!("loop {} does not declare {id}", self.name))
    }

    /// Arrays the body stores to (by static inspection of the IR). These
    /// are the arrays that need backup before speculative execution —
    /// privatized ones excepted, since their writes go to private copies.
    pub fn written_arrays(&self) -> Vec<ArrayId> {
        self.arrays
            .iter()
            .map(|a| a.id)
            .filter(|&id| self.body.writes_array(id))
            .collect()
    }

    /// Arrays needing backup: written and not privatized.
    pub fn backup_arrays(&self) -> Vec<ArrayId> {
        self.written_arrays()
            .into_iter()
            .filter(|&id| !self.plan.privatizes(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_ir::{Operand, ProgramBuilder};
    use specrt_spec::SpecVariant;

    fn spec() -> LoopSpec {
        let a = ArrayId(0);
        let b = ArrayId(1);
        let mut pb = ProgramBuilder::new();
        let v = pb.load(b, Operand::Iter);
        pb.store(a, Operand::Iter, Operand::Reg(v));
        let mut plan = TestPlan::new();
        plan.set(a, SpecVariant::NonPriv);
        LoopSpec {
            name: "test".into(),
            body: pb.build().unwrap(),
            iters: 8,
            arrays: vec![
                ArrayDecl::zeroed(a, 8, ElemSize::W8),
                ArrayDecl::with_init(b, ElemSize::W8, vec![Scalar::Int(1); 8]),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![],
            stamp_window: None,
        }
    }

    #[test]
    fn array_lookup_and_padding() {
        let s = spec();
        assert_eq!(s.array(ArrayId(1)).len, 8);
        let mut short = ArrayDecl::zeroed(ArrayId(2), 4, ElemSize::W4);
        short.init = vec![Scalar::Int(9)];
        let padded = short.padded_init();
        assert_eq!(padded.len(), 4);
        assert_eq!(padded[0], Scalar::Int(9));
        assert_eq!(padded[3], Scalar::ZERO);
    }

    #[test]
    fn written_and_backup_arrays() {
        let mut s = spec();
        assert_eq!(s.written_arrays(), vec![ArrayId(0)]);
        assert_eq!(s.backup_arrays(), vec![ArrayId(0)]);
        // Privatizing the written array removes it from backup.
        s.plan.set(ArrayId(0), SpecVariant::Priv3);
        assert!(s.backup_arrays().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn missing_array_panics() {
        spec().array(ArrayId(9));
    }
}
