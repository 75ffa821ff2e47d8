//! Directory line states (DASH-like full-map directory).
//!
//! Each node's directory slice tracks the lines homed in its memory module.
//! A line is *Uncached* (memory is the only copy), *Shared* (one or more
//! clean cached copies), or *Dirty* (exactly one cache owns a modified
//! copy). All transactions on a line serialize at its home directory, which
//! is what the paper's protocol extensions lean on to keep their data races
//! resolvable.

use std::fmt;

use specrt_mem::{IdMap, LineAddr, ProcId};

/// Full-map presence bits: the set of processors holding a clean copy.
///
/// The paper's directory is a DASH-style full bit-vector — one presence bit
/// per processor — so the model stores exactly that: a `u64` mask, bounded
/// to [`SharerSet::MAX_PROCS`] processors (asserted at insertion). Compared
/// to a heap-allocated set this keeps [`DirLineState`] `Copy`, which matters
/// because the directory is consulted on every coherence transaction — the
/// hottest path in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Hard bound on processor ids representable in the presence mask.
    pub const MAX_PROCS: u32 = 64;

    /// No sharers.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// The set containing exactly `proc`.
    pub fn single(proc: ProcId) -> SharerSet {
        let mut s = SharerSet::EMPTY;
        s.insert(proc);
        s
    }

    /// Adds `proc` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is outside the presence mask (`>= MAX_PROCS`).
    pub fn insert(&mut self, proc: ProcId) {
        assert!(
            proc.0 < Self::MAX_PROCS,
            "proc {proc} exceeds the {}-bit directory presence mask",
            Self::MAX_PROCS
        );
        self.0 |= 1 << proc.0;
    }

    /// Removes `proc` from the set (no-op if absent).
    pub fn remove(&mut self, proc: ProcId) {
        if proc.0 < Self::MAX_PROCS {
            self.0 &= !(1 << proc.0);
        }
    }

    /// Whether `proc` holds a copy.
    pub fn contains(self, proc: ProcId) -> bool {
        proc.0 < Self::MAX_PROCS && self.0 & (1 << proc.0) != 0
    }

    /// Number of sharers.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the sharers in ascending processor order.
    pub fn iter(self) -> SharerIter {
        SharerIter(self.0)
    }
}

/// Iterator over a [`SharerSet`]'s processors, ascending.
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        if self.0 == 0 {
            return None;
        }
        let p = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(ProcId(p))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl FromIterator<ProcId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> SharerSet {
        let mut s = SharerSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl IntoIterator for SharerSet {
    type Item = ProcId;
    type IntoIter = SharerIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for SharerSet {
    /// Renders like the set it replaced (`{ProcId(0), ProcId(2)}`) so dumps
    /// and debug output stay byte-stable across the representation change.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Coherence state of one line at its home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirLineState {
    /// No cached copies.
    Uncached,
    /// Clean copies at the given processors (never empty).
    Shared(SharerSet),
    /// Modified copy owned by one processor.
    Dirty(ProcId),
}

impl DirLineState {
    /// The sharers if `Shared`, empty otherwise.
    pub fn sharers(&self) -> SharerSet {
        match self {
            DirLineState::Shared(s) => *s,
            _ => SharerSet::EMPTY,
        }
    }

    /// The owner if `Dirty`.
    pub fn owner(&self) -> Option<ProcId> {
        match self {
            DirLineState::Dirty(p) => Some(*p),
            _ => None,
        }
    }
}

/// One node's directory slice.
///
/// Lines not present in the map are `Uncached`; the map is populated lazily.
#[derive(Debug, Clone, Default)]
pub struct DirectoryNode {
    lines: IdMap<LineAddr, DirLineState>,
}

impl DirectoryNode {
    /// Creates an empty slice.
    pub fn new() -> Self {
        DirectoryNode::default()
    }

    /// Current state of `line`.
    pub fn state(&self, line: LineAddr) -> DirLineState {
        self.lines
            .get(&line)
            .copied()
            .unwrap_or(DirLineState::Uncached)
    }

    /// Records that `proc` now holds a clean copy (after a read fill or a
    /// dirty-to-shared downgrade).
    pub fn add_sharer(&mut self, line: LineAddr, proc: ProcId) {
        let state = self.lines.entry(line).or_insert(DirLineState::Uncached);
        match state {
            DirLineState::Uncached => {
                *state = DirLineState::Shared(SharerSet::single(proc));
            }
            DirLineState::Shared(s) => {
                s.insert(proc);
            }
            DirLineState::Dirty(owner) => {
                panic!("add_sharer({line}, {proc}) while dirty at {owner}");
            }
        }
    }

    /// Records that `proc` now owns the line exclusively (after a write
    /// fill/upgrade). Any previous sharers must already have been
    /// invalidated by the caller.
    pub fn set_dirty(&mut self, line: LineAddr, proc: ProcId) {
        self.lines.insert(line, DirLineState::Dirty(proc));
    }

    /// Downgrades a dirty line to shared by `procs` (after a write-back
    /// triggered by a read request: owner and requester both keep copies).
    ///
    /// # Panics
    ///
    /// Panics if the line was not dirty.
    pub fn downgrade_to_shared(&mut self, line: LineAddr, procs: SharerSet) {
        assert!(
            matches!(self.state(line), DirLineState::Dirty(_)),
            "downgrade of non-dirty {line}"
        );
        assert!(
            !procs.is_empty(),
            "downgrade must leave at least one sharer"
        );
        self.lines.insert(line, DirLineState::Shared(procs));
    }

    /// Removes one sharer (cache replaced a clean line silently, or an
    /// invalidation completed). A line with no sharers left becomes
    /// `Uncached`.
    pub fn remove_sharer(&mut self, line: LineAddr, proc: ProcId) {
        if let Some(DirLineState::Shared(s)) = self.lines.get_mut(&line) {
            s.remove(proc);
            if s.is_empty() {
                self.lines.insert(line, DirLineState::Uncached);
            }
        }
    }

    /// Records a dirty write-back without a new owner (displacement): the
    /// line becomes `Uncached`.
    ///
    /// # Panics
    ///
    /// Panics if the line was not dirty at `proc`.
    pub fn writeback_to_uncached(&mut self, line: LineAddr, proc: ProcId) {
        assert_eq!(
            self.state(line),
            DirLineState::Dirty(proc),
            "write-back of {line} from non-owner {proc}"
        );
        self.lines.insert(line, DirLineState::Uncached);
    }

    /// Forgets everything (caches were flushed).
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Number of tracked (non-`Uncached` or once-touched) lines.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Iterates over every line this slice has ever tracked with its current
    /// state (arbitrary order). Used by the coherence invariant checker.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirLineState)> + '_ {
        self.lines.iter().map(|(l, s)| (*l, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);
    const L: LineAddr = LineAddr(7);

    #[test]
    fn lazily_uncached() {
        let d = DirectoryNode::new();
        assert_eq!(d.state(L), DirLineState::Uncached);
    }

    #[test]
    fn sharer_lifecycle() {
        let mut d = DirectoryNode::new();
        d.add_sharer(L, P0);
        d.add_sharer(L, P1);
        assert_eq!(d.state(L).sharers(), SharerSet::from_iter([P0, P1]));
        d.remove_sharer(L, P0);
        assert_eq!(d.state(L).sharers(), SharerSet::single(P1));
        d.remove_sharer(L, P1);
        assert_eq!(d.state(L), DirLineState::Uncached);
    }

    #[test]
    fn dirty_lifecycle() {
        let mut d = DirectoryNode::new();
        d.set_dirty(L, P0);
        assert_eq!(d.state(L).owner(), Some(P0));
        d.downgrade_to_shared(L, SharerSet::from_iter([P0, P1]));
        assert_eq!(d.state(L).sharers().len(), 2);
    }

    #[test]
    fn writeback_to_uncached_clears_owner() {
        let mut d = DirectoryNode::new();
        d.set_dirty(L, P1);
        d.writeback_to_uncached(L, P1);
        assert_eq!(d.state(L), DirLineState::Uncached);
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn writeback_from_wrong_owner_panics() {
        let mut d = DirectoryNode::new();
        d.set_dirty(L, P1);
        d.writeback_to_uncached(L, P0);
    }

    #[test]
    #[should_panic(expected = "while dirty")]
    fn add_sharer_to_dirty_panics() {
        let mut d = DirectoryNode::new();
        d.set_dirty(L, P0);
        d.add_sharer(L, P1);
    }

    #[test]
    fn clear_forgets() {
        let mut d = DirectoryNode::new();
        d.add_sharer(L, P0);
        d.clear();
        assert_eq!(d.tracked_lines(), 0);
        assert_eq!(d.state(L), DirLineState::Uncached);
    }

    #[test]
    fn sharer_set_iterates_in_ascending_proc_order() {
        let s = SharerSet::from_iter([ProcId(5), ProcId(0), ProcId(63)]);
        let procs: Vec<ProcId> = s.iter().collect();
        assert_eq!(procs, vec![ProcId(0), ProcId(5), ProcId(63)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(ProcId(5)));
        assert!(!s.contains(ProcId(6)));
    }

    #[test]
    fn sharer_set_debug_matches_set_notation() {
        let s = SharerSet::from_iter([ProcId(2), ProcId(0)]);
        assert_eq!(format!("{s:?}"), "{ProcId(0), ProcId(2)}");
        assert_eq!(format!("{:?}", SharerSet::EMPTY), "{}");
    }

    #[test]
    #[should_panic(expected = "presence mask")]
    fn sharer_set_rejects_out_of_range_proc() {
        let mut s = SharerSet::EMPTY;
        s.insert(ProcId(64));
    }
}
