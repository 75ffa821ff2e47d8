//! The inclusive L1/L2 direct-mapped cache hierarchy of one node.
//!
//! Geometry defaults to the paper's §5.1 machine: 32-KiB L1 and 512-KiB L2,
//! both direct-mapped with 64-byte lines (512 and 8192 line slots). The
//! hierarchy tracks, per resident line, its coherence state (clean/dirty)
//! and its access-bit [`LineTags`]; displacements return [`Victim`]s so the
//! coherence layer can write dirty data back and merge the access bits into
//! the directory (the paper's algorithm (e): "update directory using the tag
//! state of all the words of the dirty line").

use specrt_mem::{IdMap, LineAddr};

use crate::tags::LineTags;

/// Coherence state of a resident line, as seen by its own cache.
///
/// A DASH-like protocol needs only clean (shared) and dirty (exclusive
/// modified) states in the cache; invalid lines are simply absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Present, consistent with memory, possibly shared with other caches.
    Clean,
    /// Present and modified; this cache is the owner.
    Dirty,
}

/// Which level satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Primary-cache hit (1-cycle round trip).
    L1,
    /// Secondary-cache hit (12-cycle round trip).
    L2,
    /// Miss in both levels; a coherence transaction is required.
    Miss,
}

/// A line displaced from the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Victim {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it was dirty (requires a write-back to the home node).
    pub dirty: bool,
    /// Its access bits at displacement time (merged into the directory by
    /// the coherence layer if the line was dirty and tracked).
    pub tags: LineTags,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 line slots (32 KiB / 64 B = 512 in the paper's machine).
    pub l1_lines: usize,
    /// L2 line slots (512 KiB / 64 B = 8192 in the paper's machine).
    pub l2_lines: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_lines: 512,
            l2_lines: 8192,
        }
    }
}

#[derive(Debug, Clone)]
struct Level {
    slots: Vec<Option<LineAddr>>,
}

impl Level {
    fn new(lines: usize) -> Self {
        Level {
            slots: vec![None; lines],
        }
    }

    fn slot_of(&self, line: LineAddr) -> usize {
        (line.0 % self.slots.len() as u64) as usize
    }

    fn occupant(&self, line: LineAddr) -> Option<LineAddr> {
        self.slots[self.slot_of(line)]
    }

    fn holds(&self, line: LineAddr) -> bool {
        self.occupant(line) == Some(line)
    }

    /// Installs `line`, returning the previous occupant if different.
    fn install(&mut self, line: LineAddr) -> Option<LineAddr> {
        let idx = self.slot_of(line);
        let prev = self.slots[idx];
        self.slots[idx] = Some(line);
        prev.filter(|&p| p != line)
    }

    fn remove(&mut self, line: LineAddr) -> bool {
        let idx = self.slot_of(line);
        if self.slots[idx] == Some(line) {
            self.slots[idx] = None;
            true
        } else {
            false
        }
    }
}

/// State and access bits of one resident line.
#[derive(Debug, Clone, Copy)]
struct Resident {
    state: LineState,
    tags: LineTags,
}

/// One node's two-level cache hierarchy with access-bit arrays.
///
/// # Examples
///
/// ```
/// use specrt_cache::{CacheConfig, CacheHierarchy, HitLevel, LineState, LineTags};
/// use specrt_mem::LineAddr;
///
/// let mut c = CacheHierarchy::new(CacheConfig::default());
/// let line = LineAddr(100);
/// assert_eq!(c.probe(line), HitLevel::Miss);
/// c.fill(line, LineState::Clean, LineTags::empty());
/// assert_eq!(c.probe(line), HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Level,
    l2: Level,
    /// Every resident line (the L2 occupants; L1 is a subset by inclusion).
    lines: IdMap<LineAddr, Resident>,
    /// L2 slots whose line had tracked tags handed out (`fill`, `set_tags`,
    /// `tags_mut`) since the last qualified reset, each listed once (the
    /// `listed` bitset). A slot holds one line at a time, so the list
    /// covers whichever line occupies it when the reset runs, and the
    /// reset costs O(lines touched) instead of O(resident lines).
    touched: Vec<usize>,
    listed: Vec<u64>,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < l1_lines <= l2_lines` (inclusion requires L2 to be
    /// at least as large as L1, and with direct mapping `l2_lines` must be a
    /// multiple of `l1_lines` for inclusion to be maintainable).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.l1_lines > 0, "L1 must have at least one line");
        assert!(
            config.l2_lines >= config.l1_lines,
            "inclusion requires L2 >= L1"
        );
        assert!(
            config.l2_lines.is_multiple_of(config.l1_lines),
            "direct-mapped inclusion requires l2_lines % l1_lines == 0"
        );
        CacheHierarchy {
            l1: Level::new(config.l1_lines),
            l2: Level::new(config.l2_lines),
            lines: IdMap::default(),
            touched: Vec::new(),
            listed: vec![0; config.l2_lines.div_ceil(64)],
            l1_hits: 0,
            l2_hits: 0,
            misses: 0,
        }
    }

    /// Non-destructive lookup.
    pub fn probe(&self, line: LineAddr) -> HitLevel {
        if self.l1.holds(line) {
            HitLevel::L1
        } else if self.l2.holds(line) {
            HitLevel::L2
        } else {
            HitLevel::Miss
        }
    }

    /// Performs an access: on an L2 hit the line is promoted into L1 (the
    /// displaced L1 line stays resident in L2 by inclusion). Returns the
    /// level that satisfied the access; on `Miss` the caller must run a
    /// coherence transaction and then [`fill`](Self::fill).
    pub fn access(&mut self, line: LineAddr) -> HitLevel {
        match self.probe(line) {
            HitLevel::L1 => {
                self.l1_hits += 1;
                HitLevel::L1
            }
            HitLevel::L2 => {
                self.l2_hits += 1;
                // Promote; the L1 victim is still in L2 (inclusion), so no
                // external write-back happens here.
                if let Some(prev) = self.l1.install(line) {
                    debug_assert!(self.l2.holds(prev), "inclusion violated for {prev}");
                }
                HitLevel::L2
            }
            HitLevel::Miss => {
                self.misses += 1;
                HitLevel::Miss
            }
        }
    }

    /// Installs `line` in both levels after a coherence transaction.
    ///
    /// Returns any line displaced from L2 (a true eviction from this node);
    /// dirty victims must be written back and, if tracked, their tags merged
    /// into the directory.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (refill without invalidate).
    pub fn fill(&mut self, line: LineAddr, state: LineState, tags: LineTags) -> Option<Victim> {
        assert!(
            self.probe(line) == HitLevel::Miss,
            "fill of resident line {line}"
        );
        let victim = self.l2.install(line).map(|v| {
            self.l1.remove(v);
            let r = self.lines.remove(&v).expect("L2 occupant is resident");
            Victim {
                line: v,
                dirty: r.state == LineState::Dirty,
                tags: r.tags,
            }
        });
        if let Some(prev) = self.l1.install(line) {
            debug_assert!(self.l2.holds(prev) || victim.as_ref().map(|v| v.line) == Some(prev));
        }
        self.lines.insert(line, Resident { state, tags });
        if tags.is_tracked() {
            self.list(line);
        }
        victim
    }

    /// Coherence state of `line`, if resident.
    pub fn state_of(&self, line: LineAddr) -> Option<LineState> {
        self.resident_entry(line).map(|r| r.state)
    }

    /// Marks a resident line dirty (a store hit on a clean-exclusive grant
    /// or on an already-dirty line).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        self.lines
            .get_mut(&line)
            .unwrap_or_else(|| panic!("mark_dirty on absent line {line}"))
            .state = LineState::Dirty;
    }

    /// Downgrades a dirty line to clean (after a write-back that keeps the
    /// data shared).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_clean(&mut self, line: LineAddr) {
        self.lines
            .get_mut(&line)
            .unwrap_or_else(|| panic!("mark_clean on absent line {line}"))
            .state = LineState::Clean;
    }

    /// Removes `line` from both levels, returning its state and tags (for
    /// write-back-and-invalidate transactions).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, LineTags)> {
        let r = self.lines.remove(&line)?;
        self.l1.remove(line);
        let was_in_l2 = self.l2.remove(line);
        debug_assert!(was_in_l2, "resident {line} missing from L2");
        Some((r.state, r.tags))
    }

    /// Access bits of a resident line.
    pub fn tags_of(&self, line: LineAddr) -> Option<&LineTags> {
        self.resident_entry(line).map(|r| &r.tags)
    }

    /// Mutable access bits of a resident line. The line is listed for the
    /// next [`clear_iteration_bits`](Self::clear_iteration_bits), whatever
    /// the caller writes.
    pub fn tags_mut(&mut self, line: LineAddr) -> Option<&mut LineTags> {
        let r = self.lines.get_mut(&line)?;
        list_slot(&mut self.listed, &mut self.touched, self.l2.slot_of(line));
        Some(&mut r.tags)
    }

    /// Empties the hierarchy, returning the dirty lines in address order
    /// (the paper flushes caches after every loop invocation "to mimic real
    /// conditions", §5.2).
    pub fn flush(&mut self) -> Vec<Victim> {
        let mut victims: Vec<Victim> = Vec::new();
        for line in self.resident() {
            let (state, tags) = self.invalidate(line).expect("resident line");
            if state == LineState::Dirty {
                victims.push(Victim {
                    line,
                    dirty: true,
                    tags,
                });
            }
        }
        self.unlist_all();
        victims
    }

    /// Clears the per-iteration privatization bits (`Read1st`/`Write`) of
    /// every resident tracked line — the hardware's qualified reset at the
    /// start of each iteration (§4.1). Only lines whose tags were handed
    /// out since the previous reset can hold those bits, so only their
    /// slots are visited.
    pub fn clear_iteration_bits(&mut self) {
        for &slot in &self.touched {
            if let Some(line) = self.l2.slots[slot] {
                if let Some(r) = self.lines.get_mut(&line) {
                    r.tags.clear_iteration_bits();
                }
            }
        }
        self.unlist_all();
    }

    /// Clears *all* access bits of every resident line (loop start reset).
    pub fn clear_all_access_bits(&mut self) {
        for r in self.lines.values_mut() {
            r.tags.clear();
        }
        self.unlist_all();
    }

    /// All resident lines, in address order.
    pub fn resident(&self) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self.lines.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Replaces the access bits of a resident line (hardware tag reset at
    /// loop start, with the new protocol's tag geometry).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_tags(&mut self, line: LineAddr, tags: LineTags) {
        self.lines
            .get_mut(&line)
            .unwrap_or_else(|| panic!("set_tags on absent line {line}"))
            .tags = tags;
        if tags.is_tracked() {
            self.list(line);
        }
    }

    /// `(l1_hits, l2_hits, misses)` counters since construction/reset.
    pub fn hit_stats(&self) -> (u64, u64, u64) {
        (self.l1_hits, self.l2_hits, self.misses)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Returns the hierarchy to its just-constructed state — slots empty,
    /// no line state or tags, hit counters zeroed — while keeping the slot
    /// vectors and map capacity allocated: the machine pool recycles
    /// hierarchies across runs instead of building new ones.
    ///
    /// Clears only the occupied slots: every occupant is a resident-map
    /// key (fill/displace/invalidate keep them in lockstep), so walking
    /// the resident set beats memsetting the paper-sized slot vectors
    /// (512 L1 + 8192 L2 entries) when only a handful of lines are live.
    pub fn reset(&mut self) {
        for &line in self.lines.keys() {
            self.l1.remove(line);
            self.l2.remove(line);
        }
        debug_assert!(
            self.l1.slots.iter().all(Option::is_none) && self.l2.slots.iter().all(Option::is_none),
            "slot occupied by a non-resident line"
        );
        self.lines.clear();
        self.unlist_all();
        self.l1_hits = 0;
        self.l2_hits = 0;
        self.misses = 0;
    }

    /// The entry of a resident line. The map's keys are exactly the L2
    /// occupants, so no slot probe is needed.
    fn resident_entry(&self, line: LineAddr) -> Option<&Resident> {
        let r = self.lines.get(&line);
        debug_assert_eq!(r.is_some(), self.probe(line) != HitLevel::Miss);
        r
    }

    /// Lists `line`'s L2 slot for the next qualified reset.
    fn list(&mut self, line: LineAddr) {
        list_slot(&mut self.listed, &mut self.touched, self.l2.slot_of(line));
    }

    /// Empties the touched list (every listed line was just reset or
    /// dropped).
    fn unlist_all(&mut self) {
        for slot in self.touched.drain(..) {
            self.listed[slot / 64] &= !(1 << (slot % 64));
        }
    }
}

/// Pushes `slot` onto the touched list unless its `listed` bit is set.
fn list_slot(listed: &mut [u64], touched: &mut Vec<usize>, slot: usize) {
    let (word, bit) = (slot / 64, 1u64 << (slot % 64));
    if listed[word] & bit == 0 {
        listed[word] |= bit;
        touched.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(CacheConfig {
            l1_lines: 4,
            l2_lines: 16,
        })
    }

    #[test]
    fn fill_then_hit_l1() {
        let mut c = small();
        let line = LineAddr(5);
        assert_eq!(c.access(line), HitLevel::Miss);
        c.fill(line, LineState::Clean, LineTags::empty());
        assert_eq!(c.access(line), HitLevel::L1);
        assert_eq!(c.state_of(line), Some(LineState::Clean));
        assert_eq!(c.hit_stats(), (1, 0, 1));
    }

    #[test]
    fn l1_conflict_leaves_line_in_l2() {
        let mut c = small();
        // Lines 0 and 4 conflict in a 4-line L1 but not in a 16-line L2.
        c.fill(LineAddr(0), LineState::Clean, LineTags::empty());
        c.fill(LineAddr(4), LineState::Clean, LineTags::empty());
        assert_eq!(c.probe(LineAddr(4)), HitLevel::L1);
        assert_eq!(c.probe(LineAddr(0)), HitLevel::L2);
        // Accessing 0 promotes it back, demoting 4 (still in L2).
        assert_eq!(c.access(LineAddr(0)), HitLevel::L2);
        assert_eq!(c.probe(LineAddr(0)), HitLevel::L1);
        assert_eq!(c.probe(LineAddr(4)), HitLevel::L2);
    }

    #[test]
    fn l2_conflict_evicts_clean_silently() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Clean, LineTags::empty());
        // Line 16 conflicts with 0 in the 16-line L2.
        let victim = c.fill(LineAddr(16), LineState::Clean, LineTags::empty());
        let v = victim.expect("line 0 displaced");
        assert_eq!(v.line, LineAddr(0));
        assert!(!v.dirty);
        assert_eq!(c.probe(LineAddr(0)), HitLevel::Miss);
    }

    #[test]
    fn l2_conflict_returns_dirty_victim_with_tags() {
        let mut c = small();
        let mut tags = LineTags::cleared(8);
        tags.get_mut(2).set_no_shr(true);
        c.fill(LineAddr(0), LineState::Dirty, tags);
        let v = c
            .fill(LineAddr(16), LineState::Clean, LineTags::empty())
            .expect("victim");
        assert!(v.dirty);
        assert_eq!(v.tags, tags);
    }

    #[test]
    fn invalidate_removes_and_returns_state() {
        let mut c = small();
        c.fill(LineAddr(3), LineState::Dirty, LineTags::cleared(4));
        let (state, tags) = c.invalidate(LineAddr(3)).unwrap();
        assert_eq!(state, LineState::Dirty);
        assert_eq!(tags.len(), 4);
        assert_eq!(c.probe(LineAddr(3)), HitLevel::Miss);
        assert!(c.invalidate(LineAddr(3)).is_none());
    }

    #[test]
    fn mark_dirty_and_clean() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Clean, LineTags::empty());
        c.mark_dirty(LineAddr(1));
        assert_eq!(c.state_of(LineAddr(1)), Some(LineState::Dirty));
        c.mark_clean(LineAddr(1));
        assert_eq!(c.state_of(LineAddr(1)), Some(LineState::Clean));
    }

    #[test]
    #[should_panic(expected = "mark_dirty on absent line")]
    fn mark_dirty_absent_panics() {
        small().mark_dirty(LineAddr(9));
    }

    #[test]
    #[should_panic(expected = "fill of resident line")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Clean, LineTags::empty());
        c.fill(LineAddr(1), LineState::Clean, LineTags::empty());
    }

    #[test]
    fn flush_returns_only_dirty_lines() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Clean, LineTags::empty());
        c.fill(LineAddr(2), LineState::Dirty, LineTags::cleared(8));
        c.fill(LineAddr(3), LineState::Dirty, LineTags::empty());
        let victims = c.flush();
        let mut lines: Vec<u64> = victims.iter().map(|v| v.line.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![2, 3]);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.probe(LineAddr(1)), HitLevel::Miss);
    }

    #[test]
    fn tag_access_and_iteration_clear() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Clean, LineTags::cleared(8));
        c.tags_mut(LineAddr(1))
            .unwrap()
            .get_mut(0)
            .set_read1st(true);
        c.tags_mut(LineAddr(1)).unwrap().get_mut(0).set_no_shr(true);
        assert!(c.tags_of(LineAddr(1)).unwrap().get(0).read1st());
        c.clear_iteration_bits();
        assert!(!c.tags_of(LineAddr(1)).unwrap().get(0).read1st());
        assert!(c.tags_of(LineAddr(1)).unwrap().get(0).no_shr());
        c.clear_all_access_bits();
        assert!(c.tags_of(LineAddr(1)).unwrap().get(0).is_clear());
    }

    #[test]
    fn reset_visits_only_slots_handed_out_since_the_last_reset() {
        let mut c = small();
        for l in 0..8 {
            let tags = if l < 4 {
                LineTags::cleared(8)
            } else {
                LineTags::empty()
            };
            c.fill(LineAddr(l), LineState::Clean, tags);
        }
        // Tracked fills list their slots; untracked ones do not.
        assert_eq!(c.touched, vec![0, 1, 2, 3]);
        c.clear_iteration_bits();
        assert!(c.touched.is_empty());
        // A slot is listed once however often its lines are handed out,
        // and the listing covers the line that occupies it at reset time.
        c.tags_mut(LineAddr(1)).unwrap().get_mut(0).set_write(true);
        c.tags_mut(LineAddr(1));
        let v = c.fill(LineAddr(17), LineState::Clean, LineTags::cleared(8));
        assert_eq!(v.map(|v| v.line), Some(LineAddr(1)));
        c.tags_mut(LineAddr(17))
            .unwrap()
            .get_mut(0)
            .set_read1st(true);
        assert_eq!(c.touched, vec![1]);
        c.clear_iteration_bits();
        assert!(!c.tags_of(LineAddr(17)).unwrap().get(0).read1st());
        assert!(c.touched.is_empty() && c.listed.iter().all(|&w| w == 0));
    }

    #[test]
    fn untracked_lines_have_empty_tags() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Clean, LineTags::empty());
        assert!(!c.tags_of(LineAddr(1)).unwrap().is_tracked());
        assert!(c.tags_of(LineAddr(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "inclusion requires L2 >= L1")]
    fn l2_smaller_than_l1_rejected() {
        CacheHierarchy::new(CacheConfig {
            l1_lines: 8,
            l2_lines: 4,
        });
    }

    #[test]
    fn default_config_matches_paper() {
        let c = CacheConfig::default();
        assert_eq!(c.l1_lines * 64, 32 * 1024);
        assert_eq!(c.l2_lines * 64, 512 * 1024);
    }
}
