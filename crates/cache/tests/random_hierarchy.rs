//! Randomized tests: the inclusive two-level cache hierarchy, driven by
//! the in-repo deterministic [`SplitMix64`] generator.

use std::collections::HashMap;

use specrt_cache::{CacheConfig, CacheHierarchy, FirstTag, HitLevel, LineState, LineTags};
use specrt_engine::SplitMix64;
use specrt_mem::LineAddr;

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    FillClean(u64),
    FillDirty(u64),
    Invalidate(u64),
    MarkDirty(u64),
}

fn random_ops(rng: &mut SplitMix64, lines: u64, max_len: u64) -> Vec<Op> {
    (0..rng.below(max_len))
        .map(|_| {
            let l = rng.below(lines);
            match rng.below(5) {
                0 => Op::Access(l),
                1 => Op::FillClean(l),
                2 => Op::FillDirty(l),
                3 => Op::Invalidate(l),
                _ => Op::MarkDirty(l),
            }
        })
        .collect()
}

/// Inclusion invariant: after any operation sequence, every line resident
/// in L1 is also resident in L2 (probe of L1 implies not Miss), and
/// state/tags accessors agree with residency.
#[test]
fn inclusion_and_consistency_hold() {
    let mut rng = SplitMix64::new(0x0cac_4e01);
    for _case in 0..64 {
        let ops = random_ops(&mut rng, 64, 200);
        let mut c = CacheHierarchy::new(CacheConfig {
            l1_lines: 4,
            l2_lines: 16,
        });
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for op in ops {
            match op {
                Op::Access(l) => {
                    let line = LineAddr(l);
                    let level = c.access(line);
                    assert_eq!(level == HitLevel::Miss, !resident.contains(&l));
                }
                Op::FillClean(l) | Op::FillDirty(l) => {
                    let line = LineAddr(l);
                    if c.probe(line) != HitLevel::Miss {
                        continue; // fill of resident line is a caller bug
                    }
                    let state = if matches!(op, Op::FillDirty(_)) {
                        LineState::Dirty
                    } else {
                        LineState::Clean
                    };
                    if let Some(v) = c.fill(line, state, LineTags::empty()) {
                        assert!(resident.remove(&v.line.0), "victim was resident");
                    }
                    resident.insert(l);
                }
                Op::Invalidate(l) => {
                    let line = LineAddr(l);
                    let was = c.invalidate(line);
                    assert_eq!(was.is_some(), resident.remove(&l));
                }
                Op::MarkDirty(l) => {
                    let line = LineAddr(l);
                    if resident.contains(&l) {
                        c.mark_dirty(line);
                        assert_eq!(c.state_of(line), Some(LineState::Dirty));
                    }
                }
            }
            // Global invariants.
            assert_eq!(c.resident_lines(), resident.len());
            for &l in &resident {
                let line = LineAddr(l);
                assert_ne!(c.probe(line), HitLevel::Miss, "L{l} lost");
                assert!(c.state_of(line).is_some());
                assert!(c.tags_of(line).is_some());
            }
        }
        // Flush returns exactly the dirty lines.
        let dirty_before: std::collections::HashSet<u64> = resident
            .iter()
            .copied()
            .filter(|&l| c.state_of(LineAddr(l)) == Some(LineState::Dirty))
            .collect();
        let victims = c.flush();
        let flushed: std::collections::HashSet<u64> = victims.iter().map(|v| v.line.0).collect();
        assert_eq!(flushed, dirty_before);
        assert_eq!(c.resident_lines(), 0);
    }
}

/// Direct-mapped conflict behaviour: filling more lines than one slot can
/// hold evicts in a deterministic, loss-free way — the set of resident
/// lines always matches the model.
#[test]
fn conflicting_fills_never_lose_lines() {
    let mut rng = SplitMix64::new(0x0cac_4e02);
    for _case in 0..128 {
        let lines: Vec<u64> = (0..rng.range(1, 64)).map(|_| rng.below(256)).collect();
        let mut c = CacheHierarchy::new(CacheConfig {
            l1_lines: 2,
            l2_lines: 8,
        });
        let mut model: std::collections::HashMap<u64, u64> = Default::default(); // slot→line
        for l in lines {
            if c.probe(LineAddr(l)) != HitLevel::Miss {
                continue;
            }
            let victim = c.fill(LineAddr(l), LineState::Clean, LineTags::empty());
            let slot = l % 8;
            let expected_victim = model.insert(slot, l);
            assert_eq!(victim.map(|v| v.line.0), expected_victim);
        }
        for &l in model.values() {
            assert_ne!(c.probe(LineAddr(l)), HitLevel::Miss);
        }
    }
}

/// One mutation of a line's access bits: bit `kind` of element
/// `pick % len` (untracked lines have nothing to set).
fn poke(tags: &mut LineTags, pick: u64, kind: u64) {
    if !tags.is_tracked() {
        return;
    }
    let t = tags.get_mut((pick % tags.len() as u64) as usize);
    match kind {
        0 => t.set_read1st(true),
        1 => t.set_write(true),
        2 => t.set_no_shr(true),
        3 => t.set_r_only(true),
        _ => t.set_first(FirstTag::Own),
    }
}

/// Random tags: untracked, or 1–16 elements with random bits set.
fn random_tags(rng: &mut SplitMix64) -> LineTags {
    if rng.chance(0.25) {
        return LineTags::empty();
    }
    let mut tags = LineTags::cleared(rng.range(1, 17) as usize);
    for _ in 0..rng.below(4) {
        poke(&mut tags, rng.next_u64(), rng.below(5));
    }
    tags
}

/// The qualified reset against a full-walk reference: random fills,
/// `tags_mut` pokes, `set_tags`, accesses, invalidations and flushes, with
/// a per-iteration reset every few operations. The reference keeps every
/// resident line's tags and clears the iteration bits of all of them on a
/// reset; the hierarchy, which visits only the lines handed out since the
/// last reset, must agree on every resident line — `Read1st`/`Write`
/// clear, the sticky non-privatization bits untouched.
#[test]
fn iteration_reset_matches_a_full_walk() {
    let mut rng = SplitMix64::new(0x0cac_4e03);
    for _case in 0..96 {
        let l1 = rng.range(1, 5);
        let mut c = CacheHierarchy::new(CacheConfig {
            l1_lines: l1 as usize,
            l2_lines: (l1 * rng.range(1, 5)) as usize,
        });
        let mut model: HashMap<u64, LineTags> = HashMap::new();
        let lines = rng.range(2, 40);
        for _op in 0..rng.range(20, 300) {
            let l = rng.below(lines);
            let line = LineAddr(l);
            match rng.below(10) {
                0 | 1 => {
                    if c.probe(line) == HitLevel::Miss {
                        let tags = random_tags(&mut rng);
                        if let Some(v) = c.fill(line, LineState::Clean, tags) {
                            assert_eq!(model.remove(&v.line.0), Some(v.tags));
                        }
                        model.insert(l, tags);
                    }
                }
                2..=4 => {
                    let (pick, kind) = (rng.next_u64(), rng.below(5));
                    if let Some(tags) = c.tags_mut(line) {
                        poke(tags, pick, kind);
                        poke(model.get_mut(&l).expect("resident"), pick, kind);
                    }
                }
                5 => {
                    if model.contains_key(&l) {
                        let tags = random_tags(&mut rng);
                        c.set_tags(line, tags);
                        model.insert(l, tags);
                    }
                }
                6 => {
                    let _ = c.access(line);
                }
                7 => {
                    assert_eq!(c.invalidate(line).map(|(_, t)| t), model.remove(&l));
                }
                8 if rng.chance(0.1) => {
                    c.flush();
                    model.clear();
                }
                _ => {
                    c.clear_iteration_bits();
                    for tags in model.values_mut() {
                        tags.clear_iteration_bits();
                    }
                    assert_eq!(c.resident_lines(), model.len());
                    for (&l, want) in &model {
                        let got = c.tags_of(LineAddr(l)).expect("resident");
                        assert_eq!(got, want, "line {l} after a reset");
                        assert!(got.iter().all(|(_, t)| !t.read1st() && !t.write()));
                    }
                }
            }
        }
    }
}
