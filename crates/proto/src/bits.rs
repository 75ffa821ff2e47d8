//! Directory-side access-bit stores — the "dedicated memory that is close to
//! the directory and is accessed at the same time as the directory" (§4.1).
//!
//! Logically the bits live in the directory slice of each element's home
//! node; we store them per array (contiguously, like the hardware's access
//! bit table indexed through the translation table) and compute the home
//! node only for timing. [`SharedDirStore`] holds the shared directory's
//! [`DirElem`]s and [`PrivateDirStore`] each processor's private-directory
//! [`PrivateDirElem`]s. Neither hands out mutable elements: the spec's
//! transition functions are the only writers of element state.

use specrt_ir::ArrayId;
use specrt_mem::{IdMap, ProcId};
use std::ops::Range;

use specrt_cache::LineTags;
use specrt_spec::{
    DirElem, DirEmission, DirEvent, PrivateDirElem, PrivateEffect, PrivateEvent, ProtocolSpec,
    SpecVariant,
};

/// Shared-directory speculation state for every element of the arrays
/// under test: one [`DirElem`] per element, in the protocol variant the
/// loop's plan names for the array.
///
/// There is no mutable element access. [`Self::step`] runs
/// [`ProtocolSpec::dir_step`] and stores its successor, so the spec's
/// transition function is the only writer of element state; registering
/// and clearing only ever reset whole arrays to the all-clear state.
#[derive(Debug, Clone, Default)]
pub struct SharedDirStore {
    arrays: IdMap<ArrayId, (SpecVariant, Vec<DirElem>)>,
}

impl SharedDirStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SharedDirStore::default()
    }

    /// Registers `arr` with `len` clear elements of `variant`, replacing
    /// any earlier registration.
    pub fn register(&mut self, arr: ArrayId, variant: SpecVariant, len: u64) {
        self.arrays
            .insert(arr, (variant, vec![DirElem::new(variant); len as usize]));
    }

    /// The variant `arr` is registered with, if any.
    pub fn variant_of(&self, arr: ArrayId) -> Option<SpecVariant> {
        self.arrays.get(&arr).map(|(v, _)| *v)
    }

    /// The state of `arr[idx]`, or `None` if `arr` is unregistered.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn get(&self, arr: ArrayId, idx: u64) -> Option<DirElem> {
        self.arrays.get(&arr).map(|(_, v)| v[idx as usize])
    }

    /// Runs [`ProtocolSpec::dir_step`] at `arr[idx]`, stores the successor
    /// and returns the emission.
    ///
    /// # Panics
    ///
    /// Panics if the array is unregistered, the index is out of range, or
    /// the event does not apply to the array's variant.
    pub fn step(&mut self, arr: ArrayId, idx: u64, ev: DirEvent) -> Option<DirEmission> {
        let (_, elems) = self.arrays.get_mut(&arr).expect("array registered");
        let elem = &mut elems[idx as usize];
        let (next, em) = ProtocolSpec::dir_step(*elem, ev);
        *elem = next;
        em
    }

    /// Clears all state (loop start: "clearing the directory tags … with a
    /// system call").
    pub fn clear(&mut self) {
        for (variant, elems) in self.arrays.values_mut() {
            elems.fill(DirElem::new(*variant));
        }
    }

    /// Clears only the stamped privatization arrays (a §3.3 stamp-window
    /// reset); non-privatization and no-read-in state survives.
    pub fn clear_stamps(&mut self) {
        for (variant, elems) in self.arrays.values_mut() {
            if *variant == SpecVariant::Priv {
                elems.fill(DirElem::new(SpecVariant::Priv));
            }
        }
    }
}

/// Private-directory speculation state: one [`PrivateDirElem`] per
/// element of each processor's private copy, in the privatization variant
/// the loop's plan names for the array.
///
/// As with [`SharedDirStore`], there is no mutable element access:
/// [`Self::step`] runs [`ProtocolSpec::private_dir_step`] and stores its
/// successor, and the resets only restore clear bits.
#[derive(Debug, Clone, Default)]
pub struct PrivateDirStore {
    copies: IdMap<(ArrayId, ProcId), (SpecVariant, Vec<PrivateDirElem>)>,
    // Per processor, the no-read-in elements whose `Read1st`/`Write` bits
    // are up. [`Self::step`] lists an element when the first of them goes
    // up (the protocol steps only ever raise them), so each is listed once
    // and the per-iteration reset visits exactly those elements.
    raised: Vec<Vec<(ArrayId, u64)>>,
}

impl PrivateDirStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PrivateDirStore::default()
    }

    /// Registers `proc`'s private copy of `arr` with `len` clear elements
    /// of `variant`, replacing any earlier registration.
    ///
    /// # Panics
    ///
    /// Panics on the non-privatization variant.
    pub fn register(&mut self, arr: ArrayId, proc: ProcId, variant: SpecVariant, len: u64) {
        self.copies.insert(
            (arr, proc),
            (variant, vec![PrivateDirElem::new(variant); len as usize]),
        );
        let p = proc.0 as usize;
        if self.raised.len() <= p {
            self.raised.resize_with(p + 1, Vec::new);
        }
    }

    /// The state of element `idx` of `proc`'s copy of `arr`.
    ///
    /// # Panics
    ///
    /// Panics if unregistered or out of range.
    pub fn get(&self, arr: ArrayId, proc: ProcId, idx: u64) -> PrivateDirElem {
        self.copies[&(arr, proc)].1[idx as usize]
    }

    /// Runs [`ProtocolSpec::private_dir_step`] at element `idx` of `proc`'s
    /// copy of `arr`, stores the successor and returns the effect.
    ///
    /// # Panics
    ///
    /// Panics if unregistered or out of range, or if the event does not
    /// apply to the copy's variant.
    pub fn step(
        &mut self,
        arr: ArrayId,
        proc: ProcId,
        idx: u64,
        ev: PrivateEvent,
    ) -> PrivateEffect {
        let (_, elems) = self
            .copies
            .get_mut(&(arr, proc))
            .expect("private copy registered");
        let elem = &mut elems[idx as usize];
        let (next, effect) = ProtocolSpec::private_dir_step(*elem, ev);
        if let (PrivateDirElem::Priv3(was), PrivateDirElem::Priv3(now)) = (*elem, next) {
            if !(was.read1st || was.write) && (now.read1st || now.write) {
                self.raised[proc.0 as usize].push((arr, idx));
            }
        }
        *elem = next;
        effect
    }

    /// Whether every element of `range` in `proc`'s stamped copy of `arr`
    /// is untouched — the read-in test over a whole memory line.
    pub fn line_untouched(&self, arr: ArrayId, proc: ProcId, range: Range<u64>) -> bool {
        let elems = &self.copies[&(arr, proc)].1;
        range.into_iter().all(|i| !elems[i as usize].touched())
    }

    /// The tags a refill of the private line holding `range` carries in
    /// effective iteration `eff` (see [`PrivateDirElem::refill_tag`]).
    pub fn line_tags(&self, arr: ArrayId, proc: ProcId, range: Range<u64>, eff: u64) -> LineTags {
        let elems = &self.copies[&(arr, proc)].1;
        let mut tags = LineTags::cleared((range.end - range.start) as usize);
        for (i, idx) in range.enumerate() {
            *tags.get_mut(i) = elems[idx as usize].refill_tag(eff);
        }
        tags
    }

    /// The hardware's per-iteration qualified reset: clears `Read1st` and
    /// `Write` (but not `WriteAny`) of `proc`'s no-read-in elements. Only
    /// elements listed by [`Self::step`] can hold those bits.
    pub fn clear_iteration_bits(&mut self, proc: ProcId) {
        let Some(list) = self.raised.get_mut(proc.0 as usize) else {
            return;
        };
        for (arr, idx) in list.drain(..) {
            let (_, elems) = self
                .copies
                .get_mut(&(arr, proc))
                .expect("private copy registered");
            if let PrivateDirElem::Priv3(e) = &mut elems[idx as usize] {
                e.clear_iteration();
            }
        }
    }

    /// Clears only the stamped copies, touched marks included (a §3.3
    /// stamp-window reset); no-read-in state survives.
    pub fn clear_stamps(&mut self) {
        for (variant, elems) in self.copies.values_mut() {
            if *variant == SpecVariant::Priv {
                elems.fill(PrivateDirElem::new(SpecVariant::Priv));
            }
        }
    }

    /// Clears everything (loop start).
    pub fn clear(&mut self) {
        for (variant, elems) in self.copies.values_mut() {
            elems.fill(PrivateDirElem::new(*variant));
        }
        for list in &mut self.raised {
            list.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_engine::SplitMix64;
    use specrt_spec::FailReason;

    #[test]
    fn shared_dir_store_steps_and_clears() {
        let (np, pr, p3) = (ArrayId(0), ArrayId(1), ArrayId(2));
        let mut s = SharedDirStore::new();
        s.register(np, SpecVariant::NonPriv, 4);
        s.register(pr, SpecVariant::Priv, 3);
        s.register(p3, SpecVariant::Priv3, 2);
        assert_eq!(s.variant_of(pr), Some(SpecVariant::Priv));
        assert_eq!(s.get(ArrayId(9), 0), None);

        assert_eq!(s.step(np, 2, DirEvent::WriteReq { from: ProcId(1) }), None);
        assert_eq!(s.get(np, 2).unwrap().state_label(), "NoShr,First(cpu1)");
        assert_eq!(s.step(pr, 0, DirEvent::FirstWrite { iter: 5 }), None);
        assert_eq!(s.step(p3, 1, DirEvent::FirstWrite { iter: 1 }), None);
        assert_eq!(
            s.step(p3, 1, DirEvent::ReadFirst { iter: 1 }),
            Some(DirEmission::Fail(FailReason::ReadFirstAfterWrite {
                iter: 0,
                min_w: 0
            }))
        );

        // A stamp-window reset clears the stamps and nothing else.
        s.clear_stamps();
        assert_eq!(s.get(pr, 0), Some(DirElem::new(SpecVariant::Priv)));
        assert_ne!(s.get(np, 2), Some(DirElem::new(SpecVariant::NonPriv)));
        assert_ne!(s.get(p3, 1), Some(DirElem::new(SpecVariant::Priv3)));

        s.clear();
        assert_eq!(s.get(np, 2), Some(DirElem::new(SpecVariant::NonPriv)));
        assert_eq!(s.get(p3, 1), Some(DirElem::new(SpecVariant::Priv3)));

        // Re-registering under another variant replaces the array.
        s.register(np, SpecVariant::Priv3, 4);
        assert_eq!(s.get(np, 3), Some(DirElem::new(SpecVariant::Priv3)));
    }

    const STAMPED: ArrayId = ArrayId(0);
    const NO_READ_IN: ArrayId = ArrayId(1);
    const P0: ProcId = ProcId(0);

    /// A store with an 8-element stamped copy and a 4-element no-read-in
    /// copy for processor 0; element 3 of the stamped copy is written in
    /// iteration 2, and the no-read-in copy's element 1 is written and
    /// element 2 read.
    fn stepped_store() -> PrivateDirStore {
        let mut s = PrivateDirStore::new();
        s.register(STAMPED, P0, SpecVariant::Priv, 8);
        s.register(NO_READ_IN, P0, SpecVariant::Priv3, 4);
        assert!(s.line_untouched(STAMPED, P0, 0..8));
        let write_miss = PrivateEvent::WriteMiss {
            iter: 2,
            line_untouched: true,
        };
        assert_eq!(
            s.step(STAMPED, P0, 3, write_miss),
            PrivateEffect::TestFirstWrite
        );
        let (read, write) = (
            PrivateEvent::ReadFirstSignal { iter: 1 },
            PrivateEvent::FirstWriteSignal { iter: 1 },
        );
        assert_eq!(
            s.step(NO_READ_IN, P0, 1, write),
            PrivateEffect::SignalFirstWrite
        );
        assert_eq!(s.step(NO_READ_IN, P0, 1, write), PrivateEffect::None);
        assert_eq!(
            s.step(NO_READ_IN, P0, 2, read),
            PrivateEffect::SignalReadFirst
        );
        s
    }

    #[test]
    fn private_dir_store_steps_and_projects() {
        let s = stepped_store();
        assert!(s.get(STAMPED, P0, 3).touched());
        assert!(!s.line_untouched(STAMPED, P0, 0..8));
        assert!(s.line_untouched(STAMPED, P0, 4..8));
        // A refill in the writing iteration carries `Write`; a later
        // iteration's refill carries nothing.
        assert!(s.line_tags(STAMPED, P0, 2..4, 2).get(1).write());
        assert_eq!(s.line_tags(STAMPED, P0, 2..4, 3), LineTags::cleared(2));
        let tags = s.line_tags(NO_READ_IN, P0, 0..4, 1);
        assert!(tags.get(1).write() && tags.get(2).read1st());
    }

    #[test]
    fn window_reset_clears_stamped_copies_only() {
        let mut s = stepped_store();
        let no_read_in: Vec<_> = (0..4).map(|i| s.get(NO_READ_IN, P0, i)).collect();
        s.clear_stamps();
        // Stamps and touched marks go: the next miss reads the line in.
        for idx in 0..8 {
            assert_eq!(
                s.get(STAMPED, P0, idx),
                PrivateDirElem::new(SpecVariant::Priv)
            );
        }
        assert!(s.line_untouched(STAMPED, P0, 0..8));
        let after: Vec<_> = (0..4).map(|i| s.get(NO_READ_IN, P0, i)).collect();
        assert_eq!(after, no_read_in, "no-read-in state survives");
    }

    #[test]
    fn iteration_reset_clears_only_listed_no_read_in_bits() {
        let mut s = stepped_store();
        let stamped = s.get(STAMPED, P0, 3);
        // Elements 1 and 2 raised their bits, each listed once (element 1
        // was written twice).
        assert_eq!(s.raised[0], [(NO_READ_IN, 1), (NO_READ_IN, 2)]);
        s.clear_iteration_bits(P0);
        assert!(s.raised[0].is_empty());
        let PrivateDirElem::Priv3(w) = s.get(NO_READ_IN, P0, 1) else {
            unreachable!()
        };
        assert!(!w.write && w.write_any, "WriteAny is sticky");
        let PrivateDirElem::Priv3(r) = s.get(NO_READ_IN, P0, 2) else {
            unreachable!()
        };
        assert!(!r.read1st);
        assert_eq!(
            s.get(STAMPED, P0, 3),
            stamped,
            "stamps are not per-iteration"
        );
    }

    /// The listed iteration reset against a full walk, over stamped and
    /// no-read-in copies alike: random steps through
    /// `ProtocolSpec::private_dir_step`, per-processor iteration resets,
    /// window resets and whole-store clears. The reference clears the
    /// iteration bits of every element of the processor; the store, which
    /// visits only the elements it listed, must agree everywhere —
    /// `WriteAny` and the stamps included.
    #[test]
    fn priv3_iteration_reset_matches_a_full_walk() {
        let mut rng = SplitMix64::new(0x0b17_5003);
        for _case in 0..64 {
            let procs = rng.range(1, 5) as u32;
            let arrays: Vec<(ArrayId, SpecVariant, u64)> = (0..rng.range(1, 4))
                .map(|a| {
                    let variant = if rng.chance(0.5) {
                        SpecVariant::Priv
                    } else {
                        SpecVariant::Priv3
                    };
                    (ArrayId(a as u32 * 7), variant, rng.range(1, 24))
                })
                .collect();
            let mut store = PrivateDirStore::new();
            let mut model: Vec<Vec<Vec<PrivateDirElem>>> = Vec::new();
            for &(arr, variant, len) in &arrays {
                model.push(vec![
                    vec![PrivateDirElem::new(variant); len as usize];
                    procs as usize
                ]);
                for p in 0..procs {
                    store.register(arr, ProcId(p), variant, len);
                }
            }
            for _op in 0..rng.range(10, 400) {
                let p = rng.below(procs as u64) as usize;
                match rng.below(8) {
                    0 => {
                        store.clear_iteration_bits(ProcId(p as u32));
                        for copy in &mut model {
                            for e in &mut copy[p] {
                                if let PrivateDirElem::Priv3(bits) = e {
                                    bits.clear_iteration();
                                }
                            }
                        }
                    }
                    1 if rng.chance(0.05) => {
                        store.clear();
                        for (copy, &(_, variant, _)) in model.iter_mut().zip(&arrays) {
                            copy.iter_mut()
                                .flatten()
                                .for_each(|e| *e = PrivateDirElem::new(variant));
                        }
                    }
                    2 if rng.chance(0.05) => {
                        store.clear_stamps();
                        for (copy, &(_, variant, _)) in model.iter_mut().zip(&arrays) {
                            if variant == SpecVariant::Priv {
                                copy.iter_mut()
                                    .flatten()
                                    .for_each(|e| *e = PrivateDirElem::new(variant));
                            }
                        }
                    }
                    _ => {
                        let a = rng.below(arrays.len() as u64) as usize;
                        let (arr, variant, len) = arrays[a];
                        let idx = rng.below(len);
                        let iter = rng.range(1, 5);
                        let line_untouched = rng.chance(0.5);
                        let ev = match (variant, rng.below(4)) {
                            (SpecVariant::Priv3, k) if k % 2 == 0 => {
                                PrivateEvent::ReadFirstSignal { iter }
                            }
                            (SpecVariant::Priv3, _) => PrivateEvent::FirstWriteSignal { iter },
                            (_, 0) => PrivateEvent::ReadFirstSignal { iter },
                            (_, 1) => PrivateEvent::FirstWriteSignal { iter },
                            (_, 2) => PrivateEvent::ReadMiss {
                                iter,
                                line_untouched,
                            },
                            _ => PrivateEvent::WriteMiss {
                                iter,
                                line_untouched,
                            },
                        };
                        let cur = model[a][p][idx as usize];
                        let (next, effect) = ProtocolSpec::private_dir_step(cur, ev);
                        assert_eq!(store.step(arr, ProcId(p as u32), idx, ev), effect);
                        model[a][p][idx as usize] = next;
                    }
                }
                for (a, &(arr, _, len)) in arrays.iter().enumerate() {
                    for q in 0..procs {
                        for idx in 0..len {
                            assert_eq!(
                                store.get(arr, ProcId(q), idx),
                                model[a][q as usize][idx as usize],
                                "{arr}[{idx}] of proc {q}"
                            );
                        }
                    }
                }
            }
        }
    }
}
