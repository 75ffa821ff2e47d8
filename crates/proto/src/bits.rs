//! Directory-side access-bit stores — the "dedicated memory that is close to
//! the directory and is accessed at the same time as the directory" (§4.1).
//!
//! Logically the bits live in the directory slice of each element's home
//! node; we store them per array (contiguously, like the hardware's access
//! bit table indexed through the translation table) and compute the home
//! node only for timing.

use specrt_ir::ArrayId;
use specrt_mem::{IdMap, ProcId};
use specrt_spec::{
    DirElem, DirEmission, DirEvent, PrivNoReadInPrivate, PrivPrivateElem, ProtocolSpec, SpecVariant,
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

/// Private-copy privatization stamps (`PMaxR1st`/`PMaxW`), one vector per
/// (array, processor).
#[derive(Debug, Clone, Default)]
pub struct PrivPrivateStore {
    copies: IdMap<(ArrayId, ProcId), Vec<PrivPrivateElem>>,
    // Sticky per-element "has been read in / written" marks. Unlike the
    // stamps, these survive §3.3 stamp-window resets: the private copy's
    // data remains valid across windows, so the read-in decision must not
    // re-trigger (it would reload stale shared data over private updates).
    touched: IdMap<(ArrayId, ProcId), Vec<bool>>,
}

impl PrivPrivateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PrivPrivateStore::default()
    }

    /// Registers the private copy of `arr` for `proc` with `len` elements.
    pub fn register(&mut self, arr: ArrayId, proc: ProcId, len: u64) {
        self.copies
            .insert((arr, proc), vec![PrivPrivateElem::default(); len as usize]);
        self.touched.insert((arr, proc), vec![false; len as usize]);
    }

    /// Marks element `idx` as resident in the private copy (read in or
    /// written at some point in the loop).
    pub fn mark_touched(&mut self, arr: ArrayId, proc: ProcId, idx: u64) {
        self.touched
            .get_mut(&(arr, proc))
            .expect("private copy registered")[idx as usize] = true;
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if unregistered/out of range.
    pub fn elem(&self, arr: ArrayId, proc: ProcId, idx: u64) -> &PrivPrivateElem {
        &self.copies[&(arr, proc)][idx as usize]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if unregistered/out of range.
    pub fn elem_mut(&mut self, arr: ArrayId, proc: ProcId, idx: u64) -> &mut PrivPrivateElem {
        &mut self
            .copies
            .get_mut(&(arr, proc))
            .expect("private copy registered")[idx as usize]
    }

    /// Whether every element of `range` in the (array, proc) copy has never
    /// been read in or written — the read-in test over a whole memory line.
    /// Survives stamp-window resets.
    pub fn line_untouched(&self, arr: ArrayId, proc: ProcId, range: std::ops::Range<u64>) -> bool {
        let v = &self.touched[&(arr, proc)];
        range.clone().all(|i| !v[i as usize])
    }

    /// For copy-out: the processor holding the highest `PMaxW` for element
    /// `idx`, with that stamp, if anyone wrote it.
    pub fn last_writer(&self, arr: ArrayId, procs: u32, idx: u64) -> Option<(ProcId, u64)> {
        let mut best: Option<(ProcId, u64)> = None;
        for p in 0..procs {
            let proc = ProcId(p);
            if let Some(v) = self.copies.get(&(arr, proc)) {
                let stamp = v[idx as usize].pmax_w;
                if stamp > 0 && best.is_none_or(|(_, s)| stamp > s) {
                    best = Some((proc, stamp));
                }
            }
        }
        best
    }

    /// Clears only the stamps (a §3.3 stamp-window reset); the touched
    /// marks — and with them the read-in decisions — are preserved.
    pub fn clear_stamps(&mut self) {
        for v in self.copies.values_mut() {
            for e in v {
                e.clear();
            }
        }
    }

    /// Clears everything (loop start).
    pub fn clear(&mut self) {
        self.clear_stamps();
        for v in self.touched.values_mut() {
            for t in v {
                *t = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_dir_store_steps_and_clears() {
        use specrt_spec::FailReason;

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

    #[test]
    fn private_store_line_untouched() {
        let mut s = PrivPrivateStore::new();
        s.register(ArrayId(0), ProcId(0), 8);
        assert!(s.line_untouched(ArrayId(0), ProcId(0), 0..8));
        s.mark_touched(ArrayId(0), ProcId(0), 3);
        assert!(!s.line_untouched(ArrayId(0), ProcId(0), 0..8));
        assert!(s.line_untouched(ArrayId(0), ProcId(0), 4..8));
        // A stamp-window reset clears stamps but not residency.
        s.elem_mut(ArrayId(0), ProcId(0), 3)
            .on_first_write_signal(2);
        s.clear_stamps();
        assert!(s.elem(ArrayId(0), ProcId(0), 3).is_untouched());
        assert!(!s.line_untouched(ArrayId(0), ProcId(0), 0..8));
        s.clear();
        assert!(s.line_untouched(ArrayId(0), ProcId(0), 0..8));
    }

    #[test]
    fn last_writer_finds_max_stamp() {
        let mut s = PrivPrivateStore::new();
        for p in 0..3 {
            s.register(ArrayId(0), ProcId(p), 2);
        }
        s.elem_mut(ArrayId(0), ProcId(0), 0)
            .on_first_write_signal(2);
        s.elem_mut(ArrayId(0), ProcId(2), 0)
            .on_first_write_signal(7);
        assert_eq!(s.last_writer(ArrayId(0), 3, 0), Some((ProcId(2), 7)));
        assert_eq!(s.last_writer(ArrayId(0), 3, 1), None);
    }
}

/// Private-directory reduced (no-read-in) privatization bits
/// (`Read1st`/`Write`/`WriteAny`, §4.1).
#[derive(Debug, Clone, Default)]
pub struct Priv3PrivateStore {
    copies: IdMap<(ArrayId, ProcId), Vec<PrivNoReadInPrivate>>,
    // Per processor, the elements whose `Read1st`/`Write` bits are up.
    // [`Self::set`] lists an element when the first of them goes up (the
    // protocol steps only ever raise them), so each is listed once and
    // the per-iteration reset visits exactly those elements.
    touched: Vec<Vec<(ArrayId, u64)>>,
}

impl Priv3PrivateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Priv3PrivateStore::default()
    }

    /// Registers the private copy of `arr` for `proc`.
    pub fn register(&mut self, arr: ArrayId, proc: ProcId, len: u64) {
        self.copies.insert(
            (arr, proc),
            vec![PrivNoReadInPrivate::default(); len as usize],
        );
        let p = proc.0 as usize;
        if self.touched.len() <= p {
            self.touched.resize_with(p + 1, Vec::new);
        }
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if unregistered/out of range.
    pub fn elem(&self, arr: ArrayId, proc: ProcId, idx: u64) -> &PrivNoReadInPrivate {
        &self.copies[&(arr, proc)][idx as usize]
    }

    /// Stores the successor state of one element.
    ///
    /// # Panics
    ///
    /// Panics if unregistered/out of range.
    pub fn set(&mut self, arr: ArrayId, proc: ProcId, idx: u64, next: PrivNoReadInPrivate) {
        let e = &mut self
            .copies
            .get_mut(&(arr, proc))
            .expect("private copy registered")[idx as usize];
        if !(e.read1st || e.write) && (next.read1st || next.write) {
            self.touched[proc.0 as usize].push((arr, idx));
        }
        *e = next;
    }

    /// The hardware's per-iteration qualified reset: clears `Read1st` and
    /// `Write` (but not `WriteAny`) of every element of `proc`'s copies.
    /// Only elements listed by [`Self::set`] can hold those bits.
    pub fn clear_iteration_bits(&mut self, proc: ProcId) {
        let Some(list) = self.touched.get_mut(proc.0 as usize) else {
            return;
        };
        for (arr, idx) in list.drain(..) {
            self.copies
                .get_mut(&(arr, proc))
                .expect("private copy registered")[idx as usize]
                .clear_iteration();
        }
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        for v in self.copies.values_mut() {
            for e in v {
                e.clear();
            }
        }
        for list in &mut self.touched {
            list.clear();
        }
    }
}

#[cfg(test)]
mod priv3_tests {
    use super::*;

    #[test]
    fn priv3_private_store_round_trip() {
        let mut p = Priv3PrivateStore::new();
        p.register(ArrayId(0), ProcId(0), 2);
        let mut e = *p.elem(ArrayId(0), ProcId(0), 0);
        e.on_write();
        p.set(ArrayId(0), ProcId(0), 0, e);
        assert!(p.elem(ArrayId(0), ProcId(0), 0).write);
        p.clear_iteration_bits(ProcId(0));
        assert!(!p.elem(ArrayId(0), ProcId(0), 0).write);
        assert!(p.elem(ArrayId(0), ProcId(0), 0).write_any);
        p.clear();
        assert!(p.elem(ArrayId(0), ProcId(0), 0).is_untouched());
    }

    /// The touched-list reset against a full walk: random reads and
    /// writes through `ProtocolSpec::private3_step`, per-processor resets
    /// and whole-store clears. The reference clears the iteration bits of
    /// every element of the processor; the store, which visits only the
    /// elements it listed, must agree everywhere — `WriteAny` included.
    #[test]
    fn priv3_iteration_reset_matches_a_full_walk() {
        use specrt_engine::SplitMix64;

        let mut rng = SplitMix64::new(0x0b17_5003);
        for _case in 0..64 {
            let procs = rng.range(1, 5) as u32;
            let arrays: Vec<(ArrayId, u64)> = (0..rng.range(1, 4))
                .map(|a| (ArrayId(a as u32 * 7), rng.range(1, 24)))
                .collect();
            let mut store = Priv3PrivateStore::new();
            let mut model: Vec<Vec<Vec<PrivNoReadInPrivate>>> = Vec::new();
            for &(arr, len) in &arrays {
                model.push(vec![
                    vec![PrivNoReadInPrivate::default(); len as usize];
                    procs as usize
                ]);
                for p in 0..procs {
                    store.register(arr, ProcId(p), len);
                }
            }
            for _op in 0..rng.range(10, 400) {
                let p = rng.below(procs as u64) as usize;
                match rng.below(8) {
                    0 => {
                        store.clear_iteration_bits(ProcId(p as u32));
                        for copy in &mut model {
                            for e in &mut copy[p] {
                                e.clear_iteration();
                            }
                        }
                    }
                    1 if rng.chance(0.05) => {
                        store.clear();
                        for copy in &mut model {
                            for e in copy.iter_mut().flatten() {
                                e.clear();
                            }
                        }
                    }
                    _ => {
                        let a = rng.below(arrays.len() as u64) as usize;
                        let (arr, len) = arrays[a];
                        let idx = rng.below(len);
                        let cur = *store.elem(arr, ProcId(p as u32), idx);
                        let (next, _) = ProtocolSpec::private3_step(cur, rng.chance(0.5));
                        store.set(arr, ProcId(p as u32), idx, next);
                        model[a][p][idx as usize] = next;
                    }
                }
                for (a, &(arr, len)) in arrays.iter().enumerate() {
                    for q in 0..procs {
                        for idx in 0..len {
                            assert_eq!(
                                *store.elem(arr, ProcId(q), idx),
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
