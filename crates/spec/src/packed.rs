//! An exact fixed-width encoding of one model-checker node: a
//! system-layer [`SpecState`] plus the per-processor script positions.
//!
//! [`ProtocolSpec::pack`] writes the node into a fixed number of `u64`
//! words, one fixed-width code per entity (the positions, each directory
//! element, line copy, private-directory element and in-flight message),
//! and [`KeyLayout::unpack`] reads it back ([`KeyLayout::unpack_into`]
//! into a reused buffer), so two nodes are equal
//! exactly when their packed forms are: a dedup set of packed keys never
//! merges two distinct states. Every field's width comes from the scope
//! limits ([`MAX_PROCS`], [`MAX_ELEMS`], [`MAX_LINES`], [`MAX_INFLIGHT`]);
//! a value outside its range — a stamp other than `0..=MAX_PROCS` or
//! "none", a processor or element past its limit, a state whose shape
//! does not match the scope — panics instead of aliasing. Lengths that the
//! scope fixes (directory, copies, tags, private directory, positions) are
//! not stored.
//!
//! Every field but the in-flight tail, which comes last, sits at an offset
//! the spec fixes ([`KeyLayout`]). So [`KeyLayout::repack`] builds a
//! successor's key from its parent's: it rewrites the header and the
//! entities a step recorded as [`Written`], and re-encodes the tail if the
//! step sent or delivered a message. It writes through the same field
//! encoders as `pack`, and equals `pack` of the successor whenever the
//! record misses no write.

use std::hash::{Hash, Hasher};

use specrt_cache::{ElemTag, FirstTag, LineTags};
use specrt_mem::ProcId;

use crate::nonpriv::NonPrivDirElem;
use crate::privat::{PrivPrivateElem, PrivSharedElem};
use crate::privat3::{PrivNoReadInPrivate, PrivNoReadInShared};
use crate::protospec::{
    DirElem, Flight, FlightMsg, LineCopy, Pcs, PrivateDirElem, ProtocolSpec, SpecState,
    SpecVariant, Written, MAX_ELEMS, MAX_INFLIGHT, MAX_LINES, MAX_PROCS,
};

/// Bits needed to hold every value in `0..=max`.
const fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// The low `width` bits.
const fn mask(width: u32) -> u64 {
    (1 << width) - 1
}

const PROC_BITS: u32 = bits(MAX_PROCS as u64 - 1);
const ELEM_BITS: u32 = bits(MAX_ELEMS as u64 - 1);
/// `First`: 0 for none, `p + 1` for processor `p`.
const FIRST_BITS: u32 = bits(MAX_PROCS as u64);
/// Stamps `0..=MAX_PROCS` as themselves, "none" (`u64::MAX`) as
/// `MAX_PROCS + 1`.
const STAMP_BITS: u32 = bits(STAMP_NONE);
const STAMP_NONE: u64 = MAX_PROCS as u64 + 1;
/// A tag's `First` field (two bits) and its four flag bits.
const TAG_BITS: u32 = 6;
/// In-flight counts and script positions, both at most [`MAX_INFLIGHT`]
/// (one message per access at most, and no more accesses than that).
const COUNT_BITS: u32 = bits(MAX_INFLIGHT as u64);
/// One in-flight message: its kind (five), sender, element, and a payload
/// wide enough for a stamp or a bounce target.
const FLIGHT_BITS: u32 = 3 + PROC_BITS + ELEM_BITS + STAMP_BITS;
/// Line copies in the widest scope.
const COPIES: usize = MAX_PROCS as usize * MAX_LINES as usize;

/// The widest node: the failed flag, positions, priv's two directory
/// stamps per element, every copy present with its dirty bit and tags,
/// the stamped private directory, and a full in-flight queue.
const MAX_BITS: u32 = 1
    + MAX_PROCS as u32 * COUNT_BITS
    + MAX_ELEMS as u32 * 2 * STAMP_BITS
    + MAX_PROCS as u32 * (MAX_LINES as u32 * 2 + MAX_ELEMS as u32 * TAG_BITS)
    + MAX_PROCS as u32 * MAX_ELEMS as u32 * (2 * STAMP_BITS + 1)
    + COUNT_BITS
    + MAX_INFLIGHT as u32 * FLIGHT_BITS;

/// Words in a [`PackedState`].
const PACKED_WORDS: usize = MAX_BITS.div_ceil(u64::BITS) as usize;

/// A packed `(state, script positions)` node; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedState([u64; PACKED_WORDS]);

impl Hash for PackedState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for &w in &self.0 {
            h.write_u64(w);
        }
    }
}

impl PackedState {
    /// Overwrites the `width` bits at bit `at` (little-endian) with `v`.
    fn put(&mut self, at: u32, v: u64, width: u32) {
        debug_assert!(v >> width == 0, "{v} does not fit {width} bits");
        let (i, off) = ((at / 64) as usize, at % 64);
        self.0[i] = self.0[i] & !(mask(width) << off) | v << off;
        if off + width > 64 {
            let low = 64 - off;
            self.0[i + 1] = self.0[i + 1] & !(mask(width) >> low) | v >> low;
        }
    }

    /// The `width` bits at bit `at`.
    fn get(&self, at: u32, width: u32) -> u64 {
        let (i, off) = ((at / 64) as usize, at % 64);
        let mut v = self.0[i] >> off;
        if off + width > 64 {
            v |= self.0[i + 1] << (64 - off);
        }
        v & mask(width)
    }

    /// Zeroes every bit from bit `at` on.
    fn clear_from(&mut self, at: u32) {
        let (i, off) = ((at / 64) as usize, at % 64);
        self.0[i] &= mask(off);
        self.0[i + 1..].fill(0);
    }
}

/// The set bits of `m`, lowest first.
fn ones(mut m: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

fn proc_code(p: u16) -> u64 {
    assert!(p < MAX_PROCS, "processor {p} outside 0..{MAX_PROCS}");
    u64::from(p)
}

fn elem_code(e: u16) -> u64 {
    assert!(e < MAX_ELEMS, "element {e} outside 0..{MAX_ELEMS}");
    u64::from(e)
}

fn stamp_code(v: u64) -> u64 {
    match v {
        u64::MAX => STAMP_NONE,
        v if v < STAMP_NONE => v,
        v => panic!("stamp {v} outside 0..={MAX_PROCS} or none"),
    }
}

fn stamp_value(code: u64) -> u64 {
    match code & mask(STAMP_BITS) {
        STAMP_NONE => u64::MAX,
        v => v,
    }
}

fn first_code(first: Option<ProcId>) -> u64 {
    first.map_or(0, |p| {
        assert!(
            p.0 < u32::from(MAX_PROCS),
            "first {p:?} outside 0..{MAX_PROCS}"
        );
        u64::from(p.0) + 1
    })
}

fn first_value(code: u64) -> Option<ProcId> {
    match code & mask(FIRST_BITS) {
        0 => None,
        p => Some(ProcId(p as u32 - 1)),
    }
}

fn tag_code(t: ElemTag) -> u64 {
    let first = match t.first() {
        FirstTag::None => 0,
        FirstTag::Own => 1,
        FirstTag::Other => 2,
    };
    first
        | u64::from(t.no_shr()) << 2
        | u64::from(t.r_only()) << 3
        | u64::from(t.read1st()) << 4
        | u64::from(t.write()) << 5
}

fn tag_value(code: u64) -> ElemTag {
    let mut t = ElemTag::CLEAR;
    t.set_first(match code & 3 {
        0 => FirstTag::None,
        1 => FirstTag::Own,
        _ => FirstTag::Other,
    });
    t.set_no_shr(code & 1 << 2 != 0);
    t.set_r_only(code & 1 << 3 != 0);
    t.set_read1st(code & 1 << 4 != 0);
    t.set_write(code & 1 << 5 != 0);
    t
}

/// A copy: absent as 0; present as 1, the dirty bit, then its `len` tags.
fn copy_code(c: &Option<LineCopy>, len: usize) -> u64 {
    let Some(c) = c else {
        return 0;
    };
    assert_eq!(c.tags.len(), len, "a copy holds tags for another line size");
    c.tags
        .iter()
        .fold(1 | u64::from(c.dirty) << 1, |code, (off, t)| {
            code | tag_code(t) << (2 + TAG_BITS * off as u32)
        })
}

fn copy_value(code: u64, len: usize) -> Option<LineCopy> {
    if code & 1 == 0 {
        return None;
    }
    let mut tags = LineTags::cleared(len);
    for off in 0..len {
        *tags.get_mut(off) = tag_value(code >> (2 + TAG_BITS * off as u32));
    }
    Some(LineCopy {
        dirty: code & 2 != 0,
        tags,
    })
}

fn copy_bits(len: usize) -> u32 {
    2 + TAG_BITS * len as u32
}

fn flight_code(f: &Flight) -> u64 {
    let (kind, elem, payload) = match f.msg {
        FlightMsg::FirstUpdate { elem } => (0, elem, 0),
        FlightMsg::ROnlyUpdate { elem } => (1, elem, 0),
        FlightMsg::FirstUpdateFail { elem, target } => (2, elem, proc_code(target)),
        FlightMsg::ReadFirst { elem, iter } => (3, elem, stamp_code(iter)),
        FlightMsg::FirstWrite { elem, iter } => (4, elem, stamp_code(iter)),
    };
    kind | proc_code(f.src) << 3
        | elem_code(elem) << (3 + PROC_BITS)
        | payload << (3 + PROC_BITS + ELEM_BITS)
}

fn flight_value(code: u64) -> Flight {
    let elem = (code >> (3 + PROC_BITS) & mask(ELEM_BITS)) as u16;
    let payload = code >> (3 + PROC_BITS + ELEM_BITS);
    let msg = match code & 7 {
        0 => FlightMsg::FirstUpdate { elem },
        1 => FlightMsg::ROnlyUpdate { elem },
        2 => FlightMsg::FirstUpdateFail {
            elem,
            target: payload as u16,
        },
        3 => FlightMsg::ReadFirst {
            elem,
            iter: stamp_value(payload),
        },
        _ => FlightMsg::FirstWrite {
            elem,
            iter: stamp_value(payload),
        },
    };
    Flight {
        src: (code >> 3 & mask(PROC_BITS)) as u16,
        msg,
    }
}

/// Where each field of a packed node starts under one spec: the header
/// (failed flag and script positions), each directory element, each copy,
/// each private-directory element, and the in-flight tail. The scope and
/// variant fix every offset up to the tail, which comes last. This is the
/// one place the offsets are defined: [`ProtocolSpec::pack`],
/// [`KeyLayout::repack`] and [`KeyLayout::unpack`] all read them here.
#[derive(Debug, Clone, Copy)]
pub struct KeyLayout {
    spec: ProtocolSpec,
    /// Width of the header, which starts at bit 0; the directory follows.
    header_bits: u32,
    dir_bits: u32,
    /// First bit and tag count of each copy, by copy index.
    copy_at: [u32; COPIES],
    copy_len: [usize; COPIES],
    pdir_at: u32,
    pdir_bits: u32,
    tail_at: u32,
}

impl KeyLayout {
    fn dir_at(&self, elem: usize) -> u32 {
        self.header_bits + elem as u32 * self.dir_bits
    }

    fn pdir_at(&self, pi: usize) -> u32 {
        self.pdir_at + pi as u32 * self.pdir_bits
    }

    fn put_header(&self, key: &mut PackedState, failed: bool, pcs: &[u16]) {
        let header = pcs
            .iter()
            .enumerate()
            .fold(u64::from(failed), |h, (p, &pc)| {
                assert!(
                    pc as usize <= MAX_INFLIGHT,
                    "script position {pc} outside 0..={MAX_INFLIGHT}"
                );
                h | u64::from(pc) << (1 + COUNT_BITS * p as u32)
            });
        key.put(0, header, self.header_bits);
    }

    fn put_dir(&self, key: &mut PackedState, elem: usize, d: &DirElem) {
        key.put(self.dir_at(elem), self.spec.dir_code(d), self.dir_bits);
    }

    fn put_copy(&self, key: &mut PackedState, ci: usize, c: &Option<LineCopy>) {
        let len = self.copy_len[ci];
        key.put(self.copy_at[ci], copy_code(c, len), copy_bits(len));
    }

    fn put_pdir(&self, key: &mut PackedState, pi: usize, p: &PrivateDirElem) {
        key.put(self.pdir_at(pi), self.spec.pdir_code(p), self.pdir_bits);
    }

    /// Writes the in-flight count and messages from the tail's offset on,
    /// zeroing every bit past them.
    fn put_tail(&self, key: &mut PackedState, inflight: &[Flight]) {
        key.clear_from(self.tail_at);
        key.put(self.tail_at, inflight.len() as u64, COUNT_BITS);
        let mut at = self.tail_at + COUNT_BITS;
        for f in inflight {
            key.put(at, flight_code(f), FLIGHT_BITS);
            at += FLIGHT_BITS;
        }
    }

    /// The key of `(s, pcs)`, built from the key of the node `s` was
    /// stepped from: the header and the entities `written` marks are
    /// rewritten, and the in-flight tail is re-encoded if it changed.
    /// Equals [`ProtocolSpec::pack`]`(s, pcs)` when `written` is what
    /// [`ProtocolSpec::step`] reported for that step, and `parent` was
    /// packed under this layout's spec.
    ///
    /// # Panics
    ///
    /// Panics where `pack` does on a rewritten field's value.
    pub fn repack(
        &self,
        parent: &PackedState,
        s: &SpecState,
        pcs: &[u16],
        written: Written,
    ) -> PackedState {
        let mut key = *parent;
        self.put_header(&mut key, s.failed, pcs);
        for e in ones(written.dir) {
            self.put_dir(&mut key, e, &s.dir[e]);
        }
        for ci in ones(written.copies) {
            self.put_copy(&mut key, ci, &s.copies[ci]);
        }
        for pi in ones(written.pdir) {
            self.put_pdir(&mut key, pi, &s.pdir[pi]);
        }
        if written.inflight {
            self.put_tail(&mut key, &s.inflight);
        }
        key
    }

    /// Decodes a key [`ProtocolSpec::pack`] or [`KeyLayout::repack`]
    /// produced under this layout's spec: [`ProtocolSpec::init`] plus
    /// [`Self::unpack_into`].
    pub fn unpack(&self, key: &PackedState) -> (SpecState, Pcs) {
        let mut s = self.spec.init();
        let mut pcs = Pcs::filled(0, self.spec.scope.procs as usize);
        self.unpack_into(key, &mut s, &mut pcs);
        (s, pcs)
    }

    /// [`Self::unpack`] into reused buffers: overwrites every field of `s`
    /// and every position in `pcs`, clearing the in-flight queue before
    /// refilling it, so nothing of the node they held survives. Both must
    /// already have this spec's shape, as [`ProtocolSpec::init`] and
    /// `unpack` build them; the shape is fixed per spec, so a buffer
    /// decoded into once keeps it.
    pub fn unpack_into(&self, key: &PackedState, s: &mut SpecState, pcs: &mut Pcs) {
        let spec = &self.spec;
        debug_assert!(
            s.dir.len() == spec.scope.elems as usize
                && s.copies.len() == spec.scope.procs as usize * spec.scope.lines as usize
                && s.pdir.len() == spec.pdir_len()
                && pcs.len() == spec.scope.procs as usize,
            "decode buffer does not have the spec's shape"
        );
        let header = key.get(0, self.header_bits);
        s.failed = header & 1 == 1;
        for (p, pc) in pcs.iter_mut().enumerate() {
            *pc = (header >> (1 + COUNT_BITS * p as u32) & mask(COUNT_BITS)) as u16;
        }
        for (e, d) in s.dir.iter_mut().enumerate() {
            *d = spec.dir_value(key.get(self.dir_at(e), self.dir_bits));
        }
        for (ci, c) in s.copies.iter_mut().enumerate() {
            let len = self.copy_len[ci];
            *c = copy_value(key.get(self.copy_at[ci], copy_bits(len)), len);
        }
        for (pi, p) in s.pdir.iter_mut().enumerate() {
            *p = spec.pdir_value(key.get(self.pdir_at(pi), self.pdir_bits));
        }
        s.inflight.clear();
        let mut at = self.tail_at + COUNT_BITS;
        for _ in 0..key.get(self.tail_at, COUNT_BITS) {
            s.inflight.push(flight_value(key.get(at, FLIGHT_BITS)));
            at += FLIGHT_BITS;
        }
    }
}

impl ProtocolSpec {
    /// The field offsets of this spec's packed keys.
    pub fn key_layout(&self) -> KeyLayout {
        let scope = self.scope;
        let header_bits = 1 + COUNT_BITS * u32::from(scope.procs);
        let dir_bits = self.dir_bits();
        let line_lens: [usize; MAX_LINES as usize] = std::array::from_fn(|line| {
            if line < scope.lines as usize {
                scope.line_range(line as u16).len()
            } else {
                0
            }
        });
        let mut copy_at = [0; COPIES];
        let mut copy_len = [0; COPIES];
        let mut at = header_bits + u32::from(scope.elems) * dir_bits;
        for ci in 0..scope.procs as usize * scope.lines as usize {
            copy_len[ci] = line_lens[ci % scope.lines as usize];
            copy_at[ci] = at;
            at += copy_bits(copy_len[ci]);
        }
        let pdir_bits = self.pdir_bits();
        KeyLayout {
            spec: *self,
            header_bits,
            dir_bits,
            copy_at,
            copy_len,
            pdir_at: at,
            pdir_bits,
            tail_at: at + self.pdir_len() as u32 * pdir_bits,
        }
    }

    /// Encodes `(s, pcs)` exactly; [`KeyLayout::unpack`] inverts it.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `pcs` does not have this spec's shape (lengths,
    /// element variants) or holds a value outside its field's range (see
    /// the module docs).
    pub fn pack(&self, s: &SpecState, pcs: &[u16]) -> PackedState {
        let scope = self.scope;
        assert!(
            s.dir.len() == scope.elems as usize
                && s.copies.len() == scope.procs as usize * scope.lines as usize
                && s.pdir.len() == self.pdir_len()
                && pcs.len() == scope.procs as usize,
            "state shape does not match the {} spec's {}x{}x{} scope",
            self.variant.name(),
            scope.lines,
            scope.elems,
            scope.procs
        );
        let l = self.key_layout();
        let mut key = PackedState([0; PACKED_WORDS]);
        l.put_header(&mut key, s.failed, pcs);
        for (e, d) in s.dir.iter().enumerate() {
            l.put_dir(&mut key, e, d);
        }
        for (ci, c) in s.copies.iter().enumerate() {
            l.put_copy(&mut key, ci, c);
        }
        for (pi, p) in s.pdir.iter().enumerate() {
            l.put_pdir(&mut key, pi, p);
        }
        l.put_tail(&mut key, &s.inflight);
        key
    }

    fn dir_bits(&self) -> u32 {
        match self.variant {
            SpecVariant::NonPriv => FIRST_BITS + 2,
            SpecVariant::Priv => 2 * STAMP_BITS,
            SpecVariant::Priv3 => 2,
        }
    }

    fn dir_code(&self, d: &DirElem) -> u64 {
        match (self.variant, d) {
            (SpecVariant::NonPriv, DirElem::NonPriv(e)) => {
                first_code(e.first)
                    | u64::from(e.no_shr) << FIRST_BITS
                    | u64::from(e.r_only) << (FIRST_BITS + 1)
            }
            (SpecVariant::Priv, DirElem::Priv(e)) => {
                stamp_code(e.max_r1st) | stamp_code(e.min_w) << STAMP_BITS
            }
            (SpecVariant::Priv3, DirElem::Priv3(e)) => {
                u64::from(e.any_r1st) | u64::from(e.any_w) << 1
            }
            (v, d) => panic!("directory element {d:?} under the {} spec", v.name()),
        }
    }

    fn dir_value(&self, code: u64) -> DirElem {
        match self.variant {
            SpecVariant::NonPriv => DirElem::NonPriv(NonPrivDirElem {
                first: first_value(code),
                no_shr: code >> FIRST_BITS & 1 == 1,
                r_only: code >> (FIRST_BITS + 1) & 1 == 1,
            }),
            SpecVariant::Priv => DirElem::Priv(PrivSharedElem {
                max_r1st: stamp_value(code),
                min_w: stamp_value(code >> STAMP_BITS),
            }),
            SpecVariant::Priv3 => DirElem::Priv3(PrivNoReadInShared {
                any_r1st: code & 1 == 1,
                any_w: code & 2 != 0,
            }),
        }
    }

    fn pdir_bits(&self) -> u32 {
        match self.variant {
            SpecVariant::Priv => 2 * STAMP_BITS + 1,
            _ => 3,
        }
    }

    fn pdir_code(&self, p: &PrivateDirElem) -> u64 {
        match (self.variant, p) {
            (SpecVariant::Priv, PrivateDirElem::Priv { elem, touched }) => {
                stamp_code(elem.pmax_r1st)
                    | stamp_code(elem.pmax_w) << STAMP_BITS
                    | u64::from(*touched) << (2 * STAMP_BITS)
            }
            (SpecVariant::Priv3, PrivateDirElem::Priv3(e)) => {
                u64::from(e.read1st) | u64::from(e.write) << 1 | u64::from(e.write_any) << 2
            }
            (v, p) => panic!(
                "private-directory element {p:?} under the {} spec",
                v.name()
            ),
        }
    }

    fn pdir_value(&self, code: u64) -> PrivateDirElem {
        match self.variant {
            SpecVariant::Priv => PrivateDirElem::Priv {
                elem: PrivPrivateElem {
                    pmax_r1st: stamp_value(code),
                    pmax_w: stamp_value(code >> STAMP_BITS),
                },
                touched: code >> (2 * STAMP_BITS) & 1 == 1,
            },
            _ => PrivateDirElem::Priv3(PrivNoReadInPrivate {
                read1st: code & 1 == 1,
                write: code & 2 != 0,
                write_any: code & 4 != 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protospec::SpecScope;

    const WIDEST: SpecScope = SpecScope {
        lines: MAX_LINES,
        elems: MAX_ELEMS,
        procs: MAX_PROCS,
    };

    /// Every field at the edge of its range: stamps at `MAX_PROCS` and
    /// "none", every copy dirty with all tag bits set, a full in-flight
    /// queue of every message kind, and the last script positions.
    fn extreme(variant: SpecVariant) -> (ProtocolSpec, SpecState, Pcs) {
        let spec = ProtocolSpec::new(variant, WIDEST);
        let top = MAX_PROCS - 1;
        let stamp = |i: usize| {
            if i.is_multiple_of(2) {
                u64::from(MAX_PROCS)
            } else {
                u64::MAX
            }
        };
        let mut s = spec.init();
        s.failed = true;
        for (i, d) in s.dir.iter_mut().enumerate() {
            *d = match variant {
                SpecVariant::NonPriv => DirElem::NonPriv(NonPrivDirElem {
                    first: Some(ProcId(u32::from(top))),
                    no_shr: true,
                    r_only: true,
                }),
                SpecVariant::Priv => DirElem::Priv(PrivSharedElem {
                    max_r1st: stamp(i),
                    min_w: stamp(i + 1),
                }),
                SpecVariant::Priv3 => DirElem::Priv3(PrivNoReadInShared {
                    any_r1st: true,
                    any_w: true,
                }),
            };
        }
        let mut all = ElemTag::CLEAR;
        all.set_first(FirstTag::Other);
        all.set_no_shr(true);
        all.set_r_only(true);
        all.set_read1st(true);
        all.set_write(true);
        for (ci, c) in s.copies.iter_mut().enumerate() {
            let line = (ci % WIDEST.lines as usize) as u16;
            let mut tags = LineTags::cleared(WIDEST.line_range(line).len());
            for off in 0..tags.len() {
                *tags.get_mut(off) = all;
            }
            *c = Some(LineCopy { dirty: true, tags });
        }
        for (i, p) in s.pdir.iter_mut().enumerate() {
            *p = match variant {
                SpecVariant::Priv => PrivateDirElem::Priv {
                    elem: PrivPrivateElem {
                        pmax_r1st: stamp(i),
                        pmax_w: stamp(i + 1),
                    },
                    touched: true,
                },
                _ => PrivateDirElem::Priv3(PrivNoReadInPrivate {
                    read1st: true,
                    write: true,
                    write_any: true,
                }),
            };
        }
        let elem = MAX_ELEMS - 1;
        let kinds = [
            FlightMsg::FirstUpdate { elem },
            FlightMsg::ROnlyUpdate { elem },
            FlightMsg::FirstUpdateFail { elem, target: top },
            FlightMsg::ReadFirst {
                elem,
                iter: u64::from(MAX_PROCS),
            },
            FlightMsg::FirstWrite {
                elem,
                iter: u64::MAX,
            },
        ];
        for msg in kinds.iter().cycle().take(MAX_INFLIGHT) {
            s.inflight.push(Flight {
                src: top,
                msg: *msg,
            });
        }
        let pcs = Pcs::filled(MAX_INFLIGHT as u16, MAX_PROCS as usize);
        (spec, s, pcs)
    }

    #[test]
    fn extreme_states_round_trip() {
        for variant in SpecVariant::ALL {
            let (spec, s, pcs) = extreme(variant);
            let layout = spec.key_layout();
            let key = spec.pack(&s, &pcs);
            let (s2, pcs2) = layout.unpack(&key);
            assert_eq!((s2, pcs2), (s, pcs), "{}", variant.name());
            // Rewriting every field turns the initial key into this one
            // and back: each rewrite clears the bits it replaces.
            let (s0, pcs0) = (spec.init(), Pcs::filled(0, pcs.len()));
            let key0 = spec.pack(&s0, &pcs0);
            let all = Written {
                dir: (1 << s.dir.len()) - 1,
                copies: (1 << s.copies.len()) - 1,
                pdir: (1 << s.pdir.len()) - 1,
                inflight: true,
            };
            assert_eq!(layout.repack(&key0, &s, &pcs, all), key);
            assert_eq!(layout.repack(&key, &s0, &pcs0, all), key0);
            // Decoding into a buffer that holds the other node leaves
            // nothing of it behind, the full in-flight queue included.
            let (mut buf, mut buf_pcs) = (s, pcs);
            layout.unpack_into(&key0, &mut buf, &mut buf_pcs);
            assert_eq!((buf, buf_pcs), (s0, pcs0));
            layout.unpack_into(&key, &mut buf, &mut buf_pcs);
            assert_eq!((buf, buf_pcs), (s, pcs));
        }
    }

    #[test]
    fn initial_states_round_trip_at_every_scope() {
        for variant in SpecVariant::ALL {
            for lines in 1..=MAX_LINES {
                for elems in lines..=MAX_ELEMS {
                    for procs in 1..=MAX_PROCS {
                        let spec = ProtocolSpec::new(
                            variant,
                            SpecScope {
                                lines,
                                elems,
                                procs,
                            },
                        );
                        let pcs = Pcs::filled(0, procs as usize);
                        let s = spec.init();
                        assert_eq!(spec.key_layout().unpack(&spec.pack(&s, &pcs)), (s, pcs));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stamp 5 outside 0..=4 or none")]
    fn out_of_range_stamp_panics() {
        let (spec, mut s, pcs) = extreme(SpecVariant::Priv);
        s.dir[0] = DirElem::Priv(PrivSharedElem {
            max_r1st: u64::from(MAX_PROCS) + 1,
            min_w: u64::MAX,
        });
        spec.pack(&s, &pcs);
    }
}
