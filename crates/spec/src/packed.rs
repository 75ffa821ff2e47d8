//! An exact fixed-width encoding of one model-checker node: a
//! system-layer [`SpecState`] plus the per-processor script positions.
//!
//! [`ProtocolSpec::pack`] writes the node into a fixed number of `u64`
//! words, one fixed-width code per entity (the positions, each directory
//! element, line copy, private-directory element and in-flight message),
//! and [`ProtocolSpec::unpack`] reads it back, so two nodes are equal
//! exactly when their packed forms are: a dedup set of packed keys never
//! merges two distinct states. Every field's width comes from the scope
//! limits ([`MAX_PROCS`], [`MAX_ELEMS`], [`MAX_LINES`], [`MAX_INFLIGHT`]);
//! a value outside its range — a stamp other than `0..=MAX_PROCS` or
//! "none", a processor or element past its limit, a state whose shape
//! does not match the scope — panics instead of aliasing. Lengths that the
//! scope fixes (directory, copies, tags, private directory, positions) are
//! not stored.

use std::hash::{Hash, Hasher};

use specrt_cache::{ElemTag, FirstTag, LineTags};
use specrt_mem::ProcId;

use crate::nonpriv::NonPrivDirElem;
use crate::privat::{PrivPrivateElem, PrivSharedElem};
use crate::privat3::{PrivNoReadInPrivate, PrivNoReadInShared};
use crate::protospec::{
    DirElem, Flight, FlightMsg, LineCopy, Pcs, PrivateDirElem, ProtocolSpec, SpecScope, SpecState,
    SpecVariant, MAX_ELEMS, MAX_INFLIGHT, MAX_LINES, MAX_PROCS,
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

/// A little-endian bit cursor over the packed words.
#[derive(Default)]
struct Bits {
    words: [u64; PACKED_WORDS],
    at: u32,
}

impl Bits {
    fn put(&mut self, v: u64, width: u32) {
        debug_assert!(v >> width == 0, "{v} does not fit {width} bits");
        let (i, off) = ((self.at / 64) as usize, self.at % 64);
        self.words[i] |= v << off;
        if off + width > 64 {
            self.words[i + 1] |= v >> (64 - off);
        }
        self.at += width;
    }

    fn take(&mut self, width: u32) -> u64 {
        let (i, off) = ((self.at / 64) as usize, self.at % 64);
        let mut v = self.words[i] >> off;
        if off + width > 64 {
            v |= self.words[i + 1] << (64 - off);
        }
        self.at += width;
        v & mask(width)
    }
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

/// Tags per copy of each line (computed once per node: the scope's line
/// arithmetic divides).
fn line_lens(scope: SpecScope) -> [usize; MAX_LINES as usize] {
    std::array::from_fn(|line| {
        if line < scope.lines as usize {
            scope.line_range(line as u16).len()
        } else {
            0
        }
    })
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

impl ProtocolSpec {
    /// Encodes `(s, pcs)` exactly; [`ProtocolSpec::unpack`] inverts it.
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
        let mut b = Bits::default();
        let header = pcs
            .iter()
            .enumerate()
            .fold(u64::from(s.failed), |h, (p, &pc)| {
                assert!(
                    pc as usize <= MAX_INFLIGHT,
                    "script position {pc} outside 0..={MAX_INFLIGHT}"
                );
                h | u64::from(pc) << (1 + COUNT_BITS * p as u32)
            });
        b.put(header, 1 + COUNT_BITS * pcs.len() as u32);
        for d in &s.dir {
            b.put(self.dir_code(d), self.dir_bits());
        }
        let line_lens = line_lens(scope);
        for proc_copies in s.copies.chunks(scope.lines as usize) {
            for (c, &len) in proc_copies.iter().zip(&line_lens) {
                b.put(copy_code(c, len), copy_bits(len));
            }
        }
        for p in &s.pdir {
            b.put(self.pdir_code(p), self.pdir_bits());
        }
        b.put(s.inflight.len() as u64, COUNT_BITS);
        for f in &s.inflight {
            b.put(flight_code(f), FLIGHT_BITS);
        }
        PackedState(b.words)
    }

    /// Decodes a key [`ProtocolSpec::pack`] produced under this spec.
    pub fn unpack(&self, key: &PackedState) -> (SpecState, Pcs) {
        let scope = self.scope;
        let mut b = Bits {
            words: key.0,
            at: 0,
        };
        let mut s = self.init();
        let mut pcs = Pcs::filled(0, scope.procs as usize);
        let header = b.take(1 + COUNT_BITS * pcs.len() as u32);
        s.failed = header & 1 == 1;
        for (p, pc) in pcs.iter_mut().enumerate() {
            *pc = (header >> (1 + COUNT_BITS * p as u32) & mask(COUNT_BITS)) as u16;
        }
        for d in s.dir.iter_mut() {
            *d = self.dir_value(b.take(self.dir_bits()));
        }
        let line_lens = line_lens(scope);
        for proc_copies in s.copies.chunks_mut(scope.lines as usize) {
            for (c, &len) in proc_copies.iter_mut().zip(&line_lens) {
                *c = copy_value(b.take(copy_bits(len)), len);
            }
        }
        for p in s.pdir.iter_mut() {
            *p = self.pdir_value(b.take(self.pdir_bits()));
        }
        for _ in 0..b.take(COUNT_BITS) {
            s.inflight.push(flight_value(b.take(FLIGHT_BITS)));
        }
        (s, pcs)
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
            let (s2, pcs2) = spec.unpack(&spec.pack(&s, &pcs));
            assert_eq!((s2, pcs2), (s, pcs), "{}", variant.name());
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
                        assert_eq!(spec.unpack(&spec.pack(&s, &pcs)), (s, pcs));
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
