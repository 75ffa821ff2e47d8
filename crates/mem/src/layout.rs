//! Array layouts and the physical-address ⇄ element map.
//!
//! The paper's directory hardware contains a *translation table* loaded "at
//! the beginning of the program with information about the arrays under test
//! allocated in the memory of that node: its physical address boundaries,
//! its data type, and a pointer to the beginning of its access bits"
//! (§4.2). [`AddressMap`] is the software model of exactly that table, plus
//! the forward map used when loop bodies index arrays.

use std::collections::BTreeMap;
use std::fmt;

use specrt_ir::ArrayId;

use crate::addr::{LineAddr, PAddr, LINE_BYTES};
use crate::idmap::IdMap;

/// Element size of an array: the paper's workloads use 4-byte and 8-byte
/// elements ("the array elements are 4 bytes" / "8 bytes", §5.2), and access
/// bits are kept **per element**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemSize {
    /// 4-byte elements (single-precision / 32-bit integers).
    W4,
    /// 8-byte elements (double-precision / 64-bit integers).
    W8,
}

impl ElemSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            ElemSize::W4 => 4,
            ElemSize::W8 => 8,
        }
    }

    /// Elements per 64-byte cache line.
    #[inline]
    pub fn per_line(self) -> u64 {
        LINE_BYTES / self.bytes()
    }
}

impl fmt::Display for ElemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// The physical placement of one logical array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    /// The logical array this layout describes.
    pub id: ArrayId,
    /// First byte of the array (line-aligned by the allocator).
    pub base: PAddr,
    /// Number of elements.
    pub len: u64,
    /// Element size.
    pub elem: ElemSize,
}

impl ArrayLayout {
    /// Physical address of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds — a functional-simulation bug, since
    /// IR execution validates indices against array lengths first.
    #[inline]
    pub fn addr_of(&self, idx: u64) -> PAddr {
        assert!(idx < self.len, "index {idx} out of bounds for {}", self.id);
        self.base.offset(idx * self.elem.bytes())
    }

    /// One past the last byte.
    #[inline]
    pub fn end(&self) -> PAddr {
        self.base.offset(self.len * self.elem.bytes())
    }

    /// Total size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.len * self.elem.bytes()
    }

    /// Whether `addr` falls inside the array.
    #[inline]
    pub fn contains(&self, addr: PAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Element index containing `addr`, if inside the array.
    #[inline]
    pub fn elem_at(&self, addr: PAddr) -> Option<u64> {
        if self.contains(addr) {
            Some((addr.0 - self.base.0) / self.elem.bytes())
        } else {
            None
        }
    }

    /// The range of element indices that share the cache line `line`, if the
    /// line overlaps the array. Used when a whole line's access bits travel
    /// with a coherence transaction.
    pub fn elems_on_line(&self, line: LineAddr) -> Option<std::ops::Range<u64>> {
        let lo = line.base();
        let hi = lo.offset(LINE_BYTES);
        if hi <= self.base || lo >= self.end() {
            return None;
        }
        let first = if lo <= self.base {
            0
        } else {
            (lo.0 - self.base.0) / self.elem.bytes()
        };
        let last = ((hi.0.min(self.end().0)) - self.base.0).div_ceil(self.elem.bytes());
        Some(first..last)
    }

    /// Number of cache lines the array spans.
    pub fn line_count(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        self.end().offset(LINE_BYTES - 1).line().0 - self.base.line().0
    }
}

/// Registry of all array layouts: forward (`ArrayId` → layout) and reverse
/// (`PAddr` → array + element) lookup.
///
/// The reverse lookup is the software model of the paper's directory
/// translation table.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    // Forward lookup on every simulated access.
    layouts: IdMap<ArrayId, ArrayLayout>,
    // Base address -> layout, for predecessor-search reverse lookup.
    by_base: BTreeMap<u64, ArrayLayout>,
}

impl AddressMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        AddressMap::default()
    }

    /// Registers a layout.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered or the extent overlaps an
    /// existing array — allocation bugs we want to fail fast on.
    pub fn insert(&mut self, layout: ArrayLayout) {
        assert!(
            !self.layouts.contains_key(&layout.id),
            "array {} registered twice",
            layout.id
        );
        if let Some((_, prev)) = self.by_base.range(..=layout.base.0).next_back() {
            assert!(
                prev.end() <= layout.base || layout.len == 0,
                "array {} overlaps {}",
                layout.id,
                prev.id
            );
        }
        if let Some((_, next)) = self.by_base.range(layout.base.0 + 1..).next() {
            assert!(
                layout.end() <= next.base,
                "array {} overlaps {}",
                layout.id,
                next.id
            );
        }
        self.by_base.insert(layout.base.0, layout);
        self.layouts.insert(layout.id, layout);
    }

    /// Layout of `id`, if registered.
    #[inline]
    pub fn get(&self, id: ArrayId) -> Option<&ArrayLayout> {
        self.layouts.get(&id)
    }

    /// Layout of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered.
    #[inline]
    pub fn layout(&self, id: ArrayId) -> &ArrayLayout {
        self.get(id)
            .unwrap_or_else(|| panic!("array {id} not registered"))
    }

    /// Reverse lookup: which array and element does `addr` belong to?
    pub fn locate(&self, addr: PAddr) -> Option<(ArrayId, u64)> {
        let (_, layout) = self.by_base.range(..=addr.0).next_back()?;
        layout.elem_at(addr).map(|e| (layout.id, e))
    }

    /// Iterates over all registered layouts in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ArrayLayout> + '_ {
        let mut v: Vec<&ArrayLayout> = self.layouts.values().collect();
        v.sort_by_key(|l| l.id);
        v.into_iter()
    }

    /// Number of registered arrays.
    pub fn len(&self) -> usize {
        self.layouts.len()
    }

    /// Whether no arrays are registered.
    pub fn is_empty(&self) -> bool {
        self.layouts.is_empty()
    }

    /// Forgets every registration (allocator reuse across requests).
    pub fn clear(&mut self) {
        self.layouts.clear();
        self.by_base.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(id: u32, base: u64, len: u64, elem: ElemSize) -> ArrayLayout {
        ArrayLayout {
            id: ArrayId(id),
            base: PAddr(base),
            len,
            elem,
        }
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemSize::W4.bytes(), 4);
        assert_eq!(ElemSize::W8.bytes(), 8);
        assert_eq!(ElemSize::W4.per_line(), 16);
        assert_eq!(ElemSize::W8.per_line(), 8);
    }

    #[test]
    fn addressing_forward_and_back() {
        let l = layout(0, 4096, 100, ElemSize::W8);
        assert_eq!(l.addr_of(0), PAddr(4096));
        assert_eq!(l.addr_of(3), PAddr(4096 + 24));
        assert_eq!(l.elem_at(PAddr(4096 + 24)), Some(3));
        assert_eq!(l.elem_at(PAddr(4096 + 27)), Some(3)); // mid-element
        assert_eq!(l.elem_at(PAddr(4095)), None);
        assert_eq!(l.elem_at(l.end()), None);
        assert_eq!(l.bytes(), 800);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn addr_of_out_of_bounds_panics() {
        layout(0, 0, 10, ElemSize::W4).addr_of(10);
    }

    #[test]
    fn elems_on_line_full_and_partial() {
        // Array of 8-byte elements starting mid-line is impossible via the
        // allocator, but base 4096 is line-aligned; line 64 covers elems 0..8.
        let l = layout(0, 4096, 20, ElemSize::W8);
        assert_eq!(l.elems_on_line(PAddr(4096).line()), Some(0..8));
        assert_eq!(l.elems_on_line(PAddr(4096 + 64).line()), Some(8..16));
        // Third line only partially covered (elements 16..20).
        assert_eq!(l.elems_on_line(PAddr(4096 + 128).line()), Some(16..20));
        // Unrelated line.
        assert_eq!(l.elems_on_line(PAddr(0).line()), None);
    }

    #[test]
    fn line_count_rounds_up() {
        assert_eq!(layout(0, 4096, 8, ElemSize::W8).line_count(), 1);
        assert_eq!(layout(0, 4096, 9, ElemSize::W8).line_count(), 2);
        assert_eq!(layout(0, 4096, 0, ElemSize::W8).line_count(), 0);
    }

    #[test]
    fn map_locates_addresses() {
        let mut m = AddressMap::new();
        m.insert(layout(0, 0, 16, ElemSize::W4)); // bytes 0..64
        m.insert(layout(1, 64, 8, ElemSize::W8)); // bytes 64..128
        assert_eq!(m.locate(PAddr(4)), Some((ArrayId(0), 1)));
        assert_eq!(m.locate(PAddr(64)), Some((ArrayId(1), 0)));
        assert_eq!(m.locate(PAddr(127)), Some((ArrayId(1), 7)));
        assert_eq!(m.locate(PAddr(128)), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_id_panics() {
        let mut m = AddressMap::new();
        m.insert(layout(0, 0, 4, ElemSize::W4));
        m.insert(layout(0, 4096, 4, ElemSize::W4));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_panics() {
        let mut m = AddressMap::new();
        m.insert(layout(0, 0, 16, ElemSize::W8)); // 0..128
        m.insert(layout(1, 64, 4, ElemSize::W4));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_from_below_panics() {
        let mut m = AddressMap::new();
        m.insert(layout(0, 4096, 16, ElemSize::W8));
        m.insert(layout(1, 4000, 100, ElemSize::W8)); // runs into array 0
    }

    #[test]
    fn layout_accessor_panics_on_missing() {
        let m = AddressMap::new();
        assert!(m.get(ArrayId(9)).is_none());
        let r = std::panic::catch_unwind(|| m.layout(ArrayId(9)));
        assert!(r.is_err());
    }
}
