//! NUMA page placement.
//!
//! Global memory is distributed across nodes; the *home* of a page is the
//! node whose memory module holds it (and whose directory slice tracks its
//! lines). The paper allocates workload pages round-robin (§5.2), while
//! private copies of arrays under test and the software scheme's private
//! shadow arrays are placed in the local memory of the owning processor.

use specrt_ir::ArrayId;

use crate::addr::{NodeId, PAddr, PageAddr, PAGE_BYTES};
use crate::layout::{AddressMap, ArrayLayout, ElemSize};

/// Where the pages of an allocation should live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Spread pages round-robin across all nodes, starting from the
    /// allocator's rotating cursor (the paper's policy for shared data).
    RoundRobin,
    /// Put every page on one node (private copies, shadow arrays, and the
    /// `Serial` scenario where "all the data is allocated in the memory
    /// local to the processor", §6).
    Local(NodeId),
}

/// Bump allocator for the simulated physical address space with page→home
/// bookkeeping.
///
/// # Examples
///
/// ```
/// use specrt_ir::ArrayId;
/// use specrt_mem::{ElemSize, NumaAllocator, PlacementPolicy};
///
/// let mut numa = NumaAllocator::new(4);
/// let layout = numa.alloc_array(ArrayId(0), 1000, ElemSize::W8,
///                               PlacementPolicy::RoundRobin);
/// assert_eq!(layout.len, 1000);
/// // 8000 bytes = 2 pages, homed on nodes 0 and 1.
/// ```
#[derive(Debug, Clone)]
pub struct NumaAllocator {
    nodes: u32,
    next_page: u64,
    rr_cursor: u32,
    // Home of page `p` at index `p - 1`: pages are handed out densely
    // from 1, so the table is indexed, not searched.
    homes: Vec<NodeId>,
    map: AddressMap,
}

impl NumaAllocator {
    /// Creates an allocator for a machine with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u32) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        NumaAllocator {
            nodes,
            // Leave page 0 unused so that PAddr(0) is never a valid array
            // address; helps catch uninitialized-address bugs.
            next_page: 1,
            rr_cursor: 0,
            homes: Vec::new(),
            map: AddressMap::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Allocates and registers an array of `len` elements of size `elem`.
    ///
    /// The allocation is page-aligned: arrays never share pages, so a page's
    /// home placement applies to exactly one array. Returns the layout (also
    /// queryable later via [`address_map`](Self::address_map)).
    pub fn alloc_array(
        &mut self,
        id: ArrayId,
        len: u64,
        elem: ElemSize,
        policy: PlacementPolicy,
    ) -> ArrayLayout {
        let bytes = (len * elem.bytes()).max(1);
        let pages = bytes.div_ceil(PAGE_BYTES);
        let first_page = self.next_page;
        self.next_page += pages;
        for _ in 0..pages {
            let home = match policy {
                PlacementPolicy::RoundRobin => {
                    let n = NodeId(self.rr_cursor);
                    self.rr_cursor = (self.rr_cursor + 1) % self.nodes;
                    n
                }
                PlacementPolicy::Local(node) => {
                    assert!(node.0 < self.nodes, "placement on nonexistent {node}");
                    node
                }
            };
            self.homes.push(home);
        }
        debug_assert_eq!(self.homes.len() as u64, self.next_page - 1);
        let layout = ArrayLayout {
            id,
            base: PageAddr(first_page).base(),
            len,
            elem,
        };
        self.map.insert(layout);
        layout
    }

    /// Returns the allocator to its just-constructed state — page cursor
    /// back at 1, round-robin cursor at node 0, no pages homed, no arrays
    /// registered — keeping map capacity. Part of the machine-reuse path:
    /// a pooled [`crate::MemoryImage`]-backed machine re-allocates its
    /// arrays from scratch on every lease, so placements and addresses
    /// replay exactly as on a fresh allocator.
    pub fn reset(&mut self) {
        self.next_page = 1;
        self.rr_cursor = 0;
        self.homes.clear();
        self.map.clear();
    }

    /// The home node of the page containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was never allocated.
    #[inline]
    pub fn home_of(&self, addr: PAddr) -> NodeId {
        let page = addr.page().0;
        match page.checked_sub(1).and_then(|i| self.homes.get(i as usize)) {
            Some(&home) => home,
            None => panic!("address {addr} not allocated"),
        }
    }

    /// The registered address map (forward and reverse array lookup).
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Total pages allocated so far (excluding the reserved page 0).
    pub fn pages_allocated(&self) -> u64 {
        self.next_page - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_pages() {
        let mut numa = NumaAllocator::new(4);
        // 3 pages worth of 8-byte elements: 1536 elements = 12288 bytes.
        let l = numa.alloc_array(ArrayId(0), 1536, ElemSize::W8, PlacementPolicy::RoundRobin);
        assert_eq!(numa.home_of(l.addr_of(0)), NodeId(0));
        assert_eq!(numa.home_of(l.addr_of(512)), NodeId(1)); // second page
        assert_eq!(numa.home_of(l.addr_of(1024)), NodeId(2)); // third page
                                                              // Next allocation continues the rotation at node 3.
        let l2 = numa.alloc_array(ArrayId(1), 10, ElemSize::W4, PlacementPolicy::RoundRobin);
        assert_eq!(numa.home_of(l2.addr_of(0)), NodeId(3));
    }

    #[test]
    fn local_placement_pins_pages() {
        let mut numa = NumaAllocator::new(4);
        let l = numa.alloc_array(
            ArrayId(0),
            5000,
            ElemSize::W8,
            PlacementPolicy::Local(NodeId(2)),
        );
        for idx in [0u64, 1000, 4999] {
            assert_eq!(numa.home_of(l.addr_of(idx)), NodeId(2));
        }
    }

    #[test]
    fn arrays_do_not_share_pages() {
        let mut numa = NumaAllocator::new(2);
        let a = numa.alloc_array(ArrayId(0), 1, ElemSize::W4, PlacementPolicy::RoundRobin);
        let b = numa.alloc_array(ArrayId(1), 1, ElemSize::W4, PlacementPolicy::RoundRobin);
        assert_ne!(a.base.page(), b.base.page());
    }

    #[test]
    fn page_zero_reserved() {
        let mut numa = NumaAllocator::new(2);
        let a = numa.alloc_array(ArrayId(0), 1, ElemSize::W4, PlacementPolicy::RoundRobin);
        assert!(a.base.0 >= PAGE_BYTES);
    }

    #[test]
    fn address_map_is_registered() {
        let mut numa = NumaAllocator::new(2);
        let l = numa.alloc_array(ArrayId(7), 100, ElemSize::W8, PlacementPolicy::RoundRobin);
        assert_eq!(
            numa.address_map().locate(l.addr_of(42)),
            Some((ArrayId(7), 42))
        );
        assert_eq!(numa.pages_allocated(), 1);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unallocated_home_panics() {
        NumaAllocator::new(2).home_of(PAddr(123456789));
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn local_placement_validates_node() {
        let mut numa = NumaAllocator::new(2);
        numa.alloc_array(
            ArrayId(0),
            1,
            ElemSize::W4,
            PlacementPolicy::Local(NodeId(9)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        NumaAllocator::new(0);
    }

    #[test]
    fn zero_length_array_still_allocates_a_page() {
        let mut numa = NumaAllocator::new(2);
        let l = numa.alloc_array(ArrayId(0), 0, ElemSize::W8, PlacementPolicy::RoundRobin);
        assert_eq!(l.len, 0);
        assert_eq!(numa.pages_allocated(), 1);
    }
}
