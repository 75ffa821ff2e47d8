#![warn(missing_docs)]

//! # specrt-mem
//!
//! The NUMA memory system of the simulated CC-NUMA multiprocessor.
//!
//! Responsibilities:
//!
//! * a flat **physical address space** carved into 64-byte cache lines and
//!   4-KiB pages ([`addr`]);
//! * **page placement**: "the pages of workload data are allocated
//!   round-robin across the different memory modules" (paper §5.2), plus
//!   node-local placement for private copies and shadow arrays ([`numa`]);
//! * **array layouts**: each logical [`ArrayId`] maps to a contiguous
//!   physical extent with a 4- or 8-byte element size; the reverse map from
//!   a physical address to `(array, element)` is what the paper's directory
//!   *translation table* performs in hardware (§4.2) ([`layout`]);
//! * the **functional memory image**: current scalar value of every array
//!   element, with snapshot/restore used for speculative backup ([`image`]);
//! * [`IdMap`], the hash map every layer uses for ids the simulator
//!   generates itself ([`idmap`]).
//!
//! [`ArrayId`]: specrt_ir::ArrayId

pub mod addr;
pub mod idmap;
pub mod image;
pub mod layout;
pub mod numa;

pub use addr::{LineAddr, NodeId, PAddr, PageAddr, ProcId, LINE_BYTES, PAGE_BYTES};
pub use idmap::{IdHasher, IdMap};
pub use image::{ArrayBackup, MemoryImage};
pub use layout::{AddressMap, ArrayLayout, ElemSize};
pub use numa::{NumaAllocator, PlacementPolicy};
