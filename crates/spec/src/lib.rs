#![warn(missing_docs)]

//! # specrt-spec
//!
//! The paper's contribution: cache-coherence-protocol extensions that detect
//! cross-iteration dependences during speculative parallel loop execution.
//!
//! Two protocols are provided (paper §3):
//!
//! * [`nonpriv`] — the **non-privatization algorithm** (Figures 4, 6, 7):
//!   every element of an array under test must be read-only (`ROnly`) or
//!   accessed by a single processor (`NoShr`); any other pattern FAILs the
//!   speculation. State lives in cache tags (`First`∈{NONE,OWN,OTHER},
//!   `NoShr`, `ROnly`) and in the home directory (`First` = processor id,
//!   `NoShr`, `ROnly`), kept coherent lazily with `First_update` /
//!   `ROnly_update` messages whose races the directory resolves.
//!
//! * [`privat`] — the **privatization algorithm** (Figures 8, 9): each
//!   processor works on a private copy; the shared array's directory keeps
//!   per-element `MaxR1st` / `MinW` iteration stamps and FAILs whenever a
//!   read-first iteration is later than some writing iteration. Supports
//!   read-in and copy-out.
//!
//! The state machines here are *pure*: they mutate tag/directory element
//! state and return what the step obliges — a [`CacheEmission`], a
//! [`DirEmission`], a [`PrivateEffect`], a signal bit or a [`FailReason`] —
//! in [`protospec`]'s types, so [`ProtocolSpec`] dispatches to them without
//! translating. Each element step also returns the [`RaceSite`] it took:
//! [`site`] defines the paper's lettered algorithms once, with their trace
//! labels and counter keys. `specrt-proto` executes those steps with message timing,
//! `specrt-machine` orchestrates loops, and `specrt-check`'s model checker
//! enumerates the same steps through millions of interleavings without a
//! simulator in the loop.
//!
//! [`privat3`] holds the reduced no-read-in state of Figure 5-b / §4.1.
//! Each processor's private-directory element of either privatization
//! variant is one [`PrivateDirElem`], stepped by
//! [`ProtocolSpec::private_dir_step`].
//! Also here: [`plan`] (which arrays are under which test — the paper's
//! address-range comparator of §4.1), [`chunking`] (block-cyclic
//! superiterations and the processor-wise extreme of §4.1), and
//! [`state_cost`] (the Figure 5 / §3.4 storage-cost analytics).

pub mod chunking;
pub mod fail;
pub mod fault;
pub mod inline_vec;
pub mod nonpriv;
pub mod packed;
pub mod plan;
pub mod privat;
pub mod privat3;
pub mod protospec;
pub mod site;
pub mod state_cost;

pub use chunking::IterationNumbering;
pub use fail::FailReason;
pub use fault::FaultKind;
pub use inline_vec::InlineVec;
pub use nonpriv::{
    nonpriv_cache_read, nonpriv_cache_write, nonpriv_complete_write, nonpriv_on_first_update_fail,
    NonPrivDirElem,
};
pub use packed::{KeyLayout, PackedState};
pub use plan::TestPlan;
pub use privat::{priv_cache_read, priv_cache_write, PrivPrivateElem, PrivSharedElem};
pub use privat3::{PrivNoReadInPrivate, PrivNoReadInShared};
pub use protospec::{
    CacheEmission, CacheEvent, DirElem, DirEmission, DirEvent, Emissions, Flight, FlightMsg,
    LineCopy, Pcs, PrivateDirElem, PrivateEffect, PrivateEvent, ProtocolSpec, SpecEmission,
    SpecMessage, SpecScope, SpecState, SpecVariant, Written,
};
pub use site::RaceSite;
pub use state_cost::StateCost;
