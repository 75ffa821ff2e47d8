#![warn(missing_docs)]

//! # specrt-proto
//!
//! The DASH-like directory-based cache-coherence protocol of the simulated
//! CC-NUMA machine, extended with the paper's speculation hooks.
//!
//! Structure:
//!
//! * [`latency`] — the §5.1 latency model: round-trip times of 1 / 12 / 60 /
//!   208 / 291 cycles for L1, L2, local memory, 2-hop and 3-hop remote
//!   accesses, plus occupancy-based contention at directories and memory
//!   banks (the global network is a constant-latency abstraction, as in the
//!   paper);
//! * [`directory`] — per-node directory slices tracking each line as
//!   Uncached / Shared(sharers) / Dirty(owner);
//! * [`bits`] — the directory-side access-bit stores: the "dedicated memory
//!   that is close to the directory" of §4.1. One
//!   [`SharedDirStore`](bits::SharedDirStore) holds the shared directory's
//!   [`DirElem`](specrt_spec::DirElem) state per element of each array
//!   under test, written only through
//!   [`ProtocolSpec::dir_step`](specrt_spec::ProtocolSpec::dir_step), and
//!   one [`PrivateDirStore`](bits::PrivateDirStore) holds each
//!   processor's private-directory
//!   [`PrivateDirElem`](specrt_spec::PrivateDirElem)s, written only
//!   through
//!   [`ProtocolSpec::private_dir_step`](specrt_spec::ProtocolSpec::private_dir_step);
//! * [`system`] — [`system::MemSystem`], the façade the machine
//!   layer talks to: every simulated load/store enters here and comes back
//!   with a completion time, possible read-in instructions, and possibly a
//!   speculation failure.
//!
//! Asynchronous protocol messages (`First_update`, `ROnly_update`,
//! read-first and first-write signals, `First_update_fail` bounces) travel
//! through an internal event queue with network latency, so the races that
//! the paper's algorithms (f)–(h) resolve actually occur in simulation.

pub mod bits;
pub mod directory;
pub mod latency;
pub mod system;

pub use directory::{DirLineState, DirectoryNode, SharerSet};
pub use latency::LatencyConfig;
pub use specrt_cache::CacheConfig;
pub use specrt_net::{
    Delivery, FaultAction, FaultConfig, FaultStats, LinkStat, NetConfig, NetSummary, Network,
    NodeFaultConfig, NodeFaultKind, Topology,
};
pub use specrt_trace::{HitKind, NullSink, RingBufferSink, TraceEvent, TraceSink, Tracer};
pub use system::{private_copy_id, AccessOutcome, MemSystem, MemSystemConfig, RetryConfig};
