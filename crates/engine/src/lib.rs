#![warn(missing_docs)]

//! # specrt-engine
//!
//! Discrete-event simulation engine underpinning the `specrt` machine model.
//!
//! The paper's evaluation (Section 5.1) is based on execution-driven
//! simulation of a CC-NUMA multiprocessor using Tangolite. This crate is the
//! from-scratch replacement for that substrate: a deterministic
//! discrete-event core with
//!
//! * virtual [`Cycles`] time,
//! * a stable, deterministic [`EventQueue`],
//! * occupancy-based contention modelling ([`Resource`], [`BankedResource`]),
//! * per-processor cycle accounting ([`TimeBreakdown`]) in the three
//!   categories the paper reports (Busy / Sync / Mem, Figure 12),
//! * statistics counters and histograms ([`StatSet`], [`Histogram`]),
//! * a dependency-free deterministic RNG ([`SplitMix64`]) for tie-breaking
//!   and synthetic jitter.
//!
//! The engine is intentionally single-threaded: simulated parallelism across
//! processors is expressed as interleaved events in virtual time, which makes
//! every experiment bit-reproducible.
//!
//! ## Example
//!
//! ```
//! use specrt_engine::{Cycles, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycles(10), "late");
//! q.push(Cycles(5), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycles(5), "early"));
//! ```

pub mod events;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use resource::{BankedResource, Resource};
pub use rng::SplitMix64;
pub use stats::{Histogram, StatSet, TimeBreakdown};
pub use time::Cycles;
