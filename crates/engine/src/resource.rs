//! Occupancy-based contention modelling.
//!
//! The paper models "contention in the whole system except in the global
//! network, which is abstracted away as a constant latency" (Section 5.1).
//! We follow the same recipe: caches, directories and memory banks are
//! [`Resource`]s with a service time per operation; a request arriving while
//! the resource is busy queues behind earlier requests. The observable effect
//! is exactly the FIFO queueing delay, without simulating the internals of
//! each pipeline.

use crate::time::Cycles;

/// A single-server FIFO resource.
///
/// `acquire(now, service)` reserves the resource for `service` cycles
/// starting at `max(now, next_free)` and returns the *completion* time.
///
/// # Examples
///
/// ```
/// use specrt_engine::{Cycles, Resource};
///
/// let mut bank = Resource::new();
/// // Two back-to-back 10-cycle requests at t=0: second queues behind first.
/// assert_eq!(bank.acquire(Cycles(0), Cycles(10)), Cycles(10));
/// assert_eq!(bank.acquire(Cycles(0), Cycles(10)), Cycles(20));
/// // A request arriving after the backlog drains sees no queueing.
/// assert_eq!(bank.acquire(Cycles(100), Cycles(10)), Cycles(110));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    next_free: Cycles,
    total_busy: Cycles,
    total_queued: Cycles,
    requests: u64,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserves the resource at `now` for `service` cycles; returns the time
    /// at which the request completes (start + service).
    pub fn acquire(&mut self, now: Cycles, service: Cycles) -> Cycles {
        let start = now.max(self.next_free);
        self.total_queued += start.saturating_sub(now);
        self.next_free = start + service;
        self.total_busy += service;
        self.requests += 1;
        self.next_free
    }

    /// Time at which the resource becomes idle given current reservations.
    pub fn next_free(&self) -> Cycles {
        self.next_free
    }

    /// Total busy cycles accumulated (utilization numerator).
    pub fn total_busy(&self) -> Cycles {
        self.total_busy
    }

    /// Total cycles requests spent queued before starting service.
    pub fn total_queued(&self) -> Cycles {
        self.total_queued
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

/// A resource with `n` independently-queued banks, selected by a key.
///
/// Used for interleaved directory/memory banks: transactions to different
/// banks proceed in parallel, transactions to the same bank serialize. The
/// per-line serialization that the paper's protocol relies on ("all
/// transactions directed to the same cache line are serialized in the
/// corresponding directory") is modelled by hashing the line address to a
/// bank and queueing within it.
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<Resource>,
}

impl BankedResource {
    /// Creates `banks` idle banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "a banked resource needs at least one bank");
        BankedResource {
            banks: vec![Resource::new(); banks],
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Reserves the bank selected by `key` (hashed modulo bank count).
    pub fn acquire(&mut self, key: u64, now: Cycles, service: Cycles) -> Cycles {
        let idx = (key % self.banks.len() as u64) as usize;
        self.banks[idx].acquire(now, service)
    }

    /// Completion time if a request keyed by `key` were issued now — without
    /// reserving. Used to probe queue depth.
    pub fn next_free(&self, key: u64) -> Cycles {
        let idx = (key % self.banks.len() as u64) as usize;
        self.banks[idx].next_free()
    }

    /// Aggregate busy cycles over all banks.
    pub fn total_busy(&self) -> Cycles {
        self.banks.iter().map(Resource::total_busy).sum()
    }

    /// Aggregate queueing cycles over all banks.
    pub fn total_queued(&self) -> Cycles {
        self.banks.iter().map(Resource::total_queued).sum()
    }

    /// Aggregate request count over all banks.
    pub fn requests(&self) -> u64 {
        self.banks.iter().map(Resource::requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(Cycles(5), Cycles(3)), Cycles(8));
        assert_eq!(r.total_queued(), Cycles::ZERO);
        assert_eq!(r.requests(), 1);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = Resource::new();
        r.acquire(Cycles(0), Cycles(10));
        let done = r.acquire(Cycles(2), Cycles(10));
        assert_eq!(done, Cycles(20));
        assert_eq!(r.total_queued(), Cycles(8)); // waited 2..10
        assert_eq!(r.total_busy(), Cycles(20));
    }

    #[test]
    fn banks_are_independent() {
        let mut b = BankedResource::new(2);
        assert_eq!(b.acquire(0, Cycles(0), Cycles(10)), Cycles(10));
        // Different bank: no queueing.
        assert_eq!(b.acquire(1, Cycles(0), Cycles(10)), Cycles(10));
        // Same bank as first: queues.
        assert_eq!(b.acquire(2, Cycles(0), Cycles(10)), Cycles(20));
        assert_eq!(b.requests(), 3);
    }

    #[test]
    fn bank_probe_does_not_reserve() {
        let mut b = BankedResource::new(4);
        b.acquire(7, Cycles(0), Cycles(5));
        let free = b.next_free(7);
        assert_eq!(free, Cycles(5));
        assert_eq!(b.next_free(7), free, "probe must not change state");
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankedResource::new(0);
    }
}
