//! Machine-level configuration.

use specrt_proto::{MemSystemConfig, NetConfig, SharerSet};

/// Checkpointing cadence for [`RecoveryPolicy::CheckpointRestart`].
///
/// Speculative state quiesces at stamp-window barriers (all messages
/// drained, failure checked, qualified tags reset), so that is where a
/// checkpoint is cheap: the functional image, the accumulated last-writer
/// map and the iteration base fully describe a resumable prefix. The
/// machine snapshots at every window boundary, and windows are clamped to
/// at most `every_iters` iterations so a checkpoint exists at least that
/// often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Maximum iterations between checkpoints (≥ 1; also an upper bound on
    /// the stamp-window length while this policy is active).
    pub every_iters: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every_iters: 16 }
    }
}

/// What the machine does when the hardware flags a speculation failure.
///
/// The paper's policy (§3) is [`RecoveryPolicy::SerialReexec`]: abort the
/// doall, restore the backups, re-execute the whole loop serially.
/// [`RecoveryPolicy::RetrySpeculative`] generalizes it for *transient*
/// failures (a lost message escalated by the watchdog): restore the
/// backups, then re-run the loop speculatively up to `max_attempts` times
/// before falling back to the serial safety net. Deterministic dependence
/// violations fail every retry and land in the same serial fallback, so
/// the final memory image is identical under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort → restore → serial re-execution (the paper's safety net).
    SerialReexec,
    /// Abort → restore → speculative re-run, at most `max_attempts` times,
    /// then the serial safety net.
    RetrySpeculative {
        /// Speculative attempts beyond the first run (≥ 1 to be
        /// distinguishable from [`RecoveryPolicy::SerialReexec`]).
        max_attempts: u32,
    },
    /// Abort → roll back to the last window checkpoint → re-run only the
    /// lost iterations speculatively on the surviving processors (a node
    /// flagged `NodeUnreachable` is fenced out and its remaining chunk
    /// redistributed); the serial safety net covers a failure with no
    /// preceding checkpoint or a rerun that fails again.
    CheckpointRestart {
        /// Checkpointing cadence.
        checkpoint: CheckpointConfig,
    },
}

/// Constants governing processor and synchronization behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Memory-system configuration (processors, caches, latencies).
    pub mem: MemSystemConfig,
    /// Write-buffer depth: "processors do not stall on write misses" (§5.1)
    /// until this many stores are outstanding.
    pub write_buffer: usize,
    /// Fixed cost of a barrier episode beyond the latest arrival
    /// (lock + flag traffic).
    pub barrier_overhead: u64,
    /// Per-iteration dispatch cost under static/block-cyclic scheduling
    /// (loop increment + bounds check).
    pub sched_static_overhead: u64,
    /// Cycles the dynamic scheduler's central lock is held per grab.
    pub sched_lock_hold: u64,
    /// Cycles from a FAIL detection at a directory to every processor
    /// having stopped (abort broadcast).
    pub abort_latency: u64,
    /// Cost of the hardware's qualified tag reset at an iteration start.
    pub iter_reset_cost: u64,
    /// Detailed loop-end barrier: arrivals perform DASH fetch&op on a
    /// shared counter (serializing at its home directory) and waiters wake
    /// by re-reading the released sense flag, so barrier cost grows with
    /// contention instead of being the constant `barrier_overhead`.
    pub detailed_barrier: bool,
    /// Ring-buffer capacity for structured trace events; `0` disables
    /// tracing entirely (the default — no overhead on the access path).
    pub trace_capacity: usize,
    /// Also emit per-message network events into the trace (requires
    /// `trace_capacity > 0`). Off by default: the network stream is dense
    /// and would evict the transaction-level events golden tests rely on.
    pub trace_net: bool,
    /// Failure-recovery policy (the paper's serial re-execution by
    /// default).
    pub recovery: RecoveryPolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem: MemSystemConfig::default(),
            write_buffer: 16,
            barrier_overhead: 120,
            sched_static_overhead: 2,
            sched_lock_hold: 30,
            abort_latency: 200,
            iter_reset_cost: 1,
            detailed_barrier: false,
            trace_capacity: 0,
            trace_net: false,
            recovery: RecoveryPolicy::SerialReexec,
        }
    }
}

impl MachineConfig {
    /// Convenience: a default machine with `procs` processors.
    pub fn with_procs(procs: u32) -> Self {
        let mut c = MachineConfig::default();
        c.mem.procs = procs;
        c
    }

    /// Number of processors.
    pub fn procs(&self) -> u32 {
        self.mem.procs
    }

    /// Same machine with a different interconnect.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.mem.net = net;
        self
    }

    /// Same machine with a different failure-recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Largest accepted cache level, in 64-byte lines: eight times the
    /// paper's 512-KiB L2.
    pub const MAX_CACHE_LINES: usize = 65_536;

    /// Largest accepted number of directory banks per node.
    pub const MAX_DIR_BANKS: usize = 1_024;

    /// Largest accepted [`RecoveryPolicy::RetrySpeculative`] budget. Each
    /// attempt re-runs the whole loop, so the budget bounds how long one
    /// run can take.
    pub const MAX_RETRY_ATTEMPTS: u32 = 16;

    /// Largest accepted watchdog retransmission budget
    /// (`mem.retry.max_retries`).
    pub const MAX_RETRANSMISSIONS: u32 = 16;

    /// Largest accepted first watchdog timeout (`mem.retry.timeout`), in
    /// cycles. The wait doubles per retransmission, so with
    /// [`Self::MAX_RETRANSMISSIONS`] the longest wait is 2^48 cycles and one
    /// message's waits sum to less than 2^49: far from `u64` overflow.
    pub const MAX_RETRY_TIMEOUT: u64 = 1 << 32;

    /// Checks that a machine can be built from this configuration: the
    /// processor count fits the directory's presence mask, both cache
    /// levels and the directory banks are non-zero and within their
    /// bounds, L2 is a multiple of L1 (inclusion with direct mapping), the
    /// retry budgets and the watchdog timeout are within their bounds, and
    /// the fault rates are in range.
    ///
    /// # Errors
    ///
    /// Names the first offending field with its accepted range.
    pub fn validate(&self) -> Result<(), String> {
        let m = &self.mem;
        if m.procs == 0 || m.procs > SharerSet::MAX_PROCS {
            return Err(format!(
                "procs={} out of range (accepted range: 1..={})",
                m.procs,
                SharerSet::MAX_PROCS
            ));
        }
        let (l1, l2) = (m.cache.l1_lines, m.cache.l2_lines);
        for (name, lines) in [("l1_lines", l1), ("l2_lines", l2)] {
            if lines == 0 || lines > Self::MAX_CACHE_LINES {
                return Err(format!(
                    "{name}={lines} out of range (accepted range: 1..={})",
                    Self::MAX_CACHE_LINES
                ));
            }
        }
        if !l2.is_multiple_of(l1) {
            return Err(format!(
                "l2_lines={l2} must be a multiple of l1_lines={l1} \
                 (an inclusive direct-mapped L2 holds whole L1 images)"
            ));
        }
        if m.dir_banks == 0 || m.dir_banks > Self::MAX_DIR_BANKS {
            return Err(format!(
                "dir_banks={} out of range (accepted range: 1..={})",
                m.dir_banks,
                Self::MAX_DIR_BANKS
            ));
        }
        if let RecoveryPolicy::RetrySpeculative { max_attempts } = self.recovery {
            if max_attempts > Self::MAX_RETRY_ATTEMPTS {
                return Err(format!(
                    "max_attempts={max_attempts} out of range (accepted range: 0..={})",
                    Self::MAX_RETRY_ATTEMPTS
                ));
            }
        }
        if m.retry.max_retries > Self::MAX_RETRANSMISSIONS {
            return Err(format!(
                "retry.max_retries={} out of range (accepted range: 0..={})",
                m.retry.max_retries,
                Self::MAX_RETRANSMISSIONS
            ));
        }
        if m.retry.timeout > Self::MAX_RETRY_TIMEOUT {
            return Err(format!(
                "retry.timeout={} out of range (accepted range: 0..={})",
                m.retry.timeout,
                Self::MAX_RETRY_TIMEOUT
            ));
        }
        m.net.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_procs_sets_processor_count() {
        let c = MachineConfig::with_procs(8);
        assert_eq!(c.procs(), 8);
        assert_eq!(c.write_buffer, 16);
    }

    #[test]
    fn default_is_sixteen_processors() {
        assert_eq!(MachineConfig::default().procs(), 16);
    }

    #[test]
    fn with_net_swaps_the_interconnect() {
        let c = MachineConfig::with_procs(16).with_net(NetConfig::mesh(16));
        assert!(c.mem.net.is_contended());
        assert!(!MachineConfig::default().mem.net.is_contended());
    }

    #[test]
    fn validate_rejects_unbuildable_geometry() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));
        let with = |f: &dyn Fn(&mut MachineConfig)| {
            let mut c = MachineConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(with(&|c| c.mem.procs = 0).is_err());
        assert!(with(&|c| c.mem.procs = 65).is_err());
        assert!(with(&|c| c.mem.cache.l1_lines = 0).is_err());
        assert!(with(&|c| c.mem.cache.l2_lines = 0).is_err());
        assert!(with(&|c| c.mem.cache.l1_lines = 3).is_err());
        assert!(with(&|c| c.mem.cache.l2_lines = 256).is_err());
        assert!(with(&|c| c.mem.cache.l2_lines = 1 << 42).is_err());
        assert!(with(&|c| c.mem.dir_banks = 0).is_err());
        assert!(with(&|c| c.mem.dir_banks = 1 << 42).is_err());
        assert!(with(&|c| c.mem.net.faults.drop_ppm = 2_000_000).is_err());
        let retry = |max_attempts| RecoveryPolicy::RetrySpeculative { max_attempts };
        assert!(with(&|c| c.recovery = retry(17)).is_err());
        assert!(with(&|c| c.recovery = retry(u32::MAX)).is_err());
        assert!(with(&|c| c.mem.retry.max_retries = 17).is_err());
        assert!(with(&|c| c.mem.retry.max_retries = 70).is_err());
        assert!(with(&|c| c.mem.retry.timeout = (1 << 32) + 1).is_err());
        assert!(with(&|c| c.mem.retry.timeout = u64::MAX).is_err());
        // The bounds themselves and zero budgets are accepted.
        for budget in [0, 16] {
            assert_eq!(with(&|c| c.recovery = retry(budget)), Ok(()));
            assert_eq!(with(&|c| c.mem.retry.max_retries = budget), Ok(()));
        }
        assert_eq!(with(&|c| c.mem.retry.timeout = 1 << 32), Ok(()));
        assert_eq!(
            with(&|c| {
                c.mem.cache.l1_lines = 3;
                c.mem.cache.l2_lines = 9;
                c.mem.dir_banks = MachineConfig::MAX_DIR_BANKS;
            }),
            Ok(())
        );
    }

    #[test]
    fn default_recovery_is_the_papers_serial_reexec() {
        assert_eq!(
            MachineConfig::default().recovery,
            RecoveryPolicy::SerialReexec
        );
    }
}
