//! Shared workload infrastructure: scales, deterministic generation
//! helpers, and the [`Workload`] bundle.

use specrt_engine::SplitMix64;
use specrt_machine::{LoopSpec, SwVariant};

/// How much of the paper's full run to generate.
///
/// The paper reports per-loop averages over all executions of each loop;
/// since absolute host time is irrelevant (the simulated clock is what is
/// measured), scaled-down invocation counts change only statistical
/// smoothing, not the per-invocation behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for unit tests (seconds of host time).
    Smoke,
    /// Benchmark default: enough invocations/iterations for stable
    /// averages.
    Bench,
    /// Close to the paper's counts where feasible.
    Full,
}

impl Scale {
    /// Picks `(smoke, bench, full)`.
    pub fn pick(self, smoke: u64, bench: u64, full: u64) -> u64 {
        match self {
            Scale::Smoke => smoke,
            Scale::Bench => bench,
            Scale::Full => full,
        }
    }
}

/// A workload: a named family of loop invocations plus its paper
/// configuration.
pub struct Workload {
    /// Short name (`ocean`, `p3m`, `adm`, `track`).
    pub name: &'static str,
    /// The paper's loop identifier.
    pub paper_loop: &'static str,
    /// Processors the paper runs this loop with.
    pub procs: u32,
    /// One [`LoopSpec`] per simulated invocation.
    pub invocations: Vec<LoopSpec>,
    /// The §6.2 forced-failure instance (Figure 13).
    pub failure_instance: LoopSpec,
    /// Which software-test variant the paper uses for this loop
    /// (processor-wise where load balance allows static scheduling).
    pub sw_variant: SwVariant,
}

/// Deterministic RNG for invocation `inv` of workload `tag`.
pub fn rng_for(tag: u64, inv: u64) -> SplitMix64 {
    SplitMix64::new(0x5EC0_0000_0000_0000 ^ (tag << 32) ^ inv)
}

/// A pseudo-random permutation of `0..n` (Fisher–Yates under the given
/// RNG).
pub fn permutation(rng: &mut SplitMix64, n: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Bench.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn rng_is_deterministic_per_invocation() {
        let mut a = rng_for(1, 5);
        let mut b = rng_for(1, 5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = rng_for(1, 6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn permutation_is_complete() {
        let mut rng = rng_for(2, 0);
        let p = permutation(&mut rng, 50);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
