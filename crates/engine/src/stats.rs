//! Simulation statistics: cycle-accounting breakdowns, counters, histograms.
//!
//! The paper's Figure 12 decomposes loop execution time into *Busy*
//! (executing instructions), *Sync* (waiting at locks and barriers) and *Mem*
//! (waiting for the memory system). [`TimeBreakdown`] is that decomposition;
//! every simulated processor owns one and the scenario driver aggregates
//! them.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::Cycles;

/// Per-processor execution-time decomposition (Busy / Sync / Mem).
///
/// # Examples
///
/// ```
/// use specrt_engine::{Cycles, TimeBreakdown};
///
/// let mut t = TimeBreakdown::default();
/// t.busy += Cycles(70);
/// t.mem += Cycles(25);
/// t.sync += Cycles(5);
/// assert_eq!(t.total(), Cycles(100));
/// assert!((t.busy_fraction() - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Cycles spent executing instructions.
    pub busy: Cycles,
    /// Cycles spent waiting at locks or barriers.
    pub sync: Cycles,
    /// Cycles spent waiting for data from the memory system.
    pub mem: Cycles,
}

impl TimeBreakdown {
    /// Creates a zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of all three categories.
    pub fn total(&self) -> Cycles {
        self.busy + self.sync + self.mem
    }

    /// Fraction of total time in `busy` (0.0 when total is zero).
    pub fn busy_fraction(&self) -> f64 {
        self.fraction(self.busy)
    }

    /// Fraction of total time in `sync` (0.0 when total is zero).
    pub fn sync_fraction(&self) -> f64 {
        self.fraction(self.sync)
    }

    /// Fraction of total time in `mem` (0.0 when total is zero).
    pub fn mem_fraction(&self) -> f64 {
        self.fraction(self.mem)
    }

    fn fraction(&self, part: Cycles) -> f64 {
        let total = self.total().raw();
        if total == 0 {
            0.0
        } else {
            part.raw() as f64 / total as f64
        }
    }

    /// Component-wise sum with another breakdown.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            busy: self.busy + other.busy,
            sync: self.sync + other.sync,
            mem: self.mem + other.mem,
        }
    }

    /// Scales every component by `num/den` (integer rounding), used when
    /// normalizing per-invocation averages. The intermediate product is
    /// computed in `u128`: production-scale runs accumulate ≥ 2^44 cycles,
    /// which already overflows `u64` when multiplied by a `num` in the
    /// thousands.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero, or if the *scaled result itself* exceeds
    /// `u64` (a genuine overflow, not an intermediate one).
    pub fn scaled(&self, num: u64, den: u64) -> TimeBreakdown {
        assert!(den > 0, "cannot scale a breakdown by a zero denominator");
        let scale = |c: Cycles| {
            let wide = u128::from(c.raw()) * u128::from(num) / u128::from(den);
            Cycles(u64::try_from(wide).expect("scaled cycle count overflows u64"))
        };
        TimeBreakdown {
            busy: scale(self.busy),
            sync: scale(self.sync),
            mem: scale(self.mem),
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy={} sync={} mem={} (total={})",
            self.busy.raw(),
            self.sync.raw(),
            self.mem.raw(),
            self.total().raw()
        )
    }
}

/// A simple monotonic event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A power-of-two bucketed histogram for latency-like samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 counts 0 and 1.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Count in bucket `i` (samples in `[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Sum of all samples recorded.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) from the log-2 buckets.
    ///
    /// Walks the buckets until the cumulative count reaches `ceil(q *
    /// count)` and returns that bucket's upper bound (`2^(i+1) - 1`),
    /// clamped to the recorded maximum so outliers don't inflate the tail
    /// beyond what was seen. Zero when empty. Bucket resolution means the
    /// answer is exact only to within a factor of two — fine for the p50 /
    /// p99 service-latency lines it feeds, where order of magnitude and
    /// trend matter, not the exact microsecond.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A named bundle of counters, keyed by static strings.
///
/// Components register protocol-level counts (messages sent, invalidations,
/// write-backs, FAIL checks, …) here so that experiments can print them
/// without each component exposing bespoke accessors.
#[derive(Debug, Clone, Default)]
pub struct StatSet {
    counters: BTreeMap<&'static str, u64>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Adds `n` to the counter named `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Increments the counter named `key` by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another set into this one (component-wise addition).
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() {
            return write!(f, "(no stats)");
        }
        for (k, v) in self.iter() {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fractions() {
        let t = TimeBreakdown {
            busy: Cycles(50),
            sync: Cycles(25),
            mem: Cycles(25),
        };
        assert_eq!(t.total(), Cycles(100));
        assert!((t.busy_fraction() - 0.5).abs() < 1e-12);
        assert!((t.sync_fraction() - 0.25).abs() < 1e-12);
        assert!((t.mem_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        for (busy, sync, mem) in [(1, 0, 0), (3, 5, 7), (1000, 1, 999), (2, 2, 2)] {
            let t = TimeBreakdown {
                busy: Cycles(busy),
                sync: Cycles(sync),
                mem: Cycles(mem),
            };
            let sum = t.busy_fraction() + t.sync_fraction() + t.mem_fraction();
            assert!((sum - 1.0).abs() < 1e-12, "fractions sum to {sum}");
        }
    }

    #[test]
    fn breakdown_empty_fractions_are_zero() {
        let t = TimeBreakdown::default();
        assert_eq!(t.busy_fraction(), 0.0);
        assert_eq!(t.total(), Cycles::ZERO);
    }

    #[test]
    fn breakdown_merge_and_scale() {
        let a = TimeBreakdown {
            busy: Cycles(10),
            sync: Cycles(20),
            mem: Cycles(30),
        };
        let b = a.merged(&a);
        assert_eq!(b.busy, Cycles(20));
        let half = b.scaled(1, 2);
        assert_eq!(half.mem, Cycles(30));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn scale_by_zero_denominator_panics() {
        TimeBreakdown::default().scaled(1, 0);
    }

    #[test]
    fn scale_survives_production_scale_cycle_counts() {
        // ~2^45 cycles (a couple of simulated days at 200 MHz) normalized
        // over a few thousand invocations: the u64 intermediate product
        // used to wrap at num ≥ ~2^20 here.
        let t = TimeBreakdown {
            busy: Cycles(1 << 45),
            sync: Cycles((1 << 44) + 12345),
            mem: Cycles(u64::MAX / 4096),
        };
        assert_eq!(t.scaled(4096, 4096), t, "identity scaling must be exact");
        let half = t.scaled(2048, 4096);
        assert_eq!(half.busy, Cycles(1 << 44));
        assert_eq!(half.sync, Cycles(((1u64 << 44) + 12345) / 2));
        // Scaling up past u64::MAX is a real overflow and must panic…
        assert!(
            std::panic::catch_unwind(|| t.scaled(1 << 20, 1)).is_err(),
            "true overflow must not wrap silently"
        );
        // …but a large num balanced by a large den must not.
        assert_eq!(t.scaled(1 << 20, 1 << 20), t);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(2), 1); // 4
        assert_eq!(h.bucket(6), 1); // 100 in [64,128)
        assert_eq!(h.max(), 100);
        assert!((h.mean() - (110.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0); // empty
        for _ in 0..99 {
            h.record(10); // bucket [8,16)
        }
        h.record(1000); // bucket [512,1024)
        assert_eq!(h.quantile(0.5), 15); // within the [8,16) bucket
        assert_eq!(h.quantile(0.99), 15);
        assert_eq!(h.quantile(1.0), 1000); // upper bound clamped to max
                                           // A single sample answers every quantile with itself (clamped).
        let mut one = Histogram::new();
        one.record(5);
        assert_eq!(one.quantile(0.0), 5);
        assert_eq!(one.quantile(0.5), 5);
        assert_eq!(one.quantile(1.0), 5);
    }

    #[test]
    fn statset_accumulates_and_merges() {
        let mut s = StatSet::new();
        s.incr("inv");
        s.add("inv", 2);
        s.incr("wb");
        let mut t = StatSet::new();
        t.add("inv", 10);
        t.merge(&s);
        assert_eq!(t.get("inv"), 13);
        assert_eq!(t.get("wb"), 1);
        assert_eq!(t.get("absent"), 0);
        let names: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["inv", "wb"]);
    }
}
