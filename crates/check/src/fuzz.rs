//! The fuzzing loop: generate → differentially check → shrink failures.
//!
//! Every case is checked twice over: once against the protocol oracles on
//! a healthy interconnect ([`run_case`]), and once with each node-level
//! fault kind fired mid-loop under checkpoint-restart recovery
//! ([`node_fault_legs`]) — the recovered image must still be the serial
//! one. Both legs feed the same failure list and the same shrinker.
//!
//! Case execution fans out over a [`specrt_par`] worker pool: every case is
//! an independent, deterministic simulation, so the only ordering that
//! matters is the *merge* order of the results — which [`fuzz_jobs`] keeps
//! fixed at seed order regardless of the worker count. `fuzz(c, s)` and
//! `fuzz_jobs(c, s, j)` therefore produce byte-identical reports for every
//! `j ≥ 1`; a regression test and a CI cross-check pin that.

use specrt_engine::{SplitMix64, StatSet};
use specrt_spec::{fault, RaceSite, SpecVariant};

use crate::diff::{node_fault_legs, run_case, CaseResult, Mismatch};
use crate::generate::{CaseSpec, TEMPLATE_SEEDS};
use crate::model::Coverage;
use crate::shrink::shrink;

/// The counter key `specrt-proto` bumps at each race site of every
/// variant ([`RaceSite::KEYS`], in [`RaceSite::ALL`] order). perfbench
/// sums these into its per-layer `proto.race_cases` metric, so this stays
/// a `[&str; N]` constant.
pub const RACE_CASE_KEYS: [&str; RaceSite::COUNT] = RaceSite::KEYS;

/// Witnesses the fuzzer keeps (and shrinks) before it stops collecting.
const MAX_FAILURES: usize = 3;

/// One oracle disagreement found by the fuzzer, with its shrunk witness.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Seed that generated the failing case (replay with
    /// `specrt-check replay <seed>`).
    pub seed: u64,
    /// The disagreements of the *original* case.
    pub mismatches: Vec<Mismatch>,
    /// 1-minimal shrunk counterexample (still disagreeing).
    pub shrunk: CaseSpec,
}

/// Outcome of a fuzzing run. perfbench builds one with a struct literal
/// and digests its rendering and stats, so it keeps exactly these five
/// fields.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Stream seed the run was started with.
    pub seed: u64,
    /// Merged hardware-protocol statistics, race-site counts included
    /// ([`RACE_CASE_KEYS`], read by [`Self::coverage`]).
    pub stats: StatSet,
    /// Failures found (empty = machine agrees with the oracle everywhere).
    /// At most the first `MAX_FAILURES` (3) in seed order are kept and
    /// shrunk.
    pub failures: Vec<FuzzFailure>,
    /// Worker-pool counters of the run. Per-worker claims depend on thread
    /// scheduling, so this never feeds [`render`](Self::render) — it is for
    /// the opt-in profile / metrics channel only.
    pub pool: specrt_par::PoolTelemetry,
}

impl FuzzReport {
    /// Whether no disagreement was found.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The hardware runs' counts of `variant`'s race sites.
    pub fn coverage(&self, variant: SpecVariant) -> Coverage {
        Coverage::of_stats(variant, &self.stats)
    }

    /// Every race site the hardware runs took, of any variant, in
    /// [`RaceSite::ALL`] order.
    pub fn visited_race_cases(&self) -> Vec<RaceSite> {
        RaceSite::ALL
            .into_iter()
            .filter(|site| self.stats.get(site.key()) > 0)
            .collect()
    }

    /// Deterministic plain-text rendering: the summary line followed by one
    /// block per failure. This is exactly what `specrt-check fuzz` prints,
    /// and what the `-j1` vs `-jN` byte-identity gate compares.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let visited: Vec<&str> = self
            .visited_race_cases()
            .into_iter()
            .map(RaceSite::label)
            .collect();
        let mut out = format!(
            "fuzz: {} cases, seed {:#x}, {} failure(s), race sites visited: {}\n",
            self.cases,
            self.seed,
            self.failures.len(),
            visited.join(" ")
        );
        for f in &self.failures {
            let _ = writeln!(out, "seed {:#x} disagrees with the oracle:", f.seed);
            for m in &f.mismatches {
                let _ = writeln!(out, "  {m}");
            }
            let _ = writeln!(out, "shrunk to {} accesses:", f.shrunk.accesses());
            let _ = write!(out, "{}", render_case(&f.shrunk));
        }
        out
    }
}

/// Deterministic rendering of one case (shared by `render` and the CLI).
pub fn render_case(case: &CaseSpec) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "  procs={} elems={} schedule={:?} iters={} accesses={}\n",
        case.procs,
        case.elems,
        case.schedule,
        case.iters(),
        case.accesses()
    );
    for (i, ops) in case.ops.iter().enumerate() {
        let _ = writeln!(out, "    iter {i}: {ops:?}");
    }
    out
}

/// Runs the full differential check of one case: every protocol against
/// the oracle ([`run_case`]), then the node-fault legs — each node-level
/// fault kind fired mid-loop under checkpoint-restart recovery, image-
/// checked against serial ([`node_fault_legs`]).
pub fn run_case_full(case: &CaseSpec) -> CaseResult {
    let mut r = run_case(case);
    r.mismatches.extend(node_fault_legs(case));
    r
}

/// Whether `case` disagrees with the oracle on any leg (the shrinking
/// predicate).
pub fn case_fails(case: &CaseSpec) -> bool {
    !run_case_full(case).ok()
}

/// The case seeds of a `(cases, seed)` run: the first [`TEMPLATE_SEEDS`]
/// are the deterministic templates (degenerate shapes); the rest draw from
/// a [`SplitMix64`] stream seeded with `seed`.
fn case_seeds(cases: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..cases)
        .map(|i| {
            if i < TEMPLATE_SEEDS {
                i
            } else {
                rng.next_u64()
            }
        })
        .collect()
}

/// Runs `cases` differential checks single-threaded. The whole run is
/// reproducible from `(cases, seed)` and any single failure from its case
/// seed alone. Equivalent to [`fuzz_jobs`] with `jobs = 1`.
pub fn fuzz(cases: u64, seed: u64) -> FuzzReport {
    fuzz_jobs(cases, seed, 1)
}

/// [`fuzz`] with the cases distributed over `jobs` worker threads.
///
/// Per-worker [`StatSet`]s are merged in seed order (the merge is
/// order-independent anyway — all counters are sums), failures are
/// collected in seed order, and only then are the first `MAX_FAILURES`
/// shrunk, on the calling thread. An active [`fault`] injection is
/// replicated onto every worker. The report is byte-identical for every
/// `jobs ≥ 1`.
pub fn fuzz_jobs(cases: u64, seed: u64, jobs: usize) -> FuzzReport {
    let seeds = case_seeds(cases, seed);
    let injected = fault::current();
    let (results, pool) = specrt_par::par_map_telemetry(jobs, 1, &seeds, |_, &case_seed| {
        let _guard = injected.map(fault::Injected::new);
        let case = {
            let _prof = specrt_prof::scope("fuzz.gen");
            CaseSpec::generate(case_seed)
        };
        let _prof = specrt_prof::scope("fuzz.case");
        run_case_full(&case)
    });

    let mut stats = StatSet::new();
    let mut failing: Vec<(u64, Vec<Mismatch>)> = Vec::new();
    for (&case_seed, r) in seeds.iter().zip(results) {
        stats.merge(&r.stats);
        if !r.ok() && failing.len() < MAX_FAILURES {
            failing.push((case_seed, r.mismatches));
        }
    }
    let failures = failing
        .into_iter()
        .map(|(case_seed, mismatches)| {
            let _prof = specrt_prof::scope("fuzz.shrink");
            FuzzFailure {
                seed: case_seed,
                mismatches,
                shrunk: shrink(&CaseSpec::generate(case_seed), case_fails),
            }
        })
        .collect();
    FuzzReport {
        cases,
        seed,
        stats,
        failures,
        pool,
    }
}

/// Replays one case seed; returns the shrunk failure if it disagrees.
pub fn replay(seed: u64) -> Option<FuzzFailure> {
    let case = CaseSpec::generate(seed);
    let r = run_case_full(&case);
    if r.ok() {
        return None;
    }
    let shrunk = shrink(&case, case_fails);
    Some(FuzzFailure {
        seed,
        mismatches: r.mismatches,
        shrunk,
    })
}

/// Parses one `corpus/*.seed` file: `#` comment lines, then one seed in
/// decimal or `0x` hex.
pub fn parse_seed(text: &str) -> Option<u64> {
    let line = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))?;
    if let Some(hex) = line.strip_prefix("0x").or_else(|| line.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        line.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42\n"), Some(42));
        assert_eq!(parse_seed("# comment\n0x5eed\n"), Some(0x5eed));
        assert_eq!(parse_seed("# only comments\n"), None);
    }

    #[test]
    fn small_fuzz_run_is_clean_and_reproducible() {
        let a = fuzz(12, 0x5eed);
        assert!(a.ok(), "fuzz found disagreements: {:?}", a.failures);
        let b = fuzz(12, 0x5eed);
        assert_eq!(
            a.stats.iter().collect::<Vec<_>>(),
            b.stats.iter().collect::<Vec<_>>(),
            "same (cases, seed) must reproduce identical statistics"
        );
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn parallel_fuzz_matches_single_threaded() {
        let serial = fuzz(16, 0xfeed);
        for jobs in [2, 4] {
            let par = fuzz_jobs(16, 0xfeed, jobs);
            assert_eq!(par.render(), serial.render(), "jobs={jobs}");
            assert_eq!(
                par.stats.iter().collect::<Vec<_>>(),
                serial.stats.iter().collect::<Vec<_>>(),
                "jobs={jobs}: merged stats must be identical"
            );
        }
    }

    #[test]
    fn race_case_keys_match_visited_letters() {
        // Every key is exactly one site's, of all three variants, and
        // every site a run visits is counted under its key.
        for (i, key) in RACE_CASE_KEYS.iter().enumerate() {
            let owners: Vec<RaceSite> = RaceSite::ALL
                .into_iter()
                .filter(|site| site.key() == *key)
                .collect();
            assert_eq!(owners, [RaceSite::ALL[i]], "key {key}");
        }
        let r = fuzz(64, 0x5eed);
        let visited = r.visited_race_cases();
        assert!(visited.windows(2).all(|w| w[0] < w[1]), "sorted sites");
        for variant in SpecVariant::ALL {
            assert!(visited.iter().any(|s| s.variant() == variant));
        }
        for site in &visited {
            assert!(RACE_CASE_KEYS.contains(&site.key()), "{site:?}");
            assert!(r.stats.get(site.key()) > 0, "{site:?} uncounted");
        }
    }
}
