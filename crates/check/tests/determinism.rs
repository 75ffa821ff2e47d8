//! Regression gate: the parallel case runner must be invisible in the
//! output. A fuzz run at `jobs = 1` and `jobs = 4` over the same
//! `(cases, seed)` must produce byte-identical reports, statistics and
//! verdicts — CI additionally cross-checks the CLI output of
//! `specrt-check fuzz --jobs 2` against a `-j1` run.

use specrt_check::{fuzz_jobs, run_model, ModelConfig};
use specrt_spec::{SpecScope, SpecVariant};

/// The CI smoke-run configuration: 500 cases from the documented seed.
const CASES: u64 = 500;
const SEED: u64 = 0x5eed;

#[test]
fn fuzz_500_cases_is_byte_identical_across_job_counts() {
    let serial = fuzz_jobs(CASES, SEED, 1);
    let parallel = fuzz_jobs(CASES, SEED, 4);

    assert_eq!(
        serial.render(),
        parallel.render(),
        "rendered report must not depend on the worker count"
    );
    assert_eq!(
        serial.stats.iter().collect::<Vec<_>>(),
        parallel.stats.iter().collect::<Vec<_>>(),
        "merged statistics must not depend on the worker count"
    );
    assert_eq!(serial.ok(), parallel.ok());
    assert_eq!(serial.cases, parallel.cases);
    for variant in SpecVariant::ALL {
        assert_eq!(
            serial.coverage(variant).counts,
            parallel.coverage(variant).counts,
            "{} race-site counts must not depend on the worker count",
            variant.name()
        );
    }
    // The smoke run itself must stay clean: the machine agrees with the
    // oracle on all 500 cases.
    assert!(serial.ok(), "fuzz failures: {:?}", serial.failures);
}

#[test]
fn profiling_does_not_perturb_fuzz_output() {
    // The hard invariant of the host profiling plane: turning it on must
    // leave every deterministic output byte-identical, at any job count.
    // (CI additionally cross-checks the CLI: `fuzz --profile` stdout is
    // `cmp`-ed against an unprofiled run.)
    let baseline = fuzz_jobs(64, SEED, 1);
    specrt_prof::set_enabled(true);
    let profiled_j1 = fuzz_jobs(64, SEED, 1);
    let profiled_j4 = fuzz_jobs(64, SEED, 4);
    specrt_prof::set_enabled(false);
    let report = specrt_prof::take_report();

    assert_eq!(
        baseline.render(),
        profiled_j1.render(),
        "profiling must not change the rendered report"
    );
    assert_eq!(
        baseline.render(),
        profiled_j4.render(),
        "profiling plus parallelism must not change the rendered report"
    );
    assert_eq!(
        baseline.stats.iter().collect::<Vec<_>>(),
        profiled_j1.stats.iter().collect::<Vec<_>>(),
        "profiling must not change the merged statistics"
    );
    // And the profiler did actually observe the run.
    assert!(!report.is_empty(), "profiled run must record spans");
    let totals = report.totals();
    let case = totals
        .iter()
        .find(|(n, _)| n == "fuzz.case")
        .map(|(_, s)| *s)
        .expect("fuzz.case span recorded");
    // At least our own 128 cases (64 at j=1 + 64 at j=4); sibling tests in
    // this binary may run concurrently while the profiler is enabled and
    // contribute more — the registry is global, so don't assert equality.
    assert!(case.count >= 128, "expected >= 128 fuzz.case spans");
}

#[test]
fn model_report_is_byte_identical_across_job_counts() {
    // Same contract as the fuzzer, one layer up: the bounded model
    // checker partitions scripts over the worker pool, and the merged
    // report (counters, dedup rate, coverage, counterexample) must not
    // depend on how many workers there were. CI additionally `cmp`s the
    // CLI output of `specrt-check model --jobs 2` against a `--jobs 1`
    // run. A 1x2x3 scope keeps this under a second while still crossing
    // the multiset-enumeration / per-script-partitioning seams.
    for variant in SpecVariant::ALL {
        let cfg = ModelConfig {
            scope: SpecScope {
                lines: 1,
                elems: 2,
                procs: 3,
            },
            max_ops: 4,
            ..ModelConfig::smoke(variant)
        };
        let serial = run_model(&ModelConfig { jobs: 1, ..cfg });
        let parallel = run_model(&ModelConfig { jobs: 4, ..cfg });
        assert_eq!(
            serial.render(),
            parallel.render(),
            "{}: rendered model report must not depend on the worker count",
            variant.name()
        );
        assert_eq!(serial.states, parallel.states);
        assert_eq!(serial.dedup_hits, parallel.dedup_hits);
        assert_eq!(serial.coverage.counts, parallel.coverage.counts);
        assert!(serial.ok(), "{}: clean run must pass", variant.name());
    }
}
