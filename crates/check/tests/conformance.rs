//! Debug-build conformance smoke: a bounded differential-fuzz run (with
//! every `debug_assertions` invariant hook live) and a bounded model check
//! of the non-privatization protocol at one line of two elements.

use specrt_check::{fuzz, run_model, ModelConfig};
use specrt_spec::{SpecScope, SpecVariant};

#[test]
fn bounded_fuzz_agrees_with_oracle_under_debug_invariants() {
    let report = fuzz(60, 0x5eed);
    assert!(
        report.ok(),
        "differential fuzz found disagreements: {:?}",
        report.failures
    );
    // The templates alone already drive the full machine through the
    // hot-path race cases.
    let visited = report.visited_race_cases();
    for c in ['a', 'b', 'c', 'd', 'e'] {
        assert!(visited.contains(&c), "race case {c} unvisited by fuzz");
    }
}

/// One line of two elements under three processors, at most five
/// accesses: every ordering of accesses, update-message deliveries and
/// evictions, with verdicts read after the final flush as the machine
/// reads them. Up to processor symmetry, the script universe holds every
/// pair of two-processor sequences of at most two accesses.
#[test]
fn nonpriv_model_at_one_line_is_sound_and_covers_all_race_cases() {
    let report = run_model(&ModelConfig {
        scope: SpecScope {
            lines: 1,
            elems: 2,
            procs: 3,
        },
        max_ops: 5,
        ..ModelConfig::smoke(SpecVariant::NonPriv)
    });
    assert_eq!(
        report.violations, 0,
        "an interleaving let a non-envelope pattern pass"
    );
    assert_eq!(report.invariant_violations, 0, "{}", report.render());
    assert_eq!(
        report.conservative, 0,
        "an envelope-holding script never passed"
    );
    assert!(
        report.coverage.complete(),
        "race cases unvisited by the model: {:?}",
        report.coverage.unvisited()
    );
    assert_eq!((report.scripts, report.states), (955, 58_285));
}
