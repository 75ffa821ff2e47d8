//! Replay regression over the checked-in seed corpus.
//!
//! Every `corpus/*.seed` file is a case the harness once found interesting
//! (a degenerate shape, or a minimized counterexample of a deliberately
//! injected bug). Each must replay clean against the oracle today; any
//! future oracle disagreement on these seeds is a regression, permanently
//! pinned.

use std::path::PathBuf;

use specrt_check::{parse_seed, replay, run_case, CaseSpec};
use specrt_spec::fault::{FaultKind, Injected};

fn corpus_seeds() -> Vec<(String, u64)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seeds: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seed"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(e.path()).expect("seed file readable");
            let seed = parse_seed(&text)
                .unwrap_or_else(|| panic!("corpus file {name} holds no parsable seed"));
            (name, seed)
        })
        .collect();
    seeds.sort();
    seeds
}

#[test]
fn corpus_is_nonempty_and_replays_clean() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10, "corpus unexpectedly small: {seeds:?}");
    for (name, seed) in seeds {
        let case = CaseSpec::generate(seed);
        let r = run_case(&case);
        assert!(
            r.ok(),
            "corpus seed {name} ({seed:#x}) disagrees with the oracle: {:?}",
            r.mismatches
        );
    }
}

/// A minimized witness must still catch its injected bug — and shrink back
/// to a small counterexample (≤ 8 accesses).
fn assert_witness_catches(file: &str, fault: FaultKind) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let text = std::fs::read_to_string(dir.join(file)).unwrap();
    let seed = parse_seed(&text).unwrap();

    let _guard = Injected::new(fault);
    let failure = replay(seed).unwrap_or_else(|| {
        panic!(
            "witness seed must disagree under {} injection",
            fault.name()
        )
    });
    assert!(
        failure.shrunk.accesses() <= 8,
        "witness no longer shrinks small: {} accesses",
        failure.shrunk.accesses()
    );
    assert!(
        !failure.mismatches.is_empty(),
        "disagreement must name at least one scenario"
    );
}

/// The drop-ronly mutant is no longer visible to the *fuzzer*: since the
/// flushed-verdict fix, every dirty line's tags are merged into the
/// directory before the verdict is read, and `merge_writeback`'s own
/// `NoShr && ROnly` envelope check — which the mutation does not disable —
/// re-detects the conflict the dropped directory-side check would have
/// caught promptly. The final verdict is FAIL either way, so the oracle
/// sees no disagreement (confirmed empirically over 40k+ injected cases).
/// The mutant stays caught by the model checker's per-step conformance
/// (`tests/model.rs::model_catches_drop_ronly`), which sees the wrongly
/// *granted* write request, not just the final verdict.
///
/// This test pins the backstop behavior on the original witness: under
/// injection the machine must still FAIL the case — late, at the verdict
/// merge — and must therefore keep agreeing with the oracle.
#[test]
fn drop_ronly_witness_is_caught_late_by_the_verdict_merge() {
    use specrt_machine::{run_scenario, Scenario};
    use specrt_spec::SpecVariant;

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let text = std::fs::read_to_string(dir.join("drop-ronly-witness.seed")).unwrap();
    let seed = parse_seed(&text).unwrap();
    let case = CaseSpec::generate(seed);

    let _guard = Injected::new(FaultKind::DropROnlyCheck);
    assert!(
        replay(seed).is_none(),
        "verdict-merge backstop must keep the witness oracle-clean under injection"
    );
    let np = run_scenario(
        &case.loop_spec(SpecVariant::NonPriv, true),
        Scenario::Hw,
        case.procs,
    );
    assert_eq!(
        np.passed,
        Some(false),
        "the conflict the dropped check misses must still FAIL at the verdict merge"
    );
}

/// The hide-a-conflict witness (template seed 8) must fail *at the
/// verdict merge*: the speculative loop runs to quiescence with no prompt
/// failure — a drain-point-only verdict read would wrongly PASS — and
/// only merging the writer's dirty line tags into the directory exposes
/// the write conflict. `verdict_merges` is only incremented on completed
/// (promptly-unfailed) loops, so observing it alongside the FAIL verdict
/// pins exactly that late-detection path.
#[test]
fn hide_a_conflict_witness_fails_only_at_the_verdict_merge() {
    use specrt_machine::{run_scenario, Scenario};
    use specrt_spec::SpecVariant;

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let text = std::fs::read_to_string(dir.join("hide-a-conflict-witness.seed")).unwrap();
    let seed = parse_seed(&text).unwrap();
    let case = CaseSpec::generate(seed);

    assert!(run_case(&case).ok(), "witness must agree with the oracle");
    let np = run_scenario(
        &case.loop_spec(SpecVariant::NonPriv, true),
        Scenario::Hw,
        case.procs,
    );
    assert_eq!(np.passed, Some(false), "hidden conflict must FAIL");
    assert!(
        np.stats.get("verdict_merges") >= 1,
        "failure must come from the verdict merge, not a prompt check"
    );
    let failure = np.failure.expect("failed run reports a reason");
    assert!(
        failure.contains("wrote an element first accessed"),
        "expected a write conflict, got: {failure}"
    );
}

#[test]
fn drop_maxr1st_witness_still_catches_the_injected_bug() {
    assert_witness_catches("drop-maxr1st-witness.seed", FaultKind::DropMaxR1stUpdate);
}

#[test]
fn swap_ts_compare_witness_still_catches_the_injected_bug() {
    assert_witness_catches("swap-ts-compare-witness.seed", FaultKind::SwapTsCompare);
}
