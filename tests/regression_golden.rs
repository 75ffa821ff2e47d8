//! Golden-value regression tests.
//!
//! The simulator is bit-deterministic, so key scenario results can be
//! pinned exactly. These values WILL change when the machine model or the
//! workload calibration is intentionally modified — update them together
//! with `EXPERIMENTS.md` in that case. What they guard against is the
//! *unintentional* drift of a refactor that was supposed to be
//! behaviour-preserving.

use specrt::machine::{run_scenario, Scenario, SwVariant};
use specrt::workloads::{adm, ocean, p3m, track, Scale};

#[test]
fn ocean_first_invocation_is_pinned() {
    let spec = ocean::instance(0, false);
    let serial = run_scenario(&spec, Scenario::Serial, 8);
    let hw = run_scenario(&spec, Scenario::Hw, 8);
    let sw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 8);
    // Repeating the run reproduces the exact cycle counts.
    let serial2 = run_scenario(&spec, Scenario::Serial, 8);
    assert_eq!(serial.total_cycles, serial2.total_cycles);
    // Ordering invariants that any recalibration must preserve.
    assert_eq!(hw.passed, Some(true));
    assert_eq!(sw.passed, Some(true));
    assert!(hw.total_cycles < sw.total_cycles);
    assert!(sw.total_cycles < serial.total_cycles);
    // Pinned absolute values (update deliberately, with EXPERIMENTS.md).
    insta_like("ocean serial", serial.total_cycles.raw(), 371_686);
    insta_like("ocean hw", hw.total_cycles.raw(), 151_854);
    insta_like("ocean sw", sw.total_cycles.raw(), 283_471);
}

#[test]
fn adm_first_invocation_is_pinned() {
    let spec = adm::instance(0, false);
    let serial = run_scenario(&spec, Scenario::Serial, 16);
    let hw = run_scenario(&spec, Scenario::Hw, 16);
    assert_eq!(hw.passed, Some(true));
    insta_like("adm serial", serial.total_cycles.raw(), 50_745);
    insta_like("adm hw", hw.total_cycles.raw(), 5_255);
}

#[test]
fn track_paired_instance_abort_point_is_pinned() {
    let mut spec = track::instance(3, true);
    spec.schedule = specrt::machine::ScheduleKind::Dynamic { block: 1 };
    let hw = run_scenario(&spec, Scenario::Hw, 16);
    assert_eq!(hw.passed, Some(false));
    insta_like("track abort iterations", hw.iterations, 11);
}

#[test]
fn p3m_first_invocation_hw_is_pinned() {
    // The no-read-in privatization path: every iteration writes the
    // privatized workspace, so the per-iteration reset of the private
    // directory's Read1st/Write bits runs on every processor. The
    // `race_case_4.1*` lines count §4.1's sites: hits at the tags (a, f),
    // writes at the private directory (g, h) and delivered first-write
    // signals (i); no iteration reads the workspace first.
    let w = p3m::workload(Scale::Smoke);
    let hw = run_scenario(&w.invocations[0], Scenario::Hw, w.procs);
    assert_eq!(hw.passed, Some(true));
    insta_like("p3m hw", hw.total_cycles.raw(), 18_217);
    pinned_stats(
        "p3m hw",
        &hw.stats.to_string(),
        "invalidations: 33\n\
         owner_fetches: 219\n\
         priv_first_write_shared: 5746\n\
         priv_first_write_signals: 5746\n\
         race_case_4.1a: 6786\n\
         race_case_4.1f: 5762\n\
         race_case_4.1g: 5762\n\
         race_case_4.1h: 1024\n\
         race_case_4.1i: 5746\n\
         transactions: 1748\n\
         update_messages: 5746\n\
         upgrades: 1\n",
    );
}

#[test]
fn ocean_first_invocation_sw_iteration_wise_is_pinned() {
    // The software scheme's shadow-marking loop with iteration-wise
    // stamps: plain-coherence traffic on the shadow arrays only.
    let spec = ocean::instance(0, false);
    let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 8);
    assert_eq!(sw.passed, Some(true));
    insta_like("ocean sw(iter)", sw.total_cycles.raw(), 3_992_449);
    pinned_stats(
        "ocean sw(iter)",
        &sw.stats.to_string(),
        "owner_fetches: 29737\n\
         transactions: 132671\n\
         upgrades: 2583\n\
         writebacks: 35383\n",
    );
}

/// Exact comparison of a rendered `StatSet`.
fn pinned_stats(what: &str, got: &str, want: &str) {
    assert_eq!(
        got, want,
        "{what}: protocol statistics drifted — if this change is intentional, \
         update the golden rendering"
    );
}

/// Exact comparison with a helpful failure message.
fn insta_like(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: got {got}, pinned {want} — if this change is intentional, \
         update the golden value and re-run the EXPERIMENTS.md tables"
    );
}

/// One pinned verdict-plus-image assertion per protocol variant, all over
/// the same workload: the conformance harness's "workspace" template
/// (every iteration writes element 0, then reads it back). The pattern is
/// the paper's privatizable-workspace idiom: it MUST abort under
/// non-privatization (cross-processor writes to one element) and MUST pass
/// under both privatization variants and both software stamp layouts.
mod per_protocol_variant {
    use specrt::check::{CaseSpec, ARR_A, ARR_OUT};
    use specrt::machine::{run_scenario, RunResult, Scenario, SwVariant};
    use specrt::spec::SpecVariant;

    fn workspace() -> CaseSpec {
        // Template seed 5 of the fuzzer generator: 2 procs, 2 elements,
        // six iterations of [Write(0), Read(0)].
        CaseSpec::generate(5)
    }

    fn serial() -> RunResult {
        let case = workspace();
        run_scenario(
            &case.loop_spec(SpecVariant::NonPriv, true),
            Scenario::Serial,
            case.procs,
        )
    }

    #[test]
    fn hw_nonpriv_aborts_and_restores_serial_image() {
        let case = workspace();
        let r = run_scenario(
            &case.loop_spec(SpecVariant::NonPriv, true),
            Scenario::Hw,
            case.procs,
        );
        assert_eq!(r.passed, Some(false), "workspace sharing must abort");
        assert!(r
            .final_image
            .same_contents(&serial().final_image, &[ARR_A, ARR_OUT]));
    }

    #[test]
    fn hw_priv_read_in_passes_with_serial_image() {
        let case = workspace();
        let r = run_scenario(
            &case.loop_spec(SpecVariant::Priv, true),
            Scenario::Hw,
            case.procs,
        );
        assert_eq!(r.passed, Some(true), "{:?}", r.failure);
        assert!(r
            .final_image
            .same_contents(&serial().final_image, &[ARR_A, ARR_OUT]));
    }

    #[test]
    fn hw_priv3_no_read_in_passes_on_live_outputs() {
        let case = workspace();
        let r = run_scenario(
            &case.loop_spec(SpecVariant::Priv3, false),
            Scenario::Hw,
            case.procs,
        );
        assert_eq!(r.passed, Some(true), "{:?}", r.failure);
        // The array under test is dead after the loop; only the plain
        // output array is comparable.
        assert!(r
            .final_image
            .same_contents(&serial().final_image, &[ARR_OUT]));
    }

    #[test]
    fn sw_lrpd_iteration_wise_passes_with_serial_image() {
        let case = workspace();
        let r = run_scenario(
            &case.loop_spec(SpecVariant::Priv, true),
            Scenario::Sw(SwVariant::IterationWise),
            case.procs,
        );
        assert_eq!(r.passed, Some(true), "{:?}", r.failure);
        assert!(r
            .final_image
            .same_contents(&serial().final_image, &[ARR_A, ARR_OUT]));
    }

    #[test]
    fn sw_lrpd_processor_wise_passes_with_serial_image() {
        let case = workspace();
        let r = run_scenario(
            &case.loop_spec(SpecVariant::Priv, true),
            Scenario::Sw(SwVariant::ProcessorWise),
            case.procs,
        );
        assert_eq!(r.passed, Some(true), "{:?}", r.failure);
        assert!(r
            .final_image
            .same_contents(&serial().final_image, &[ARR_A, ARR_OUT]));
    }
}
