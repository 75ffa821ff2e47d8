//! Integration tests for the paper's headline quantitative claims
//! (abstract, §3.4, §6), at smoke scale.

use specrt::experiments::{evaluate_all_jobs, fig11_from, fig13_jobs, state_cost_table};
use specrt::machine::{run_scenario, Scenario, SwVariant};
use specrt::spec::StateCost;
use specrt::workloads::{all_workloads, Scale};

/// "Overall, the scheme delivers a speedup of 7 for 16 processors and is
/// twice faster than a related software-only scheme." We check the shape:
/// HW speedup well above 1 on every loop, and HW comfortably ahead of SW
/// on (geometric) average.
#[test]
fn hw_speeds_up_and_beats_sw() {
    let rows = fig11_from(&evaluate_all_jobs(Scale::Smoke, 1));
    assert_eq!(rows.len(), 4);
    let mut ratio_product = 1.0;
    for r in &rows {
        assert!(r.hw > 1.2, "{}: HW speedup {:.2} too low", r.workload, r.hw);
        assert!(r.hw > r.sw, "{}: HW must beat SW", r.workload);
        ratio_product *= r.hw / r.sw;
    }
    let geo_mean_ratio = ratio_product.powf(0.25);
    assert!(
        geo_mean_ratio > 1.5,
        "HW should be roughly twice as fast as SW on average, got {geo_mean_ratio:.2}x"
    );
}

/// §6.2: "On average for all the loops, HW takes 22% longer than Serial …
/// SW takes 58% longer than Serial." Shape: failed HW runs stay close to
/// serial; failed SW runs cost noticeably more; HW detects failure early.
#[test]
fn failure_is_cheap_for_hw_and_expensive_for_sw() {
    let rows = fig13_jobs(Scale::Smoke, 1);
    let hw_avg: f64 = rows.iter().map(|r| r.hw.total()).sum::<f64>() / rows.len() as f64;
    let sw_avg: f64 = rows.iter().map(|r| r.sw.total()).sum::<f64>() / rows.len() as f64;
    assert!(hw_avg < 1.6, "HW failure average {hw_avg:.2} too high");
    assert!(sw_avg > hw_avg * 1.3, "SW failure must cost clearly more");
    for r in &rows {
        assert!(
            r.hw_iterations_before_abort * 4 < r.iterations.max(4),
            "{}: HW should abort in the first quarter of the loop ({} of {})",
            r.workload,
            r.hw_iterations_before_abort,
            r.iterations
        );
    }
}

/// §3.4 advantage 4: the hardware scheme needs less per-element overhead
/// state than the software scheme, at every configuration in the table.
#[test]
fn hardware_state_is_smaller() {
    for row in state_cost_table() {
        assert!(
            row.hw_dir_bits < row.sw_bits,
            "{}: {} vs {}",
            row.config,
            row.hw_dir_bits,
            row.sw_bits
        );
    }
    // The paper's running example: 16 processors, 2^16-iteration loops.
    let c = StateCost::new(16, (1 << 16) - 1);
    assert_eq!(c.stamp_bits(), 16, "2 bytes per shadow entry (§2.2.2)");
    assert_eq!(c.hw_dir_bits(false), 6, "max(2, 2+log P)");
    assert_eq!(c.hw_dir_bits(true), 32, "max(2 stamps, 2+log P)");
}

/// §5.2's Track story, end to end at smoke scale: the not-fully-parallel
/// instances fail the iteration-wise software test, pass the
/// processor-wise software test, and pass the hardware scheme under
/// small-block dynamic scheduling.
#[test]
fn track_instances_behave_as_reported() {
    let track = all_workloads(Scale::Smoke)
        .into_iter()
        .find(|w| w.name == "track")
        .unwrap();
    let paired = specrt::workloads::track::instance(3, true);
    let iw = run_scenario(&paired, Scenario::Sw(SwVariant::IterationWise), track.procs);
    assert_eq!(iw.passed, Some(false));
    let pw = run_scenario(&paired, Scenario::Sw(SwVariant::ProcessorWise), track.procs);
    assert_eq!(pw.passed, Some(true), "{:?}", pw.failure);
    let hw = run_scenario(&paired, Scenario::Hw, track.procs);
    assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
}

/// Abstract: "detects serial loops very quickly" — on the forced-failure
/// instances the hardware scheme's *total* time stays within a small factor
/// of serial even though it ran the speculation, aborted, restored, and
/// re-executed.
#[test]
fn hw_failure_total_is_bounded() {
    for w in all_workloads(Scale::Smoke) {
        let serial = run_scenario(&w.failure_instance, Scenario::Serial, w.procs);
        let hw = run_scenario(&w.failure_instance, Scenario::Hw, w.procs);
        assert_eq!(hw.passed, Some(false), "{}", w.name);
        let factor = hw.total_cycles.raw() as f64 / serial.total_cycles.raw() as f64;
        assert!(
            factor < 2.0,
            "{}: failed HW run cost {factor:.2}x serial",
            w.name
        );
    }
}

/// Every passing speculative run across all workloads produces the exact
/// serial state (the ultimate correctness bar for the whole stack).
#[test]
fn all_smoke_invocations_match_serial() {
    for w in all_workloads(Scale::Smoke) {
        for spec in &w.invocations {
            let serial = run_scenario(spec, Scenario::Serial, w.procs);
            let live: Vec<_> = spec
                .arrays
                .iter()
                .map(|a| a.id)
                .filter(|&id| !spec.plan.privatizes(id) || spec.live_after.contains(&id))
                .collect();
            for scenario in [Scenario::Hw, Scenario::Sw(w.sw_variant)] {
                let r = run_scenario(spec, scenario, w.procs);
                assert!(
                    r.final_image.same_contents(&serial.final_image, &live),
                    "{} / {scenario}: diverged (passed {:?}, {:?})",
                    spec.name,
                    r.passed,
                    r.failure
                );
            }
        }
    }
}
