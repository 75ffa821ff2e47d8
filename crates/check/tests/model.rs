//! Mutation self-test for the bounded model checker: each deliberately
//! injectable protocol bug ([`specrt_spec::fault::FaultKind`]) must be
//! caught by [`specrt_check::run_model`] at a reduced scope, with a minimal
//! counterexample script attached. A checker that cannot find a known-wrong
//! protocol is not evidence of anything — this suite is the proof it can.
//!
//! The scopes here are deliberately tiny (1 line, 2 elems, 2 procs, 2–3
//! total accesses): each bug already manifests there, and because the
//! script universe is enumerated smallest-first, the counterexample the
//! checker reports is the *minimal* script exhibiting the bug.

use specrt_check::{run_model, ModelConfig, Op, Script};
use specrt_spec::{fault, SpecScope, SpecVariant};

/// Runs the model checker with `bug` injected, asserts it is caught, and
/// returns the rendered minimal counterexample.
fn catch(bug: fault::FaultKind, cfg: &ModelConfig) -> String {
    let _guard = fault::Injected::new(bug);
    let report = run_model(cfg);
    assert!(
        !report.ok(),
        "injected bug '{}' was NOT caught at {}x{}x{} max-ops {}",
        bug.name(),
        cfg.scope.lines,
        cfg.scope.elems,
        cfg.scope.procs,
        cfg.max_ops
    );
    let cex = report
        .counterexample
        .as_ref()
        .expect("a caught bug must come with a counterexample");
    let rendered = cex.render();
    // Print it so `cargo test -- --nocapture` shows the minimal witness.
    println!("--- {} ---\n{rendered}", bug.name());
    rendered
}

#[test]
fn model_catches_drop_ronly() {
    // Fig. 6 case (c): the write test ignores the ROnly bit, so a write
    // request for an element another processor already read is wrongly
    // granted. The grant leaves the directory element NoShr AND ROnly — a
    // write-exclusive-yet-read-shared contradiction the clean protocol
    // always FAILs instead of entering — so the directory-consistency
    // invariant catches it. Minimal witness: one reader races one
    // read-then-write processor — 3 accesses on 1 line, 2 elems, 2 procs.
    let cfg = ModelConfig {
        max_ops: 3,
        ..ModelConfig::smoke(SpecVariant::NonPriv)
    };
    let rendered = catch(fault::FaultKind::DropROnlyCheck, &cfg);
    let cex_ops = script_ops(&rendered);
    assert!(
        cex_ops <= 3,
        "drop-ronly counterexample should be minimal, got {cex_ops} ops:\n{rendered}"
    );
}

#[test]
fn model_catches_drop_maxr1st() {
    // Fig. 8 cases (d)/(e): read-first iterations are tested but never
    // recorded in MaxR1st, so a later first-write compares against a stale
    // stamp. Minimal witness: a read-first by one processor and a write by
    // an earlier-stamped one — 2 accesses total.
    let cfg = ModelConfig {
        max_ops: 2,
        ..ModelConfig::smoke(SpecVariant::Priv)
    };
    let rendered = catch(fault::FaultKind::DropMaxR1stUpdate, &cfg);
    let cex_ops = script_ops(&rendered);
    assert!(
        cex_ops <= 2,
        "drop-maxr1st counterexample should be minimal, got {cex_ops} ops:\n{rendered}"
    );
}

#[test]
fn model_catches_swap_ts_compare() {
    // Fig. 8 with the time-stamp comparison inverted: legal read-firsts
    // FAIL and genuine flow dependences pass, corrupting stamps in both
    // directions — so this bug trips the envelope check *and* the MaxR1st /
    // MinW monotonicity invariant.
    let cfg = ModelConfig {
        max_ops: 2,
        ..ModelConfig::smoke(SpecVariant::Priv)
    };
    let _guard = fault::Injected::new(fault::FaultKind::SwapTsCompare);
    let report = run_model(&cfg);
    assert!(!report.ok(), "swap-ts-compare was NOT caught");
    assert!(
        report.invariant_violations > 0,
        "the inverted comparison corrupts stamps, so the monotonicity \
         invariant must fire (got {} envelope violations, 0 invariant \
         violations)",
        report.violations
    );
    let cex = report.counterexample.expect("counterexample");
    println!("--- swap-ts-compare ---\n{}", cex.render());
}

#[test]
fn clean_protocols_pass_and_cover_all_race_cases_at_smoke_scope() {
    // The flip side of the mutation tests: with no fault injected, no
    // ordering of any script at the CI smoke scope may violate the
    // envelope, and the exploration must still visit every race site of
    // the variant (Figs. 6-7, Fig. 9 or §4.1) — otherwise the mutation
    // results above prove nothing about the uninstrumented corners.
    for variant in SpecVariant::ALL {
        let report = run_model(&ModelConfig::smoke(variant));
        assert!(
            report.ok(),
            "{}: clean protocol violated at smoke scope: {}",
            variant.name(),
            report.render()
        );
        assert!(
            report.coverage.complete(),
            "{}: race cases {:?} never visited at smoke scope",
            variant.name(),
            report.coverage.unvisited()
        );
        assert!(report.counterexample.is_none());
    }
}

#[test]
fn counterexample_renders_script_and_event_path() {
    let cfg = ModelConfig {
        max_ops: 2,
        ..ModelConfig::smoke(SpecVariant::Priv)
    };
    let _guard = fault::Injected::new(fault::FaultKind::DropMaxR1stUpdate);
    let report = run_model(&cfg);
    let cex = report.counterexample.expect("counterexample");
    let rendered = cex.render();
    assert!(rendered.starts_with("minimal counterexample (priv, "));
    assert!(rendered.contains("event path ("));
    // The replayed path renders as trace events, one line per step.
    let path_lines = rendered
        .lines()
        .skip_while(|l| !l.starts_with("event path"))
        .skip(1)
        .count();
    assert_eq!(path_lines, cex.path.len());
    assert_eq!(cex.trace().len(), cex.path.len());
}

#[test]
fn scope_validation_rejects_out_of_range_combinations() {
    let bad = SpecScope {
        lines: 3,
        elems: 2,
        procs: 9,
    };
    let err = bad.validate().unwrap_err();
    assert_eq!(
        err,
        "unsupported scope 3x2x9 (lines x elems x procs); \
         valid: lines 1-2, elems lines-3, procs 1-4"
    );
    // elems below lines means an empty cache line — also rejected.
    let empty_line = SpecScope {
        lines: 2,
        elems: 1,
        procs: 2,
    };
    assert!(empty_line.validate().is_err());
    // The acceptance scope is, of course, valid.
    assert!(SpecScope {
        lines: 2,
        elems: 3,
        procs: 4
    }
    .validate()
    .is_ok());
}

/// Counts the access ops in a rendered counterexample's script block.
fn script_ops(rendered: &str) -> usize {
    parse_script(rendered).iter().map(Vec::len).sum()
}

/// Parses the `pN: R0 W1` lines back out of a rendered counterexample.
fn parse_script(rendered: &str) -> Script {
    rendered
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("event path"))
        .map(|l| {
            let (_, ops) = l.trim().split_once(": ").expect("pN: ops");
            if ops == "(idle)" {
                return Vec::new();
            }
            ops.split_whitespace()
                .map(|op| {
                    let elem: u64 = op[1..].parse().expect("elem index");
                    match &op[..1] {
                        "R" => Op::Read(elem),
                        "W" => Op::Write(elem),
                        other => panic!("unexpected op {other}"),
                    }
                })
                .collect()
        })
        .collect()
}
