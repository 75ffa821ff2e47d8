//! Property test: [`specrt_spec::ProtocolSpec::step`] is a *pure,
//! deterministic* function of `(state, message)`.
//!
//! Two angles, mirroring how `MemSystem::assert_invariants` is exercised:
//!
//! * **Shadow execution through the fuzz corpus.** Under
//!   `debug_assertions`, `MemSystem` keeps a `spec_shadow` directory image
//!   and double-evaluates every `ProtocolSpec` element transition it
//!   executes, `debug_assert!`-ing that the pure function reproduces the
//!   imperative machine's state and emissions at every message. Replaying
//!   the fuzz corpus here (this test binary is built with
//!   `debug_assertions` on) drives those hooks across every protocol
//!   variant, schedule kind and race case the templates cover — a mismatch
//!   panics the replay.
//! * **Direct double-evaluation over the explored state space.** We walk
//!   every state the bounded model checker can reach at the smoke scope
//!   and at 2 lines × 2 elems × 2 procs, and call `step` twice on copied
//!   inputs, asserting identical results and untouched inputs. This
//!   catches interior mutability or hash-ordering nondeterminism that a
//!   single shadow evaluation could mask. The same walk checks that every
//!   reached `(state, script positions)` node survives the model checker's
//!   packed encoding unchanged (`unpack(pack(s, pcs)) == (s, pcs)`).

use std::collections::HashSet;

use specrt_check::{enumerate_scripts, run_case, CaseSpec, ModelConfig, Op, TEMPLATE_SEEDS};
use specrt_spec::{Pcs, ProtocolSpec, SpecMessage, SpecScope, SpecState, SpecVariant};

/// Seeds beyond the hand-written templates, for generator variety.
const RANDOM_SEEDS: u64 = 24;

#[test]
fn fuzz_corpus_replays_clean_through_the_spec_shadow() {
    // Each case runs the full machine (all three hardware protocols plus
    // the software baseline); with debug_assertions on, every directory
    // and cache-tag transition inside is double-checked against the pure
    // spec. A spec/machine divergence panics here rather than failing an
    // assert_eq below — the point of the replay is reaching those hooks.
    for seed in 0..TEMPLATE_SEEDS + RANDOM_SEEDS {
        let case = CaseSpec::generate(seed);
        let result = run_case(&case);
        assert!(
            result.ok(),
            "seed {seed}: machine/oracle mismatch during shadow replay: {:?}",
            result.mismatches
        );
    }
    // The shadow hooks only exist in debug builds; this test binary is
    // compiled with debug_assertions on (cargo's default test profile), so
    // the replay above really did double-check every transition.
    #[cfg(not(debug_assertions))]
    panic!("this replay only exercises the spec shadow with debug_assertions on");
}

#[test]
fn step_is_pure_and_deterministic_over_the_reachable_state_space() {
    let smoke = ModelConfig::smoke(SpecVariant::NonPriv);
    let two_lines = SpecScope {
        lines: 2,
        elems: 2,
        procs: 2,
    };
    for (scope, max_ops) in [(smoke.scope, smoke.max_ops), (two_lines, 3)] {
        let mut states = 0u64;
        for variant in SpecVariant::ALL {
            let (checked, seen) = walk(variant, scope, max_ops);
            assert!(
                checked > 1_000,
                "{}: expected a substantial state space, checked only {checked} transitions",
                variant.name()
            );
            states += seen;
        }
        println!(
            "{}x{}x{} max-ops {max_ops}: {states} nodes round-tripped",
            scope.lines, scope.elems, scope.procs
        );
    }
}

/// Walks the whole symmetry-reduced script universe a model run at
/// `scope` explores, double-evaluating every transition and round-tripping
/// every node through the packed encoding. Unlike the model checker proper
/// it does NOT prune failed states — step must be pure on those too.
/// Returns the transitions checked and the unique nodes reached.
fn walk(variant: SpecVariant, scope: SpecScope, max_ops: usize) -> (u64, u64) {
    let spec = ProtocolSpec::new(variant, scope);
    let (mut checked, mut nodes) = (0u64, 0u64);
    for script in enumerate_scripts(variant, scope, max_ops) {
        let mut seen = HashSet::new();
        let mut frontier = vec![(spec.init(), Pcs::filled(0, script.len()))];
        while let Some((s, pcs)) = frontier.pop() {
            let key = spec.pack(&s, &pcs);
            assert_eq!(
                spec.unpack(&key),
                (s, pcs),
                "{}: packed encoding lost information",
                variant.name()
            );
            if !seen.insert(key) {
                continue;
            }
            nodes += 1;
            for m in enabled(scope, &s, &pcs, &script) {
                let before = s;
                let (n1, e1) = spec.step(&s, &m);
                let (n2, e2) = spec.step(&s, &m);
                assert_eq!(s, before, "step must not mutate its input state");
                assert_eq!(
                    (&n1, &e1),
                    (&n2, &e2),
                    "{}: step nondeterministic on {m:?}",
                    variant.name()
                );
                checked += 1;
                let mut npcs = pcs;
                if let SpecMessage::Access { proc, .. } = m {
                    npcs[proc as usize] += 1;
                }
                frontier.push((n1, npcs));
            }
        }
    }
    (checked, nodes)
}

/// Every message enabled in `s`: next script ops, pending deliveries, and
/// evictions of resident lines.
fn enabled(scope: SpecScope, s: &SpecState, pcs: &[u16], script: &[Vec<Op>]) -> Vec<SpecMessage> {
    let mut out = Vec::new();
    for (p, seq) in script.iter().enumerate() {
        if let Some(op) = seq.get(pcs[p] as usize) {
            let (write, elem) = match *op {
                Op::Read(e) => (false, e as u16),
                Op::Write(e) => (true, e as u16),
            };
            out.push(SpecMessage::Access {
                proc: p as u16,
                write,
                elem,
            });
        }
    }
    for i in 0..s.inflight.len() {
        out.push(SpecMessage::Deliver { index: i });
    }
    for proc in 0..scope.procs {
        for line in 0..scope.lines {
            if s.copies[scope.copy_index(proc, line)].is_some() {
                out.push(SpecMessage::Evict { proc, line });
            }
        }
    }
    out
}
