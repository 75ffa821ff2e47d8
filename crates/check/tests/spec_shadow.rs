//! Property test: [`specrt_spec::ProtocolSpec::step`] is a *pure,
//! deterministic* function of `(state, message)`, and the machine that
//! executes the same element-layer steps stays clean under its debug hooks.
//!
//! Two angles:
//!
//! * **The fuzz corpus under the debug invariant hooks.** This test binary
//!   is built with `debug_assertions` on, so replaying the corpus through
//!   the full machine runs `MemSystem::assert_invariants` after every
//!   drain, the per-path in-order delivery check and the spec's stamp
//!   monotonicity asserts, across every protocol variant, schedule kind
//!   and race case the templates cover; a violation panics the replay.
//!   `MemSystem` keeps its directory state in a store whose only element
//!   writer is `ProtocolSpec::dir_step`, so no machine transition can
//!   bypass the spec.
//! * **Direct double-evaluation over the explored state space.** We walk
//!   every state the bounded model checker can reach at the smoke scope
//!   and at 2 lines × 2 elems × 2 procs, and call `step` twice on copied
//!   inputs, asserting identical results and untouched inputs. This
//!   catches interior mutability or hash-ordering nondeterminism that a
//!   single evaluation would mask. The same walk checks that every
//!   reached `(state, script positions)` node survives the model checker's
//!   packed encoding unchanged (`unpack(pack(s, pcs)) == (s, pcs)`), and
//!   that every successor's delta key, built from its parent's key and the
//!   step's record of writes, equals its full pack. It also runs the
//!   explorer's in-place forms on reused buffers: every node decoded with
//!   `unpack_into` over the previously decoded node must equal `unpack`,
//!   and every transition stepped with `step_into` over the previous
//!   successor and its emissions must equal `step`.

use std::collections::HashSet;

use specrt_check::{
    enabled_messages, enumerate_scripts, run_case, CaseSpec, ModelConfig, TEMPLATE_SEEDS,
};
use specrt_spec::{
    Emissions, Pcs, ProtocolSpec, RaceSite, SpecEmission, SpecMessage, SpecScope, SpecVariant,
};

/// Seeds beyond the hand-written templates, for generator variety.
const RANDOM_SEEDS: u64 = 24;

#[test]
fn fuzz_corpus_replays_clean_under_debug_hooks() {
    // Each case runs the full machine (all three hardware protocols plus
    // the software baseline); with debug_assertions on, the coherence
    // invariants, in-order delivery and stamp monotonicity are asserted
    // inside. A violation panics here rather than failing the assert
    // below — the point of the replay is reaching those hooks.
    for seed in 0..TEMPLATE_SEEDS + RANDOM_SEEDS {
        let case = CaseSpec::generate(seed);
        let result = run_case(&case);
        assert!(
            result.ok(),
            "seed {seed}: machine/oracle mismatch during the corpus replay: {:?}",
            result.mismatches
        );
    }
    // The hooks only exist in debug builds; this test binary is compiled
    // with debug_assertions on (cargo's default test profile), so the
    // replay above really did run them.
    #[cfg(not(debug_assertions))]
    panic!("this replay only exercises the debug hooks with debug_assertions on");
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
/// `scope` explores, double-evaluating every transition, round-tripping
/// every node through the packed encoding and checking every successor's
/// delta key against its full pack. Unlike the model checker proper
/// it does NOT prune failed states — step must be pure on those too.
/// Every node is decoded again, and every transition stepped again, in
/// buffers reused across the whole walk, as the explorer reuses them.
/// Returns the transitions checked and the unique nodes reached.
fn walk(variant: SpecVariant, scope: SpecScope, max_ops: usize) -> (u64, u64) {
    let spec = ProtocolSpec::new(variant, scope);
    let layout = spec.key_layout();
    let (mut checked, mut nodes) = (0u64, 0u64);
    let (mut decoded, mut decoded_pcs) = (spec.init(), Pcs::filled(0, scope.procs as usize));
    let mut next;
    let mut em = Emissions::filled(SpecEmission::Race(RaceSite::ALL[0]), 0);
    for script in enumerate_scripts(variant, scope, max_ops) {
        let mut seen = HashSet::new();
        let mut frontier = vec![(spec.init(), Pcs::filled(0, script.len()))];
        while let Some((s, pcs)) = frontier.pop() {
            let key = spec.pack(&s, &pcs);
            assert_eq!(
                layout.unpack(&key),
                (s, pcs),
                "{}: packed encoding lost information",
                variant.name()
            );
            if !seen.insert(key) {
                continue;
            }
            nodes += 1;
            // The buffer still holds the previously decoded node.
            layout.unpack_into(&key, &mut decoded, &mut decoded_pcs);
            assert_eq!(
                (decoded, decoded_pcs),
                (s, pcs),
                "{}: unpack_into kept part of the node its buffer held",
                variant.name()
            );
            for &m in &enabled_messages(&spec, &s, &pcs, &script) {
                let before = s;
                let (n1, e1, w1) = spec.step(&s, &m);
                let (n2, e2, w2) = spec.step(&s, &m);
                assert_eq!(s, before, "step must not mutate its input state");
                assert_eq!(
                    (&n1, &e1, w1),
                    (&n2, &e2, w2),
                    "{}: step nondeterministic on {m:?}",
                    variant.name()
                );
                // The parent is copied over the previous successor, and
                // the emission buffer still holds the previous step's.
                next = s;
                let w3 = spec.step_into(&m, &mut next, &mut em);
                assert_eq!(
                    (&next, &em, w3),
                    (&n1, &e1, w1),
                    "{}: step_into on reused buffers differs from step on {m:?}",
                    variant.name()
                );
                checked += 1;
                let mut npcs = pcs;
                if let SpecMessage::Access { proc, .. } = m {
                    npcs[proc as usize] += 1;
                }
                assert_eq!(
                    layout.repack(&key, &n1, &npcs, w1),
                    spec.pack(&n1, &npcs),
                    "{}: delta key of {m:?} misses a write ({w1:?})",
                    variant.name()
                );
                frontier.push((n1, npcs));
            }
        }
    }
    (checked, nodes)
}
