#![warn(missing_docs)]

//! # specrt-check
//!
//! Conformance checking for the speculation machinery: does the full
//! simulated machine — protocols, caches, directories, messages, schedulers
//! — agree with the ground-truth dependence oracle on *every* loop, and do
//! the directory race resolutions of the paper's Figs. 6–9 stay sound under
//! *every* message ordering?
//!
//! Three layers:
//!
//! * [`generate`] + [`diff`] + [`mod@shrink`] + [`mod@fuzz`] — an end-to-end
//!   **differential fuzzer**: random subscripted-subscript loops run under
//!   the non-privatization protocol, both privatization variants and the
//!   software LRPD baseline; every verdict is compared against the trace
//!   oracle of `specrt_lrpd::oracle` and every final memory image against a
//!   serial run. Failures shrink to 1-minimal counterexamples and replay
//!   from a single seed (`specrt-check replay <seed>`).
//! * [`model`] — a **bounded model checker** over the pure
//!   [`specrt_spec::ProtocolSpec`] transition function: explicit-frontier
//!   BFS over every ordering of processor accesses, message deliveries and
//!   evictions, with exact dedup of packed states
//!   ([`specrt_spec::PackedState`]) and processor-symmetry reduction,
//!   covering all three protocol variants at up to 2 lines × 3 elems × 4
//!   procs with coverage accounting for race cases (a)–(h), parallelized
//!   per script with byte-identical reports at any worker count. The
//!   machine's `MemSystem` executes the same transition functions, so the
//!   two check one protocol definition.
//! * invariant hooks — the `debug_assertions` checks this crate leans on
//!   live in `specrt-proto` ([`specrt_proto::MemSystem::assert_invariants`],
//!   per-path in-order delivery) and `specrt-spec` (stamp monotonicity);
//!   [`specrt_spec::fault`] provides the deliberate-bug injection the
//!   harness uses to prove it can catch real protocol regressions.

pub mod campaign;
pub mod canon;
pub mod diff;
pub mod fuzz;
pub mod generate;
pub mod model;
pub mod shrink;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, CellReport, NodeCellReport, NodeGridConfig,
    DELAY_CYCLES, FAULT_KINDS, NODE_FAULT_KINDS, NODE_FAULT_NEVER, NODE_OUTAGE_CYCLES,
};
pub use canon::{
    canonical_key, case_from_json, case_to_json, hash_case_into, hash_machine_config_into,
    hash_protocol_into, write_json_string, CanonHasher, Json, CANON_VERSION,
};
pub use diff::{node_fault_legs, run_case, CaseResult, Mismatch};
pub use fuzz::{
    case_fails, fuzz, fuzz_jobs, parse_seed, render_case, replay, run_case_full, FuzzFailure,
    FuzzReport, RACE_CASE_KEYS,
};
pub use generate::{CaseSpec, Op, ARR_A, ARR_OUT, TEMPLATE_SEEDS};
pub use model::{
    enabled_messages, enumerate_scripts, envelope_holds, run_model, Counterexample, Coverage,
    Enabled, ModelConfig, ModelReport, Script, DEFAULT_MAX_OPS, MAX_OPS_PER_PROC,
};
pub use shrink::shrink;
