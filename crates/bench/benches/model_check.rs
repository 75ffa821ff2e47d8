//! Throughput of the bounded model checker: states explored per second,
//! dedup hit rate and the scope covered, per protocol variant, exported as
//! `BENCH_model.json` so CI can track the perf trajectory of the explorer
//! alongside the fuzzer's.
//!
//! The scope here (1 line × 3 elems × 3 procs, 4 accesses per script) is a
//! deliberate middle ground: large enough that exploration dominates setup
//! and every race site of each variant is crossed, small enough that the
//! bench finishes in about a second per variant on one core. The full 2×3×4
//! acceptance scope explores about 47M states, close to a minute on two
//! workers: a CLI run, not a benchmark. The states/s here count unique
//! states per second of exploration, which is one `step`, one exact
//! packed-key lookup per successor and one decode per explored state. As
//! everywhere else in the checker, the report must be byte-identical at
//! any worker count; the bench asserts that on the way.

use specrt_check::{run_model, ModelConfig};
use specrt_spec::{SpecScope, SpecVariant};

const SCOPE: SpecScope = SpecScope {
    lines: 1,
    elems: 3,
    procs: 3,
};
const MAX_OPS: usize = 4;

fn main() {
    let jobs = specrt_par::default_jobs();
    let mut rows = Vec::new();
    let mut total_states = 0u64;
    let mut total_s = 0.0f64;
    for variant in SpecVariant::ALL {
        let cfg = ModelConfig {
            variant,
            scope: SCOPE,
            max_ops: MAX_OPS,
            jobs,
        };
        // Warm-up pass so allocator and page-fault noise don't bias the
        // first variant, and the determinism cross-check in one go.
        let warm = run_model(&ModelConfig { jobs: 1, ..cfg });
        let start = std::time::Instant::now();
        let report = run_model(&cfg);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            warm.render(),
            report.render(),
            "model report must not depend on the worker count"
        );
        assert!(report.ok(), "clean protocol must pass: {}", report.render());
        assert!(
            report.coverage.complete(),
            "bench scope must cover every race site"
        );
        let rate = report.states as f64 / secs;
        println!(
            "model {}: {} scripts, {} states in {secs:.2}s ({rate:.0} states/s), \
             dedup {:.1}%",
            variant.name(),
            report.scripts,
            report.states,
            report.dedup_rate() * 100.0
        );
        rows.push(format!(
            "    \"{}\": {{\n      \
             \"scripts\": {},\n      \
             \"states\": {},\n      \
             \"states_per_sec\": {rate:.0},\n      \
             \"dedup_rate\": {:.3}\n    }}",
            variant.name(),
            report.scripts,
            report.states,
            report.dedup_rate()
        ));
        total_states += report.states;
        total_s += secs;
    }
    let json = format!(
        "{{\n  \"bench\": \"check/model\",\n  \
         \"scope\": \"{}x{}x{}\",\n  \
         \"max_ops\": {MAX_OPS},\n  \
         \"jobs\": {jobs},\n  \
         \"total_states_per_sec\": {:.0},\n  \
         \"variants\": {{\n{}\n  }}\n}}\n",
        SCOPE.lines,
        SCOPE.elems,
        SCOPE.procs,
        total_states as f64 / total_s,
        rows.join(",\n")
    );
    let path = format!("{}/BENCH_model.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "model throughput: {:.0} states/s overall (BENCH_model.json)",
            total_states as f64 / total_s
        ),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
