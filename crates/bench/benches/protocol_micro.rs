//! Microbenchmarks of the simulator's protocol paths: host-side cost of
//! cache hits, misses, invalidations and speculation updates — plus two
//! observability-overhead checks: with tracing (or host profiling)
//! disabled the hot path must cost the same as before the observability
//! layer existed, and a `--profile`-style run must leave the deterministic
//! fuzz output byte-identical.

use specrt_bench::harness::bench_default;
use specrt_engine::Cycles;
use specrt_ir::ArrayId;
use specrt_mem::{ElemSize, PlacementPolicy, ProcId};
use specrt_proto::{MemSystem, MemSystemConfig, NetConfig, NullSink, Tracer};
use specrt_spec::{IterationNumbering, SpecVariant, TestPlan};

const A: ArrayId = ArrayId(0);

fn fresh_with_net(plan: TestPlan, net: NetConfig) -> MemSystem {
    let cfg = MemSystemConfig {
        net,
        ..Default::default()
    };
    let mut ms = MemSystem::new(cfg);
    ms.alloc_array(A, 4096, ElemSize::W8, PlacementPolicy::RoundRobin);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());
    ms
}

fn fresh(plan: TestPlan) -> MemSystem {
    fresh_with_net(plan, NetConfig::flat())
}

fn main() {
    {
        let mut ms = fresh(TestPlan::new());
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/plain_hit", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        });
    }

    // Interconnect overhead: the same coherence ping-pong routed through
    // the constant-latency flat crossbar vs. the contended 2D mesh. The
    // ratio is the host-side price of per-link occupancy simulation.
    let net_flat = {
        let mut ms = fresh(TestPlan::new());
        let mut t = 0u64;
        bench_default("protocol/plain_pingpong", || {
            t += 1000;
            ms.write(ProcId(0), A, 0, Cycles(t));
            ms.write(ProcId(1), A, 0, Cycles(t + 500))
        })
    };
    let net_mesh = {
        let mut ms = fresh_with_net(TestPlan::new(), NetConfig::mesh(16));
        let mut t = 0u64;
        bench_default("protocol/plain_pingpong_mesh", || {
            t += 1000;
            ms.write(ProcId(0), A, 0, Cycles(t));
            ms.write(ProcId(1), A, 0, Cycles(t + 500))
        })
    };
    write_bench_net(&net_flat, &net_mesh);

    let baseline = {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let mut ms = fresh(plan);
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/nonpriv_read_hit", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        })
    };

    {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::Priv3);
        let mut ms = fresh(plan);
        ms.begin_iteration(ProcId(0), 0);
        ms.write(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        let mut iter = 0u64;
        bench_default("protocol/priv_write_hit", || {
            t += 2;
            iter += 1;
            ms.begin_iteration(ProcId(0), iter);
            ms.write(ProcId(0), A, 0, Cycles(t))
        });
    }

    // Tracing overhead: the same nonpriv read-hit loop with the tracer
    // off (default) vs. installed with a no-op sink. The two numbers
    // should be indistinguishable — the hot path only checks a flag.
    let traced_off = {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let mut ms = fresh(plan);
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/nonpriv_hit_trace_off", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        })
    };
    let traced_null = {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let mut ms = fresh(plan);
        ms.set_tracer(Tracer::new(Box::new(NullSink)));
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/nonpriv_hit_trace_null", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        })
    };
    println!(
        "tracing disabled: {:.1} ns/iter vs {:.1} ns/iter baseline ({:+.1}%; must be noise)",
        traced_off.ns_per_iter(),
        baseline.ns_per_iter(),
        (traced_off.ns_per_iter() / baseline.ns_per_iter() - 1.0) * 100.0
    );
    println!(
        "tracing enabled (no-op sink): {:.1} ns/iter ({:+.1}% — the price of \
         snapshotting spec state per access)",
        traced_null.ns_per_iter(),
        (traced_null.ns_per_iter() / traced_off.ns_per_iter() - 1.0) * 100.0
    );

    bench_prof_overhead(&baseline);
    bench_fuzz_throughput();
}

/// Host-profiler overhead guard: the instrumented read-hit path with
/// profiling *disabled* (the default — one relaxed atomic load per span
/// site) must cost the same as the baseline run of the identical loop; the
/// budget is 3%, and anything past 10% fails the bench outright (the
/// margin tolerates wall-clock noise on busy CI runners). The enabled cost
/// is measured and printed but unguarded — it is the opt-in price.
fn bench_prof_overhead(baseline: &specrt_bench::harness::Measurement) {
    assert!(
        !specrt_prof::enabled(),
        "profiling must be off by default in benches"
    );
    let prof_off = {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let mut ms = fresh(plan);
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/nonpriv_hit_prof_off", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        })
    };
    let off_pct = (prof_off.ns_per_iter() / baseline.ns_per_iter() - 1.0) * 100.0;
    println!(
        "profiling disabled: {:.1} ns/iter vs {:.1} ns/iter baseline \
         ({off_pct:+.1}%; budget 3%)",
        prof_off.ns_per_iter(),
        baseline.ns_per_iter(),
    );
    assert!(
        off_pct < 10.0,
        "disabled profiling costs {off_pct:+.1}% on the read-hit path \
         (budget 3%, hard stop 10%) — a span site is doing work while off"
    );

    specrt_prof::set_enabled(true);
    let prof_on = {
        let mut plan = TestPlan::new();
        plan.set(A, SpecVariant::NonPriv);
        let mut ms = fresh(plan);
        ms.read(ProcId(0), A, 0, Cycles(0));
        let mut t = 1u64;
        bench_default("protocol/nonpriv_hit_prof_on", || {
            t += 2;
            ms.read(ProcId(0), A, 0, Cycles(t))
        })
    };
    specrt_prof::set_enabled(false);
    let _ = specrt_prof::take_report();
    println!(
        "profiling enabled: {:.1} ns/iter ({:+.1}% — the opt-in price of \
         timestamping every span)",
        prof_on.ns_per_iter(),
        (prof_on.ns_per_iter() / prof_off.ns_per_iter() - 1.0) * 100.0
    );
}

/// Differential-fuzz cases checked per benchmark run. Large enough that
/// worker startup is amortized, small enough to keep the bench quick.
const FUZZ_CASES: u64 = 300;

/// Artifacts land in the bench crate's directory regardless of the cwd
/// `cargo bench` ran from — that is where CI picks them up and where the
/// committed copies live.
fn artifact_path(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// End-to-end fuzz throughput of the `specrt-par` worker pool: the same
/// `(cases, seed)` run single-threaded and with one worker per core. The
/// reports must match byte-for-byte (determinism is part of the contract);
/// the speedup is the payoff. A third, *profiled* parallel leg checks that
/// turning the host profiler on perturbs neither the output nor (much)
/// the throughput, and exports the j=1 vs j=N rates plus per-worker
/// utilization as `BENCH_prof.json` — the input of CI's speedup gate.
fn bench_fuzz_throughput() {
    let jobs = specrt_par::default_jobs();
    let time = |j: usize| {
        let start = std::time::Instant::now();
        let report = specrt_check::fuzz_jobs(FUZZ_CASES, 0x5eed, j);
        (report, start.elapsed().as_secs_f64())
    };
    // Warm-up run so lazy init and page faults don't bias the j=1 leg.
    let _ = time(1);
    let (serial_report, serial_s) = time(1);
    let (par_report, par_s) = time(jobs);
    assert_eq!(
        serial_report.render(),
        par_report.render(),
        "fuzz output must not depend on the worker count"
    );
    assert!(serial_report.ok(), "fuzz smoke must be clean");
    let serial_rate = FUZZ_CASES as f64 / serial_s;
    let par_rate = FUZZ_CASES as f64 / par_s;
    let speedup = par_rate / serial_rate;
    println!(
        "fuzz throughput: {serial_rate:.0} cases/s at j=1, {par_rate:.0} cases/s at j={jobs} \
         ({speedup:.2}x)"
    );
    let json = format!(
        "{{\n  \"bench\": \"check/fuzz_throughput\",\n  \
         \"cases\": {FUZZ_CASES},\n  \
         \"jobs\": {jobs},\n  \
         \"serial_cases_per_sec\": {serial_rate:.1},\n  \
         \"parallel_cases_per_sec\": {par_rate:.1},\n  \
         \"speedup\": {speedup:.3}\n}}\n"
    );
    let par_path = artifact_path("BENCH_par.json");
    if let Err(e) = std::fs::write(&par_path, &json) {
        eprintln!("cannot write {par_path}: {e}");
    }

    // Profiled leg: same (cases, seed, jobs) with the host profiler live.
    specrt_prof::set_enabled(true);
    let _ = specrt_prof::take_report();
    let (profiled_report, profiled_s) = time(jobs);
    specrt_prof::set_enabled(false);
    let prof = specrt_prof::take_report();
    assert_eq!(
        serial_report.render(),
        profiled_report.render(),
        "profiling must not perturb the deterministic fuzz output"
    );
    let profiled_rate = FUZZ_CASES as f64 / profiled_s;
    let util = prof.worker_utilization();
    let mean_util = if util.is_empty() {
        0.0
    } else {
        util.iter().map(|(_, u)| u).sum::<f64>() / util.len() as f64
    };
    println!(
        "fuzz throughput profiled: {profiled_rate:.0} cases/s at j={jobs} \
         ({:+.1}% vs unprofiled), mean worker utilization {:.0}%",
        (profiled_rate / par_rate - 1.0) * 100.0,
        mean_util * 100.0
    );
    let mut prof_json = format!(
        "{{\n  \"bench\": \"check/fuzz_profile\",\n  \
         \"cases\": {FUZZ_CASES},\n  \
         \"jobs\": {jobs},\n  \
         \"serial_cases_per_sec\": {serial_rate:.1},\n  \
         \"parallel_cases_per_sec\": {par_rate:.1},\n  \
         \"profiled_cases_per_sec\": {profiled_rate:.1},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"mean_worker_utilization\": {mean_util:.3},\n  \
         \"worker_utilization\": {{"
    );
    for (i, (label, u)) in util.iter().enumerate() {
        if i > 0 {
            prof_json.push(',');
        }
        prof_json.push_str(&format!("\n    \"{label}\": {u:.3}"));
    }
    prof_json.push_str("\n  }\n}\n");
    let prof_path = artifact_path("BENCH_prof.json");
    if let Err(e) = std::fs::write(&prof_path, &prof_json) {
        eprintln!("cannot write {prof_path}: {e}");
    }
}

/// Records the flat-vs-mesh ping-pong datapoint so the perf trajectory
/// tracks interconnect simulation cost across commits.
fn write_bench_net(
    flat: &specrt_bench::harness::Measurement,
    mesh: &specrt_bench::harness::Measurement,
) {
    let ratio = mesh.ns_per_iter() / flat.ns_per_iter();
    let json = format!(
        "{{\n  \"bench\": \"protocol/plain_pingpong\",\n  \
         \"flat_ns_per_iter\": {:.1},\n  \
         \"mesh_ns_per_iter\": {:.1},\n  \
         \"mesh_over_flat\": {:.3}\n}}\n",
        flat.ns_per_iter(),
        mesh.ns_per_iter(),
        ratio
    );
    let path = artifact_path("BENCH_net.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "mesh interconnect overhead: {:.2}x flat on the ping-pong path (BENCH_net.json)",
            ratio
        ),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
