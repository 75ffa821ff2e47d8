//! Closed-loop load driver for the simulation service: concurrent
//! clients drive a [`ServeCore`] in-process with a duplicate-heavy
//! request mix, measuring request throughput **cold** (empty cache,
//! every distinct request simulates) versus **warm** (every request a
//! cache hit). Exports `BENCH_serve.json` — CI uploads it and asserts
//! the cache contract here directly:
//!
//! * every warm response is **byte-identical** to its cold counterpart
//!   (the payload is a pure function of the canonical key);
//! * warm throughput is at least [`WARM_FLOOR`]× cold throughput on this
//!   mix (a cache hit must never pay for a Machine).

use std::sync::Arc;
use std::time::Instant;

use specrt_check::Json;
use specrt_serve::{Outcome, ServeConfig, ServeCore};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 4;
/// Warm passes over the distinct set per client (the duplicate-heavy
/// mix: every request after the cold pass is a repeat).
const WARM_PASSES: usize = 8;
/// Minimum warm/cold throughput ratio.
const WARM_FLOOR: f64 = 5.0;

fn requests() -> Vec<String> {
    let mut reqs: Vec<String> = (0..20u64)
        .map(|i| {
            format!(
                "{{\"op\":\"case\",\"seed\":{},\"protocol\":\"{}\",\"lane\":\"batch\"}}",
                100 + i,
                ["hw-nonpriv", "hw-priv", "sw-lrpd", "ideal"][(i % 4) as usize]
            )
        })
        .collect();
    for inv in 0..3 {
        reqs.push(format!(
            "{{\"op\":\"workload\",\"name\":\"ocean\",\"invocation\":{inv},\"lane\":\"batch\"}}"
        ));
    }
    reqs.push(
        "{\"op\":\"workload\",\"name\":\"track\",\"failure\":true,\"lane\":\"batch\"}".to_string(),
    );
    reqs
}

fn resolve(core: &Arc<ServeCore>, line: &str) -> String {
    match core.handle_line(line) {
        Outcome::Ready(p) => p,
        Outcome::Pending { rx, .. } => rx.recv().expect("job answers"),
        Outcome::Shutdown(p) => p,
    }
}

/// Each client owns a slice of the request list (closed loop: next
/// request only after the previous response). Returns responses indexed
/// like `reqs`.
fn drive_pass(core: &Arc<ServeCore>, reqs: &[String], passes: usize) -> (Vec<String>, f64) {
    let started = Instant::now();
    let responses = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let core = Arc::clone(core);
                s.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..passes {
                        for (i, req) in reqs.iter().enumerate() {
                            if i % CLIENTS == c {
                                got.push((i, resolve(&core, req)));
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<(usize, String)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all
    });
    let secs = started.elapsed().as_secs_f64();
    // One pass's worth of responses, first answer per request index.
    let mut first = vec![String::new(); reqs.len()];
    for (i, r) in &responses {
        if first[*i].is_empty() {
            first[*i] = r.clone();
        }
    }
    (first, secs)
}

fn counter(core: &Arc<ServeCore>, name: &str) -> u64 {
    Json::parse(&core.metrics_snapshot_json())
        .expect("snapshot parses")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn main() {
    let reqs = requests();
    let core = ServeCore::new(ServeConfig {
        workers: specrt_par::default_jobs(),
        queue_depth: 256,
        cache_capacity: 1024,
    });

    let (cold_responses, cold_s) = drive_pass(&core, &reqs, 1);
    let cold_n = reqs.len();
    let cold_rate = cold_n as f64 / cold_s;
    assert_eq!(
        counter(&core, "serve.completed"),
        cold_n as u64,
        "cold pass must simulate every distinct request exactly once"
    );

    let (warm_responses, warm_s) = drive_pass(&core, &reqs, WARM_PASSES);
    let warm_n = reqs.len() * WARM_PASSES;
    let warm_rate = warm_n as f64 / warm_s;

    assert_eq!(
        cold_responses, warm_responses,
        "warm responses must be byte-identical to cold ones"
    );
    assert_eq!(
        counter(&core, "serve.completed"),
        cold_n as u64,
        "warm requests must never touch a Machine"
    );
    assert_eq!(counter(&core, "serve.cache_hits"), warm_n as u64);

    let speedup = warm_rate / cold_rate;
    let p50 = counter(&core, "serve.latency_us.p50");
    let p99 = counter(&core, "serve.latency_us.p99");
    println!(
        "serve load: {cold_rate:.1} req/s cold ({cold_n} distinct), \
         {warm_rate:.0} req/s warm ({warm_n} duplicates), {speedup:.1}x, \
         latency p50 {p50} us / p99 {p99} us"
    );
    assert!(
        speedup >= WARM_FLOOR,
        "warm throughput is only {speedup:.2}x cold (floor {WARM_FLOOR}x) — \
         cache hits are paying for simulation"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve/load\",\n  \
         \"clients\": {CLIENTS},\n  \
         \"distinct_requests\": {cold_n},\n  \
         \"warm_requests\": {warm_n},\n  \
         \"cold_requests_per_sec\": {cold_rate:.1},\n  \
         \"warm_requests_per_sec\": {warm_rate:.1},\n  \
         \"warm_over_cold\": {speedup:.3},\n  \
         \"latency_us_p50\": {p50},\n  \
         \"latency_us_p99\": {p99},\n  \
         \"cache_hits\": {}\n}}\n",
        counter(&core, "serve.cache_hits")
    );
    let path = format!("{}/BENCH_serve.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
