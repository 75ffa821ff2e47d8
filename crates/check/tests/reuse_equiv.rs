//! Pool-reuse equivalence: a machine built around recycled cache
//! hierarchies must be indistinguishable from a freshly built one.
//!
//! Every scenario runner leases its machine from the thread-local pool
//! (`specrt_machine::pool`), so on a warmed thread runs execute on cache
//! hierarchies that already ran *other* cases, under other
//! configurations, and were reset in place. Any state that survives the
//! reset — a stale line, tag or hit counter, a slot the reset missed —
//! would show up as a divergence between a cold (fresh-thread,
//! fresh-build) run and a warm (pooled) run of the same case. This test
//! renders both byte-for-byte: oracle mismatches, merged protocol stats,
//! the verdict, and the full event trace of the hardware
//! non-privatization run, across the whole pinned fuzz corpus plus one
//! fault-campaign cell.

use std::fmt::Write as _;
use std::path::PathBuf;

use specrt_cache::CacheConfig;
use specrt_check::{parse_seed, run_case, CampaignConfig, CaseSpec};
use specrt_machine::{
    pool, run_scenario_configured, CheckpointConfig, MachineConfig, RecoveryPolicy, Scenario,
};
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::SpecVariant;

fn corpus_seeds() -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seeds: Vec<u64> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seed"))
        .map(|e| {
            let text = std::fs::read_to_string(e.path()).expect("seed file readable");
            parse_seed(&text).expect("seed parses")
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Everything observable about one case, rendered canonically.
fn canonical(seed: u64) -> String {
    let case = CaseSpec::generate(seed);
    let r = run_case(&case);
    let mut s = String::new();
    let _ = writeln!(s, "mismatches={:?}", r.mismatches);
    let mut stats: Vec<_> = r.stats.iter().collect();
    stats.sort();
    let _ = writeln!(s, "stats={stats:?}");
    let mut cfg = MachineConfig::with_procs(case.procs);
    cfg.trace_capacity = 1 << 14;
    let np = run_scenario_configured(
        &case.loop_spec(SpecVariant::NonPriv, true),
        Scenario::Hw,
        cfg,
    );
    let _ = writeln!(
        s,
        "passed={:?} failure={:?} cycles={}",
        np.passed,
        np.failure,
        np.total_cycles.raw()
    );
    for ev in &np.trace {
        let _ = writeln!(s, "{ev:?}");
    }
    s
}

/// Runs each seed's hardware protocols on this thread under configurations
/// other than the ones [`canonical`] uses — other processor counts, half
/// and double cache geometry (the `ablation_machine_jobs` variants), a
/// mesh, lossy messages, and a node crash under checkpoint-restart — so
/// the pool ends up holding hierarchies last used by other machines.
fn cross_config_warm_up(seeds: &[u64]) {
    for &seed in seeds {
        let case = CaseSpec::generate(seed);
        let base = MachineConfig::with_procs(case.procs);
        let geometry = |l1_lines, l2_lines| {
            let mut c = base;
            c.mem.cache = CacheConfig { l1_lines, l2_lines };
            c
        };
        let faulty = |faults| base.with_net(NetConfig::flat().with_faults(faults));
        let lossy = FaultConfig {
            seed,
            drop_ppm: 200_000,
            dup_ppm: 100_000,
            delay_ppm: 100_000,
            delay_cycles: 96,
            node_fault: None,
        };
        let crash = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 1u32.min(case.procs - 1),
                at_cycle: 1500,
            }),
            ..FaultConfig::none()
        };
        // Other geometries first: the default-geometry hierarchies the
        // later configurations free are then the newest on the list.
        let configs = [
            geometry(256, 4096),
            geometry(1024, 16384),
            MachineConfig::with_procs(case.procs + 1),
            MachineConfig::with_procs(2 * case.procs),
            base.with_net(NetConfig::mesh(case.procs)),
            faulty(lossy).with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 2 }),
            faulty(crash).with_recovery(RecoveryPolicy::CheckpointRestart {
                checkpoint: CheckpointConfig { every_iters: 2 },
            }),
        ];
        for cfg in configs {
            for protocol in [SpecVariant::NonPriv, SpecVariant::Priv] {
                let _ = run_scenario_configured(&case.loop_spec(protocol, true), Scenario::Hw, cfg);
            }
        }
    }
}

/// Runs `f` on a brand-new thread, whose thread-local pool is empty: every
/// lease inside builds fresh.
fn on_cold_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("cold-thread run")
}

#[test]
fn corpus_runs_identically_on_fresh_and_reused_instances() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10);

    // Cold baseline: one fresh thread per seed, nothing pooled.
    let cold: Vec<String> = seeds
        .iter()
        .map(|&seed| on_cold_thread(move || canonical(seed)))
        .collect();

    // Warm the calling thread's pool under other configurations, then
    // re-run: each canonical() below executes on hierarchies reset after
    // other machines' runs.
    cross_config_warm_up(&seeds);
    let (_, reuses_before) = pool::counters();
    let warm: Vec<String> = seeds.iter().map(|&seed| canonical(seed)).collect();
    let (_, reuses_after) = pool::counters();
    assert!(
        reuses_after > reuses_before,
        "warm pass must actually exercise pooled instances"
    );

    for ((seed, c), w) in seeds.iter().zip(&cold).zip(&warm) {
        assert_eq!(c, w, "seed {seed:#x}: pooled run diverged from fresh build");
    }
}

#[test]
fn campaign_cell_runs_identically_on_fresh_and_reused_instances() {
    let cfg = CampaignConfig {
        cases: 4,
        fault_seeds: 1,
        rates_ppm: vec![0, 200_000],
        ..CampaignConfig::default()
    };
    let cold = {
        let cfg = cfg.clone();
        on_cold_thread(move || specrt_check::run_campaign(&cfg, 1).render_json())
    };
    // Warm the pool with unrelated corpus work under other configurations
    // first, then run the same campaign on this (reused) thread.
    cross_config_warm_up(&corpus_seeds()[..4]);
    let warm = specrt_check::run_campaign(&cfg, 1).render_json();
    assert_eq!(
        cold, warm,
        "campaign cell diverged between fresh and pooled runs"
    );
}
