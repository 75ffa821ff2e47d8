//! `specrt-check` — the conformance-harness CLI.
//!
//! ```text
//! specrt-check fuzz --cases 500 --seed 0x5eed [--jobs N] [--inject drop-ronly]
//! specrt-check replay <seed>
//! specrt-check model [--lines L] [--elems E] [--procs P] [--max-ops N]
//!                    [--variant nonpriv|priv|priv3] [--jobs N] [--inject BUG]
//! specrt-check coverage [--cases N] [--seed S] [--jobs N]
//!                       [--lines L --elems E --procs P --max-ops N]
//! specrt-check campaign [--cases N] [--fault-seeds N] [--rates ppm,ppm,..]
//!                       [--nodes n,n,..] [--node-at c,c,..|never] [--ckpt-every N]
//!                       [--jobs N] [--out FILE] [--inject ckpt-skip-dirty]
//! ```
//!
//! * `fuzz` runs the differential fuzzer; exits non-zero on any oracle
//!   disagreement. With `--inject <bug>` a known protocol bug is switched
//!   on and the exit code inverts: the fuzzer must *find* (and shrink) a
//!   counterexample, proving the harness catches real regressions.
//! * `replay` re-runs one case seed and, if it disagrees, shrinks it.
//! * `model` runs the bounded model checker over the pure `ProtocolSpec`
//!   transition function: per-variant exhaustive small-scope exploration
//!   (default 2 lines × 3 elems × 4 procs, all of nonpriv/priv/priv3) with
//!   exact packed-state dedup, reporting states explored, dedup hit rate
//!   and race-site coverage; exits non-zero on any violation or missing
//!   race site. With `--inject <bug>` the exit code inverts: the checker
//!   must find the planted protocol bug and print a minimal
//!   counterexample. Unsupported scope combinations are rejected with the
//!   valid ranges.
//! * `coverage` runs the fuzzer and a per-variant model-checker pass
//!   (the smoke scope, or the scope the flags give) and prints both
//!   sides' race-site counts per variant: Figs. 6–7 (a)–(h), Fig. 9
//!   (a)–(j) and the no-read-in variant's §4.1 sites. It fails on an
//!   oracle disagreement or model violation, when a model run misses a
//!   site of its variant, and when the fuzzer misses a site the model
//!   reaches, unless the report gives the reason the machine cannot reach
//!   it.
//! * `campaign` sweeps the interconnect fault plane (drop / duplicate /
//!   delay × rate × fault seed) over generated loops, asserts every run
//!   still reproduces the serial oracle's memory image, and emits a
//!   deterministic degradation report (JSON) — to stdout, or to `--out
//!   FILE` (the `BENCH_faults.json` artifact). `--nodes`/`--node-at`/
//!   `--ckpt-every` add the node-level grid (crash / pause / partition ×
//!   node × activation cycle) run under checkpoint-restart recovery;
//!   `--node-at` accepts the token `never` for the armed-but-inert gate
//!   cell. With `--inject ckpt-skip-dirty` the exit code inverts: the
//!   planted checkpoint bug (snapshots skip the dirty image state) must be
//!   caught by the serial-oracle image check.
//!
//! `--jobs N` distributes independent cases (fuzz, campaign) or scripts
//! (model) over `N` worker threads; `--jobs 0` means "all available
//! cores". Output is byte-identical for every job count — the
//! default stays 1 so existing invocations and golden comparisons are
//! unchanged unless parallelism is asked for.
//!
//! `--profile[=FILE]` turns on the host-side span profiler for the run and
//! prints the ranked self-time table (plus worker-pool telemetry) to
//! **stderr** after the command finishes; with `=FILE` it also writes a
//! Chrome `trace_events` timeline of the host spans — one track per worker
//! — loadable in Perfetto. stdout is untouched: profiled runs stay
//! byte-identical to unprofiled ones, which a determinism test and a CI
//! `cmp` both enforce.

use std::process::ExitCode;

use specrt_check::{
    fuzz_jobs, render_case, replay, run_campaign, run_model, CampaignConfig, CaseSpec, FuzzFailure,
    ModelConfig, NodeGridConfig, DEFAULT_MAX_OPS, NODE_FAULT_NEVER,
};
use specrt_machine::{CheckpointConfig, RecoveryPolicy};
use specrt_proto::FaultConfig;
use specrt_spec::{fault, RaceSite, SpecScope, SpecVariant};

/// Race sites the model reaches that the machine cannot, each with the
/// reason `coverage` prints instead of failing. Empty: the fuzzer reaches
/// every site.
const MACHINE_UNREACHABLE: [(RaceSite, &str); 0] = [];

/// Space-separated trace labels of `sites`.
fn labels(sites: &[RaceSite]) -> String {
    let labels: Vec<&str> = sites.iter().map(|s| s.label()).collect();
    labels.join(" ")
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

struct Args {
    cases: u64,
    /// Whether `--cases` was given explicitly (the fuzz and campaign
    /// subcommands have different defaults).
    cases_set: bool,
    seed: u64,
    jobs: usize,
    inject: Option<fault::FaultKind>,
    fault_seeds: Option<u64>,
    rates_ppm: Option<Vec<u32>>,
    nodes: Option<Vec<u32>>,
    node_at: Option<Vec<u64>>,
    ckpt_every: Option<u64>,
    out: Option<String>,
    profile: bool,
    profile_out: Option<String>,
    lines: Option<u16>,
    elems: Option<u16>,
    procs: Option<u16>,
    max_ops: Option<usize>,
    variant: Option<String>,
    positional: Vec<String>,
}

impl Args {
    /// Whether any model-scope flag was given (widens `coverage`'s model
    /// pass beyond the smoke scope).
    fn scope_given(&self) -> bool {
        self.lines.is_some() || self.elems.is_some() || self.procs.is_some()
    }

    /// The requested scope, validated; defaults to the full 2x3x4 target.
    fn scope(&self) -> Result<SpecScope, String> {
        SpecScope {
            lines: self.lines.unwrap_or(2),
            elems: self.elems.unwrap_or(3),
            procs: self.procs.unwrap_or(4),
        }
        .validate()
    }

    /// The requested variants (default: all three).
    fn variants(&self) -> Result<Vec<SpecVariant>, String> {
        match &self.variant {
            None => Ok(SpecVariant::ALL.to_vec()),
            Some(v) => SpecVariant::parse(v).map(|v| vec![v]).ok_or(format!(
                "unknown variant: {v} (valid: nonpriv, priv, priv3)"
            )),
        }
    }
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _bin = argv.next();
    let cmd = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        cases: 500,
        cases_set: false,
        seed: 0x5eed,
        jobs: 1,
        inject: None,
        fault_seeds: None,
        rates_ppm: None,
        nodes: None,
        node_at: None,
        ckpt_every: None,
        out: None,
        profile: false,
        profile_out: None,
        lines: None,
        elems: None,
        procs: None,
        max_ops: None,
        variant: None,
        positional: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--cases" => {
                let v = argv.next().ok_or("--cases needs a value")?;
                args.cases = parse_u64(&v).ok_or(format!("bad --cases value: {v}"))?;
                args.cases_set = true;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_u64(&v).ok_or(format!("bad --seed value: {v}"))?;
            }
            "--jobs" | "-j" => {
                let v = argv.next().ok_or("--jobs needs a value")?;
                args.jobs = specrt_par::parse_jobs(&v).ok_or(format!("bad --jobs value: {v}"))?;
            }
            "--inject" => {
                let v = argv.next().ok_or("--inject needs a value")?;
                args.inject = Some(fault::FaultKind::parse(&v).ok_or(format!(
                    "unknown fault: {v} (valid: {})",
                    fault::FaultKind::known_names()
                ))?);
            }
            "--fault-seeds" => {
                let v = argv.next().ok_or("--fault-seeds needs a value")?;
                args.fault_seeds =
                    Some(parse_u64(&v).ok_or(format!("bad --fault-seeds value: {v}"))?);
            }
            "--rates" => {
                let v = argv.next().ok_or("--rates needs a value")?;
                let rates: Option<Vec<u32>> = v
                    .split(',')
                    .map(|r| parse_u64(r.trim()).and_then(|n| u32::try_from(n).ok()))
                    .collect();
                args.rates_ppm = Some(rates.ok_or(format!("bad --rates value: {v}"))?);
            }
            "--nodes" => {
                let v = argv.next().ok_or("--nodes needs a value")?;
                let nodes: Option<Vec<u32>> = v
                    .split(',')
                    .map(|n| parse_u64(n.trim()).and_then(|n| u32::try_from(n).ok()))
                    .collect();
                args.nodes = Some(nodes.ok_or(format!("bad --nodes value: {v}"))?);
            }
            "--node-at" => {
                let v = argv.next().ok_or("--node-at needs a value")?;
                let ats: Option<Vec<u64>> = v
                    .split(',')
                    .map(|c| match c.trim() {
                        "never" => Some(NODE_FAULT_NEVER),
                        c => parse_u64(c),
                    })
                    .collect();
                args.node_at = Some(ats.ok_or(format!("bad --node-at value: {v}"))?);
            }
            "--ckpt-every" => {
                let v = argv.next().ok_or("--ckpt-every needs a value")?;
                args.ckpt_every = Some(
                    parse_u64(&v)
                        .filter(|&n| n >= 1)
                        .ok_or(format!("bad --ckpt-every value: {v} (must be >= 1)"))?,
                );
            }
            "--out" => {
                args.out = Some(argv.next().ok_or("--out needs a value")?);
            }
            "--lines" => {
                let v = argv.next().ok_or("--lines needs a value")?;
                args.lines = Some(
                    parse_u64(&v)
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or(format!("bad --lines value: {v}"))?,
                );
            }
            "--elems" => {
                let v = argv.next().ok_or("--elems needs a value")?;
                args.elems = Some(
                    parse_u64(&v)
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or(format!("bad --elems value: {v}"))?,
                );
            }
            "--procs" => {
                let v = argv.next().ok_or("--procs needs a value")?;
                args.procs = Some(
                    parse_u64(&v)
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or(format!("bad --procs value: {v}"))?,
                );
            }
            "--max-ops" => {
                let v = argv.next().ok_or("--max-ops needs a value")?;
                args.max_ops = Some(
                    parse_u64(&v)
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or(format!("bad --max-ops value: {v}"))?,
                );
            }
            "--variant" => {
                args.variant = Some(argv.next().ok_or("--variant needs a value")?);
            }
            "--profile" => args.profile = true,
            other if other.starts_with("--profile=") => {
                args.profile = true;
                let path = &other["--profile=".len()..];
                if path.is_empty() {
                    return Err("--profile= needs a file name".to_string());
                }
                args.profile_out = Some(path.to_string());
            }
            other if !other.starts_with('-') => args.positional.push(other.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((cmd, args))
}

fn usage() -> String {
    "usage: specrt-check <fuzz|replay|model|coverage|campaign> \
     [--cases N] [--seed S] [--jobs N] [--inject drop-ronly] \
     [--lines N] [--elems N] [--procs N] [--max-ops N] [--variant nonpriv|priv|priv3] \
     [--fault-seeds N] [--rates ppm,ppm,..] [--nodes n,n,..] [--node-at c,c,..|never] \
     [--ckpt-every N] [--out FILE] [--profile[=FILE]] [seed]"
        .to_string()
}

fn print_failure(f: &FuzzFailure) {
    println!("seed {:#x} disagrees with the oracle:", f.seed);
    for m in &f.mismatches {
        println!("  {m}");
    }
    println!("shrunk to {} accesses:", f.shrunk.accesses());
    print!("{}", render_case(&f.shrunk));
}

fn cmd_fuzz(args: &Args) -> ExitCode {
    let _guard = args.inject.map(fault::Injected::new);
    let report = fuzz_jobs(args.cases, args.seed, args.jobs);
    print!("{}", report.render());
    if args.profile {
        // Telemetry is scheduling-dependent for jobs > 1 — stderr only.
        let p = &report.pool;
        eprintln!(
            "worker pool: {} worker(s), {} case(s), claims {:?}, imbalance {}",
            p.workers,
            p.items,
            p.claimed,
            p.imbalance()
        );
    }
    match args.inject {
        None => {
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(k) => {
            // An injected bug must be caught, with a small witness.
            match report.failures.first() {
                Some(f) if f.shrunk.accesses() <= 8 => {
                    println!(
                        "injected bug '{}' caught; shrunk witness has {} accesses",
                        k.name(),
                        f.shrunk.accesses()
                    );
                    ExitCode::SUCCESS
                }
                Some(f) => {
                    println!(
                        "injected bug '{}' caught but witness kept {} accesses (> 8)",
                        k.name(),
                        f.shrunk.accesses()
                    );
                    ExitCode::FAILURE
                }
                None => {
                    println!("injected bug '{}' was NOT caught", k.name());
                    ExitCode::FAILURE
                }
            }
        }
    }
}

fn cmd_replay(args: &Args) -> ExitCode {
    let Some(seed) = args.positional.first().and_then(|s| parse_u64(s)) else {
        eprintln!("usage: specrt-check replay <seed>");
        return ExitCode::FAILURE;
    };
    let _guard = args.inject.map(fault::Injected::new);
    println!("replaying seed {seed:#x}:");
    print!("{}", render_case(&CaseSpec::generate(seed)));
    match replay(seed) {
        None => {
            println!("agrees with the oracle");
            ExitCode::SUCCESS
        }
        Some(f) => {
            print_failure(&f);
            ExitCode::FAILURE
        }
    }
}

fn cmd_model(args: &Args) -> ExitCode {
    let (scope, variants) = match (args.scope(), args.variants()) {
        (Ok(s), Ok(v)) => (s, v),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let _guard = args.inject.map(fault::Injected::new);
    let mut all_ok = true;
    let mut all_covered = true;
    for variant in &variants {
        let report = run_model(&ModelConfig {
            variant: *variant,
            scope,
            max_ops: args.max_ops.unwrap_or(DEFAULT_MAX_OPS),
            jobs: args.jobs,
        });
        print!("{}", report.render());
        all_ok &= report.ok();
        if !report.coverage.complete() {
            all_covered = false;
            println!(
                "model {}: race sites NOT visited: {}",
                variant.name(),
                labels(&report.coverage.unvisited())
            );
        }
    }
    match args.inject {
        // A deliberately broken protocol must be caught by the checker.
        Some(k) => {
            if all_ok {
                println!(
                    "injected bug '{}' was NOT caught by the model checker",
                    k.name()
                );
                ExitCode::FAILURE
            } else {
                println!("injected bug '{}' caught (counterexample above)", k.name());
                ExitCode::SUCCESS
            }
        }
        None => {
            if all_ok && all_covered {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn cmd_coverage(args: &Args) -> ExitCode {
    // The model checker shows the spec reaches every race site of each
    // variant; the fuzzer's protocol statistics show the full machine
    // reaches each site the model does.
    let report = fuzz_jobs(args.cases, args.seed, args.jobs);
    let mut passed = report.ok();
    if !passed {
        println!("fuzz: {} failure(s)", report.failures.len());
    }
    // The scope flags widen the model runs; the default smoke scope is
    // the smallest that covers every site of every variant.
    for variant in SpecVariant::ALL {
        let mut cfg = ModelConfig::smoke(variant);
        if args.scope_given() || args.max_ops.is_some() {
            match args.scope() {
                Ok(scope) => cfg.scope = scope,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            cfg.max_ops = args.max_ops.unwrap_or(DEFAULT_MAX_OPS);
        }
        cfg.jobs = args.jobs;
        let model = run_model(&cfg);
        let fuzz = report.coverage(variant);
        println!("fuzz {}: {fuzz}", variant.name());
        println!("model {}: {}", variant.name(), model.coverage);
        if !model.ok() || !model.coverage.complete() {
            passed = false;
            println!(
                "model {}: violations {} / race sites NOT visited: {}",
                variant.name(),
                model.violations + model.invariant_violations,
                labels(&model.coverage.unvisited())
            );
        }
        let mut missed = Vec::new();
        let counts = model.coverage.counts.into_iter().zip(fuzz.counts);
        for (site, (in_model, in_fuzz)) in RaceSite::of(variant).zip(counts) {
            if in_model == 0 || in_fuzz > 0 {
                continue;
            }
            match MACHINE_UNREACHABLE.iter().find(|(s, _)| *s == site) {
                Some((_, why)) => println!(
                    "fuzz {}: {} unreachable: {why}",
                    variant.name(),
                    site.label()
                ),
                None => missed.push(site),
            }
        }
        if !missed.is_empty() {
            passed = false;
            println!(
                "fuzz {}: race sites NOT visited: {}",
                variant.name(),
                labels(&missed)
            );
        }
    }
    if passed {
        println!("all race sites covered");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_campaign(args: &Args) -> ExitCode {
    let mut cfg = CampaignConfig::default();
    if args.cases_set {
        cfg.cases = args.cases;
    }
    if let Some(fs) = args.fault_seeds {
        cfg.fault_seeds = fs;
    }
    if let Some(rates) = &args.rates_ppm {
        cfg.rates_ppm = rates.clone();
    }
    // Surface out-of-range rates here, with the accepted range, instead of
    // panicking deep inside the fault plane mid-campaign.
    for &rate in &cfg.rates_ppm {
        let probe = FaultConfig {
            drop_ppm: rate,
            ..FaultConfig::none()
        };
        if let Err(e) = probe.validate() {
            eprintln!("bad --rates value: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.nodes.is_some() || args.node_at.is_some() || args.ckpt_every.is_some() {
        let mut ng = NodeGridConfig::default();
        if let Some(nodes) = &args.nodes {
            ng.nodes = nodes.clone();
        }
        if let Some(ats) = &args.node_at {
            ng.at_cycles = ats.clone();
        }
        if let Some(every) = args.ckpt_every {
            ng.recovery = RecoveryPolicy::CheckpointRestart {
                checkpoint: CheckpointConfig { every_iters: every },
            };
        }
        if ng.nodes.is_empty() || ng.at_cycles.is_empty() {
            eprintln!("the node grid needs at least one node and one at-cycle");
            return ExitCode::FAILURE;
        }
        cfg.node_grid = Some(ng);
    }
    if cfg.cases == 0 || cfg.fault_seeds == 0 || cfg.rates_ppm.is_empty() {
        eprintln!("campaign needs at least one case, fault seed and rate");
        return ExitCode::FAILURE;
    }
    let _guard = args.inject.map(fault::Injected::new);
    let report = run_campaign(&cfg, args.jobs);
    let json = report.render_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("campaign report written to {path}");
        }
        None => print!("{json}"),
    }
    println!(
        "campaign: {} cells x {} runs, {} image mismatch(es)",
        report.cells.len() + report.node_cells.len(),
        report.runs_per_cell,
        report.image_mismatches()
    );
    match args.inject {
        // A deliberately broken recovery path must be caught by the
        // serial-oracle image check (exit code inverts, as for fuzz/model).
        Some(k) => {
            if report.ok() {
                println!("injected bug '{}' was NOT caught by the campaign", k.name());
                ExitCode::FAILURE
            } else {
                println!("injected bug '{}' caught by the image check", k.name());
                ExitCode::SUCCESS
            }
        }
        None => {
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Prints the ranked self-time table to stderr and, if asked, writes the
/// host-span Chrome timeline. Runs after the command so the deterministic
/// stdout output is complete before any profile text appears.
fn finish_profile(args: &Args) {
    let report = specrt_prof::take_report();
    specrt_prof::set_enabled(false);
    eprint!("{}", report.render_table(20));
    if let Some(path) = &args.profile_out {
        let doc = specrt_trace::export::chrome_host_trace(&report);
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!("host timeline written to {path} (Chrome trace_events)"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args()) {
        Ok((cmd, args)) => {
            if args.profile {
                specrt_prof::set_enabled(true);
            }
            let code = match cmd.as_str() {
                "fuzz" => cmd_fuzz(&args),
                "replay" => cmd_replay(&args),
                "model" => cmd_model(&args),
                "coverage" => cmd_coverage(&args),
                "campaign" => cmd_campaign(&args),
                other => {
                    eprintln!("unknown command: {other}\n{}", usage());
                    ExitCode::FAILURE
                }
            };
            if args.profile {
                finish_profile(&args);
            }
            code
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
