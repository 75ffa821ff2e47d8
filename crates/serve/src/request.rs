//! Wire-request parsing: one JSON object per line in, one simulation (or
//! admin action) out.
//!
//! A request names **what to simulate** — either an explicit [`CaseSpec`]
//! (or generator seed), or one of the four paper workloads — plus the
//! machine configuration and protocol variant, and **how to schedule it**
//! (the [`Lane`]). Parsing is strict: unknown operations, protocols,
//! scales, and configuration keys are errors, never silently ignored —
//! a typo'd override that fell through would hash to the *base*
//! configuration's canonical key and poison the result cache with a
//! mislabelled entry.
//!
//! The canonical cache key is computed here too, because only the parser
//! sees the fully-resolved request (workload processor counts applied,
//! overrides folded in): [`SimJob::key`] covers the case content or
//! workload identity, the complete [`MachineConfig`], and the
//! protocol/scenario label via [`specrt_check::canonical_key`] /
//! [`CanonHasher`].

use specrt_check::{canonical_key, case_from_json, CanonHasher, CaseSpec, Json};
use specrt_machine::{
    CheckpointConfig, LoopSpec, MachineConfig, RecoveryPolicy, Scenario, SwVariant,
};
use specrt_par::Lane;
use specrt_proto::{NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::SpecVariant;
use specrt_workloads::{all_workloads, Scale};

/// Protocol variant of a `case` request. Labels are the wire strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Uniprocessor baseline (no test).
    Serial,
    /// Doall without tests (upper bound).
    Ideal,
    /// Hardware non-privatization protocol.
    HwNonPriv,
    /// Hardware privatization with read-in + copy-out.
    HwPriv,
    /// Hardware no-read-in/no-copy-out privatization (Fig. 5-b).
    HwPriv3,
    /// Software LRPD baseline (iteration-wise).
    SwLrpd,
    /// Full differential check across all of the above.
    Check,
}

impl Protocol {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Serial => "serial",
            Protocol::Ideal => "ideal",
            Protocol::HwNonPriv => "hw-nonpriv",
            Protocol::HwPriv => "hw-priv",
            Protocol::HwPriv3 => "hw-priv3",
            Protocol::SwLrpd => "sw-lrpd",
            Protocol::Check => "check",
        }
    }

    /// Parses [`Protocol::label`] back.
    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "serial" => Some(Protocol::Serial),
            "ideal" => Some(Protocol::Ideal),
            "hw-nonpriv" => Some(Protocol::HwNonPriv),
            "hw-priv" => Some(Protocol::HwPriv),
            "hw-priv3" => Some(Protocol::HwPriv3),
            "sw-lrpd" => Some(Protocol::SwLrpd),
            "check" => Some(Protocol::Check),
            _ => None,
        }
    }

    /// The `(protocol variant, live, scenario)` triple a single-scenario run
    /// uses ([`Protocol::Check`] runs every scenario and has no single
    /// triple).
    pub fn run_plan(self) -> Option<(SpecVariant, bool, Scenario)> {
        match self {
            Protocol::Serial => Some((SpecVariant::NonPriv, true, Scenario::Serial)),
            Protocol::Ideal => Some((SpecVariant::NonPriv, true, Scenario::Ideal)),
            Protocol::HwNonPriv => Some((SpecVariant::NonPriv, true, Scenario::Hw)),
            Protocol::HwPriv => Some((SpecVariant::Priv, true, Scenario::Hw)),
            Protocol::HwPriv3 => Some((SpecVariant::Priv3, false, Scenario::Hw)),
            Protocol::SwLrpd => Some((
                SpecVariant::Priv,
                true,
                Scenario::Sw(SwVariant::IterationWise),
            )),
            Protocol::Check => None,
        }
    }
}

/// The simulation a request resolved to (everything the worker needs).
#[derive(Debug)]
pub enum Work {
    /// Run one generated/explicit case under one protocol.
    Case {
        /// The case to run.
        case: CaseSpec,
        /// Protocol variant.
        protocol: Protocol,
        /// Fully-resolved machine configuration.
        cfg: MachineConfig,
    },
    /// Run one invocation of a named workload under one scenario.
    Workload {
        /// Workload name (diagnostics only; the key is already computed).
        name: String,
        /// The resolved loop to run.
        spec: LoopSpec,
        /// Scenario to run it under.
        scenario: Scenario,
        /// Wire label of the scenario (`"hw"`, `"sw"`, …).
        scenario_label: String,
        /// Fully-resolved machine configuration.
        cfg: MachineConfig,
    },
}

/// A parsed simulation job: canonical cache key plus the work itself.
#[derive(Debug)]
pub struct SimJob {
    /// Canonical content hash of the request (cache key).
    pub key: u64,
    /// What to run.
    pub work: Work,
}

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// A simulation (cacheable, runs on the pool).
    Sim {
        /// Scheduling lane.
        lane: Lane,
        /// The job.
        job: Box<SimJob>,
    },
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the service after answering.
    Shutdown,
}

/// `(echoed id, parsed request)`: the `id` field, rendered back verbatim,
/// is spliced into the response so clients can pipeline.
#[derive(Debug)]
pub struct Parsed {
    /// Rendered `id` field, if the request carried one.
    pub id: Option<String>,
    /// The request.
    pub request: Request,
}

/// Extracts just the rendered `id` of a request line, if the line parses
/// far enough to have one (used to label error responses).
pub fn extract_id(line: &str) -> Option<String> {
    let v = Json::parse(line).ok()?;
    id_of(&v)
}

fn id_of(v: &Json) -> Option<String> {
    v.get("id").map(|id| id.render())
}

/// Parses one request line. Errors are human-readable strings that become
/// the `error` field of the response.
pub fn parse_request(line: &str) -> Result<Parsed, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let id = id_of(&v);
    let op = match v.get("op") {
        Some(op) => op
            .as_str()
            .ok_or_else(|| "\"op\" must be a string".to_string())?,
        None => "case",
    };
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "case" => parse_case(&v)?,
        "workload" => parse_workload(&v)?,
        other => {
            return Err(format!(
                "unknown op {other:?} (expected case|workload|stats|ping|shutdown)"
            ))
        }
    };
    Ok(Parsed { id, request })
}

fn parse_lane(v: &Json) -> Result<Lane, String> {
    match v.get("lane") {
        None => Ok(Lane::Interactive),
        Some(l) => {
            let s = l
                .as_str()
                .ok_or_else(|| "\"lane\" must be a string".to_string())?;
            Lane::parse(s).ok_or_else(|| format!("unknown lane {s:?} (interactive|batch)"))
        }
    }
}

fn parse_case(v: &Json) -> Result<Request, String> {
    let lane = parse_lane(v)?;
    let case = match (v.get("case"), v.get("seed")) {
        (Some(c), None) => case_from_json(c)?,
        (None, Some(s)) => {
            let seed = s
                .as_u64()
                .ok_or_else(|| "\"seed\" must be an unsigned integer".to_string())?;
            CaseSpec::generate(seed)
        }
        (Some(_), Some(_)) => return Err("give either \"case\" or \"seed\", not both".to_string()),
        (None, None) => return Err("a case request needs \"case\" or \"seed\"".to_string()),
    };
    let protocol = match v.get("protocol") {
        None => Protocol::HwNonPriv,
        Some(p) => {
            let s = p
                .as_str()
                .ok_or_else(|| "\"protocol\" must be a string".to_string())?;
            Protocol::parse(s).ok_or_else(|| {
                format!(
                    "unknown protocol {s:?} \
                     (serial|ideal|hw-nonpriv|hw-priv|hw-priv3|sw-lrpd|check)"
                )
            })?
        }
    };
    let mut cfg = MachineConfig::with_procs(case.procs);
    if let Some(o) = v.get("config") {
        if protocol == Protocol::Check {
            // `check` runs its scenarios on the default machine; accepting
            // overrides here would cache results under keys the run never
            // honoured.
            return Err("\"config\" overrides are not supported with protocol \"check\"".into());
        }
        apply_overrides(&mut cfg, o)?;
        // The machine's processor count is the case's; an override would
        // desynchronize the schedule from the spec.
        if cfg.mem.procs != case.procs {
            return Err("\"procs\" is fixed by the case; omit it from \"config\"".into());
        }
    }
    let key = canonical_key(&case, &cfg, protocol.label());
    Ok(Request::Sim {
        lane,
        job: Box::new(SimJob {
            key,
            work: Work::Case {
                case,
                protocol,
                cfg,
            },
        }),
    })
}

fn parse_scale(v: &Json) -> Result<(Scale, &'static str), String> {
    match v.get("scale") {
        None => Ok((Scale::Smoke, "smoke")),
        Some(s) => match s.as_str() {
            Some("smoke") => Ok((Scale::Smoke, "smoke")),
            Some("bench") => Ok((Scale::Bench, "bench")),
            Some("full") => Ok((Scale::Full, "full")),
            _ => Err("unknown scale (smoke|bench|full)".to_string()),
        },
    }
}

fn parse_workload(v: &Json) -> Result<Request, String> {
    let lane = parse_lane(v)?;
    let name = v
        .get("name")
        .and_then(|n| n.as_str())
        .ok_or_else(|| "a workload request needs a string \"name\"".to_string())?
        .to_string();
    let (scale, scale_label) = parse_scale(v)?;
    let failure = match v.get("failure") {
        None => false,
        Some(f) => f
            .as_bool()
            .ok_or_else(|| "\"failure\" must be a boolean".to_string())?,
    };
    let invocation = match v.get("invocation") {
        None => 0,
        Some(i) => i
            .as_u64()
            .ok_or_else(|| "\"invocation\" must be an unsigned integer".to_string())?,
    };
    if failure && v.get("invocation").is_some() {
        return Err("give either \"invocation\" or \"failure\":true, not both".to_string());
    }
    let scenario_label = v
        .get("scenario")
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "\"scenario\" must be a string".to_string())
        })
        .transpose()?
        .unwrap_or_else(|| "hw".to_string());

    let mut workloads = all_workloads(scale);
    let idx = workloads
        .iter()
        .position(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (ocean|p3m|adm|track)"))?;
    let w = workloads.swap_remove(idx);

    let scenario = match scenario_label.as_str() {
        "serial" => Scenario::Serial,
        "ideal" => Scenario::Ideal,
        "sw" => Scenario::Sw(w.sw_variant),
        "hw" => Scenario::Hw,
        other => return Err(format!("unknown scenario {other:?} (serial|ideal|sw|hw)")),
    };

    let spec = if failure {
        w.failure_instance
    } else {
        let n = w.invocations.len() as u64;
        w.invocations
            .into_iter()
            .nth(invocation as usize)
            .ok_or_else(|| format!("invocation {invocation} out of range (workload has {n})"))?
    };

    let mut cfg = MachineConfig::with_procs(w.procs);
    if let Some(o) = v.get("config") {
        apply_overrides(&mut cfg, o)?;
    }

    let mut h = CanonHasher::new();
    h.write_str("workload");
    h.write_str(&name);
    h.write_str(scale_label);
    h.write_bool(failure);
    h.write_u64(invocation);
    h.write_str(&scenario_label);
    specrt_check::hash_machine_config_into(&mut h, &cfg);
    let key = h.finish();

    Ok(Request::Sim {
        lane,
        job: Box::new(SimJob {
            key,
            work: Work::Workload {
                name,
                spec,
                scenario,
                scenario_label,
                cfg,
            },
        }),
    })
}

fn override_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("config.{key} must be an unsigned integer"))
}

fn override_usize(v: &Json, key: &str) -> Result<usize, String> {
    let n = override_u64(v, key)?;
    usize::try_from(n).map_err(|_| format!("config.{key}={n} out of range"))
}

fn override_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("config.{key} must be a boolean"))
}

fn override_ppm(v: &Json, key: &str) -> Result<u32, String> {
    let n = override_u64(v, key)?;
    u32::try_from(n)
        .map_err(|_| format!("config.{key}={n} out of range (accepted range: 0..=1_000_000 ppm)"))
}

/// A `u32` override at most `max`, rejected (never truncated) above it.
fn override_at_most(v: &Json, key: &str, max: u32) -> Result<u32, String> {
    let n = override_u64(v, key)?;
    u32::try_from(n)
        .ok()
        .filter(|&n| n <= max)
        .ok_or_else(|| format!("config.{key}={n} out of range (accepted range: 0..={max})"))
}

/// Applies a flat `"config"` override object onto a [`MachineConfig`].
///
/// Keys mirror the configuration fields (latencies by their
/// `LatencyConfig` names); unknown keys are errors. `"topology":"mesh"`
/// installs [`NetConfig::mesh`] for the *current* processor count, so a
/// `procs` override must precede it in effect — `procs` is therefore
/// applied first regardless of field order.
///
/// Fault-plane keys (`fault_seed`, `drop_ppm`, `dup_ppm`, `delay_ppm`,
/// `delay_cycles`) set message-level faults; rates are validated against
/// the accepted `0..=1_000_000` ppm range. A node-level fault is assembled
/// from `node_fault_kind` (`crash`/`pause`/`partition`), `node_fault_node`,
/// optional `node_fault_at_cycle` (default 0) and — for pause/partition —
/// `node_fault_for_cycles`. `checkpoint_every` selects
/// [`RecoveryPolicy::CheckpointRestart`] with that snapshot cadence.
///
/// The result must pass [`MachineConfig::validate`]: zero, oversized or
/// non-inclusive cache and bank geometry (`l1_lines`, `l2_lines`,
/// `dir_banks`), a zero `write_buffer` or `checkpoint_every`, retry
/// budgets above their bounds (`retry_speculative`, `retry_max_retries`),
/// and a latency, overhead, delay or watchdog timeout above 2^32 cycles
/// are errors, never clamped or truncated.
pub fn apply_overrides(cfg: &mut MachineConfig, overrides: &Json) -> Result<(), String> {
    let fields = match overrides {
        Json::Obj(fields) => fields,
        _ => return Err("\"config\" must be an object".to_string()),
    };
    // Two passes: processor count first (mesh sizing depends on it).
    if let Some(p) = overrides.get("procs") {
        let p = override_u64(p, "procs")?;
        if p == 0 || p > 64 {
            return Err("config.procs must be in 1..=64".to_string());
        }
        cfg.mem.procs = p as u32;
    }
    // Node-fault parts are assembled after the loop (the shape needs
    // several keys at once).
    let mut nf_kind: Option<&str> = None;
    let mut nf_node: Option<u64> = None;
    let mut nf_at: Option<u64> = None;
    let mut nf_for: Option<u64> = None;
    for (k, val) in fields {
        match k.as_str() {
            "procs" => {} // first pass
            "l1_lines" => cfg.mem.cache.l1_lines = override_usize(val, k)?,
            "l2_lines" => cfg.mem.cache.l2_lines = override_usize(val, k)?,
            "l1_hit" => cfg.mem.latency.l1_hit = override_u64(val, k)?,
            "l2_hit" => cfg.mem.latency.l2_hit = override_u64(val, k)?,
            "local_mem" => cfg.mem.latency.local_mem = override_u64(val, k)?,
            "remote_2hop" => cfg.mem.latency.remote_2hop = override_u64(val, k)?,
            "remote_3hop" => cfg.mem.latency.remote_3hop = override_u64(val, k)?,
            "owner_fetch_extra" => cfg.mem.latency.owner_fetch_extra = override_u64(val, k)?,
            "invalidate_extra" => cfg.mem.latency.invalidate_extra = override_u64(val, k)?,
            "net_oneway" => cfg.mem.latency.net_oneway = override_u64(val, k)?,
            "mem_service" => cfg.mem.latency.mem_service = override_u64(val, k)?,
            "update_service" => cfg.mem.latency.update_service = override_u64(val, k)?,
            "dir_banks" => cfg.mem.dir_banks = override_usize(val, k)?,
            "topology" => match val.as_str() {
                Some("flat") => cfg.mem.net = NetConfig::flat(),
                Some("mesh") => cfg.mem.net = NetConfig::mesh(cfg.mem.procs),
                _ => return Err("config.topology must be \"flat\" or \"mesh\"".to_string()),
            },
            "hop_latency" => cfg.mem.net.hop_latency = override_u64(val, k)?,
            "link_service" => cfg.mem.net.link_service = override_u64(val, k)?,
            "dirty_read_downgrades" => cfg.mem.dirty_read_downgrades = override_bool(val, k)?,
            "retry_timeout" => cfg.mem.retry.timeout = override_u64(val, k)?,
            "retry_max_retries" => {
                cfg.mem.retry.max_retries =
                    override_at_most(val, k, MachineConfig::MAX_RETRANSMISSIONS)?
            }
            "write_buffer" => cfg.write_buffer = override_usize(val, k)?,
            "barrier_overhead" => cfg.barrier_overhead = override_u64(val, k)?,
            "sched_static_overhead" => cfg.sched_static_overhead = override_u64(val, k)?,
            "sched_lock_hold" => cfg.sched_lock_hold = override_u64(val, k)?,
            "abort_latency" => cfg.abort_latency = override_u64(val, k)?,
            "iter_reset_cost" => cfg.iter_reset_cost = override_u64(val, k)?,
            "detailed_barrier" => cfg.detailed_barrier = override_bool(val, k)?,
            "retry_speculative" => {
                let n = override_at_most(val, k, MachineConfig::MAX_RETRY_ATTEMPTS)?;
                cfg.recovery = if n == 0 {
                    RecoveryPolicy::SerialReexec
                } else {
                    RecoveryPolicy::RetrySpeculative { max_attempts: n }
                };
            }
            "checkpoint_every" => {
                cfg.recovery = RecoveryPolicy::CheckpointRestart {
                    checkpoint: CheckpointConfig {
                        every_iters: override_u64(val, k)?,
                    },
                };
            }
            "fault_seed" => cfg.mem.net.faults.seed = override_u64(val, k)?,
            "drop_ppm" => cfg.mem.net.faults.drop_ppm = override_ppm(val, k)?,
            "dup_ppm" => cfg.mem.net.faults.dup_ppm = override_ppm(val, k)?,
            "delay_ppm" => cfg.mem.net.faults.delay_ppm = override_ppm(val, k)?,
            "delay_cycles" => cfg.mem.net.faults.delay_cycles = override_u64(val, k)?,
            "node_fault_kind" => {
                nf_kind = Some(val.as_str().ok_or_else(|| {
                    "config.node_fault_kind must be \"crash\", \"pause\" or \"partition\""
                        .to_string()
                })?)
            }
            "node_fault_node" => nf_node = Some(override_u64(val, k)?),
            "node_fault_at_cycle" => nf_at = Some(override_u64(val, k)?),
            "node_fault_for_cycles" => nf_for = Some(override_u64(val, k)?),
            other => return Err(format!("unknown config key {other:?}")),
        }
    }
    if nf_kind.is_some() || nf_node.is_some() || nf_at.is_some() || nf_for.is_some() {
        let kind = nf_kind.ok_or_else(|| {
            "config.node_fault_kind is required to configure a node fault".to_string()
        })?;
        let node = nf_node.ok_or_else(|| {
            "config.node_fault_node is required to configure a node fault".to_string()
        })?;
        if node >= u64::from(cfg.mem.procs) {
            return Err(format!(
                "config.node_fault_node={node} out of range (machine has {} nodes)",
                cfg.mem.procs
            ));
        }
        let kind = match kind {
            "crash" => {
                if nf_for.is_some() {
                    return Err(
                        "config.node_fault_for_cycles does not apply to \"crash\"".to_string()
                    );
                }
                NodeFaultKind::Crash
            }
            "pause" => NodeFaultKind::Pause {
                for_cycles: nf_for.ok_or_else(|| {
                    "config.node_fault_for_cycles is required for \"pause\"".to_string()
                })?,
            },
            "partition" => NodeFaultKind::Partition {
                for_cycles: nf_for.ok_or_else(|| {
                    "config.node_fault_for_cycles is required for \"partition\"".to_string()
                })?,
            },
            other => {
                return Err(format!(
                    "unknown node_fault_kind {other:?} (crash|pause|partition)"
                ))
            }
        };
        cfg.mem.net.faults.node_fault = Some(NodeFaultConfig {
            kind,
            node: node as u32,
            at_cycle: nf_at.unwrap_or(0),
        });
    }
    // Reject what the machine would panic on or fail to allocate (cache
    // and bank geometry, fault rates), with the accepted range in the
    // message.
    cfg.validate().map_err(|e| format!("config: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_labels_round_trip() {
        for p in [
            Protocol::Serial,
            Protocol::Ideal,
            Protocol::HwNonPriv,
            Protocol::HwPriv,
            Protocol::HwPriv3,
            Protocol::SwLrpd,
            Protocol::Check,
        ] {
            assert_eq!(Protocol::parse(p.label()), Some(p));
        }
        assert_eq!(Protocol::parse("hw"), None);
    }

    #[test]
    fn seed_request_defaults() {
        let p = parse_request(r#"{"id":7,"op":"case","seed":3}"#).unwrap();
        assert_eq!(p.id.as_deref(), Some("7"));
        match p.request {
            Request::Sim { lane, job } => {
                assert_eq!(lane, Lane::Interactive);
                match job.work {
                    Work::Case { protocol, .. } => assert_eq!(protocol, Protocol::HwNonPriv),
                    other => panic!("unexpected work {other:?}"),
                }
            }
            _ => panic!("expected a sim request"),
        }
    }

    #[test]
    fn key_is_insensitive_to_field_order_but_not_config() {
        let a = parse_request(r#"{"op":"case","seed":9,"protocol":"hw-priv","lane":"batch"}"#);
        let b = parse_request(r#"{"protocol":"hw-priv","seed":9,"lane":"batch","op":"case"}"#);
        let key = |p: Result<Parsed, String>| match p.unwrap().request {
            Request::Sim { job, .. } => job.key,
            _ => panic!("sim expected"),
        };
        let (ka, kb) = (key(a), key(b));
        assert_eq!(ka, kb);
        let c = parse_request(
            r#"{"op":"case","seed":9,"protocol":"hw-priv","lane":"batch","config":{"l2_hit":13}}"#,
        );
        assert_ne!(ka, key(c));
    }

    #[test]
    fn unknown_config_keys_are_rejected() {
        let r = parse_request(r#"{"op":"case","seed":1,"config":{"l2_hits":9}}"#);
        assert!(r.unwrap_err().contains("unknown config key"));
    }

    #[test]
    fn check_refuses_overrides() {
        let r = parse_request(r#"{"op":"case","seed":1,"protocol":"check","config":{"l2_hit":9}}"#);
        assert!(r.unwrap_err().contains("not supported"));
    }

    #[test]
    fn workload_requests_resolve_processor_counts() {
        let p = parse_request(r#"{"op":"workload","name":"ocean","scenario":"hw"}"#).unwrap();
        match p.request {
            Request::Sim { job, .. } => match job.work {
                Work::Workload { cfg, .. } => assert_eq!(cfg.procs(), 8),
                other => panic!("unexpected work {other:?}"),
            },
            _ => panic!("sim expected"),
        }
    }

    fn sim_key(line: &str) -> u64 {
        match parse_request(line).unwrap().request {
            Request::Sim { job, .. } => job.key,
            _ => panic!("sim expected"),
        }
    }

    #[test]
    fn fault_and_checkpoint_overrides_separate_cache_keys() {
        let base = sim_key(r#"{"op":"case","seed":3}"#);
        let dropped = sim_key(r#"{"op":"case","seed":3,"config":{"drop_ppm":50000}}"#);
        let crash = sim_key(
            r#"{"op":"case","seed":3,"config":{"node_fault_kind":"crash","node_fault_node":1,"node_fault_at_cycle":500}}"#,
        );
        let ckpt = sim_key(r#"{"op":"case","seed":3,"config":{"checkpoint_every":8}}"#);
        let keys = [base, dropped, crash, ckpt];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "override {i} aliases {j}");
            }
        }
    }

    #[test]
    fn node_fault_overrides_are_validated() {
        // Kind without node.
        let r = parse_request(r#"{"op":"case","seed":3,"config":{"node_fault_kind":"crash"}}"#);
        assert!(r.unwrap_err().contains("node_fault_node"));
        // Node out of range for the case's machine.
        let r = parse_request(
            r#"{"op":"case","seed":3,"config":{"node_fault_kind":"crash","node_fault_node":99}}"#,
        );
        assert!(r.unwrap_err().contains("out of range"));
        // Pause without a duration.
        let r = parse_request(
            r#"{"op":"case","seed":3,"config":{"node_fault_kind":"pause","node_fault_node":1}}"#,
        );
        assert!(r.unwrap_err().contains("node_fault_for_cycles"));
        // Unknown kind.
        let r = parse_request(
            r#"{"op":"case","seed":3,"config":{"node_fault_kind":"melt","node_fault_node":1}}"#,
        );
        assert!(r.unwrap_err().contains("crash|pause|partition"));
    }

    #[test]
    fn fault_rates_are_range_checked() {
        let r = parse_request(r#"{"op":"case","seed":3,"config":{"drop_ppm":2000000}}"#);
        assert!(r.unwrap_err().contains("0..=1_000_000"));
        // Rates summing past 100% are rejected by the combined check.
        let r = parse_request(
            r#"{"op":"case","seed":3,"config":{"drop_ppm":600000,"dup_ppm":600000}}"#,
        );
        assert!(r.unwrap_err().contains("1_000_000"));
    }

    #[test]
    fn workload_failure_and_invocation_are_distinct_keys() {
        let key = |line: &str| match parse_request(line).unwrap().request {
            Request::Sim { job, .. } => job.key,
            _ => panic!("sim expected"),
        };
        let inv0 = key(r#"{"op":"workload","name":"track","invocation":0}"#);
        let inv1 = key(r#"{"op":"workload","name":"track","invocation":1}"#);
        let fail = key(r#"{"op":"workload","name":"track","failure":true}"#);
        assert_ne!(inv0, inv1);
        assert_ne!(inv0, fail);
        assert_ne!(inv1, fail);
    }
}
