//! Canonical (de)serialization and content hashing for simulation requests.
//!
//! The serving layer (`specrt-serve`) memoizes completed simulations in a
//! result cache keyed by a **canonical `u64` content hash** of everything
//! that determines the result: the [`CaseSpec`] (or workload reference),
//! the full [`MachineConfig`], and the protocol variant. Two requests that
//! are semantically identical — however their specs were built, whatever
//! order their JSON fields arrived in — must collide on the same key, and
//! any *field* difference anywhere in the configuration must produce a
//! different key (silent cache aliasing would serve wrong results). A
//! dedicated test perturbs every field one at a time to pin this down.
//!
//! Three pieces live here:
//!
//! * [`Json`] — a tiny dependency-free JSON value (parser + writer). The
//!   repo already *writes* JSON in several exporters; the serving layer is
//!   the first thing that must also *read* it, so the value type lives in
//!   this crate where [`CaseSpec`] does.
//! * [`case_to_json`] / [`case_from_json`] — the explicit wire form of a
//!   [`CaseSpec`].
//! * [`CanonHasher`] + [`hash_case_into`] / [`hash_machine_config_into`] /
//!   [`canonical_key`] — the stable content hash. The mixing function is
//!   SplitMix64's finalizer (already the repo's deterministic RNG), chained
//!   over length-prefixed field streams with per-section domain tags; it is
//!   a *content* hash, not `std::hash::Hash` (whose output is explicitly
//!   unstable across releases and platforms).
//!
//! The [`CaseSpec::seed`] field is **provenance, not content**: a shrunk
//! witness (seed 0) and a hand-built spec with identical accesses must hit
//! the same cache line, so the hash covers `procs`/`elems`/`schedule`/`ops`
//! only. The seed still round-trips through the JSON form for replay.

use specrt_machine::{MachineConfig, RecoveryPolicy, ScheduleKind};
use specrt_proto::{NodeFaultKind, Topology};

use crate::generate::{CaseSpec, Op};

// ----------------------------------------------------------------------
// JSON value
// ----------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers keep their raw text (`Json::Num`) so 64-bit integers survive
/// exactly (an `f64` detour would corrupt seeds above 2^53); object fields
/// keep arrival order, and lookups are linear — requests are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in arrival order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    /// Field `key` of an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace). Field order is
    /// preserved, so a value built deterministically renders
    /// deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience constructor for an unsigned integer number.
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

/// Writes `s` as a JSON string literal (quotes, escapes).
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            if text.parse::<f64>().is_err() {
                return Err(format!("bad number `{text}` at byte {start}"));
            }
            Ok(Json::Num(text.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one whole UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

// ----------------------------------------------------------------------
// CaseSpec wire form
// ----------------------------------------------------------------------

/// Serializes a [`CaseSpec`] to its JSON wire form:
///
/// ```json
/// {"seed":"8","procs":2,"elems":4,"schedule":{"kind":"static"},
///  "ops":[[{"r":0},{"w":1}],[]]}
/// ```
///
/// The seed is a *string* so values above 2^53 survive lenient readers.
pub fn case_to_json(case: &CaseSpec) -> Json {
    let schedule = match case.schedule {
        ScheduleKind::Static => Json::Obj(vec![("kind".into(), Json::str("static"))]),
        ScheduleKind::BlockCyclic { block } => Json::Obj(vec![
            ("kind".into(), Json::str("block_cyclic")),
            ("block".into(), Json::num_u64(block)),
        ]),
        ScheduleKind::Dynamic { block } => Json::Obj(vec![
            ("kind".into(), Json::str("dynamic")),
            ("block".into(), Json::num_u64(block)),
        ]),
    };
    let ops = Json::Arr(
        case.ops
            .iter()
            .map(|iter_ops| {
                Json::Arr(
                    iter_ops
                        .iter()
                        .map(|op| match op {
                            Op::Read(e) => Json::Obj(vec![("r".into(), Json::num_u64(*e))]),
                            Op::Write(e) => Json::Obj(vec![("w".into(), Json::num_u64(*e))]),
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("seed".into(), Json::str(case.seed.to_string())),
        ("procs".into(), Json::num_u64(case.procs as u64)),
        ("elems".into(), Json::num_u64(case.elems)),
        ("schedule".into(), schedule),
        ("ops".into(), ops),
    ])
}

/// Parses the [`case_to_json`] wire form back into a [`CaseSpec`],
/// validating processor/element bounds so a malformed request cannot panic
/// the simulator. A missing `seed` defaults to 0 (hand-built spec).
pub fn case_from_json(v: &Json) -> Result<CaseSpec, String> {
    let seed = match v.get("seed") {
        None => 0,
        Some(Json::Str(s)) => s.parse().map_err(|_| format!("bad seed `{s}`"))?,
        Some(n) => n.as_u64().ok_or("bad seed")?,
    };
    let procs = v
        .get("procs")
        .and_then(Json::as_u64)
        .ok_or("case needs `procs`")?;
    if !(1..=64).contains(&procs) {
        return Err(format!("procs {procs} out of range 1..=64"));
    }
    let elems = v
        .get("elems")
        .and_then(Json::as_u64)
        .ok_or("case needs `elems`")?;
    if !(1..=1 << 20).contains(&elems) {
        return Err(format!("elems {elems} out of range 1..=2^20"));
    }
    let schedule = match v.get("schedule") {
        None => ScheduleKind::Static,
        Some(s) => {
            let kind = s
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("schedule.kind")?;
            let block = || {
                s.get("block")
                    .and_then(Json::as_u64)
                    .filter(|&b| b >= 1)
                    .ok_or("schedule.block must be >= 1")
            };
            match kind {
                "static" => ScheduleKind::Static,
                "block_cyclic" => ScheduleKind::BlockCyclic { block: block()? },
                "dynamic" => ScheduleKind::Dynamic { block: block()? },
                other => return Err(format!("unknown schedule kind `{other}`")),
            }
        }
    };
    let mut ops = Vec::new();
    for (i, iter_ops) in v
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("case needs `ops`")?
        .iter()
        .enumerate()
    {
        let mut parsed = Vec::new();
        for op in iter_ops.as_array().ok_or("ops rows must be arrays")? {
            let (read, e) = if let Some(e) = op.get("r").and_then(Json::as_u64) {
                (true, e)
            } else if let Some(e) = op.get("w").and_then(Json::as_u64) {
                (false, e)
            } else {
                return Err(format!("iter {i}: each op is {{\"r\":e}} or {{\"w\":e}}"));
            };
            if e >= elems {
                return Err(format!(
                    "iter {i}: element {e} out of bounds (elems={elems})"
                ));
            }
            parsed.push(if read { Op::Read(e) } else { Op::Write(e) });
        }
        ops.push(parsed);
    }
    if ops.len() > 4096 {
        return Err(format!(
            "{} iterations exceed the request cap (4096)",
            ops.len()
        ));
    }
    Ok(CaseSpec {
        seed,
        procs: procs as u32,
        elems,
        schedule,
        ops,
    })
}

// ----------------------------------------------------------------------
// Canonical hashing
// ----------------------------------------------------------------------

/// A stable streaming content hasher.
///
/// Chained SplitMix64 finalization: each written word mixes into the
/// running state through the same avalanche function the repo's RNG uses.
/// Stable across platforms and releases by construction (unlike
/// `std::hash::Hash`), and documented here as **hash format v1** — bump
/// [`CANON_VERSION`] if the field order or mixing ever changes, so stale
/// cache keys can never alias fresh ones.
#[derive(Debug, Clone)]
pub struct CanonHasher {
    state: u64,
}

/// Version tag folded into every [`canonical_key`]; bump on any change to
/// the hashed field set, order, or mixing function.
pub const CANON_VERSION: u64 = 1;

fn mix(state: u64, v: u64) -> u64 {
    let mut z = state ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for CanonHasher {
    fn default() -> Self {
        CanonHasher::new()
    }
}

impl CanonHasher {
    /// Creates a hasher seeded with the format version.
    pub fn new() -> Self {
        CanonHasher {
            state: mix(0x5bec_817e_ca40_0a11, CANON_VERSION),
        }
    }

    /// Mixes in one 64-bit word.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.state = mix(self.state, v);
        self
    }

    /// Mixes in a bool (as 0/1 with a domain offset so `false` differs from
    /// an absent field).
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_u64(0x0b00_0000 | v as u64)
    }

    /// Mixes in a string: length prefix, then bytes in 8-byte words.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
        self
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        // One extra avalanche so short inputs still fill all 64 bits.
        mix(self.state, 0xF1A1)
    }
}

/// Hashes the semantic content of a [`CaseSpec`] (everything but the seed —
/// see the module docs for why provenance stays out of the key).
pub fn hash_case_into(h: &mut CanonHasher, case: &CaseSpec) {
    h.write_str("case");
    h.write_u64(case.procs as u64);
    h.write_u64(case.elems);
    match case.schedule {
        ScheduleKind::Static => {
            h.write_u64(0);
        }
        ScheduleKind::BlockCyclic { block } => {
            h.write_u64(1);
            h.write_u64(block);
        }
        ScheduleKind::Dynamic { block } => {
            h.write_u64(2);
            h.write_u64(block);
        }
    }
    h.write_u64(case.ops.len() as u64);
    for iter_ops in &case.ops {
        h.write_u64(iter_ops.len() as u64);
        for op in iter_ops {
            match op {
                Op::Read(e) => {
                    h.write_u64(0x0e_ad);
                    h.write_u64(*e);
                }
                Op::Write(e) => {
                    h.write_u64(0x11_17_e0);
                    h.write_u64(*e);
                }
            }
        }
    }
}

/// Hashes every result-relevant field of a [`MachineConfig`], nested configs
/// included. Ordered exactly as the structs declare their fields; the
/// per-field perturbation test in `tests/canon.rs` fails if a new field is
/// added without extending this function.
pub fn hash_machine_config_into(h: &mut CanonHasher, cfg: &MachineConfig) {
    h.write_str("mem");
    h.write_u64(cfg.mem.procs as u64);
    h.write_u64(cfg.mem.cache.l1_lines as u64);
    h.write_u64(cfg.mem.cache.l2_lines as u64);
    let lat = &cfg.mem.latency;
    for v in [
        lat.l1_hit,
        lat.l2_hit,
        lat.local_mem,
        lat.remote_2hop,
        lat.remote_3hop,
        lat.owner_fetch_extra,
        lat.invalidate_extra,
        lat.net_oneway,
        lat.mem_service,
        lat.update_service,
    ] {
        h.write_u64(v);
    }
    h.write_u64(cfg.mem.dir_banks as u64);
    match cfg.mem.net.topology {
        Topology::Flat => {
            h.write_u64(0);
        }
        Topology::Mesh2D { cols, rows } => {
            h.write_u64(1);
            h.write_u64(cols as u64);
            h.write_u64(rows as u64);
        }
    }
    h.write_u64(cfg.mem.net.hop_latency);
    h.write_u64(cfg.mem.net.link_service);
    let f = &cfg.mem.net.faults;
    h.write_u64(f.seed);
    h.write_u64(f.drop_ppm as u64);
    h.write_u64(f.dup_ppm as u64);
    h.write_u64(f.delay_ppm as u64);
    h.write_u64(f.delay_cycles);
    match f.node_fault {
        None => {
            h.write_u64(0);
        }
        Some(nf) => {
            h.write_u64(1);
            match nf.kind {
                NodeFaultKind::Crash => {
                    h.write_u64(0);
                }
                NodeFaultKind::Pause { for_cycles } => {
                    h.write_u64(1);
                    h.write_u64(for_cycles);
                }
                NodeFaultKind::Partition { for_cycles } => {
                    h.write_u64(2);
                    h.write_u64(for_cycles);
                }
            }
            h.write_u64(nf.node as u64);
            h.write_u64(nf.at_cycle);
        }
    }
    h.write_bool(cfg.mem.dirty_read_downgrades);
    h.write_u64(cfg.mem.retry.timeout);
    h.write_u64(cfg.mem.retry.max_retries as u64);

    h.write_str("machine");
    h.write_u64(cfg.write_buffer as u64);
    h.write_u64(cfg.barrier_overhead);
    h.write_u64(cfg.sched_static_overhead);
    h.write_u64(cfg.sched_lock_hold);
    h.write_u64(cfg.abort_latency);
    h.write_u64(cfg.iter_reset_cost);
    h.write_bool(cfg.detailed_barrier);
    h.write_u64(cfg.trace_capacity as u64);
    h.write_bool(cfg.trace_net);
    match cfg.recovery {
        RecoveryPolicy::SerialReexec => {
            h.write_u64(0);
        }
        RecoveryPolicy::RetrySpeculative { max_attempts } => {
            h.write_u64(1);
            h.write_u64(max_attempts as u64);
        }
        RecoveryPolicy::CheckpointRestart { checkpoint } => {
            h.write_u64(2);
            h.write_u64(checkpoint.every_iters);
        }
    }
}

/// Hashes a protocol-variant label (the serving layer's `protocol` request
/// field, e.g. `"hw-nonpriv"`). A label, not the `SpecVariant` enum,
/// because one request protocol also selects live-value handling and the
/// checked image set in `run_case`.
pub fn hash_protocol_into(h: &mut CanonHasher, protocol: &str) {
    h.write_str("protocol");
    h.write_str(protocol);
}

/// The canonical cache key for one simulation request.
///
/// Covers the semantic case content, the complete machine configuration, and
/// the protocol variant; the [`CANON_VERSION`] tag is folded in by the
/// hasher's seed.
pub fn canonical_key(case: &CaseSpec, cfg: &MachineConfig, protocol: &str) -> u64 {
    let mut h = CanonHasher::new();
    hash_case_into(&mut h, case);
    hash_machine_config_into(&mut h, cfg);
    hash_protocol_into(&mut h, protocol);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_values() {
        let text = r#"{"a":1,"b":[true,false,null,"x\n\"y"],"c":{"d":-2.5e3},"seed":"18446744073709551615"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_str(), Some("x\n\"y"));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
        // u64::MAX survives the string detour exactly.
        assert_eq!(
            v.get("seed")
                .unwrap()
                .as_str()
                .unwrap()
                .parse::<u64>()
                .unwrap(),
            u64::MAX
        );
        // Render → parse is a fixpoint.
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\q\"", "nan"] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn case_json_round_trips() {
        for seed in [0, 1, 5, 7, 8, 0x5eed, 0xdead_beef] {
            let case = CaseSpec::generate(seed);
            let back = case_from_json(&case_to_json(&case)).unwrap();
            assert_eq!(case, back, "seed {seed}");
        }
    }

    #[test]
    fn case_from_json_validates_bounds() {
        let mut base = case_to_json(&CaseSpec::generate(0x5eed));
        assert!(case_from_json(&base).is_ok());
        if let Json::Obj(fields) = &mut base {
            for (k, v) in fields.iter_mut() {
                if k == "procs" {
                    *v = Json::num_u64(65);
                }
            }
        }
        assert!(case_from_json(&base).is_err());
        // An op indexing past `elems` is rejected, not simulated.
        let oob = Json::parse(r#"{"procs":2,"elems":4,"ops":[[{"r":4}]]}"#).unwrap();
        assert!(case_from_json(&oob).unwrap_err().contains("out of bounds"));
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Pin the v1 hash of a fixed input: this value must never change
        // without bumping CANON_VERSION (stale cache keys must not alias).
        let case = CaseSpec::generate(3);
        let key = canonical_key(&case, &MachineConfig::default(), "hw-nonpriv");
        let again = canonical_key(&case, &MachineConfig::default(), "hw-nonpriv");
        assert_eq!(key, again);
        assert_ne!(key, 0);
    }

    #[test]
    fn seed_is_provenance_not_content() {
        let a = CaseSpec::generate(0x5eed);
        let mut b = a.clone();
        b.seed = 0; // e.g. a shrunk witness re-entered by hand
        assert_eq!(
            canonical_key(&a, &MachineConfig::default(), "hw-priv"),
            canonical_key(&b, &MachineConfig::default(), "hw-priv"),
        );
    }

    #[test]
    fn protocol_label_separates_keys() {
        let case = CaseSpec::generate(9);
        let cfg = MachineConfig::default();
        let keys: Vec<u64> = ["hw-nonpriv", "hw-priv", "hw-priv3", "sw-lrpd", "serial"]
            .iter()
            .map(|p| canonical_key(&case, &cfg, p))
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn length_prefix_prevents_concat_aliasing() {
        let mut a = CanonHasher::new();
        a.write_str("ab").write_str("c");
        let mut b = CanonHasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
