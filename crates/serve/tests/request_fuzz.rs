//! Hostile-input fuzz for the wire parser: `parse_request` must be total.
//!
//! Seeded byte- and token-level mutations of a known-good request corpus
//! are thrown at the parser. Whatever arrives, the parser must never
//! panic; when it rejects a line, the rejection must flow into a
//! structured `{"ok":false}` response the client can read — a malformed
//! request may cost the sender an error, never the service a thread.

use std::io::Cursor;

use specrt_check::Json;
use specrt_engine::SplitMix64;
use specrt_serve::request::{extract_id, parse_request};
use specrt_serve::service::error_payload;
use specrt_serve::{serve_connection, ServeConfig, ServeCore};

/// Known-good request lines covering every op and the override surface
/// (message faults, node faults, checkpointing included).
const CORPUS: &[&str] = &[
    r#"{"id":7,"op":"case","seed":3}"#,
    r#"{"op":"case","seed":9,"protocol":"hw-priv","lane":"batch","config":{"l2_hit":13}}"#,
    r#"{"op":"case","case":{"procs":2,"elems":4,"ops":[[{"r":0},{"w":1}],[]]}}"#,
    r#"{"op":"case","seed":3,"config":{"drop_ppm":50000,"fault_seed":9,"retry_timeout":64}}"#,
    r#"{"op":"case","seed":3,"config":{"node_fault_kind":"pause","node_fault_node":1,"node_fault_for_cycles":5000,"checkpoint_every":8}}"#,
    r#"{"op":"workload","name":"ocean","scenario":"hw","scale":"smoke"}"#,
    r#"{"op":"workload","name":"track","failure":true,"id":"x"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"ping"}"#,
    r#"{"op":"shutdown","id":[1,2]}"#,
];

/// JSON-flavoured splice snippets: structure breakers, numeric edge
/// cases, and keywords the parser special-cases.
const SNIPPETS: &[&str] = &[
    "null",
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "1e999",
    "-5",
    "\"crash\"",
    "\"check\"",
    "18446744073709551616",
    "\\u0000",
    "0.5",
    "true",
    "\"op\":",
    "\"procs\":0",
    "\"seed\":-1",
];

/// Feeds one (possibly mangled) line to the parser; on rejection, renders
/// the structured error response and checks it is well-formed JSON with
/// `"ok":false`.
fn assert_total(line: &str) {
    if let Err(e) = parse_request(line) {
        assert!(!e.is_empty(), "empty error for {line:?}");
        let resp = error_payload(&extract_id(line), &e, false);
        let v = Json::parse(&resp)
            .unwrap_or_else(|p| panic!("error response is not valid JSON ({p}): {resp:?}"));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "error response must carry ok:false: {resp:?}"
        );
    }
}

#[test]
fn byte_mutations_never_panic_the_parser() {
    let mut rng = SplitMix64::new(0xf00d);
    for round in 0..2_000u64 {
        let base = CORPUS[(round % CORPUS.len() as u64) as usize];
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..=rng.below(3) {
            if bytes.is_empty() {
                break;
            }
            let pos = rng.below(bytes.len() as u64) as usize;
            match rng.below(4) {
                0 => bytes[pos] = rng.below(256) as u8,
                1 => bytes.insert(pos, rng.below(256) as u8),
                2 => {
                    bytes.remove(pos);
                }
                _ => bytes.truncate(pos),
            }
        }
        let line = String::from_utf8_lossy(&bytes);
        assert_total(&line);
    }
}

#[test]
fn token_splices_never_panic_the_parser() {
    let mut rng = SplitMix64::new(0x511ce);
    for round in 0..1_000u64 {
        let base = CORPUS[(round % CORPUS.len() as u64) as usize];
        let mut line = base.to_string();
        for _ in 0..=rng.below(2) {
            let snippet = SNIPPETS[rng.below(SNIPPETS.len() as u64) as usize];
            // Splice on a char boundary.
            let mut pos = rng.below(line.len() as u64 + 1) as usize;
            while !line.is_char_boundary(pos) {
                pos -= 1;
            }
            if rng.chance(0.3) {
                // Replace the rest instead of inserting.
                line.truncate(pos);
                line.push_str(snippet);
            } else {
                line.insert_str(pos, snippet);
            }
        }
        assert_total(&line);
    }
}

#[test]
fn degenerate_lines_are_rejected_not_panicked() {
    for line in [
        "",
        " ",
        "{}",
        "[]",
        "42",
        "\"op\"",
        "{\"op\":\"case\"}",
        "{\"op\":\"case\",\"seed\":3,\"case\":{}}",
        "{\"op\":\"case\",\"seed\":18446744073709551616}",
        "{\"op\":\"workload\"}",
        "{\"op\":\"workload\",\"name\":\"ocean\",\"invocation\":99999}",
        "{\"op\":\"case\",\"seed\":1,\"config\":{\"procs\":65}}",
        "{\"op\":\"case\",\"seed\":1,\"config\":{\"l1_lines\":0}}",
        "{\"op\":\"case\",\"seed\":1,\"config\":{\"dir_banks\":0}}",
        "{\"op\":\"case\",\"seed\":1,\"config\":{\"drop_ppm\":4294967297}}",
        "{\"op\":\"case\",\"seed\":1,\"config\":{\"node_fault_kind\":\"crash\",\"node_fault_node\":1,\"node_fault_for_cycles\":7}}",
    ] {
        assert_total(line);
        // All of these are in fact malformed — pin that they error rather
        // than silently succeeding.
        if !line.trim().is_empty() {
            assert!(parse_request(line).is_err(), "accepted {line:?}");
        } else {
            assert!(parse_request(line).is_err());
        }
    }
}

/// Cache and bank geometry the machine cannot be built from: a non-multiple
/// L1/L2 pair used to panic a pool worker at construction, and the two
/// huge sizes used to abort the whole process on allocation. Each is
/// answered `ok:false, retryable:false` under its id, and the service
/// keeps answering: the ping pipelined behind them gets its pong.
#[test]
fn unbuildable_geometry_is_rejected_and_the_service_survives() {
    let bad = [
        r#"{"id":1,"op":"case","seed":3,"config":{"l1_lines":3,"l2_lines":8}}"#,
        r#"{"id":2,"op":"case","seed":3,"config":{"l2_lines":4398046511104}}"#,
        r#"{"id":3,"op":"workload","name":"adm","config":{"dir_banks":4398046511104}}"#,
    ];
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
    });
    let mut input = bad.join("\n");
    input.push_str("\n{\"id\":4,\"op\":\"ping\"}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&core, Cursor::new(input), &mut out).expect("session io");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| Json::parse(l).expect("response is JSON"))
        .collect();
    assert_eq!(lines.len(), 4);
    for (i, v) in lines[..3].iter().enumerate() {
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.starts_with("config: ")));
    }
    assert_eq!(lines[3].get("id").and_then(Json::as_u64), Some(4));
    assert_eq!(lines[3].get("result").and_then(Json::as_str), Some("pong"));
}

/// Retry budgets beyond their bounds and zero values the machine cannot
/// run: a million speculative retries of a deterministic conflict hold a
/// pool worker for seconds (linear in the budget), 70 watchdog
/// retransmissions overflow the backoff wait, 2^32 would become 0 under a
/// plain cast, a zero write buffer would panic the executor on its first
/// store, and a zero checkpoint cadence leaves no iterations between
/// checkpoints. Each is answered `ok:false, retryable:false` under its id,
/// the ping behind it gets its pong, and the largest accepted budgets
/// still run.
#[test]
fn out_of_range_configs_are_rejected_and_the_service_survives() {
    let bad = [
        r#"{"retry_speculative":1000000}"#,
        r#"{"retry_speculative":4294967295}"#,
        r#"{"retry_speculative":4294967296}"#,
        r#"{"retry_max_retries":70,"drop_ppm":1000000}"#,
        r#"{"retry_max_retries":4294967296,"drop_ppm":1000000}"#,
        r#"{"retry_timeout":18446744073709551615,"drop_ppm":1000000}"#,
        r#"{"write_buffer":0}"#,
        r#"{"checkpoint_every":0}"#,
    ];
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
    });
    let mut input = String::new();
    for (i, config) in bad.iter().enumerate() {
        let id = 2 * i + 1;
        input.push_str(&format!(
            "{{\"id\":{id},\"op\":\"case\",\"seed\":2,\"protocol\":\"hw-nonpriv\",\"config\":{config}}}\n"
        ));
        input.push_str(&format!("{{\"id\":{},\"op\":\"ping\"}}\n", id + 1));
    }
    input.push_str(
        r#"{"id":99,"op":"case","seed":2,"protocol":"hw-nonpriv","config":{"retry_speculative":16,"retry_max_retries":16,"retry_timeout":4294967296,"drop_ppm":1000000}}"#,
    );
    input.push('\n');
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&core, Cursor::new(input), &mut out).expect("session io");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| Json::parse(l).expect("response is JSON"))
        .collect();
    assert_eq!(lines.len(), 2 * bad.len() + 1);
    for (i, pair) in lines[..2 * bad.len()].chunks(2).enumerate() {
        let (v, pong) = (&pair[0], &pair[1]);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(2 * i as u64 + 1));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(false));
        assert!(
            v.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("out of range")),
            "{v:?}"
        );
        assert_eq!(
            pong.get("id").and_then(Json::as_u64),
            Some(2 * i as u64 + 2)
        );
        assert_eq!(pong.get("result").and_then(Json::as_str), Some("pong"));
    }
    let last = &lines[2 * bad.len()];
    assert_eq!(
        last.get("ok").and_then(Json::as_bool),
        Some(true),
        "{last:?}"
    );
}

/// A zero watchdog timeout is in range, so it runs as given: it answers
/// `ok:true` under its own cache key, not under timeout 1's.
#[test]
fn zero_retry_timeout_is_not_clamped() {
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
    });
    let mut input = String::new();
    for timeout in [0, 1] {
        input.push_str(&format!(
            "{{\"id\":{timeout},\"op\":\"case\",\"seed\":3,\"protocol\":\"hw-nonpriv\",\
             \"config\":{{\"drop_ppm\":200000,\"fault_seed\":9,\"retry_timeout\":{timeout}}}}}\n"
        ));
    }
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&core, Cursor::new(input), &mut out).expect("session io");
    let keys: Vec<String> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| {
            let v = Json::parse(l).expect("response is JSON");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            v.get("key")
                .and_then(Json::as_str)
                .expect("key")
                .to_string()
        })
        .collect();
    assert_eq!(keys.len(), 2);
    assert_ne!(keys[0], keys[1], "timeout 0 must not share timeout 1's key");
}
