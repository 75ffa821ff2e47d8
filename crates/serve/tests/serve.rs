//! End-to-end service tests: determinism across cold/warm/parallelism,
//! cache behaviour, backpressure, the admin surface, and the TCP
//! transport with concurrent clients.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::sync::Arc;

use specrt_check::Json;
use specrt_par::Lane;
use specrt_serve::{serve_connection, Outcome, ServeConfig, ServeCore, Server};

fn core_with(workers: usize, queue_depth: usize, cache_capacity: usize) -> Arc<ServeCore> {
    ServeCore::new(ServeConfig {
        workers,
        queue_depth,
        cache_capacity,
    })
}

/// Runs a whole session through the stdio-style transport and returns
/// the response lines.
fn session(core: &Arc<ServeCore>, input: &str) -> Vec<String> {
    let mut out: Vec<u8> = Vec::new();
    serve_connection(core, Cursor::new(input.to_string()), &mut out).expect("session io");
    String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Resolves one request directly on the core (no transport).
fn one(core: &Arc<ServeCore>, line: &str) -> String {
    match core.handle_line(line) {
        Outcome::Ready(p) => p,
        Outcome::Pending { rx, .. } => rx.recv().expect("job answered"),
        Outcome::Shutdown(p) => p,
    }
}

fn counter(core: &Arc<ServeCore>, name: &str) -> u64 {
    let snap = Json::parse(&core.metrics_snapshot_json()).expect("snapshot parses");
    snap.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn duplicate_request_is_served_from_cache_byte_identically() {
    let core = core_with(2, 16, 64);
    let req = r#"{"id":1,"op":"case","seed":42,"protocol":"hw-nonpriv"}"#;
    let dup = r#"{"id":3,"op":"case","seed":42,"protocol":"hw-nonpriv"}"#;
    let other = r#"{"id":2,"op":"case","seed":43,"protocol":"hw-nonpriv"}"#;

    let cold = one(&core, req);
    let unrelated = one(&core, other);
    let warm = one(&core, dup);

    assert_ne!(cold, unrelated);
    // Identical modulo the echoed id: strip `{"id":N,` from both.
    let strip = |s: &str| s.split_once(',').unwrap().1.to_string();
    assert_eq!(
        strip(&cold),
        strip(&warm),
        "cache hit must be byte-identical"
    );
    assert_eq!(counter(&core, "serve.cache_hits"), 1);
    assert_eq!(counter(&core, "serve.cache_misses"), 2);
    // Run counters land under `serve.run.*`, one dot between the parts.
    assert!(counter(&core, "serve.run.transactions") > 0);
    let snap = Json::parse(&core.metrics_snapshot_json()).expect("snapshot parses");
    let Some(Json::Obj(counters)) = snap.get("counters") else {
        panic!("snapshot has a counters object");
    };
    assert!(
        counters.iter().all(|(name, _)| !name.contains("..")),
        "counter names must not hold an empty part"
    );

    // The payload is well-formed JSON with the canonical key and result.
    let v = Json::parse(&cold).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert!(v
        .get("key")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("0x"));
    let result = v.get("result").unwrap();
    assert_eq!(
        result.get("protocol").and_then(Json::as_str),
        Some("hw-nonpriv")
    );
    assert!(result.get("cycles").and_then(Json::as_u64).unwrap() > 0);
}

#[test]
fn responses_are_identical_at_any_worker_count_cold_or_warm() {
    let input = concat!(
        r#"{"id":1,"op":"case","seed":7,"protocol":"hw-priv"}"#,
        "\n",
        r#"{"id":2,"op":"case","seed":8,"protocol":"sw-lrpd","lane":"batch"}"#,
        "\n",
        r#"{"id":3,"op":"case","seed":7,"protocol":"hw-priv"}"#,
        "\n",
        r#"{"id":4,"op":"workload","name":"ocean","invocation":1,"scenario":"hw"}"#,
        "\n",
    );
    let base = session(&core_with(1, 16, 64), input);
    assert_eq!(base.len(), 4);
    for workers in [2, 8] {
        let got = session(&core_with(workers, 16, 64), input);
        assert_eq!(base, got, "stream must not depend on --jobs {workers}");
    }
    // Warm replay of the same session on the same core: same bytes.
    let core = core_with(4, 16, 64);
    let cold = session(&core, input);
    let warm = session(&core, input);
    assert_eq!(base, cold);
    assert_eq!(cold, warm);
    // id:3 duplicates id:1's content.
    let strip = |s: &str| s.split_once(',').unwrap().1.to_string();
    assert_eq!(strip(&cold[0]), strip(&cold[2]));
}

#[test]
fn full_lane_answers_busy_instead_of_blocking() {
    let core = core_with(1, 1, 16);
    // Wedge the single worker, then fill the one batch queue slot.
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    core.pool()
        .submit(Lane::Batch, move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
    started_rx.recv().unwrap();
    core.pool().submit(Lane::Batch, || {}).unwrap();

    let r = core.handle_line(r#"{"id":9,"op":"case","seed":1,"lane":"batch"}"#);
    let line = match r {
        Outcome::Ready(p) => p,
        _ => panic!("backpressure must answer immediately"),
    };
    let v = Json::parse(&line).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
    assert!(v
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("busy"));
    assert_eq!(counter(&core, "serve.busy_rejections"), 1);

    // The interactive lane still accepts work.
    let ok = core.handle_line(r#"{"id":10,"op":"ping"}"#);
    assert!(matches!(ok, Outcome::Ready(_)));
    gate_tx.send(()).unwrap();
}

#[test]
fn admin_surface_ping_stats_errors() {
    let core = core_with(2, 8, 16);
    assert_eq!(
        one(&core, r#"{"id":1,"op":"ping"}"#),
        r#"{"id":1,"ok":true,"result":"pong"}"#
    );
    let _ = one(&core, r#"{"op":"case","seed":3}"#);
    let stats = one(&core, r#"{"id":2,"op":"stats"}"#);
    let v = Json::parse(&stats).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let counters = v.get("result").and_then(|r| r.get("counters")).unwrap();
    assert!(
        counters
            .get("serve.requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 2
    );
    assert!(counters.get("serve.pool.workers").and_then(Json::as_u64) == Some(2));
    assert!(counters.get("serve.latency_us.p50").is_some());
    assert!(counters.get("serve.latency_us.p99").is_some());

    for (line, needle) in [
        ("not json", "bad JSON"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (r#"{"op":"case"}"#, "needs \"case\" or \"seed\""),
        (
            r#"{"op":"case","seed":1,"protocol":"hw"}"#,
            "unknown protocol",
        ),
        (r#"{"op":"workload","name":"linpack"}"#, "unknown workload"),
        (
            r#"{"op":"case","seed":1,"config":{"cache_lines":4}}"#,
            "unknown config key",
        ),
    ] {
        let r = one(&core, line);
        let v = Json::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert!(
            v.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains(needle),
            "{line} → {r}"
        );
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(false));
    }
    assert!(counter(&core, "serve.errors") >= 6);
}

#[test]
fn check_protocol_reports_oracle_agreement() {
    let core = core_with(2, 8, 16);
    let r = one(&core, r#"{"id":1,"op":"case","seed":5,"protocol":"check"}"#);
    let v = Json::parse(&r).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let result = v.get("result").unwrap();
    assert_eq!(result.get("protocol").and_then(Json::as_str), Some("check"));
    assert_eq!(result.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        result
            .get("mismatches")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
}

#[test]
fn config_overrides_change_the_key_and_the_result() {
    let core = core_with(2, 8, 64);
    let base = one(&core, r#"{"op":"case","seed":11,"protocol":"hw-nonpriv"}"#);
    let slow = one(
        &core,
        r#"{"op":"case","seed":11,"protocol":"hw-nonpriv","config":{"remote_2hop":500,"remote_3hop":600}}"#,
    );
    let vb = Json::parse(&base).unwrap();
    let vs = Json::parse(&slow).unwrap();
    assert_ne!(vb.get("key"), vs.get("key"));
    let cycles = |v: &Json| {
        v.get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(
        cycles(&vs) > cycles(&vb),
        "slower remote memory must cost cycles"
    );
    // Same seed, same config: still a cache hit, not a third miss.
    let again = one(&core, r#"{"op":"case","seed":11,"protocol":"hw-nonpriv"}"#);
    assert_eq!(base, again);
    assert_eq!(counter(&core, "serve.cache_hits"), 1);
}

#[test]
fn tcp_concurrent_clients_share_the_cache_and_shutdown_stops_the_server() {
    let core = core_with(4, 32, 128);
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    fn client(addr: std::net::SocketAddr, seeds: Vec<u64>) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut responses = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let mut s = stream.try_clone().expect("clone");
            writeln!(
                s,
                "{{\"id\":{i},\"op\":\"case\",\"seed\":{seed},\"protocol\":\"hw-nonpriv\"}}"
            )
            .expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            responses.push(line.trim().to_string());
        }
        responses
    }

    // Three clients, overlapping seeds: every client sees the same
    // payload bytes for the same seed.
    let c1 = std::thread::spawn(move || client(addr, vec![21, 22, 21]));
    let c2 = std::thread::spawn(move || client(addr, vec![22, 21, 23]));
    let c3 = std::thread::spawn(move || client(addr, vec![23, 23, 22]));
    let (r1, r2, r3) = (c1.join().unwrap(), c2.join().unwrap(), c3.join().unwrap());
    let strip = |s: &str| s.split_once(',').unwrap().1.to_string();
    assert_eq!(strip(&r1[0]), strip(&r1[2]), "same seed, same bytes");
    assert_eq!(strip(&r1[0]), strip(&r2[1]), "across clients too");
    assert_eq!(strip(&r2[0]), strip(&r1[1]));
    assert_eq!(strip(&r3[2]), strip(&r2[0]));
    for r in r1.iter().chain(&r2).chain(&r3) {
        let v = Json::parse(r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    // 9 requests over 3 distinct keys: at least 6 hits (exact count is
    // scheduling-dependent when identical misses race).
    assert!(counter(&core, "serve.cache_hits") >= 6);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(&stream, "{{\"id\":99,\"op\":\"shutdown\"}}").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("shutting down"));
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn metrics_out_streams_snapshots() {
    let dir = std::env::temp_dir().join(format!("specrt-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let core = core_with(2, 8, 16);
    core.set_metrics_out(Some(path.clone()));
    let _ = one(&core, r#"{"op":"case","seed":2}"#);
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let v = Json::parse(text.trim()).expect("metrics file is JSON");
    assert!(
        v.get("counters")
            .and_then(|c| c.get("serve.completed"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    std::fs::remove_dir_all(&dir).ok();
}
