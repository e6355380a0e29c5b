//! Deterministic outcome accounting: every induced terminal outcome
//! (2xx / 400 / 429 / 503 / 504) increments exactly one counter exactly
//! once, and the per-phase histograms count exactly the requests that
//! reached each phase.

mod common;

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::TestClock;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_server::json::Json;
use javaflow_server::protocol::{escaped_table, expected_batch_payloads, read_frame, write_frame};
use javaflow_server::{Server, ServerConfig};

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    conn
}

fn send(conn: &mut TcpStream, json: &str) {
    write_frame(conn, json.as_bytes()).expect("send");
}

fn recv(conn: &mut TcpStream) -> String {
    read_frame(conn, usize::MAX)
        .expect("recv")
        .map(|f| String::from_utf8(f).expect("utf-8"))
        .expect("frame")
}

fn counter(server: &Json, name: &str) -> u64 {
    server.get(name).and_then(Json::as_u64).unwrap_or_else(|| panic!("counter {name}"))
}

fn phase_count(server: &Json, phase: &str) -> u64 {
    server
        .get("phases")
        .and_then(|p| p.get(phase))
        .and_then(|p| p.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("phase {phase}"))
}

/// Polls the metrics frame until `done(server half)` holds: the sweeper
/// folds a request's span in just after writing its terminal frame.
fn metrics_once(conn: &mut TcpStream, done: impl Fn(&Json) -> bool) -> Json {
    for _ in 0..200 {
        send(conn, "{\"kind\": \"metrics\", \"id\": 10}");
        let metrics = Json::parse(&recv(conn)).expect("metrics json");
        if done(metrics.get("server").expect("server block")) {
            return metrics;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the metrics never settled");
}

#[test]
fn every_outcome_increments_its_counter_exactly_once() {
    // queue_cap 1 so a single queued job saturates admission; one record
    // per batch, and a held deadline clock keeps the long sweep parked at
    // its second batch boundary until the test lets it go.
    let clock = TestClock::held();
    let server = Server::start(ServerConfig {
        queue_cap: 1,
        batch_records: 1,
        threads: 1,
        deadline_clock: clock.hook(),
        ..ServerConfig::default()
    })
    .expect("start");

    // 400: an unparseable frame.
    let mut conn_bad = connect(&server);
    send(&mut conn_bad, "this is not json");
    assert!(recv(&mut conn_bad).contains("\"code\": 400"));

    // S1, the long sweep that occupies the sweeper. Reading its first
    // batch proves the sweeper has popped it (the queue is empty again).
    let mut conn1 = connect(&server);
    send(
        &mut conn1,
        "{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": 32, \"max_mesh_cycles\": 150000}",
    );
    assert!(recv(&mut conn1).starts_with("{\"type\": \"accepted\""));
    clock.grant(2, Instant::now());
    assert!(recv(&mut conn1).starts_with("{\"type\": \"batch\""));

    // S2 queues behind S1 with a 1 ms deadline, and the clock reads past
    // it from here on → 504 when the sweeper eventually picks it up.
    let mut conn2 = connect(&server);
    send(&mut conn2, "{\"kind\": \"sweep\", \"id\": 2, \"synthetic\": 4, \"deadline_ms\": 1}");
    assert!(recv(&mut conn2).starts_with("{\"type\": \"accepted\""));
    let s2_admitted = Instant::now();

    // S3 finds the queue full → 429.
    let mut conn3 = connect(&server);
    send(&mut conn3, "{\"kind\": \"sweep\", \"id\": 3, \"synthetic\": 4}");
    assert!(recv(&mut conn3).contains("\"code\": 429"), "queue of 1 must be full");
    clock.run_at(s2_admitted + Duration::from_millis(1));

    // Drain S1 to done (200), then S2's pre-start 504.
    loop {
        let frame = recv(&mut conn1);
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
        assert!(frame.starts_with("{\"type\": \"batch\""), "{frame}");
    }
    assert!(recv(&mut conn2).contains("\"code\": 504"), "expired deadline must 504");

    // Drain-mode 503: request shutdown, then try to sweep.
    send(&mut conn3, "{\"kind\": \"shutdown\", \"id\": 9}");
    assert!(recv(&mut conn3).starts_with("{\"type\": \"shutdown_ack\""));
    send(&mut conn3, "{\"kind\": \"sweep\", \"id\": 4, \"synthetic\": 4}");
    assert!(recv(&mut conn3).contains("\"code\": 503"));

    // The ledger. Six spans have finished: 400, 200, 429, 504, the
    // shutdown ack, and the 503. The sweeper folds the 200 and 504 in
    // just after writing their terminal frames, so poll until both have
    // landed. Each probe's own span (kind `metrics`) finishes before the
    // reader handles the next request on this connection, so at probe k
    // the expected read count is 6 + (k - 1).
    let mut metrics = Json::Null;
    let mut probes = 0u64;
    for _ in 0..200 {
        send(&mut conn3, "{\"kind\": \"metrics\", \"id\": 10}");
        metrics = Json::parse(&recv(&mut conn3)).expect("metrics json");
        probes += 1;
        let read = phase_count(metrics.get("server").expect("server block"), "read");
        if read >= 6 + (probes - 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let server_half = metrics.get("server").expect("server block");
    let probe_spans = probes - 1;

    assert_eq!(counter(server_half, "accepted"), 2, "S1 and S2");
    assert_eq!(counter(server_half, "completed"), 1, "S1 only");
    assert_eq!(counter(server_half, "cancelled_deadline"), 1, "S2 only");
    assert_eq!(counter(server_half, "rejected_busy"), 1, "S3 only");
    assert_eq!(counter(server_half, "rejected_drain"), 1, "S4 only");
    assert_eq!(counter(server_half, "bad_requests"), 1);
    assert_eq!(counter(server_half, "disconnects"), 0);
    assert_eq!(counter(server_half, "sweeps"), 2, "S1 and S2's group");
    assert_eq!(counter(server_half, "response_cache_hits"), 0, "no compiled sweeps");
    assert_eq!(counter(server_half, "response_cache_evictions"), 0);
    assert_eq!(counter(server_half, "response_cache_bytes"), 0);

    // Phase histograms: `read` and `parse` count every finished span;
    // `queue` the two admitted jobs; `prepare`/`execute`/`stream` only
    // the sweep that actually ran.
    assert_eq!(phase_count(server_half, "read"), 6 + probe_spans);
    assert_eq!(phase_count(server_half, "parse"), 6 + probe_spans);
    assert_eq!(phase_count(server_half, "queue"), 2);
    assert_eq!(phase_count(server_half, "prepare"), 1);
    assert_eq!(phase_count(server_half, "execute"), 1);
    assert_eq!(phase_count(server_half, "stream"), 1);

    drop(conn1);
    drop(conn2);
    server.join().expect("join");
}

#[test]
fn oversized_frames_finish_a_413_span() {
    let server =
        Server::start(ServerConfig { max_frame: 128, ..ServerConfig::default() }).expect("start");
    let mut conn = connect(&server);
    conn.write_all(&4096u32.to_be_bytes()).unwrap();
    conn.write_all(&[b'x'; 64]).unwrap();
    let frame = recv(&mut conn);
    assert!(frame.contains("\"code\": 413"), "{frame}");

    let mut conn2 = connect(&server);
    send(&mut conn2, "{\"kind\": \"metrics\", \"id\": 1}");
    let metrics = Json::parse(&recv(&mut conn2)).expect("metrics json");
    let server_half = metrics.get("server").expect("server block");
    assert_eq!(counter(server_half, "bad_requests"), 1);
    // The payload never arrived, so no phase was measured for the 413 —
    // the read histogram must not be polluted with a synthetic zero.
    assert_eq!(phase_count(server_half, "read"), 0);

    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn response_cache_counters_are_exact() {
    let server =
        Server::start(ServerConfig { batch_records: 2, threads: 2, ..ServerConfig::default() })
            .expect("start");
    let mut conn = connect(&server);
    // One compiled key three times: a sweep, then two hits.
    for id in 1..=3 {
        send(
            &mut conn,
            &format!(
                "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": 4, \"compiled\": true, \"tables\": [22]}}"
            ),
        );
        while !recv(&mut conn).starts_with("{\"type\": \"done\"") {}
    }
    let metrics = metrics_once(&mut conn, |s| phase_count(s, "stream") == 3);
    let server_half = metrics.get("server").expect("server block");

    // The cache holds the batch payloads and all thirty escaped tables.
    let eval = Evaluation::run(&EvalConfig { synthetic_count: 4, ..EvalConfig::default() });
    let stored: usize =
        expected_batch_payloads(&eval, 2).iter().map(|(_, p)| p.len()).sum::<usize>()
            + (1..=30).map(|t| escaped_table(&eval, t).len()).sum::<usize>();
    assert_eq!(counter(server_half, "sweeps"), 3);
    assert_eq!(counter(server_half, "response_cache_hits"), 2);
    assert_eq!(counter(server_half, "response_cache_evictions"), 0);
    assert_eq!(counter(server_half, "response_cache_bytes"), stored as u64);
    assert_eq!(counter(server_half, "completed"), 3);
    // A hit skips preparation but still executes (lookup, frame build)
    // and streams.
    assert_eq!(phase_count(server_half, "queue"), 3);
    assert_eq!(phase_count(server_half, "prepare"), 1);
    assert_eq!(phase_count(server_half, "execute"), 3);
    assert_eq!(phase_count(server_half, "stream"), 3);

    server.request_shutdown();
    server.join().expect("join");
}
