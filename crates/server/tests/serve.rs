//! End-to-end server tests over real sockets: request/response identity
//! (swept and replayed from the response cache), unhappy-path handling
//! (malformed, oversized, truncated), deadline cancellation, and
//! graceful drain.

mod common;

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::TestClock;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;
use javaflow_server::json::Json;
use javaflow_server::protocol::{
    batch_frame, batch_frame_head, done_frame, expected_batch_payloads, read_frame, write_frame,
};
use javaflow_server::{Server, ServerConfig};

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    conn
}

fn send(conn: &mut TcpStream, json: &str) {
    write_frame(conn, json.as_bytes()).expect("send");
}

fn recv(conn: &mut TcpStream) -> Option<String> {
    read_frame(conn, usize::MAX).expect("recv").map(|f| String::from_utf8(f).expect("utf-8"))
}

/// The in-process sweep every served response below must match: four
/// synthetic methods plus the suite, in batches of two records.
fn small_eval(net: NetKind, compiled: bool) -> Evaluation {
    Evaluation::run(&EvalConfig {
        synthetic_count: 4,
        max_mesh_cycles: 150_000,
        net,
        compiled,
        threads: 2,
        ..EvalConfig::default()
    })
}

fn sweep_request(id: u64, net: &str, compiled: bool, tables: &[u32], deadline_ms: u64) -> String {
    let tables: Vec<String> = tables.iter().map(u32::to_string).collect();
    let tables = tables.join(", ");
    format!(
        "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": 4, \"max_mesh_cycles\": 150000, \
         \"net\": \"{net}\", \"compiled\": {compiled}, \"tables\": [{tables}], \
         \"deadline_ms\": {deadline_ms}}}"
    )
}

fn expect_accepted(conn: &mut TcpStream, id: u64) {
    let first = recv(conn).expect("accepted");
    assert!(first.starts_with(&format!("{{\"type\": \"accepted\", \"id\": {id}")), "{first}");
}

/// Reads one request's streamed response and checks it frame for frame:
/// every batch of `eval` in batches of two, then `done`.
fn expect_stream(
    conn: &mut TcpStream,
    id: u64,
    eval: &Evaluation,
    coalesced: bool,
    tables: &[u32],
) {
    for (seq, (lo, payload)) in expected_batch_payloads(eval, 2).iter().enumerate() {
        let frame = recv(conn).expect("batch");
        assert_eq!(frame, batch_frame(id, seq, *lo, payload), "request {id}: batch {seq} diverged");
    }
    let done = recv(conn).expect("done");
    assert_eq!(done, done_frame(id, eval, coalesced, tables), "request {id}: done diverged");
}

/// [`expect_stream`] after the `accepted` frame.
fn expect_response(
    conn: &mut TcpStream,
    id: u64,
    eval: &Evaluation,
    coalesced: bool,
    tables: &[u32],
) {
    expect_accepted(conn, id);
    expect_stream(conn, id, eval, coalesced, tables);
}

/// One counter from the server half of a `metrics` response.
fn server_counter(conn: &mut TcpStream, name: &str) -> u64 {
    send(conn, "{\"kind\": \"metrics\", \"id\": 999}");
    let m = Json::parse(&recv(conn).expect("metrics")).expect("metrics json");
    m.get("server").and_then(|s| s.get(name)).and_then(Json::as_u64).expect(name)
}

/// Sends `request` (which must carry a deadline) against a held clock,
/// lets its first batch through before the deadline, then reports a
/// time past the deadline at the next batch boundary: the request must
/// end with a mid-sweep `504` after exactly one batch.
fn expire_after_first_batch(
    conn: &mut TcpStream,
    clock: &TestClock,
    id: u64,
    request: &str,
    deadline: Duration,
) {
    let before = Instant::now();
    send(conn, request);
    expect_accepted(conn, id);
    // Admission set the deadline before the `accepted` frame went out, so
    // it lies after `before` and no later than `admitted + deadline`.
    let admitted = Instant::now();
    // The pickup check and the first batch boundary.
    clock.grant(2, before);
    let batch = recv(conn).expect("first batch");
    assert!(batch.starts_with(&batch_frame_head(id, 0, 0)), "{batch}");
    clock.grant(1, admitted + deadline);
    let error = recv(conn).expect("stream must end in a 504, not EOF");
    assert!(error.starts_with(&format!("{{\"type\": \"error\", \"id\": {id}")), "{error}");
    assert!(error.contains("\"code\": 504") && error.contains("mid-sweep"), "{error}");
}

#[test]
fn served_sweep_is_byte_identical_to_in_process() {
    let server =
        Server::start(ServerConfig { batch_records: 2, threads: 2, ..ServerConfig::default() })
            .expect("start");
    let eval = small_eval(NetKind::Ideal, false);
    let mut conn = connect(&server);
    // The interpreted sweep; the compiled key cold (a sweep), then warm
    // twice from the response cache, the second time with other tables;
    // then the interpreted key again, which sweeps again. Every frame
    // must match the interpreted in-process run.
    for (id, compiled, tables) in [
        (42, false, &[22, 30][..]),
        (43, true, &[22, 30]),
        (44, true, &[22, 30]),
        (45, true, &[9]),
        (46, false, &[22, 30]),
    ] {
        send(&mut conn, &sweep_request(id, "ideal", compiled, tables, 0));
        expect_response(&mut conn, id, &eval, false, tables);
    }
    assert_eq!(server_counter(&mut conn, "sweeps"), 5);
    assert_eq!(server_counter(&mut conn, "response_cache_hits"), 2, "44 and 45 only");

    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn contended_compiled_replays_keep_the_declined_bits() {
    // On the contended net the report memo declines, and each report
    // says so in its `declined` mask: the served bytes must match an
    // in-process compiled run, not an interpreted one.
    let eval = small_eval(NetKind::Contended, true);
    assert_ne!(
        expected_batch_payloads(&eval, 2),
        expected_batch_payloads(&small_eval(NetKind::Contended, false), 2),
        "the declined bits must show in the payloads"
    );
    let server =
        Server::start(ServerConfig { batch_records: 2, threads: 2, ..ServerConfig::default() })
            .expect("start");
    let mut conn = connect(&server);
    for id in [1, 2] {
        send(&mut conn, &sweep_request(id, "contended", true, &[22, 30], 0));
        expect_response(&mut conn, id, &eval, false, &[22, 30]);
    }
    assert_eq!(server_counter(&mut conn, "response_cache_hits"), 1);
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn a_coalesced_group_is_served_from_the_cache() {
    let clock = TestClock::free();
    let server = Server::start(ServerConfig {
        batch_records: 2,
        threads: 2,
        deadline_clock: clock.hook(),
        ..ServerConfig::default()
    })
    .expect("start");
    let eval = small_eval(NetKind::Ideal, false);
    let mut conn = connect(&server);
    send(&mut conn, &sweep_request(1, "ideal", true, &[22], 0));
    expect_response(&mut conn, 1, &eval, false, &[22]);

    // Hold the sweeper on another key while two requests for the cached
    // key queue up; released, it pops them as one group.
    clock.hold();
    let mut blocker = connect(&server);
    send(&mut blocker, "{\"kind\": \"sweep\", \"id\": 2, \"synthetic\": 2}");
    expect_accepted(&mut blocker, 2);
    let mut a = connect(&server);
    let mut b = connect(&server);
    send(&mut a, &sweep_request(3, "ideal", true, &[22], 0));
    send(&mut b, &sweep_request(4, "ideal", true, &[9, 22], 0));
    expect_accepted(&mut a, 3);
    expect_accepted(&mut b, 4);
    clock.run_free();
    expect_stream(&mut a, 3, &eval, true, &[22]);
    expect_stream(&mut b, 4, &eval, true, &[9, 22]);
    while !recv(&mut blocker).expect("blocker stream").starts_with("{\"type\": \"done\"") {}

    assert_eq!(server_counter(&mut conn, "sweeps"), 3);
    assert_eq!(server_counter(&mut conn, "coalesced_requests"), 1);
    assert_eq!(server_counter(&mut conn, "response_cache_hits"), 1, "the group is one hit");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn a_compiled_sweep_cancelled_by_its_deadline_stores_nothing() {
    let clock = TestClock::held();
    let server = Server::start(ServerConfig {
        batch_records: 2,
        threads: 2,
        deadline_clock: clock.hook(),
        ..ServerConfig::default()
    })
    .expect("start");
    let eval = small_eval(NetKind::Ideal, false);
    let mut conn = connect(&server);
    let request = sweep_request(1, "ideal", true, &[22], 700);
    expire_after_first_batch(&mut conn, &clock, 1, &request, Duration::from_millis(700));
    clock.run_free();
    // The next request sweeps again, and only then is the key stored.
    for id in [2, 3] {
        send(&mut conn, &sweep_request(id, "ideal", true, &[22], 0));
        expect_response(&mut conn, id, &eval, false, &[22]);
    }
    assert_eq!(server_counter(&mut conn, "response_cache_hits"), 1, "request 3 only");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn malformed_requests_get_400_and_the_connection_survives() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    for bad in [
        "this is not json",
        "{\"kind\": \"warp\", \"id\": 5}",
        "{\"id\": 5}",
        "{\"kind\": \"sweep\", \"id\": 5, \"net\": \"quantum\"}",
        "{\"kind\": \"sweep\", \"id\": 5, \"threads\": 9000}",
        "{\"kind\": \"sweep\", \"id\": 5, \"synthetic\": 1000000}",
    ] {
        send(&mut conn, bad);
        let frame = recv(&mut conn).expect("error frame");
        assert!(frame.contains("\"code\": 400"), "`{bad}` → {frame}");
    }
    // The connection is still perfectly usable.
    send(&mut conn, "{\"kind\": \"ping\", \"id\": 6}");
    assert_eq!(recv(&mut conn).unwrap(), "{\"type\": \"pong\", \"id\": 6}");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn oversized_frames_get_413_then_the_connection_closes() {
    let server =
        Server::start(ServerConfig { max_frame: 256, ..ServerConfig::default() }).expect("start");
    let mut conn = connect(&server);
    send(
        &mut conn,
        &format!("{{\"kind\": \"ping\", \"id\": 1, \"pad\": \"{}\"}}", "x".repeat(500)),
    );
    let frame = recv(&mut conn).expect("413 frame");
    assert!(frame.contains("\"code\": 413"), "{frame}");
    assert!(recv(&mut conn).is_none(), "connection must close after a 413");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn truncated_frames_neither_hang_nor_crash_the_server() {
    let server = Server::start(ServerConfig::default()).expect("start");
    {
        // A length prefix promising 100 bytes, then a hangup.
        let mut conn = connect(&server);
        conn.write_all(&100u32.to_be_bytes()).unwrap();
        conn.write_all(b"only a little").unwrap();
    }
    {
        // A hangup mid-prefix.
        let mut conn = connect(&server);
        conn.write_all(&[0, 0]).unwrap();
    }
    // The server shrugged both off and still answers.
    let mut conn = connect(&server);
    send(&mut conn, "{\"kind\": \"ping\", \"id\": 9}");
    assert_eq!(recv(&mut conn).unwrap(), "{\"type\": \"pong\", \"id\": 9}");
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn deadlines_cancel_between_batches_with_504() {
    // One record per batch: the deadline is checked at every batch
    // boundary. The test drives the server's deadline clock, so the
    // deadline passes between the first and second batch on any host.
    let clock = TestClock::held();
    let server = Server::start(ServerConfig {
        batch_records: 1,
        deadline_clock: clock.hook(),
        ..ServerConfig::default()
    })
    .expect("start");
    let mut conn = connect(&server);
    let request = "{\"kind\": \"sweep\", \"id\": 7, \"synthetic\": 100, \"deadline_ms\": 700}";
    expire_after_first_batch(&mut conn, &clock, 7, request, Duration::from_millis(700));
    clock.run_free();

    // The cancelled sweep must not poison the server: a fresh small sweep
    // still runs to completion on the same connection.
    send(&mut conn, "{\"kind\": \"sweep\", \"id\": 8, \"synthetic\": 2}");
    loop {
        let frame = recv(&mut conn).expect("second sweep completes");
        if frame.starts_with("{\"type\": \"done\", \"id\": 8") {
            break;
        }
        assert!(
            frame.starts_with("{\"type\": \"accepted\"")
                || frame.starts_with("{\"type\": \"batch\""),
            "{frame}"
        );
    }
    server.request_shutdown();
    server.join().expect("join");
}

#[test]
fn the_unix_socket_speaks_the_same_protocol() {
    let path =
        std::env::temp_dir().join(format!("javaflow-serve-test-{}.sock", std::process::id()));
    let server =
        Server::start(ServerConfig { uds_path: Some(path.clone()), ..ServerConfig::default() })
            .expect("start");
    let mut conn = std::os::unix::net::UnixStream::connect(&path).expect("uds connect");
    write_frame(&mut conn, b"{\"kind\": \"ping\", \"id\": 3}").unwrap();
    let frame = read_frame(&mut conn, 4096).unwrap().expect("pong");
    assert_eq!(std::str::from_utf8(&frame).unwrap(), "{\"type\": \"pong\", \"id\": 3}");
    server.request_shutdown();
    server.join().expect("join");
    assert!(!path.exists(), "join must remove the socket file");
}

#[test]
fn metrics_requests_render_counters_and_table30() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut conn = connect(&server);
    // One tiny sweep so the registry has something in it.
    send(&mut conn, "{\"kind\": \"sweep\", \"id\": 1, \"synthetic\": 2}");
    loop {
        let frame = recv(&mut conn).expect("sweep stream");
        if frame.starts_with("{\"type\": \"done\"") {
            break;
        }
    }
    send(&mut conn, "{\"kind\": \"metrics\", \"id\": 2}");
    let m = recv(&mut conn).expect("metrics");
    for key in [
        "\"type\": \"metrics\"",
        "\"accepted\": 1",
        "\"completed\": 1",
        "\"sweeps\": 1",
        "\"p99_us\"",
        "\"table30\"",
        "\"counters\"",
    ] {
        assert!(m.contains(key), "metrics response missing {key}: {m}");
    }
    server.request_shutdown();
    server.join().expect("join");
}
