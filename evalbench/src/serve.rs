//! The `javaflow-serve` workloads: an open-loop load generator on one
//! TCP connection, checking every streamed frame byte for byte.
//!
//! Requests are framed here, one `write` per frame on a `TCP_NODELAY`
//! socket, so client-side Nagle stalls stay out of the numbers and the
//! benchmark does not change when the program's framing code does.
//! Requests are pipelined; replies are demultiplexed by `id`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::NetKind;
use javaflow_server::json::Json;
use javaflow_server::protocol::{batch_frame, done_frame, expected_batch_payloads};

use crate::util::{cpu_secs, mean, median, peak_rss_mb, quantile, Rng};
use crate::{Metric, RunResult};

/// Records per streamed batch; the server is started with the same value.
pub const BATCH_RECORDS: usize = 16;

/// Sweep threads of the server. The client shares the machine, and its
/// reader is busy while the server streams, so one sweep thread keeps
/// the two within two cores. With the default (one per core) the server's
/// workers also wait on each other at every batch boundary, so a core
/// the host takes away for a while stalls the whole request: on a
/// 2-vCPU host with 5–13% steal, p50 latency read 67–103 ms with two
/// threads and 65–68 ms with one.
pub const SERVER_THREADS: usize = 1;

/// Set-ups (spawn until the warm-up requests are answered) per run.
const SETUPS: usize = 3;

/// How long the generator waits for outstanding replies after its last
/// send before counting them as failed.
const DRAIN: Duration = Duration::from_secs(60);

/// The request of a serve workload: a sweep key plus the tables its
/// `done` frame renders.
#[derive(Debug, Clone)]
pub struct Key {
    pub synthetic: usize,
    pub net: NetKind,
    pub compiled: bool,
    pub tables: Vec<u32>,
}

/// An open-loop workload: one key at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct Mix {
    pub key: Key,
    /// Offered rate, requests per second.
    pub rate: f64,
}

/// Compiled synthetic-240 sweeps rendering Table 22: one key, warm after
/// set-up, so every request replays cached schedules and streams about
/// 1.9 MB. One key keeps the median inside one mode of the latency
/// distribution, and the low rate keeps queueing from amplifying drifts
/// in host speed.
pub fn warm_mix() -> Mix {
    Mix {
        key: Key { synthetic: 240, net: NetKind::Ideal, compiled: true, tables: vec![22] },
        rate: 3.0,
    }
}

/// What a key's response must be, byte for byte.
pub struct Expected {
    payloads: Vec<(usize, String)>,
    /// The `done` frame after its `"id": N`, uncoalesced and coalesced.
    done_tails: [String; 2],
}

impl Expected {
    pub fn new(eval: &Evaluation, tables: &[u32]) -> Expected {
        let tail = |coalesced| {
            let frame = done_frame(0, eval, coalesced, tables);
            frame
                .strip_prefix("{\"type\": \"done\", \"id\": 0")
                .expect("done frame header")
                .to_string()
        };
        Expected {
            payloads: expected_batch_payloads(eval, BATCH_RECORDS),
            done_tails: [tail(false), tail(true)],
        }
    }

    /// Expected response for `key`, from an in-process evaluation.
    pub fn of(key: &Key) -> Expected {
        let eval = Evaluation::run(&EvalConfig {
            synthetic_count: key.synthetic,
            net: key.net,
            ..EvalConfig::default()
        });
        Expected::new(&eval, &key.tables)
    }

    /// Whether a sweep's `batch` frames and `done` frame are the expected ones.
    fn response_ok(&self, id: u64, batches: &[Vec<u8>], done: &[u8]) -> bool {
        batches.len() == self.payloads.len()
            && batches.iter().zip(&self.payloads).enumerate().all(
                |(seq, (frame, (first, payload)))| {
                    batch_frame(id, seq, *first, payload).as_bytes() == frame.as_slice()
                },
            )
            && self.done_ok(id, done)
    }

    fn done_ok(&self, id: u64, frame: &[u8]) -> bool {
        let head = format!("{{\"type\": \"done\", \"id\": {id}");
        frame
            .strip_prefix(head.as_bytes())
            .is_some_and(|tail| self.done_tails.iter().any(|t| t.as_bytes() == tail))
    }
}

/// One request to send: its frame and due time after the start.
pub struct Req {
    pub id: u64,
    /// A sweep, whose response is checked; otherwise a control request
    /// (metrics, shutdown) whose single reply frame is kept.
    sweep: bool,
    pub at: Duration,
    frame: Vec<u8>,
}

impl Req {
    fn new(id: u64, sweep: bool, at: Duration, json: &str) -> Req {
        let len = u32::try_from(json.len()).expect("request frame fits in u32");
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(json.as_bytes());
        Req { id, sweep, at, frame }
    }

    pub fn sweep(id: u64, key: &Key, at: Duration) -> Req {
        let tables: Vec<String> = key.tables.iter().map(u32::to_string).collect();
        let net = match key.net {
            NetKind::Ideal => "ideal",
            NetKind::Contended => "contended",
        };
        let json = format!(
            "{{\"kind\": \"sweep\", \"id\": {id}, \"synthetic\": {}, \"net\": \"{net}\", \"compiled\": {}, \"tables\": [{}]}}",
            key.synthetic,
            key.compiled,
            tables.join(", ")
        );
        Req::new(id, true, at, &json)
    }

    pub fn control(id: u64, kind: &str) -> Req {
        Req::new(id, false, Duration::ZERO, &format!("{{\"kind\": \"{kind}\", \"id\": {id}}}"))
    }
}

/// What happened to one request.
#[derive(Debug)]
pub struct Outcome {
    pub due: Instant,
    pub sent: Option<Instant>,
    pub first_batch: Option<Instant>,
    pub done: Option<Instant>,
    /// The response checked out; decided after the exchange ends.
    pub ok: bool,
    /// Refusal or error code, when the server answered with an error.
    pub error: Option<u64>,
    /// A sweep's `batch` frames, kept unchecked until the exchange ends.
    batches: Vec<Vec<u8>>,
    /// The final reply frame: a sweep's `done` frame, or a control
    /// request's reply.
    pub reply: Option<Vec<u8>>,
}

impl Outcome {
    /// Answered in full and correct.
    pub fn succeeded(&self) -> bool {
        self.ok && self.done.is_some() && self.error.is_none()
    }

    /// Due time to `done`, ms; infinite for a failed request, so that it
    /// counts as beyond any latency limit.
    pub fn latency_ms(&self) -> f64 {
        match self.done {
            Some(d) if self.succeeded() => d.duration_since(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    pub fn first_batch_ms(&self) -> f64 {
        match self.first_batch {
            Some(b) if self.succeeded() => b.duration_since(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, ms.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.map_or(f64::INFINITY, |s| s.duration_since(self.due).as_secs_f64() * 1e3)
    }
}
/// `(type, id)` from a reply frame's fixed header
/// `{"type": "<type>", "id": <id>`.
fn header(frame: &[u8]) -> Option<(&str, u64)> {
    let rest = frame.strip_prefix(b"{\"type\": \"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let ty = std::str::from_utf8(&rest[..end]).ok()?;
    let rest = rest[end..].strip_prefix(b"\", \"id\": ")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((ty, id))
}

fn read_reply(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Sends `reqs` on their schedule (open loop: regardless of replies) and
/// collects every reply. Replies still missing [`DRAIN`] after the last
/// send fail. The reader thread only timestamps and keeps each frame;
/// [`check`] compares them once the exchange has ended, so no check
/// delays a timestamp.
fn exchange(stream: &TcpStream, reqs: &[Req]) -> Vec<Outcome> {
    let start = Instant::now();
    let index: HashMap<u64, usize> = reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let states = Mutex::new(
        reqs.iter()
            .map(|r| Outcome {
                due: start + r.at,
                sent: None,
                first_batch: None,
                done: None,
                ok: false,
                error: None,
                batches: Vec::new(),
                reply: None,
            })
            .collect::<Vec<_>>(),
    );
    std::thread::scope(|s| {
        let (finished_tx, finished_rx) = mpsc::channel();
        let (states, index) = (&states, &index);
        s.spawn(move || {
            let mut rd = BufReader::with_capacity(1 << 16, stream);
            let mut open = reqs.len();
            while open > 0 {
                let Ok(frame) = read_reply(&mut rd) else { break };
                let now = Instant::now();
                let Some((ty, id)) = header(&frame) else {
                    eprintln!("evalbench: unparseable reply frame");
                    break;
                };
                let Some(&i) = index.get(&id) else { continue };
                let mut st = states.lock().expect("outcome lock");
                let o = &mut st[i];
                if o.done.is_some() {
                    continue;
                }
                match ty {
                    "accepted" => continue,
                    "batch" => {
                        o.first_batch.get_or_insert(now);
                        o.batches.push(frame);
                        continue;
                    }
                    "error" => {
                        let code = Json::parse(&String::from_utf8_lossy(&frame))
                            .ok()
                            .and_then(|j| j.get("code").and_then(Json::as_u64));
                        o.error = Some(code.unwrap_or(0));
                    }
                    _ => o.reply = Some(frame),
                }
                o.done = Some(now);
                open -= 1;
            }
            let _ = finished_tx.send(());
        });
        let mut w = stream;
        for (i, r) in reqs.iter().enumerate() {
            let due = start + r.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // One write per frame: prefix and payload leave together.
            let sent = w.write_all(&r.frame);
            let at = Instant::now();
            states.lock().expect("outcome lock")[i].sent = Some(at);
            if sent.is_err() {
                break;
            }
        }
        if finished_rx.recv_timeout(DRAIN).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    });
    states.into_inner().expect("outcome lock")
}

/// Checks each sweep response of an exchange byte for byte against
/// `expected`, and frees its frames.
fn check(reqs: &[Req], out: &mut [Outcome], expected: &Expected) {
    for (r, o) in reqs.iter().zip(out) {
        let batches = std::mem::take(&mut o.batches);
        o.ok = r.sweep
            && o.reply.as_ref().is_some_and(|done| expected.response_ok(r.id, &batches, done));
    }
}

/// A running `javaflow-serve` child.
pub struct Server {
    child: Child,
    pub pid: String,
    pub stream: TcpStream,
    /// Held so the child's later stdout writes never meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Collects the child's per-request span log lines (`--log-json`).
    spans: Option<JoinHandle<Vec<String>>>,
    next_control: u64,
}

impl Server {
    /// Spawns the server on an ephemeral port and connects to it.
    pub fn spawn(bin: &Path, log_json: bool) -> std::io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--batch-records", &BATCH_RECORDS.to_string()]);
        cmd.args(["--threads", &SERVER_THREADS.to_string()]);
        if log_json {
            cmd.arg("--log-json");
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        cmd.stderr(if log_json { Stdio::piped() } else { Stdio::null() });
        let mut child = cmd.spawn()?;
        let spans = child.stderr.take().map(|err| {
            std::thread::spawn(move || {
                BufReader::new(err)
                    .lines()
                    .map_while(Result::ok)
                    .filter(|l| l.starts_with("{\"event\":\"request\""))
                    .collect()
            })
        });
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("javaflow-serve listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!("unexpected server banner `{line}`")));
        };
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let pid = child.id().to_string();
        Ok(Server { child, pid, stream, _stdout: stdout, spans, next_control: 1 << 40 })
    }

    /// The server's `metrics` frame, parsed.
    pub fn metrics(&mut self) -> Option<Json> {
        self.next_control += 1;
        let out = exchange(&self.stream, &[Req::control(self.next_control, "metrics")]);
        out[0].reply.as_ref().and_then(|f| Json::parse(&String::from_utf8_lossy(f)).ok())
    }

    /// Drains and stops the server; returns its span log lines.
    pub fn stop(mut self) -> Vec<String> {
        self.next_control += 1;
        exchange(&self.stream, &[Req::control(self.next_control, "shutdown")]);
        let _ = self.stream.shutdown(Shutdown::Both);
        let deadline = Instant::now() + Duration::from_secs(30);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            eprintln!("evalbench: server did not drain; killing it");
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.spans.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default()
    }
}

/// Id of the warm-up request; window requests count up from 1.
pub const WARMUP_ID: u64 = 1 << 32;

/// The warm-up: one request, which fills the prepared-population and
/// compiled-schedule caches for the mix's key.
pub fn warm_req(mix: &Mix) -> Req {
    Req::sweep(WARMUP_ID, &mix.key, Duration::ZERO)
}

/// The measured window's requests: Poisson arrivals at the mix's rate.
pub fn schedule(mix: &Mix, seconds: f64, rng: &mut Rng) -> Vec<Req> {
    let n = (mix.rate * seconds).round().max(1.0) as u64;
    let mut at = 0.0;
    (1..=n)
        .map(|id| {
            at += rng.exp_gap(mix.rate);
            Req::sweep(id, &mix.key, Duration::from_secs_f64(at))
        })
        .collect()
}

pub fn count_failures(r: &mut RunResult, outcomes: &[Outcome]) {
    for o in outcomes {
        r.record(o.succeeded());
        if let Some(code) = o.error {
            eprintln!("evalbench: request refused or failed with {code}");
        } else if o.done.is_some() && !o.ok {
            eprintln!("evalbench: response differs from the in-process evaluation");
        }
    }
}

/// Client-side summary of a window, for the run context.
fn window_context(out: &[Outcome]) -> String {
    let lat: Vec<f64> = out.iter().map(Outcome::latency_ms).collect();
    let p90 = quantile(&lat, 0.9);
    let late: Vec<f64> = out.iter().map(Outcome::lateness_ms).collect();
    format!(
        ", \"requests\": {}, \"latency_mean_ms\": {:.3}, \"latency_p90_ms\": {p90:.3}, \"beyond_p90\": {}, \
         \"first_batch_p50_ms\": {:.3}, \"lateness_p90_ms\": {:.3}, \"lateness_max_ms\": {:.3}",
        out.len(),
        mean(&lat),
        lat.iter().filter(|&&l| l > p90).count(),
        median(&out.iter().map(Outcome::first_batch_ms).collect::<Vec<_>>()),
        quantile(&late, 0.9),
        late.iter().copied().fold(0.0, f64::max),
    )
}

/// The untraced run: set-up [`SETUPS`] times (spawn until the warm-up is
/// answered), then the open-loop window against the last server.
pub fn run(bin: &Path, mix: &Mix, seed: u64, seconds: f64) -> RunResult {
    let mut r = RunResult::default();
    let mut rng = Rng::new(seed);
    let expected = Expected::of(&mix.key);
    let mut setup = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let s = Server::spawn(bin, false).expect("spawn javaflow-serve");
        let warm = [warm_req(mix)];
        let mut out = exchange(&s.stream, &warm);
        setup.push(started.elapsed().as_secs_f64());
        check(&warm, &mut out, &expected);
        count_failures(&mut r, &out);
        if k + 1 < SETUPS {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let reqs = schedule(mix, seconds, &mut rng);
    let cpu0 = cpu_secs(&server.pid);
    let mut out = exchange(&server.stream, &reqs);
    let cpu = cpu_secs(&server.pid) - cpu0;
    let rss = peak_rss_mb(&server.pid);
    server.stop();
    check(&reqs, &mut out, &expected);
    count_failures(&mut r, &out);
    let lat: Vec<f64> = out.iter().map(Outcome::latency_ms).collect();
    r.metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("op_p50_ms", median(&lat), "ms"),
        Metric::new("rss_mb", rss, "MB"),
    ];
    r.context = format!(
        ", \"setup_s\": {setup:?}, \"server_cpu_ms_per_request\": {:.3}{}",
        cpu / out.len() as f64 * 1e3,
        window_context(&out)
    );
    r
}

/// Per-request server phases from the span log, for window requests.
struct Spans {
    /// Mean per phase, ms, over the spans that reached it: read, parse,
    /// queue, prepare, execute, stream. `NaN` for a phase no span reached.
    phase_ms: [f64; 6],
    /// `total_us` by request id.
    total_ms: HashMap<u64, f64>,
}

fn parse_spans(lines: &[String], ids: impl Fn(u64) -> bool) -> Spans {
    const PHASES: [&str; 6] =
        ["read_us", "parse_us", "queue_us", "prepare_us", "execute_us", "stream_us"];
    let mut per_phase: [Vec<f64>; 6] = Default::default();
    let mut total_ms = HashMap::new();
    for line in lines {
        let Ok(j) = Json::parse(line) else { continue };
        let Some(id) = j.get("id").and_then(Json::as_u64) else { continue };
        if j.get("kind").and_then(Json::as_str) != Some("sweep") || !ids(id) {
            continue;
        }
        for (p, name) in PHASES.iter().enumerate() {
            if let Some(us) = j.get(name).and_then(Json::as_u64) {
                per_phase[p].push(us as f64 / 1e3);
            }
        }
        if let Some(us) = j.get("total_us").and_then(Json::as_u64) {
            total_ms.insert(id, us as f64 / 1e3);
        }
    }
    let phase_ms = per_phase.map(|v| if v.is_empty() { f64::NAN } else { mean(&v) });
    Spans { phase_ms, total_ms }
}

/// The server layer in a traced run: what the server's own instruments
/// (metrics frames around the window, per-request span log) say about
/// the requests `reqs`.
pub struct ServerLayer {
    pub phase_ms: [f64; 6],
    pub coalesce_ratio: f64,
    pub unaccounted_ms: f64,
    /// Window requests with a span log line carrying `total_us`.
    pub spans: usize,
    pub outcomes: Vec<Outcome>,
}

/// Runs `reqs` against a fresh traced server after `warm` (sent and
/// awaited first, unmeasured), then reads the server's own accounting.
pub fn server_layer(bin: &Path, warm: &Req, reqs: &[Req], expected: &Expected) -> ServerLayer {
    let mut server = Server::spawn(bin, true).expect("spawn javaflow-serve");
    let warm = std::slice::from_ref(warm);
    let mut outcomes = exchange(&server.stream, warm);
    check(warm, &mut outcomes, expected);
    let counters = |m: &Option<Json>| {
        let s = m.as_ref().and_then(|j| j.get("server"));
        let get = |k| s.and_then(|s| s.get(k)).and_then(Json::as_u64).unwrap_or(0) as f64;
        (get("accepted"), get("sweeps"))
    };
    let before = counters(&server.metrics());
    let mut out = exchange(&server.stream, reqs);
    let after = counters(&server.metrics());
    let lines = server.stop();
    check(reqs, &mut out, expected);
    let ids: std::collections::HashSet<u64> = reqs.iter().map(|r| r.id).collect();
    let spans = parse_spans(&lines, |id| ids.contains(&id));
    let gaps: Vec<f64> = reqs
        .iter()
        .zip(&out)
        .filter_map(|(r, o)| {
            let client = o.done?.duration_since(o.sent?).as_secs_f64() * 1e3;
            Some(client - spans.total_ms.get(&r.id)?)
        })
        .collect();
    outcomes.extend(out);
    ServerLayer {
        phase_ms: spans.phase_ms,
        coalesce_ratio: (after.0 - before.0) / (after.1 - before.1).max(1.0),
        unaccounted_ms: mean(&gaps),
        spans: spans.total_ms.len(),
        outcomes,
    }
}
