//! `evalbench`: the end-to-end and per-layer benchmark of the Chapter-7
//! sweep and of `javaflow-serve`.
//!
//! ```text
//! evalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `sweep` (the `tables --synthetic 1500` batch on the ideal
//! net, then on the contended net) and `serve_warm` (an open-loop
//! request stream against a `javaflow-serve` child found next to this
//! executable). `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer ones. Every output is checked; the last
//! stdout line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and the exit code is non-zero if any check failed.

mod alloc;
mod serve;
mod sweep;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::serve::{Expected, Key, Req};
use crate::traced::{Layers, Service};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A run's outcome: operations attempted and failed, self-checks, the
/// metrics, and extra context fields (a JSON fragment).
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
    pub context: String,
}

impl Default for RunResult {
    fn default() -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            checks_ok: true,
            metrics: Vec::new(),
            context: String::new(),
        }
    }
}

impl RunResult {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks_ok
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Which end-to-end metric each per-layer metric should move, and on
/// which workloads. Later changes cite these pairs by name.
const LAYER_MAP: &[(&str, &str)] = &[
    ("population.build_s", "setup_s on sweep, serve_warm; op_p50_ms slightly on sweep"),
    ("population.allocs", "setup_s on sweep, serve_warm; op_p50_ms slightly on sweep"),
    ("bytecode.verify_s", "op_p50_ms on sweep"),
    ("bytecode.allocs", "op_p50_ms on sweep"),
    ("fabric.prepare_s", "op_p50_ms on sweep (re-prepared every sweep); setup_s on serve_warm"),
    ("fabric.prepare_allocs", "op_p50_ms on sweep; setup_s on serve_warm"),
    ("fabric.place_s", "op_p50_ms on sweep"),
    ("fabric.place_allocs", "op_p50_ms on sweep"),
    ("fabric.sim_s", "op_p50_ms on sweep"),
    ("fabric.sim_ns_per_event", "op_p50_ms on sweep"),
    ("fabric.events", "op_p50_ms on sweep"),
    (
        "fabric.events_skipped",
        "op_p50_ms on sweep (ideal half, fast-forward); setup_s on serve_warm (recording)",
    ),
    ("fabric.sim_allocs", "op_p50_ms on sweep"),
    ("net.mesh_hops", "op_p50_ms on sweep (contended half only)"),
    ("net.stall_ticks", "op_p50_ms on sweep (contended half only)"),
    ("net.max_queue_depth", "op_p50_ms on sweep (contended half only)"),
    ("fabric.runs_returned", "nothing; correctness only"),
    ("fabric.runs_deadlock", "nothing; correctness only"),
    ("fabric.runs_timeout", "nothing; correctness only"),
    ("parallel.utilization", "op_p50_ms on sweep"),
    ("parallel.steals", "op_p50_ms on sweep"),
    ("parallel.imbalance_s", "op_p50_ms on sweep"),
    ("parallel.allocs", "op_p50_ms on sweep"),
    ("harness.assemble_s", "op_p50_ms on sweep"),
    ("harness.allocs", "op_p50_ms on sweep"),
    ("harness.allocs_per_sample", "op_p50_ms on sweep"),
    ("tables.render_s", "op_p50_ms on sweep"),
    ("tables.allocs", "op_p50_ms on sweep"),
    ("trace.overhead_pct", "nothing; the cost of tracing"),
    ("service.prepare_s", "setup_s on serve_warm"),
    ("service.batch_ms", "op_p50_ms on serve_warm"),
    ("compile.record_ms", "setup_s on serve_warm"),
    ("compile.replay_ms", "op_p50_ms on serve_warm"),
    ("compile.retained_mb_per_key", "rss_mb on serve_warm"),
    ("protocol.encode_ms", "op_p50_ms on serve_warm"),
    ("protocol.bytes_per_req", "op_p50_ms on serve_warm"),
    ("server.read_ms", "op_p50_ms on serve_warm"),
    ("server.queue_ms", "op_p50_ms on serve_warm (tail first)"),
    ("server.execute_ms", "op_p50_ms on serve_warm"),
    ("server.stream_ms", "op_p50_ms on serve_warm"),
    ("server.coalesce_ratio", "op_p50_ms on serve_warm"),
    ("server.unaccounted_ms", "op_p50_ms on serve_warm"),
];

enum Kind {
    Sweep,
    Serve(serve::Mix),
}

fn kind(workload: &str) -> Option<Kind> {
    Some(match workload {
        "sweep" => Kind::Sweep,
        "serve_warm" => Kind::Serve(serve::warm_mix()),
        _ => return None,
    })
}

/// The traced run: the in-process pipeline and service layers for the
/// keys the workload sweeps, then the server's own accounting of the
/// workload's requests (on `sweep`, of one ideal-net sweep request).
fn traced(kind: &Kind, seed: u64, seconds: f64, bin: &Path) -> RunResult {
    alloc::enable();
    let mut r = RunResult::default();
    let mut layers = Layers::new();
    let mut service = Service::default();
    let server = match kind {
        Kind::Sweep => {
            let mut ideal = None;
            for (label, net) in sweep::NETS {
                let (eval, tables) = traced::pipeline(sweep::SYNTHETIC, net, &mut layers);
                r.record(sweep::check(label, &eval, &tables));
                ideal.get_or_insert(eval);
            }
            let (_, net) = sweep::NETS[0];
            service.key(sweep::SYNTHETIC, net);
            let key = Key { synthetic: sweep::SYNTHETIC, net, compiled: false, tables: vec![] };
            let expected = Expected::new(&ideal.expect("an ideal-net sweep"), &key.tables);
            let warm = Req::sweep(serve::WARMUP_ID, &key, Duration::ZERO);
            let measured = [Req::sweep(1, &key, Duration::ZERO)];
            serve::server_layer(bin, &warm, &measured, &expected)
        }
        Kind::Serve(mix) => {
            let key = &mix.key;
            let (eval, _) = traced::pipeline(key.synthetic, key.net, &mut layers);
            service.key(key.synthetic, key.net);
            let expected = Expected::new(&eval, &key.tables);
            drop(eval);
            let reqs = serve::schedule(mix, seconds, &mut util::Rng::new(seed));
            serve::server_layer(bin, &serve::warm_req(mix), &reqs, &expected)
        }
    };
    serve::count_failures(&mut r, &server.outcomes);
    if !layers.reports_equal || !layers.tables_equal {
        eprintln!("evalbench: traced pipeline output differs from Evaluation::run");
        r.checks_ok = false;
    }
    if server.spans == 0 {
        eprintln!("evalbench: the server logged no span with `total_us` for a window request");
        r.checks_ok = false;
    }
    if !layers.allocs_add_up() {
        eprintln!("evalbench: per-layer allocations do not add up to the sweep's total");
        r.checks_ok = false;
    }
    let [read, _, queue, _, execute, stream] = server.phase_ms;
    let all = layers.metrics().into_iter().chain(service.metrics()).chain([
        ("server.read_ms", read, "ms"),
        ("server.queue_ms", queue, "ms"),
        ("server.execute_ms", execute, "ms"),
        ("server.stream_ms", stream, "ms"),
        ("server.coalesce_ratio", server.coalesce_ratio, "ratio"),
        ("server.unaccounted_ms", server.unaccounted_ms, "ms"),
    ]);
    r.metrics = all.map(|(name, value, unit)| Metric::new(name, value, unit)).collect();
    r
}

fn usage() -> ! {
    eprintln!(
        "usage: evalbench --workload <sweep|serve_warm> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let (mut cold, mut reference) = (false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--cold" => cold = true,
            "--reference" => reference = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let Some(kind) = kind(&workload) else { usage() };

    if let (true, Kind::Sweep) = (cold, &kind) {
        std::process::exit(i32::from(!sweep::cold()));
    }
    if let (true, Kind::Sweep) = (reference, &kind) {
        for (label, net) in sweep::NETS {
            let eval = javaflow_core::Evaluation::run(&sweep::config(net));
            println!("{}", sweep::digest_of(label, &eval, &sweep::render(&eval)));
        }
        return;
    }

    let exe = std::env::current_exe().expect("own executable path");
    let bin: PathBuf = exe.with_file_name("javaflow-serve");
    let result = match (&kind, trace) {
        (_, true) => traced(&kind, seed, seconds, &bin),
        (Kind::Sweep, false) => sweep::run(seconds),
        (Kind::Serve(mix), false) => serve::run(&bin, mix, seed, seconds),
    };

    for m in &result.metrics {
        let moves = LAYER_MAP.iter().find(|(n, _)| *n == m.name).map_or("", |(_, v)| v);
        let arrow = if moves.is_empty() { String::new() } else { format!("  → moves {moves}") };
        eprintln!("{:<30} {:>16.4} {:<6}{arrow}", m.name, m.value, m.unit);
    }
    println!("context {}", util::context_json(&workload, seed, &result.context));
    println!("{}", result.json());
    if !result.correct() {
        std::process::exit(1);
    }
}
