//! The Chapter-7 sweep workload: `Evaluation::run` plus tables 9–28 at
//! synthetic 1500, on the program's default thread count, on the ideal
//! net and then on the contended net.

use std::process::Command;
use std::time::{Duration, Instant};

use javaflow_core::tables::chapter7_tables;
use javaflow_core::{EvalConfig, Evaluation};
use javaflow_fabric::{NetKind, Outcome};

use crate::util::{cpu_secs, fnv1a, median, peak_rss_mb};
use crate::{Metric, RunResult};

/// Synthetic-population size of the dissertation's evaluation: 1595
/// methods × 6 configurations × BP-1/BP-2 = 19140 scripted runs.
pub const SYNTHETIC: usize = 1500;

/// Reference digests and outcome counts, one line per net.
const REFERENCE: &str = include_str!("../reference.txt");

/// The two halves of one operation, each with the label of its
/// reference line: the sweep on the ideal net (the fast-forward kernel)
/// and on the contended net (X-Y routers and slotted rings on the naive
/// walk, where fast-forward and compilation decline).
pub const NETS: [(&str, NetKind); 2] =
    [("sweep_ideal", NetKind::Ideal), ("sweep_contended", NetKind::Contended)];

/// Cold one-shot processes timed as set-up per run.
const COLD_PROCESSES: usize = 3;

/// Warm operations a run always measures, however short `--seconds` is.
const MIN_WARM_OPS: usize = 3;

pub fn config(net: NetKind) -> EvalConfig {
    EvalConfig { synthetic_count: SYNTHETIC, net, ..EvalConfig::default() }
}

/// Tables 9–28, the Chapter-7 results the sweep exists to produce.
pub fn render(eval: &Evaluation) -> String {
    (9..=28).map(|t| chapter7_tables(eval, t)).collect::<Vec<_>>().join("\n")
}

/// Run outcomes `(returned, deadlock, timeout, exception)`.
pub fn outcomes(eval: &Evaluation) -> [u64; 4] {
    let mut n = [0u64; 4];
    for s in &eval.samples {
        n[match s.report.outcome {
            Outcome::Returned(_) => 0,
            Outcome::Deadlock => 1,
            Outcome::Timeout => 2,
            Outcome::Exception(_) => 3,
        }] += 1;
    }
    n
}

/// The reference line for `workload`, as `digest_of` would print it.
fn reference(workload: &str) -> &'static str {
    REFERENCE
        .lines()
        .find(|l| l.split_whitespace().next() == Some(workload))
        .unwrap_or_else(|| panic!("no reference line for {workload}"))
}

/// One line naming the workload, the tables digest, and the outcomes.
pub fn digest_of(workload: &str, eval: &Evaluation, tables: &str) -> String {
    let [returned, deadlock, timeout, exception] = outcomes(eval);
    format!(
        "{workload} tables={:016x} returned={returned} deadlock={deadlock} timeout={timeout} exception={exception}",
        fnv1a(tables.as_bytes())
    )
}

/// Whether a sweep's output matches the committed reference.
pub fn check(workload: &str, eval: &Evaluation, tables: &str) -> bool {
    let got = digest_of(workload, eval, tables);
    let ok = got == reference(workload);
    if !ok {
        eprintln!(
            "evalbench: {workload} output mismatch\n  got      {got}\n  expected {}",
            reference(workload)
        );
    }
    ok
}

/// One sweep: evaluate, render, check. Returns (wall, cpu, correct).
fn sweep_once(label: &str, net: NetKind) -> (Duration, f64, bool) {
    let cpu0 = cpu_secs("self");
    let started = Instant::now();
    let eval = Evaluation::run(&config(net));
    let tables = render(&eval);
    let wall = started.elapsed();
    let cpu = cpu_secs("self") - cpu0;
    (wall, cpu, check(label, &eval, &tables))
}

/// `--cold`: the one-shot `tables --synthetic 1500` path — a fresh
/// process, one sweep on the ideal net.
pub fn cold() -> bool {
    let (label, net) = NETS[0];
    sweep_once(label, net).2
}

/// A cold one-shot process, from spawn to exit, in seconds.
fn cold_process(r: &mut RunResult) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let started = Instant::now();
    let ok = Command::new(exe)
        .args(["--workload", "sweep", "--cold"])
        .status()
        .is_ok_and(|s| s.success());
    r.record(ok);
    started.elapsed().as_secs_f64()
}

/// The untraced run. One operation is a warm sweep on each net. The
/// window runs operations back to back for `seconds`; the cold
/// processes timed as set-up run between operations, spread over the
/// window, so that set-up and operations sample the same host phases.
pub fn run(seconds: f64) -> RunResult {
    let mut r = RunResult::default();
    // This process's first sweeps are cold too; they warm the arena
    // pool and are not timed.
    for (label, net) in NETS {
        r.record(sweep_once(label, net).2);
    }

    let window = Instant::now();
    let mut setup = Vec::new();
    let (mut ops, mut halves, mut cpus) = (Vec::new(), [Vec::new(), Vec::new()], Vec::new());
    while ops.len() < MIN_WARM_OPS
        || setup.len() < COLD_PROCESSES
        || window.elapsed().as_secs_f64() + median(&ops) <= seconds
    {
        let due = seconds * setup.len() as f64 / COLD_PROCESSES as f64;
        if setup.len() < COLD_PROCESSES && window.elapsed().as_secs_f64() >= due {
            setup.push(cold_process(&mut r));
        }
        let (mut wall, mut cpu) = (0.0, 0.0);
        for (half, (label, net)) in halves.iter_mut().zip(NETS) {
            let (w, c, ok) = sweep_once(label, net);
            r.record(ok);
            half.push(w.as_secs_f64());
            wall += w.as_secs_f64();
            cpu += c;
        }
        ops.push(wall);
        cpus.push(cpu);
    }
    r.metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("op_p50_ms", median(&ops) * 1e3, "ms"),
        Metric::new("rss_mb", peak_rss_mb("self"), "MB"),
    ];
    r.context = format!(
        ", \"cold_setup_s\": {setup:?}, \"op_s\": {ops:?}, \"ideal_s\": {:?}, \"contended_s\": {:?}, \
         \"cpu_ms_per_op\": {:.3}",
        halves[0],
        halves[1],
        cpus.iter().sum::<f64>() / ops.len() as f64 * 1e3
    );
    r
}
