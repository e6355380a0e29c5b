//! The traced run: per-layer numbers from the benchmark's own timers and
//! the counting allocator, around calls into each layer's public
//! functions.
//!
//! The in-process pipeline repeats `core::harness::eval_prepared`'s call
//! sequence — prepare, verify + CFG, place, simulate — record by record
//! on the same work-stealing scheduler, then assembles and renders the
//! tables. Its reports must equal [`Evaluation::run`]'s, so the trace
//! measures the same program.

use std::sync::Mutex;
use std::time::Instant;

use javaflow_bytecode::{verify, Cfg};
use javaflow_core::parallel::sweep_ordered;
use javaflow_core::{
    population, EvalConfig, Evaluation, MethodRecord, MethodStatics, PreparedPopulation, Sample,
};
use javaflow_fabric::{
    execute_in, place, prepare, resolve, ArenaPool, BranchMode, ExecParams, FabricConfig, NetKind,
    Outcome, SimArena,
};
use javaflow_server::protocol::expected_batch_payloads;

use crate::alloc::{self, Layer, LAYERS};
use crate::serve::{BATCH_RECORDS, SERVER_THREADS};
use crate::util::median;

/// Per-worker layer accumulators, merged when the worker finishes.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    bytecode_s: f64,
    prepare_s: f64,
    place_s: f64,
    sim_s: f64,
    events: u64,
    skipped: u64,
    hops: u64,
    stall: u64,
    max_queue: u64,
    /// Returned, deadlock, timeout, exception.
    outcomes: [u64; 4],
}

impl Acc {
    fn add(&mut self, o: &Acc) {
        self.bytecode_s += o.bytecode_s;
        self.prepare_s += o.prepare_s;
        self.place_s += o.place_s;
        self.sim_s += o.sim_s;
        self.events += o.events;
        self.skipped += o.skipped;
        self.hops += o.hops;
        self.stall += o.stall;
        self.max_queue = self.max_queue.max(o.max_queue);
        for (a, b) in self.outcomes.iter_mut().zip(o.outcomes) {
            *a += b;
        }
    }
}

/// Times `f` into `*secs` with this thread's allocations tagged `layer`.
fn timed<R>(layer: Layer, secs: &mut f64, f: impl FnOnce() -> R) -> R {
    let _tag = alloc::enter(layer);
    let started = Instant::now();
    let r = f();
    *secs += started.elapsed().as_secs_f64();
    r
}

/// `eval_record` → `eval_prepared`, call for call, with each layer timed.
#[allow(clippy::too_many_arguments)]
fn traced_record(
    ri: usize,
    rec: &MethodRecord,
    configs: &[FabricConfig],
    max_mesh_cycles: u64,
    fast_forward: bool,
    compiled: bool,
    arena: &mut SimArena,
    acc: &mut Acc,
) -> (MethodStatics, Vec<Sample>) {
    let _tag = alloc::enter(Layer::Harness);
    let prepared = timed(Layer::Prepare, &mut acc.prepare_s, || prepare(&rec.method).ok());
    let (v, g) = timed(Layer::Bytecode, &mut acc.bytecode_s, || {
        (verify(&rec.method).expect("population verifies"), Cfg::build(&rec.method))
    });
    let resolve_stats = match &prepared {
        Some(p) => p.resolved.stats.clone(),
        None => timed(Layer::Prepare, &mut acc.prepare_s, || {
            resolve(&rec.method).expect("population resolves").stats
        }),
    };
    let mut span_ratio = Vec::with_capacity(configs.len());
    let mut loadable = Vec::with_capacity(configs.len());
    let mut placements = Vec::with_capacity(configs.len());
    for fc in configs {
        match timed(Layer::Place, &mut acc.place_s, || place(&rec.method, fc)) {
            Ok(p) => {
                span_ratio.push(p.span_ratio());
                loadable.push(true);
                placements.push(Some(p));
            }
            Err(_) => {
                span_ratio.push(f64::NAN);
                loadable.push(false);
                placements.push(None);
            }
        }
    }
    let statics = MethodStatics {
        static_len: rec.method.len(),
        max_locals: rec.method.max_locals,
        max_stack: v.max_stack,
        resolve: resolve_stats,
        fwd_jumps: g.forward_jump_stats(),
        back_jumps: g.back_jump_stats(),
        span_ratio,
        loadable,
    };
    let mut samples = Vec::new();
    if let Some(prepared) = prepared {
        for (ci, fc) in configs.iter().enumerate() {
            let Some(placement) = placements[ci].take() else { continue };
            let loaded =
                timed(Layer::Place, &mut acc.place_s, || prepared.with_placement(placement));
            for bp in [BranchMode::Bp1, BranchMode::Bp2] {
                let params = ExecParams {
                    mode: bp,
                    max_mesh_cycles,
                    fast_forward,
                    compiled,
                    ..ExecParams::default()
                };
                let report =
                    timed(Layer::Sim, &mut acc.sim_s, || execute_in(&loaded, fc, params, arena));
                acc.events += report.events;
                acc.skipped += report.events_skipped;
                if let Some(net) = &report.net {
                    acc.hops += net.mesh_hops;
                    acc.stall += net.stall_ticks;
                    acc.max_queue = acc.max_queue.max(net.max_queue_depth);
                }
                acc.outcomes[match report.outcome {
                    Outcome::Returned(_) => 0,
                    Outcome::Deadlock => 1,
                    Outcome::Timeout => 2,
                    Outcome::Exception(_) => 3,
                }] += 1;
                let ok = matches!(report.outcome, Outcome::Returned(_));
                samples.push(Sample { record: ri, config: ci, bp, report, ok });
            }
        }
    }
    (statics, samples)
}

/// Sample equality that treats identical NaNs (a method may return a
/// NaN double) as equal: the `Debug` rendering shows every field.
fn same_samples(a: &[Sample], b: &[Sample]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| format!("{x:?}") == format!("{y:?}"))
}

fn allocs_total() -> u64 {
    alloc::counts().iter().sum()
}

/// Layer totals over the key a workload sweeps.
#[derive(Debug, Default)]
pub struct Layers {
    acc: Acc,
    population_s: f64,
    assemble_s: f64,
    render_s: f64,
    /// Untraced (warm) sweep + render time, and the traced pipeline's.
    untraced_s: f64,
    traced_s: f64,
    allocs: [u64; LAYERS],
    untraced_allocs: u64,
    samples: u64,
    busy_s: f64,
    capacity_s: f64,
    steals: u64,
    imbalance_s: f64,
    /// Self-checks: traced reports and tables equal the untraced run's.
    pub reports_equal: bool,
    pub tables_equal: bool,
}

/// Sweeps one key untraced, traced, and untraced again; returns the
/// untraced evaluation and its rendered tables.
pub fn pipeline(synthetic: usize, net: NetKind, l: &mut Layers) -> (Evaluation, String) {
    let cfg = EvalConfig { synthetic_count: synthetic, net, ..EvalConfig::default() };
    // Returns the evaluation, its tables, the sweep's and the sweep plus
    // render's wall time, and the allocations of both.
    let untraced = || {
        let a0 = allocs_total();
        let started = Instant::now();
        let eval = Evaluation::run(&cfg);
        let sweep_s = started.elapsed().as_secs_f64();
        let tables = crate::sweep::render(&eval);
        (eval, tables, sweep_s, started.elapsed().as_secs_f64(), allocs_total() - a0)
    };
    // The first sweep in the process is cold; the second untraced one is
    // the baseline the traced pipeline is compared with.
    drop(untraced());

    let a0 = alloc::counts();
    let started = Instant::now();
    let records = timed(Layer::Population, &mut l.population_s, || population(synthetic));
    let configs: Vec<FabricConfig> = cfg.configs.iter().map(|c| c.clone().with_net(net)).collect();
    // `harness::cost_schedule` without a persisted profile: descending
    // static length, ties by index.
    let mut schedule: Vec<u32> = (0..records.len() as u32).collect();
    schedule.sort_by(|&a, &b| {
        records[b as usize].len().cmp(&records[a as usize].len()).then(a.cmp(&b))
    });
    let pool = ArenaPool::global();
    let merged = Mutex::new(Acc::default());
    let swept = sweep_ordered(
        &records,
        cfg.threads,
        &schedule,
        || (pool.checkout(), Acc::default()),
        |(arena, acc)| {
            pool.checkin(arena);
            merged.lock().expect("accumulator lock").add(&acc);
        },
        |(arena, acc), ri, rec| {
            traced_record(
                ri,
                rec,
                &configs,
                cfg.max_mesh_cycles,
                cfg.fast_forward,
                cfg.compiled,
                arena,
                acc,
            )
        },
    );
    let eval = timed(Layer::Harness, &mut l.assemble_s, || {
        Evaluation::assemble(records, configs, swept.results, swept.stats)
    });
    let tables = timed(Layer::Tables, &mut l.render_s, || crate::sweep::render(&eval));
    l.traced_s += started.elapsed().as_secs_f64();
    let a1 = alloc::counts();
    for (i, a) in l.allocs.iter_mut().enumerate() {
        *a += a1[i] - a0[i];
    }
    l.acc.add(&merged.into_inner().expect("accumulator lock"));

    let (base, base_tables, sweep_s, base_s, base_allocs) = untraced();
    l.untraced_s += base_s;
    l.untraced_allocs += base_allocs;
    l.samples += base.samples.len() as u64;
    let busy: Vec<f64> = base.sweep.workers.iter().map(|w| w.busy_secs).collect();
    l.busy_s += busy.iter().sum::<f64>();
    l.capacity_s += base.sweep.threads_used as f64 * sweep_s;
    l.steals += base.sweep.workers.iter().map(|w| w.steals).sum::<u64>();
    l.imbalance_s += busy.iter().copied().fold(f64::MIN, f64::max)
        - busy.iter().copied().fold(f64::MAX, f64::min);
    l.reports_equal &= same_samples(&eval.samples, &base.samples);
    l.tables_equal &= tables == base_tables;
    (base, base_tables)
}

impl Layers {
    pub fn new() -> Layers {
        Layers { reports_equal: true, tables_equal: true, ..Layers::default() }
    }

    /// Whether the per-layer allocation counts add up to the untraced
    /// sweep's own total (within 1%: arena growth depends on which worker
    /// ran which record).
    pub fn allocs_add_up(&self) -> bool {
        let traced: u64 = self.allocs.iter().sum();
        (traced as f64 - self.untraced_allocs as f64).abs() <= 0.01 * self.untraced_allocs as f64
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let a = &self.acc;
        let n = |l: Layer| self.allocs[l as usize] as f64;
        vec![
            ("population.build_s", self.population_s, "s"),
            ("population.allocs", n(Layer::Population), "count"),
            ("bytecode.verify_s", a.bytecode_s, "s"),
            ("bytecode.allocs", n(Layer::Bytecode), "count"),
            ("fabric.prepare_s", a.prepare_s, "s"),
            ("fabric.prepare_allocs", n(Layer::Prepare), "count"),
            ("fabric.place_s", a.place_s, "s"),
            ("fabric.place_allocs", n(Layer::Place), "count"),
            ("fabric.sim_s", a.sim_s, "s"),
            ("fabric.sim_ns_per_event", a.sim_s * 1e9 / a.events.max(1) as f64, "ns"),
            ("fabric.events", a.events as f64, "count"),
            ("fabric.events_skipped", a.skipped as f64, "count"),
            ("fabric.sim_allocs", n(Layer::Sim), "count"),
            ("net.mesh_hops", a.hops as f64, "count"),
            ("net.stall_ticks", a.stall as f64, "count"),
            ("net.max_queue_depth", a.max_queue as f64, "count"),
            ("fabric.runs_returned", a.outcomes[0] as f64, "count"),
            ("fabric.runs_deadlock", a.outcomes[1] as f64, "count"),
            ("fabric.runs_timeout", a.outcomes[2] as f64, "count"),
            ("parallel.utilization", self.busy_s / self.capacity_s, "ratio"),
            ("parallel.steals", self.steals as f64, "count"),
            ("parallel.imbalance_s", self.imbalance_s, "s"),
            ("parallel.allocs", n(Layer::Other), "count"),
            ("harness.assemble_s", self.assemble_s, "s"),
            ("harness.allocs", n(Layer::Harness), "count"),
            (
                "harness.allocs_per_sample",
                self.untraced_allocs as f64 / self.samples as f64,
                "count",
            ),
            ("tables.render_s", self.render_s, "s"),
            ("tables.allocs", n(Layer::Tables), "count"),
            ("trace.overhead_pct", (self.traced_s / self.untraced_s - 1.0) * 100.0, "%"),
        ]
    }
}

/// The resident-service layers: `core::service` preparation and batched
/// sweeps, `fabric::compile` record and replay, `server::protocol`
/// encoding.
#[derive(Debug, Default)]
pub struct Service {
    prepare_s: f64,
    record_ms: f64,
    replay_ms: f64,
    batch_ms: Vec<f64>,
    retained_bytes: f64,
    encode_ms: f64,
    bytes: f64,
}

impl Service {
    /// Prepares `synthetic` once, then runs one compiled sweep that
    /// records every schedule and one that replays them, in batches as
    /// the server streams them and on as many threads; then encodes the
    /// batch payloads.
    pub fn key(&mut self, synthetic: usize, net: NetKind) {
        let cfg = EvalConfig {
            synthetic_count: synthetic,
            net,
            compiled: true,
            threads: SERVER_THREADS,
            ..EvalConfig::default()
        };
        let started = Instant::now();
        let pop = PreparedPopulation::prepare(synthetic, cfg.threads);
        self.prepare_s += started.elapsed().as_secs_f64();

        let live0 = alloc::live_bytes();
        let started = Instant::now();
        let recorded = pop.evaluate_batched(&cfg, BATCH_RECORDS, |_, _| true);
        self.record_ms += started.elapsed().as_secs_f64() * 1e3;
        drop(recorded);
        self.retained_bytes += (alloc::live_bytes() - live0) as f64;

        let started = Instant::now();
        let mut mark = started;
        let replayed = pop
            .evaluate_batched(&cfg, BATCH_RECORDS, |_, _| {
                self.batch_ms.push(mark.elapsed().as_secs_f64() * 1e3);
                mark = Instant::now();
                true
            })
            .expect("an always-continue sweep completes");
        self.replay_ms += started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let payloads = expected_batch_payloads(&replayed, BATCH_RECORDS);
        self.encode_ms += started.elapsed().as_secs_f64() * 1e3;
        self.bytes += payloads.iter().map(|(_, p)| p.len() as f64).sum::<f64>();
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("service.prepare_s", self.prepare_s, "s"),
            ("service.batch_ms", median(&self.batch_ms), "ms"),
            ("compile.record_ms", self.record_ms, "ms"),
            ("compile.replay_ms", self.replay_ms, "ms"),
            ("compile.retained_mb_per_key", self.retained_bytes / (1 << 20) as f64, "MB"),
            ("protocol.encode_ms", self.encode_ms, "ms"),
            ("protocol.bytes_per_req", self.bytes, "bytes"),
        ]
    }
}
