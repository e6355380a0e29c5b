//! Differential property tests for the optimized paths: on randomized
//! synthetic methods (the same generator the evaluation sweep runs), the
//! skip-index fast-forward and the report memo must report exactly the
//! cycle counts, stats, and outcome of the naive per-node walk, across
//! every configuration and scripted branch mode.
//!
//! Two counter families are exempt from strict equality by design:
//!
//! * `events` / `events_skipped` — the point of the optimizations; the
//!   naive walk must pop at least as many events as the fast walk, and the
//!   fast walk must actually skip some.
//! * `serial_msgs` / `mesh_msgs` / `relay_fires` — the fast walk commits a
//!   whole token route (or relay fan-out) at send time, while the naive
//!   walk books each hop as its event is processed; a run that terminates
//!   with tokens in flight therefore counts a few trailing hops only under
//!   fast-forward. The fast counters can never be *smaller*.
//!
//! The memo (`ExecParams::compiled`) has a stronger contract than the
//! naive one: a miss walks whichever path the caller requested and
//! stores that report, so a memoised run (cold miss or warm hit) must be
//! *fully* byte-identical to the plain run with the same `fast_forward`
//! setting — every counter, not just the observable ones.

use javaflow_fabric::{
    execute, load, BranchMode, ExecParams, ExecReport, FabricConfig, Gpp, SimArena,
};
use javaflow_workloads::synthetic::{generate, GenConfig};

fn run(
    loaded: &javaflow_fabric::LoadedMethod<'_>,
    fc: &FabricConfig,
    bp: BranchMode,
    ff: bool,
    compiled: bool,
) -> ExecReport {
    execute(
        loaded,
        fc,
        ExecParams {
            mode: bp,
            max_mesh_cycles: 250_000,
            gpp: Gpp::Stub,
            args: Vec::new(),
            fast_forward: ff,
            compiled,
        },
    )
}

/// Asserts the observable parts of two reports are identical, and the
/// event/in-flight counters satisfy the fast-forward contract.
#[allow(clippy::float_cmp)] // both sides compute the same exact division
fn assert_equivalent(fast: &ExecReport, naive: &ExecReport, ctx: &str) {
    assert_eq!(fast.outcome, naive.outcome, "{ctx}: outcome");
    assert_eq!(fast.mesh_cycles, naive.mesh_cycles, "{ctx}: mesh_cycles");
    assert_eq!(fast.executed, naive.executed, "{ctx}: executed");
    assert_eq!(fast.static_covered, naive.static_covered, "{ctx}: static_covered");
    assert_eq!(fast.coverage, naive.coverage, "{ctx}: coverage");
    assert_eq!(fast.ipc, naive.ipc, "{ctx}: ipc");
    assert_eq!(fast.frac_cycles_ge1, naive.frac_cycles_ge1, "{ctx}: frac_cycles_ge1");
    assert_eq!(fast.frac_cycles_ge2, naive.frac_cycles_ge2, "{ctx}: frac_cycles_ge2");
    assert_eq!(fast.net, naive.net, "{ctx}: net report");
    assert!(fast.events <= naive.events, "{ctx}: fast walk popped more events");
    assert!(
        fast.serial_msgs >= naive.serial_msgs,
        "{ctx}: fast walk lost serial sends ({} < {})",
        fast.serial_msgs,
        naive.serial_msgs
    );
    assert!(fast.mesh_msgs >= naive.mesh_msgs, "{ctx}: fast walk lost mesh sends");
    assert!(fast.relay_fires >= naive.relay_fires, "{ctx}: fast walk lost relay fires");
    assert_eq!(naive.events_skipped, 0, "{ctx}: naive walk must not skip");
}

#[test]
fn memo_and_fast_forward_match_naive_walk_on_random_methods() {
    let mut total_skipped = 0u64;
    let mut total_hits = 0u64;
    for seed in [0x4a56_4d46u64, 0xdead_beef, 0x0ddba11] {
        let (program, ids) = generate(&GenConfig { seed, count: 24, ..GenConfig::default() });
        for config in FabricConfig::all_six() {
            for &id in &ids {
                let method = program.method(id);
                let Ok(loaded) = load(method, &config) else { continue };
                for bp in [BranchMode::Bp1, BranchMode::Bp2] {
                    let fast = run(&loaded, &config, bp, true, false);
                    let naive = run(&loaded, &config, bp, false, false);
                    let ctx = format!("seed {seed:#x} method {id:?} {} {bp:?}", config.name);
                    assert_equivalent(&fast, &naive, &ctx);
                    // Cold memo run: a miss walks the fast-forward path
                    // and stores its report.
                    let cold = run(&loaded, &config, bp, true, true);
                    assert_eq!(cold, fast, "{ctx}: cold memo run diverged from fast");
                    // Warm memo run: a hit returns the stored report.
                    let warm = run(&loaded, &config, bp, true, true);
                    assert_eq!(warm, fast, "{ctx}: memo hit diverged from fast");
                    assert_equivalent(&warm, &naive, &ctx);
                    total_skipped += fast.events_skipped;
                    total_hits += loaded.compiled.hits();
                }
            }
        }
    }
    assert!(total_skipped > 0, "fast-forward never skipped a single event");
    assert!(total_hits > 0, "the report memo never hit");
}

/// A memo hit must also be bit-identical to the *naive* walk when the
/// miss walked with `fast_forward: false` — the memo stores whichever
/// walk was requested, counters and all.
#[test]
fn memo_hit_matches_the_walk_it_stored() {
    let (program, ids) = generate(&GenConfig { seed: 0xb10c, count: 12, ..GenConfig::default() });
    let config = FabricConfig::compact2();
    for &id in &ids {
        let method = program.method(id);
        let Ok(loaded) = load(method, &config) else { continue };
        for ff in [false, true] {
            let plain = run(&loaded, &config, BranchMode::Bp2, ff, false);
            let cold = run(&loaded, &config, BranchMode::Bp2, ff, true);
            let warm = run(&loaded, &config, BranchMode::Bp2, ff, true);
            assert_eq!(cold, plain, "method {id:?} ff={ff}: cold run diverged");
            assert_eq!(warm, plain, "method {id:?} ff={ff}: memo hit diverged");
        }
    }
}

/// The arena-reusing entry point (the sweep's hot path) must behave the
/// same as the fresh-arena one under fast-forward and the report memo.
#[test]
fn fast_forward_is_stable_under_arena_reuse() {
    let (program, ids) = generate(&GenConfig { count: 6, ..GenConfig::default() });
    let config = FabricConfig::compact2();
    let mut arena = SimArena::new();
    for &id in &ids {
        let method = program.method(id);
        let Ok(loaded) = load(method, &config) else { continue };
        let fresh = run(&loaded, &config, BranchMode::Bp1, true, false);
        for compiled in [false, true, true] {
            let reused = javaflow_fabric::execute_in(
                &loaded,
                &config,
                ExecParams {
                    mode: BranchMode::Bp1,
                    max_mesh_cycles: 250_000,
                    compiled,
                    ..ExecParams::default()
                },
                &mut arena,
            );
            assert_eq!(fresh, reused, "arena reuse changed a report (compiled={compiled})");
        }
    }
}

/// `graph_mut()` must detach the memo: reports stored before a Section
/// 6.4 enhancement pass describe the untransformed graph, so the next
/// compiled run after a fold must walk the folded graph, not return the
/// report memoised before it.
#[test]
fn graph_mut_detaches_the_memo() {
    let program = javaflow_bytecode::asm::assemble(
        ".method m args=1 returns=true locals=2
           iconst_1
           istore 1
         top:
           iload 1
           dup
           iadd
           istore 1
           iinc 0 -1
           iload 0
           ifgt @top
           iload 1
           ireturn
         .end",
    )
    .unwrap();
    let (_, method) = program.method_by_name("m").unwrap();
    let config = FabricConfig::compact4();
    let mut loaded = load(method, &config).unwrap();
    let unfolded = run(&loaded, &config, BranchMode::Bp1, true, true);
    assert_eq!(loaded.compiled.len(), 1, "the compiled run must fill the memo");

    assert!(loaded.graph_mut().fold_moves(method) > 0, "the method must have a foldable move");
    let memo = run(&loaded, &config, BranchMode::Bp1, true, true);
    let interpreted = run(&loaded, &config, BranchMode::Bp1, true, false);
    assert_eq!(memo, interpreted, "compiled run after the fold must walk the folded graph");
    assert_ne!(memo, unfolded, "folding must change the report, or the check above is vacuous");
    assert_eq!(loaded.compiled.hits(), 0, "the pre-fold report must not be served");
}
