//! Zero-allocation steady state for the report memo
//! (`ExecParams::compiled`): once one cold run has walked a method and
//! stored its report, every warm run with the same key is a memo hit —
//! cache lookup and a clone of the stored report — and must not touch
//! the heap at all.
//! `fabric/tests/alloc.rs` covers the interpreted walks with the same
//! per-thread counter.

mod counting_alloc;

use counting_alloc::allocs;
use javaflow_bytecode::asm::assemble;
use javaflow_fabric::{execute_in, load, BranchMode, ExecParams, FabricConfig, Outcome, SimArena};

const SUM_LOOP: &str = ".method sum args=1 returns=true locals=3
   iconst_0
   istore 1
 top:
   iload 1
   iload 0
   iadd
   istore 1
   iinc 0 -1
   iload 0
   ifgt @top
   iload 1
   ireturn
 .end";

#[test]
fn warm_memo_hit_does_not_allocate() {
    let p = assemble(SUM_LOOP).unwrap();
    let (_, m) = p.method_by_name("sum").unwrap();
    let config = FabricConfig::compact2();
    let loaded = load(m, &config).unwrap();
    let mut arena = SimArena::new();

    let run = |arena: &mut SimArena| {
        execute_in(
            &loaded,
            &config,
            ExecParams { mode: BranchMode::Bp1, compiled: true, ..ExecParams::default() },
            arena,
        )
    };

    // Cold run: a memo miss walks the fast-forward event loop and stores
    // its report. Allocates (key, cache entry) by design — it happens
    // once per (config, args) key.
    let cold = run(&mut arena);
    assert!(matches!(cold.outcome, Outcome::Returned(_)), "cold run: {:?}", cold.outcome);
    assert!(cold.executed > 20, "the loop should iterate (bp back jumps taken 9 of 10)");
    assert_eq!(loaded.compiled.len(), 1, "cold run must populate the cache");
    assert_eq!(loaded.compiled.misses(), 1);

    // Measured memo hits: the steady state must be allocation-free, and
    // each hit must reproduce the cold report bit for bit. (No
    // `format!` in this window — the checks themselves must not touch
    // the heap on the success path.)
    let before = allocs();
    for _ in 0..3 {
        let report = run(&mut arena);
        assert!(report == cold);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "warm memo hits must not allocate");
    assert_eq!(loaded.compiled.hits(), 3, "every warm run must be a cache hit");
}
