//! The resident-process path ([`PreparedPopulation`]) must produce
//! results bit-identical to the batch path ([`Evaluation::run`]): the
//! server's "byte-identical responses" guarantee reduces to this.

use javaflow_core::{EvalConfig, Evaluation, PreparedPopulation};

fn cfg(synthetic: usize) -> EvalConfig {
    EvalConfig { synthetic_count: synthetic, max_mesh_cycles: 150_000, ..EvalConfig::default() }
}

#[test]
fn prepared_population_matches_evaluation_run() {
    let cfg = cfg(10);
    let direct = Evaluation::run(&cfg);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    // The compiled sweeps run against the same population: the first
    // fills the report memo held in its persisted prepared parts, the
    // second is served from it.
    let compiled = EvalConfig { compiled: true, ..cfg.clone() };
    for (what, served) in [
        ("cached-prepare sweep", pop.evaluate(&cfg)),
        ("cold compiled sweep", pop.evaluate(&compiled)),
        ("warm compiled sweep", pop.evaluate(&compiled)),
    ] {
        // Debug-string comparison: NaN-valued returns (legitimate in scripted
        // float kernels) are bitwise-identical but `!=` under IEEE 754.
        assert_eq!(
            format!("{:?}", direct.samples),
            format!("{:?}", served.samples),
            "{what} diverged from Evaluation::run"
        );
        assert_eq!(format!("{:?}", direct.statics), format!("{:?}", served.statics));
        assert_eq!(
            direct.records.iter().map(|r| &r.name).collect::<Vec<_>>(),
            served.records.iter().map(|r| &r.name).collect::<Vec<_>>(),
        );
        assert_eq!(direct.configs.len(), served.configs.len());
    }
}

#[test]
fn batching_changes_nothing_but_the_callbacks() {
    let cfg = cfg(8);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    let whole = pop.evaluate(&cfg);

    let mut batch_firsts = Vec::new();
    let mut seen_records = 0usize;
    let batched = pop
        .evaluate_batched(&cfg, 3, |first, results| {
            batch_firsts.push(first);
            seen_records += results.len();
            true
        })
        .expect("uncancelled sweep completes");

    assert_eq!(format!("{:?}", whole.samples), format!("{:?}", batched.samples));
    assert_eq!(format!("{:?}", whole.statics), format!("{:?}", batched.statics));
    assert_eq!(seen_records, pop.len(), "every record must pass through a batch callback");
    // Batches start at 0 and stride by the batch size.
    assert_eq!(batch_firsts, (0..pop.len()).step_by(3).collect::<Vec<_>>());
}

#[test]
fn cancellation_stops_between_batches() {
    let cfg = cfg(8);
    let pop = PreparedPopulation::prepare(cfg.synthetic_count, cfg.threads);
    let mut calls = 0usize;
    let out = pop.evaluate_batched(&cfg, 2, |_, _| {
        calls += 1;
        false
    });
    assert!(out.is_none(), "a cancelled sweep must not assemble an Evaluation");
    assert_eq!(calls, 1, "cancellation after the first batch must stop the sweep");
}

#[test]
fn fast_forward_off_is_honoured() {
    // With fast-forwarding disabled every event is walked naively, so the
    // skip counter must be zero — and the reports otherwise identical.
    let on = cfg(4);
    let off = EvalConfig { fast_forward: false, ..cfg(4) };
    let pop = PreparedPopulation::prepare(4, on.threads);
    let e_on = pop.evaluate(&on);
    let e_off = pop.evaluate(&off);
    assert!(
        e_on.samples.iter().map(|s| s.report.events_skipped).sum::<u64>() > 0,
        "the default sweep should fast-forward something"
    );
    assert!(e_off.samples.iter().all(|s| s.report.events_skipped == 0));
    let strip = |e: &Evaluation| {
        e.samples
            .iter()
            .map(|s| {
                let mut r = s.report.clone();
                r.events = 0;
                r.events_skipped = 0;
                r.wheel_pushes = 0;
                r.wheel_high_water = 0;
                format!("{r:?}")
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&e_on), strip(&e_off), "fast-forward must be report-invariant");
}
