//! Adversarial scheduling tests for the sweep: the longest record must
//! start first and must not hold the join, no worker may hoard unstarted
//! records, output must stay order-preserving under any schedule, and
//! worker panics must propagate.
//!
//! Every pass condition is decided by the test itself (a condition
//! variable that only a correct schedule can satisfy), never by the host
//! clock. The timeouts below only turn a broken scheduler's hang into a
//! failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use javaflow_core::parallel::{par_map, sweep_ordered};

/// How long a blocked item waits for the condition a correct scheduler
/// guarantees before it declares the schedule broken.
const HANG: Duration = Duration::from_secs(10);

/// Builds the harness's dispatch order: descending cost, ties by index.
fn descending_schedule(costs: &[u64]) -> Vec<u32> {
    let mut schedule: Vec<u32> = (0..costs.len() as u32).collect();
    schedule.sort_by(|&a, &b| costs[b as usize].cmp(&costs[a as usize]).then(a.cmp(&b)));
    schedule
}

/// A counter that items can wait on, with the highest value it reached.
#[derive(Default)]
struct Gauge {
    /// `(current, peak)`.
    value: Mutex<(usize, usize)>,
    changed: Condvar,
}

impl Gauge {
    fn add(&self, delta: isize) {
        let mut v = self.value.lock().expect("gauge lock");
        v.0 = v.0.checked_add_signed(delta).expect("gauge underflow");
        v.1 = v.1.max(v.0);
        self.changed.notify_all();
    }

    /// Waits until `ready(current, peak)` holds; false if it still does
    /// not after [`HANG`].
    fn wait_for(&self, ready: impl Fn(usize, usize) -> bool) -> bool {
        let v = self.value.lock().expect("gauge lock");
        let (v, _) =
            self.changed.wait_timeout_while(v, HANG, |v| !ready(v.0, v.1)).expect("gauge lock");
        ready(v.0, v.1)
    }
}

#[test]
fn long_tail_is_scheduled_first_and_does_not_hold_the_join() {
    // The adversarial distribution from the events_per_run histogram: one
    // 100×-cost straggler hiding in 1000 uniform records.
    const HEAVY_INDEX: usize = 700;
    const THREADS: usize = 4;
    let costs: Vec<u64> = (0..1001).map(|i| if i == HEAVY_INDEX { 100 } else { 1 }).collect();
    let n = costs.len();

    let schedule = descending_schedule(&costs);
    assert_eq!(
        schedule[0] as usize, HEAVY_INDEX,
        "cost-ordered dispatch must start the straggler first"
    );
    let mut position = vec![0usize; n];
    for (pos, &i) in schedule.iter().enumerate() {
        position[i as usize] = pos;
    }

    // The straggler runs until every other record has finished. That
    // only completes if the other workers can claim all of them while
    // the straggler's worker is busy — a scheduler that handed the
    // straggler's worker a batch of unstarted records would leave them
    // stranded behind it.
    let others_done = Gauge::default();
    let next_worker = AtomicUsize::new(0);
    let claims = Mutex::new(Vec::new());
    let out = sweep_ordered(
        &costs,
        THREADS,
        &schedule,
        || (next_worker.fetch_add(1, Ordering::Relaxed), Vec::new()),
        |log| claims.lock().expect("claims lock").push(log),
        |(_, claimed), i, _| {
            claimed.push(position[i]);
            if i == HEAVY_INDEX {
                assert!(
                    others_done.wait_for(|done, _| done == n - 1),
                    "the other records did not finish while the straggler ran: \
                     some were hoarded by the straggler's worker"
                );
            } else {
                others_done.add(1);
            }
            i as u64 * 2
        },
    );

    // Order-preserving output: the splice is by original index.
    let expect: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
    assert_eq!(out.results, expect);
    assert_eq!(out.stats.threads_used, THREADS);
    assert_eq!(out.stats.workers.iter().map(|w| w.records_done).sum::<u64>(), n as u64);

    // Each worker claims schedule positions in increasing order, and the
    // straggler (position 0) is the first claim of whichever worker took
    // it.
    let claims = claims.into_inner().expect("claims lock");
    assert_eq!(claims.len(), THREADS);
    for (worker, log) in &claims {
        assert!(
            log.windows(2).all(|w| w[0] < w[1]),
            "worker {worker} claimed positions out of schedule order: {log:?}"
        );
    }
    let holder = claims.iter().find(|(_, log)| log.contains(&0)).expect("position 0 was claimed");
    assert_eq!(holder.1[0], 0, "the straggler must be its worker's first claim");
}

#[test]
fn worker_panic_propagates_to_the_caller() {
    let items: Vec<u32> = (0..256).collect();
    let result = std::panic::catch_unwind(|| {
        par_map(&items, 4, |i, &x| {
            assert!(i != 171, "injected worker failure");
            x
        })
    });
    assert!(result.is_err(), "a panicking worker must fail the sweep, not drop its records");
}

#[test]
fn expensive_head_of_the_schedule_runs_on_both_workers() {
    // Cost-descending dispatch puts the 8 expensive records at the head
    // of the schedule. A scheduler that let one worker claim them all
    // would run them back to back while the other worker drains the
    // cheap tail. Rendezvous: each expensive record waits until two
    // expensive records have been running at the same time, which only
    // happens when they run on different workers.
    let costs: Vec<u64> = (0..64).map(|i| if i < 8 { 1 } else { 0 }).collect();
    let schedule = descending_schedule(&costs);
    let running = Gauge::default();
    let out = sweep_ordered(
        &costs,
        2,
        &schedule,
        || (),
        |()| (),
        |(), i, &c| {
            if c > 0 {
                running.add(1);
                assert!(
                    running.wait_for(|_, peak| peak >= 2),
                    "no second expensive record ever ran alongside record {i}"
                );
                running.add(-1);
            }
            i
        },
    );
    assert_eq!(out.results, (0..64).collect::<Vec<_>>());
    assert_eq!(out.stats.workers.iter().map(|w| w.records_done).sum::<u64>(), 64);
}
