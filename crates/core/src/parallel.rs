//! The sweep scheduler: one shared claim cursor, longest record first.
//!
//! The harness's per-record work is pure (each record's simulation touches
//! nothing shared), so the sweep parallelizes as a deterministic map.
//! [`sweep_ordered`] runs it with three pieces:
//!
//! * **One claim cursor.** Workers take one schedule position per
//!   `fetch_add` on a shared `AtomicUsize` until it passes the end. A
//!   record is milliseconds of work (12 scripted runs averaging ~3.8k
//!   events each), so a claim per record costs nothing measurable, and
//!   no worker ever holds an unstarted record another worker could run.
//!   The work-stealing scheduler this replaced (guided batch claims plus
//!   steal-half) measured the same: over 10 interleaved pairs of 2-thread
//!   synthetic-1500 sweeps in one process on a 2-vCPU Xeon host, medians
//!   2.500 s (one cursor) vs 2.469 s (stealing), one cursor faster in 5
//!   of 10, and the stealing scheduler stole 0 times in every sweep.
//! * **Longest record first.** The caller passes a `schedule` — a
//!   permutation of record indices, descending by static length (see
//!   `harness::cost_schedule`) — so the stragglers start first and the
//!   cheap tail fills the gaps, bounding the join wait by one record
//!   instead of one record *started last*.
//! * **Order-preserving splice.** Workers append `(index, result)` pairs
//!   to pre-sized private slabs; the join splices them back by original
//!   index in O(n) with no sort. Output is bit-identical to the serial
//!   map at any thread count and under any schedule.
//!
//! Worker states (e.g. simulation arenas) are built by `state_init` and
//! handed back through `state_done`, which lets the harness keep arenas
//! warm in a pool across whole sweeps. Built on [`std::thread::scope`] —
//! no runtime dependency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub use javaflow_analysis::report_json::WorkerStats;

/// Parses a `JAVAFLOW_THREADS` override: `None` when unset, `Ok(n)` for a
/// valid count ≥ 1, `Err(raw)` for a rejected value.
fn thread_override(v: Option<&std::ffi::OsStr>) -> Option<Result<usize, String>> {
    let v = v?;
    match v.to_str().and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n >= 1) {
        Some(n) => Some(Ok(n)),
        None => Some(Err(v.to_string_lossy().into_owned())),
    }
}

/// Worker-thread count: the `JAVAFLOW_THREADS` environment override when
/// set (and ≥ 1), otherwise [`std::thread::available_parallelism`].
///
/// An invalid override (`0`, `abc`, …) is rejected with a one-line stderr
/// warning naming the value, then falls back to available parallelism —
/// silently running serial because of a typo'd variable wastes every
/// core.
#[must_use]
pub fn default_threads() -> usize {
    match thread_override(std::env::var_os("JAVAFLOW_THREADS").as_deref()) {
        Some(Ok(n)) => return n,
        Some(Err(raw)) => eprintln!(
            "JAVAFLOW_THREADS: ignoring invalid value `{raw}` (want an integer >= 1); \
             falling back to available parallelism"
        ),
        None => {}
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Scheduling telemetry from one sweep. Unlike the results, the stats are
/// *not* deterministic — they describe which worker happened to claim
/// which records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Workers actually spawned (`min(threads, items)`; 1 = inline).
    pub threads_used: usize,
    /// Per-worker utilization, index = worker id.
    pub workers: Vec<WorkerStats>,
}

/// Results plus scheduling telemetry from [`sweep_ordered`].
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Per-item results, in item order (not schedule order).
    pub results: Vec<R>,
    /// Scheduling telemetry.
    pub stats: SweepStats,
}

/// Maps `f` over `items` on up to `threads` workers, dispatching in
/// `schedule` order (a permutation of `0..items.len()`, typically
/// descending by predicted cost) through one shared claim cursor, and
/// splices the results back **in item order**. Each worker carries a
/// reusable state built by `state_init` and released through
/// `state_done` (e.g. a simulation arena checked out of / returned to a
/// warm pool).
///
/// With `threads == 1` (or ≤ 1 item) the map runs inline on the calling
/// thread in schedule order — the serial path exercises the same dispatch
/// order as the parallel one.
///
/// # Panics
///
/// Propagates worker panics; panics if `schedule` is not a permutation of
/// `0..items.len()` (debug builds check explicitly, release builds panic
/// on the resulting splice hole) or if `items.len()` exceeds `u32::MAX`.
pub fn sweep_ordered<T, S, R>(
    items: &[T],
    threads: usize,
    schedule: &[u32],
    state_init: impl Fn() -> S + Sync,
    state_done: impl Fn(S) + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> SweepOutcome<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    assert!(n <= u32::MAX as usize, "sweep is limited to u32::MAX items");
    assert_eq!(schedule.len(), n, "schedule must cover every item exactly once");
    debug_assert!(
        {
            let mut seen = vec![false; n];
            schedule.iter().all(|&p| {
                let fresh = (p as usize) < n && !seen[p as usize];
                if fresh {
                    seen[p as usize] = true;
                }
                fresh
            })
        },
        "schedule is not a permutation of 0..{n}"
    );

    // Relaxed: the cursor publishes no data. Each position goes to
    // exactly one worker by the atomicity of `fetch_add`, and results
    // travel back through the thread joins.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = state_init();
        let mut out: Vec<(u32, R)> = Vec::with_capacity(n);
        let mut stats = WorkerStats::default();
        loop {
            let pos = cursor.fetch_add(1, Ordering::Relaxed);
            if pos >= n {
                break;
            }
            let i = schedule[pos] as usize;
            let t = Instant::now();
            out.push((i as u32, f(&mut state, i, &items[i])));
            stats.busy_secs += t.elapsed().as_secs_f64();
            stats.records_done += 1;
        }
        state_done(state);
        (out, stats)
    };

    let threads = threads.max(1).min(n.max(1));
    let per_worker: Vec<(Vec<(u32, R)>, WorkerStats)> = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles.into_iter().map(|h| h.join().expect("evaluation worker panicked")).collect()
        })
    };

    // Splice: pre-sized slab filled by original index — O(n), no sort,
    // and each worker's slab was private so nothing false-shared.
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut workers = Vec::with_capacity(threads);
    for (out, stats) in per_worker {
        for (i, r) in out {
            debug_assert!(results[i as usize].is_none(), "item {i} produced twice");
            results[i as usize] = Some(r);
        }
        workers.push(stats);
    }
    let results: Vec<R> =
        results.into_iter().map(|r| r.expect("a schedule position was never claimed")).collect();
    SweepOutcome { results, stats: SweepStats { threads_used: threads, workers } }
}

/// Maps `f` over `items` on up to `threads` worker threads and returns
/// the results in item order: [`sweep_ordered`] with the identity
/// schedule and no worker state.
///
/// # Panics
///
/// Propagates worker panics.
pub fn par_map<T, R>(items: &[T], threads: usize, f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let identity: Vec<u32> = (0..items.len() as u32).collect();
    sweep_ordered(items, threads, &identity, || (), |()| (), |(), i, t| f(i, t)).results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&items, 1, |i, x| x * 2 + i as u64);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |i, x| x * 2 + i as u64), serial);
        }
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's state counts its own items; totals must cover all
        // items exactly once.
        use std::sync::atomic::AtomicUsize;
        static TOTAL: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let identity: Vec<u32> = (0..1000).collect();
        let out = sweep_ordered(
            &items,
            4,
            &identity,
            || 0usize,
            |_| (),
            |seen, _, x| {
                *seen += 1;
                TOTAL.fetch_add(1, Ordering::Relaxed);
                *x
            },
        );
        assert_eq!(out.results, items);
        assert_eq!(TOTAL.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn arbitrary_schedules_still_splice_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(&items, 1, |i, x| x * 3 + i as u64);
        // Reversed, interleaved, and identity dispatch orders all produce
        // the same item-ordered output.
        let n = items.len() as u32;
        let reversed: Vec<u32> = (0..n).rev().collect();
        let mut interleaved: Vec<u32> = (0..n).step_by(2).collect();
        interleaved.extend((1..n).step_by(2));
        for schedule in [&reversed, &interleaved] {
            for threads in [1, 3, 7] {
                let got = sweep_ordered(
                    &items,
                    threads,
                    schedule,
                    || (),
                    |()| (),
                    |(), i, x| x * 3 + i as u64,
                );
                assert_eq!(got.results, serial);
                assert_eq!(got.stats.threads_used, threads.min(items.len()));
                let done: u64 = got.stats.workers.iter().map(|w| w.records_done).sum();
                assert_eq!(done, items.len() as u64);
            }
        }
    }

    #[test]
    fn states_are_handed_back_through_state_done() {
        use std::sync::atomic::AtomicUsize;
        static RETURNED: AtomicUsize = AtomicUsize::new(0);
        RETURNED.store(0, Ordering::Relaxed);
        let items: Vec<u32> = (0..64).collect();
        let schedule: Vec<u32> = (0..64).collect();
        let out = sweep_ordered(
            &items,
            4,
            &schedule,
            || 7usize,
            |_state| {
                RETURNED.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, x| *x,
        );
        assert_eq!(out.results, items);
        // One state per spawned worker comes back through the hook.
        assert_eq!(RETURNED.load(Ordering::Relaxed), out.stats.threads_used);
    }

    #[test]
    fn thread_override_parses_and_rejects() {
        use std::ffi::OsStr;
        assert_eq!(thread_override(None), None);
        assert_eq!(thread_override(Some(OsStr::new("4"))), Some(Ok(4)));
        assert_eq!(thread_override(Some(OsStr::new(" 2 "))), Some(Ok(2)));
        assert_eq!(thread_override(Some(OsStr::new("0"))), Some(Err("0".into())));
        assert_eq!(thread_override(Some(OsStr::new("abc"))), Some(Err("abc".into())));
        assert_eq!(thread_override(Some(OsStr::new(""))), Some(Err(String::new())));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
