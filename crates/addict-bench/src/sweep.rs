//! Parallel multi-config sweep engine.
//!
//! Every figure of the paper's evaluation is a grid of
//! (benchmark × scheduler × config) replays. PR 1 made each replay
//! allocation-free and gave each run its own [`Machine`](addict_sim::Machine),
//! so the runs are embarrassingly parallel: the traces and migration maps
//! are shared immutably, all mutable state (machine, cluster, policy) is
//! per-run. This module fans a declarative grid out across OS threads.
//!
//! Two layers:
//!
//! * [`run_grid`] — the generic executor: a `std::thread::scope` worker
//!   pool pulling grid indexes off one atomic cursor (work-stealing-free by
//!   construction: there is a single shared cursor, so no per-worker deques
//!   to steal from and no rebalancing machinery). Results land in **grid
//!   order** regardless of completion order, and `threads <= 1` takes a
//!   plain sequential loop — no threads spawned at all.
//! * [`SweepPoint`] / [`run_sweep`] — the declarative layer used by the
//!   figure binaries: one point per (benchmark, scheduler, replay config)
//!   cell, dispatched through [`run_scheduler`]. Points carry either
//!   trace layout ([`SweepTraces`]): flat slices, or interned sets whose
//!   `Arc`-shared [`SlicePool`](addict_trace::SlicePool) gives all N
//!   worker threads one read-only, deduplicated working set.
//!
//! # Determinism
//!
//! A sweep's output is a pure function of its grid: every run owns its
//! machine, shares its inputs by `&`-reference only, and the engine never
//! lets completion order leak into result order. `run_sweep(grid, 1)` and
//! `run_sweep(grid, n)` are therefore **bit-identical** — asserted by
//! `tests/sweep_determinism.rs` and re-checked on every `bench` run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use addict_core::algorithm1::MigrationMap;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_trace::{InternedSet, XctTrace};
use addict_workloads::Benchmark;

/// The traces a sweep point replays: flat, or interned against a shared
/// [`SlicePool`](addict_trace::SlicePool) arena. Grid points built from
/// one `Arc`'d pool all borrow the *same* read-only working set, so N
/// sweep threads replay thousands of traces out of one deduplicated arena
/// instead of N private event-vector copies.
#[derive(Debug, Clone, Copy)]
pub enum SweepTraces<'a> {
    /// Flat per-trace event vectors.
    Flat(&'a [XctTrace]),
    /// Interned traces + their shared pool.
    Interned(InternedSet<'a>),
}

impl SweepTraces<'_> {
    /// Number of traces in the set.
    pub fn len(&self) -> usize {
        match self {
            SweepTraces::Flat(t) => t.len(),
            SweepTraces::Interned(s) => s.xcts.len(),
        }
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> From<&'a [XctTrace]> for SweepTraces<'a> {
    fn from(t: &'a [XctTrace]) -> Self {
        SweepTraces::Flat(t)
    }
}

impl<'a> From<&'a Vec<XctTrace>> for SweepTraces<'a> {
    fn from(t: &'a Vec<XctTrace>) -> Self {
        SweepTraces::Flat(t)
    }
}

impl<'a> From<InternedSet<'a>> for SweepTraces<'a> {
    fn from(s: InternedSet<'a>) -> Self {
        SweepTraces::Interned(s)
    }
}

/// One cell of a sweep grid: replay `traces` under `scheduler` with
/// `replay_cfg`. The trace set and migration map are shared across all
/// points (and threads) immutably.
#[derive(Debug, Clone)]
pub struct SweepPoint<'a> {
    /// Which benchmark the traces came from (for labeling/grouping).
    pub benchmark: Benchmark,
    /// Scheduler to replay under.
    pub scheduler: SchedulerKind,
    /// Replay parameters for this cell.
    pub replay_cfg: ReplayConfig,
    /// Row label for reports ("batch=8", "deep", ...).
    pub label: &'static str,
    /// Evaluation traces (flat or interned), shared immutably across the
    /// grid.
    pub traces: SweepTraces<'a>,
    /// Algorithm 1 migration map (required by ADDICT), shared immutably.
    pub map: Option<&'a MigrationMap>,
}

impl SweepPoint<'_> {
    /// Human-readable name of this grid cell, for diagnostics — the
    /// determinism guards in `bench` and the tests name diverging points
    /// with it.
    pub fn describe(&self) -> String {
        format!(
            "{} / {} / {}",
            self.benchmark.name(),
            self.scheduler.name(),
            self.label
        )
    }
}

// Compile-time audit: everything a sweep shares across threads, or moves
// into a worker, must be Send + Sync. (The replay inputs are shared by
// reference; results cross back to the collecting thread.)
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<SweepPoint<'_>>();
    shared::<SweepTraces<'_>>();
    shared::<ReplayConfig>();
    shared::<ReplayResult>();
    shared::<MigrationMap>();
    shared::<XctTrace>();
    shared::<InternedSet<'_>>();
    shared::<SchedulerKind>();
    shared::<Benchmark>();
};

/// Worker-thread default when no `--threads` flag is given: the
/// `ADDICT_THREADS` environment variable if set (unparseable values fall
/// back to 1, the sequential path), else the host's available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ADDICT_THREADS") {
        return v.parse().unwrap_or(1).max(1);
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `work` over every item of `items` on `threads` OS threads,
/// returning results in item order regardless of completion order.
///
/// `threads <= 1` (or a grid of one) runs sequentially on the calling
/// thread — the fallback path spawns nothing. Workers claim items from a
/// single atomic cursor; a panic in any run propagates to the caller when
/// the scope joins. This is [`run_grid_abortable`] with a probe that
/// never fires.
pub fn run_grid<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_grid_abortable(items, threads, &|| false, work)
        .into_iter()
        .map(|r| r.expect("a quiet probe never skips an item"))
        .collect()
}

/// [`run_grid`] with a cooperative abort probe: before *claiming* each
/// item, workers poll `abort`; once it reports true, every unclaimed
/// item yields `None` instead of running (claimed items finish — the
/// unit of cooperation is one grid point). Result order is item order
/// either way, with `None` holes where the abort landed. This is the
/// sweep half of job cancellation/deadlines:
/// [`run_job_with`](crate::job::run_job_with) maps a fired token to an
/// aborted grid, then discards the partial results.
///
/// The probe must be *sticky* (once true, true forever) — workers poll
/// it independently, and a flapping probe would produce an arbitrary
/// subset rather than a prefix-closed cut.
pub fn run_grid_abortable<T, R, F>(
    items: &[T],
    threads: usize,
    abort: &(dyn Fn() -> bool + Sync),
    work: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| if abort() { None } else { Some(work(i, t)) })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Option<R>)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = if abort() { None } else { Some(work(i, item)) };
                done.lock().expect("no poisoned result lock").push((i, r));
            });
        }
    });
    let mut out = done.into_inner().expect("scope joined all workers");
    debug_assert_eq!(out.len(), items.len());
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Replay every [`SweepPoint`] of `grid` on `threads` threads, returning
/// the [`ReplayResult`]s in grid order. Flat and interned points dispatch
/// to their own monomorphized replay loop — the layout match happens once
/// per point, never inside the hot path.
pub fn run_sweep(grid: &[SweepPoint<'_>], threads: usize) -> Vec<ReplayResult> {
    run_grid(grid, threads, |_, p| run_point(p))
}

/// Replay one [`SweepPoint`] (the sweep's unit of work).
pub fn run_point(p: &SweepPoint<'_>) -> ReplayResult {
    match p.traces {
        SweepTraces::Flat(traces) => run_scheduler(p.scheduler, traces, p.map, &p.replay_cfg),
        SweepTraces::Interned(set) => run_scheduler(p.scheduler, &set, p.map, &p.replay_cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_item_order() {
        // Work that finishes in reverse order must still report in order.
        let items: Vec<u64> = (0..16).collect();
        let out = run_grid(&items, 4, |i, &x| {
            std::thread::sleep(std::time::Duration::from_micros((16 - x) * 50));
            (i, x * 2)
        });
        assert_eq!(out.len(), 16);
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, items[i] * 2);
        }
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let items: Vec<u64> = (0..9).collect();
        let seq = run_grid(&items, 1, |_, &x| x * x);
        let par = run_grid(&items, 3, |_, &x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let none: Vec<u32> = Vec::new();
        assert!(run_grid(&none, 8, |_, &x| x).is_empty());
        assert_eq!(run_grid(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn abortable_grid_is_grid_when_quiet_and_cuts_when_fired() {
        let items: Vec<u64> = (0..12).collect();
        // A probe that never fires reproduces run_grid exactly.
        for threads in [1, 4] {
            let quiet = run_grid_abortable(&items, threads, &|| false, |_, &x| x * 3);
            assert_eq!(
                quiet,
                items.iter().map(|&x| Some(x * 3)).collect::<Vec<_>>()
            );
        }
        // A sticky probe flipped after the fourth claim yields None for
        // everything not yet claimed, in both execution modes.
        for threads in [1, 3] {
            let fired = AtomicUsize::new(0);
            let out = run_grid_abortable(
                &items,
                threads,
                &|| fired.load(Ordering::Relaxed) >= 4,
                |_, &x| {
                    fired.fetch_add(1, Ordering::Relaxed);
                    x
                },
            );
            assert_eq!(out.len(), items.len());
            let ran = out.iter().flatten().count();
            assert!(ran >= 4, "abort fired before it could have: {out:?}");
            assert!(ran < items.len(), "abort never cut the grid: {out:?}");
        }
    }
}
