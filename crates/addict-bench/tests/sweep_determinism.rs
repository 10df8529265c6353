//! Cross-thread determinism of the sweep engine: the same grid executed
//! at 1 thread and at N threads must produce **byte-identical** results.
//!
//! Every replay owns its `Machine` and shares its inputs immutably — the
//! points of one workload share one `Arc`'d slice pool — so thread
//! interleaving has nothing to leak into. This test is the executable
//! statement of that contract, and the gate the `bench` binary re-checks
//! on every artifact run.

use addict_bench::{run_grid, EVAL_SEED, PROFILE_SEED};
use addict_core::algorithm1::MigrationMap;
use addict_core::find_migration_points_interned;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::SimConfig;
use addict_trace::InternedSet;
use addict_workloads::{collect_traces_interned, Benchmark};

/// One grid point: a scheduler and config over one trace set and its map.
type Point<'a> = (
    SchedulerKind,
    ReplayConfig,
    InternedSet<'a>,
    &'a MigrationMap,
);

/// Replay `grid` on `threads` workers, results in grid order.
fn sweep(grid: &[Point<'_>], threads: usize) -> Vec<ReplayResult> {
    run_grid(grid, threads, |_, (scheduler, cfg, set, map)| {
        run_scheduler(*scheduler, set, Some(*map), cfg)
    })
}

/// `cfg` with the fast paths off: the per-block reference path.
fn per_block(cfg: &ReplayConfig) -> ReplayConfig {
    ReplayConfig {
        fast_paths: false,
        ..cfg.clone()
    }
}

/// The canonical byte form of a sweep's outcome. `ReplayResult`'s `Debug`
/// output covers every field — per-core counters, power, latencies — and
/// Rust renders `f64` with shortest-roundtrip formatting, so two results
/// serialize identically iff they are bit-identical.
fn serialize(results: &[ReplayResult]) -> Vec<u8> {
    format!("{results:#?}").into_bytes()
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), 24, PROFILE_SEED);
    let interned = collect_traces_interned(&mut engine, workload.as_mut(), 24, EVAL_SEED);
    let cfg = ReplayConfig::paper_default();
    let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
    let set = interned.as_set();

    // A grid spanning every scheduler in both execution modes (every point
    // borrowing the same pool), two batch sizes, and both hierarchies:
    // 5 + 5 + 2 + 2 = 14 points.
    let mut grid: Vec<Point<'_>> = SchedulerKind::ALL
        .iter()
        .map(|&scheduler| (scheduler, per_block(&cfg), set, &map))
        .collect();
    for &scheduler in &SchedulerKind::ALL {
        grid.push((scheduler, cfg.clone(), set, &map));
    }
    for batch in [4usize, 8] {
        let batched = ReplayConfig::paper_default().with_batch_size(batch);
        grid.push((SchedulerKind::Addict, batched, set, &map));
    }
    let deep = ReplayConfig {
        sim: SimConfig::paper_deep(),
        ..ReplayConfig::paper_default()
    };
    for scheduler in [SchedulerKind::Baseline, SchedulerKind::Addict] {
        grid.push((scheduler, deep.clone(), set, &map));
    }

    let sequential = serialize(&sweep(&grid, 1));
    // An even split, an uneven split, and more workers than points: every
    // scheduling shape must reproduce the sequential bytes exactly.
    let mut two_thread_results = None;
    for threads in [2usize, 3, 16] {
        let results = sweep(&grid, threads);
        assert_eq!(
            sequential,
            serialize(&results),
            "sweep output changed at {threads} threads"
        );
        if threads == 2 {
            two_thread_results = Some(results);
        }
    }
    // And a repeated 1-thread run is stable with itself (no hidden global
    // state between sweeps).
    assert_eq!(sequential, serialize(&sweep(&grid, 1)));

    // The per-block and fast modes must agree bit-for-bit, scheduler by
    // scheduler (the first two scheduler-wide bands of the grid; reusing
    // the 2-thread run from above).
    let results = two_thread_results.expect("2-thread run executed");
    let n = SchedulerKind::ALL.len();
    for (reference, fast) in results[..n].iter().zip(&results[n..2 * n]) {
        assert_eq!(
            serialize(std::slice::from_ref(reference)),
            serialize(std::slice::from_ref(fast)),
            "fast replay diverged from per-block for {}",
            reference.scheduler
        );
    }
}

/// TATP and YCSB ride the same contract: a fig7-style
/// (benchmark × scheduler × batch-size) grid over TATP and YCSB-B traces
/// is bit-identical across thread counts, per-block and fast alike.
#[test]
fn spec_driven_sweep_is_bit_identical_across_thread_counts() {
    let cfg = ReplayConfig::paper_default();
    let mut inputs = Vec::new();
    for bench in [Benchmark::Tatp, Benchmark::YcsbB] {
        let (mut engine, mut workload) = bench.setup_small();
        let profile = collect_traces_interned(&mut engine, workload.as_mut(), 24, PROFILE_SEED);
        let interned = collect_traces_interned(&mut engine, workload.as_mut(), 24, EVAL_SEED);
        let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
        inputs.push((bench, interned, map));
    }

    let mut grid: Vec<Point<'_>> = Vec::new();
    for (_, interned, map) in &inputs {
        let set = interned.as_set();
        for &scheduler in &SchedulerKind::ALL {
            grid.push((scheduler, per_block(&cfg), set, map));
            grid.push((scheduler, cfg.clone(), set, map));
        }
        // The fig7 shape: ADDICT across batch sizes.
        for batch in [4usize, 16] {
            let batched = ReplayConfig::paper_default().with_batch_size(batch);
            grid.push((SchedulerKind::Addict, batched, set, map));
        }
    }

    let sequential = serialize(&sweep(&grid, 1));
    for threads in [2usize, 8] {
        assert_eq!(
            sequential,
            serialize(&sweep(&grid, threads)),
            "TATP/YCSB-B sweep output changed at {threads} threads"
        );
    }
    // Per-block and fast modes agree point-for-point (each benchmark
    // block is 5 (per-block, fast) pairs followed by 2 batch points).
    let results = sweep(&grid, 2);
    let per_bench = SchedulerKind::ALL.len() * 2 + 2;
    for (block, (bench, ..)) in results.chunks_exact(per_bench).zip(&inputs) {
        for pair in block[..SchedulerKind::ALL.len() * 2].chunks_exact(2) {
            assert_eq!(
                serialize(std::slice::from_ref(&pair[0])),
                serialize(std::slice::from_ref(&pair[1])),
                "fast replay diverged from per-block for {} on {}",
                pair[0].scheduler,
                bench.name()
            );
        }
    }
}
