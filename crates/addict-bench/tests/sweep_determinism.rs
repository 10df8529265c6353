//! Cross-thread determinism of the sweep engine: the same grid executed
//! at 1 thread and at N threads must produce **byte-identical** results.
//!
//! Every replay owns its `Machine` and shares its inputs immutably — the
//! interned points additionally share one `Arc`'d slice pool — so thread
//! interleaving has nothing to leak into. This test is the executable
//! statement of that contract, and the gate the `bench` binary re-checks
//! on every artifact run.

use addict_bench::{migration_map, run_sweep, SweepPoint, SweepTraces, EVAL_SEED, PROFILE_SEED};
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::SchedulerKind;
use addict_sim::SimConfig;
use addict_trace::InternedWorkload;
use addict_workloads::{collect_traces, Benchmark};

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
    let profile = collect_traces(&mut engine, workload.as_mut(), 24, PROFILE_SEED);
    let eval = collect_traces(&mut engine, workload.as_mut(), 24, EVAL_SEED);
    let interned = InternedWorkload::from_flat(&eval);
    let cfg = ReplayConfig::paper_default();
    let map = migration_map(&profile, &cfg);

    // A grid spanning every scheduler over both trace layouts (the
    // interned points all borrowing the same pool), two batch sizes, and
    // both hierarchies: 5 + 5 + 2 + 2 = 14 points.
    let mut grid: Vec<SweepPoint<'_>> = SchedulerKind::ALL
        .iter()
        .map(|&scheduler| SweepPoint {
            benchmark: Benchmark::TpcB,
            scheduler,
            replay_cfg: cfg.clone(),
            label: "default",
            traces: SweepTraces::Flat(&eval.xcts),
            map: Some(&map),
        })
        .collect();
    for &scheduler in &SchedulerKind::ALL {
        grid.push(SweepPoint {
            benchmark: Benchmark::TpcB,
            scheduler,
            replay_cfg: cfg.clone(),
            label: "interned",
            traces: SweepTraces::Interned(interned.as_set()),
            map: Some(&map),
        });
    }
    for batch in [4usize, 8] {
        grid.push(SweepPoint {
            benchmark: Benchmark::TpcB,
            scheduler: SchedulerKind::Addict,
            replay_cfg: ReplayConfig::paper_default().with_batch_size(batch),
            label: "batch",
            traces: SweepTraces::Flat(&eval.xcts),
            map: Some(&map),
        });
    }
    for scheduler in [SchedulerKind::Baseline, SchedulerKind::Addict] {
        grid.push(SweepPoint {
            benchmark: Benchmark::TpcB,
            scheduler,
            replay_cfg: ReplayConfig {
                sim: SimConfig::paper_deep(),
                ..ReplayConfig::paper_default()
            },
            label: "deep",
            traces: SweepTraces::Interned(interned.as_set()),
            map: Some(&map),
        });
    }

    let sequential = serialize(&run_sweep(&grid, 1));
    // An even split, an uneven split, and more workers than points: every
    // scheduling shape must reproduce the sequential bytes exactly.
    let mut two_thread_results = None;
    for threads in [2usize, 3, 16] {
        let results = run_sweep(&grid, threads);
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
    assert_eq!(sequential, serialize(&run_sweep(&grid, 1)));

    // The flat and interned layouts of the same traces must agree
    // bit-for-bit, scheduler by scheduler (the first two scheduler-wide
    // bands of the grid; reusing the 2-thread run from above).
    let results = two_thread_results.expect("2-thread run executed");
    let n = SchedulerKind::ALL.len();
    for (flat, interned) in results[..n].iter().zip(&results[n..2 * n]) {
        assert_eq!(
            serialize(std::slice::from_ref(flat)),
            serialize(std::slice::from_ref(interned)),
            "interned replay diverged from flat for {}",
            flat.scheduler
        );
    }
}

/// TATP and YCSB ride the same contract: a fig7-style
/// (benchmark × scheduler × batch-size) grid over TATP and YCSB-B traces
/// is bit-identical across thread counts, flat and interned alike.
#[test]
fn spec_driven_sweep_is_bit_identical_across_thread_counts() {
    let cfg = ReplayConfig::paper_default();
    let mut inputs = Vec::new();
    for bench in [Benchmark::Tatp, Benchmark::YcsbB] {
        let (mut engine, mut workload) = bench.setup_small();
        let profile = collect_traces(&mut engine, workload.as_mut(), 24, PROFILE_SEED);
        let eval = collect_traces(&mut engine, workload.as_mut(), 24, EVAL_SEED);
        let interned = InternedWorkload::from_flat(&eval);
        let map = migration_map(&profile, &cfg);
        inputs.push((bench, eval, interned, map));
    }

    let mut grid: Vec<SweepPoint<'_>> = Vec::new();
    for (bench, eval, interned, map) in &inputs {
        for &scheduler in &SchedulerKind::ALL {
            grid.push(SweepPoint {
                benchmark: *bench,
                scheduler,
                replay_cfg: cfg.clone(),
                label: "flat",
                traces: SweepTraces::Flat(&eval.xcts),
                map: Some(map),
            });
            grid.push(SweepPoint {
                benchmark: *bench,
                scheduler,
                replay_cfg: cfg.clone(),
                label: "interned",
                traces: SweepTraces::Interned(interned.as_set()),
                map: Some(map),
            });
        }
        // The fig7 shape: ADDICT across batch sizes.
        for batch in [4usize, 16] {
            grid.push(SweepPoint {
                benchmark: *bench,
                scheduler: SchedulerKind::Addict,
                replay_cfg: ReplayConfig::paper_default().with_batch_size(batch),
                label: "batch",
                traces: SweepTraces::Interned(interned.as_set()),
                map: Some(map),
            });
        }
    }

    let sequential = serialize(&run_sweep(&grid, 1));
    for threads in [2usize, 8] {
        assert_eq!(
            sequential,
            serialize(&run_sweep(&grid, threads)),
            "TATP/YCSB-B sweep output changed at {threads} threads"
        );
    }
    // Flat and interned layouts agree point-for-point (each benchmark
    // block is 4 (flat, interned) pairs followed by 2 batch points).
    let results = run_sweep(&grid, 2);
    let per_bench = SchedulerKind::ALL.len() * 2 + 2;
    for (block, (bench, ..)) in results.chunks_exact(per_bench).zip(&inputs) {
        for pair in block[..SchedulerKind::ALL.len() * 2].chunks_exact(2) {
            assert_eq!(
                serialize(std::slice::from_ref(&pair[0])),
                serialize(std::slice::from_ref(&pair[1])),
                "interned replay diverged from flat for {} on {}",
                pair[0].scheduler,
                bench.name()
            );
        }
    }
}
