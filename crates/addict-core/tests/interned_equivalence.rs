//! Interned replay must be *observationally identical* to flat replay:
//! byte-identical serialized `ReplayResult`s — `MachineStats`, makespan,
//! per-transaction latencies, power — for all five schedulers on real
//! trace sets from **every registry benchmark** (the TPC trio plus the
//! TATP and YCSB mixes), in both the segment-granular and the
//! per-block execution mode. The interned form may change memory layout, never a
//! single simulated bit (the operational-equivalence obligation the
//! refactor carries, in the style of `segment_equivalence.rs`).

use addict_core::algorithm1::{find_migration_points, find_migration_points_interned};
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::SimConfig;
use addict_trace::{InternedWorkload, SlicePool, TraceSet, WorkloadTrace};
use addict_workloads::{collect_traces, collect_traces_interned_chunked, Benchmark};

/// Canonical byte form of a replay outcome: `Debug` covers every field and
/// renders `f64` shortest-roundtrip, so byte equality is bit equality.
fn serialize(r: &ReplayResult) -> Vec<u8> {
    format!("{r:#?}").into_bytes()
}

fn small_eval(bench: Benchmark, n: usize) -> (WorkloadTrace, WorkloadTrace) {
    let (mut engine, mut workload) = bench.setup_small();
    let profile = collect_traces(&mut engine, workload.as_mut(), n, 1);
    let eval = collect_traces(&mut engine, workload.as_mut(), n, 2);
    (profile, eval)
}

/// The headline equivalence: every scheduler, every benchmark, interned
/// replay produces byte-identical serialized results.
#[test]
fn interned_replay_is_byte_identical_on_all_benchmarks() {
    for bench in Benchmark::ALL {
        let (profile, eval) = small_eval(bench, 32);
        let interned = InternedWorkload::from_flat(&eval);
        let iset = interned.as_set();
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(8),
            ..ReplayConfig::paper_default()
        }
        .with_batch_size(8);
        let map = find_migration_points(&profile.xcts, cfg.sim.l1i);
        for kind in SchedulerKind::ALL {
            let flat = run_scheduler(kind, &eval.xcts, Some(&map), &cfg);
            let int = run_scheduler(kind, &iset, Some(&map), &cfg);
            assert_eq!(
                serialize(&flat),
                serialize(&int),
                "{kind:?} on {} diverged under interned replay",
                bench.name()
            );
        }
    }
}

/// The per-block execution path (fast paths off) is equivalent too —
/// interning must not depend on the fast paths for correctness.
#[test]
fn interned_per_block_path_is_byte_identical() {
    let (profile, eval) = small_eval(Benchmark::TpcC, 24);
    let interned = InternedWorkload::from_flat(&eval);
    let iset = interned.as_set();
    let cfg = ReplayConfig {
        fast_paths: false,
        ..ReplayConfig::paper_default()
    };
    let map = find_migration_points(&profile.xcts, cfg.sim.l1i);
    for kind in SchedulerKind::ALL {
        let flat = run_scheduler(kind, &eval.xcts, Some(&map), &cfg);
        let int = run_scheduler(kind, &iset, Some(&map), &cfg);
        assert_eq!(serialize(&flat), serialize(&int), "{kind:?} diverged");
    }
}

/// Interning while collecting (the at-scale path that never materializes
/// the flat set) produces the identical interned form — same traces, same
/// order, same pool layout — as collecting flat and interning after.
#[test]
fn collect_interned_matches_collect_then_intern() {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let mut pool = SlicePool::new();
    let streamed =
        collect_traces_interned_chunked(&mut engine, workload.as_mut(), 24, 7, &mut pool, 1);

    let (mut engine2, mut workload2) = Benchmark::TpcC.setup_small();
    let flat = collect_traces(&mut engine2, workload2.as_mut(), 24, 7);
    let batch = InternedWorkload::from_flat(&flat);

    assert_eq!(streamed.len(), batch.xcts.len());
    for (a, b) in streamed.iter().zip(&batch.xcts) {
        assert_eq!(a, b, "streamed interning diverged from batch interning");
    }
    assert_eq!(pool.n_events(), batch.pool.n_events());
    assert_eq!(pool.unique_slices(), batch.pool.unique_slices());
    assert_eq!(pool.slices_interned(), batch.pool.slices_interned());
}

/// Algorithm 1 over interned profiling traces chooses the same migration
/// points, frequencies, and instruction tallies as over flat ones.
#[test]
fn interned_profiling_finds_identical_migration_points() {
    let (profile, _) = small_eval(Benchmark::TpcC, 32);
    let interned = InternedWorkload::from_flat(&profile);
    let l1i = ReplayConfig::paper_default().sim.l1i;
    let flat_map = find_migration_points(&profile.xcts, l1i);
    let int_map = find_migration_points_interned(interned.as_set(), l1i);
    assert_eq!(flat_map.xct_types(), int_map.xct_types());
    for ty in flat_map.xct_types() {
        assert_eq!(flat_map.type_frequency(ty), int_map.type_frequency(ty));
        assert_eq!(
            flat_map.wrapper_instructions(ty),
            int_map.wrapper_instructions(ty)
        );
        assert_eq!(flat_map.ops_of(ty), int_map.ops_of(ty));
        for op in flat_map.ops_of(ty) {
            assert_eq!(
                flat_map.points(ty, op),
                int_map.points(ty, op),
                "{ty:?}/{op:?}"
            );
            assert_eq!(flat_map.frequency(ty, op), int_map.frequency(ty, op));
            assert_eq!(
                flat_map.op_instructions(ty, op),
                int_map.op_instructions(ty, op)
            );
        }
    }
}

/// The TraceSet metadata the schedulers consume (type ids for batching,
/// instruction counts for STREX's load balancer) agrees across layouts.
#[test]
fn interned_metadata_matches_flat() {
    let (_, eval) = small_eval(Benchmark::TpcE, 24);
    let interned = InternedWorkload::from_flat(&eval);
    let iset = interned.as_set();
    assert_eq!(TraceSet::len(&iset), eval.xcts.len());
    for i in 0..eval.xcts.len() {
        assert_eq!(TraceSet::xct_type(&iset, i), eval.xcts[i].xct_type);
        assert_eq!(
            TraceSet::instructions_of(&iset, i),
            eval.xcts[i].instructions()
        );
    }
}
