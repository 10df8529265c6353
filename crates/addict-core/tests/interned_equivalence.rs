//! The interned trace form against the flat recording format it is built
//! from: streamed interning equals interning after collection, Algorithm 1
//! finds the same migration points over both, and the per-trace metadata
//! the schedulers consume agrees. Replay itself runs the interned form
//! only; `segment_equivalence.rs` pins its fast paths against the
//! per-block path and `addict-trace`'s `tests/intern_roundtrip.rs` pins
//! the interned cursor against the flat event stream.

use addict_core::algorithm1::{find_migration_points, find_migration_points_interned};
use addict_core::replay::ReplayConfig;
use addict_trace::{InternedWorkload, SlicePool, WorkloadTrace};
use addict_workloads::{collect_traces, collect_traces_interned_chunked, Benchmark};

fn small_eval(bench: Benchmark, n: usize) -> (WorkloadTrace, WorkloadTrace) {
    let (mut engine, mut workload) = bench.setup_small();
    let profile = collect_traces(&mut engine, workload.as_mut(), n, 1);
    let eval = collect_traces(&mut engine, workload.as_mut(), n, 2);
    (profile, eval)
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

/// The trace metadata the schedulers consume (type ids for batching,
/// instruction counts for STREX's load balancer) agrees across layouts.
#[test]
fn interned_metadata_matches_flat() {
    let (_, eval) = small_eval(Benchmark::TpcE, 24);
    let interned = InternedWorkload::from_flat(&eval);
    let iset = interned.as_set();
    assert_eq!(iset.len(), eval.xcts.len());
    for i in 0..eval.xcts.len() {
        assert_eq!(iset.xct_type(i), eval.xcts[i].xct_type);
        assert_eq!(iset.instructions_of(i), eval.xcts[i].instructions());
    }
}
