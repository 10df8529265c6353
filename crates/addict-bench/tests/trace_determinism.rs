//! Trace generation is a pure function of its [`TraceKey`]: a fresh
//! storage engine traced from a freshly seeded transaction stream. The
//! drain granularity (`chunk`) only bounds memory, a trace-pool fetch
//! equals a direct collection, the interned set flattens to the flat
//! `collect_traces` of a fresh engine, and fetching many keys at once
//! never changes what any of them contains.

use addict_bench::{run_grid, TraceKey, TracePool, DEFAULT_GEN_CHUNK, EVAL_SEED, PROFILE_SEED};
use addict_trace::{InternedWorkload, SlicePool};
use addict_workloads::{collect_traces, collect_traces_interned_chunked, Benchmark};

/// Profile and eval keys of TPC-B, TPC-C, TATP and YCSB-A side by side,
/// at test scale: the contract is layout-independent.
fn keys() -> Vec<TraceKey> {
    [
        Benchmark::TpcB,
        Benchmark::TpcC,
        Benchmark::Tatp,
        Benchmark::YcsbA,
    ]
    .into_iter()
    .flat_map(|bench| {
        [PROFILE_SEED, EVAL_SEED].map(|seed| TraceKey {
            bench,
            seed,
            n_xcts: 12,
            chunk: DEFAULT_GEN_CHUNK,
            small: true,
        })
    })
    .collect()
}

/// `key`'s traces collected directly on a fresh engine, drained every
/// `chunk` transactions.
fn collect_interned(key: &TraceKey, chunk: usize) -> InternedWorkload {
    let (mut engine, mut workload) = key.bench.setup_small();
    let mut pool = SlicePool::new();
    let xcts = collect_traces_interned_chunked(
        &mut engine,
        workload.as_mut(),
        key.n_xcts,
        key.seed,
        &mut pool,
        chunk,
    );
    InternedWorkload {
        name: workload.name().to_owned(),
        xct_type_names: workload.xct_type_names(),
        pool: pool.into(),
        xcts,
    }
}

/// Canonical bytes of an interned set: names, every trace's slice refs
/// and encoded data, and the pool's shape.
fn canon(w: &InternedWorkload) -> String {
    format!(
        "{} {:?} {:?} events={} unique={} interned={}",
        w.name,
        w.xct_type_names,
        w.xcts,
        w.pool.n_events(),
        w.pool.unique_slices(),
        w.pool.slices_interned()
    )
}

#[test]
fn interned_generation_is_chunk_size_invariant() {
    // Draining the recorder after every transaction (chunk 1), at an odd
    // stride (7), at the default (64), or only once at the end (0 =
    // batch) gives byte-identical interned sets: pool layout, slice refs
    // and delta-encoded data bytes alike.
    for key in keys() {
        let reference = canon(&collect_interned(&key, 0));
        for chunk in [1, 7, 64] {
            assert_eq!(
                reference,
                canon(&collect_interned(&key, chunk)),
                "{} changed at chunk {chunk}",
                key.describe()
            );
        }
    }
}

#[test]
fn interned_generation_flattens_to_flat_generation() {
    for key in keys() {
        let (mut engine, mut workload) = key.bench.setup_small();
        let flat = collect_traces(&mut engine, workload.as_mut(), key.n_xcts, key.seed);
        assert_eq!(
            format!("{:?}", collect_interned(&key, DEFAULT_GEN_CHUNK).flatten()),
            format!("{flat:?}"),
            "{} lost information in interning",
            key.describe()
        );
    }
}

#[test]
fn each_range_matches_direct_sequential_collection() {
    let pool = TracePool::unbounded();
    for key in keys() {
        let (fetched, hit) = pool.get(&key, 1);
        assert!(!hit);
        assert_eq!(
            canon(&fetched),
            canon(&collect_interned(&key, key.chunk)),
            "{} pool fetch diverged from direct collection",
            key.describe()
        );
    }
}

#[test]
fn generation_is_bit_identical_across_thread_counts() {
    // Flat traces collected on fresh engines fanned out over the worker
    // pool (the reference `bench` checks its fast paths against) come back
    // byte-identical and in key order at any thread count.
    let keys = keys();
    let collect_all = |threads: usize| -> Vec<String> {
        run_grid(&keys, threads, |_, k| {
            let (mut engine, mut workload) = k.bench.setup_small();
            format!(
                "{:?}",
                collect_traces(&mut engine, workload.as_mut(), k.n_xcts, k.seed)
            )
        })
    };
    let sequential = collect_all(1);
    for threads in [2, 3, 8] {
        assert_eq!(
            sequential,
            collect_all(threads),
            "generation changed at {threads} threads"
        );
    }
}

#[test]
fn interned_generation_is_bit_identical_across_thread_counts() {
    // Fetching every key through one pool concurrently gives the same
    // interned sets as fetching them one by one.
    let keys = keys();
    let fetch_all = |threads: usize| -> Vec<String> {
        let pool = TracePool::unbounded();
        run_grid(&keys, threads, |_, k| canon(&pool.get(k, 1).0))
    };
    let sequential = fetch_all(1);
    for threads in [2, 4] {
        assert_eq!(
            sequential,
            fetch_all(threads),
            "interned generation changed at {threads} threads"
        );
    }
}
