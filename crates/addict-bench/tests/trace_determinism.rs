//! Trace generation is a pure function of its [`TraceKey`]: a freshly
//! populated storage engine, or a clone of one, traced from a freshly
//! seeded transaction stream. A trace-pool fetch equals a direct
//! collection, the recorder's interned set equals interning its own
//! flattened form afterwards, and fetching many keys at once never
//! changes what any of them contains.

use addict_bench::{run_grid, TraceKey, TracePool, EVAL_SEED, PROFILE_SEED};
use addict_trace::InternedWorkload;
use addict_workloads::{collect_traces_interned, Benchmark};

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
            chunk: 0,
            small: true,
        })
    })
    .collect()
}

/// `key`'s traces collected directly on a fresh engine.
fn collect_interned(key: &TraceKey) -> InternedWorkload {
    let (mut engine, mut workload) = key.bench.setup_small();
    collect_traces_interned(&mut engine, workload.as_mut(), key.n_xcts, key.seed)
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
fn interned_generation_flattens_to_flat_generation() {
    // The recorder's interned set flattens to what a second fresh engine
    // records, flattened, and interning that flat form afterwards lays the
    // pool out exactly as the recorder did.
    for key in keys() {
        let (mut engine, mut workload) = key.bench.setup_small();
        let flat =
            collect_traces_interned(&mut engine, workload.as_mut(), key.n_xcts, key.seed).flatten();
        let recorded = collect_interned(&key);
        assert_eq!(
            format!("{:?}", recorded.flatten()),
            format!("{flat:?}"),
            "{} lost information in interning",
            key.describe()
        );
        assert_eq!(
            canon(&recorded),
            canon(&InternedWorkload::from_flat(&flat)),
            "{} recorder layout diverged from interning after",
            key.describe()
        );
    }
}

#[test]
fn each_range_matches_direct_sequential_collection() {
    // Each benchmark's eval range is traced on a clone of the engine its
    // profile range populated; both match collection on a fresh engine.
    let pool = TracePool::unbounded();
    for key in keys() {
        let (fetched, hit) = pool.get(&key, 1);
        assert!(!hit);
        assert_eq!(
            canon(&fetched),
            canon(&collect_interned(&key)),
            "{} pool fetch diverged from direct collection",
            key.describe()
        );
    }
    assert_eq!(pool.stats().populations, 4, "one population per benchmark");
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
                collect_traces_interned(&mut engine, workload.as_mut(), k.n_xcts, k.seed).flatten()
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
