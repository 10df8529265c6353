//! Criterion microbenchmarks for the replay hot path: L1-I segment walks
//! vs per-block cache accesses, warm data runs vs per-access data walks,
//! building and dropping the paper-default machine (every replay builds
//! one), the coherence directory, and over real small-scale TPC-C
//! traces: the interned cursor's delta-varint address decode, Baseline
//! and ADDICT replays, and Algorithm 1 over the profile set;
//! and the fixed costs of a small service job: a Baseline replay of its
//! 20-transaction YCSB-B eval set, machine build and teardown included,
//! and the serialization of its result.
//!
//! Run with `cargo bench --bench hotpath`. The `bench` binary
//! (`cargo run --release --bin bench`) regenerates the latest
//! `BENCH_n.json` with the headline events/sec numbers.

use addict_bench::{run_job, JobSpec, TraceKey, TracePool, EVAL_SEED, PROFILE_SEED};
use addict_core::algorithm1::find_migration_points_interned;
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::coherence::Directory;
use addict_sim::{BlockAddr, CacheGeometry, CoreId, Machine, SetAssocCache, SimConfig};
use addict_trace::event::FlatEvent;
use addict_trace::intern::InternCursor;
use addict_trace::{DataRun, Fetched, InternedSet, TraceEvent};
use addict_workloads::{collect_traces_interned, Benchmark};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_cache_walks(c: &mut Criterion) {
    let geom = CacheGeometry::new(32 * 1024, 8);
    // Warm 512 consecutive blocks; both benches then walk the resident run.
    let mut warm = SetAssocCache::new(geom);
    for i in 0..512u64 {
        warm.access(BlockAddr(i));
    }
    c.bench_function("cache/per_block_512_hits", |b| {
        let mut cache = warm.clone();
        b.iter(|| {
            let mut hits = 0u32;
            for i in 0..512u64 {
                hits += u32::from(cache.access(BlockAddr(i)).hit);
            }
            black_box(hits)
        })
    });
    c.bench_function("cache/run_hits_512", |b| {
        let mut cache = warm.clone();
        b.iter(|| {
            let (a, _) = cache.access_run(BlockAddr(0), 256);
            let (b2, _) = cache.access_run(BlockAddr(256), 256);
            black_box(a + b2)
        })
    });
}

fn bench_directory(c: &mut Criterion) {
    c.bench_function("directory/read_write_evict_churn", |b| {
        let mut d = Directory::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let block = BlockAddr(i % 4096);
            let core = (i % 16) as usize;
            match i % 4 {
                0 => black_box(d.on_write(core, block).is_silent()),
                3 => {
                    d.on_evict(core, block);
                    true
                }
                _ => black_box(d.on_read(core, block).is_silent()),
            }
        })
    });
    c.bench_function("directory/write_storm_16_sharers", |b| {
        let mut d = Directory::new();
        for core in 0..16 {
            d.on_read(core, BlockAddr(7));
        }
        let mut w = 0usize;
        b.iter(|| {
            w = (w + 1) % 16;
            let act = d.on_write(w, BlockAddr(7));
            // Re-establish the sharers so every iteration invalidates.
            for core in 0..16 {
                d.on_read(core, BlockAddr(7));
            }
            black_box(act.invalidate.count())
        })
    });
}

/// The small-scale TPC-C key a job fetches for `seed`: 400 transactions.
fn tpcc_small(seed: u64) -> TraceKey {
    TraceKey {
        bench: Benchmark::TpcC,
        seed,
        n_xcts: 400,
        chunk: 0,
        small: true,
    }
}

/// Replay a real trace the way a job does: the interned TPC-C eval set of
/// a small-scale database (400 transactions, the job layer's seeds) under
/// the paper-default machine, with ADDICT's map profiled from the profile
/// seed. Generation and Algorithm 1 run once, outside the timed loop.
fn bench_replay_tpcc_small(c: &mut Criterion) {
    let pool = TracePool::unbounded();
    let (eval, _) = pool.get(&tpcc_small(EVAL_SEED), 1);
    let (_, map, _) = pool.get_profile(&tpcc_small(PROFILE_SEED));
    let cfg = ReplayConfig::paper_default();
    for kind in [SchedulerKind::Baseline, SchedulerKind::Addict] {
        let name = format!("replay/tpcc_small_{}", kind.name().to_lowercase());
        c.bench_function(&name, |b| {
            b.iter(|| black_box(run_scheduler(kind, &eval.as_set(), Some(&map), &cfg)))
        });
    }
}

/// Algorithm 1 over the profile set a small TPC-C job profiles: the
/// interned traces are fetched once, and every iteration computes the map
/// afresh (the pool's memoized map is not used).
fn bench_alg1_tpcc_small(c: &mut Criterion) {
    let pool = TracePool::unbounded();
    let (profile, _) = pool.get(&tpcc_small(PROFILE_SEED), 1);
    let l1i = ReplayConfig::paper_default().sim.l1i;
    c.bench_function("alg1/tpcc_small_profile", |b| {
        b.iter(|| {
            black_box(find_migration_points_interned(
                black_box(profile.as_set()),
                l1i,
            ))
        })
    });
}

/// The shape of a `small-jobs` service job: small-scale YCSB-B, 20
/// transactions, Baseline and ADDICT. `machine/replay_drop_small` is one
/// of its replays, where building and dropping the machine weigh as much
/// as the events; `job/to_json_small` serializes its result, digests
/// included.
fn bench_small_job(c: &mut Criterion) {
    let mut spec = JobSpec::new(vec![Benchmark::YcsbB], 20);
    spec.small = true;
    spec.schedulers = vec![SchedulerKind::Baseline, SchedulerKind::Addict];
    let pool = TracePool::unbounded();
    let result = run_job(&spec, &pool, &|_| {}).expect("job runs");
    let (eval, _) = pool.get(&spec.eval_key(Benchmark::YcsbB), 1);
    let cfg = ReplayConfig::paper_default();
    c.bench_function("machine/replay_drop_small", |b| {
        b.iter(|| {
            black_box(run_scheduler(
                SchedulerKind::Baseline,
                &eval.as_set(),
                None,
                &cfg,
            ))
        })
    });
    c.bench_function("job/to_json_small", |b| {
        b.iter(|| black_box(black_box(&result).to_json()))
    });
}

/// Drive the interned cursor through every event of every trace the way
/// the replay inner loop does — `fetch`, whole-run `advance_run`,
/// `gather_data_run` + `advance_data_run` for data bursts — returning an
/// address checksum so nothing folds away. This is exactly the
/// delta-varint decode path: every data address re-derived from the
/// region-base cursor state, zero allocation.
fn cursor_walk(set: &InternedSet<'_>) -> u64 {
    let mut sum = 0u64;
    let mut run = DataRun::new();
    for idx in 0..set.len() {
        let mut cur = InternCursor::default();
        loop {
            match set.fetch(idx, cur) {
                Fetched::Run { block, rem, ipb } => {
                    sum = sum.wrapping_add(block.0).wrapping_add(u64::from(ipb));
                    set.advance_run(idx, &mut cur, rem, rem);
                }
                Fetched::Event(ev) => {
                    if let FlatEvent::Data { .. } = ev {
                        run.clear();
                        let k = set.gather_data_run(idx, cur, &mut run);
                        for a in run.accesses() {
                            sum = sum.wrapping_add(a.block.0);
                        }
                        set.advance_data_run(idx, &mut cur, k);
                    } else {
                        set.advance_event(idx, &mut cur, ev);
                    }
                }
                Fetched::End => break,
            }
        }
    }
    sum
}

fn bench_cursor_decode(c: &mut Criterion) {
    let (mut engine, mut workload) = Benchmark::TpcC.setup_small();
    let interned = collect_traces_interned(&mut engine, workload.as_mut(), 400, EVAL_SEED);
    // The same checksum straight off the flattened events.
    let recorded = interned
        .flatten()
        .xcts
        .iter()
        .flat_map(|t| &t.events)
        .fold(0u64, |sum, e| match *e {
            TraceEvent::Instr { block, ipb, .. } => {
                sum.wrapping_add(block.0).wrapping_add(u64::from(ipb))
            }
            TraceEvent::Data { block, .. } => sum.wrapping_add(block.0),
            _ => sum,
        });
    assert_eq!(
        recorded,
        cursor_walk(&interned.as_set()),
        "decode diverged from the recorded events"
    );
    c.bench_function("cursor/interned_delta_decode_tpcc_small", |b| {
        b.iter(|| black_box(cursor_walk(black_box(&interned.as_set()))))
    });
}

fn bench_machine_data_runs(c: &mut Criterion) {
    use addict_sim::DataAccess;
    let cfg = SimConfig::paper_default().with_cores(2);
    // A warm 64-access private run: half loads, half stores on dirty lines
    // — entirely consumable by the directory-silent fast lane.
    let run: Vec<DataAccess> = (0..64u64)
        .map(|i| DataAccess {
            block: BlockAddr(0x9000 + i),
            write: i % 2 == 0,
        })
        .collect();
    c.bench_function("machine/access_data_run_warm_64", |b| {
        let mut m = Machine::new(&cfg);
        m.access_data_run(CoreId(0), &run, 0.0);
        b.iter(|| black_box(m.access_data_run(CoreId(0), &run, 0.0)))
    });
    c.bench_function("machine/access_data_warm_64_per_block", |b| {
        let mut m = Machine::new(&cfg);
        m.access_data_run(CoreId(0), &run, 0.0);
        b.iter(|| {
            let mut cycles = 0.0f64;
            for a in &run {
                cycles += m.access_data(CoreId(0), a.block, a.write);
            }
            black_box(cycles)
        })
    });
}

fn bench_machine_fetch(c: &mut Criterion) {
    let cfg = SimConfig::paper_default().with_cores(2);
    c.bench_function("machine/fetch_instr_run_warm_400", |b| {
        let mut m = Machine::new(&cfg);
        for i in 0..400u64 {
            m.fetch_instr(CoreId(0), BlockAddr(i), 10);
        }
        b.iter(|| black_box(m.fetch_instr_run(CoreId(0), BlockAddr(0), 400, 10, 0.0, true)))
    });
    c.bench_function("machine/fetch_instr_warm_400_per_block", |b| {
        let mut m = Machine::new(&cfg);
        for i in 0..400u64 {
            m.fetch_instr(CoreId(0), BlockAddr(i), 10);
        }
        b.iter(|| {
            let mut cycles = 0.0f64;
            for i in 0..400u64 {
                cycles += m.fetch_instr(CoreId(0), BlockAddr(i), 10);
            }
            black_box(cycles)
        })
    });
}

fn bench_machine_new(c: &mut Criterion) {
    // The Table 1 machine: 16 cores' L1-I/L1-D plus a 16-bank LLC. Every
    // replay pays this before its first event.
    let cfg = SimConfig::paper_default();
    c.bench_function("machine/new_drop_paper_default", |b| {
        b.iter(|| drop(black_box(Machine::new(black_box(&cfg)))))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache_walks, bench_directory, bench_machine_new, bench_machine_fetch, bench_machine_data_runs, bench_small_job, bench_cursor_decode, bench_replay_tpcc_small, bench_alg1_tpcc_small
);
criterion_main!(benches);
