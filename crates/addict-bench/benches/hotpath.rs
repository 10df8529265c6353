//! Criterion microbenchmarks for the replay hot path: L1-I segment walks
//! vs per-block cache accesses, warm data runs vs per-access data walks,
//! the open-addressed coherence directory, the interned cursor's
//! delta-varint address decode vs the flat walk, and full
//! per-block-vs-fast-path replay under every scheduler.
//!
//! Run with `cargo bench --bench hotpath`. The `bench` binary
//! (`cargo run --release --bin bench`) regenerates the latest
//! `BENCH_n.json` with the headline events/sec numbers.

use addict_core::algorithm1::find_migration_points;
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::coherence::Directory;
use addict_sim::{BlockAddr, CacheGeometry, CoreId, Machine, SetAssocCache, SimConfig};
use addict_trace::event::FlatEvent;
use addict_trace::{
    DataRun, Fetched, InternedSet, InternedTrace, OpKind, SlicePool, TraceEvent, TraceSet,
    XctTrace, XctTypeId,
};
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
            let a = cache.run_hits(BlockAddr(0), 256);
            let b2 = cache.run_hits(BlockAddr(256), 256);
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

/// Synthetic OLTP-ish trace: long shared instruction runs with scattered
/// private data, the shape the paper's workloads exhibit.
fn synthetic_trace(i: u64) -> XctTrace {
    let mut events = vec![TraceEvent::XctBegin {
        xct_type: XctTypeId(0),
    }];
    for (op, base) in [(OpKind::Probe, 0x10_000u64), (OpKind::Update, 0x12_000)] {
        events.push(TraceEvent::OpBegin { op });
        events.push(TraceEvent::Instr {
            block: BlockAddr(base),
            n_blocks: 350,
            ipb: 10,
        });
        // A short run of consecutive private data touches (record + index
        // blocks), the shape the data-run path coalesces.
        for d in 0..4u64 {
            events.push(TraceEvent::Data {
                block: BlockAddr(0x1000_0000 + i * 8 + d),
                write: op == OpKind::Update,
            });
        }
        events.push(TraceEvent::OpEnd { op });
    }
    events.push(TraceEvent::XctEnd);
    XctTrace {
        xct_type: XctTypeId(0),
        events,
    }
}

fn bench_replay_modes(c: &mut Criterion) {
    let traces: Vec<XctTrace> = (0..64).map(synthetic_trace).collect();
    let base_cfg = ReplayConfig {
        sim: SimConfig::paper_default().with_cores(8),
        ..ReplayConfig::paper_default()
    }
    .with_batch_size(8);
    let map = find_migration_points(&traces, base_cfg.sim.l1i);
    for kind in SchedulerKind::ALL {
        for (mode, fast_paths) in [("flat", false), ("fast", true)] {
            let cfg = ReplayConfig {
                fast_paths,
                ..base_cfg.clone()
            };
            let name = format!("replay/{}_{mode}_64_xcts", kind.name().to_lowercase());
            c.bench_function(&name, |b| {
                b.iter(|| black_box(run_scheduler(kind, black_box(&traces), Some(&map), &cfg)))
            });
        }
    }
}

/// Drive a [`TraceSet`] cursor through every event of every trace the way
/// the replay inner loop does — `fetch`, whole-run `advance_run`,
/// `gather_data_run` + `advance_data_run` for data bursts — returning an
/// address checksum so nothing folds away. On the interned set this is
/// exactly the delta-varint decode path: every data address re-derived
/// from the region-base cursor state, zero allocation.
fn cursor_walk<T: TraceSet + ?Sized>(set: &T) -> u64 {
    let mut sum = 0u64;
    let mut run = DataRun::new();
    for idx in 0..set.len() {
        let mut cur = T::Cursor::default();
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
    let traces: Vec<XctTrace> = (0..64).map(synthetic_trace).collect();
    let mut pool = SlicePool::new();
    let interned: Vec<InternedTrace> = traces
        .iter()
        .map(|t| InternedTrace::intern(t, &mut pool))
        .collect();
    let set = InternedSet {
        pool: &pool,
        xcts: &interned,
    };
    let flat_sum = cursor_walk(traces.as_slice());
    assert_eq!(flat_sum, cursor_walk(&set), "decode diverged from flat");
    c.bench_function("cursor/flat_walk_64_xcts", |b| {
        b.iter(|| black_box(cursor_walk(black_box(traces.as_slice()))))
    });
    c.bench_function("cursor/interned_delta_decode_64_xcts", |b| {
        b.iter(|| black_box(cursor_walk(black_box(&set))))
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

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache_walks, bench_directory, bench_machine_fetch, bench_machine_data_runs, bench_cursor_decode, bench_replay_modes
);
criterion_main!(benches);
