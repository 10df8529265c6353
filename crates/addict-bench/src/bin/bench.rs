//! `bench`: the replay-throughput trajectory artifact.
//!
//! For every selected benchmark (`--benchmarks`, default: the whole
//! registry — the TPC trio plus the TATP and YCSB mixes),
//! replays the interned evaluation traces (the arena-backed
//! [`InternedWorkload`] form, whose deduplicated `SlicePool` holds each
//! distinct event slice once) under all five schedulers, timing two
//! modes against each other:
//!
//! * **per_block** — per-block, per-event execution (the reference path,
//!   `ReplayConfig::fast_paths` off),
//! * **fast** — the production engine: segment-granular instruction runs
//!   plus run-granular data, whose private leading hits are consumed
//!   without a coherence-directory transaction,
//!
//! then times the **full (benchmark × scheduler) grid** through the sweep
//! engine at one thread vs `--threads N`, with the interned grid sharing
//! one `Arc`'d pool per workload. Writes `BENCH_11.json` with the host's
//! parallelism (`nproc`) in the header, events/sec and sim-cycles/sec per
//! workload, scheduler, and mode, the trace-memory footprint (flat vs
//! interned resident bytes, delta-encoded address bytes, pool dedup
//! ratio), the parallel-sweep wall times + speedup, a `service` section
//! timing the same job cold vs warm through the replay-as-a-service
//! layer's trace-pool cache (see SERVICE.md), and an `htm` section with
//! the HTMX scheduler's speculation outcomes.
//!
//! The interned profile and evaluation traces come from a trace pool,
//! whose misses trace a clone of a populated engine with a recorder that
//! interns each slice as it closes (`collect_traces_interned`), and
//! `--scaling` appends the trace-memory-vs-throughput ladder: interned
//! generation and replay at 400 / 10k / 100k / ... up to `--xcts`, with
//! per-rung footprint, events/s and peak RSS — the million-transaction
//! run the flat form cannot hold in memory.
//!
//! Determinism guards run on every invocation (CI's `--smoke` included)
//! and can fail the process:
//! * the pool's eval workload, traced on a clone of the benchmark's
//!   populated snapshot, must be **laid out identically** to a
//!   `collect_traces_interned` on a freshly populated engine — per trace
//!   the type, slice refs and encoded data bytes, and the events each ref
//!   resolves to — so the two decode to the same events (the
//!   `--xcts 2000` TPC-B step of CI's `release-gates` job),
//! * per_block and fast execution must produce bit-identical simulation
//!   output (a speedup can never be bought with accuracy) — the YCSB-A
//!   data-run step of CI's `release-gates` job,
//! * the 1-thread and N-thread sweeps must produce bit-identical
//!   per-scheduler `MachineStats` and makespans (parallelism can never
//!   change a result) — for TATP and YCSB exactly as for the TPC trio,
//!   and
//! * the cold and warm service jobs must serialize byte-identical, and
//!   every job point must match the matrix's own replay.
//!
//! Usage: `cargo run --release --bin bench -- [n_xcts] [out.json]
//! [--xcts N] [--threads N] [--benchmarks tpcb,tatp,...] [--smoke]
//! [--scaling]` (defaults: 400 transactions, `BENCH_11.json`; `--smoke`
//! is the CI-sized run: 60 transactions, one rep, `bench_smoke.json`;
//! `--scaling` caps the fixed-size matrix at 400 and ladders the first
//! selected benchmark up to `--xcts`).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use addict_bench::job::total_events_interned;
use addict_bench::{
    fetch_traces, parse_bench_args, run_grid, run_job, CancelToken, JobSpec, TracePool, EVAL_SEED,
};
use addict_core::algorithm1::MigrationMap;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_trace::InternedWorkload;
use addict_workloads::{collect_traces_interned, Benchmark};

/// The evaluation reference: `n` eval-seed traces of `bench` recorded on
/// a freshly populated engine, independent of the trace pool's snapshot.
fn fresh_eval(bench: Benchmark, n: usize) -> InternedWorkload {
    let (mut engine, mut workload) = bench.setup();
    collect_traces_interned(&mut engine, workload.as_mut(), n, EVAL_SEED)
}

/// Peak resident set size of this process so far (Linux `VmHWM`), if the
/// platform exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Assert the pool's interned workload is laid out exactly as the fresh
/// engine's: per trace the type, slice refs and encoded data bytes, and
/// the events each ref resolves to. Each side interned into a private
/// pool, so equal layouts decode to equal events — the runtime
/// pool-vs-fresh gate (CI's `release-gates` job runs it at `--xcts 2000`).
fn assert_same_layout(pooled: &InternedWorkload, fresh: &InternedWorkload, what: &str) {
    assert_eq!(
        pooled.xcts.len(),
        fresh.xcts.len(),
        "{what}: trace count diverged"
    );
    for (i, (p, f)) in pooled.xcts.iter().zip(&fresh.xcts).enumerate() {
        // Trace equality covers the type, slice refs and data bytes.
        assert!(p == f, "{what}: trace {i} layout diverged");
        for &r in p.slice_refs() {
            assert_eq!(
                pooled.pool.resolve(r),
                fresh.pool.resolve(r),
                "{what}: trace {i} slice {r:?} events diverged"
            );
        }
    }
}

struct ModeTiming {
    seconds: f64,
    events_per_sec: f64,
    sim_cycles_per_sec: f64,
}

/// Best-of-`reps` wall time for one scheduler/mode, timed sequentially on
/// the calling thread (per-scheduler throughput must not be polluted by
/// concurrent runs contending for the host's cores).
fn time_mode(
    run: impl Fn() -> ReplayResult,
    events: u64,
    reps: usize,
) -> (ModeTiming, ReplayResult) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = run();
        let s = t.elapsed().as_secs_f64();
        if s < best {
            best = s;
        }
        result = Some(r);
    }
    let result = result.expect("reps >= 1");
    let timing = ModeTiming {
        seconds: best,
        events_per_sec: events as f64 / best,
        sim_cycles_per_sec: result.total_cycles / best,
    };
    (timing, result)
}

fn json_mode(out: &mut String, label: &str, t: &ModeTiming) {
    let _ = write!(
        out,
        "        \"{label}\": {{ \"seconds\": {:.6}, \"events_per_sec\": {:.1}, \"sim_cycles_per_sec\": {:.1} }}",
        t.seconds, t.events_per_sec, t.sim_cycles_per_sec
    );
}

/// Assert two replays produced bit-identical simulation output.
fn assert_identical(a: &ReplayResult, b: &ReplayResult, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(
        a.total_cycles.to_bits(),
        b.total_cycles.to_bits(),
        "{what}: makespan diverged"
    );
    assert_eq!(a.latencies.len(), b.latencies.len(), "{what}");
    for (x, y) in a.latencies.iter().zip(&b.latencies) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: latency diverged");
    }
}

/// One benchmark's prepared replay inputs.
struct Prepared {
    bench: Benchmark,
    interned: Arc<InternedWorkload>,
    map: Arc<MigrationMap>,
    events: u64,
}

fn main() {
    let args = parse_bench_args(400);
    // In scaling mode the fixed-size matrix stays at its standard 400 so
    // the ladder's base rung has a reference; the big `--xcts` applies to
    // the ladder only.
    let n = if args.scaling {
        args.n_xcts.min(400)
    } else {
        args.n_xcts
    };
    let out_path = args.out.clone().unwrap_or_else(|| {
        if args.smoke {
            "bench_smoke.json".to_owned()
        } else {
            "BENCH_11.json".to_owned()
        }
    });
    // Best-of-N per mode: a shared host's attainable throughput drifts on
    // minute timescales, so each mode samples a wide window and keeps its
    // fastest rep.
    let reps = if args.smoke { 1 } else { 15 };
    let cfg = ReplayConfig::paper_default();
    let bench_names: Vec<&str> = args.benchmarks.iter().map(|b| b.name()).collect();

    eprintln!(
        "bench: generating {n}+{n} traces for {} on {} thread(s)...",
        bench_names.join(", "),
        args.threads
    );
    // Every benchmark's profile and eval keys fetch from a trace pool in
    // one parallel wave (one private storage engine per key); the fresh
    // engines' eval references follow in a second wave. Each pool eval
    // must be laid out exactly as its fresh reference: the runtime
    // pool-vs-fresh gate.
    let mut spec = JobSpec::new(args.benchmarks.clone(), n);
    spec.threads = args.threads;
    let sets = fetch_traces(&spec, &TracePool::unbounded(), &|_| {}, &CancelToken::new())
        .expect("an un-armed token never fires");
    let fresh = run_grid(&args.benchmarks, args.threads, |_, &b| fresh_eval(b, n));
    let prepared: Vec<Prepared> = sets
        .into_iter()
        .zip(fresh)
        .map(|(set, eval)| {
            assert_same_layout(&set.eval, &eval, set.bench.name());
            Prepared {
                bench: set.bench,
                map: set.map,
                events: set.events,
                interned: set.eval,
            }
        })
        .collect();
    eprintln!(
        "bench: pool traces laid out identically to fresh-engine generation for {}",
        bench_names.join(", ")
    );

    // Host parallelism, so a reader can tell which figures a second core
    // could have moved (the sweep) from those it cannot (a single replay).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = write!(
        out,
        "  \"artifact\": \"BENCH_11\",\n  \"nproc\": {nproc},\n  \"n_xcts\": {n},\n  \"n_cores\": {},\n  \"reps_best_of\": {reps},\n  \"workloads\": [\n",
        cfg.sim.n_cores
    );

    // Per-workload, per-scheduler mode timings with the per_block/fast
    // equivalence guard. The stored results come from the fast mode —
    // the same configuration the sweep below runs — and anchor its
    // bit-identity assert.
    let mut reference_results: Vec<Vec<ReplayResult>> = Vec::new();
    for (wi, p) in prepared.iter().enumerate() {
        let footprint = p.interned.footprint();
        eprintln!(
            "bench: {} — {} eval transactions, {} block-granular events; trace bytes {} flat -> {} interned ({:.2}x smaller; dedup {:.1}x over {} unique slices; {} data addresses in {} delta bytes, {:.2}x under raw)",
            p.bench.name(),
            p.interned.xcts.len(),
            p.events,
            footprint.flat_bytes,
            footprint.resident_bytes(),
            footprint.reduction(),
            footprint.dedup_ratio(),
            footprint.unique_slices,
            footprint.data_accesses,
            footprint.data_bytes,
            footprint.address_reduction()
        );
        let _ = write!(
            out,
            "  {{\n    \"workload\": \"{}\",\n    \"n_xcts\": {},\n    \"events\": {},\n",
            p.bench.name(),
            p.interned.xcts.len(),
            p.events
        );
        let _ = write!(
            out,
            "    \"trace_memory\": {{\n      \"flat_bytes\": {},\n      \"interned_resident_bytes\": {},\n      \"pool_bytes\": {},\n      \"per_trace_bytes\": {},\n      \"data_address_bytes\": {},\n      \"data_addresses\": {},\n      \"address_reduction\": {:.3},\n      \"reduction\": {:.3},\n      \"unique_slices\": {},\n      \"slices_interned\": {},\n      \"dedup_ratio\": {:.2}\n    }},\n    \"schedulers\": [\n",
            footprint.flat_bytes,
            footprint.resident_bytes(),
            footprint.pool_bytes,
            footprint.trace_bytes,
            footprint.data_bytes,
            footprint.data_accesses,
            footprint.address_reduction(),
            footprint.reduction(),
            footprint.unique_slices,
            footprint.slices_interned,
            footprint.dedup_ratio()
        );

        let iset = p.interned.as_set();
        let mut fast_results = Vec::new();
        for (i, kind) in SchedulerKind::ALL.iter().enumerate() {
            // The reference path disables the fast paths; `fast` is the
            // production configuration.
            let per_block_cfg = ReplayConfig {
                fast_paths: false,
                ..cfg.clone()
            };
            // Warm up caches/allocator before timing.
            let _ = run_scheduler(*kind, &iset, Some(&p.map), &cfg);
            let (per_block_t, per_block_r) = time_mode(
                || run_scheduler(*kind, &iset, Some(&p.map), &per_block_cfg),
                p.events,
                reps,
            );
            let (fast_t, fast_r) = time_mode(
                || run_scheduler(*kind, &iset, Some(&p.map), &cfg),
                p.events,
                reps,
            );

            // Equivalence guard: no fast path may change the simulation,
            // on TATP and YCSB exactly as on the trio. It is the data-run
            // gate of CI's `release-gates` job.
            assert_identical(
                &fast_r,
                &per_block_r,
                &format!("{}/{}: fast path", p.bench.name(), kind.name()),
            );

            let fast_speedup = per_block_t.seconds / fast_t.seconds;
            eprintln!(
                "bench: {:<6} {:<9} per_block {:>9.0} ev/s | fast {:>9.0} ev/s | fast speedup {:.2}x",
                p.bench.name(),
                kind.name(),
                per_block_t.events_per_sec,
                fast_t.events_per_sec,
                fast_speedup
            );

            let _ = write!(
                out,
                "      {{\n        \"scheduler\": \"{}\",\n        \"instructions\": {},\n        \"total_sim_cycles\": {:.1},\n",
                kind.name(),
                fast_r.instructions,
                fast_r.total_cycles
            );
            json_mode(&mut out, "per_block", &per_block_t);
            out.push_str(",\n");
            json_mode(&mut out, "fast", &fast_t);
            let _ = write!(
                out,
                ",\n        \"fast_speedup\": {fast_speedup:.3}\n      }}"
            );
            out.push_str(if i + 1 < SchedulerKind::ALL.len() {
                ",\n"
            } else {
                "\n"
            });
            fast_results.push(fast_r);
        }
        out.push_str("    ]\n  }");
        out.push_str(if wi + 1 < prepared.len() { ",\n" } else { "\n" });
        reference_results.push(fast_results);
    }
    out.push_str("  ],\n");

    // Parallel-sweep scaling: the full (benchmark × scheduler) grid
    // through the sweep engine, sequential vs `--threads N`, on the
    // **interned** traces — each workload's points borrow its Arc'd pool,
    // so N workers replay out of read-only arenas. Bit-identical checks
    // against both the 1-thread sweep and the sequentially timed matrix
    // runs above.
    let grid: Vec<(&Prepared, SchedulerKind)> = prepared
        .iter()
        .flat_map(|p| {
            SchedulerKind::ALL
                .iter()
                .map(move |&scheduler| (p, scheduler))
        })
        .collect();
    let replay = |&(p, scheduler): &(&Prepared, SchedulerKind)| {
        run_scheduler(scheduler, &p.interned.as_set(), Some(&p.map), &cfg)
    };
    let t = Instant::now();
    let seq = run_grid(&grid, 1, |_, point| replay(point));
    let seq_seconds = t.elapsed().as_secs_f64();
    // The parallel leg times each point inside its worker, so the artifact
    // records per-scheduler throughput *as achieved under the sweep* (on a
    // contended host this is lower than the isolated timings above — that
    // contention is exactly what the artifact should show).
    let t = Instant::now();
    let timed_par: Vec<(f64, ReplayResult)> = run_grid(&grid, args.threads, |_, point| {
        let t = Instant::now();
        let r = replay(point);
        (t.elapsed().as_secs_f64(), r)
    });
    let par_seconds = t.elapsed().as_secs_f64();
    let references = reference_results.iter().flatten();
    for ((((p, scheduler), s), (_, par)), reference) in
        grid.iter().zip(&seq).zip(&timed_par).zip(references)
    {
        let what = format!("{} / {}", p.bench.name(), scheduler.name());
        assert_identical(s, par, &format!("{what}: parallel sweep"));
        assert_eq!(
            s.stats, reference.stats,
            "{what}: interned sweep drifted from the matrix run"
        );
    }
    let sweep_speedup = seq_seconds / par_seconds;
    eprintln!(
        "bench: interned sweep grid ({} points over {} workloads) {:.3}s at 1 thread | {:.3}s at {} threads | speedup {:.2}x | results bit-identical to the matrix",
        grid.len(),
        prepared.len(),
        seq_seconds,
        par_seconds,
        args.threads,
        sweep_speedup
    );
    let _ = write!(
        out,
        "  \"sweep\": {{\n    \"points\": {},\n    \"traces\": \"interned (one shared pool per workload)\",\n    \"threads\": {},\n    \"seq_seconds\": {seq_seconds:.6},\n    \"par_seconds\": {par_seconds:.6},\n    \"parallel_speedup\": {sweep_speedup:.3},\n    \"bit_identical\": true,\n    \"per_point\": [\n",
        grid.len(),
        args.threads
    );
    for (i, ((p, scheduler), (secs, _))) in grid.iter().zip(&timed_par).enumerate() {
        let _ = write!(
            out,
            "      {{ \"workload\": \"{}\", \"scheduler\": \"{}\", \"seconds\": {secs:.6}, \"events_per_sec\": {:.1} }}{}",
            p.bench.name(),
            scheduler.name(),
            p.events as f64 / secs,
            if i + 1 < timed_par.len() { ",\n" } else { "\n" }
        );
    }
    out.push_str("    ]\n  },\n");

    service_section(&mut out, &args, &prepared[0], n, &reference_results[0]);
    out.push_str(",\n");
    htm_section(&mut out, &prepared, &reference_results);

    if args.scaling {
        out.push_str(",\n");
        scaling_section(&mut out, &args, &cfg, &prepared[0], reps);
    } else {
        out.push('\n');
    }
    out.push_str("}\n");

    std::fs::write(&out_path, out).expect("write benchmark artifact");
    eprintln!("bench: wrote {out_path}");
}

/// The `service` section: the first selected benchmark's (scheduler ×
/// paper-default) job executed twice through the replay-as-a-service
/// layer — once against a cold [`TracePool`] (both trace ranges
/// generate) and once warm (pure cache hits, zero regeneration). Records
/// cold vs warm job latency and the cache counters, and asserts the
/// service path's contracts on every run: cold and warm results
/// serialize **byte-identical**, and every job point is bit-identical to
/// the directly-timed matrix reference above (the service adds caching
/// and transport, never semantics).
fn service_section(
    out: &mut String,
    args: &addict_bench::BenchArgs,
    p0: &Prepared,
    n: usize,
    reference: &[ReplayResult],
) {
    let mut spec = JobSpec::new(vec![p0.bench], n);
    spec.threads = args.threads;
    let pool = TracePool::unbounded();
    let quiet = |_: &str| {};
    let t = Instant::now();
    let cold = run_job(&spec, &pool, &quiet).expect("cold service job");
    let cold_seconds = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = run_job(&spec, &pool, &quiet).expect("warm service job");
    let warm_seconds = t.elapsed().as_secs_f64();

    let stats = pool.stats();
    assert_eq!(
        (stats.misses, stats.generations, stats.hits),
        (2, 2, 2),
        "service: cold job must generate profile+eval once, warm job must hit both"
    );
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "service: cold and warm jobs must serialize byte-identical"
    );
    for (point, reference) in cold.points.iter().zip(reference) {
        assert_identical(
            &point.result,
            reference,
            &format!(
                "{}/{}: service job vs matrix",
                p0.bench.name(),
                point.scheduler.name()
            ),
        );
        assert_eq!(point.events, p0.events, "service: event count diverged");
    }

    let warm_speedup = cold_seconds / warm_seconds;
    eprintln!(
        "bench: service job ({} x {} schedulers @ {n}) cold {cold_seconds:.3}s | warm {warm_seconds:.3}s | warm speedup {warm_speedup:.1}x | cache {}H/{}M | results byte-identical",
        p0.bench.name(),
        cold.points.len(),
        stats.hits,
        stats.misses
    );
    let _ = write!(
        out,
        "  \"service\": {{\n    \"workload\": \"{}\",\n    \"schedulers\": {},\n    \"n_xcts\": {n},\n    \"threads\": {},\n    \"cold_seconds\": {cold_seconds:.6},\n    \"warm_seconds\": {warm_seconds:.6},\n    \"warm_speedup\": {warm_speedup:.3},\n    \"cache\": {{ \"hits\": {}, \"misses\": {}, \"generations\": {} }},\n    \"byte_identical\": true,\n    \"bit_identical_to_matrix\": true\n  }}",
        p0.bench.name(),
        cold.points.len(),
        args.threads,
        stats.hits,
        stats.misses,
        stats.generations
    );
}

/// The `htm` section: per-workload speculation outcomes of the HTMX
/// scheduler against the ADDICT reference. The abort counters come out of
/// the stored data-run matrix results (`ReplayResult::spec`, all-zero for
/// the non-speculative schedulers — asserted here), so the section is a
/// pure function of the same replays the matrix already timed: abort
/// rates by cause, retries, fallbacks, discarded speculative cycles, and
/// the simulated-makespan ratio vs ADDICT (above 1.0 = speculation
/// overhead cost cycles; the interesting workloads are the short-window,
/// low-conflict ones like TATP where bounded HTM fits).
fn htm_section(out: &mut String, prepared: &[Prepared], reference_results: &[Vec<ReplayResult>]) {
    let idx_of = |k: SchedulerKind| {
        SchedulerKind::ALL
            .iter()
            .position(|&x| x == k)
            .expect("registered scheduler")
    };
    let (hi, ai) = (idx_of(SchedulerKind::Htmx), idx_of(SchedulerKind::Addict));
    let _ = write!(
        out,
        "  \"htm\": {{\n    \"max_spec_lines\": {},\n    \"per_workload\": [\n",
        addict_sim::MAX_SPEC_LINES
    );
    for (wi, (p, results)) in prepared.iter().zip(reference_results).enumerate() {
        let htmx = &results[hi];
        let addict = &results[ai];
        for (kind, r) in SchedulerKind::ALL.iter().zip(results) {
            assert!(
                *kind == SchedulerKind::Htmx || r.spec.begins == 0,
                "{}/{}: non-speculative scheduler reported speculation",
                p.bench.name(),
                kind.name()
            );
        }
        let s = &htmx.spec;
        let cycles_vs_addict = htmx.total_cycles / addict.total_cycles;
        eprintln!(
            "bench: htm    {:<6} {} xcts | begins {} | commits {} | aborts {} (conflict {} / capacity {}) | abort rate {:.3} | fallbacks {} | discarded {:.0} cycles | cycles vs ADDICT {:.3}x",
            p.bench.name(),
            htmx.n_xcts,
            s.begins,
            s.commits,
            s.aborts(),
            s.aborts_conflict,
            s.aborts_capacity,
            s.abort_rate(),
            s.fallbacks,
            s.discarded_cycles,
            cycles_vs_addict
        );
        let _ = write!(
            out,
            "      {{ \"workload\": \"{}\", \"n_xcts\": {}, \"begins\": {}, \"commits\": {}, \"aborts_conflict\": {}, \"aborts_capacity\": {}, \"abort_rate\": {:.6}, \"retries\": {}, \"fallbacks\": {}, \"discarded_cycles\": {:.1}, \"htmx_total_cycles\": {:.1}, \"addict_total_cycles\": {:.1}, \"cycles_vs_addict\": {cycles_vs_addict:.6} }}{}",
            p.bench.name(),
            htmx.n_xcts,
            s.begins,
            s.commits,
            s.aborts_conflict,
            s.aborts_capacity,
            s.abort_rate(),
            s.retries,
            s.fallbacks,
            s.discarded_cycles,
            htmx.total_cycles,
            addict.total_cycles,
            if wi + 1 < prepared.len() { ",\n" } else { "\n" }
        );
    }
    out.push_str("    ]\n  }");
}

/// The `--scaling` ladder: interned generation and replay of the first
/// selected benchmark at 400 / 10k / 100k / ... up to `--xcts`
/// transactions, recording per-rung trace memory, generation and replay
/// wall time, events/s per scheduler, and the process's peak RSS. The
/// flat trace set never materializes — each rung's eval exists only in
/// interned form (at 1M TPC-B transactions the flat form alone
/// would be ~4 GB of events) — and rungs small enough to afford a second,
/// fresh-engine recording (≤ 10k) are checked against it layout for
/// layout, and replayed per-block against the fast paths, before being
/// timed.
fn scaling_section(
    out: &mut String,
    args: &addict_bench::BenchArgs,
    cfg: &ReplayConfig,
    p0: &Prepared,
    base_reps: usize,
) {
    const LADDER: [usize; 4] = [400, 10_000, 100_000, 1_000_000];
    let bench = p0.bench;
    let rungs: Vec<usize> = LADDER
        .iter()
        .copied()
        .filter(|&r| r < args.n_xcts)
        .chain([args.n_xcts])
        .collect();
    eprintln!(
        "bench: scaling ladder {rungs:?} for {} (profile fixed at {} traces)",
        bench.name(),
        p0.interned.xcts.len()
    );
    let per_block_cfg = ReplayConfig {
        fast_paths: false,
        ..cfg.clone()
    };
    let _ = write!(
        out,
        "  \"scaling\": {{\n    \"workload\": \"{}\",\n    \"rungs\": [\n",
        bench.name()
    );
    for (ri, &rung) in rungs.iter().enumerate() {
        let t = Instant::now();
        let (iw, _) =
            TracePool::unbounded().get(&JobSpec::new(vec![bench], rung).eval_key(bench), 1);
        let gen_seconds = t.elapsed().as_secs_f64();
        let fp = iw.footprint();
        let events = total_events_interned(&iw);
        let iset = iw.as_set();
        eprintln!(
            "bench: scaling {} @ {rung} — generated+interned in {gen_seconds:.1}s; {} events; resident {} B ({} B/xct, addresses {:.2}x under raw)",
            bench.name(),
            events,
            fp.resident_bytes(),
            fp.resident_bytes() / rung.max(1),
            fp.address_reduction()
        );
        // Rungs that afford a second recording get the pool-vs-fresh
        // gate before any timing; beyond that the equivalence is carried
        // by these gated rungs (the recorder's output does not depend on
        // scale, only on the transaction stream).
        let verified = rung <= 10_000;
        if verified {
            let fresh = fresh_eval(bench, rung);
            assert_same_layout(&iw, &fresh, &format!("{} scaling@{rung}", bench.name()));
            for kind in SchedulerKind::ALL {
                let reference = run_scheduler(kind, &iset, Some(&p0.map), &per_block_cfg);
                let fast = run_scheduler(kind, &iset, Some(&p0.map), cfg);
                assert_identical(
                    &fast,
                    &reference,
                    &format!("{}/{} scaling@{rung}", bench.name(), kind.name()),
                );
            }
            eprintln!(
                "bench: scaling @ {rung} laid out identically to a fresh engine's; fast replay bit-identical to per-block"
            );
        }
        // Small rungs take best-of like the fixed-size matrix; big rungs
        // run once — a single 10^8-event replay is its own steady state.
        let reps = if rung > 10_000 { 1 } else { base_reps.min(5) };
        let _ = write!(
            out,
            "      {{\n        \"n_xcts\": {rung},\n        \"events\": {events},\n        \"gen_seconds\": {gen_seconds:.3},\n        \"decoded_vs_flat\": \"{}\",\n        \"trace_memory\": {{ \"resident_bytes\": {}, \"pool_bytes\": {}, \"per_trace_bytes\": {}, \"data_address_bytes\": {}, \"data_addresses\": {}, \"address_reduction\": {:.3} }},\n",
            if verified { "verified" } else { "gated_at_smaller_rungs" },
            fp.resident_bytes(),
            fp.pool_bytes,
            fp.trace_bytes,
            fp.data_bytes,
            fp.data_accesses,
            fp.address_reduction()
        );
        out.push_str("        \"schedulers\": [\n");
        for (i, kind) in SchedulerKind::ALL.iter().enumerate() {
            let (timing, _) = time_mode(
                || run_scheduler(*kind, &iset, Some(&p0.map), cfg),
                events,
                reps,
            );
            eprintln!(
                "bench: scaling {:<6} @ {rung:>8} {:<9} {:>9.0} ev/s ({:.2}s)",
                bench.name(),
                kind.name(),
                timing.events_per_sec,
                timing.seconds
            );
            let _ = write!(
                out,
                "          {{ \"scheduler\": \"{}\", \"reps\": {reps}, \"seconds\": {:.3}, \"events_per_sec\": {:.1} }}{}",
                kind.name(),
                timing.seconds,
                timing.events_per_sec,
                if i + 1 < SchedulerKind::ALL.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        let rss = peak_rss_bytes().unwrap_or(0);
        let _ = write!(
            out,
            "        ],\n        \"peak_rss_bytes\": {rss}\n      }}{}",
            if ri + 1 < rungs.len() { ",\n" } else { "\n" }
        );
    }
    out.push_str("    ]\n  }\n");
}
