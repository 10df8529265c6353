//! Golden digests: every benchmark × scheduler point of a small job must
//! reproduce the `result_fnv64` committed in `golden_digests.txt`, so must
//! Baseline and ADDICT under the non-default cache configurations (the
//! deep hierarchy's private L2, the next-line L1-I prefetcher), and every
//! workload's traces must reproduce the trace digests in [`TRACE_GOLDEN`].
//!
//! The differential gates (flat vs fast paths, flat vs interned, 1 vs N
//! sweep threads) compare two in-tree paths with each other, so a change
//! that moves *both* sides — the coherence directory, storage layout,
//! population — passes them silently. These tables anchor the results
//! and the traces themselves. A change that moves a digest on purpose
//! regenerates the table (the failure message prints the full
//! replacement) and says why.

use std::fmt::Write as _;

use addict_bench::jsontext::JsonValue;
use addict_bench::{
    fetch_traces, fnv64, pretty_debug_fnv64, run_grid, run_job, CancelToken, JobSpec, TraceKey,
    TracePool, DEFAULT_GEN_CHUNK,
};
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::SimConfig;
use addict_trace::XctTrace;
use addict_workloads::tpcb::TpcB;
use addict_workloads::{collect_traces, Benchmark};

/// The committed table: `benchmark scheduler result_fnv64` per line for
/// the small job, `config benchmark scheduler digest` per line for the
/// non-default cache configurations.
const GOLDEN: &str = include_str!("golden_digests.txt");

/// The rows of [`GOLDEN`] with `fields` whitespace-separated fields.
fn golden_rows(fields: usize) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && l.split_whitespace().count() == fields)
        .collect()
}

/// Transactions per benchmark: a debug build runs the whole grid in a few
/// seconds.
const N_XCTS: usize = 100;

/// The `result_fnv64` of every serialized point, in grid order.
fn point_digests(result_json: &str) -> Vec<String> {
    let doc = JsonValue::parse(result_json).expect("result parses");
    let points = doc.get("points").expect("points").as_arr("points").unwrap();
    points
        .iter()
        .map(|p| {
            let digest = p.get("result_fnv64").expect("result_fnv64");
            digest.as_str("result_fnv64").unwrap().to_owned()
        })
        .collect()
}

#[test]
fn small_job_digests_match_the_committed_table() {
    let mut spec = JobSpec::new(Benchmark::ALL.to_vec(), N_XCTS);
    spec.small = true;
    spec.threads = 2;
    let result = run_job(&spec, &TracePool::unbounded(), &|_| {}).expect("job runs");

    let actual: Vec<String> = result
        .points
        .iter()
        .zip(point_digests(&result.to_json()))
        .map(|(p, digest)| format!("{} {} {digest}", p.benchmark.id(), p.scheduler.id()))
        .collect();
    let expected = golden_rows(3);
    assert_eq!(
        actual.len(),
        Benchmark::ALL.len() * spec.schedulers.len(),
        "one point per benchmark × scheduler"
    );
    assert!(
        actual == expected,
        "result digests moved; if that is intended, replace the table \
         with:\n{}",
        actual.join("\n")
    );
}

/// Baseline and ADDICT on small TPC-C and YCSB-A under the two cache
/// configurations the small job never runs: the deep hierarchy (every L1
/// miss goes through the private L2) and the next-line L1-I prefetcher
/// (per-block fetches, each probing the next block with `contains`).
/// Each digest is FNV-1a over the `{:#?}` form of the whole
/// `ReplayResult`, so it pins every counter, not the 2-decimal ratios the
/// `fig8` and `ablation` stdout goldens print.
#[test]
fn non_default_cache_digests_match_the_committed_table() {
    let mut spec = JobSpec::new(vec![Benchmark::TpcC, Benchmark::YcsbA], N_XCTS);
    spec.small = true;
    spec.threads = 2;
    let sets = fetch_traces(&spec, &TracePool::unbounded(), &|_| {}, &CancelToken::new())
        .expect("an un-armed token never fires");
    let mut prefetch = SimConfig::paper_default();
    prefetch.l1i_next_line_prefetch = true;
    let configs = [("deep", SimConfig::paper_deep()), ("prefetch", prefetch)];

    let mut actual = Vec::new();
    for set in &sets {
        for (label, sim) in &configs {
            let cfg = ReplayConfig {
                sim: sim.clone(),
                ..ReplayConfig::paper_default()
            };
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Addict] {
                let r = run_scheduler(scheduler, &set.eval.as_set(), Some(&set.map), &cfg);
                let digest = fnv64(format!("{r:#?}").as_bytes());
                actual.push(format!(
                    "{label} {} {} {digest:016x}",
                    set.bench.id(),
                    scheduler.id()
                ));
            }
        }
    }
    assert!(
        actual.iter().eq(golden_rows(4)),
        "non-default cache digests moved; if that is intended, replace \
         those rows of golden_digests.txt with:\n{}",
        actual.join("\n")
    );
}

/// A point's `result_fnv64` is computed from the compact `{:?}` form
/// through a layout rewrite ([`pretty_debug_fnv64`]); the digest it
/// stands for is FNV-1a over the `{:#?}` text. The two agree on every
/// scheduler × benchmark result of a small job on the paper-default
/// machine, the deep hierarchy and the next-line L1-I prefetcher.
#[test]
fn result_digest_equals_the_pretty_printer_digest_on_every_machine() {
    let mut spec = JobSpec::new(Benchmark::ALL.to_vec(), N_XCTS);
    spec.small = true;
    spec.threads = 2;
    let sets = fetch_traces(&spec, &TracePool::unbounded(), &|_| {}, &CancelToken::new())
        .expect("an un-armed token never fires");
    let mut prefetch = SimConfig::paper_default();
    prefetch.l1i_next_line_prefetch = true;
    let configs = [
        ("paper", SimConfig::paper_default()),
        ("deep", SimConfig::paper_deep()),
        ("prefetch", prefetch),
    ];
    for set in &sets {
        for (label, sim) in &configs {
            let cfg = ReplayConfig {
                sim: sim.clone(),
                ..ReplayConfig::paper_default()
            };
            for scheduler in SchedulerKind::ALL {
                let r = run_scheduler(scheduler, &set.eval.as_set(), Some(&set.map), &cfg);
                assert_eq!(
                    pretty_debug_fnv64(&r),
                    fnv64(format!("{r:#?}").as_bytes()),
                    "{label} {} {}",
                    set.bench.id(),
                    scheduler.id()
                );
            }
        }
    }
}

/// FNV-1a over each trace's Debug form of `(xct_type, events)`, in trace
/// order.
fn trace_digest(traces: &[XctTrace]) -> String {
    let mut text = String::new();
    for t in traces {
        let _ = write!(text, "{:?}", (t.xct_type, &t.events));
    }
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// Seed of the per-workload trace digests.
const TRACE_SEED: u64 = 1;

/// `benchmark trace_digest` of `N_XCTS` transactions at `setup_small`,
/// seed [`TRACE_SEED`], in [`Benchmark::ALL`] order.
const TRACE_GOLDEN: &str = "\
tpcb 02ba8d7a82d555a2
tpcc d77fb8547f6e5b59
tpce 00485ccc882a6247
tatp 8a611ba10f927ce2
ycsba 965a8bbab1a49296
ycsbb 4d8de71e5db2e50d";

#[test]
fn small_trace_digests_match_the_committed_table() {
    let actual: Vec<String> = Benchmark::ALL
        .iter()
        .map(|b| {
            let (mut engine, mut workload) = b.setup_small();
            let traces = collect_traces(&mut engine, workload.as_mut(), N_XCTS, TRACE_SEED);
            format!("{} {}", b.id(), trace_digest(&traces.xcts))
        })
        .collect();
    assert!(
        actual.iter().eq(TRACE_GOLDEN.lines()),
        "trace digests moved; if that is intended, replace TRACE_GOLDEN \
         with:\n{}",
        actual.join("\n")
    );
}

/// TPC-B traces of `n` transactions at `branches × tellers × accounts`.
/// Every TPC-B digest in this file dates from an earlier TPC-B
/// implementation; each rewrite since has had to reproduce them.
fn tpcb_digest(scale: (u64, u64, u64), n: usize, seed: u64) -> String {
    let (mut engine, mut workload) = TpcB::setup(scale.0, scale.1, scale.2);
    trace_digest(&collect_traces(&mut engine, &mut workload, n, seed).xcts)
}

/// TPC-B at the `setup_small` scale, over several seeds.
#[test]
fn tpcb_small_scale_trace_digests_match() {
    let cases = [
        (1, "0429a0845dc3ba68"),
        (2, "2bfe6a82d50eff92"),
        (42, "0898fd6e7738185b"),
    ];
    for (seed, golden) in cases {
        assert_eq!(tpcb_digest((2, 4, 100), 40, seed), golden, "seed {seed}");
    }
}

/// TPC-B at an odd scale: uneven branch sizes exercise the child-key
/// partition arithmetic, and 501 accounts per branch force multi-level
/// B+-tree descents whose page ids must match exactly.
#[test]
fn tpcb_odd_scale_trace_digest_matches() {
    assert_eq!(tpcb_digest((3, 7, 501), 60, 7), "ba6a1fef8931f6bd");
}

/// Seed and length of the default-scale trace digests.
const DEFAULT_SCALE_SEED: u64 = 2;
const DEFAULT_SCALE_XCTS: usize = 50;

/// `benchmark trace_digest` of [`DEFAULT_SCALE_XCTS`] transactions at
/// each benchmark's default (figure-binary) scale, seed
/// [`DEFAULT_SCALE_SEED`]. The default scales descend deeper B+-trees than
/// `setup_small`, so these rows pin page and node ids the small digests
/// never reach.
const DEFAULT_SCALE_GOLDEN: [(Benchmark, &str); 6] = [
    (Benchmark::TpcB, "8195ef7b6bf31ffc"),
    (Benchmark::TpcC, "bd14ed3332250df0"),
    (Benchmark::TpcE, "ee276c18776128ea"),
    (Benchmark::Tatp, "4e3f74dc1a8d3856"),
    (Benchmark::YcsbA, "564237cf95b67a00"),
    (Benchmark::YcsbB, "904a98847060a770"),
];

fn default_scale_golden(bench: Benchmark) -> &'static str {
    let (_, digest) = DEFAULT_SCALE_GOLDEN
        .iter()
        .find(|(b, _)| *b == bench)
        .expect("every benchmark has a row");
    digest
}

/// `bench`'s default-scale traces, collected on a freshly populated engine.
fn default_scale_digest(bench: Benchmark) -> String {
    let (mut engine, mut workload) = bench.setup();
    let traces = collect_traces(
        &mut engine,
        workload.as_mut(),
        DEFAULT_SCALE_XCTS,
        DEFAULT_SCALE_SEED,
    );
    trace_digest(&traces.xcts)
}

/// TPC-B at its default scale (16 × 10 × 8000).
#[test]
fn tpcb_default_scale_trace_digest_matches() {
    let bench = Benchmark::TpcB;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

#[test]
fn tpcc_default_scale_trace_digest_matches() {
    let bench = Benchmark::TpcC;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

#[test]
fn tpce_default_scale_trace_digest_matches() {
    let bench = Benchmark::TpcE;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

#[test]
fn tatp_default_scale_trace_digest_matches() {
    let bench = Benchmark::Tatp;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

#[test]
fn ycsba_default_scale_trace_digest_matches() {
    let bench = Benchmark::YcsbA;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

#[test]
fn ycsbb_default_scale_trace_digest_matches() {
    let bench = Benchmark::YcsbB;
    assert_eq!(default_scale_digest(bench), default_scale_golden(bench));
}

/// The same default-scale digests through a trace pool, whose misses
/// trace clones of one populated engine per benchmark: each digest key is
/// fetched after the benchmark's snapshot has already served another
/// seed, so a clone that shared or inherited state would move it.
#[test]
fn default_scale_digests_match_through_a_cloned_snapshot() {
    let pool = TracePool::unbounded();
    let key = |bench, seed, n_xcts| TraceKey {
        bench,
        seed,
        n_xcts,
        chunk: DEFAULT_GEN_CHUNK,
        small: false,
    };
    let moved: Vec<String> = run_grid(&DEFAULT_SCALE_GOLDEN, 2, |_, &(bench, golden)| {
        pool.get(&key(bench, 1, 10), 1);
        let (w, hit) = pool.get(&key(bench, DEFAULT_SCALE_SEED, DEFAULT_SCALE_XCTS), 1);
        assert!(!hit);
        let digest = trace_digest(&w.flatten().xcts);
        (digest != golden).then(|| format!("{} {digest} (committed {golden})", bench.id()))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(moved.is_empty(), "cloned-snapshot digests moved: {moved:?}");
    let s = pool.stats();
    assert_eq!((s.generations, s.populations), (12, 6), "{s:?}");
}
