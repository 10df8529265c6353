//! Behaviour of the TPC-B, TATP and YCSB workloads through the
//! `Benchmark` entry points the harness uses: determinism in the seed, the
//! mix shapes the TATP and YCSB entries exist to probe, and the RNG
//! contract at the runner boundary. Bit-for-bit trace content is pinned by
//! the golden trace digests in `addict-bench/tests/golden_digests.rs`.

use addict_trace::XctTrace;
use addict_workloads::tpcb::TpcB;
use addict_workloads::{collect_traces, Benchmark, WorkloadRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bit_identical(a: &[XctTrace], b: &[XctTrace], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: trace counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.xct_type, y.xct_type, "{what}: transaction {i} type");
        assert_eq!(
            x.events, y.events,
            "{what}: transaction {i} events diverged"
        );
    }
}

#[test]
fn tpcb_metadata_matches() {
    let (_, tpcb) = TpcB::setup(2, 4, 100);
    assert_eq!(tpcb.name(), "TPC-B");
    assert_eq!(tpcb.xct_type_names(), ["AccountUpdate"]);
}

/// TPC-B, TATP and YCSB satisfy the same determinism contract as TPC-C
/// and TPC-E: identical seed, identical traces — through the same
/// `Benchmark` entry points the harness uses.
#[test]
fn registry_benchmarks_are_deterministic() {
    for bench in [
        Benchmark::TpcB,
        Benchmark::Tatp,
        Benchmark::YcsbA,
        Benchmark::YcsbB,
    ] {
        let run = |seed: u64| {
            let (mut e, mut w) = bench.setup_small();
            collect_traces(&mut e, w.as_mut(), 30, seed).xcts
        };
        assert_bit_identical(&run(11), &run(11), bench.name());
        let (a, c) = (run(11), run(12));
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.events != y.events),
            "{}: different seeds should produce different traces",
            bench.name()
        );
    }
}

/// TATP transactions are short — the property the mix exists to probe.
/// Median operation count must sit well under TPC-C's (NewOrder alone
/// runs ~25 operations).
#[test]
fn tatp_transactions_are_short() {
    let (mut e, mut w) = Benchmark::Tatp.setup_small();
    let traces = collect_traces(&mut e, w.as_mut(), 200, 3).xcts;
    let mut op_counts: Vec<usize> = traces.iter().map(|t| t.op_slices().len()).collect();
    op_counts.sort_unstable();
    let median = op_counts[op_counts.len() / 2];
    assert!(
        (1..=3).contains(&median),
        "TATP median ops/transaction {median}, expected 1-3"
    );
    assert!(*op_counts.last().unwrap() <= 6, "{op_counts:?}");
}

/// YCSB's Zipfian keys concentrate the data footprint: the hottest data
/// block must absorb far more accesses than a uniform spread would give
/// it.
#[test]
fn ycsb_zipfian_concentrates_data_accesses() {
    use std::collections::HashMap;
    let (mut e, mut w) = Benchmark::YcsbA.setup_small();
    let traces = collect_traces(&mut e, w.as_mut(), 200, 5).xcts;
    let mut by_block: HashMap<u64, usize> = HashMap::new();
    let mut total = 0usize;
    for t in &traces {
        for ev in &t.events {
            if let addict_trace::TraceEvent::Data { block, .. } = ev {
                *by_block.entry(block.0).or_default() += 1;
                total += 1;
            }
        }
    }
    let hottest = by_block.values().copied().max().unwrap();
    let uniform_share = total / by_block.len();
    assert!(
        hottest > 4 * uniform_share,
        "hottest block {hottest} accesses vs uniform expectation {uniform_share}"
    );
}

/// Seed-stream check at the boundary the runner owns: `collect_traces`
/// hands one `StdRng` to the runner for the whole stream, and the runner
/// must consume exactly its own draws (no hidden draws), so a
/// manually-driven run reproduces `collect_traces`.
#[test]
fn runner_consumes_no_hidden_randomness() {
    let (mut e1, mut w1) = Benchmark::Tatp.setup_small();
    let via_collect = collect_traces(&mut e1, w1.as_mut(), 25, 9).xcts;

    let (mut e2, mut w2) = Benchmark::Tatp.setup_small();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..25 {
        w2.run_one(&mut e2, &mut rng).unwrap();
    }
    let manual = e2.take_traces();
    assert_bit_identical(&via_collect, &manual, "TATP manual drive");
}
