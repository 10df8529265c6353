//! Figure 2: overlaps in instruction and data footprints across different
//! instantiations of the transactions in a workload mix, transactions of
//! the same type, and database operations.

use addict_analysis::{overlap_histogram, OverlapHistogram, OverlapScope};
use addict_bench::{header, parse_bench_args, PROFILE_SEED};
use addict_trace::{OpKind, WorkloadTrace, XctTypeId};
use addict_workloads::{collect_traces, tpcc, tpce, Benchmark};

fn row(label: &str, h: Option<(OverlapHistogram, OverlapHistogram)>) {
    let Some((i, d)) = h else {
        println!("  {label:<28} (no instances)");
        return;
    };
    let fmt = |h: &OverlapHistogram| {
        format!(
            "[0,30) {:>4.1}%  [30,60) {:>4.1}%  [60,90) {:>4.1}%  [90,100) {:>4.1}%  100 {:>4.1}%",
            h.buckets[0] * 100.0,
            h.buckets[1] * 100.0,
            h.buckets[2] * 100.0,
            h.buckets[3] * 100.0,
            h.buckets[4] * 100.0
        )
    };
    println!(
        "  {:<28} instr ({:>5} inst, {:>6} blk): {}",
        label,
        i.instances,
        i.footprint_blocks,
        fmt(&i)
    );
    println!(
        "  {:<28} data  ({:>5} inst, {:>6} blk): {}",
        "",
        d.instances,
        d.footprint_blocks,
        fmt(&d)
    );
    println!(
        "  {:<28} instr >=90% common: {:>5.1}%   data >=90% common: {:>5.1}%",
        "",
        i.common_share(0.9) * 100.0,
        d.common_share(0.9) * 100.0
    );
}

fn pies(trace: &WorkloadTrace, scopes: &[(&str, OverlapScope)]) {
    for (label, scope) in scopes {
        row(label, overlap_histogram(trace, *scope));
    }
}

/// `n` profiling-seed traces of `bench` on a fresh engine.
fn trace(bench: Benchmark, n: usize) -> WorkloadTrace {
    let (mut engine, mut workload) = bench.setup();
    collect_traces(&mut engine, workload.as_mut(), n, PROFILE_SEED)
}

fn main() {
    let args = parse_bench_args(1000);
    // A fixed-benchmark figure writes no artifact: a `--benchmarks`
    // filter or a non-numeric positional (`fig2 5O0`) is a usage error.
    if args.benchmarks_explicit || args.out.is_some() {
        eprintln!("error: fig2 traces TPC-B, TPC-C and TPC-E; usage: fig2 [n_xcts] [--smoke]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header("Figure 2", "instruction/data footprint overlap pies", n);

    // TPC-B: single transaction type; the figure shows its operations and
    // the whole mix.
    let tpcb = trace(Benchmark::TpcB, n);
    println!("\nTPC-B (mix = AccountUpdate):");
    pies(
        &tpcb,
        &[
            ("insert (mix)", OverlapScope::Op(OpKind::Insert)),
            ("update (mix)", OverlapScope::Op(OpKind::Update)),
            ("probe (mix)", OverlapScope::Op(OpKind::Probe)),
            ("all (mix)", OverlapScope::Mix),
        ],
    );

    // TPC-C: the figure's NewOrder column plus the mix.
    let tpcc_t = trace(Benchmark::TpcC, n);
    let no = tpcc::NEW_ORDER;
    println!("\nTPC-C (NewOrder = most frequent type):");
    pies(
        &tpcc_t,
        &[
            (
                "NewOrder insert",
                OverlapScope::OpInType(no, OpKind::Insert),
            ),
            (
                "NewOrder update",
                OverlapScope::OpInType(no, OpKind::Update),
            ),
            ("NewOrder probe", OverlapScope::OpInType(no, OpKind::Probe)),
            ("NewOrder (same-type)", OverlapScope::XctType(no)),
            ("all (mix)", OverlapScope::Mix),
        ],
    );

    // TPC-E: the figure's TradeStatus column plus the mix.
    let tpce_t = trace(Benchmark::TpcE, n);
    let ts = tpce::TRADE_STATUS;
    println!("\nTPC-E (TradeStatus = most frequent type, 19% of mix):");
    pies(
        &tpce_t,
        &[
            (
                "TradeStatus probe",
                OverlapScope::OpInType(ts, OpKind::Probe),
            ),
            ("TradeStatus scan", OverlapScope::OpInType(ts, OpKind::Scan)),
            ("TradeStatus (same-type)", OverlapScope::XctType(ts)),
            ("all (mix)", OverlapScope::Mix),
        ],
    );

    // Section 2.2.2: where the few commonly accessed data blocks live.
    println!("\nSources of shared data (Section 2.2.2, TPC-C mix):");
    println!(
        "  {:<12} {:>10} {:>12} {:>10} {:>14}",
        "region", "blocks", "accesses", "read %", ">=50% common"
    );
    let sources = addict_analysis::data_sources(&tpcc_t);
    for region in addict_analysis::DataRegion::ALL {
        if let Some(s) = sources.get(&region) {
            println!(
                "  {:<12} {:>10} {:>12} {:>9.0}% {:>13.1}%",
                region.name(),
                s.footprint_blocks,
                s.accesses,
                100.0 * s.read_share(),
                100.0 * s.common_share()
            );
        }
    }
    println!("  (paper: metadata, lock manager, buffer pool, index roots are the");
    println!("   commonly accessed — mostly read — data; record pages are private)");

    println!("\nPaper's headline numbers for comparison:");
    println!("  same-type instruction overlap 53-98% (TradeStatus: 98%)");
    println!("  probe/update op overlap >=90% (TPC-B), >=70% (TPC-C NewOrder)");
    println!("  insert op overlap ~50-60%  |  data overlap at most 6%");

    // One-line machine-checkable summary.
    let ts_overlap = overlap_histogram(&tpce_t, OverlapScope::XctType(ts))
        .map(|(i, _)| i.common_share(0.9) * 100.0)
        .unwrap_or(0.0);
    let mix_data = overlap_histogram(&tpcc_t, OverlapScope::Mix)
        .map(|(_, d)| d.common_share(0.9) * 100.0)
        .unwrap_or(0.0);
    println!("\nSummary: TradeStatus same-type instr overlap {ts_overlap:.1}% | TPC-C mix data >=90% common {mix_data:.1}%");
    let _ = XctTypeId(0);
}
