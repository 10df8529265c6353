//! Figure 4: percentage of database-operation instances whose migration
//! points exactly match the ones ADDICT picked during profiling, as the
//! number of transaction traces grows (1000 vs 10000 in the paper).

use addict_bench::{header, parse_bench_args, PROFILE_SEED};
use addict_core::find_migration_points_interned;
use addict_core::replay::ReplayConfig;
use addict_trace::{InternedWorkload, OpKind, XctTypeId};
use addict_workloads::{collect_traces, tpcc, Benchmark};

fn main() {
    // Scaled defaults: the paper profiles on 1000 and validates on up to
    // 10000 further traces. The trace count overrides the smaller one.
    let args = parse_bench_args(500);
    // A fixed-benchmark figure writes no artifact: a `--benchmarks`
    // filter or a non-numeric positional (`fig4 5O0`) is a usage error.
    if args.benchmarks_explicit || args.out.is_some() {
        eprintln!("error: fig4 traces TPC-B and TPC-C; usage: fig4 [n_xcts] [--smoke]");
        std::process::exit(2);
    }
    let base = args.n_xcts;
    let large = base * 10;
    header("Figure 4", "migration-point stability vs trace count", base);
    let cfg = ReplayConfig::paper_default();

    let cases: [(Benchmark, XctTypeId, &str); 3] = [
        (
            Benchmark::TpcB,
            addict_workloads::tpcb::ACCOUNT_UPDATE,
            "TPC-B AccountUpdate",
        ),
        (Benchmark::TpcC, tpcc::NEW_ORDER, "TPC-C NewOrder"),
        (Benchmark::TpcC, tpcc::PAYMENT, "TPC-C Payment"),
    ];

    println!(
        "\n{:<22} {:<8} {:>12} {:>12}",
        "transaction",
        "op",
        format!("{base} traces"),
        format!("{large} traces")
    );
    for (bench, ty, label) in cases {
        let (mut engine, mut workload) = bench.setup();
        // Every range runs on this one engine, in order, and is interned.
        let mut collect = |seed| {
            InternedWorkload::from_flat(&collect_traces(&mut engine, workload.as_mut(), base, seed))
        };
        let profile = collect(PROFILE_SEED);
        let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
        // Fresh traces after the profiling window, evaluated in two sizes
        // (streamed in chunks to bound memory, like the paper's 10k runs).
        let small = collect(PROFILE_SEED + 100);
        let mut printed_any = false;
        for op in [
            OpKind::Probe,
            OpKind::Update,
            OpKind::Insert,
            OpKind::Scan,
            OpKind::Delete,
        ] {
            let Some(s_small) = map.stability(small.as_set(), cfg.sim.l1i, ty, op) else {
                continue;
            };
            // Accumulate the large set in chunks.
            let mut matched = 0.0f64;
            let mut chunks = 0usize;
            for chunk in 0..10 {
                let t = collect(PROFILE_SEED + 200 + chunk as u64);
                if let Some(s) = map.stability(t.as_set(), cfg.sim.l1i, ty, op) {
                    matched += s;
                    chunks += 1;
                }
            }
            let s_large = if chunks > 0 {
                matched / chunks as f64
            } else {
                0.0
            };
            println!(
                "{:<22} {:<8} {:>11.1}% {:>11.1}%",
                if printed_any { "" } else { label },
                op.name(),
                s_small * 100.0,
                s_large * 100.0
            );
            printed_any = true;
        }
    }
    println!("\nPaper: probe/update stable in >=90% of instances; insert ~45-55%");
    println!("(most varied instruction stream); stability flat from 1000 to 10000.");
}
