//! Figure 1: flow graph of the common database operations with the
//! percentage of instruction footprint per significant code part, measured
//! over transactions of the TPC-C mix.

use addict_analysis::op_flow;
use addict_bench::{header, parse_bench_args, PROFILE_SEED};
use addict_trace::OpKind;
use addict_workloads::{collect_traces_interned, Benchmark};

fn main() {
    let args = parse_bench_args(1000);
    // A fixed-benchmark figure writes no artifact: a `--benchmarks`
    // filter or a non-numeric positional (`fig1 5O0`) is a usage error.
    if args.benchmarks_explicit || args.out.is_some() {
        eprintln!("error: fig1 traces TPC-C; usage: fig1 [n_xcts] [--smoke]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 1",
        "operation flow-graph footprint percentages (TPC-C mix)",
        n,
    );
    let (mut engine, mut workload) = Benchmark::TpcC.setup();
    let trace = collect_traces_interned(&mut engine, workload.as_mut(), n, PROFILE_SEED);

    for op in [
        OpKind::Probe,
        OpKind::Scan,
        OpKind::Update,
        OpKind::Insert,
        OpKind::Delete,
    ] {
        let edges = op_flow(&trace, op);
        if edges.is_empty() {
            continue;
        }
        println!(
            "\n{}:",
            match op {
                OpKind::Probe => "index probe",
                OpKind::Scan => "index scan",
                OpKind::Update => "update tuple",
                OpKind::Insert => "insert tuple",
                OpKind::Delete => "delete tuple (paper omits: \"similar to insert\")",
            }
        );
        println!(
            "  {:<22} -> {:<26} {:>9} {:>7} path",
            "from", "to", "measured", "paper"
        );
        for e in edges {
            println!(
                "  {:<22} -> {:<26} {:>8.1}% {:>6.1}% {}",
                e.from,
                e.to,
                e.measured_pct,
                e.paper_pct,
                if e.conditional { "(conditional)" } else { "" }
            );
        }
    }
}
