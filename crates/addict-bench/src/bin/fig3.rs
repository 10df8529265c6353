//! Figure 3: average number of accesses to each memory address per
//! instance of TPC-B's AccountUpdate transaction and insert-tuple
//! operation, ordered by cross-instance commonality.

use addict_analysis::{reuse_profile, ReusePoint};
use addict_bench::{header, parse_bench_args, PROFILE_SEED};
use addict_trace::OpKind;
use addict_workloads::tpcb::ACCOUNT_UPDATE;
use addict_workloads::{collect_traces_interned, Benchmark};

fn summarize(title: &str, points: &[ReusePoint]) {
    // Bucket the x-axis (commonality) as the figure's left-to-right order.
    let buckets = [
        (0.0, 0.3),
        (0.3, 0.6),
        (0.6, 0.9),
        (0.9, 1.0 - 1e-9),
        (1.0 - 1e-9, 1.1),
    ];
    println!("  {title}");
    println!(
        "    {:<18} {:>8} {:>12}",
        "commonality", "blocks", "avg reuse"
    );
    for (lo, hi) in buckets {
        let sel: Vec<&ReusePoint> = points
            .iter()
            .filter(|p| p.commonality >= lo && p.commonality < hi)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let avg = sel.iter().map(|p| p.avg_reuse).sum::<f64>() / sel.len() as f64;
        let label = if lo >= 1.0 - 1e-9 {
            "100% (all inst.)".to_owned()
        } else {
            format!("[{:.0}%,{:.0}%)", lo * 100.0, hi * 100.0)
        };
        println!("    {:<18} {:>8} {:>12.1}", label, sel.len(), avg);
    }
    let (common, rest) = addict_analysis::reuse::ReuseProfile::common_vs_rest(points);
    println!(
        "    -> blocks in ALL instances reuse {common:.1}x/instance vs {rest:.1}x for the rest ({})",
        if common > rest { "paper's trend holds" } else { "TREND VIOLATED" }
    );
}

fn main() {
    let args = parse_bench_args(1000);
    // A fixed-benchmark figure writes no artifact: a `--benchmarks`
    // filter or a non-numeric positional (`fig3 5O0`) is a usage error.
    if args.benchmarks_explicit || args.out.is_some() {
        eprintln!("error: fig3 traces TPC-B; usage: fig3 [n_xcts] [--smoke]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 3",
        "per-instance reuse vs cross-instance commonality (TPC-B)",
        n,
    );
    let (mut engine, mut workload) = Benchmark::TpcB.setup();
    let trace = collect_traces_interned(&mut engine, workload.as_mut(), n, PROFILE_SEED);

    println!("\nAccountUpdate transaction:");
    let p = reuse_profile(&trace, ACCOUNT_UPDATE, None).expect("traces present");
    summarize("instruction cache blocks", &p.instr);
    summarize("data cache blocks", &p.data);

    println!("\ninsert-tuple operation:");
    let p = reuse_profile(&trace, ACCOUNT_UPDATE, Some(OpKind::Insert))
        .expect("insert instances present");
    summarize("instruction cache blocks", &p.instr);
    summarize("data cache blocks", &p.data);

    println!("\nPaper's observation: addresses common across instances are also the");
    println!("most frequently reused within each instance (Section 2.3).");
}
