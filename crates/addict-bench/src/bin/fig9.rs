//! Figure 9: context switches / thread migrations per 1000 instructions
//! (left) and the execution-cycle share spent on that overhead (right).

use addict_bench::{header, parse_bench_args, run_job, JobSpec, TracePool};
use addict_core::sched::SchedulerKind;

fn main() {
    let args = parse_bench_args(600);
    // A figure writes no artifact: a non-numeric positional (`fig9 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: fig9 writes no artifact; usage: fig9 [n_xcts] [--smoke] [--threads N] [--benchmarks name,...]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 9",
        "switch rate + overhead share of execution cycles",
        n,
    );
    // One job: every benchmark's profile and eval traces fetch
    // concurrently, then the (benchmark × scheduler) grid replays.
    let mut spec = JobSpec::new(args.benchmarks, n);
    spec.threads = args.threads;
    let job = run_job(&spec, &TracePool::unbounded(), &|_| {}).expect("Figure 9 job");

    println!(
        "\n{:<8} {:<9} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "bench", "sched", "switches/ki", "base%", "i-stall%", "d-stall%", "ovh%"
    );
    let mut avg: std::collections::HashMap<String, (f64, f64, usize)> =
        std::collections::HashMap::new();
    for points in job.points.chunks_exact(SchedulerKind::ALL.len()) {
        for (bench, r) in points.iter().map(|p| (p.benchmark, &p.result)) {
            let (base, istall, dstall, ovh) = r.stats.cycle_breakdown();
            println!(
                "{:<8} {:<9} {:>12.3} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.2}%",
                bench.name(),
                r.scheduler,
                r.stats.switches_per_ki(),
                100.0 * base,
                100.0 * istall,
                100.0 * dstall,
                100.0 * ovh
            );
            let e = avg.entry(r.scheduler.clone()).or_insert((0.0, 0.0, 0));
            e.0 += r.stats.switches_per_ki();
            e.1 += ovh;
            e.2 += 1;
        }
        println!();
    }
    println!("Average across workloads (the figure's right-hand breakdown):");
    for sched in ["STREX", "SLICC", "ADDICT"] {
        if let Some((sw, ovh, k)) = avg.get(sched) {
            println!(
                "  {:<9} switches/ki {:>6.3}   overhead {:>5.2}% of cycles (rest {:>5.2}%)",
                sched,
                sw / *k as f64,
                100.0 * ovh / *k as f64,
                100.0 * (1.0 - ovh / *k as f64)
            );
        }
    }
    println!("\nPaper: ADDICT migrates 85% less than STREX and 60% less than SLICC;");
    println!("even STREX spends only ~3% of cycles on context switches.");
}
