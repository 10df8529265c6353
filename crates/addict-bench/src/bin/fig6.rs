//! Figure 6: impact on performance — total execution cycles to complete
//! the traces (left) and average transaction latency (right), normalized
//! over Baseline.

use addict_bench::{header, norm, parse_bench_args, run_job, JobSpec, TracePool};
use addict_core::sched::SchedulerKind;

fn main() {
    let args = parse_bench_args(600);
    // A figure writes no artifact: a non-numeric positional (`fig6 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: fig6 writes no artifact; usage: fig6 [n_xcts] [--smoke] [--threads N] [--benchmarks name,...]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 6",
        "total execution cycles + avg transaction latency",
        n,
    );
    // One job: every benchmark's profile and eval traces fetch
    // concurrently, then the (benchmark × scheduler) grid replays.
    let mut spec = JobSpec::new(args.benchmarks, n);
    spec.threads = args.threads;
    let job = run_job(&spec, &TracePool::unbounded(), &|_| {}).expect("Figure 6 job");

    println!(
        "\n{:<8} {:<9} {:>12} {:>12}   (normalized; Baseline = 1.00)",
        "bench", "sched", "exec cycles", "latency"
    );
    for points in job.points.chunks_exact(SchedulerKind::ALL.len()) {
        let base = &points[0].result;
        for (bench, r) in points.iter().map(|p| (p.benchmark, &p.result)) {
            println!(
                "{:<8} {:<9} {:>12.2} {:>12.2}   (abs: {:.2e} cycles, {:.2e} cyc/xct)",
                bench.name(),
                r.scheduler,
                norm(r.total_cycles, base.total_cycles),
                norm(r.avg_latency_cycles, base.avg_latency_cycles),
                r.total_cycles,
                r.avg_latency_cycles,
            );
        }
        println!();
    }
    println!("Paper: exec-time reduction ADDICT 45% > SLICC 35% > STREX 17%;");
    println!("latency increase: STREX 7-8x worst, ADDICT lowest (~1.6x).");
    println!("Note: our Baseline latency contains no queueing by construction,");
    println!("so mechanism/Baseline latency ratios overstate.");
}
