//! Figure 5: ADDICT's impact on instruction and data misses — L1-I, L1-D,
//! and L2 (shared LLC) misses per 1000 instructions, normalized over
//! Baseline, for STREX, SLICC, and ADDICT on the selected benchmarks
//! (`--benchmarks`, default: the whole registry; the paper's figure shows
//! the TPC trio).

use addict_bench::{header, norm, parse_bench_args, run_job, JobSpec, TracePool};
use addict_core::sched::SchedulerKind;

fn main() {
    let args = parse_bench_args(600);
    // A figure writes no artifact: a non-numeric positional (`fig5 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: fig5 writes no artifact; usage: fig5 [n_xcts] [--smoke] [--threads N] [--benchmarks name,...]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 5",
        "L1-I / L1-D / L2 MPKI normalized over Baseline",
        n,
    );
    // One job: every benchmark's profile and eval traces fetch
    // concurrently, then the (benchmark × scheduler) grid replays.
    let mut spec = JobSpec::new(args.benchmarks, n);
    spec.threads = args.threads;
    let job = run_job(&spec, &TracePool::unbounded(), &|_| {}).expect("Figure 5 job");

    println!(
        "\n{:<8} {:<9} {:>10} {:>10} {:>10}   (normalized; Baseline = 1.00)",
        "bench", "sched", "L1-I", "L1-D", "L2"
    );
    for points in job.points.chunks_exact(SchedulerKind::ALL.len()) {
        let base = &points[0].result;
        for (bench, r) in points.iter().map(|p| (p.benchmark, &p.result)) {
            println!(
                "{:<8} {:<9} {:>10.2} {:>10.2} {:>10.2}   (abs: {:.2} / {:.2} / {:.3} mpki)",
                bench.name(),
                r.scheduler,
                norm(r.stats.l1i_mpki(), base.stats.l1i_mpki()),
                norm(r.stats.l1d_mpki(), base.stats.l1d_mpki()),
                norm(r.stats.llc_mpki(), base.stats.llc_mpki()),
                r.stats.l1i_mpki(),
                r.stats.l1d_mpki(),
                r.stats.llc_mpki(),
            );
        }
        println!();
    }
    println!("Paper: L1-I reduction ADDICT 85% > SLICC 60% > STREX 20%;");
    println!("L1-D increase SLICC ~40% / ADDICT ~25%, STREX slightly better;");
    println!("L2 ADDICT/SLICC ~-20%, STREX ~+50% (needs >LLC-sized data).");
}
