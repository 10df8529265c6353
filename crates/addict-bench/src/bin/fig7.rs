//! Figure 7: effect of changing server load (batch size) on ADDICT —
//! total execution cycles and L1-I MPKI over Baseline, for batch sizes
//! 2, 4, 8, 16, 32 (Section 4.5).
//!
//! Two jobs on one trace pool: Baseline at the paper-default config,
//! then ADDICT at each batch size. The second job's traces are all cache
//! hits, and every point of a benchmark replays the same interned set.

use addict_bench::{header, norm, parse_bench_args, run_job, JobSpec, TracePool};
use addict_core::sched::SchedulerKind;

const BATCHES: [usize; 5] = [2, 4, 8, 16, 32];

fn main() {
    let args = parse_bench_args(600);
    // A figure writes no artifact: a non-numeric positional (`fig7 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: fig7 writes no artifact; usage: fig7 [n_xcts] [--smoke] [--threads N] [--benchmarks name,...]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header("Figure 7", "batch-size sweep: ADDICT over Baseline", n);

    let pool = TracePool::unbounded();
    let mut baseline = JobSpec::new(args.benchmarks, n);
    baseline.schedulers = vec![SchedulerKind::Baseline];
    baseline.threads = args.threads;
    let mut batched = baseline.clone();
    batched.schedulers = vec![SchedulerKind::Addict];
    batched.batch_sizes = BATCHES.to_vec();
    let base = run_job(&baseline, &pool, &|_| {}).expect("Figure 7 baseline job");
    let sweep = run_job(&batched, &pool, &|_| {}).expect("Figure 7 batch job");

    println!(
        "\n{:<8} {:>6} {:>14} {:>14}",
        "bench", "batch", "exec cycles", "L1-I mpki"
    );
    for (base, sweeps) in base
        .points
        .iter()
        .zip(sweep.points.chunks_exact(BATCHES.len()))
    {
        for (batch, p) in BATCHES.iter().zip(sweeps) {
            println!(
                "{:<8} {:>6} {:>14.2} {:>14.2}",
                base.benchmark.name(),
                batch,
                norm(p.result.total_cycles, base.result.total_cycles),
                norm(p.result.stats.l1i_mpki(), base.result.stats.l1i_mpki()),
            );
        }
        println!();
    }
    println!("Paper: L1-I reduction roughly flat in batch size; total-execution");
    println!("improvement grows from batch >= 8 (cross-batch prefetching).");
}
