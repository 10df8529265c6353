//! Figure 8: (a) ADDICT on a deeper memory hierarchy — an extra 256 KB
//! private L2 per core, the shared cache becoming an L3 (Section 4.6);
//! (b) ADDICT's impact on average per-core power (Section 4.7).
//!
//! The whole (benchmark × hierarchy × scheduler) grid fans out through
//! `run_grid` on `--threads N` workers. The profile and eval traces come
//! from `fetch_traces`, which fetches them from a trace pool (one storage
//! engine per key) and runs Algorithm 1 once per benchmark. The migration
//! map depends only on the L1-I geometry, which the deep hierarchy does
//! not change, so every grid point of a benchmark shares its map.

use addict_bench::{
    fetch_traces, header, norm, parse_bench_args, run_grid, CancelToken, JobSpec, TracePool,
};
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::SimConfig;

fn main() {
    let args = parse_bench_args(600);
    // A figure writes no artifact: a non-numeric positional (`fig8 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: fig8 writes no artifact; usage: fig8 [n_xcts] [--smoke] [--threads N] [--benchmarks name,...]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    header(
        "Figure 8",
        "deeper hierarchy (a) + power (b): ADDICT over Baseline",
        n,
    );

    let mut spec = JobSpec::new(args.benchmarks.clone(), n);
    spec.threads = args.threads;
    let sets = fetch_traces(&spec, &TracePool::unbounded(), &|_| {}, &CancelToken::new())
        .expect("an un-armed token never fires");

    let mut grid = Vec::new();
    for set in &sets {
        for sim in [SimConfig::paper_default(), SimConfig::paper_deep()] {
            let cfg = ReplayConfig {
                sim,
                ..ReplayConfig::paper_default()
            };
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Addict] {
                grid.push((set, scheduler, cfg.clone()));
            }
        }
    }
    let results = run_grid(&grid, args.threads, |_, (set, scheduler, cfg)| {
        run_scheduler(*scheduler, &set.eval.as_set(), Some(&set.map), cfg)
    });

    println!(
        "\n{:<8} {:>16} {:>16} {:>15} {:>12}",
        "bench", "shallow cycles", "deep cycles", "power (shallow)", "power (deep)"
    );
    for (chunk, set) in results.chunks_exact(4).zip(&sets) {
        // Grid order is fixed by construction; destructure it directly
        // rather than matching on labels.
        let [base_shallow, addict_shallow, base_deep, addict_deep] = chunk else {
            unreachable!("four grid points per benchmark");
        };
        println!(
            "{:<8} {:>16.2} {:>16.2} {:>15.2} {:>12.2}",
            set.bench.name(),
            norm(addict_shallow.total_cycles, base_shallow.total_cycles),
            norm(addict_deep.total_cycles, base_deep.total_cycles),
            norm(
                addict_shallow.power.per_core_power_w,
                base_shallow.power.per_core_power_w
            ),
            norm(
                addict_deep.power.per_core_power_w,
                base_deep.power.per_core_power_w
            ),
        );
    }
    println!("\nPaper: 45% average improvement on the shallow hierarchy drops to");
    println!("~15% on the deep one (the 256 KB private L2 holds Shore-MT's whole");
    println!("128-256 KB instruction footprint); power ~= 1.1x Baseline.");
}
