//! Figure 8: (a) ADDICT on a deeper memory hierarchy — an extra 256 KB
//! private L2 per core, the shared cache becoming an L3 (Section 4.6);
//! (b) ADDICT's impact on average per-core power (Section 4.7).
//!
//! The whole (benchmark × hierarchy × scheduler) grid fans out through the
//! sweep engine (`--threads N` / `ADDICT_THREADS`); the profile and eval
//! traces fetch from a trace pool the same way (one storage engine per
//! key) and the grid replays their interned form. Algorithm 1's
//! migration map depends only on the L1-I geometry, which the deep
//! hierarchy does not change, so one map per benchmark is computed up
//! front and shared by every grid point.

use addict_bench::{
    header, norm, parse_bench_args, run_grid, run_sweep, JobSpec, SweepPoint, SweepTraces,
    TracePool,
};
use addict_core::algorithm1::find_migration_points_interned;
use addict_core::replay::ReplayConfig;
use addict_core::sched::SchedulerKind;
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

    // Every selected benchmark's profile and eval keys fetch in one
    // parallel wave, one storage engine per key.
    let spec = JobSpec::new(args.benchmarks.clone(), n);
    let keys: Vec<_> = args
        .benchmarks
        .iter()
        .flat_map(|&b| [spec.profile_key(b), spec.eval_key(b)])
        .collect();
    let pool = TracePool::unbounded();
    let workloads = run_grid(&keys, args.threads, |_, k| pool.get(k, 1).0);
    let data: Vec<_> = args
        .benchmarks
        .iter()
        .zip(workloads.chunks_exact(2))
        .map(|(&bench, pair)| {
            let map = find_migration_points_interned(
                pair[0].as_set(),
                ReplayConfig::paper_default().sim.l1i,
            );
            (bench, &pair[1], map)
        })
        .collect();

    let mut grid: Vec<SweepPoint<'_>> = Vec::new();
    for (bench, eval, map) in &data {
        for (label, sim) in [
            ("shallow", SimConfig::paper_default()),
            ("deep", SimConfig::paper_deep()),
        ] {
            for scheduler in [SchedulerKind::Baseline, SchedulerKind::Addict] {
                grid.push(SweepPoint {
                    benchmark: *bench,
                    scheduler,
                    replay_cfg: ReplayConfig {
                        sim: sim.clone(),
                        ..ReplayConfig::paper_default()
                    },
                    label,
                    traces: SweepTraces::Interned(eval.as_set()),
                    map: Some(map),
                });
            }
        }
    }
    let results = run_sweep(&grid, args.threads);

    println!(
        "\n{:<8} {:>16} {:>16} {:>15} {:>12}",
        "bench", "shallow cycles", "deep cycles", "power (shallow)", "power (deep)"
    );
    for (chunk, (bench, ..)) in results.chunks_exact(4).zip(&data) {
        // Grid order is fixed by construction; destructure it directly
        // rather than matching on labels.
        let [base_shallow, addict_shallow, base_deep, addict_deep] = chunk else {
            unreachable!("four grid points per benchmark");
        };
        println!(
            "{:<8} {:>16.2} {:>16.2} {:>15.2} {:>12.2}",
            bench.name(),
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
