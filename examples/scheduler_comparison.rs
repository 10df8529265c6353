//! All four scheduling mechanisms side by side on TPC-E — the paper's
//! Figure 5/6/9 metrics in one table, plus the power report of Figure 8(b).
//!
//! Run with: `cargo run --release --example scheduler_comparison [n_xcts]`

use addict::core::find_migration_points_interned;
use addict::core::replay::ReplayConfig;
use addict::core::sched::{run_scheduler, SchedulerKind};
use addict::workloads::{collect_traces_interned, Benchmark};

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let (mut engine, mut workload) = Benchmark::TpcE.setup();
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), n, 1);
    let eval = collect_traces_interned(&mut engine, workload.as_mut(), n, 2);
    let cfg = ReplayConfig::paper_default();
    let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);

    println!(
        "{:<9} {:>11} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
        "scheduler", "cycles", "latency", "L1I-mpki", "L1D-mpki", "switch/ki", "ovh%", "W/core"
    );
    let mut baseline: Option<(f64, f64)> = None;
    for kind in SchedulerKind::ALL {
        let r = run_scheduler(kind, &eval.as_set(), Some(&map), &cfg);
        let (bc, bl) = *baseline.get_or_insert((r.total_cycles, r.avg_latency_cycles));
        println!(
            "{:<9} {:>9.2}x {:>8.2}x {:>9.2} {:>9.2} {:>10.3} {:>7.2}% {:>8.2}",
            r.scheduler,
            r.total_cycles / bc,
            r.avg_latency_cycles / bl,
            r.stats.l1i_mpki(),
            r.stats.l1d_mpki(),
            r.stats.switches_per_ki(),
            100.0 * r.overhead_fraction(),
            r.power.per_core_power_w,
        );
    }
    println!("\n(cycles/latency normalized to Baseline; the paper's Figures 5, 6, 8b, 9)");
}
