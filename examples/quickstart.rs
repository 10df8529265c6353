//! Quickstart: the whole ADDICT pipeline in ~60 lines.
//!
//! 1. Build and populate a TPC-C database on the storage engine.
//! 2. Trace 200 transactions (the profiling run).
//! 3. Run Algorithm 1 to find the migration points.
//! 4. Trace 200 fresh transactions, intern them, and replay them under
//!    traditional scheduling and under ADDICT on the simulated 16-core
//!    machine.
//!
//! Run with: `cargo run --release --example quickstart`

use addict::core::find_migration_points_interned;
use addict::core::replay::ReplayConfig;
use addict::core::sched::{run_scheduler, SchedulerKind};
use addict::trace::OpKind;
use addict::workloads::{collect_traces_interned, Benchmark};

fn main() {
    // 1. Schema + population (untraced), then the workload runner.
    println!("setting up TPC-C ...");
    let (mut engine, mut workload) = Benchmark::TpcC.setup();

    // 2. Profiling traces: every instruction-block walk and data-block
    //    access of 200 transactions, bracketed by operation markers and
    //    interned as they are recorded (each distinct event slice is
    //    stored once).
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), 200, 1);
    let instructions: u64 = profile.xcts.iter().map(|t| t.instructions()).sum();
    println!(
        "profiled {} transactions, {:.1}M instructions",
        profile.xcts.len(),
        instructions as f64 / 1e6
    );

    // 3. Algorithm 1: migration points per (transaction type, operation).
    let cfg = ReplayConfig::paper_default();
    let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
    for ty in map.xct_types() {
        let name = &profile.xct_type_names[usize::from(ty.0)];
        for op in map.ops_of(ty) {
            let points = map.points(ty, op).map_or(0, Vec::len);
            println!(
                "  {name:<12} {:<7} -> {points} migration point(s)",
                op.name()
            );
        }
    }

    // 4. Fresh traces, replayed under Baseline and ADDICT.
    let eval = collect_traces_interned(&mut engine, workload.as_mut(), 200, 2);
    let baseline = run_scheduler(SchedulerKind::Baseline, &eval.as_set(), Some(&map), &cfg);
    let addict = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);

    println!("\n                   Baseline       ADDICT");
    println!(
        "L1-I MPKI        {:>10.2} {:>12.2}   ({:.0}% fewer instruction misses)",
        baseline.stats.l1i_mpki(),
        addict.stats.l1i_mpki(),
        100.0 * (1.0 - addict.stats.l1i_mpki() / baseline.stats.l1i_mpki())
    );
    println!(
        "exec cycles      {:>10.2e} {:>12.2e}   ({:.0}% faster)",
        baseline.total_cycles,
        addict.total_cycles,
        100.0 * (1.0 - addict.total_cycles / baseline.total_cycles)
    );
    println!(
        "migrations/1k-i  {:>10.3} {:>12.3}",
        baseline.stats.switches_per_ki(),
        addict.stats.switches_per_ki()
    );
    let _ = OpKind::Probe;
}
