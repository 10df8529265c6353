//! End-to-end integration tests: the full pipeline — populate → trace →
//! Algorithm 1 → plan → intern → replay all four schedulers — at small scale, with
//! the paper's qualitative claims asserted as invariants.

use addict::core::algorithm1::MigrationMap;
use addict::core::find_migration_points_interned;
use addict::core::replay::ReplayConfig;
use addict::core::sched::{run_scheduler, SchedulerKind};
use addict::sim::SimConfig;
use addict::trace::InternedWorkload;
use addict::workloads::{collect_traces_interned, Benchmark};

fn pipeline(
    bench: Benchmark,
    n: usize,
) -> (
    InternedWorkload,
    InternedWorkload,
    MigrationMap,
    ReplayConfig,
) {
    let (mut engine, mut workload) = bench.setup_small();
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), n, 1);
    let eval = collect_traces_interned(&mut engine, workload.as_mut(), n, 2);
    let cfg = ReplayConfig {
        sim: SimConfig::paper_default().with_cores(8),
        ..ReplayConfig::paper_default()
    }
    .with_batch_size(8);
    let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
    (profile, eval, map, cfg)
}

#[test]
fn tpcb_pipeline_reproduces_paper_shapes() {
    let (_, eval, map, cfg) = pipeline(Benchmark::TpcB, 64);
    let base = run_scheduler(SchedulerKind::Baseline, &eval.as_set(), Some(&map), &cfg);
    let strex = run_scheduler(SchedulerKind::Strex, &eval.as_set(), Some(&map), &cfg);
    let slicc = run_scheduler(SchedulerKind::Slicc, &eval.as_set(), Some(&map), &cfg);
    let addict = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);

    // Everyone executes the same instructions.
    for r in [&strex, &slicc, &addict] {
        assert_eq!(r.instructions, base.instructions, "{}", r.scheduler);
        assert_eq!(r.n_xcts, base.n_xcts);
    }
    // Figure 5 shape: every mechanism cuts L1-I misses; ADDICT cuts most.
    assert!(addict.stats.l1i_mpki() < slicc.stats.l1i_mpki());
    assert!(slicc.stats.l1i_mpki() < base.stats.l1i_mpki());
    assert!(strex.stats.l1i_mpki() < base.stats.l1i_mpki());
    assert!(
        addict.stats.l1i_mpki() < 0.35 * base.stats.l1i_mpki(),
        "ADDICT {} vs base {}",
        addict.stats.l1i_mpki(),
        base.stats.l1i_mpki()
    );
    // Migration-based mechanisms hurt L1-D (Section 4.3).
    assert!(addict.stats.l1d_mpki() > base.stats.l1d_mpki());
    assert!(slicc.stats.l1d_mpki() > base.stats.l1d_mpki());
    // Figure 6 shape: ADDICT beats Baseline in total cycles.
    assert!(addict.total_cycles < base.total_cycles);
    // Figure 9 shape: ADDICT switches least among the mechanisms.
    assert!(addict.stats.switches_per_ki() < slicc.stats.switches_per_ki());
    assert!(addict.stats.switches_per_ki() < strex.stats.switches_per_ki());
    // Overhead stays a small fraction of cycles for everyone.
    for r in [&strex, &slicc, &addict] {
        assert!(r.overhead_fraction() < 0.10, "{} overhead", r.scheduler);
    }
}

#[test]
fn tpcc_pipeline_covers_all_five_operations() {
    let (profile, _, map, _) = pipeline(Benchmark::TpcC, 80);
    // The mix exercises all five operations across its types.
    use addict::trace::OpKind;
    let mut seen = std::collections::HashSet::new();
    for ty in map.xct_types() {
        for op in map.ops_of(ty) {
            seen.insert(op);
        }
    }
    for op in OpKind::ALL {
        assert!(seen.contains(&op), "{op:?} never profiled");
    }
    // Every trace is well-formed: begins/ends and balanced op markers.
    for xct in &profile.flatten().xcts {
        let ops = xct.op_slices(); // panics (debug) on unbalanced markers
        assert!(!ops.is_empty() || xct.instructions() > 0);
    }
}

#[test]
fn tpce_readonly_share_and_replay() {
    let (profile, eval, map, cfg) = pipeline(Benchmark::TpcE, 100);
    // ~77% of the mix is read-only (probe/scan only).
    use addict::trace::OpKind;
    let readonly = profile
        .flatten()
        .xcts
        .iter()
        .filter(|x| {
            x.op_slices()
                .iter()
                .all(|(k, _)| matches!(k, OpKind::Probe | OpKind::Scan))
        })
        .count();
    let share = readonly as f64 / profile.xcts.len() as f64;
    assert!((0.55..=0.95).contains(&share), "read-only share {share}");

    let base = run_scheduler(SchedulerKind::Baseline, &eval.as_set(), Some(&map), &cfg);
    let addict = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);
    assert!(addict.stats.l1i_mpki() < base.stats.l1i_mpki());
}

#[test]
fn deep_hierarchy_shrinks_addicts_advantage() {
    // Section 4.6: with a 256 KB private L2 most L1-I misses are served
    // on-chip cheaply, so ADDICT's gain over Baseline narrows.
    let (_, eval, map, _) = {
        let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
        let profile = collect_traces_interned(&mut engine, workload.as_mut(), 64, 1);
        let eval = collect_traces_interned(&mut engine, workload.as_mut(), 64, 2);
        let cfg = ReplayConfig::paper_default();
        let map = find_migration_points_interned(profile.as_set(), cfg.sim.l1i);
        ((), eval, map, ())
    };
    let gain = |sim: SimConfig| {
        let cfg = ReplayConfig {
            sim,
            ..ReplayConfig::paper_default()
        };
        let base = run_scheduler(SchedulerKind::Baseline, &eval.as_set(), Some(&map), &cfg);
        let addict = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);
        base.total_cycles / addict.total_cycles
    };
    let shallow = gain(SimConfig::paper_default());
    let deep = gain(SimConfig::paper_deep());
    assert!(
        shallow > 1.0,
        "ADDICT must win on the shallow hierarchy ({shallow})"
    );
    assert!(
        deep < shallow,
        "deep hierarchy should narrow the gain: shallow {shallow:.2} vs deep {deep:.2}"
    );
}

#[test]
fn batch_size_sweep_is_monotonic_enough() {
    // Section 4.5: larger batches improve ADDICT's execution time; L1-I
    // reduction is roughly flat.
    let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
    let profile = collect_traces_interned(&mut engine, workload.as_mut(), 48, 1);
    let eval = collect_traces_interned(&mut engine, workload.as_mut(), 96, 2);
    let base_cfg = ReplayConfig::paper_default();
    let map = find_migration_points_interned(profile.as_set(), base_cfg.sim.l1i);
    let cycles: Vec<f64> = [2usize, 16]
        .iter()
        .map(|&b| {
            let cfg = ReplayConfig::paper_default().with_batch_size(b);
            run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg).total_cycles
        })
        .collect();
    assert!(
        cycles[1] < cycles[0] * 1.05,
        "batch 16 should not be slower than batch 2: {cycles:?}"
    );
}

#[test]
fn determinism_across_identical_runs() {
    let run = || {
        let (_, eval, map, cfg) = pipeline(Benchmark::TpcB, 32);
        let r = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);
        (
            r.total_cycles,
            r.stats.l1i_misses(),
            r.stats.migrations_in(),
        )
    };
    assert_eq!(
        run(),
        run(),
        "identical seeds must reproduce identical results"
    );
}

#[test]
fn power_report_is_consistent() {
    let (_, eval, map, cfg) = pipeline(Benchmark::TpcB, 32);
    let base = run_scheduler(SchedulerKind::Baseline, &eval.as_set(), Some(&map), &cfg);
    let addict = run_scheduler(SchedulerKind::Addict, &eval.as_set(), Some(&map), &cfg);
    for r in [&base, &addict] {
        assert!(r.power.per_core_power_w > 0.0);
        assert!(r.power.dynamic_energy_j > 0.0);
        assert!(r.power.static_energy_j > 0.0);
        // Static dominates for stalled OLTP (the Figure 8b calibration).
        assert!(r.power.static_energy_j > r.power.dynamic_energy_j);
    }
    // Faster completion at similar work -> ADDICT draws more per-core
    // power (Figure 8b's ~1.1x), bounded well below 2x.
    let ratio = addict.power.per_core_power_w / base.power.per_core_power_w;
    assert!((0.9..2.0).contains(&ratio), "power ratio {ratio}");
}
