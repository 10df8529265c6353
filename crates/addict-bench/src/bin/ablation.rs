//! Ablation bench for ADDICT's design choices (beyond the paper):
//!
//! * dynamic core reassignment on/off (Section 3.2.3),
//! * frequency-proportional replication on/off,
//! * OoO data-miss hiding factor sweep,
//! * batching by type vs mixed batches (via batch size 1 grouping).
//!
//! All variants form one grid executed by `run_grid` on `--threads N`
//! workers: the plan-level variants call into `addict::run_with_options`
//! directly, the config sweeps go through `run_scheduler`, and every run
//! shares the interned traces, migration map (both from `fetch_traces`),
//! and prebuilt plans immutably.

use addict_bench::{
    fetch_traces, header, norm, parse_bench_args, run_grid, CancelToken, JobSpec, TracePool,
};
use addict_core::plan::{AssignmentPlan, PlanConfig};
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{addict, run_scheduler, SchedulerKind};
use addict_workloads::Benchmark;

/// One ablation grid cell.
enum Variant<'a> {
    /// ADDICT with an explicit assignment plan and stealing flag.
    Planned {
        label: &'static str,
        plan: &'a AssignmentPlan,
        steal: bool,
    },
    /// A scheduler under a modified replay config (paired with its own
    /// Baseline so the normalization shares the config).
    Configured {
        scheduler: SchedulerKind,
        cfg: Box<ReplayConfig>,
    },
}

// The grid cells (holding plan references) cross into worker threads.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<Variant<'_>>();
    shared::<AssignmentPlan>();
};

fn main() {
    let args = parse_bench_args(400);
    // A figure writes no artifact: a non-numeric positional (`ablation 5O0`)
    // is a usage error, not a silent run at the default trace count.
    if args.out.is_some() {
        eprintln!("error: ablation writes no artifact; usage: ablation [n_xcts] [--smoke] [--threads N] [--benchmarks name]");
        std::process::exit(2);
    }
    let n = args.n_xcts;
    // Ablations run on one workload: TPC-C by default (the paper's main
    // evaluation mix), or the single benchmark named by `--benchmarks`.
    // An explicit multi-entry filter is an error, not a silent fallback.
    let bench = match args.benchmarks.as_slice() {
        [one] => *one,
        _ if !args.benchmarks_explicit => Benchmark::TpcC,
        other => {
            eprintln!(
                "error: ablation runs one workload; pass a single --benchmarks entry (got {})",
                other.iter().map(|b| b.name()).collect::<Vec<_>>().join(",")
            );
            std::process::exit(2);
        }
    };
    header(
        "Ablation",
        &format!("ADDICT design-choice ablations ({})", bench.name()),
        n,
    );
    let mut spec = JobSpec::new(vec![bench], n);
    spec.threads = args.threads;
    let sets = fetch_traces(&spec, &TracePool::unbounded(), &|_| {}, &CancelToken::new())
        .expect("an un-armed token never fires");
    let cfg = ReplayConfig::paper_default();
    let map = &sets[0].map;
    let traces = &sets[0].eval.as_set();

    let plan = AssignmentPlan::build(map, PlanConfig::new(cfg.sim.n_cores));
    let plan_norep = AssignmentPlan::build(
        map,
        PlanConfig {
            n_cores: cfg.sim.n_cores,
            replicate: false,
        },
    );

    let with_sim = |mutate: &dyn Fn(&mut addict_sim::SimConfig)| {
        let mut sim = cfg.sim.clone();
        mutate(&mut sim);
        ReplayConfig {
            sim,
            ..ReplayConfig::paper_default()
        }
    };

    let mut grid: Vec<Variant<'_>> = vec![
        Variant::Configured {
            scheduler: SchedulerKind::Baseline,
            cfg: Box::new(cfg.clone()),
        },
        Variant::Planned {
            label: "ADDICT (replication, no stealing)",
            plan: &plan,
            steal: false,
        },
        Variant::Planned {
            label: "ADDICT + dynamic idle-core stealing",
            plan: &plan,
            steal: true,
        },
        Variant::Planned {
            label: "ADDICT without slot replication",
            plan: &plan_norep,
            steal: false,
        },
        Variant::Planned {
            label: "ADDICT no replication + stealing",
            plan: &plan_norep,
            steal: true,
        },
    ];
    let head_rows = grid.len();

    // OoO hiding, next-line prefetch, and migration-cost sensitivity: each
    // config contributes a (Baseline, ADDICT) pair normalized within itself.
    let mut pair = |c: ReplayConfig| {
        grid.push(Variant::Configured {
            scheduler: SchedulerKind::Baseline,
            cfg: Box::new(c.clone()),
        });
        grid.push(Variant::Configured {
            scheduler: SchedulerKind::Addict,
            cfg: Box::new(c),
        });
    };
    const HIDES: [f64; 4] = [0.0, 0.35, 0.7, 0.9];
    for hide in HIDES {
        pair(with_sim(&|s| s.ooo_hide_onchip = hide));
    }
    pair(with_sim(&|s| s.l1i_next_line_prefetch = true));
    const COSTS: [f64; 4] = [0.0, 90.0, 450.0, 1800.0];
    for cost in COSTS {
        pair(with_sim(&|s| s.migration_cycles = cost));
    }

    let results = run_grid(&grid, args.threads, |_, v| match v {
        Variant::Planned { plan, steal, .. } => {
            addict::run_with_options(traces, plan, &cfg, *steal)
        }
        Variant::Configured { scheduler, cfg } => run_scheduler(*scheduler, traces, Some(map), cfg),
    });

    let base = &results[0];
    println!(
        "\n{:<44} {:>12} {:>12}",
        "variant", "exec cycles", "L1-I mpki"
    );
    let report = |label: &str, r: &ReplayResult| {
        println!(
            "{:<44} {:>12.2} {:>12.2}",
            label,
            norm(r.total_cycles, base.total_cycles),
            norm(r.stats.l1i_mpki(), base.stats.l1i_mpki())
        );
    };
    for (v, r) in grid.iter().zip(&results).take(head_rows).skip(1) {
        let Variant::Planned { label, .. } = v else {
            unreachable!("head rows are plan variants");
        };
        report(label, r);
    }

    // The paired rows: results come back in grid order, so each config's
    // (Baseline, ADDICT) pair sits at a fixed offset.
    let mut pairs = results[head_rows..].chunks_exact(2);
    println!("\nOoO on-chip data-miss hiding sweep (ADDICT exec cycles over Baseline):");
    for hide in HIDES {
        let [b, a] = pairs.next().expect("one pair per hide factor") else {
            unreachable!("chunks_exact(2)");
        };
        println!(
            "  hide={hide:.2}: {:.2}",
            norm(a.total_cycles, b.total_cycles)
        );
    }

    println!("\nNext-line L1-I prefetcher (normalized L1-I mpki / exec cycles over the no-prefetch Baseline):");
    {
        let [b, a] = pairs.next().expect("the prefetcher pair") else {
            unreachable!("chunks_exact(2)");
        };
        println!(
            "  Baseline+NL: l1i {:.2}, cycles {:.2} | ADDICT+NL: l1i {:.2}, cycles {:.2}",
            norm(b.stats.l1i_mpki(), base.stats.l1i_mpki()),
            norm(b.total_cycles, base.total_cycles),
            norm(a.stats.l1i_mpki(), base.stats.l1i_mpki()),
            norm(a.total_cycles, base.total_cycles)
        );
    }

    println!("\nMigration-cost sweep (ADDICT exec cycles over Baseline):");
    for cost in COSTS {
        let [b, a] = pairs.next().expect("one pair per migration cost") else {
            unreachable!("chunks_exact(2)");
        };
        println!(
            "  cost={cost:>6.0} cycles: {:.2}",
            norm(a.total_cycles, b.total_cycles)
        );
    }
}
