//! # addict-bench
//!
//! The benchmark harness regenerating every table and figure of the ADDICT
//! paper's evaluation (Section 4). One binary per artifact:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table1` | Table 1 — system parameters |
//! | `fig1`   | Figure 1 — operation flow-graph footprint percentages |
//! | `fig2`   | Figure 2 — instruction/data footprint overlap pies |
//! | `fig3`   | Figure 3 — per-instance reuse vs cross-instance commonality |
//! | `fig4`   | Figure 4 — migration-point stability, 1000 vs 10000 traces |
//! | `fig5`   | Figure 5 — L1-I / L1-D / L2 MPKI vs Baseline |
//! | `fig6`   | Figure 6 — total execution cycles + transaction latency |
//! | `fig7`   | Figure 7 — batch-size sweep (Section 4.5) |
//! | `fig8`   | Figure 8 — deeper hierarchy + power (Sections 4.6, 4.7) |
//! | `fig9`   | Figure 9 — context switches + overhead breakdown |
//! | `ablation` | design-choice ablations beyond the paper (core reassignment, replication, OoO miss hiding, batching) |
//! | `bench`  | `BENCH_n.json` — replay throughput (events/sec) per workload and scheduler, flat vs fast-path vs interned execution + trace-memory footprint (see BENCHMARKS.md) |
//!
//! Every binary but `table1` parses one command line
//! ([`parse_bench_args`]): the trace count as its first argument (default
//! 1000 for `fig1`–`fig3`, 500 for `fig4`, 600 for `fig5`–`fig9`; the
//! paper uses 1000 for profiling and 1000 for evaluation — Section 4.2
//! shows results are stable from 1000 up) and `--threads N` for worker
//! count. The sweep-capable binaries (`fig5`–`fig9`, `ablation`, `bench`)
//! also take `--benchmarks name,name,...` to select registry entries
//! (default: all six — the TPC trio plus the TATP and YCSB mixes); `fig1`–`fig4` trace fixed benchmarks and reject it. Runs are
//! deterministic: seed 1 profiles, seed 2 evaluates, matching the paper's
//! disjoint trace ranges.
//!
//! Traces come from one path: a fresh storage engine traced by
//! `collect_traces` (`fig1`–`fig4`, and `bench`'s flat reference) or,
//! interned, by a [`TracePool`] miss (one engine per [`TraceKey`]).
//! Every grid fetches its interned traces and Algorithm 1's migration
//! maps (memoized per profile entry in the pool) through one prologue,
//! [`fetch_traces`], and replays through
//! [`run_grid`] plus `run_scheduler`. `fig5`, `fig6`, `fig7` and `fig9`
//! run whole [`JobSpec`]s through [`run_job`], the executor the replay
//! server uses too; `fig8`, `ablation` and `bench` call [`fetch_traces`]
//! and build their own grids.

pub mod cache;
pub mod job;
pub mod jsontext;
pub mod sweep;

use addict_workloads::Benchmark;

pub use cache::{CacheStats, TraceKey, TracePool, DEFAULT_GEN_CHUNK};
pub use job::{
    fetch_traces, fnv64, pretty_debug_fnv64, run_job, run_job_with, summary_rows, BenchTraces,
    CancelToken, Interrupt, JobError, JobPoint, JobResult, JobSpec, SpecError, SummaryRow,
};
pub use sweep::{run_grid, run_grid_abortable};

/// Profiling seed (the paper's traces 1–1000).
pub const PROFILE_SEED: u64 = 1;
/// Evaluation seed (the paper's traces 1001–2000).
pub const EVAL_SEED: u64 = 2;

/// Parsed command line of the figure binaries, `ablation` and `bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Trace count per workload (first positional argument).
    pub n_xcts: usize,
    /// Output path (second positional argument), where the binary writes
    /// an artifact.
    pub out: Option<String>,
    /// Sweep worker threads (`--threads N`, defaulting to the host's
    /// available parallelism).
    pub threads: usize,
    /// `--smoke`: a fast CI-sized run (small trace count, single rep).
    pub smoke: bool,
    /// `--scaling`: run the `bench` binary's trace-memory-vs-throughput
    /// scaling ladder instead of (only) the fixed-size matrix.
    pub scaling: bool,
    /// Benchmarks to run (`--benchmarks tpcb,tatp,...`, case-insensitive
    /// names; default: every registry entry, in registry order).
    pub benchmarks: Vec<Benchmark>,
    /// Whether `--benchmarks` was given explicitly (single-workload
    /// binaries reject explicit multi-entry filters but accept the
    /// default).
    pub benchmarks_explicit: bool,
}

/// Parse `[n_xcts] [out] [--xcts N] [--threads N]
/// [--benchmarks a,b,...] [--smoke] [--scaling]` in any order, exiting
/// with a usage message on a malformed flag. `--smoke` shrinks the
/// default trace count to 60 unless one was given explicitly.
pub fn parse_bench_args(default_n: usize) -> BenchArgs {
    let args: Vec<String> = std::env::args().collect();
    parse_bench_args_from(&args, default_n).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: {} [n_xcts] [out] [--xcts N] [--threads N] [--benchmarks name,name,...] [--smoke] [--scaling]",
            args.first().map(String::as_str).unwrap_or("bench")
        );
        std::process::exit(2);
    })
}

/// [`parse_bench_args`] over an explicit argument list (`args[0]` is the
/// program name). A `--xcts`, `--threads` or `--benchmarks` flag with a
/// missing or invalid value is an explicit error, never a silent fallback
/// — a typo'd thread count must not quietly serialize a sweep, and a
/// typo'd `--xcts` must not quietly run a million-transaction ladder at
/// the default size. Value parsing is shared with the service's job specs
/// ([`job::xcts_value`] and friends): one strictness policy, one error
/// type ([`SpecError`]) for flags and jobs alike.
pub fn parse_bench_args_from(args: &[String], default_n: usize) -> Result<BenchArgs, SpecError> {
    let mut threads = None;
    let mut benchmarks = None;
    let mut smoke = false;
    let mut scaling = false;
    let mut n_xcts = None;
    let mut out = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        // A `--xcts` flag and a numeric positional both set the trace
        // count; two sources (or two flags) are ambiguous — reject.
        let mut set_xcts = |n: usize| -> Result<(), SpecError> {
            if n_xcts.replace(n).is_some() {
                return Err(SpecError::new("xcts", "trace count given more than once"));
            }
            Ok(())
        };
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scaling" => scaling = true,
            "--xcts" => {
                let v = it
                    .next()
                    .ok_or_else(|| SpecError::new("xcts", "--xcts requires a value"))?;
                set_xcts(job::xcts_value(v)?)?;
            }
            s if s.starts_with("--xcts=") => {
                set_xcts(job::xcts_value(&s["--xcts=".len()..])?)?;
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| SpecError::new("threads", "--threads requires a value"))?;
                threads = Some(job::threads_value(v)?);
            }
            s if s.starts_with("--threads=") => {
                threads = Some(job::threads_value(&s["--threads=".len()..])?);
            }
            "--benchmarks" => {
                let v = it
                    .next()
                    .ok_or_else(|| SpecError::new("benchmarks", "--benchmarks requires a value"))?;
                benchmarks = Some(job::benchmarks_value(v)?);
            }
            s if s.starts_with("--benchmarks=") => {
                benchmarks = Some(job::benchmarks_value(&s["--benchmarks=".len()..])?);
            }
            s if s.starts_with("--") => {
                return Err(SpecError::new("args", format!("unknown flag {s:?}")));
            }
            // Positionals are type-directed so flags can reorder them:
            // a number is the trace count, anything else the output path.
            // Like the trace count, a second output path is ambiguous.
            s => match s.parse::<usize>() {
                Ok(n) => set_xcts(n)?,
                Err(_) => {
                    if out.replace(s.to_owned()).is_some() {
                        return Err(SpecError::new("out", "output path given more than once"));
                    }
                }
            },
        }
    }
    Ok(BenchArgs {
        n_xcts: n_xcts.unwrap_or(if smoke { 60 } else { default_n }),
        out,
        threads: threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        smoke,
        scaling,
        benchmarks_explicit: benchmarks.is_some(),
        benchmarks: benchmarks.unwrap_or_else(|| Benchmark::ALL.to_vec()),
    })
}

/// Normalize `value` over the baseline's, guarding degenerate baselines.
/// A zero-transaction or zero-instruction run legitimately reports 0 for
/// every metric; dividing by that must print as `0.00` in the figures, not
/// `NaN`/`inf` (and a non-finite baseline must not propagate).
pub fn norm(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 || !baseline.is_finite() {
        0.0
    } else {
        value / baseline
    }
}

/// Print a standard header naming the figure and setup.
pub fn header(artifact: &str, what: &str, n: usize) {
    println!("================================================================");
    println!("{artifact}: {what}");
    println!("(ADDICT reproduction; {n} traces/workload, seeds {PROFILE_SEED}/{EVAL_SEED})");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_core::find_migration_points;
    use addict_core::replay::ReplayConfig;
    use addict_core::sched::{run_scheduler, SchedulerKind};
    use addict_workloads::collect_traces;

    #[test]
    fn norm_guards_zero() {
        assert_eq!(norm(5.0, 0.0), 0.0);
        assert_eq!(norm(5.0, -0.0), 0.0);
        assert_eq!(norm(5.0, f64::NAN), 0.0);
        assert_eq!(norm(5.0, f64::INFINITY), 0.0);
        assert!((norm(5.0, 2.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bench_args_parse_flags_and_positionals() {
        let argv = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let a = parse_bench_args_from(&argv(&["bench", "400", "out.json", "--threads", "2"]), 600)
            .unwrap();
        assert_eq!(a.n_xcts, 400);
        assert_eq!(a.out.as_deref(), Some("out.json"));
        assert_eq!(a.threads, 2);
        assert!(!a.smoke);
        assert_eq!(a.benchmarks, Benchmark::ALL.to_vec());
        // Flags may precede positionals; --smoke shrinks the default n.
        let b = parse_bench_args_from(&argv(&["bench", "--threads=3", "--smoke"]), 600).unwrap();
        assert_eq!(b.n_xcts, 60);
        assert_eq!(b.out, None);
        assert_eq!(b.threads, 3);
        assert!(b.smoke);
        // An explicit trace count wins over the smoke default.
        let c = parse_bench_args_from(&argv(&["bench", "--smoke", "200"]), 600).unwrap();
        assert_eq!(c.n_xcts, 200);
        // A lone path positional is the output file, not a trace count
        // (the CI smoke invocation passes only a path).
        let d = parse_bench_args_from(
            &argv(&["bench", "--threads", "2", "--smoke", "/tmp/s.json"]),
            600,
        )
        .unwrap();
        assert_eq!(d.n_xcts, 60);
        assert_eq!(d.out.as_deref(), Some("/tmp/s.json"));
        assert!(d.smoke);
        // A second output path is an error, not silently dropped.
        for bad in [
            vec!["bench", "a.json", "b.json"],
            vec!["bench", "a.json", "--smoke", "400", "b.json"],
        ] {
            let err = parse_bench_args_from(&argv(&bad), 600).unwrap_err();
            assert_eq!(err.field, "out", "{bad:?} gave {err:?}");
        }
    }

    #[test]
    fn bench_args_reject_malformed_threads() {
        let argv = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // A --threads flag swallowing the next flag as its value, a
        // missing value, garbage, and zero are all explicit errors — a
        // typo must never silently serialize a sweep.
        for bad in [
            vec!["bench", "--threads", "--smoke"],
            vec!["bench", "--threads"],
            vec!["bench", "--threads", "8x", "out.json"],
            vec!["bench", "--threads=0"],
            vec!["bench", "--threads=zap"],
        ] {
            let err = parse_bench_args_from(&argv(&bad), 600).unwrap_err();
            assert_eq!(err.field, "threads", "{bad:?} gave {err:?}");
            assert!(err.message.contains("--threads"), "{bad:?} gave {err:?}");
        }
        // Unknown flags are errors too, not output paths.
        assert!(parse_bench_args_from(&argv(&["bench", "--jobs", "4"]), 600).is_err());
    }

    #[test]
    fn bench_args_parse_xcts_flag() {
        let argv = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // --xcts sets the trace count like the numeric positional does,
        // and beats the smoke default.
        let a =
            parse_bench_args_from(&argv(&["bench", "--xcts", "2000", "out.json"]), 600).unwrap();
        assert_eq!(a.n_xcts, 2000);
        assert_eq!(a.out.as_deref(), Some("out.json"));
        let b = parse_bench_args_from(&argv(&["bench", "--smoke", "--xcts=1000000"]), 600).unwrap();
        assert_eq!(b.n_xcts, 1_000_000);
        assert!(b.smoke);
        assert!(!b.scaling);
        let c =
            parse_bench_args_from(&argv(&["bench", "--scaling", "--xcts", "400"]), 600).unwrap();
        assert!(c.scaling);
        assert_eq!(c.n_xcts, 400);
        // Garbage, zero, a missing value, and a flag swallowed as the
        // value are explicit errors — same contract as --threads.
        for bad in [
            vec!["bench", "--xcts"],
            vec!["bench", "--xcts", "--smoke"],
            vec!["bench", "--xcts", "1e6"],
            vec!["bench", "--xcts=0"],
            vec!["bench", "--xcts=many"],
        ] {
            let err = parse_bench_args_from(&argv(&bad), 600).unwrap_err();
            assert_eq!(err.field, "xcts", "{bad:?} gave {err:?}");
            assert!(err.message.contains("--xcts"), "{bad:?} gave {err:?}");
        }
        // Two trace counts (flag twice, or flag + positional) are
        // ambiguous, not last-one-wins.
        for twice in [
            vec!["bench", "--xcts", "5", "--xcts", "6"],
            vec!["bench", "400", "--xcts", "5"],
            vec!["bench", "--xcts=5", "400"],
        ] {
            let err = parse_bench_args_from(&argv(&twice), 600).unwrap_err();
            assert!(
                err.message.contains("more than once"),
                "{twice:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn bench_args_parse_benchmark_filter() {
        let argv = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let a = parse_bench_args_from(&argv(&["bench", "--benchmarks", "tpcb,tatp"]), 600).unwrap();
        assert_eq!(a.benchmarks, vec![Benchmark::TpcB, Benchmark::Tatp]);
        // Case-insensitive, dashed or dashless, in = form too.
        let b = parse_bench_args_from(&argv(&["bench", "--benchmarks=TPC-C,ycsb-a,YCSBB"]), 600)
            .unwrap();
        assert_eq!(
            b.benchmarks,
            vec![Benchmark::TpcC, Benchmark::YcsbA, Benchmark::YcsbB]
        );
        // Unknown names and empty lists are explicit errors.
        let err =
            parse_bench_args_from(&argv(&["bench", "--benchmarks", "tpcz"]), 600).unwrap_err();
        assert_eq!(err.field, "benchmarks", "{err}");
        assert!(err.message.contains("unknown benchmark"), "{err}");
        assert!(parse_bench_args_from(&argv(&["bench", "--benchmarks"]), 600).is_err());
        assert!(parse_bench_args_from(&argv(&["bench", "--benchmarks="]), 600).is_err());
    }

    #[test]
    fn zero_xct_replay_reports_finite_zeros() {
        // A 0-transaction run must flow through every figure's arithmetic
        // as clean zeros, never NaN (empty-trace guard satellite).
        let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
        let profile = collect_traces(&mut engine, workload.as_mut(), 10, PROFILE_SEED);
        let cfg = ReplayConfig::paper_default();
        let map = find_migration_points(&profile.xcts, cfg.sim.l1i);
        let empty: Vec<addict_trace::XctTrace> = Vec::new();
        for kind in SchedulerKind::ALL {
            let r = run_scheduler(kind, &empty, Some(&map), &cfg);
            assert_eq!(r.n_xcts, 0);
            assert_eq!(r.instructions, 0);
            assert_eq!(r.stats.l1i_mpki(), 0.0);
            assert_eq!(r.stats.l1d_mpki(), 0.0);
            assert_eq!(r.stats.llc_mpki(), 0.0);
            assert_eq!(r.stats.l2p_mpki(), 0.0);
            assert_eq!(r.stats.switches_per_ki(), 0.0);
            assert_eq!(r.overhead_fraction(), 0.0);
            assert!(r.avg_latency_cycles == 0.0 && r.total_cycles == 0.0);
            assert!(r.power.per_core_power_w == 0.0);
            assert_eq!(norm(r.stats.l1i_mpki(), r.stats.l1i_mpki()), 0.0);
        }
    }

    #[test]
    fn small_pipeline_end_to_end() {
        // A miniature end-to-end run of the harness plumbing.
        let (mut engine, mut workload) = Benchmark::TpcB.setup_small();
        let profile = collect_traces(&mut engine, workload.as_mut(), 20, PROFILE_SEED);
        let eval = collect_traces(&mut engine, workload.as_mut(), 20, EVAL_SEED);
        let cfg = ReplayConfig::paper_default();
        let map = find_migration_points(&profile.xcts, cfg.sim.l1i);
        let results: Vec<_> = SchedulerKind::ALL
            .iter()
            .map(|&kind| run_scheduler(kind, &eval.xcts, Some(&map), &cfg))
            .collect();
        assert_eq!(results[0].scheduler, "Baseline");
        assert!(results.iter().all(|r| r.n_xcts == 20));
        assert!(results.iter().all(|r| r.total_cycles > 0.0));
    }
}
