//! The traced run: a workload's specs executed in process, with a span
//! around every call into a crate's public functions.
//!
//! The pipeline is `run_job`'s, executed serially so that the spans of a
//! job never overlap: per benchmark, the profile and evaluation traces
//! come from the trace pool and Algorithm 1 runs over the profile; then
//! every grid point replays, and the result serializes. Its JSON must be
//! byte-identical to `run_job`'s, which the caller checks.
//!
//! A cold fetch cannot be split from outside `TracePool::get`, so on a
//! miss the traced pipeline calls the pieces of the pool's miss path
//! itself (`Benchmark::setup`, then `collect_traces_interned_chunked`),
//! inside a `bench.pool_get` span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use addict_bench::job::total_events_interned;
use addict_bench::{run_job, JobPoint, JobResult, JobSpec, TraceKey, TracePool};
use addict_core::algorithm1::{find_migration_points_interned, MigrationMap};
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_trace::{InternedWorkload, SlicePool};
use addict_workloads::collect_traces_interned_chunked;

use crate::spans::Tracer;

/// Upper bound on traced samples per run (tiny jobs would otherwise
/// record thousands of spans).
const MAX_SAMPLES: usize = 40;

/// Where a traced job's traces come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Generate every range: the pool's miss path.
    Generate,
    /// Look every range up in a primed pool.
    Pool(&'a TracePool),
}

/// One benchmark's traces and migration map within a traced job.
struct BenchSet {
    profile: Arc<InternedWorkload>,
    eval: Arc<InternedWorkload>,
    map: MigrationMap,
}

/// The pool's miss path for `key` (a single-range `generate_interned_chunked`).
fn generate(t: &mut Tracer, parent: Option<usize>, job: u64, key: &TraceKey) -> InternedWorkload {
    let (mut engine, mut runner) = t.time("storage.populate", parent, job, || {
        if key.small {
            key.bench.setup_small()
        } else {
            key.bench.setup()
        }
    });
    let mut pool = SlicePool::new();
    let xcts = t.time("workloads.trace", parent, job, || {
        collect_traces_interned_chunked(
            &mut engine,
            runner.as_mut(),
            key.n_xcts,
            key.seed,
            &mut pool,
            key.chunk,
        )
    });
    InternedWorkload {
        name: runner.name().to_owned(),
        xct_type_names: runner.xct_type_names(),
        pool: Arc::new(pool),
        xcts,
    }
}

fn fetch(
    t: &mut Tracer,
    parent: Option<usize>,
    job: u64,
    source: Source<'_>,
    key: &TraceKey,
    threads: usize,
) -> Arc<InternedWorkload> {
    let id = t.open("bench.pool_get", parent, job);
    let w = match source {
        Source::Generate => Arc::new(generate(t, Some(id), job, key)),
        Source::Pool(pool) => pool.get(key, threads).0,
    };
    t.close(id);
    w
}

/// One pass of the pipeline over `spec`, as root span `job`.
fn run_pipeline(
    t: &mut Tracer,
    job: u64,
    spec: &JobSpec,
    source: Source<'_>,
) -> (String, JobResult, Vec<BenchSet>) {
    let cfg = ReplayConfig::paper_default();
    let root_id = t.open("job", None, job);
    let root = Some(root_id);
    let mut sets = Vec::with_capacity(spec.benchmarks.len());
    for &bench in &spec.benchmarks {
        let profile = fetch(t, root, job, source, &spec.profile_key(bench), spec.threads);
        let eval = fetch(t, root, job, source, &spec.eval_key(bench), spec.threads);
        let map = t.time("core.alg1", root, job, || {
            find_migration_points_interned(profile.as_set(), cfg.sim.l1i)
        });
        sets.push(BenchSet { profile, eval, map });
    }
    let events: Vec<u64> = sets
        .iter()
        .map(|s| total_events_interned(&s.eval))
        .collect();
    let points = spec
        .grid_shape()
        .into_iter()
        .map(|(bi, scheduler, batch)| {
            let replay_cfg = match batch {
                Some(b) => cfg.clone().with_batch_size(b),
                None => cfg.clone(),
            };
            let set = &sets[bi];
            let result = t.time(format!("core.replay.{}", scheduler.id()), root, job, || {
                run_scheduler(scheduler, &set.eval.as_set(), Some(&set.map), &replay_cfg)
            });
            JobPoint {
                benchmark: spec.benchmarks[bi],
                scheduler,
                batch_size: batch,
                events: events[bi],
                seconds: 0.0,
                result,
            }
        })
        .collect();
    let result = JobResult {
        spec: spec.clone(),
        points,
    };
    let json = t.time("bench.serialize", root, job, || result.to_json());
    t.close(root_id);
    (json, result, sets)
}

/// What the traced run measured.
pub struct Traced {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Wall seconds of each traced job.
    pub traced_s: Vec<f64>,
    /// Wall seconds of each untraced twin of a traced job.
    pub untraced_s: Vec<f64>,
    /// Wall seconds of each in-process `run_job`.
    pub run_job_s: Vec<f64>,
    /// `run_job`'s JSON per spec: the reference the service must match.
    pub reference: Vec<String>,
    /// The first spec's result bytes.
    pub result_bytes: usize,
    /// Replay results of the first spec, every scheduler (those outside
    /// the spec replayed after its jobs, under root span `extra`).
    pub replays: Vec<(SchedulerKind, ReplayResult)>,
    /// Block events replayed by one job of the first spec.
    pub events: u64,
    /// Resident, pool and unique-slice sizes of the first spec's traces.
    pub trace_sizes: (usize, usize, u64),
    /// Pipeline results that differed from `run_job`'s.
    pub mismatches: Vec<String>,
}

/// Trace `specs` in process: a priming pass on warm workloads, then
/// traced, untraced and `run_job` passes over the specs in turn until
/// `budget` is spent (at least one pass). Specs no pass reached get
/// their byte reference from `run_job` alone.
pub fn traced_run(cold: bool, specs: &[JobSpec], budget: Duration) -> Traced {
    let mut t = Tracer::new(true);
    let pool = TracePool::unbounded();
    let quiet = |_: &str| {};
    let mut job = 0u64;
    if !cold {
        // Generation for the populate and trace splits, then the real
        // pool primed so the jobs' lookups hit.
        let mut keys: Vec<TraceKey> = Vec::new();
        for s in specs {
            for &b in &s.benchmarks {
                for k in [s.profile_key(b), s.eval_key(b)] {
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
        }
        let root_id = t.open("setup", None, job);
        let root = Some(root_id);
        for key in &keys {
            fetch(&mut t, root, job, Source::Generate, key, 1);
        }
        t.close(root_id);
        for key in &keys {
            pool.get(key, 1);
        }
        job += 1;
    }

    let start = Instant::now();
    let mut out = Traced {
        tracer: Tracer::new(false),
        traced_s: Vec::new(),
        untraced_s: Vec::new(),
        run_job_s: Vec::new(),
        reference: vec![String::new(); specs.len()],
        result_bytes: 0,
        replays: Vec::new(),
        events: 0,
        trace_sizes: (0, 0, 0),
        mismatches: Vec::new(),
    };
    let mut first_sets = Vec::new();
    for i in 0.. {
        if i > 0 && (start.elapsed() >= budget || i >= MAX_SAMPLES) {
            break;
        }
        let k = i % specs.len();
        let spec = &specs[k];
        let source = if cold {
            Source::Generate
        } else {
            Source::Pool(&pool)
        };
        // Alternate which twin runs first, so neither always runs on a
        // cache the other just warmed.
        let mut traced = None;
        let mut untraced = None;
        for twin in [i % 2 == 0, i % 2 != 0] {
            let t0 = Instant::now();
            if twin {
                let r = run_pipeline(&mut t, job, spec, source);
                out.traced_s.push(t0.elapsed().as_secs_f64());
                traced = Some(r);
            } else {
                let r = run_pipeline(&mut Tracer::new(false), job, spec, source);
                out.untraced_s.push(t0.elapsed().as_secs_f64());
                untraced = Some(r.0);
            }
        }
        job += 1;
        let (json, result, sets) = traced.expect("traced twin ran");

        let fresh;
        let job_pool = if cold {
            fresh = TracePool::unbounded();
            &fresh
        } else {
            &pool
        };
        let t0 = Instant::now();
        let reference = run_job(spec, job_pool, &quiet).expect("benchmark specs are valid");
        out.run_job_s.push(t0.elapsed().as_secs_f64());
        let reference = reference.to_json();
        if json != reference || untraced.as_deref() != Some(reference.as_str()) {
            out.mismatches.push(format!(
                "traced pipeline for spec {} differs from run_job",
                spec.to_json()
            ));
        }
        if i == 0 {
            out.result_bytes = reference.len();
            out.events = result.points.iter().map(|p| p.events).sum();
            out.replays = result
                .points
                .into_iter()
                .map(|p| (p.scheduler, p.result))
                .collect();
            first_sets = sets;
        }
        out.reference[k] = reference;
    }
    // Specs the budget left untraced still need their byte reference.
    let missing: Vec<usize> = (0..specs.len())
        .filter(|&k| out.reference[k].is_empty())
        .collect();
    let jsons = reference(
        &missing
            .iter()
            .map(|&k| specs[k].clone())
            .collect::<Vec<_>>(),
    );
    for (k, json) in missing.into_iter().zip(jsons) {
        out.reference[k] = json;
    }

    out.trace_sizes = first_sets.iter().fold((0, 0, 0), |acc, s| {
        let (p, e) = (&s.profile, &s.eval);
        (
            acc.0 + p.resident_bytes() + e.resident_bytes(),
            acc.1 + p.pool.backing_bytes() + e.pool.backing_bytes(),
            acc.2 + p.pool.unique_slices() + e.pool.unique_slices(),
        )
    });

    // Schedulers the first spec does not run, replayed on its traces so
    // every workload reports every scheduler's layer figures.
    let spec = &specs[0];
    let cfg = ReplayConfig::paper_default();
    let root_id = t.open("extra", None, job);
    let root = Some(root_id);
    for set in &first_sets {
        for kind in SchedulerKind::ALL {
            if spec.schedulers.contains(&kind) {
                continue;
            }
            let r = t.time(format!("core.replay.{}", kind.id()), root, job, || {
                run_scheduler(kind, &set.eval.as_set(), Some(&set.map), &cfg)
            });
            out.replays.push((kind, r));
        }
    }
    t.close(root_id);
    out.tracer = t;
    out
}

/// `run_job` over every spec, sharing one pool: the byte reference.
pub fn reference(specs: &[JobSpec]) -> Vec<String> {
    let pool = TracePool::unbounded();
    let quiet = |_: &str| {};
    specs
        .iter()
        .map(|spec| {
            run_job(spec, &pool, &quiet)
                .expect("benchmark specs are valid")
                .to_json()
        })
        .collect()
}
