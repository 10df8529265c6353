//! `addict-jobbench`: cold, warm and tiny jobs through `addict-serve`,
//! timed end to end and per crate.
//!
//! ```text
//! addict-jobbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! addict-jobbench --write-expected
//! ```
//!
//! A run starts `addict-serve` as a child process (set up several times,
//! timing each), drives it with closed-loop `POST /jobs?wait=1` clients
//! for `--seconds`, checks every result byte for byte against in-process
//! `run_job` output and, on the default seed, against the committed
//! digests, and checks the trace-pool traffic against the workload.
//! `--trace 1` adds the in-process traced run and reports the per-layer
//! metrics instead of the end-to-end ones. The human report goes to
//! stderr; the last stdout line is the JSON result. See README.md.

mod check;
mod client;
mod server;
mod spans;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use addict_bench::jsontext::JsonValue;
use addict_bench::JobSpec;
use addict_core::replay::ReplayResult;
use addict_core::sched::SchedulerKind;

use check::{result_of_stream, sim_totals, Expected, EXPECTED_DIGESTS};
use client::{request, Reply};
use server::ServerProc;
use workload::{Workload, DEFAULT_SEED};

/// Set-ups timed per run: at least `MIN_SETUPS`, more while they have
/// taken under `SETUP_BUDGET` in total, up to `MAX_SETUPS`. `setup_s` is
/// their median, so a set-up of milliseconds gets enough samples to be
/// steady and one of seconds is not repeated for long.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// A job that takes longer than this fails.
const JOB_TIMEOUT: Duration = Duration::from_secs(150);
/// Where the traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = "jobbench/out";

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--write-expected"] {
        return Ok(None);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} requires a non-negative integer, got {v:?}"))
    };
    let server = PathBuf::from(take("--server")?);
    let name = take("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = number("--seed", take("--seed")?)?;
    let seconds = number("--seconds", take("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Some(Args {
        server,
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            write_expected();
            Ok(())
        }
        Err(e) => Err(format!(
            "{e}\nusage: addict-jobbench --server PATH --workload NAME --seed N --seconds S --trace 0|1\n       addict-jobbench --write-expected"
        )),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Print the expected-digest file for the default seed of every workload.
fn write_expected() {
    println!("# workload eval_seed benchmark scheduler result_fnv64");
    println!("# Regenerate: addict-jobbench --write-expected > jobbench/expected_digests.txt");
    for w in Workload::ALL {
        let specs: Vec<JobSpec> = w
            .specs(DEFAULT_SEED)
            .expect("the default seed maps")
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        for (spec, json) in specs.iter().zip(traced::reference(&specs)) {
            for line in Expected::lines_for(w, spec, &json) {
                println!("{line}");
            }
        }
    }
}

/// Trace-pool counters from `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PoolCounts {
    hits: u64,
    misses: u64,
    generations: u64,
    evictions: u64,
}

impl PoolCounts {
    fn fetch(addr: &str) -> Result<PoolCounts, String> {
        let reply = request(addr, "GET", "/stats", None, Duration::from_secs(30))?;
        if reply.status != 200 {
            return Err(format!("/stats answered {}", reply.status));
        }
        let doc = JsonValue::parse(reply.body.trim())?;
        let cache = doc.get("cache").ok_or("/stats has no \"cache\"")?;
        let field = |name: &str| {
            cache
                .get(name)
                .ok_or_else(|| format!("/stats cache has no {name:?}"))?
                .as_u64(name)
        };
        Ok(PoolCounts {
            hits: field("hits")?,
            misses: field("misses")?,
            generations: field("generations")?,
            evictions: field("evictions")?,
        })
    }

    fn add_delta(&mut self, before: PoolCounts, after: PoolCounts) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.generations += after.generations - before.generations;
        self.evictions += after.evictions - before.evictions;
    }
}

/// One job of the timed phase.
struct JobRecord {
    spec: usize,
    reply: Result<Reply, String>,
}

/// What the timed phase saw.
struct Phase {
    jobs: Vec<JobRecord>,
    /// From the phase's start to the last job's last byte.
    seconds: f64,
    /// `/stats` deltas over the phase, summed over servers.
    pool: PoolCounts,
    peak_rss_mb: f64,
}

fn post_job(addr: &str, body: &str) -> Result<Reply, String> {
    request(addr, "POST", "/jobs?wait=1", Some(body), JOB_TIMEOUT)
}

/// Start a server and send it the priming jobs.
fn set_up(args: &Args, priming: &[String]) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::start(&args.server)?;
    for body in priming {
        let reply = post_job(&server.addr, body)?;
        if reply.status != 200 {
            return Err(format!("priming job answered {}", reply.status));
        }
        result_of_stream(&reply.body).map_err(|e| format!("priming job: {e}"))?;
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

fn timed_phase(args: &Args, bodies: &[String], server: ServerProc) -> Result<Phase, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    if args.workload.fresh_server_per_job() {
        let mut phase = Phase {
            jobs: Vec::new(),
            seconds: 0.0,
            pool: PoolCounts::default(),
            peak_rss_mb: 0.0,
        };
        let mut next = Some(server);
        while start.elapsed() < budget {
            let server = match next.take() {
                Some(s) => s,
                None => ServerProc::start(&args.server)?,
            };
            let spec = phase.jobs.len() % bodies.len();
            let before = PoolCounts::fetch(&server.addr)?;
            let reply = post_job(&server.addr, &bodies[spec]);
            phase.seconds = start.elapsed().as_secs_f64();
            phase
                .pool
                .add_delta(before, PoolCounts::fetch(&server.addr)?);
            phase.peak_rss_mb = phase.peak_rss_mb.max(server.peak_rss_mb()?);
            server.stop()?;
            phase.jobs.push(JobRecord { spec, reply });
        }
        return Ok(phase);
    }

    let before = PoolCounts::fetch(&server.addr)?;
    let clients = args.workload.clients();
    let per_client: Vec<(Vec<JobRecord>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = server.addr.as_str();
                s.spawn(move || {
                    let mut jobs = Vec::new();
                    let mut end = 0.0;
                    while start.elapsed() < budget {
                        let spec = (c + jobs.len()) % bodies.len();
                        let reply = post_job(addr, &bodies[spec]);
                        end = start.elapsed().as_secs_f64();
                        jobs.push(JobRecord { spec, reply });
                    }
                    (jobs, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pool = PoolCounts::default();
    pool.add_delta(before, PoolCounts::fetch(&server.addr)?);
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;
    let seconds = per_client.iter().map(|(_, end)| *end).fold(0.0, f64::max);
    Ok(Phase {
        jobs: per_client.into_iter().flat_map(|(jobs, _)| jobs).collect(),
        seconds,
        pool,
        peak_rss_mb,
    })
}

/// The median; the mean of the middle two for an even count.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)` by nearest rank, kept between the upper median
/// and p90. Under about twenty samples no percentile from the median up
/// has ten beyond it, and the upper median stands in; the rank then
/// moves one sample at a time as the count grows, so the metric never
/// jumps when a run holds a few jobs more or fewer. The cap: on a shared
/// 2-vCPU VM the p99 of 5 ms jobs moved by 17% between identical
/// back-to-back runs and p90 by 8%.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let rank = n
        .saturating_sub(10)
        .max(n / 2 + 1)
        .min((9 * n).div_ceil(10));
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The checkout's commit. Git may not search above the checkout root
/// (the working directory), so a checkout that is not a git repository
/// never reports the commit of one that encloses it.
fn commit() -> String {
    let mut git = std::process::Command::new("git");
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// Host facts recorded with every run.
fn host_facts(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.name().to_owned()),
        ("seed", args.seed.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".to_owned(), |n| n.to_string()),
        ),
        ("commit", commit()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
    ]
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let (bodies, specs): (Vec<String>, Vec<JobSpec>) = w
        .specs(args.seed)
        .ok_or_else(|| format!("--seed {} is too large", args.seed))?
        .into_iter()
        .unzip();
    let priming = w.priming_bodies(args.seed).expect("mapped above");
    let facts = host_facts(args);
    let mut line = String::from("# host:");
    for (k, v) in &facts {
        let _ = write!(line, " {k}={v}");
    }
    eprintln!("{line}");

    // Set-up: server start plus priming, several times; the last server
    // serves the timed phase.
    let mut setups: Vec<f64> = Vec::new();
    let mut server = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some(old) = server.take() {
            ServerProc::stop(old)?;
        }
        let (s, secs) = set_up(args, &priming)?;
        setups.push(secs);
        server = Some(s);
    }
    let phase = timed_phase(args, &bodies, server.expect("at least one set-up"))?;

    // The in-process run: the byte reference, plus the per-layer spans
    // when tracing.
    let traced = args.trace.then(|| {
        traced::traced_run(
            w.fresh_server_per_job(),
            &specs,
            Duration::from_secs(args.seconds) / 2,
        )
    });
    let reference = match &traced {
        Some(t) => t.reference.clone(),
        None => traced::reference(&specs),
    };
    // On the default seed the reference itself must match the committed
    // digests; a job matching a wrong reference fails too.
    let expected = Expected::parse(EXPECTED_DIGESTS)?;
    let mut problems: Vec<String> = Vec::new();
    let mut wrong_reference = vec![false; specs.len()];
    if args.seed == DEFAULT_SEED {
        for (k, (spec, json)) in specs.iter().zip(&reference).enumerate() {
            let mismatches = expected.mismatches(w, spec, json);
            wrong_reference[k] = !mismatches.is_empty();
            problems.extend(mismatches);
        }
    }
    let totals: Vec<check::SimTotals> = reference
        .iter()
        .map(|r| sim_totals(r))
        .collect::<Result<_, _>>()?;

    // Classify every job.
    let mut latencies = Vec::new();
    let mut first_bytes = Vec::new();
    let mut events = 0.0;
    let mut failed = 0u64;
    let mut rejected = 0u64;
    for job in &phase.jobs {
        let verdict = match &job.reply {
            Err(e) => Err(e.clone()),
            Ok(r) if matches!(r.status, 408 | 429 | 503) => {
                rejected += 1;
                Err(format!("rejected with {}", r.status))
            }
            Ok(r) if r.status != 200 => Err(format!("answered {}", r.status)),
            Ok(r) => result_of_stream(&r.body).and_then(|result| {
                if result != reference[job.spec] {
                    Err("result differs from in-process run_job".to_owned())
                } else if wrong_reference[job.spec] {
                    Err("result differs from the expected digests".to_owned())
                } else {
                    Ok(r)
                }
            }),
        };
        match verdict {
            Ok(r) => {
                latencies.push(r.total_s);
                first_bytes.push(r.first_byte_s);
                events += totals[job.spec].events;
            }
            Err(e) => {
                failed += 1;
                if failed <= 3 {
                    eprintln!("# failed job (spec {}): {e}", job.spec);
                }
            }
        }
    }
    let attempted = phase.jobs.len() as u64;

    // Traffic: exactly the misses the workload implies, no rejections.
    let mut want = PoolCounts::default();
    for job in &phase.jobs {
        let spec = &specs[job.spec];
        want.misses += w.misses_per_job(spec);
        want.hits += w.hits_per_job(spec);
    }
    want.generations = want.misses;
    let got = PoolCounts {
        evictions: 0,
        ..phase.pool
    };
    if got != want || rejected != 0 {
        problems.push(format!(
            "traffic mismatch: pool {:?}, expected {want:?}; {rejected} rejections",
            phase.pool
        ));
    }

    let p50 = median(&latencies);
    let (tail_s, tail_pct) = tail(&latencies);
    let cycles = totals.iter().fold((0.0, 0.0), |acc, t| {
        (acc.0 + t.addict_cycles, acc.1 + t.baseline_cycles)
    });
    let e2e = vec![
        metric("job_s_p50", p50, "s"),
        metric("job_s_tail", tail_s, "s"),
        metric("jobs_per_s", latencies.len() as f64 / phase.seconds, "1/s"),
        metric(
            "sim_events_per_s",
            events / latencies.iter().sum::<f64>(),
            "1/s",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("addict_cycles_vs_baseline", cycles.0 / cycles.1, "ratio"),
    ];

    let per_layer = match &traced {
        Some(t) => {
            problems.extend(t.mismatches.iter().cloned());
            layer_metrics(t, &phase, &latencies, &first_bytes, rejected, &mut problems)
        }
        None => Vec::new(),
    };
    if let Some(t) = &traced {
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", w.name(), args.seed);
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(t.tracer.spans(), &facts)))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("# spans written to {path}");
    }

    // The human report.
    eprintln!(
        "# {}: {} jobs attempted, {failed} failed over {:.3} s; {} set-ups",
        w.name(),
        attempted,
        phase.seconds,
        setups.len()
    );
    eprintln!(
        "# job seconds: min {:.4}, max {:.4}",
        latencies.iter().copied().fold(f64::INFINITY, f64::min),
        latencies.iter().copied().fold(0.0, f64::max)
    );
    eprintln!(
        "# job_s_tail is p{tail_pct:.2} over {} samples",
        latencies.len()
    );
    eprintln!("# traffic: pool {:?}, {rejected} rejections", phase.pool);
    for m in e2e.iter().chain(&per_layer) {
        eprintln!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<32} {:>18.6} ratio",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    if !args.trace {
        eprintln!(
            "{:<32} {:>18.6} MiB",
            "server_peak_rss_mb", phase.peak_rss_mb
        );
    }
    for p in &problems {
        eprintln!("# check failed: {p}");
    }

    let shown = if args.trace { &per_layer } else { &e2e };
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && problems.is_empty()
    );
    for (i, m) in shown.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Instruction-weighted mean of a per-kilo-instruction rate over replays.
fn weighted(replays: &[&ReplayResult], rate: impl Fn(&ReplayResult) -> f64) -> f64 {
    let instr: f64 = replays.iter().map(|r| r.instructions as f64).sum();
    replays
        .iter()
        .map(|r| rate(r) * r.instructions as f64)
        .sum::<f64>()
        / instr
}

fn layer_metrics(
    t: &traced::Traced,
    phase: &Phase,
    latencies: &[f64],
    first_bytes: &[f64],
    rejected: u64,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = t.tracer.spans();
    let roots = spans::sums_by_root(spans);
    let is_job = |r: usize| spans[r].name == "job";
    // A span's figure comes from the jobs when jobs make the call, else
    // from the roots that do (set-up population on warm workloads, the
    // extra schedulers): the median per-root sum.
    let per_root = |name: &str| {
        let sums = |jobs: bool| -> Vec<f64> {
            roots
                .iter()
                .filter(|(r, _)| is_job(*r) == jobs)
                .filter_map(|(_, s)| s.get(name).copied())
                .collect()
        };
        let in_jobs = sums(true);
        if in_jobs.is_empty() {
            median(&sums(false))
        } else {
            median(&in_jobs)
        }
    };

    let mut self_times: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, _) in roots.iter().filter(|(r, _)| is_job(*r)) {
        let wall = spans[*r].seconds();
        if spans::children_sum(spans, *r) > wall {
            problems.push(format!(
                "job {}: layer spans exceed its wall time",
                spans[*r].job
            ));
        }
        for (layer, secs) in spans::self_by_layer(spans, *r) {
            self_times.entry(layer).or_default().push(secs);
        }
    }

    let run_job_p50 = median(&t.run_job_s);
    let mut m = vec![
        metric("storage.populate_s", per_root("storage.populate"), "s"),
        metric("workloads.trace_s", per_root("workloads.trace"), "s"),
        metric("trace.resident_bytes", t.trace_sizes.0 as f64, "bytes"),
        metric("trace.pool_bytes", t.trace_sizes.1 as f64, "bytes"),
        metric("trace.unique_slices", t.trace_sizes.2 as f64, "count"),
        metric("core.alg1_s", per_root("core.alg1"), "s"),
    ];
    for kind in SchedulerKind::ALL {
        m.push(metric(
            format!("core.replay_s.{}", kind.id()),
            per_root(&format!("core.replay.{}", kind.id())),
            "s",
        ));
    }
    m.push(metric("core.events", t.events as f64, "count"));
    let of = |kind: SchedulerKind| -> Vec<&ReplayResult> {
        t.replays
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r)
            .collect()
    };
    for kind in SchedulerKind::ALL {
        let rs = of(kind);
        let id = kind.id();
        m.push(metric(
            format!("sim.cycles.{id}"),
            rs.iter().map(|r| r.total_cycles).sum(),
            "cycles",
        ));
        m.push(metric(
            format!("sim.l1i_mpki.{id}"),
            weighted(&rs, |r| r.stats.l1i_mpki()),
            "misses/ki",
        ));
        m.push(metric(
            format!("sim.l1d_mpki.{id}"),
            weighted(&rs, |r| r.stats.l1d_mpki()),
            "misses/ki",
        ));
        m.push(metric(
            format!("sim.llc_mpki.{id}"),
            weighted(&rs, |r| r.stats.llc_mpki()),
            "misses/ki",
        ));
    }
    m.push(metric(
        "sim.switches_per_ki.addict",
        weighted(&of(SchedulerKind::Addict), |r| r.stats.switches_per_ki()),
        "switches/ki",
    ));
    let htm = of(SchedulerKind::Htmx);
    let begins: u64 = htm.iter().map(|r| r.spec.begins).sum();
    let aborts: u64 = htm.iter().map(|r| r.spec.aborts()).sum();
    m.push(metric(
        "sim.htm_abort_rate",
        aborts as f64 / begins.max(1) as f64,
        "ratio",
    ));
    m.extend([
        metric("bench.pool_hits", phase.pool.hits as f64, "count"),
        metric("bench.pool_misses", phase.pool.misses as f64, "count"),
        metric(
            "bench.pool_generations",
            phase.pool.generations as f64,
            "count",
        ),
        metric("bench.pool_evictions", phase.pool.evictions as f64, "count"),
        metric("bench.pool_get_s", per_root("bench.pool_get"), "s"),
        metric("bench.run_job_s", run_job_p50, "s"),
        metric("bench.serialize_s", per_root("bench.serialize"), "s"),
        metric("bench.result_bytes", t.result_bytes as f64, "bytes"),
        metric("service.overhead_s", median(latencies) - run_job_p50, "s"),
        metric("service.first_byte_s", median(first_bytes), "s"),
        metric("service.rejected", rejected as f64, "count"),
        metric("service.peak_rss_mb", phase.peak_rss_mb, "MiB"),
    ]);
    for layer in ["job", "bench", "storage", "workloads", "core"] {
        let v = self_times.get(layer).map_or(0.0, |v| median(v));
        m.push(metric(format!("self_s.{layer}"), v, "s"));
    }
    let traced_p50 = median(&t.traced_s);
    m.push(metric("tracing.job_s_p50", traced_p50, "s"));
    m.push(metric(
        "tracing.overhead_s",
        traced_p50 - median(&t.untraced_s),
        "s",
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!(tail(&[]).0.is_nan());
        assert_eq!(tail(&[4.0]), (4.0, 100.0));
        // Few samples: the upper median.
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (2.0, 100.0 * 2.0 / 3.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v).0, 10.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).0, 11.0);
        // From there, the value with exactly ten beyond it ...
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), (20.0, 100.0 * 20.0 / 30.0));
        // ... until that passes p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (9000.0, 90.0));
        // The rank never moves by more than one sample per added sample.
        let mut last = 0;
        for n in 1..300usize {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let rank = tail(&v).0 as usize;
            assert!(rank == last || rank == last + 1, "n = {n}");
            last = rank;
        }
    }

    #[test]
    fn arguments_are_strict() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--server s --workload small-jobs --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::SmallJobs, 3, 5, true)
        );
        assert!(parse_args(&argv("--write-expected")).unwrap().is_none());
        for bad in [
            "--server s --workload nope --seed 3 --seconds 5 --trace 1",
            "--server s --workload small-jobs --seed -1 --seconds 5 --trace 1",
            "--server s --workload small-jobs --seed 3 --seconds 0 --trace 1",
            "--server s --workload small-jobs --seed 3 --seconds 5 --trace 2",
            "--server s --workload small-jobs --seed 3 --seconds 5",
            "--server s --workload small-jobs --seed 3 --seconds 5 --trace 1 --x 1",
            "--server s --workload small-jobs --seed 3 --seed 4 --seconds 5 --trace 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
