//! The job layer: grid/sweep execution as a reusable library.
//!
//! The (benchmark × scheduler × config) sweep recipe — fetch traces and
//! migration maps, construct the grid, fan it out, and serialize
//! the outcome — lives here, so the figure binaries (`fig5`, `fig6`,
//! `fig7`, `fig9`) and the resident evaluation server (`addict-service`)
//! share **one code path**:
//!
//! * [`JobSpec`] — a declarative job: benchmark selection × scheduler set
//!   × config grid (batch sizes) × transaction count, with a hand-rolled
//!   JSON round-trip ([`JobSpec::to_json`] / [`JobSpec::from_json`]) and
//!   the same strict-flag surface as the bench binaries
//!   ([`JobSpec::from_args`]);
//! * [`SpecError`] — the single error type of both surfaces: every
//!   malformed flag *and* every malformed job field reports through it,
//!   tagged with the offending field, so CLI and server strictness cannot
//!   drift;
//! * [`fetch_traces`] — the prologue of every grid: the job's profile
//!   and eval keys come from a [`TracePool`] (cache hit or generate,
//!   several keys at once), and so do the migration maps: Algorithm 1 is
//!   memoized per profile entry, so a warm job never re-profiles.
//!   `fig8`, `ablation` and `bench` call it directly;
//! * [`run_job`] — the executor: [`fetch_traces`], then the grid fans
//!   out through [`run_grid_abortable`] and `run_scheduler`;
//! * [`JobResult`] — the serialized outcome. Its [`JobResult::to_json`]
//!   output is a pure function of the spec — wall-clock timings travel in
//!   progress callbacks, never in the result — so a job executed via the
//!   server serializes **byte-identical** to the same job executed via
//!   the batch path (asserted by `addict-service/tests/service_roundtrip.rs`
//!   and re-checked on every `bench` run).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use addict_core::algorithm1::MigrationMap;
use addict_core::replay::{ReplayConfig, ReplayResult};
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_trace::{InternedWorkload, TraceEvent};
use addict_workloads::Benchmark;

use crate::cache::{TraceKey, TracePool};
use crate::jsontext::{escape, JsonValue};
use crate::sweep::run_grid_abortable;
use crate::{EVAL_SEED, PROFILE_SEED};

/// A job-spec or argument error: the single strictness policy shared by
/// the bench binaries' flags and the server's job parsing. `field` names
/// the offending input (`"xcts"`, `"threads"`, `"benchmarks"`, ...) so
/// the server can answer with a structured error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The spec field or flag at fault.
    pub field: &'static str,
    /// Human-readable diagnosis (includes the offending value).
    pub message: String,
}

impl SpecError {
    /// Build an error for `field`.
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        SpecError {
            field,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// Why a running job stopped early: an explicit cancellation or an
/// expired deadline. The two are distinct lifecycle outcomes — a client
/// that asked for the stop should not be told the job "timed out".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

/// A cooperative cancellation/deadline token threaded through
/// [`run_job_with`] and checked between sweep points (and between trace
/// fetches). Cancellation is *cooperative*: a point already replaying
/// finishes (points are milliseconds to seconds), but no further point
/// starts, no further trace range generates, and the job's trace-pool
/// pins drop as `run_job_with` returns — which is what lets a server
/// reclaim a cancelled job's memory promptly.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    /// Absolute deadline, if armed. Armed by the owner (typically at
    /// admission time, so queue wait counts against the budget).
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that never fires (the batch binaries' configuration).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; checked at the next sweep point.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Arm a deadline `deadline_ms` milliseconds from now. A zero value
    /// clears the deadline.
    pub fn arm_deadline_ms(&self, deadline_ms: u64) {
        let mut slot = self.deadline.lock().expect("deadline lock");
        *slot = if deadline_ms == 0 {
            None
        } else {
            Some(Instant::now() + Duration::from_millis(deadline_ms))
        };
    }

    /// Poll the token: `Ok(())` to keep going, or the [`Interrupt`] that
    /// should end the job. Cancellation wins over an expired deadline
    /// (the client's explicit request is the stronger signal).
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        let deadline = *self.deadline.lock().expect("deadline lock");
        match deadline {
            Some(d) if Instant::now() >= d => Err(Interrupt::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Why [`run_job_with`] did not produce a result: the spec was invalid,
/// or the job was interrupted mid-flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The spec failed validation (the structured-400 path).
    Spec(SpecError),
    /// The job's [`CancelToken`] fired between sweep points.
    Interrupted(Interrupt),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Spec(e) => e.fmt(f),
            JobError::Interrupted(Interrupt::Cancelled) => f.write_str("job cancelled"),
            JobError::Interrupted(Interrupt::DeadlineExceeded) => {
                f.write_str("job deadline exceeded")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<SpecError> for JobError {
    fn from(e: SpecError) -> Self {
        JobError::Spec(e)
    }
}

/// Parse a transaction count: a positive integer, never a silent
/// fallback. Shared by `--xcts`, the numeric positional, and the job
/// spec's `n_xcts` field — the strict semantics from PR 6.
pub fn xcts_value(v: &str) -> Result<usize, SpecError> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(SpecError::new(
            "xcts",
            format!("--xcts requires a positive integer, got {v:?}"),
        )),
    }
}

/// Parse a worker-thread count: a positive integer, never a silent
/// fallback. Shared by `--threads` and the job spec's `threads` field.
pub fn threads_value(v: &str) -> Result<usize, SpecError> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(SpecError::new(
            "threads",
            format!("--threads requires a positive integer, got {v:?}"),
        )),
    }
}

/// Parse a comma-separated benchmark list: known names only, never empty.
/// Shared by `--benchmarks` and (name-by-name) the job spec's
/// `benchmarks` field.
pub fn benchmarks_value(v: &str) -> Result<Vec<Benchmark>, SpecError> {
    let list: Vec<Benchmark> = v
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e: String| SpecError::new("benchmarks", e))?;
    if list.is_empty() {
        return Err(SpecError::new(
            "benchmarks",
            "--benchmarks requires a comma-separated list of names",
        ));
    }
    Ok(list)
}

/// A declarative evaluation job: which benchmarks to replay, under which
/// schedulers, over which config grid, at what size. The unit the batch
/// binaries and the resident server both execute through [`run_job`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Benchmarks to replay (registry order is not required).
    pub benchmarks: Vec<Benchmark>,
    /// Schedulers to replay under (default: all five).
    pub schedulers: Vec<SchedulerKind>,
    /// Evaluation (and profiling) transactions per benchmark.
    pub n_xcts: usize,
    /// Sweep/generation worker threads (results are thread-count
    /// invariant; this is purely a latency knob).
    pub threads: usize,
    /// Batch sizes to sweep for the batching schedulers; empty = the
    /// paper default (one grid point per benchmark × scheduler).
    pub batch_sizes: Vec<usize>,
    /// Generation→interning drain granularity (0 = batch interning).
    pub chunk: usize,
    /// Use the reduced test-scale populations (`setup_small`).
    pub small: bool,
    /// Evaluation-trace seed (profiling always uses [`PROFILE_SEED`]).
    pub seed: u64,
    /// Wall-clock budget in milliseconds, measured from admission
    /// (queue wait counts); 0 = no deadline. Enforced cooperatively by
    /// the job's [`CancelToken`] between sweep points. The deadline is
    /// an *execution* knob like `threads`: it never changes what a
    /// completed job's points contain, only whether the job completes.
    pub deadline_ms: u64,
}

impl JobSpec {
    /// The smallest useful job: one benchmark, all five schedulers, the
    /// paper-default config, [`DEFAULT_GEN_CHUNK`](crate::DEFAULT_GEN_CHUNK)
    /// streaming.
    pub fn new(benchmarks: Vec<Benchmark>, n_xcts: usize) -> Self {
        JobSpec {
            benchmarks,
            schedulers: SchedulerKind::ALL.to_vec(),
            n_xcts,
            threads: 1,
            batch_sizes: Vec::new(),
            chunk: crate::DEFAULT_GEN_CHUNK,
            small: false,
            seed: EVAL_SEED,
            deadline_ms: 0,
        }
    }

    /// Build a job from the bench binaries' argument surface
    /// (`[n_xcts] [--xcts N] [--threads N] [--benchmarks a,b,...]`),
    /// sharing [`parse_bench_args_from`](crate::parse_bench_args_from)'s
    /// parsing — one strictness policy, one error type — so server job
    /// parsing and CLI flags cannot drift.
    pub fn from_args(args: &[String], default_n: usize) -> Result<JobSpec, SpecError> {
        let a = crate::parse_bench_args_from(args, default_n)?;
        let mut spec = JobSpec::new(a.benchmarks, a.n_xcts);
        spec.threads = a.threads;
        spec.dedup_lists();
        spec.validate()?;
        Ok(spec)
    }

    /// Collapse duplicate `benchmarks`/`schedulers`/`batch_sizes` entries,
    /// keeping first-occurrence order. A repeated entry adds nothing to a
    /// result (the grid would just replay the identical point), but it
    /// *does* multiply [`JobSpec::grid_shape`] — and with it the admission
    /// controller's reserved-bytes estimate and the deadline-relevant
    /// sweep length — so a sloppy spec like `"benchmarks": ["tatp",
    /// "tatp"]` would burn double the budget to say the same thing and
    /// could tip an otherwise-admissible job into a 503. Both structured
    /// entry points ([`JobSpec::from_json`], [`JobSpec::from_args`])
    /// normalize through this before validating.
    pub fn dedup_lists(&mut self) {
        fn dedup_in_place<T: PartialEq + Copy>(v: &mut Vec<T>) {
            let mut seen: Vec<T> = Vec::with_capacity(v.len());
            v.retain(|&x| {
                if seen.contains(&x) {
                    false
                } else {
                    seen.push(x);
                    true
                }
            });
        }
        dedup_in_place(&mut self.benchmarks);
        dedup_in_place(&mut self.schedulers);
        dedup_in_place(&mut self.batch_sizes);
    }

    /// Enforce the spec invariants the flag parsers enforce for the CLI:
    /// positive transaction and thread counts, non-empty benchmark and
    /// scheduler sets, positive batch sizes. The server rejects a job
    /// failing any of these with a structured error before touching the
    /// cache or worker pool.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n_xcts == 0 {
            return Err(SpecError::new(
                "n_xcts",
                "n_xcts must be a positive transaction count (the strict --xcts semantics)",
            ));
        }
        if self.threads == 0 {
            return Err(SpecError::new(
                "threads",
                "threads must be a positive worker count (the strict --threads semantics)",
            ));
        }
        if self.benchmarks.is_empty() {
            return Err(SpecError::new(
                "benchmarks",
                "benchmarks must name at least one registry entry",
            ));
        }
        if self.schedulers.is_empty() {
            return Err(SpecError::new(
                "schedulers",
                "schedulers must name at least one scheduler",
            ));
        }
        if self.batch_sizes.contains(&0) {
            return Err(SpecError::new(
                "batch_sizes",
                "batch sizes must be positive",
            ));
        }
        Ok(())
    }

    /// One grid point per (benchmark × scheduler × config): the job's
    /// shape, independent of trace storage. `None` is the paper-default
    /// config; `Some(b)` overrides the batch size. Benchmark-major, then
    /// scheduler, then batch — the order results serialize in.
    pub fn grid_shape(&self) -> Vec<(usize, SchedulerKind, Option<usize>)> {
        let mut shape = Vec::new();
        for (bi, _) in self.benchmarks.iter().enumerate() {
            for &sched in &self.schedulers {
                if self.batch_sizes.is_empty() {
                    shape.push((bi, sched, None));
                } else {
                    for &b in &self.batch_sizes {
                        shape.push((bi, sched, Some(b)));
                    }
                }
            }
        }
        shape
    }

    /// Canonical single-line JSON form. [`JobSpec::from_json`] inverts it
    /// exactly (round-trip tested).
    pub fn to_json(&self) -> String {
        let benches: Vec<String> = self
            .benchmarks
            .iter()
            .map(|b| format!("\"{}\"", b.id()))
            .collect();
        let scheds: Vec<String> = self
            .schedulers
            .iter()
            .map(|s| format!("\"{}\"", s.id()))
            .collect();
        let batches: Vec<String> = self.batch_sizes.iter().map(usize::to_string).collect();
        format!(
            "{{\"benchmarks\":[{}],\"schedulers\":[{}],\"n_xcts\":{},\"threads\":{},\"batch_sizes\":[{}],\"chunk\":{},\"small\":{},\"seed\":{},\"deadline_ms\":{}}}",
            benches.join(","),
            scheds.join(","),
            self.n_xcts,
            self.threads,
            batches.join(","),
            self.chunk,
            self.small,
            self.seed,
            self.deadline_ms
        )
    }

    /// Parse a job from its JSON form. Strict: unknown fields are
    /// rejected (a typo'd field must not silently fall back to a
    /// default), `benchmarks` and `n_xcts` are required, everything else
    /// defaults as [`JobSpec::new`]. The parsed spec is [`validate`]d.
    ///
    /// [`validate`]: JobSpec::validate
    pub fn from_json(s: &str) -> Result<JobSpec, SpecError> {
        let doc = JsonValue::parse(s).map_err(|e| SpecError::new("spec", e))?;
        let fields = doc
            .as_obj("job spec")
            .map_err(|e| SpecError::new("spec", e))?;
        let mut spec = JobSpec::new(Vec::new(), 0);
        let mut saw_benchmarks = false;
        let mut saw_n = false;
        for (key, value) in fields {
            match key.as_str() {
                "benchmarks" => {
                    let arr = value
                        .as_arr("benchmarks")
                        .map_err(|e| SpecError::new("benchmarks", e))?;
                    spec.benchmarks = arr
                        .iter()
                        .map(|v| {
                            v.as_str("benchmarks entry")
                                .map_err(|e| SpecError::new("benchmarks", e))?
                                .parse::<Benchmark>()
                                .map_err(|e| SpecError::new("benchmarks", e))
                        })
                        .collect::<Result<_, _>>()?;
                    saw_benchmarks = true;
                }
                "schedulers" => {
                    let arr = value
                        .as_arr("schedulers")
                        .map_err(|e| SpecError::new("schedulers", e))?;
                    spec.schedulers = arr
                        .iter()
                        .map(|v| {
                            v.as_str("schedulers entry")
                                .map_err(|e| SpecError::new("schedulers", e))?
                                .parse::<SchedulerKind>()
                                .map_err(|e| SpecError::new("schedulers", e))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "n_xcts" => {
                    spec.n_xcts = value
                        .as_u64("n_xcts")
                        .map_err(|e| SpecError::new("n_xcts", e))?
                        as usize;
                    saw_n = true;
                }
                "threads" => {
                    spec.threads = value
                        .as_u64("threads")
                        .map_err(|e| SpecError::new("threads", e))?
                        as usize;
                }
                "batch_sizes" => {
                    let arr = value
                        .as_arr("batch_sizes")
                        .map_err(|e| SpecError::new("batch_sizes", e))?;
                    spec.batch_sizes = arr
                        .iter()
                        .map(|v| {
                            v.as_u64("batch_sizes entry")
                                .map(|n| n as usize)
                                .map_err(|e| SpecError::new("batch_sizes", e))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "chunk" => {
                    spec.chunk = value
                        .as_u64("chunk")
                        .map_err(|e| SpecError::new("chunk", e))?
                        as usize;
                }
                "small" => {
                    spec.small = value
                        .as_bool("small")
                        .map_err(|e| SpecError::new("small", e))?;
                }
                "seed" => {
                    spec.seed = value
                        .as_u64("seed")
                        .map_err(|e| SpecError::new("seed", e))?;
                }
                "deadline_ms" => {
                    spec.deadline_ms = value
                        .as_u64("deadline_ms")
                        .map_err(|e| SpecError::new("deadline_ms", e))?;
                }
                other => {
                    return Err(SpecError::new(
                        "spec",
                        format!("unknown job field {other:?}"),
                    ));
                }
            }
        }
        if !saw_benchmarks {
            return Err(SpecError::new(
                "benchmarks",
                "job is missing \"benchmarks\"",
            ));
        }
        if !saw_n {
            return Err(SpecError::new("n_xcts", "job is missing \"n_xcts\""));
        }
        spec.dedup_lists();
        spec.validate()?;
        Ok(spec)
    }

    /// The cache key of this job's profiling traces for `bench`.
    pub fn profile_key(&self, bench: Benchmark) -> TraceKey {
        TraceKey {
            bench,
            seed: PROFILE_SEED,
            n_xcts: self.n_xcts,
            chunk: self.chunk,
            small: self.small,
        }
    }

    /// The cache key of this job's evaluation traces for `bench`.
    pub fn eval_key(&self, bench: Benchmark) -> TraceKey {
        TraceKey {
            bench,
            seed: self.seed,
            n_xcts: self.n_xcts,
            chunk: self.chunk,
            small: self.small,
        }
    }

    /// The distinct profile and eval keys of this job: every profile key
    /// in benchmark order, then every eval key (a key shared by two
    /// benchmarks, or a profile key equal to an eval key, appears once).
    /// A trace pool populates each benchmark once and the eval key clones
    /// what the profile key populated, so this order lets concurrent
    /// fetches populate different benchmarks instead of waiting on one.
    pub fn trace_keys(&self) -> Vec<TraceKey> {
        let mut keys: Vec<TraceKey> = Vec::with_capacity(2 * self.benchmarks.len());
        let profiles = self.benchmarks.iter().map(|&b| self.profile_key(b));
        let evals = self.benchmarks.iter().map(|&b| self.eval_key(b));
        for key in profiles.chain(evals) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }
}

/// One grid point's outcome. `seconds` is wall clock as achieved in this
/// run — it is deliberately **not** part of the serialized result (see
/// [`JobResult::to_json`]).
#[derive(Debug, Clone)]
pub struct JobPoint {
    /// Benchmark of this point.
    pub benchmark: Benchmark,
    /// Scheduler of this point.
    pub scheduler: SchedulerKind,
    /// Batch-size override (`None` = paper default).
    pub batch_size: Option<usize>,
    /// Block-granular events replayed.
    pub events: u64,
    /// Wall-clock seconds of this point in this run (not serialized).
    pub seconds: f64,
    /// The replay outcome.
    pub result: ReplayResult,
}

/// A finished job: the spec it ran and its points, in
/// [`JobSpec::grid_shape`] order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The spec this result answers.
    pub spec: JobSpec,
    /// One entry per grid point, in grid order.
    pub points: Vec<JobPoint>,
}

/// FNV-1a over a byte string. A point's `result_fnv64` is this digest of
/// the `{:#?}` form of its replay result ([`pretty_debug_fnv64`]), so the
/// serialized point commits to *every* field of the replay result
/// (per-core counters, power, the full latency vector) without shipping
/// megabytes of JSON. The service keys its result store with it, and the
/// golden trace digests hash traces with it.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write_bytes(bytes);
    h.0
}

/// Streaming FNV-1a state.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the bytes `format!("{value:#?}")` would produce, computed
/// from the compact `{value:?}` form instead: std's pretty printer routes
/// every byte through an indenting adapter and costs several times the
/// compact form, and the result digest only needs the bytes, not the
/// text. The rewrite covers the shapes `#[derive(Debug)]` and std's
/// collections print: structs, tuples and tuple structs, lists, maps and
/// sets, empty or not, and quoted string and char literals.
pub fn pretty_debug_fnv64<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    use std::fmt::Write as _;
    let mut layout = PrettyLayout::default();
    let _ = write!(layout, "{value:?}");
    layout.finish()
}

/// Where [`PrettyLayout`] is within the compact text: the bytes that
/// decide a rewrite are held back until the byte after them arrives.
#[derive(Clone, Copy, Default)]
enum Held {
    /// Nothing held.
    #[default]
    None,
    /// Inside a `"` or `'` literal: copied verbatim to its closing quote,
    /// `escaped` after a backslash.
    Quoted { quote: u8, escaped: bool },
    /// `,`: a separator if `' '` follows, a one-tuple's trailing comma if
    /// `)` does.
    Comma,
    /// `' '`: may open (` { `) or close (` }`) a struct.
    Space,
    /// `" {"`: a struct opens if `' '` follows; otherwise the brace opens
    /// a map or set after `": "`.
    SpaceBrace,
    /// An opening `[`, `(` or `{`: left as is when its container is empty.
    Open(u8),
}

/// A [`std::fmt::Write`] sink that rewrites compact Debug text into the
/// pretty layout on the fly and hashes the result. The compact form
/// separates items with `", "`, wraps struct fields in `" { "`/`" }"` and
/// other containers in `[]`, `()` and `{}`; the pretty form puts every
/// item on its own line, indented four spaces per open container and
/// ended by `','`, and leaves empty containers as they are. Literals pass
/// through untouched, so a string holding `{`, `,` or `"` is not taken
/// for layout.
#[derive(Default)]
struct PrettyLayout {
    fnv: Fnv64,
    depth: usize,
    held: Held,
}

impl PrettyLayout {
    /// A line break and the current indentation.
    fn newline(&mut self) {
        self.fnv.write_bytes(b"\n");
        for _ in 0..self.depth {
            self.fnv.write_bytes(b"    ");
        }
    }

    /// Open a non-empty container whose first line is `head`.
    fn open(&mut self, head: &[u8]) {
        self.fnv.write_bytes(head);
        self.depth += 1;
        self.newline();
    }

    /// End the last item of a container and close it with `close`.
    fn close(&mut self, close: u8) {
        self.fnv.write_bytes(b",");
        self.depth = self.depth.saturating_sub(1);
        self.newline();
        self.fnv.write_bytes(&[close]);
    }

    fn push(&mut self, b: u8) {
        match std::mem::replace(&mut self.held, Held::None) {
            Held::Quoted { quote, escaped } => {
                self.fnv.write_bytes(&[b]);
                if escaped || b != quote {
                    self.held = Held::Quoted {
                        quote,
                        escaped: !escaped && b == b'\\',
                    };
                }
            }
            Held::Comma => match b {
                b' ' => {
                    self.fnv.write_bytes(b",");
                    self.newline();
                }
                b')' => self.close(b')'),
                _ => {
                    self.fnv.write_bytes(b",");
                    self.push(b);
                }
            },
            Held::Space => match b {
                b'{' => self.held = Held::SpaceBrace,
                b'}' => self.close(b'}'),
                _ => {
                    self.fnv.write_bytes(b" ");
                    self.push(b);
                }
            },
            Held::SpaceBrace => {
                if b == b' ' {
                    self.open(b" {");
                } else {
                    self.fnv.write_bytes(b" ");
                    self.held = Held::Open(b'{');
                    self.push(b);
                }
            }
            Held::Open(open) => {
                let empty = matches!((open, b), (b'[', b']') | (b'(', b')') | (b'{', b'}'));
                if empty {
                    self.fnv.write_bytes(&[open, b]);
                } else {
                    self.open(&[open]);
                    self.push(b);
                }
            }
            Held::None => match b {
                b'"' | b'\'' => {
                    self.fnv.write_bytes(&[b]);
                    self.held = Held::Quoted {
                        quote: b,
                        escaped: false,
                    };
                }
                b',' => self.held = Held::Comma,
                b' ' => self.held = Held::Space,
                b'[' | b'(' | b'{' => self.held = Held::Open(b),
                b']' | b')' | b'}' => self.close(b),
                _ => self.fnv.write_bytes(&[b]),
            },
        }
    }

    /// The digest, once every byte is in (a held byte is written as is).
    fn finish(mut self) -> u64 {
        match self.held {
            Held::Comma => self.fnv.write_bytes(b","),
            Held::Space => self.fnv.write_bytes(b" "),
            Held::SpaceBrace => self.fnv.write_bytes(b" {"),
            Held::Open(open) => self.fnv.write_bytes(&[open]),
            Held::None | Held::Quoted { .. } => {}
        }
        self.fnv.0
    }
}

impl std::fmt::Write for PrettyLayout {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut rest = s.as_bytes();
        while !rest.is_empty() {
            // Bytes that need no decision are hashed as one run: all but
            // layout bytes outside a literal, all but its quote and
            // backslash inside one.
            let plain = match self.held {
                Held::None => rest.iter().position(|b| b" \"',[](){}".contains(b)),
                Held::Quoted {
                    quote,
                    escaped: false,
                } => rest.iter().position(|&b| b == quote || b == b'\\'),
                _ => Some(0),
            }
            .unwrap_or(rest.len());
            self.fnv.write_bytes(&rest[..plain]);
            if let Some((&b, tail)) = rest[plain..].split_first() {
                self.push(b);
                rest = tail;
            } else {
                break;
            }
        }
        Ok(())
    }
}

impl JobResult {
    /// Deterministic JSON form: a pure function of the executed spec.
    /// Floats print with Rust's shortest-roundtrip formatting (two
    /// results serialize identically iff they are bit-identical), and
    /// wall-clock timings are excluded — so server-side and batch-side
    /// executions of the same job serialize **byte-identical**, which is
    /// the service's end-to-end determinism gate.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"spec\": {},\n  \"points\": [\n",
            self.spec.to_json()
        );
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"workload\": \"{}\", \"scheduler\": \"{}\", \"batch_size\": {}, \"n_xcts\": {}, \"events\": {}, \"instructions\": {}, \"total_cycles\": {}, \"avg_latency_cycles\": {}, \"l1i_mpki\": {}, \"l1d_mpki\": {}, \"llc_mpki\": {}, \"switches_per_ki\": {}, \"overhead_fraction\": {}, \"htm_aborts\": {}, \"htm_abort_rate\": {}, \"htm_fallbacks\": {}, \"result_fnv64\": \"{:016x}\" }}{}",
                escape(p.benchmark.name()),
                escape(p.scheduler.name()),
                p.batch_size
                    .map_or_else(|| "null".to_owned(), |b| b.to_string()),
                p.result.n_xcts,
                p.events,
                p.result.instructions,
                p.result.total_cycles,
                p.result.avg_latency_cycles,
                p.result.stats.l1i_mpki(),
                p.result.stats.l1d_mpki(),
                p.result.stats.llc_mpki(),
                p.result.stats.switches_per_ki(),
                p.result.overhead_fraction(),
                p.result.spec.aborts(),
                p.result.spec.abort_rate(),
                p.result.spec.fallbacks,
                pretty_debug_fnv64(&p.result),
                if i + 1 < self.points.len() { ",\n" } else { "\n" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One row of a rendered result table (what `addict-cli` prints).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Workload display name.
    pub workload: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// Batch-size override, if any.
    pub batch_size: Option<usize>,
    /// Events replayed.
    pub events: u64,
    /// Simulated makespan.
    pub total_cycles: f64,
    /// L1-I misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// Context switches per kilo-instruction.
    pub switches_per_ki: f64,
}

/// Parse the summary rows back out of a serialized [`JobResult`] — the
/// client side of the protocol (render a table without re-running
/// anything).
pub fn summary_rows(result_json: &str) -> Result<Vec<SummaryRow>, SpecError> {
    let doc = JsonValue::parse(result_json).map_err(|e| SpecError::new("result", e))?;
    let points = doc
        .get("points")
        .ok_or_else(|| SpecError::new("result", "result is missing \"points\""))?
        .as_arr("points")
        .map_err(|e| SpecError::new("result", e))?;
    points
        .iter()
        .map(|p| {
            let field = |name: &str| {
                p.get(name)
                    .ok_or_else(|| SpecError::new("result", format!("point missing {name:?}")))
            };
            Ok(SummaryRow {
                workload: field("workload")?
                    .as_str("workload")
                    .map_err(|e| SpecError::new("result", e))?
                    .to_owned(),
                scheduler: field("scheduler")?
                    .as_str("scheduler")
                    .map_err(|e| SpecError::new("result", e))?
                    .to_owned(),
                batch_size: match field("batch_size")? {
                    JsonValue::Null => None,
                    v => Some(
                        v.as_u64("batch_size")
                            .map_err(|e| SpecError::new("result", e))?
                            as usize,
                    ),
                },
                events: field("events")?
                    .as_u64("events")
                    .map_err(|e| SpecError::new("result", e))?,
                total_cycles: field("total_cycles")?
                    .as_f64("total_cycles")
                    .map_err(|e| SpecError::new("result", e))?,
                l1i_mpki: field("l1i_mpki")?
                    .as_f64("l1i_mpki")
                    .map_err(|e| SpecError::new("result", e))?,
                switches_per_ki: field("switches_per_ki")?
                    .as_f64("switches_per_ki")
                    .map_err(|e| SpecError::new("result", e))?,
            })
        })
        .collect()
}

/// Block-granular events in an interned workload without flattening it
/// (a million-transaction set never materializes flat). Each distinct
/// pool slice is expanded once and memoized.
pub fn total_events_interned(iw: &InternedWorkload) -> u64 {
    let mut per_slice: std::collections::HashMap<(u32, u32), u64> =
        std::collections::HashMap::new();
    iw.xcts
        .iter()
        .flat_map(|t| t.slice_refs().iter())
        .map(|&r| {
            *per_slice.entry((r.pool_idx, r.len)).or_insert_with(|| {
                iw.pool
                    .resolve(r)
                    .iter()
                    .map(|e| match e {
                        TraceEvent::Instr { n_blocks, .. } => u64::from(*n_blocks),
                        _ => 1,
                    })
                    .sum()
            })
        })
        .sum()
}

/// Execute `spec` against `pool`, reporting progress lines through
/// `progress` (called from worker threads; the callback must tolerate
/// concurrent invocation — the server serializes writes with a lock).
///
/// The executor is the shared code path of the figure binaries and the
/// server: traces come from the trace-pool cache (hit or generate), the
/// ADDICT migration map from the same cache (Algorithm 1 memoized per
/// profile entry), and both the key fetches and the grid fan out on
/// `spec.threads` workers.
/// The returned result's serialized form depends only on the spec —
/// never on cache state, thread count, or timing.
pub fn run_job(
    spec: &JobSpec,
    pool: &TracePool,
    progress: &(dyn Fn(&str) + Sync),
) -> Result<JobResult, SpecError> {
    match run_job_with(spec, pool, progress, &CancelToken::new()) {
        Ok(r) => Ok(r),
        Err(JobError::Spec(e)) => Err(e),
        // A fresh private token never fires.
        Err(JobError::Interrupted(i)) => unreachable!("un-armed token fired: {i:?}"),
    }
}

/// One benchmark's replay inputs, as [`fetch_traces`] returns them.
#[derive(Debug)]
pub struct BenchTraces {
    /// The benchmark these traces belong to.
    pub bench: Benchmark,
    /// Interned evaluation traces, shared with the trace pool.
    pub eval: Arc<InternedWorkload>,
    /// Algorithm 1's migration map over the profiling traces, memoized
    /// in (and shared with) the trace pool's profile entry.
    pub map: Arc<MigrationMap>,
    /// Block-granular events in `eval`.
    pub events: u64,
}

/// Fetch every benchmark's profile and eval traces of `spec` from `pool`,
/// and each profile set's migration map: the one prologue of a job, a
/// figure grid and `bench`. Results are in `spec.benchmarks` order.
///
/// Generation and Algorithm 1 are the expensive phases, so every
/// distinct key ([`JobSpec::trace_keys`]) fetches concurrently on
/// `spec.threads` workers — a profile key together with its map
/// ([`TracePool::get_profile`], memoized per entry: a warm job runs no
/// Algorithm 1, a cold one profiles its benchmarks in parallel) — and
/// the token is polled before each claim: a cancelled job never starts
/// another engine population (an in-flight generation finishes — it may
/// be shared with concurrent jobs via the pool's pending slot). One
/// `traces <id>: …` line per benchmark goes to `progress`. The profile
/// sets' pins drop on return; only the eval sets stay in use.
pub fn fetch_traces(
    spec: &JobSpec,
    pool: &TracePool,
    progress: &(dyn Fn(&str) + Sync),
    token: &CancelToken,
) -> Result<Vec<BenchTraces>, JobError> {
    let keys = spec.trace_keys();
    let fetched = run_grid_abortable(&keys, spec.threads, &|| token.check().is_err(), |_, k| {
        if k.seed == PROFILE_SEED {
            let (w, map, hit) = pool.get_profile(k);
            (w, hit, Some(map))
        } else {
            let (w, hit) = pool.get(k, 1);
            (w, hit, None)
        }
    });
    if fetched.iter().any(Option::is_none) {
        let interrupt = token.check().expect_err("aborted fetch with a quiet token");
        return Err(JobError::Interrupted(interrupt));
    }
    let fetched: Vec<_> = fetched.into_iter().flatten().collect();
    let lookup = |key: TraceKey| &fetched[keys.iter().position(|k| *k == key).expect("fetched")];

    let status = |hit: bool| if hit { "cache hit" } else { "generated" };
    Ok(spec
        .benchmarks
        .iter()
        .map(|&bench| {
            let (_, profile_hit, map) = lookup(spec.profile_key(bench));
            let (eval, eval_hit, _) = lookup(spec.eval_key(bench));
            progress(&format!(
                "traces {}: profile {} | eval {}",
                bench.id(),
                status(*profile_hit),
                status(*eval_hit),
            ));
            BenchTraces {
                bench,
                eval: Arc::clone(eval),
                map: Arc::clone(map.as_ref().expect("profile keys fetch a map")),
                events: total_events_interned(eval),
            }
        })
        .collect())
}

/// [`run_job`] under a cooperative [`CancelToken`]: the token is polled
/// between trace fetches and between sweep points, so a cancellation or
/// an expired deadline stops the job at the next point boundary — the
/// server's `DELETE /jobs/<id>` and `deadline_ms` paths. On interrupt
/// the partially-executed grid is discarded (results are all-or-nothing:
/// a partial grid would serialize differently from the same spec run to
/// completion, breaking byte-identity) and the trace-pool `Arc` pins
/// drop with this frame.
pub fn run_job_with(
    spec: &JobSpec,
    pool: &TracePool,
    progress: &(dyn Fn(&str) + Sync),
    token: &CancelToken,
) -> Result<JobResult, JobError> {
    spec.validate()?;
    let sets = fetch_traces(spec, pool, progress, token)?;
    let cfg = ReplayConfig::paper_default();
    let shape = spec.grid_shape();
    let total = shape.len();
    let done = AtomicUsize::new(0);
    let timed: Vec<Option<(f64, ReplayResult)>> = run_grid_abortable(
        &shape,
        spec.threads,
        &|| token.check().is_err(),
        |_, &(bi, scheduler, batch)| {
            let set = &sets[bi];
            let replay_cfg = match batch {
                Some(b) => cfg.clone().with_batch_size(b),
                None => cfg.clone(),
            };
            let t = Instant::now();
            let r = run_scheduler(scheduler, &set.eval.as_set(), Some(&set.map), &replay_cfg);
            let seconds = t.elapsed().as_secs_f64();
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            progress(&format!(
                "point {finished}/{total} {} / {} in {seconds:.3}s",
                set.bench.name(),
                scheduler.name()
            ));
            (seconds, r)
        },
    );
    if timed.iter().any(Option::is_none) {
        // At least one point was skipped by the abort probe: report why.
        let interrupt = token.check().expect_err("aborted grid with a quiet token");
        return Err(JobError::Interrupted(interrupt));
    }

    let points = shape
        .into_iter()
        .zip(timed)
        .map(|((bi, scheduler, batch), timed)| {
            let (seconds, result) = timed.expect("checked above");
            JobPoint {
                benchmark: spec.benchmarks[bi],
                scheduler,
                batch_size: batch,
                events: sets[bi].events,
                seconds,
                result,
            }
        })
        .collect();
    Ok(JobResult {
        spec: spec.clone(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: FNV-1a over the text std's pretty printer produces.
    fn oracle<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
        fnv64(format!("{value:#?}").as_bytes())
    }

    /// Debug shapes for the layout rewrite; their fields are only
    /// ever printed.
    #[allow(dead_code)]
    mod shapes {
        #[derive(Debug)]
        pub struct Unit;

        #[derive(Debug)]
        pub struct Pair(pub u32, pub f64);

        #[derive(Debug)]
        pub struct Empty {}

        #[derive(Debug)]
        pub enum Shape {
            Plain,
            Tuple(i64, String),
            Fields { label: &'static str, at: (u8,) },
        }

        #[derive(Debug)]
        pub struct Inner {
            pub name: String,
            pub note: char,
            pub values: Vec<f64>,
            pub none: Vec<u8>,
            pub maybe: Option<Pair>,
            pub nothing: Option<u8>,
        }

        #[derive(Debug)]
        pub struct Outer {
            pub id: u64,
            pub inner: Inner,
            pub nested: Vec<Vec<Inner>>,
            pub shapes: Vec<Shape>,
            pub map: std::collections::BTreeMap<String, Vec<u16>>,
            pub empty_map: std::collections::BTreeMap<u8, u8>,
            pub set: std::collections::BTreeSet<i8>,
            pub unit: Unit,
            pub empty: Empty,
            pub unit_tuple: (),
            pub pair: (Pair, Option<Option<()>>),
        }

        pub fn inner(name: &str, values: &[f64]) -> Inner {
            Inner {
                name: name.to_owned(),
                note: '"',
                values: values.to_vec(),
                none: Vec::new(),
                maybe: Some(Pair(7, -0.5)),
                nothing: None,
            }
        }
    }

    #[test]
    fn pretty_digest_matches_the_pretty_printer_on_synthetic_shapes() {
        use shapes::*;
        let tricky = r#"a { b, c } [d] (e) "f" \ g: h, {}, [], () 'i'"#;
        let outer = Outer {
            id: 42,
            inner: inner(tricky, &[1.0, f64::NAN, -f64::INFINITY, 1e-7, 2.5e300]),
            nested: vec![vec![], vec![inner("", &[]), inner(" }", &[0.0])]],
            shapes: vec![
                Shape::Plain,
                Shape::Tuple(-3, ", ".to_owned()),
                Shape::Fields {
                    label: "{ x }",
                    at: (9,),
                },
            ],
            map: [
                ("k, v".to_owned(), vec![1, 2]),
                ("\"quoted\" \\".to_owned(), vec![]),
                ("\n\t".to_owned(), vec![3]),
            ]
            .into_iter()
            .collect(),
            empty_map: Default::default(),
            set: [-1, 0, 1].into_iter().collect(),
            unit: Unit,
            empty: Empty {},
            unit_tuple: (),
            pair: (Pair(0, 0.0), Some(Some(()))),
        };
        assert_eq!(pretty_debug_fnv64(&outer), oracle(&outer));

        // Each shape alone, at the top level.
        assert_eq!(pretty_debug_fnv64(&Unit), oracle(&Unit));
        assert_eq!(pretty_debug_fnv64(&Empty {}), oracle(&Empty {}));
        assert_eq!(pretty_debug_fnv64(&Pair(1, 2.0)), oracle(&Pair(1, 2.0)));
        assert_eq!(pretty_debug_fnv64(&(5u8,)), oracle(&(5u8,)));
        assert_eq!(pretty_debug_fnv64(&()), oracle(&()));
        assert_eq!(pretty_debug_fnv64(tricky), oracle(tricky));
        assert_eq!(pretty_debug_fnv64(&'\\'), oracle(&'\\'));
        assert_eq!(pretty_debug_fnv64(&'\''), oracle(&'\''));
        let empty: Vec<Inner> = Vec::new();
        assert_eq!(pretty_debug_fnv64(&empty), oracle(&empty));
        let options = [None, Some(vec![Some(1u8), None])];
        assert_eq!(pretty_debug_fnv64(&options), oracle(&options));
        // A different value digests differently.
        assert_ne!(pretty_debug_fnv64(&Pair(1, 2.0)), oracle(&Pair(1, 3.0)));
    }

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(vec![Benchmark::TpcB, Benchmark::Tatp], 60);
        s.schedulers = vec![SchedulerKind::Baseline, SchedulerKind::Addict];
        s.threads = 2;
        s.batch_sizes = vec![2, 16];
        s.chunk = 7;
        s.small = true;
        s.seed = 5;
        s
    }

    #[test]
    fn spec_json_round_trips() {
        let s = spec();
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
        // Defaults round-trip too.
        let d = JobSpec::new(vec![Benchmark::TpcC], 400);
        assert_eq!(JobSpec::from_json(&d.to_json()).unwrap(), d);
        // Whitespace and field order are free; omitted fields default.
        let loose = JobSpec::from_json(
            " {\n  \"n_xcts\": 60 ,\n  \"benchmarks\": [\"TPC-B\", \"tatp\"]\n } ",
        )
        .unwrap();
        assert_eq!(loose.benchmarks, vec![Benchmark::TpcB, Benchmark::Tatp]);
        assert_eq!(loose.n_xcts, 60);
        assert_eq!(loose.schedulers, SchedulerKind::ALL.to_vec());
        assert_eq!(loose.threads, 1);
        assert_eq!(loose.seed, EVAL_SEED);
    }

    /// Duplicate list entries collapse at the structured entry points:
    /// the deduped spec's grid — and so the admission controller's
    /// reserved-bytes estimate — matches the spec with each entry listed
    /// once, in first-occurrence order.
    #[test]
    fn spec_json_dedupes_repeated_list_entries() {
        let dup = JobSpec::from_json(
            "{\"benchmarks\":[\"tatp\",\"tpcb\",\"tatp\",\"tpcb\",\"tatp\"],\
             \"schedulers\":[\"addict\",\"baseline\",\"addict\"],\
             \"batch_sizes\":[4,8,4],\"n_xcts\":60}",
        )
        .unwrap();
        assert_eq!(dup.benchmarks, vec![Benchmark::Tatp, Benchmark::TpcB]);
        assert_eq!(
            dup.schedulers,
            vec![SchedulerKind::Addict, SchedulerKind::Baseline]
        );
        assert_eq!(dup.batch_sizes, vec![4, 8]);
        let once = JobSpec::from_json(
            "{\"benchmarks\":[\"tatp\",\"tpcb\"],\
             \"schedulers\":[\"addict\",\"baseline\"],\
             \"batch_sizes\":[4,8],\"n_xcts\":60}",
        )
        .unwrap();
        assert_eq!(dup, once);
        assert_eq!(dup.grid_shape(), once.grid_shape());
        // The CLI surface normalizes identically.
        let argv: Vec<String> = ["job", "--xcts", "60", "--benchmarks", "tatp,tatp,tpcb,tatp"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let s = JobSpec::from_args(&argv, 60).unwrap();
        assert_eq!(s.benchmarks, vec![Benchmark::Tatp, Benchmark::TpcB]);
    }

    #[test]
    fn spec_json_rejects_malformed_jobs() {
        // The structured-rejection satellite: zero/absent counts, empty
        // benchmark lists, unknown names and fields are all explicit
        // errors tagged with the offending field.
        for (doc, field) in [
            ("{\"benchmarks\":[\"tpcb\"],\"n_xcts\":0}", "n_xcts"),
            ("{\"benchmarks\":[\"tpcb\"]}", "n_xcts"),
            ("{\"n_xcts\":60}", "benchmarks"),
            ("{\"benchmarks\":[],\"n_xcts\":60}", "benchmarks"),
            ("{\"benchmarks\":[\"tpcz\"],\"n_xcts\":60}", "benchmarks"),
            (
                "{\"benchmarks\":[\"tpcb\"],\"n_xcts\":60,\"threads\":0}",
                "threads",
            ),
            (
                "{\"benchmarks\":[\"tpcb\"],\"n_xcts\":60,\"schedulers\":[]}",
                "schedulers",
            ),
            (
                "{\"benchmarks\":[\"tpcb\"],\"n_xcts\":60,\"batch_sizes\":[0]}",
                "batch_sizes",
            ),
            (
                "{\"benchmarks\":[\"tpcb\"],\"n_xcts\":60,\"xcts\":9}",
                "spec",
            ),
            ("[1,2]", "spec"),
            ("not json", "spec"),
        ] {
            let err = JobSpec::from_json(doc).unwrap_err();
            assert_eq!(err.field, field, "{doc} gave {err:?}");
        }
    }

    #[test]
    fn from_args_matches_flag_surface() {
        let argv = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let s = JobSpec::from_args(
            &argv(&[
                "job",
                "--xcts",
                "200",
                "--threads",
                "3",
                "--benchmarks",
                "tatp",
            ]),
            600,
        )
        .unwrap();
        assert_eq!(s.n_xcts, 200);
        assert_eq!(s.threads, 3);
        assert_eq!(s.benchmarks, vec![Benchmark::Tatp]);
        assert_eq!(s.schedulers, SchedulerKind::ALL.to_vec());
        // The same strictness as the bench binaries, same error type.
        let err = JobSpec::from_args(&argv(&["job", "--xcts", "0"]), 600).unwrap_err();
        assert_eq!(err.field, "xcts");
        let err = JobSpec::from_args(&argv(&["job", "--threads", "zap"]), 600).unwrap_err();
        assert_eq!(err.field, "threads");
    }

    #[test]
    fn grid_shape_enumerates_benchmark_major() {
        let s = spec();
        let shape = s.grid_shape();
        assert_eq!(shape.len(), 2 * 2 * 2);
        assert_eq!(shape[0], (0, SchedulerKind::Baseline, Some(2)));
        assert_eq!(shape[1], (0, SchedulerKind::Baseline, Some(16)));
        assert_eq!(shape[4], (1, SchedulerKind::Baseline, Some(2)));
        let mut d = JobSpec::new(vec![Benchmark::TpcB], 10);
        d.schedulers = vec![SchedulerKind::Slicc];
        assert_eq!(d.grid_shape(), vec![(0, SchedulerKind::Slicc, None)]);
    }

    #[test]
    fn cancel_token_is_sticky_and_orders_cancel_over_deadline() {
        let t = CancelToken::new();
        assert_eq!(t.check(), Ok(()));
        t.arm_deadline_ms(0); // explicit zero = no deadline
        assert_eq!(t.check(), Ok(()));
        t.arm_deadline_ms(60_000);
        assert_eq!(t.check(), Ok(()));
        t.cancel();
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
        // Sticky: still cancelled on re-poll, and cancellation wins even
        // once the deadline also expires.
        assert_eq!(t.check(), Err(Interrupt::Cancelled));

        let d = CancelToken::new();
        d.arm_deadline_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(d.check(), Err(Interrupt::DeadlineExceeded));
        assert_eq!(d.check(), Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn cancelled_job_stops_before_generating() {
        use crate::cache::TracePool;
        let mut s = JobSpec::new(vec![Benchmark::TpcB], 8);
        s.small = true;
        let pool = TracePool::unbounded();
        let token = CancelToken::new();
        token.cancel();
        let lines = Mutex::new(Vec::<String>::new());
        let progress = |l: &str| lines.lock().unwrap().push(l.to_owned());
        let err = run_job_with(&s, &pool, &progress, &token).unwrap_err();
        assert_eq!(err, JobError::Interrupted(Interrupt::Cancelled));
        // Nothing generated, nothing replayed, nothing pinned.
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.generations), (0, 0));
        assert_eq!(stats.pinned_entries, 0);
        assert!(lines.lock().unwrap().is_empty());

        // An expired deadline reports as DeadlineExceeded, not Cancelled.
        let t2 = CancelToken::new();
        t2.arm_deadline_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = run_job_with(&s, &pool, &progress, &t2).unwrap_err();
        assert_eq!(err, JobError::Interrupted(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn deadline_ms_round_trips_and_stays_out_of_points() {
        use crate::cache::TracePool;
        let mut s = JobSpec::new(vec![Benchmark::TpcB], 12);
        s.small = true;
        s.deadline_ms = 30_000;
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
        // A generous deadline changes nothing about the replayed points
        // (it is an execution knob, not a result input).
        let pool = TracePool::unbounded();
        let quiet = |_: &str| {};
        let with = run_job(&s, &pool, &quiet).unwrap();
        let mut bare = s.clone();
        bare.deadline_ms = 0;
        let without = run_job(&bare, &pool, &quiet).unwrap();
        let points = |j: &JobResult| {
            let json = j.to_json();
            let at = json.find("\"points\"").expect("points section");
            json[at..].to_owned()
        };
        assert_eq!(points(&with), points(&without));
        // Malformed deadlines are structured errors.
        let err =
            JobSpec::from_json("{\"benchmarks\":[\"tpcb\"],\"n_xcts\":8,\"deadline_ms\":\"soon\"}")
                .unwrap_err();
        assert_eq!(err.field, "deadline_ms");
    }

    #[test]
    fn job_runs_and_serializes_deterministically() {
        use crate::cache::TracePool;
        let mut s = JobSpec::new(vec![Benchmark::TpcB, Benchmark::Tatp], 12);
        s.small = true;
        s.threads = 2;
        let pool = TracePool::unbounded();
        let lines = Mutex::new(Vec::<String>::new());
        let progress = |l: &str| lines.lock().unwrap().push(l.to_owned());
        let quiet = |_: &str| {};
        // Cold at two threads: all four keys fetch concurrently, yet the
        // trace lines report in benchmark order.
        let a = run_job(&s, &pool, &progress).unwrap();
        let traces: Vec<String> = lines
            .into_inner()
            .unwrap()
            .into_iter()
            .filter(|l| l.starts_with("traces "))
            .collect();
        assert_eq!(
            traces,
            [
                "traces tpcb: profile generated | eval generated",
                "traces tatp: profile generated | eval generated",
            ]
        );
        assert_eq!(pool.stats().generations, 4);
        // A repeat on a warm pool and a cold pool serialize identically:
        // the result is a pure function of the spec.
        let b = run_job(&s, &pool, &quiet).unwrap();
        let cold = TracePool::unbounded();
        let mut s1 = s.clone();
        s1.threads = 1;
        let c = run_job(&s1, &cold, &quiet).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // Across thread counts, the replayed points are byte-identical
        // (threads is a latency knob); only the echoed spec differs.
        let points = |j: &JobResult| {
            let json = j.to_json();
            let at = json.find("\"points\"").expect("points section");
            json[at..].to_owned()
        };
        assert_eq!(points(&a), points(&c), "thread count leaked into points");
        assert_eq!(a.points.len(), 2 * SchedulerKind::ALL.len());
        // And the summary parses back out.
        let rows = summary_rows(&a.to_json()).unwrap();
        assert_eq!(rows.len(), 2 * SchedulerKind::ALL.len());
        assert_eq!(rows[0].workload, "TPC-B");
        assert_eq!(rows[0].scheduler, "Baseline");
        assert_eq!(rows[SchedulerKind::ALL.len()].workload, "TATP");
        assert!(rows.iter().all(|r| r.total_cycles > 0.0));
    }
}
