//! The resident evaluation server.
//!
//! Endpoints over the hand-rolled HTTP layer ([`crate::http`]):
//!
//! * `POST /jobs` — body is a [`JobSpec`] JSON document. Invalid specs
//!   answer `400` (structured `code`/`field`/`message`); admission
//!   overload answers `429`/`503` with `Retry-After` *before* any trace
//!   generation starts — the hint derives from the registry's EWMA of
//!   observed job latency ([`Registry::retry_after`]), falling back to
//!   fixed constants until a first job completes. An admitted job detaches by default: `202` with
//!   the job id and a `Location` header. With `?wait=1` the connection
//!   stays open and streams `text/plain`: `#`-prefixed progress lines as
//!   the grid executes, then a blank line, then the
//!   [`JobResult`](addict_bench::JobResult) JSON — byte-identical to the
//!   batch path and to the stored result `GET /jobs/<id>/result` serves.
//! * `GET /jobs` — id → state listing. `GET /jobs/<id>` — status/progress
//!   snapshot. `GET /jobs/<id>/result` — the stored result bytes.
//!   `DELETE /jobs/<id>` — cooperative cancel (idempotent).
//! * `POST /shutdown` — drain: refuse new admissions, finish admitted
//!   jobs, then `serve` returns (persisting results when
//!   [`ServerConfig::dump_dir`] is set).
//! * `GET /stats` — job/lifecycle/result/cache counters. `GET /healthz`
//!   — liveness probe (answers even while draining).
//!
//! Two fixed pools share the work: **connection workers** parse and
//! route requests (sockets carry read/write deadlines, so a stalled
//! client costs one worker at most [`ServerConfig::io_timeout_ms`]), and
//! **job executors** drain the admission queue through
//! [`run_job_with`] under `catch_unwind` — a panicking job answers a
//! structured `500` and the executor survives. The [`TracePool`] is
//! shared across all executors: that sharing *is* the point of residency
//! — the second job over a trace range replays immediately instead of
//! re-populating a storage engine.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use addict_bench::jsontext::escape;
use addict_bench::{run_job_with, JobError, JobSpec, SpecError, TraceKey, TracePool};

use crate::faults::FaultPlan;
use crate::http::{
    read_request, respond, respond_with_headers, ReadError, Request, StreamingResponse,
};
use crate::jobs::{AdmitError, JobId, JobState, Outcome, Registry, RegistryConfig, ResultFetch};

/// Per-grid-point admission surcharge: beyond its trace ranges, each
/// point a spec fans out to (benchmarks × schedulers × batch sizes)
/// costs working and result bytes — so a wide `batch_sizes` grid over
/// warm traces still reserves more than a narrow one.
const POINT_RESULT_BYTES: usize = 512;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection workers (request parsing, routing, streaming).
    pub workers: usize,
    /// Job executors (each job may additionally fan out over its spec's
    /// `threads` replay workers).
    pub job_workers: usize,
    /// Trace-pool cache budget in bytes ([`TracePool::new`]) — also the
    /// admission ledger's reservation budget.
    pub cache_budget: usize,
    /// Maximum queued (admitted, not yet running) jobs; beyond it,
    /// `429`.
    pub queue_cap: usize,
    /// Result-store byte budget (completed result JSON kept for
    /// polling).
    pub result_budget: usize,
    /// Maximum retained job records (oldest terminal records evict).
    pub max_records: usize,
    /// Socket read/write deadline in milliseconds (0 = none). A request
    /// that does not arrive within it answers `408`.
    pub io_timeout_ms: u64,
    /// When set, a graceful shutdown writes every completed result to
    /// `<dump_dir>/job_<id>.json` before `serve` returns — and
    /// [`Server::bind`] recovers results found there into the registry,
    /// so they stay pollable at their original ids across a restart.
    pub dump_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            job_workers: 2,
            cache_budget: 256 << 20,
            queue_cap: 32,
            result_budget: 64 << 20,
            max_records: 512,
            io_timeout_ms: 10_000,
            dump_dir: None,
        }
    }
}

struct State {
    pool: TracePool,
    registry: Registry,
    faults: FaultPlan,
}

/// A bound, not-yet-serving evaluation server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    state: Arc<State>,
    recovered: usize,
}

/// A handle onto a server's shared state, usable while (and after)
/// `serve` runs — the chaos tests' fault-injection surface.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// The fault plan (stalls, worker panics).
    pub fn faults(&self) -> &FaultPlan {
        &self.state.faults
    }

    /// Arm the trace pool's next `n` generations to fail
    /// ([`TracePool::fail_next_generations`]).
    pub fn fail_next_generations(&self, n: u32) {
        self.state.pool.fail_next_generations(n);
    }
}

/// The structured error body every non-200 answer carries.
fn error_json(code: &str, field: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{}\",\"field\":\"{}\",\"message\":\"{}\"}}}}",
        escape(code),
        escape(field),
        escape(message)
    )
}

impl Server {
    /// Bind to `addr` (port 0 picks an ephemeral port — the tests'
    /// mode). When [`ServerConfig::dump_dir`] is set, results a
    /// previous process dumped there are recovered into the registry
    /// before the first request can arrive.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        let registry = Registry::new(RegistryConfig {
            admission_budget: config.cache_budget,
            max_queued: config.queue_cap.max(1),
            result_budget: config.result_budget,
            max_records: config.max_records.max(1),
        });
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(State {
            pool: TracePool::new(config.cache_budget),
            registry,
            faults: FaultPlan::new(),
        });
        let recovered = match &config.dump_dir {
            Some(dir) => recover_dumped(&state, dir),
            None => 0,
        };
        Ok(Server {
            listener,
            state,
            config,
            recovered,
        })
    }

    /// Completed results recovered from [`ServerConfig::dump_dir`] at
    /// bind time, pollable at their original ids.
    pub fn recovered_results(&self) -> usize {
        self.recovered
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shared-state handle (grab it before [`Server::serve`] consumes
    /// the server).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until drained: accept connections into the connection-worker
    /// pool while the executor pool drains the job queue. Returns after
    /// a graceful shutdown (`POST /shutdown`) finishes every admitted
    /// job — run it on a dedicated thread.
    pub fn serve(self) -> std::io::Result<()> {
        let Server {
            listener,
            config,
            state,
            recovered: _,
        } = self;
        let addr = listener.local_addr()?;
        std::thread::scope(|s| {
            for _ in 0..config.job_workers.max(1) {
                let state = Arc::clone(&state);
                s.spawn(move || executor_loop(&state, addr));
            }
            // A small admission queue for raw connections: a burst
            // beyond workers + backlog blocks the accept loop (and
            // ultimately the clients' connects) instead of spawning
            // unbounded threads.
            let workers = config.workers.max(1);
            let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                let config = &config;
                s.spawn(move || {
                    loop {
                        let stream = match rx.lock().expect("connection queue lock").recv() {
                            Ok(stream) => stream,
                            Err(_) => break, // accept loop gone
                        };
                        handle_connection(stream, &state, config, addr);
                    }
                });
            }
            for stream in listener.incoming() {
                // The drain's last finisher pokes the loop awake with a
                // dummy connection; re-check before dispatching.
                if state.registry.drained() {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        eprintln!("accept error: {e}");
                    }
                }
            }
            drop(tx);
        });
        if let Some(dir) = &config.dump_dir {
            dump_results(&state, dir);
        }
        Ok(())
    }
}

/// Wake the accept loop (it blocks in `accept`) so it can observe a
/// completed drain and exit.
fn poke_accept_loop(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Boot-time recovery: re-load every `<dir>/job_<id>.json` a previous
/// process dumped into the registry, in id order, so completed results
/// survive a restart and stay pollable at their original ids. Each dump
/// embeds its spec verbatim on the `"spec": {...},` line
/// ([`JobResult::to_json`](addict_bench::JobResult::to_json) writes
/// [`JobSpec::to_json`] there), which rebuilds the full job record.
/// Files that don't parse are skipped with a warning, never a failed
/// boot.
fn recover_dumped(state: &State, dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0; // absent or unreadable dir: nothing dumped yet
    };
    let mut files: Vec<(JobId, PathBuf)> = entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let id = name
                .strip_prefix("job_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((id, path))
        })
        .collect();
    files.sort();
    let mut recovered = 0;
    for (id, path) in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("boot recovery: unreadable {}; skipping", path.display());
            continue;
        };
        let spec = text
            .lines()
            .find_map(|line| line.trim_start().strip_prefix("\"spec\": "))
            .and_then(|rest| JobSpec::from_json(rest.trim_end().trim_end_matches(',')).ok());
        let Some(spec) = spec else {
            eprintln!(
                "boot recovery: no parsable spec in {}; skipping",
                path.display()
            );
            continue;
        };
        if state.registry.recover(id, spec, text) {
            recovered += 1;
        }
    }
    recovered
}

/// Persist every completed result to `<dir>/job_<id>.json`.
fn dump_results(state: &State, dir: &std::path::Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("shutdown dump: creating {}: {e}", dir.display());
        return;
    }
    for (id, bytes) in state.registry.done_results() {
        let path = dir.join(format!("job_{id}.json"));
        if let Err(e) = std::fs::write(&path, bytes.as_bytes()) {
            eprintln!("shutdown dump: writing {}: {e}", path.display());
        }
    }
}

/// Human-readable panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One executor: claim queued jobs, run them contained, finalize. Exits
/// when the registry drains.
fn executor_loop(state: &State, addr: SocketAddr) {
    while let Some((id, spec, token)) = state.registry.next_job() {
        let outcome = match token.check() {
            // Cancelled or deadline-expired while queued: finalize
            // without touching the pool.
            Err(interrupt) => Outcome::Interrupted(interrupt),
            Ok(()) => {
                let progress = |line: &str| {
                    state.faults.on_progress();
                    state.registry.progress(id, line);
                };
                // catch_unwind contains both injected and genuine
                // panics: the job fails structurally, the executor
                // survives at full pool strength, and the trace pool's
                // pending-slot guard has already cleared any in-flight
                // generation slot.
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if state.faults.take_job_panic() {
                        panic!("injected worker panic");
                    }
                    run_job_with(&spec, &state.pool, &progress, &token)
                }));
                match run {
                    Ok(Ok(result)) => Outcome::Done(result.to_json()),
                    Ok(Err(JobError::Interrupted(interrupt))) => Outcome::Interrupted(interrupt),
                    Ok(Err(JobError::Spec(e))) => {
                        // Unreachable in practice: admission validated
                        // the spec. Still a structured failure.
                        Outcome::Failed(format!("invalid spec ({}): {}", e.field, e.message))
                    }
                    Err(payload) => {
                        Outcome::Failed(format!("worker panic: {}", panic_text(payload.as_ref())))
                    }
                }
            }
        };
        if state.registry.finish(id, outcome) {
            poke_accept_loop(addr);
        }
    }
}

/// Serve one connection: parse, route, answer. All errors are answered
/// on the wire; I/O failures mid-response mean the client hung up, which
/// is its prerogative.
fn handle_connection(stream: TcpStream, state: &State, config: &ServerConfig, addr: SocketAddr) {
    let io_timeout = match config.io_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    if stream.set_read_timeout(io_timeout).is_err() || stream.set_write_timeout(io_timeout).is_err()
    {
        return;
    }
    // Every response chunk is already one write, so there is nothing to
    // coalesce: a chunk should leave now, not wait for the client's ACK
    // of the previous one.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(ReadError::Closed) => return, // probe/scan: nothing to say
        Err(ReadError::Timeout) => {
            let _ = respond(
                &mut writer,
                408,
                "Request Timeout",
                "application/json",
                &error_json(
                    "timeout",
                    "request",
                    "request did not arrive within the read deadline",
                ),
            );
            return;
        }
        Err(ReadError::Malformed(e)) => {
            let _ = respond(
                &mut writer,
                400,
                "Bad Request",
                "application/json",
                &error_json("bad_request", "request", &e),
            );
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => handle_submit(&request, writer, state),
        ("GET", "/jobs") => {
            let _ = respond(
                &mut writer,
                200,
                "OK",
                "application/json",
                &list_json(state),
            );
        }
        ("GET", "/stats") => {
            let _ = respond(
                &mut writer,
                200,
                "OK",
                "application/json",
                &stats_json(state),
            );
        }
        ("GET", "/healthz") => {
            let _ = respond(&mut writer, 200, "OK", "text/plain", "ok\n");
        }
        ("POST", "/shutdown") => {
            let (drained_now, running, queued) = state.registry.begin_drain();
            let _ = respond(
                &mut writer,
                200,
                "OK",
                "application/json",
                &format!("{{\"draining\":true,\"running\":{running},\"queued\":{queued}}}\n"),
            );
            if drained_now {
                poke_accept_loop(addr);
            }
        }
        (method, path) if path.starts_with("/jobs/") => {
            handle_job_entity(method, path, writer, state);
        }
        (_, path) => {
            let _ = respond(
                &mut writer,
                404,
                "Not Found",
                "application/json",
                &error_json("not_found", "path", &format!("no route for {path}")),
            );
        }
    }
}

/// `/jobs/<id>` and `/jobs/<id>/result`.
fn handle_job_entity(method: &str, path: &str, mut writer: TcpStream, state: &State) {
    let rest = path.strip_prefix("/jobs/").expect("checked by the router");
    let (id_text, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<JobId>() else {
        let _ = respond(
            &mut writer,
            404,
            "Not Found",
            "application/json",
            &error_json(
                "not_found",
                "job",
                &format!("job ids are integers, got {id_text:?}"),
            ),
        );
        return;
    };
    match (method, sub) {
        ("GET", None) => handle_status(id, writer, state),
        ("GET", Some("result")) => handle_result(id, writer, state),
        ("DELETE", None) => handle_cancel(id, writer, state),
        _ => {
            let _ = respond(
                &mut writer,
                404,
                "Not Found",
                "application/json",
                &error_json(
                    "not_found",
                    "path",
                    &format!("no route for {method} {path}"),
                ),
            );
        }
    }
}

/// Status code, reason, and error code for a job that ended without a
/// result — the "Failure semantics" table in SERVICE.md.
fn terminal_error(state: JobState) -> (u16, &'static str, &'static str) {
    match state {
        JobState::Cancelled => (409, "Conflict", "cancelled"),
        JobState::DeadlineExceeded => (504, "Gateway Timeout", "deadline_exceeded"),
        _ => (500, "Internal Server Error", "job_failed"),
    }
}

fn handle_status(id: JobId, mut writer: TcpStream, state: &State) {
    let Some(snap) = state.registry.snapshot(id) else {
        let _ = respond(
            &mut writer,
            404,
            "Not Found",
            "application/json",
            &error_json("not_found", "job", &format!("no job {id}")),
        );
        return;
    };
    let progress: Vec<String> = snap
        .progress
        .iter()
        .map(|l| format!("\"{}\"", escape(l)))
        .collect();
    let body = format!(
        "{{\"id\":{},\"state\":\"{}\",\"cancel_requested\":{},\"error\":{},\"result_fnv64\":{},\"spec\":{},\"progress\":[{}]}}\n",
        snap.id,
        snap.state.id(),
        snap.cancel_requested,
        snap.error
            .as_deref()
            .map_or_else(|| "null".to_owned(), |e| format!("\"{}\"", escape(e))),
        snap.result_fnv64
            .map_or_else(|| "null".to_owned(), |d| format!("\"{d:016x}\"")),
        snap.spec.to_json(),
        progress.join(","),
    );
    let _ = respond(&mut writer, 200, "OK", "application/json", &body);
}

fn handle_result(id: JobId, mut writer: TcpStream, state: &State) {
    match state.registry.result(id) {
        ResultFetch::NotFound => {
            let _ = respond(
                &mut writer,
                404,
                "Not Found",
                "application/json",
                &error_json("not_found", "job", &format!("no job {id}")),
            );
        }
        ResultFetch::NotReady(job_state) => {
            let _ = respond(
                &mut writer,
                409,
                "Conflict",
                "application/json",
                &error_json(
                    "not_ready",
                    "job",
                    &format!("job {id} is {}; poll until done", job_state.id()),
                ),
            );
        }
        ResultFetch::Evicted => {
            let _ = respond(
                &mut writer,
                410,
                "Gone",
                "application/json",
                &error_json(
                    "result_evicted",
                    "job",
                    "result was evicted from the bounded store; resubmit the job (its traces are likely still cached)",
                ),
            );
        }
        ResultFetch::Ended(job_state, error) => {
            let (status, reason, code) = terminal_error(job_state);
            let message = error.unwrap_or_else(|| format!("job ended {}", job_state.id()));
            let _ = respond(
                &mut writer,
                status,
                reason,
                "application/json",
                &error_json(code, "job", &message),
            );
        }
        ResultFetch::Ready(bytes) => {
            let _ = respond(&mut writer, 200, "OK", "application/json", &bytes);
        }
    }
}

fn handle_cancel(id: JobId, mut writer: TcpStream, state: &State) {
    match state.registry.cancel(id) {
        None => {
            let _ = respond(
                &mut writer,
                404,
                "Not Found",
                "application/json",
                &error_json("not_found", "job", &format!("no job {id}")),
            );
        }
        Some(after) => {
            let _ = respond(
                &mut writer,
                200,
                "OK",
                "application/json",
                &format!("{{\"id\":{id},\"state\":\"{}\"}}\n", after.id()),
            );
        }
    }
}

/// Estimate the bytes `spec` will newly pin: the trace footprint model
/// summed over its cache keys — skipping keys already resident
/// (re-running a warm job re-reserves almost nothing — residency is the
/// service's whole point; duplicate profile/eval keys count once) —
/// plus [`POINT_RESULT_BYTES`] per grid point, so admission scales with
/// the spec's `batch_sizes`/scheduler fan-out, not just its trace keys.
fn estimate_new_bytes(spec: &JobSpec, pool: &TracePool) -> usize {
    let traces: usize = spec
        .trace_keys()
        .iter()
        .filter(|k| !pool.contains(k))
        .map(TraceKey::estimated_resident_bytes)
        .fold(0, usize::saturating_add);
    traces.saturating_add(spec.grid_shape().len().saturating_mul(POINT_RESULT_BYTES))
}

fn handle_submit(request: &Request, mut writer: TcpStream, state: &State) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            let _ = respond(
                &mut writer,
                400,
                "Bad Request",
                "application/json",
                &error_json("invalid_spec", "spec", "job body is not UTF-8"),
            );
            return;
        }
    };
    // Parse + validate *before* admission: a malformed or invalid spec
    // (n_xcts 0, no benchmarks, unknown names...) is a structured 400,
    // never a queued failure.
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(SpecError { field, message }) => {
            let _ = respond(
                &mut writer,
                400,
                "Bad Request",
                "application/json",
                &error_json("invalid_spec", field, &message),
            );
            return;
        }
    };

    // Admission: reserve the estimated footprint, or reject *before*
    // any generation starts.
    let estimated = estimate_new_bytes(&spec, &state.pool);
    let id = match state.registry.admit(spec, estimated) {
        Ok(id) => id,
        Err(AdmitError::QueueFull { queued, cap }) => {
            let (retry_queue_s, _) = state.registry.retry_after();
            let _ = respond_with_headers(
                &mut writer,
                429,
                "Too Many Requests",
                "application/json",
                &[("Retry-After", retry_queue_s.to_string())],
                &error_json(
                    "queue_full",
                    "queue",
                    &format!("{queued} jobs queued (cap {cap}); retry shortly"),
                ),
            );
            return;
        }
        Err(AdmitError::OverBudget {
            estimated,
            reserved,
            budget,
        }) => {
            let (_, retry_bytes_s) = state.registry.retry_after();
            let _ = respond_with_headers(
                &mut writer,
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", retry_bytes_s.to_string())],
                &error_json(
                    "over_capacity",
                    "n_xcts",
                    &format!(
                        "job needs ~{estimated} trace bytes but {reserved} of {budget} are reserved; retry after running jobs finish"
                    ),
                ),
            );
            return;
        }
        Err(AdmitError::Draining) => {
            let _ = respond(
                &mut writer,
                503,
                "Service Unavailable",
                "application/json",
                &error_json(
                    "shutting_down",
                    "server",
                    "server is draining; submit elsewhere",
                ),
            );
            return;
        }
    };

    if request.query_flag("wait") {
        stream_job(writer, state, id);
    } else {
        let _ = respond_with_headers(
            &mut writer,
            202,
            "Accepted",
            "application/json",
            &[("Location", format!("/jobs/{id}"))],
            &format!("{{\"id\":{id},\"state\":\"queued\"}}\n"),
        );
    }
}

/// The `?wait=1` path: follow the job through the registry, streaming
/// progress as it lands. The `200` header is deferred until the first
/// progress line, so a job that dies *before* doing any work (panic at
/// start, cancelled in queue, deadline expired) still answers a proper
/// structured status. Each batch [`Registry::wait_progress`] hands back
/// leaves in one write (the headers with the first), and so does the
/// result. A client that hangs up mid-stream stops receiving — the job
/// itself runs on, and its stored result stays pollable (detached
/// semantics underneath).
fn stream_job(writer: TcpStream, state: &State, id: JobId) {
    let job_header = [("X-Job-Id", id.to_string())];
    let mut out = StreamingResponse::new(writer, "text/plain", &job_header);
    let mut seen = 0usize;
    loop {
        let Some((lines, job_state, error)) = state.registry.wait_progress(id, seen) else {
            return; // record evicted mid-stream (cap pressure): give up
        };
        seen += lines.len();
        for line in &lines {
            let _ = writeln!(out, "# {line}");
        }
        if !lines.is_empty() && out.flush().is_err() {
            return; // client hung up; the job runs on
        }
        if !job_state.is_terminal() {
            continue;
        }
        match job_state {
            JobState::Done => {
                let ResultFetch::Ready(bytes) = state.registry.result(id) else {
                    return; // evicted in the instant since finish: poll answers 410
                };
                let _ = write!(out, "\n{bytes}");
                let _ = out.flush();
            }
            ended => {
                let (status, reason, code) = terminal_error(ended);
                let message = error.unwrap_or_else(|| format!("job ended {}", ended.id()));
                if out.started() {
                    // Headers are gone; a trailer line is the best the
                    // wire allows. The client surfaces it.
                    let _ = writeln!(out, "# error: {message}");
                    let _ = out.flush();
                } else {
                    let _ = respond_with_headers(
                        &mut out.into_inner(),
                        status,
                        reason,
                        "application/json",
                        &job_header,
                        &error_json(code, "job", &message),
                    );
                }
            }
        }
        return;
    }
}

/// The `GET /jobs` payload: id → state, in admission order.
fn list_json(state: &State) -> String {
    let entries: Vec<String> = state
        .registry
        .list()
        .into_iter()
        .map(|(id, s)| format!("{{\"id\":{id},\"state\":\"{}\"}}", s.id()))
        .collect();
    format!("{{\"jobs\":[{}]}}\n", entries.join(","))
}

/// The `/stats` payload: jobs served plus lifecycle, result-store, and
/// cache counters.
fn stats_json(state: &State) -> String {
    let c = state.pool.stats();
    let r = state.registry.stats();
    format!(
        concat!(
            "{{\"jobs\":{},",
            "\"lifecycle\":{{\"queued\":{},\"running\":{},\"done\":{},\"cancelled\":{},\"deadline_exceeded\":{},\"failed\":{},\"records\":{},\"reserved_bytes\":{},\"draining\":{}}},",
            "\"results\":{{\"stored\":{},\"bytes\":{},\"budget_bytes\":{},\"evictions\":{},\"dedups\":{}}},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"generations\":{},\"populations\":{},\"alg1_runs\":{},\"evictions\":{},\"entries\":{},\"pinned_entries\":{},\"resident_bytes\":{},\"snapshot_bytes\":{},\"budget_bytes\":{}}}}}\n",
        ),
        r.done,
        r.queued,
        r.running,
        r.done,
        r.cancelled,
        r.deadline_exceeded,
        r.failed,
        r.records,
        r.reserved_bytes,
        r.draining,
        r.results_stored,
        r.result_bytes,
        r.result_budget,
        r.result_evictions,
        r.result_dedups,
        c.hits,
        c.misses,
        c.generations,
        c.populations,
        c.alg1_runs,
        c.evictions,
        c.entries,
        c.pinned_entries,
        c.resident_bytes,
        c.snapshot_bytes,
        c.budget_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_workloads::Benchmark;

    #[test]
    fn error_body_is_valid_json() {
        use addict_bench::jsontext::JsonValue;
        let body = error_json("invalid_spec", "n_xcts", "must be \"positive\"");
        let doc = JsonValue::parse(&body).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("field").unwrap().as_str("field").unwrap(), "n_xcts");
        assert_eq!(
            err.get("message").unwrap().as_str("message").unwrap(),
            "must be \"positive\""
        );
    }

    #[test]
    fn stats_body_is_valid_json() {
        use addict_bench::jsontext::JsonValue;
        let state = State {
            pool: TracePool::unbounded(),
            registry: Registry::new(RegistryConfig {
                admission_budget: usize::MAX,
                max_queued: 4,
                result_budget: 1 << 20,
                max_records: 16,
            }),
            faults: FaultPlan::new(),
        };
        let doc = JsonValue::parse(stats_json(&state).trim()).unwrap();
        assert_eq!(doc.get("jobs").unwrap().as_u64("jobs").unwrap(), 0);
        let lifecycle = doc.get("lifecycle").unwrap();
        assert!(!lifecycle
            .get("draining")
            .unwrap()
            .as_bool("draining")
            .unwrap());
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64("hits").unwrap(), 0);
        assert_eq!(
            cache
                .get("pinned_entries")
                .unwrap()
                .as_u64("pinned_entries")
                .unwrap(),
            0
        );
        let results = doc.get("results").unwrap();
        assert_eq!(
            results
                .get("budget_bytes")
                .unwrap()
                .as_u64("budget_bytes")
                .unwrap(),
            1 << 20
        );
        // And the job listing serializes too.
        assert!(JsonValue::parse(list_json(&state).trim()).is_ok());
    }

    #[test]
    fn estimate_skips_resident_and_duplicate_keys() {
        let pool = TracePool::unbounded();
        let mut spec = JobSpec::new(vec![Benchmark::TpcB], 64);
        spec.small = true;
        let grid = spec.grid_shape().len() * POINT_RESULT_BYTES;
        let cold = estimate_new_bytes(&spec, &pool);
        assert!(cold > grid);
        // Profile and eval keys differ only by seed: two keys, each
        // estimated once, plus the per-point surcharge.
        assert_eq!(
            cold,
            spec.profile_key(Benchmark::TpcB).estimated_resident_bytes()
                + spec.eval_key(Benchmark::TpcB).estimated_resident_bytes()
                + grid
        );
        // A spec whose eval seed *is* the profile seed counts the shared
        // key once.
        let mut same = spec.clone();
        same.seed = addict_bench::PROFILE_SEED;
        assert_eq!(
            estimate_new_bytes(&same, &pool),
            same.profile_key(Benchmark::TpcB).estimated_resident_bytes() + grid
        );
        // Once generated, the footprint is already paid: only the grid
        // surcharge remains, and a warm resubmission sails through
        // admission.
        let quiet = |_: &str| {};
        addict_bench::run_job(&spec, &pool, &quiet).unwrap();
        assert_eq!(estimate_new_bytes(&spec, &pool), grid);
        // A wider `batch_sizes` grid over the same (warm) traces
        // reserves proportionally more: estimates track the fan-out,
        // not just the trace keys.
        let mut wide = spec.clone();
        wide.batch_sizes = vec![1, 2, 4, 8];
        assert!(wide.grid_shape().len() > spec.grid_shape().len());
        assert_eq!(
            estimate_new_bytes(&wide, &pool),
            wide.grid_shape().len() * POINT_RESULT_BYTES
        );
    }
}
