//! Job lifecycle: the registry every server endpoint reads and writes.
//!
//! A job moves `queued → running → {done, cancelled, deadline_exceeded,
//! failed}`; the registry owns that state machine plus the two bounded
//! stores around it:
//!
//! * the **admission ledger** — every admitted job reserves its
//!   estimated trace-pool bytes ([`TraceKey::estimated_resident_bytes`])
//!   up front; a job that would push reservations past the budget is
//!   rejected *before* any generation starts ([`AdmitError::OverBudget`]
//!   → the server's structured `503 + Retry-After`), and a full queue
//!   rejects with [`AdmitError::QueueFull`] (`429`);
//! * the **result store** — completed result JSON keyed by its FNV-1a
//!   digest, so a detached client can poll a byte-identical result after
//!   disconnecting, identical results from different jobs share one
//!   copy, and an LRU byte budget bounds memory (evicted results answer
//!   `410`, never wrong bytes).
//!
//! Two adjacencies ride the same lock: an **EWMA of observed job
//! latency** (fed by [`Registry::next_job`] / [`Registry::finish`],
//! read by [`Registry::retry_after`]) turns the server's `Retry-After`
//! hints into load-derived values instead of constants, and
//! [`Registry::recover`] re-inserts results a previous process dumped
//! on shutdown, so they stay pollable at their original ids across a
//! restart.
//!
//! Everything lives under one mutex with two condvars: `queue_cv` wakes
//! executors ([`Registry::next_job`] blocks on it), `changed` wakes
//! status pollers and `?wait=1` streamers ([`Registry::wait_progress`]).
//! The registry never executes anything — the server's executor pool
//! drives it.
//!
//! [`TraceKey::estimated_resident_bytes`]: addict_bench::TraceKey::estimated_resident_bytes

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use addict_bench::{fnv64, CancelToken, Interrupt, JobSpec};

/// `Retry-After` fallback for a full queue until a job latency has been
/// observed: queue slots turn over at job granularity, so retrying
/// quickly is right.
pub const FALLBACK_RETRY_QUEUE_S: u64 = 1;
/// `Retry-After` fallback for a byte-budget rejection until a job
/// latency has been observed: freeing trace bytes takes a completion,
/// so back off harder.
pub const FALLBACK_RETRY_BYTES_S: u64 = 5;
/// Cap on derived `Retry-After` hints.
const MAX_RETRY_AFTER_S: u64 = 600;
/// EWMA smoothing factor for observed job latency: heavy enough on the
/// newest observation to track load shifts, light enough that one
/// outlier job doesn't whipsaw the hints.
const LATENCY_ALPHA: f64 = 0.3;

/// Fold one observed job latency into the registry's EWMA.
fn observe_latency(inner: &mut Inner, secs: f64) {
    inner.latency_ewma_s = Some(match inner.latency_ewma_s {
        Some(prev) => prev + LATENCY_ALPHA * (secs - prev),
        None => secs,
    });
}

/// Job identifier: dense, starting at 1, never reused within a server.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for an executor.
    Queued,
    /// An executor is running it.
    Running,
    /// Completed; its result is (or was) in the result store.
    Done,
    /// Stopped by `DELETE /jobs/<id>`.
    Cancelled,
    /// Stopped by its `deadline_ms` budget expiring.
    DeadlineExceeded,
    /// The executor hit a panic or an execution error.
    Failed,
}

impl JobState {
    /// Wire identifier (the `state` field of every status body).
    pub fn id(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline_exceeded",
            JobState::Failed => "failed",
        }
    }

    /// True once the job can never change state again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// How a job ended, as reported by its executor to [`Registry::finish`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The serialized [`JobResult`](addict_bench::JobResult) JSON.
    Done(String),
    /// The job's token fired.
    Interrupted(Interrupt),
    /// Panic or execution error; the payload is the diagnostic.
    Failed(String),
}

/// Why a job was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue is at capacity.
    QueueFull {
        /// Jobs waiting.
        queued: usize,
        /// The queue bound.
        cap: usize,
    },
    /// The job's estimated trace bytes do not fit the remaining budget.
    OverBudget {
        /// This job's estimate ([`TraceKey::estimated_resident_bytes`]
        /// summed over its uncached keys).
        ///
        /// [`TraceKey::estimated_resident_bytes`]: addict_bench::TraceKey::estimated_resident_bytes
        estimated: usize,
        /// Bytes already reserved by admitted jobs.
        reserved: usize,
        /// The trace-pool budget.
        budget: usize,
    },
    /// The server is draining for shutdown.
    Draining,
}

/// What `GET /jobs/<id>/result` finds.
#[derive(Debug, Clone)]
pub enum ResultFetch {
    /// No such job.
    NotFound,
    /// The job has not reached a terminal state yet.
    NotReady(JobState),
    /// The job ended without a result (cancelled / deadline / failed);
    /// the payload is the error diagnostic, if any.
    Ended(JobState, Option<String>),
    /// The job completed but its result was LRU-evicted from the store.
    Evicted,
    /// The stored result bytes — byte-identical to what `?wait=1`
    /// streamed.
    Ready(Arc<String>),
}

/// A copied-out view of one job (rendered without holding the lock).
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job's id.
    pub id: JobId,
    /// Current state.
    pub state: JobState,
    /// The admitted spec.
    pub spec: JobSpec,
    /// Progress lines so far.
    pub progress: Vec<String>,
    /// Terminal diagnostic, when the job failed or was interrupted.
    pub error: Option<String>,
    /// The result digest, once done (the result-store key).
    pub result_fnv64: Option<u64>,
    /// A cancel was requested (possibly not yet observed).
    pub cancel_requested: bool,
}

/// Registry bounds; carved out of the server config.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Trace-pool byte budget the admission ledger reserves against.
    pub admission_budget: usize,
    /// Maximum queued (not yet running) jobs.
    pub max_queued: usize,
    /// Result-store byte budget.
    pub result_budget: usize,
    /// Maximum retained job records (oldest terminal records evict).
    pub max_records: usize,
}

/// Counter snapshot for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Jobs waiting for an executor.
    pub queued: usize,
    /// Jobs executing right now.
    pub running: usize,
    /// Jobs completed successfully (ever).
    pub done: u64,
    /// Jobs cancelled (ever).
    pub cancelled: u64,
    /// Jobs stopped by deadline (ever).
    pub deadline_exceeded: u64,
    /// Jobs failed (ever).
    pub failed: u64,
    /// Retained job records.
    pub records: usize,
    /// Bytes reserved by admitted-but-unfinished jobs.
    pub reserved_bytes: usize,
    /// The server is draining.
    pub draining: bool,
    /// Distinct results resident in the store.
    pub results_stored: usize,
    /// Result bytes resident.
    pub result_bytes: usize,
    /// Result-store budget.
    pub result_budget: usize,
    /// Results LRU-evicted (ever).
    pub result_evictions: u64,
    /// Completions that deduplicated onto an already-stored result.
    pub result_dedups: u64,
}

struct Record {
    spec: JobSpec,
    state: JobState,
    progress: Vec<String>,
    error: Option<String>,
    result_key: Option<u64>,
    reserved: usize,
    token: Arc<CancelToken>,
    cancel_requested: bool,
}

struct Stored {
    bytes: Arc<String>,
    last_used: u64,
    refs: usize,
}

struct Inner {
    jobs: HashMap<JobId, Record>,
    /// Insertion order, for record-cap eviction.
    order: VecDeque<JobId>,
    /// Admitted, not yet claimed by an executor.
    queue: VecDeque<JobId>,
    next_id: JobId,
    reserved: usize,
    running: usize,
    done: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    results: HashMap<u64, Stored>,
    result_bytes: usize,
    result_evictions: u64,
    result_dedups: u64,
    tick: u64,
    draining: bool,
    /// When each running job was claimed, for latency observation.
    started: HashMap<JobId, Instant>,
    /// EWMA of observed job latency in seconds; `None` until the first
    /// job finishes. Drives the `Retry-After` hints.
    latency_ewma_s: Option<f64>,
}

/// The shared job registry. See the module docs.
pub struct Registry {
    inner: Mutex<Inner>,
    /// Wakes executors: queue pushes and drain transitions.
    queue_cv: Condvar,
    /// Wakes observers: progress lines and state changes.
    changed: Condvar,
    cfg: RegistryConfig,
}

impl Registry {
    /// An empty registry with the given bounds.
    pub fn new(cfg: RegistryConfig) -> Self {
        Registry {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                order: VecDeque::new(),
                queue: VecDeque::new(),
                next_id: 1,
                reserved: 0,
                running: 0,
                done: 0,
                cancelled: 0,
                deadline_exceeded: 0,
                failed: 0,
                results: HashMap::new(),
                result_bytes: 0,
                result_evictions: 0,
                result_dedups: 0,
                tick: 0,
                draining: false,
                started: HashMap::new(),
                latency_ewma_s: None,
            }),
            queue_cv: Condvar::new(),
            changed: Condvar::new(),
            cfg,
        }
    }

    /// Admit `spec`, reserving `estimated_bytes` against the budget. The
    /// job's deadline (if any) arms here — queue wait counts against it.
    pub fn admit(&self, spec: JobSpec, estimated_bytes: usize) -> Result<JobId, AdmitError> {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.draining {
            return Err(AdmitError::Draining);
        }
        if inner.queue.len() >= self.cfg.max_queued {
            return Err(AdmitError::QueueFull {
                queued: inner.queue.len(),
                cap: self.cfg.max_queued,
            });
        }
        if inner.reserved.saturating_add(estimated_bytes) > self.cfg.admission_budget {
            return Err(AdmitError::OverBudget {
                estimated: estimated_bytes,
                reserved: inner.reserved,
                budget: self.cfg.admission_budget,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let token = Arc::new(CancelToken::new());
        token.arm_deadline_ms(spec.deadline_ms);
        inner.jobs.insert(
            id,
            Record {
                spec,
                state: JobState::Queued,
                progress: Vec::new(),
                error: None,
                result_key: None,
                reserved: estimated_bytes,
                token,
                cancel_requested: false,
            },
        );
        inner.order.push_back(id);
        inner.queue.push_back(id);
        inner.reserved += estimated_bytes;
        self.evict_records(&mut inner);
        self.queue_cv.notify_one();
        Ok(id)
    }

    /// Re-insert a completed job recovered from a `--dump-dir` file a
    /// previous process wrote on shutdown: a terminal `Done` record
    /// whose result is immediately pollable at its original id, counted
    /// under `done`. Ids resume past every recovered id, so new
    /// admissions never collide. Returns `false` (and changes nothing)
    /// when the id is already present.
    pub fn recover(&self, id: JobId, spec: JobSpec, result: String) -> bool {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.jobs.contains_key(&id) {
            return false;
        }
        let key = fnv64(result.as_bytes());
        inner.jobs.insert(
            id,
            Record {
                spec,
                state: JobState::Done,
                progress: Vec::new(),
                error: None,
                result_key: Some(key),
                reserved: 0,
                token: Arc::new(CancelToken::new()),
                cancel_requested: false,
            },
        );
        inner.order.push_back(id);
        inner.next_id = inner.next_id.max(id + 1);
        inner.done += 1;
        self.store_result(&mut inner, key, result);
        self.evict_records(&mut inner);
        self.changed.notify_all();
        true
    }

    /// `Retry-After` hints as `(queue-full seconds, over-budget
    /// seconds)`, derived from the EWMA of observed job latency: a queue
    /// slot frees when roughly one job finishes, while reserved bytes
    /// drain as the whole backlog does — so the byte hint additionally
    /// scales with queued + running jobs. Until a first job completes,
    /// the conservative [`FALLBACK_RETRY_QUEUE_S`] /
    /// [`FALLBACK_RETRY_BYTES_S`] constants apply.
    pub fn retry_after(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("registry lock");
        let Some(ewma) = inner.latency_ewma_s else {
            return (FALLBACK_RETRY_QUEUE_S, FALLBACK_RETRY_BYTES_S);
        };
        let backlog = (inner.queue.len() + inner.running).max(1);
        let queue_s = (ewma.ceil() as u64).clamp(1, MAX_RETRY_AFTER_S);
        let bytes_s = ((ewma * backlog as f64).ceil() as u64).clamp(queue_s, MAX_RETRY_AFTER_S);
        (queue_s, bytes_s)
    }

    /// Executor-side: block for the next queued job. Returns `None` once
    /// the registry is draining and the queue is empty — the executor's
    /// signal to exit. Queued jobs still run during a drain.
    pub fn next_job(&self) -> Option<(JobId, JobSpec, Arc<CancelToken>)> {
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            if let Some(id) = inner.queue.pop_front() {
                inner.running += 1;
                inner.started.insert(id, Instant::now());
                let record = inner.jobs.get_mut(&id).expect("queued job has a record");
                record.state = JobState::Running;
                let spec = record.spec.clone();
                let token = Arc::clone(&record.token);
                self.changed.notify_all();
                return Some((id, spec, token));
            }
            if inner.draining {
                return None;
            }
            inner = self.queue_cv.wait(inner).expect("registry lock");
        }
    }

    /// Executor-side: append a progress line.
    pub fn progress(&self, id: JobId, line: &str) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.progress.push(line.to_owned());
            self.changed.notify_all();
        }
    }

    /// Executor-side: record a job's terminal outcome, releasing its
    /// reservation. Returns true when this finish completed a drain
    /// (the caller should poke the accept loop awake).
    pub fn finish(&self, id: JobId, outcome: Outcome) -> bool {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.running -= 1;
        if let Some(claimed) = inner.started.remove(&id) {
            observe_latency(&mut inner, claimed.elapsed().as_secs_f64());
        }
        let record = inner.jobs.get_mut(&id).expect("running job has a record");
        let reserved = record.reserved;
        record.reserved = 0;
        match outcome {
            Outcome::Done(result) => {
                record.state = JobState::Done;
                let key = fnv64(result.as_bytes());
                record.result_key = Some(key);
                inner.done += 1;
                self.store_result(&mut inner, key, result);
            }
            Outcome::Interrupted(Interrupt::Cancelled) => {
                record.state = JobState::Cancelled;
                record.error = Some("job cancelled".to_owned());
                inner.cancelled += 1;
            }
            Outcome::Interrupted(Interrupt::DeadlineExceeded) => {
                record.state = JobState::DeadlineExceeded;
                record.error = Some("job deadline exceeded".to_owned());
                inner.deadline_exceeded += 1;
            }
            Outcome::Failed(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
                inner.failed += 1;
            }
        }
        inner.reserved -= reserved;
        self.changed.notify_all();
        self.queue_cv.notify_all();
        inner.draining && inner.queue.is_empty() && inner.running == 0
    }

    /// Cancel a job. Queued jobs finalize immediately (they never run);
    /// running jobs get their token fired and finalize at the next sweep
    /// point. Idempotent: cancelling a terminal job is a no-op. Returns
    /// the state after the call, or `None` for an unknown id.
    pub fn cancel(&self, id: JobId) -> Option<JobState> {
        let mut inner = self.inner.lock().expect("registry lock");
        let record = inner.jobs.get_mut(&id)?;
        match record.state {
            JobState::Queued => {
                record.state = JobState::Cancelled;
                record.error = Some("job cancelled".to_owned());
                record.cancel_requested = true;
                record.token.cancel();
                let reserved = record.reserved;
                record.reserved = 0;
                inner.reserved -= reserved;
                inner.cancelled += 1;
                inner.queue.retain(|&q| q != id);
                self.changed.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                record.cancel_requested = true;
                record.token.cancel();
                self.changed.notify_all();
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// A copied-out view of one job.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("registry lock");
        inner.jobs.get(&id).map(|r| JobSnapshot {
            id,
            state: r.state,
            spec: r.spec.clone(),
            progress: r.progress.clone(),
            error: r.error.clone(),
            result_fnv64: r.result_key,
            cancel_requested: r.cancel_requested,
        })
    }

    /// Block until the job has progress beyond `seen` lines or reaches a
    /// terminal state; returns the fresh lines and the state (and the
    /// terminal error, if any). `None` for an unknown id. The `?wait=1`
    /// streaming loop is built on this.
    pub fn wait_progress(
        &self,
        id: JobId,
        seen: usize,
    ) -> Option<(Vec<String>, JobState, Option<String>)> {
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            let record = inner.jobs.get(&id)?;
            if record.progress.len() > seen || record.state.is_terminal() {
                return Some((
                    record.progress[seen.min(record.progress.len())..].to_vec(),
                    record.state,
                    record.error.clone(),
                ));
            }
            let (guard, _) = self
                .changed
                .wait_timeout(inner, Duration::from_millis(200))
                .expect("registry lock");
            inner = guard;
        }
    }

    /// Fetch a job's stored result.
    pub fn result(&self, id: JobId) -> ResultFetch {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(record) = inner.jobs.get(&id) else {
            return ResultFetch::NotFound;
        };
        match record.state {
            JobState::Queued | JobState::Running => ResultFetch::NotReady(record.state),
            JobState::Done => {
                let key = record.result_key.expect("done job has a result key");
                match inner.results.get_mut(&key) {
                    Some(stored) => {
                        stored.last_used = tick;
                        ResultFetch::Ready(Arc::clone(&stored.bytes))
                    }
                    None => ResultFetch::Evicted,
                }
            }
            state => ResultFetch::Ended(state, record.error.clone()),
        }
    }

    /// All job ids and states, in admission order (the `GET /jobs`
    /// listing).
    pub fn list(&self) -> Vec<(JobId, JobState)> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .order
            .iter()
            .map(|&id| (id, inner.jobs[&id].state))
            .collect()
    }

    /// Completed jobs' results, for shutdown persistence.
    pub fn done_results(&self) -> Vec<(JobId, Arc<String>)> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .order
            .iter()
            .filter_map(|&id| {
                let r = inner.jobs.get(&id)?;
                let key = r.result_key?;
                Some((id, Arc::clone(&inner.results.get(&key)?.bytes)))
            })
            .collect()
    }

    /// Start draining: no new admissions, queued jobs still execute,
    /// executors exit once the queue empties. Returns
    /// `(already drained, running, queued)`.
    pub fn begin_drain(&self) -> (bool, usize, usize) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.draining = true;
        self.queue_cv.notify_all();
        self.changed.notify_all();
        (
            inner.queue.is_empty() && inner.running == 0,
            inner.running,
            inner.queue.len(),
        )
    }

    /// True once draining and every admitted job has finished.
    pub fn drained(&self) -> bool {
        let inner = self.inner.lock().expect("registry lock");
        inner.draining && inner.queue.is_empty() && inner.running == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock");
        RegistryStats {
            queued: inner.queue.len(),
            running: inner.running,
            done: inner.done,
            cancelled: inner.cancelled,
            deadline_exceeded: inner.deadline_exceeded,
            failed: inner.failed,
            records: inner.jobs.len(),
            reserved_bytes: inner.reserved,
            draining: inner.draining,
            results_stored: inner.results.len(),
            result_bytes: inner.result_bytes,
            result_budget: self.cfg.result_budget,
            result_evictions: inner.result_evictions,
            result_dedups: inner.result_dedups,
        }
    }

    /// Insert (or deduplicate onto) a stored result, then evict LRU
    /// entries past the byte budget — never the one just stored, so a
    /// poll right after completion always finds its bytes.
    fn store_result(&self, inner: &mut Inner, key: u64, result: String) {
        inner.tick += 1;
        let tick = inner.tick;
        match inner.results.get_mut(&key) {
            Some(stored) if *stored.bytes == result => {
                stored.last_used = tick;
                stored.refs += 1;
                inner.result_dedups += 1;
            }
            _ => {
                let len = result.len();
                if let Some(old) = inner.results.insert(
                    key,
                    Stored {
                        bytes: Arc::new(result),
                        last_used: tick,
                        refs: 1,
                    },
                ) {
                    // An FNV collision with different bytes: keep the
                    // newer result (a digest must never serve bytes that
                    // differ from what the job streamed).
                    inner.result_bytes -= old.bytes.len();
                }
                inner.result_bytes += len;
                while inner.result_bytes > self.cfg.result_budget && inner.results.len() > 1 {
                    let victim = inner
                        .results
                        .iter()
                        .filter(|&(&k, _)| k != key)
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(&k, _)| k)
                        .expect("len > 1 means a victim besides the newest exists");
                    let old = inner.results.remove(&victim).expect("victim exists");
                    inner.result_bytes -= old.bytes.len();
                    inner.result_evictions += 1;
                }
            }
        }
    }

    /// Evict oldest *terminal* records past the record cap, dropping
    /// orphaned stored results with them.
    fn evict_records(&self, inner: &mut Inner) {
        while inner.jobs.len() > self.cfg.max_records {
            let Some(pos) = inner
                .order
                .iter()
                .position(|id| inner.jobs[id].state.is_terminal())
            else {
                break; // every record is live; the queue cap bounds this
            };
            let id = inner.order.remove(pos).expect("position exists");
            let record = inner.jobs.remove(&id).expect("ordered job has a record");
            if let Some(key) = record.result_key {
                if let Some(stored) = inner.results.get_mut(&key) {
                    stored.refs -= 1;
                    if stored.refs == 0 {
                        let old = inner.results.remove(&key).expect("checked present");
                        inner.result_bytes -= old.bytes.len();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_workloads::Benchmark;

    fn cfg() -> RegistryConfig {
        RegistryConfig {
            admission_budget: 1000,
            max_queued: 2,
            result_budget: 100,
            max_records: 4,
        }
    }

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(vec![Benchmark::TpcB], 8);
        s.small = true;
        s
    }

    #[test]
    fn admission_enforces_queue_and_byte_bounds() {
        let reg = Registry::new(cfg());
        let a = reg.admit(spec(), 400).unwrap();
        assert_eq!(a, 1);
        assert_eq!(
            reg.admit(spec(), 700),
            Err(AdmitError::OverBudget {
                estimated: 700,
                reserved: 400,
                budget: 1000,
            })
        );
        let _b = reg.admit(spec(), 300).unwrap();
        // Queue cap (2) reached.
        assert_eq!(
            reg.admit(spec(), 0),
            Err(AdmitError::QueueFull { queued: 2, cap: 2 })
        );
        // Finishing releases the reservation and a queue slot.
        let (id, _, _) = reg.next_job().unwrap();
        assert_eq!(id, a);
        assert!(!reg.finish(id, Outcome::Done("r".into())));
        assert_eq!(reg.stats().reserved_bytes, 300);
        assert!(reg.admit(spec(), 700).is_ok());
    }

    #[test]
    fn lifecycle_transitions_and_counters() {
        let reg = Registry::new(cfg());
        let id = reg.admit(spec(), 10).unwrap();
        assert_eq!(reg.snapshot(id).unwrap().state, JobState::Queued);
        let (claimed, _, token) = reg.next_job().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(reg.snapshot(id).unwrap().state, JobState::Running);
        reg.progress(id, "working");
        assert!(!token.is_cancelled());
        reg.finish(id, Outcome::Done("{\"r\":1}".into()));
        let snap = reg.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.progress, vec!["working".to_owned()]);
        assert!(snap.result_fnv64.is_some());
        let stats = reg.stats();
        assert_eq!((stats.done, stats.running, stats.queued), (1, 0, 0));
        assert_eq!(stats.reserved_bytes, 0);
        match reg.result(id) {
            ResultFetch::Ready(bytes) => assert_eq!(*bytes, "{\"r\":1}"),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn cancel_queued_is_immediate_and_idempotent() {
        let reg = Registry::new(cfg());
        let id = reg.admit(spec(), 50).unwrap();
        assert_eq!(reg.cancel(id), Some(JobState::Cancelled));
        // Idempotent; reservation released; never reaches an executor.
        assert_eq!(reg.cancel(id), Some(JobState::Cancelled));
        assert_eq!(reg.stats().reserved_bytes, 0);
        assert_eq!(reg.stats().cancelled, 1);
        assert!(matches!(
            reg.result(id),
            ResultFetch::Ended(JobState::Cancelled, _)
        ));
        assert_eq!(reg.cancel(999), None);
        // The queue is empty: a drain completes immediately.
        assert!(reg.begin_drain().0);
        assert!(reg.next_job().is_none());
    }

    #[test]
    fn cancel_running_fires_the_token() {
        let reg = Registry::new(cfg());
        let id = reg.admit(spec(), 0).unwrap();
        let (_, _, token) = reg.next_job().unwrap();
        assert_eq!(reg.cancel(id), Some(JobState::Running));
        assert!(token.is_cancelled());
        assert!(reg.snapshot(id).unwrap().cancel_requested);
        reg.finish(id, Outcome::Interrupted(Interrupt::Cancelled));
        assert_eq!(reg.snapshot(id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn results_deduplicate_and_evict_lru() {
        let reg = Registry::new(cfg()); // result_budget: 100
        let run = |result: &str| {
            let id = reg.admit(spec(), 0).unwrap();
            let (claimed, _, _) = reg.next_job().unwrap();
            assert_eq!(claimed, id);
            reg.finish(id, Outcome::Done(result.to_owned()));
            id
        };
        let a = run(&"a".repeat(60));
        let b = run(&"a".repeat(60)); // identical: dedups, no extra bytes
        let stats = reg.stats();
        assert_eq!(stats.results_stored, 1);
        assert_eq!(stats.result_bytes, 60);
        assert_eq!(stats.result_dedups, 1);
        // A third distinct result pushes past 100 bytes: LRU evicts the
        // shared first result, never the just-stored one.
        let c = run(&"c".repeat(60));
        let stats = reg.stats();
        assert_eq!(stats.results_stored, 1);
        assert_eq!(stats.result_evictions, 1);
        assert!(matches!(reg.result(a), ResultFetch::Evicted));
        assert!(matches!(reg.result(b), ResultFetch::Evicted));
        assert!(matches!(reg.result(c), ResultFetch::Ready(_)));
    }

    #[test]
    fn record_cap_evicts_oldest_terminal_only() {
        let reg = Registry::new(cfg()); // max_records: 4
        let run = |result: &str| {
            let id = reg.admit(spec(), 0).unwrap();
            reg.next_job().unwrap();
            reg.finish(id, Outcome::Done(result.to_owned()));
            id
        };
        let first = run("r1");
        for i in 2..=4 {
            run(&format!("r{i}"));
        }
        assert_eq!(reg.stats().records, 4);
        // A fifth admission evicts the oldest terminal record (job 1) —
        // and with it the only reference to its stored result.
        let live = reg.admit(spec(), 0).unwrap();
        assert_eq!(reg.stats().records, 4);
        assert!(reg.snapshot(first).is_none());
        assert!(matches!(reg.result(first), ResultFetch::NotFound));
        assert!(reg.snapshot(live).is_some());
    }

    #[test]
    fn recover_restores_done_records_and_advances_ids() {
        let reg = Registry::new(cfg());
        assert!(reg.recover(7, spec(), "{\"r\":7}".into()));
        assert!(!reg.recover(7, spec(), "ignored".into()), "duplicate id");
        let snap = reg.snapshot(7).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.result_fnv64.is_some());
        match reg.result(7) {
            ResultFetch::Ready(bytes) => assert_eq!(*bytes, "{\"r\":7}"),
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(reg.stats().done, 1);
        // New admissions pick up past the recovered id.
        assert_eq!(reg.admit(spec(), 0).unwrap(), 8);
        // A fresh completion with identical bytes dedups onto the
        // recovered copy — byte identity survives the restart.
        let (id, _, _) = reg.next_job().unwrap();
        reg.finish(id, Outcome::Done("{\"r\":7}".into()));
        assert_eq!(reg.stats().result_dedups, 1);
        assert_eq!(reg.stats().results_stored, 1);
    }

    #[test]
    fn retry_after_derives_from_latency_ewma() {
        let reg = Registry::new(cfg());
        // No observations yet: the conservative fallbacks.
        assert_eq!(
            reg.retry_after(),
            (FALLBACK_RETRY_QUEUE_S, FALLBACK_RETRY_BYTES_S)
        );
        // One observed latency: the queue hint rounds it up, the byte
        // hint scales with the backlog (two queued jobs here).
        observe_latency(&mut reg.inner.lock().unwrap(), 2.5);
        reg.admit(spec(), 0).unwrap();
        reg.admit(spec(), 0).unwrap();
        assert_eq!(reg.retry_after(), (3, 5));
        // The EWMA smooths toward later observations instead of
        // jumping: 2.5 + 0.3 * (22.5 - 2.5) = 8.5 → ceil 9.
        observe_latency(&mut reg.inner.lock().unwrap(), 22.5);
        assert_eq!(reg.retry_after(), (9, 17));
    }

    /// Sub-second (even zero) latency EWMAs still hint a full second:
    /// `Retry-After: 0` would license clients to reconnect instantly
    /// against a server that just told them it is overloaded.
    #[test]
    fn retry_after_floors_at_one_second() {
        let reg = Registry::new(cfg());
        observe_latency(&mut reg.inner.lock().unwrap(), 0.0);
        assert_eq!(reg.retry_after(), (1, 1));
        let reg = Registry::new(cfg());
        observe_latency(&mut reg.inner.lock().unwrap(), 0.2);
        reg.admit(spec(), 0).unwrap();
        reg.admit(spec(), 0).unwrap();
        let (queue_s, bytes_s) = reg.retry_after();
        assert!(queue_s >= 1 && bytes_s >= 1, "({queue_s}, {bytes_s})");
    }

    #[test]
    fn drain_refuses_admissions_and_releases_executors() {
        let reg = Registry::new(cfg());
        let id = reg.admit(spec(), 0).unwrap();
        let (drained, running, queued) = reg.begin_drain();
        assert!(!drained);
        assert_eq!((running, queued), (0, 1));
        assert_eq!(reg.admit(spec(), 0), Err(AdmitError::Draining));
        // The queued job still executes during the drain.
        let (claimed, _, _) = reg.next_job().unwrap();
        assert_eq!(claimed, id);
        assert!(!reg.drained());
        // Its finish completes the drain; executors then see None.
        assert!(reg.finish(id, Outcome::Done("r".into())));
        assert!(reg.drained());
        assert!(reg.next_job().is_none());
    }
}
