//! Trace replay: a discrete-event cluster where threads (transactions)
//! occupy cores, queue, yield, migrate, and execute their traced memory
//! events against the `addict-sim` machine.
//!
//! The replay engine is policy-parameterized: a [`Policy`] decides, per
//! event, whether a thread keeps running on its core, yields the core
//! (STREX-style time multiplexing), or migrates to another core
//! (SLICC / ADDICT). Everything else — per-core clocks, FIFO run queues,
//! latency bookkeeping, machine accounting — is shared by every scheduler,
//! so measured differences come from scheduling decisions alone.
//!
//! The engine walks the interned, arena-backed trace form
//! ([`InternedSet`]): one `fetch` per step (event plus run geometry in a
//! single trace read), whole instruction runs executed segment-granularly
//! inside the machine, and consecutive data accesses executed
//! run-granularly ([`Policy::data_run_granular`]). Flat
//! [`XctTrace`](addict_trace::XctTrace)s are the recording format; they
//! replay once interned ([`InternedWorkload::from_flat`](addict_trace::InternedWorkload::from_flat)).

use std::collections::VecDeque;

use addict_sim::{
    BlockAddr, CoreId, Machine, MachineStats, PowerModel, PowerReport, SimConfig, SpecStats,
};
use addict_trace::event::FlatEvent;
use addict_trace::intern::InternCursor;
use addict_trace::set::{DataRun, Fetched};
use addict_trace::{InternedSet, XctTypeId};
use serde::{Deserialize, Serialize};

/// Parameters of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The simulated machine.
    pub sim: SimConfig,
    /// Batch size for the batching schedulers (paper default: #cores).
    pub batch_size: usize,
    /// STREX: L1-I misses a thread absorbs before yielding the core.
    pub strex_miss_threshold: u64,
    /// SLICC: L1-I misses since arriving on a core before the thread
    /// considers its working set resident elsewhere and migrates.
    pub slicc_fill_threshold: u64,
    /// Power model for the Figure 8(b) report.
    pub power: PowerModel,
    /// Execute through the fast paths: whole instruction runs
    /// segment-granularly (under the [`Policy`] segment contract) and,
    /// where the policy allows it, consecutive data accesses run-granularly
    /// ([`Policy::data_run_granular`]), private leading hits consumed
    /// without touching the coherence directory. Produces bit-identical
    /// results to per-block execution; `false` forces the per-block
    /// reference path (kept for the equivalence tests and the hot-path
    /// benchmarks).
    pub fast_paths: bool,
}

impl ReplayConfig {
    /// Paper-default replay on the Table 1 machine.
    pub fn paper_default() -> Self {
        let sim = SimConfig::paper_default();
        ReplayConfig {
            batch_size: sim.n_cores,
            sim,
            strex_miss_threshold: 64,
            slicc_fill_threshold: 48,
            power: PowerModel::default(),
            fast_paths: true,
        }
    }

    /// Same configuration with a different batch size (Section 4.5).
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b.max(1);
        self
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

// Thread-safety audit: the parallel sweep engine (addict-bench) shares
// replay configs and trace slices across worker threads by reference and
// sends results back to the collecting thread. These types hold plain
// owned data — keep them that way, or sweeps stop compiling here first.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<ReplayConfig>();
    shared::<ReplayResult>();
    shared::<Action>();
    shared::<Admission>();
    shared::<Cluster>();
    shared::<addict_trace::XctTrace>();
    shared::<crate::algorithm1::MigrationMap>();
};

/// The outcome of replaying one workload under one scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Transactions replayed.
    pub n_xcts: usize,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Makespan: cycles to complete all traces (Figure 6, left).
    pub total_cycles: f64,
    /// Mean per-transaction latency in cycles (Figure 6, right).
    pub avg_latency_cycles: f64,
    /// Machine counters (MPKIs for Figure 5, switches for Figure 9).
    pub stats: MachineStats,
    /// Power accounting (Figure 8(b)).
    pub power: PowerReport,
    /// Per-transaction latency in cycles, indexed by trace id (start to
    /// finish, queueing included).
    pub latencies: Vec<f64>,
    /// Speculation counters (HTMX; all-zero for the non-speculative
    /// schedulers — speculation-free replays report a zeroed block rather
    /// than an absent one so every result serializes with one shape).
    pub spec: SpecStats,
}

impl ReplayResult {
    /// Migration/context-switch overhead share of total cycles (Figure 9,
    /// right). Overhead cycles accumulate across cores, so normalize by
    /// aggregate busy time (makespan x cores).
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_cycles * self.stats.cores.len() as f64;
        if total == 0.0 {
            0.0
        } else {
            self.stats.overhead_cycles() / total
        }
    }
}

/// What a policy tells the engine to do with the pending event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Execute the event here.
    Continue,
    /// Put the thread at the back of this core's queue (context switch)
    /// and run the next queued thread.
    Yield,
    /// Move the thread to the given core's queue.
    MigrateTo(usize),
    /// Charge the thread a policy-decided stall of this many cycles, then
    /// proceed as [`Action::Continue`] (in `pre`, the event still
    /// executes). HTMX charges speculation begin/commit/abort costs,
    /// backoff, and discarded work this way; the cycles are accounted as
    /// overhead ([`Machine::stall`]).
    Stall(f64),
}

/// Scheduling policy: consulted before (`pre`) and after (`post`) each
/// event. `pre` migrations leave the event unconsumed (it executes at the
/// destination — how ADDICT gets the migration-point block fetched on its
/// assigned core); `post` decisions run after the event completed (how
/// miss-driven heuristics react).
///
/// Every policy upholds the segment contract: for **instruction events
/// that hit in the L1-I**, `pre` and `post` both return
/// [`Action::Continue`] and mutate no state — *except* at the single
/// block address reported by [`Policy::watch_addr`], where `pre` is still
/// consulted per block. Under that contract, with
/// [`ReplayConfig::fast_paths`] on, the engine executes whole instruction
/// runs inside the machine, consulting the policy only at watched blocks
/// and on misses (see [`Policy::observes_misses`]), and the replay is
/// bit-identical to per-block execution. A policy that reacts to
/// arbitrary instruction hits replays correctly only with `fast_paths`
/// off.
pub trait Policy {
    /// Decide before executing `ev` on `core`.
    fn pre(
        &mut self,
        _tid: usize,
        _ev: FlatEvent,
        _core: usize,
        _machine: &Machine,
        _cluster: &Cluster,
        _now: f64,
    ) -> Action {
        Action::Continue
    }

    /// Observe the executed event; `missed` reports an L1-I miss for
    /// instruction events.
    fn post(
        &mut self,
        _tid: usize,
        _ev: FlatEvent,
        _core: usize,
        _missed: bool,
        _machine: &Machine,
        _cluster: &Cluster,
        _now: f64,
    ) -> Action {
        Action::Continue
    }

    /// Reset per-thread state after a migration or yield completed.
    fn on_moved(&mut self, _tid: usize, _to_core: usize) {}

    /// The next instruction block at which `pre` must be consulted even if
    /// the fetch would hit (ADDICT's pending migration point). `None`
    /// means `pre` never acts on hits for this thread right now, so runs
    /// execute at full speed.
    fn watch_addr(&self, _tid: usize) -> Option<BlockAddr> {
        None
    }

    /// Opt into run-granular data execution (the data-side counterpart of
    /// the segment contract above).
    ///
    /// A policy returning `true` promises that, for **every data event**
    /// (hit or miss, load or store), its `pre` and `post` both return
    /// [`Action::Continue`] and mutate no state. Under that contract the
    /// engine gathers each run of consecutive data events and executes it
    /// whole inside the machine — private leading hits in the directory-
    /// silent fast lane, conflicting/missing blocks through the ordinary
    /// coherent path — never consulting the policy, and the replay is
    /// bit-identical to per-event execution. Policies that react to data
    /// events must keep the default `false`.
    fn data_run_granular(&self) -> bool {
        false
    }

    /// Does `post` react to instruction *misses*? Miss-driven policies
    /// (STREX, SLICC) must keep the default `true` so the segment engine
    /// stops at every miss; policies indifferent to misses (Baseline,
    /// ADDICT — whose `post` only acts on markers) return `false`, letting
    /// the machine execute entire runs, miss servicing included, without
    /// ever leaving its fast loop. Only consulted when
    /// [`ReplayConfig::fast_paths`] is on.
    fn observes_misses(&self) -> bool {
        true
    }
}

/// Per-core clocks and FIFO run queues.
#[derive(Debug)]
pub struct Cluster {
    /// Cycle at which each core finishes its current work.
    pub free_at: Vec<f64>,
    /// Queued thread ids per core.
    pub queues: Vec<VecDeque<usize>>,
    /// Cores currently executing a segment (their `free_at` is stale
    /// until the segment retires).
    pub busy: Vec<bool>,
}

impl Cluster {
    /// An idle cluster of `n` cores.
    pub fn new(n: usize) -> Self {
        Cluster {
            free_at: vec![0.0; n],
            queues: vec![VecDeque::new(); n],
            busy: vec![false; n],
        }
    }

    /// Is `core` idle right now (not mid-segment, no queue, not busy past
    /// `now`)?
    pub fn is_idle(&self, core: usize, now: f64) -> bool {
        !self.busy[core] && self.queues[core].is_empty() && self.free_at[core] <= now
    }

    /// The core among `candidates` that can start work soonest. Ties break
    /// to the lowest core id. (Bare `min_by` keeps the *first* minimum, so
    /// the winner would depend on the order the caller listed candidates
    /// in — e.g. ADDICT chains warm cores before planned cores. The
    /// explicit tie-break makes the choice a property of the cluster
    /// state alone.)
    pub fn earliest_of(&self, candidates: &[usize]) -> usize {
        let penalty = |c: usize| {
            self.free_at[c]
                + 1e4 * self.queues[c].len() as f64
                + if self.busy[c] { 1e4 } else { 0.0 }
        };
        *candidates
            .iter()
            .min_by(|&&a, &&b| {
                penalty(a)
                    .partial_cmp(&penalty(b))
                    .expect("clocks are finite")
                    .then(a.cmp(&b))
            })
            .expect("non-empty candidate list")
    }
}

#[derive(Debug)]
struct Thread {
    cursor: InternCursor,
    ready_at: f64,
    started_at: Option<f64>,
    finished_at: Option<f64>,
}

/// Group trace indexes into same-type batches of `batch_size`, preserving
/// request order (Algorithm 2 line 16-17). Returns the dispatch order.
pub fn batch_order(traces: &InternedSet<'_>, batch_size: usize) -> Vec<Vec<usize>> {
    let mut pending: Vec<(XctTypeId, Vec<usize>)> = Vec::new();
    let mut batches = Vec::new();
    for i in 0..traces.len() {
        let ty = traces.xct_type(i);
        let entry = match pending.iter_mut().find(|(t, _)| *t == ty) {
            Some(e) => e,
            None => {
                pending.push((ty, Vec::new()));
                pending.last_mut().expect("just pushed")
            }
        };
        entry.1.push(i);
        if entry.1.len() == batch_size {
            batches.push(std::mem::take(&mut entry.1));
        }
    }
    // Flush partial batches in type order of first appearance.
    for (_, rest) in pending {
        if !rest.is_empty() {
            batches.push(rest);
        }
    }
    batches
}

/// Run the discrete-event replay.
///
/// `placement(dispatch_index, xct_type)` gives each thread its initial
/// core; threads are enqueued in `order`. The policy steers everything
/// after that.
pub fn run_des<P: Policy>(
    machine: &mut Machine,
    traces: &InternedSet<'_>,
    order: &[usize],
    placement: impl Fn(usize, XctTypeId) -> usize,
    policy: &mut P,
    scheduler_name: &str,
    cfg: &ReplayConfig,
) -> ReplayResult {
    run_des_admitted(
        machine,
        traces,
        order,
        placement,
        policy,
        scheduler_name,
        cfg,
        Admission::All,
    )
}

/// Admission policy for [`run_des_admitted`].
#[derive(Debug, Clone)]
pub enum Admission {
    /// Everything dispatches immediately (Baseline, STREX).
    All,
    /// At most `inflight` transactions in flight AND batches drain before
    /// the next batch enters (ADDICT/SLICC batch semantics; `batch_of`
    /// maps dispatch index to batch id).
    BatchSerial {
        /// In-flight bound (the batch size).
        inflight: usize,
        /// Batch id per dispatch index.
        batch_of: Vec<usize>,
    },
}

/// [`run_des`] under an [`Admission`] policy. [`Admission::BatchSerial`]
/// admits at most one batch's worth of transactions at once (Section 3.2.5:
/// ADDICT "does not batch more transactions than the number of available
/// cores in the system, \[so\] it does not change the data contention
/// patterns"); [`Admission::All`] admits everything immediately (Baseline
/// dispatch, STREX's overloaded cores).
#[allow(clippy::too_many_arguments)]
pub fn run_des_admitted<P: Policy>(
    machine: &mut Machine,
    traces: &InternedSet<'_>,
    order: &[usize],
    placement: impl Fn(usize, XctTypeId) -> usize,
    policy: &mut P,
    scheduler_name: &str,
    cfg: &ReplayConfig,
    admission: Admission,
) -> ReplayResult {
    // Admission queue: (tid, initial core, batch id) in dispatch order.
    let mut pending: VecDeque<(usize, usize, usize)> = order
        .iter()
        .enumerate()
        .map(|(dispatch_idx, &tid)| {
            let batch = match &admission {
                Admission::BatchSerial { batch_of, .. } => batch_of[dispatch_idx],
                _ => 0,
            };
            (tid, placement(dispatch_idx, traces.xct_type(tid)), batch)
        })
        .collect();

    let n_cores = machine.n_cores();
    let mut cluster = Cluster::new(n_cores);
    let mut threads: Vec<Thread> = (0..traces.len())
        .map(|_| Thread {
            cursor: InternCursor::default(),
            ready_at: 0.0,
            started_at: None,
            finished_at: None,
        })
        .collect();
    let mut inflight = 0usize;
    let mut inflight_batch = 0usize; // id of the oldest in-flight batch
    let mut inflight_of_batch = 0usize;
    // Cached earliest-start per core: `free_at[c].max(ready_at[head_c])`,
    // `INFINITY` for an empty queue. The pick below is the hottest read in
    // the whole engine — once per segment — and recomputing it from the
    // queue heads touches 16 scattered `threads[tid]` entries, which fall
    // out of the host cache as soon as the workload outgrows a few hundred
    // traces (the STREX scaling falloff: an Admission::All scheduler keeps
    // every queue non-empty, so each of its ~0.6-switches-per-ki picks
    // paid 16 cold loads into a 10k-thread array). Every queue/clock
    // mutation refreshes the 1-2 cores it touched; the cached value is
    // always exactly the recomputed one, so the pick — same values, same
    // scan order, same strict-< tie-break — is bit-identical to the
    // uncached scan.
    let mut head_start: Vec<f64> = vec![f64::INFINITY; n_cores];
    let admit = |pending: &mut VecDeque<(usize, usize, usize)>,
                 cluster: &mut Cluster,
                 head_start: &mut [f64],
                 threads: &[Thread],
                 inflight: &mut usize,
                 inflight_batch: &mut usize,
                 inflight_of_batch: &mut usize| {
        loop {
            let Some(&(tid, core, batch)) = pending.front() else {
                return;
            };
            let admit_ok = match &admission {
                Admission::All => true,
                Admission::BatchSerial { inflight: max, .. } => {
                    // Batches run one after another: a new batch may
                    // only trickle in once the previous one is nearly
                    // drained, so two types' actions do not thrash
                    // each other's cores mid-batch.
                    *inflight < (*max).max(1)
                        && (batch == *inflight_batch || *inflight_of_batch * 4 <= (*max).max(1))
                }
            };
            if !admit_ok {
                return;
            }
            pending.pop_front();
            if batch != *inflight_batch {
                *inflight_batch = batch;
                *inflight_of_batch = 0;
            }
            *inflight += 1;
            *inflight_of_batch += 1;
            cluster.queues[core].push_back(tid);
            if cluster.queues[core].len() == 1 {
                head_start[core] = cluster.free_at[core].max(threads[tid].ready_at);
            }
        }
    };
    admit(
        &mut pending,
        &mut cluster,
        &mut head_start,
        &threads,
        &mut inflight,
        &mut inflight_batch,
        &mut inflight_of_batch,
    );

    let stop_on_miss = policy.observes_misses();
    let use_data_runs = cfg.fast_paths && policy.data_run_granular();
    // One run buffer for the whole replay: gather grows it to the longest
    // data run once, after which the hot loop is allocation-free.
    let mut data_run = DataRun::new();

    loop {
        // Pick the runnable queue head that can start earliest (the cached
        // per-core starts; finite = non-empty queue).
        let mut best: Option<(usize, f64)> = None;
        for (core, &start) in head_start.iter().enumerate() {
            if start.is_finite() && best.is_none_or(|(_, b)| start < b) {
                best = Some((core, start));
            }
        }
        let Some((core, start)) = best else { break };
        let tid = cluster.queues[core].pop_front().expect("non-empty queue");
        // Warm the next queued trace's storage while this segment replays.
        // At scale the resident set outgrows L2, and yield-heavy admission
        // (STREX rotates every ready trace) resumes a cold trace each
        // pick; a pure prefetch hint hides that chain without touching
        // any observable state, so bit-identity holds by construction.
        if let Some(&next) = cluster.queues[core].front() {
            traces.prefetch(next);
        }
        cluster.busy[core] = true;
        // Cores whose queue or clock this iteration touches; their cached
        // starts refresh at the bottom of the loop.
        let mut moved_to: Option<usize> = None;

        let mut now = start;
        threads[tid].started_at.get_or_insert(now);

        // Apply a policy [`Action`]: `Continue` (or a same-core migrate)
        // keeps the thread running and returns false; `Yield`/`MigrateTo`
        // charge the switch, requeue the thread, and return true so the
        // segment ends. One shared implementation for every consultation
        // site — segment-granular and per-block execution must never drift.
        macro_rules! apply_action {
            ($action:expr) => {
                match $action {
                    Action::Continue => false,
                    Action::Yield => {
                        let cost = machine.context_switch(CoreId(core));
                        now += cost;
                        threads[tid].ready_at = now;
                        cluster.queues[core].push_back(tid);
                        policy.on_moved(tid, core);
                        true
                    }
                    Action::MigrateTo(dest) if dest != core => {
                        let cost = machine.migrate(CoreId(core), CoreId(dest));
                        threads[tid].ready_at = now + cost;
                        cluster.queues[dest].push_back(tid);
                        moved_to = Some(dest);
                        policy.on_moved(tid, dest);
                        true
                    }
                    Action::MigrateTo(_) => false,
                    Action::Stall(cycles) => {
                        now += machine.stall(CoreId(core), cycles);
                        false
                    }
                }
            };
        }

        // Execute the segment. Exactly one [`InternedSet::fetch`] per step:
        // the fetch yields both the event and the run geometry needed to
        // advance, so the cursor never re-reads the trace (the old cursor
        // matched `events[idx]` up to three times per step).
        loop {
            let fetched = traces.fetch(tid, threads[tid].cursor);

            // Segment-granular fast path: under the [`Policy`] segment
            // contract, whole instruction runs execute inside the machine with the policy consulted only at
            // watched blocks (split out of the run below) and on L1-I
            // misses. Bit-identical to the per-block path.
            if cfg.fast_paths {
                if let Fetched::Run {
                    block: seg_start,
                    rem,
                    ipb,
                } = fetched
                {
                    let mut limit = rem;
                    if let Some(w) = policy.watch_addr(tid) {
                        if w.0 >= seg_start.0 && w.0 < seg_start.0 + u64::from(rem) {
                            // Execute up to (not including) the watched
                            // block; the per-block path below consults
                            // `pre` for it on the next iteration.
                            limit = (w.0 - seg_start.0) as u16;
                        }
                    }
                    if limit > 0 {
                        let out = machine.fetch_instr_run(
                            CoreId(core),
                            seg_start,
                            limit,
                            ipb,
                            now,
                            stop_on_miss,
                        );
                        now = out.now;
                        traces.advance_run(tid, &mut threads[tid].cursor, rem, out.blocks);
                        if out.missed_last {
                            let ev = FlatEvent::Instr {
                                block: BlockAddr(seg_start.0 + u64::from(out.blocks) - 1),
                                n_instr: ipb,
                            };
                            let action = policy.post(tid, ev, core, true, machine, &cluster, now);
                            if apply_action!(action) {
                                break;
                            }
                        }
                        continue;
                    }
                }
            }

            // Data-run fast path: when the policy upholds the
            // [`Policy::data_run_granular`] contract (pre/post are pure
            // `Continue` for data events), the whole run of consecutive
            // data events executes inside the machine — the gather is the
            // lazily-computed data-run view, the machine consumes private
            // leading hits without a directory transaction and routes the
            // first shared/upgraded/missing block through the ordinary
            // coherent path. Bit-identical to the per-event path.
            if use_data_runs {
                if let Fetched::Event(FlatEvent::Data { .. }) = fetched {
                    let n = traces.gather_data_run(tid, threads[tid].cursor, &mut data_run);
                    debug_assert!(n >= 1, "cursor stands at a data event");
                    now = machine.access_data_run(CoreId(core), data_run.accesses(), now);
                    traces.advance_data_run(tid, &mut threads[tid].cursor, n);
                    continue;
                }
            }

            // Per-block path: instruction runs execute one block per step
            // (`run_rem > 0` marks an in-run step; the run advances by one
            // block without re-fetching the trace).
            let (ev, run_rem) = match fetched {
                Fetched::End => {
                    threads[tid].finished_at = Some(now);
                    // A slot freed: admit whatever is allowed next.
                    inflight = inflight.saturating_sub(1);
                    inflight_of_batch = inflight_of_batch.saturating_sub(1);
                    admit(
                        &mut pending,
                        &mut cluster,
                        &mut head_start,
                        &threads,
                        &mut inflight,
                        &mut inflight_batch,
                        &mut inflight_of_batch,
                    );
                    break;
                }
                Fetched::Run { block, rem, ipb } => (
                    FlatEvent::Instr {
                        block,
                        n_instr: ipb,
                    },
                    rem,
                ),
                Fetched::Event(ev) => (ev, 0),
            };
            let pre_action = policy.pre(tid, ev, core, machine, &cluster, now);
            if let Action::MigrateTo(dest) = pre_action {
                debug_assert_ne!(dest, core, "pre-migration to the same core");
            }
            if apply_action!(pre_action) {
                // A pre-move leaves the event unconsumed: it executes at
                // the destination.
                break;
            }

            // Execute the event.
            let miss_before = machine.stats().cores[core].l1i_misses;
            let cycles = match ev {
                FlatEvent::Instr { block, n_instr } => {
                    machine.fetch_instr(CoreId(core), block, u64::from(n_instr))
                }
                FlatEvent::Data { block, write } => machine.access_data(CoreId(core), block, write),
                _ => 0.0,
            };
            now += cycles;
            if run_rem > 0 {
                traces.advance_run(tid, &mut threads[tid].cursor, run_rem, 1);
            } else {
                traces.advance_event(tid, &mut threads[tid].cursor, ev);
            }
            let missed = machine.stats().cores[core].l1i_misses > miss_before;

            let post_action = policy.post(tid, ev, core, missed, machine, &cluster, now);
            if apply_action!(post_action) {
                break;
            }
        }
        cluster.busy[core] = false;
        cluster.free_at[core] = cluster.free_at[core].max(now);
        // Refresh the cached starts of the touched cores: the executed
        // core (popped head, possibly a yield re-queue, clock advanced)
        // and a migration destination, if any. Admission refreshed its
        // own pushes inside `admit`.
        for c in std::iter::once(core).chain(moved_to) {
            head_start[c] = match cluster.queues[c].front() {
                Some(&t) => cluster.free_at[c].max(threads[t].ready_at),
                None => f64::INFINITY,
            };
        }
    }

    let total_cycles = cluster.free_at.iter().copied().fold(0.0f64, f64::max);
    let latencies: Vec<f64> = threads
        .iter()
        .map(|t| {
            t.finished_at.expect("all threads finish") - t.started_at.expect("all threads start")
        })
        .collect();
    let avg_latency_cycles = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let stats = machine.stats().clone();
    let power = cfg.power.report(&stats, total_cycles, machine.config());
    ReplayResult {
        scheduler: scheduler_name.to_owned(),
        n_xcts: traces.len(),
        instructions: stats.instructions(),
        total_cycles,
        avg_latency_cycles,
        stats,
        power,
        latencies,
        // Speculative schedulers overwrite this with their accumulated
        // counters after the run (the policy owns the speculation state).
        spec: SpecStats::default(),
    }
}

/// Intern flat test traces into a private pool: replay takes the
/// interned form only.
#[cfg(test)]
pub(crate) fn interned(traces: &[addict_trace::XctTrace]) -> addict_trace::InternedWorkload {
    addict_trace::InternedWorkload::from_flat(&addict_trace::WorkloadTrace {
        name: String::new(),
        xct_type_names: Vec::new(),
        xcts: traces.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_sim::BlockAddr;
    use addict_trace::{TraceEvent, XctTrace};

    fn mini_trace(ty: u16, base: u64) -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(ty),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(ty),
                },
                TraceEvent::Instr {
                    block: BlockAddr(base),
                    n_blocks: 4,
                    ipb: 10,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9000 + base),
                    write: false,
                },
                TraceEvent::XctEnd,
            ],
        }
    }

    struct NoopPolicy;
    impl Policy for NoopPolicy {}

    #[test]
    fn des_executes_all_events_and_reports() {
        let traces: Vec<XctTrace> = (0..8).map(|i| mini_trace(0, i * 100)).collect();
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(4),
            ..Default::default()
        };
        let mut machine = Machine::new(&cfg.sim);
        let order: Vec<usize> = (0..traces.len()).collect();
        let result = run_des(
            &mut machine,
            &interned(&traces).as_set(),
            &order,
            |i, _| i % 4,
            &mut NoopPolicy,
            "test",
            &cfg,
        );
        assert_eq!(result.n_xcts, 8);
        // 8 traces x 4 blocks x 10 instructions.
        assert_eq!(result.instructions, 320);
        assert!(result.total_cycles > 0.0);
        assert!(result.avg_latency_cycles > 0.0);
        // Round-robin over 4 cores: makespan ~ 2 threads per core; latency
        // of each thread is at most the makespan.
        assert!(result.avg_latency_cycles <= result.total_cycles);
        assert_eq!(result.stats.migrations_in(), 0);
    }

    #[test]
    fn cursor_expands_runs_in_order() {
        let traces = vec![mini_trace(0, 0x40)];
        let blocks: Vec<u64> = interned(&traces)
            .as_set()
            .flat_events(0)
            .into_iter()
            .filter_map(|ev| match ev {
                FlatEvent::Instr { block, .. } => Some(block.0),
                _ => None,
            })
            .collect();
        assert_eq!(blocks, vec![0x40, 0x41, 0x42, 0x43]);
    }

    #[test]
    fn batch_order_groups_same_type() {
        let traces: Vec<XctTrace> = [0u16, 1, 0, 0, 1, 0, 1, 1, 0]
            .iter()
            .map(|&ty| mini_trace(ty, 0))
            .collect();
        let batches = batch_order(&interned(&traces).as_set(), 3);
        // Type 0 at indexes 0,2,3 completes a batch first, then type 1 at
        // 1,4,6; the leftovers flush at the end.
        assert_eq!(batches[0], vec![0, 2, 3]);
        assert_eq!(batches[1], vec![1, 4, 6]);
        // Every index appears exactly once.
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        // Batches after the first two are the partial remainders.
        for b in &batches[2..] {
            let ty = traces[b[0]].xct_type;
            assert!(b.iter().all(|&i| traces[i].xct_type == ty));
        }
    }

    #[test]
    fn earliest_of_ties_break_to_lowest_core_id() {
        // Regression guard for the deterministic tie-break (PR 1): the
        // winner is a property of cluster state alone, independent of the
        // order the caller lists candidates in. The parallel sweep engine
        // relies on this for bit-identical 1-vs-N-thread results.
        let c = Cluster::new(4);
        assert_eq!(c.earliest_of(&[3, 1, 2]), 1);
        assert_eq!(c.earliest_of(&[2, 3, 1]), 1);
        assert_eq!(c.earliest_of(&[1, 2, 3]), 1);
        assert_eq!(c.earliest_of(&[0, 3]), 0);

        // A later clock loses even to a higher core id...
        let mut c = Cluster::new(4);
        c.free_at[1] = 10.0;
        assert_eq!(c.earliest_of(&[3, 1]), 3);
        // ...and queue depth and mid-segment busyness are penalized.
        let mut c = Cluster::new(4);
        c.queues[0].push_back(7);
        assert_eq!(c.earliest_of(&[0, 2]), 2);
        let mut c = Cluster::new(4);
        c.busy[2] = true;
        assert_eq!(c.earliest_of(&[2, 3]), 3);
        // Equal non-zero penalties still break to the lowest id.
        let mut c = Cluster::new(4);
        c.free_at[2] = 5.0;
        c.free_at[1] = 5.0;
        assert_eq!(c.earliest_of(&[2, 1]), 1);
    }

    struct YieldOncePolicy {
        yielded: Vec<bool>,
    }
    impl Policy for YieldOncePolicy {
        fn post(
            &mut self,
            tid: usize,
            ev: FlatEvent,
            _core: usize,
            _missed: bool,
            _machine: &Machine,
            _cluster: &Cluster,
            _now: f64,
        ) -> Action {
            if !self.yielded[tid] && matches!(ev, FlatEvent::Instr { .. }) {
                self.yielded[tid] = true;
                Action::Yield
            } else {
                Action::Continue
            }
        }
    }

    #[test]
    fn yield_time_multiplexes_one_core() {
        let traces: Vec<XctTrace> = (0..3).map(|i| mini_trace(0, i * 100)).collect();
        // The policy yields on an instruction hit: per-block execution only.
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(2),
            fast_paths: false,
            ..Default::default()
        };
        let mut machine = Machine::new(&cfg.sim);
        let order: Vec<usize> = (0..3).collect();
        let mut policy = YieldOncePolicy {
            yielded: vec![false; 3],
        };
        let result = run_des(
            &mut machine,
            &interned(&traces).as_set(),
            &order,
            |_, _| 0,
            &mut policy,
            "yield",
            &cfg,
        );
        // All three threads shared core 0; each yielded once.
        assert_eq!(result.stats.context_switches(), 3);
        assert_eq!(result.stats.cores[0].context_switches, 3);
        assert!(result.stats.cores[1].instructions == 0);
    }

    struct MigrateOncePolicy {
        moved: Vec<bool>,
    }
    impl Policy for MigrateOncePolicy {
        fn post(
            &mut self,
            tid: usize,
            ev: FlatEvent,
            core: usize,
            _missed: bool,
            _machine: &Machine,
            _cluster: &Cluster,
            _now: f64,
        ) -> Action {
            if !self.moved[tid] && matches!(ev, FlatEvent::Instr { .. }) {
                self.moved[tid] = true;
                Action::MigrateTo(core + 1)
            } else {
                Action::Continue
            }
        }
    }

    #[test]
    fn migration_moves_work_and_counts() {
        let traces = vec![mini_trace(0, 0)];
        // The policy migrates on an instruction hit: per-block execution only.
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(2),
            fast_paths: false,
            ..Default::default()
        };
        let mut machine = Machine::new(&cfg.sim);
        let mut policy = MigrateOncePolicy { moved: vec![false] };
        let result = run_des(
            &mut machine,
            &interned(&traces).as_set(),
            &[0],
            |_, _| 0,
            &mut policy,
            "mig",
            &cfg,
        );
        assert_eq!(result.stats.migrations_in(), 1);
        assert_eq!(result.stats.cores[1].migrations_in, 1);
        // Both cores executed instructions.
        assert!(result.stats.cores[0].instructions > 0);
        assert!(result.stats.cores[1].instructions > 0);
        assert!(result.overhead_fraction() > 0.0);
    }
}
