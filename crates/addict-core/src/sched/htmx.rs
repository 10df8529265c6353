//! HTMX: bounded speculative (HTM-style) transaction execution over the
//! MESI directory (beyond the paper; ROADMAP "HTM-style speculative
//! scheduler family", after the bounded read/write-set HTM of PAPERS.md
//! arxiv 2510.15888).
//!
//! Placement is Baseline's — one core per transaction, no movement — but
//! every transaction runs inside a bounded speculative region: the
//! [`Speculation`] subsystem tracks its read/write sets as fixed-width
//! bitmask windows, and conflicts are detected by peeking the
//! [`CoherenceAction`](addict_sim::CoherenceAction) each data access is
//! about to produce on the directory and dooming the windows of its
//! victims. An aborted region retries with linear backoff up to
//! [`SpecConfig::max_retries`] times, then completes on a non-speculative
//! fallback path.
//!
//! Trace replay cannot rewind, so aborts are modeled in **time**: the
//! replay continues forward as the retry, and the abort charges the
//! cycles the dead attempt had accumulated (the discarded work), the
//! abort cost, and the backoff as a policy stall ([`Action::Stall`]).
//! Window contents of the aborted prefix are *not* re-tracked by the
//! retry — the retry's window starts at the abort point — a deliberate
//! approximation that keeps the replay single-pass while still charging
//! every discarded cycle.
//!
//! The policy acts only on `XctBegin` / `XctEnd` / `Data` events and
//! never on instruction fetches, so it upholds the
//! [`Policy::segment_granular`] contract trivially (instruction runs
//! execute at full speed inside the machine); it must keep
//! [`Policy::data_run_granular`] off because every data event feeds the
//! conflict oracle.

use addict_sim::{AbortCause, Machine, SpecConfig, Speculation};
use addict_trace::event::FlatEvent;
use addict_trace::InternedSet;

use crate::replay::{run_des, Action, Cluster, Policy, ReplayConfig, ReplayResult};

/// Where a core's current transaction stands in the speculation
/// lifecycle. Per-core (not per-thread) state is sound because HTMX
/// never yields or migrates: a thread occupies its core from `XctBegin`
/// to `XctEnd`, exactly the lifetime of the core's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Between transactions.
    Idle,
    /// Speculating: `attempts` aborted tries so far (the region's start
    /// cycle lives in the speculation window itself).
    Spec { attempts: u32 },
    /// Retries exhausted; the rest of this transaction runs
    /// non-speculatively (it still feeds the conflict oracle).
    Fallback,
}

/// The HTMX policy: per-core speculation windows plus lifecycle state.
struct HtmxPolicy {
    spec: Speculation,
    modes: Vec<Mode>,
}

// Thread-safety audit: each parallel-sweep worker constructs its own
// policy, so policies must be safe to create and drive off the main thread.
const _: () = {
    const fn audit<T: Send + Sync>() {}
    audit::<HtmxPolicy>();
};

impl HtmxPolicy {
    fn new(n_cores: usize, cfg: SpecConfig) -> Self {
        HtmxPolicy {
            spec: Speculation::new(n_cores, cfg),
            modes: vec![Mode::Idle; n_cores],
        }
    }

    /// Abort `core`'s region at effective cycle `t` for `cause`, choosing
    /// retry or fallback. Returns the stall to charge: discarded work +
    /// abort cost (+ linear backoff before a retry). A retry's region
    /// begins after the whole penalty — re-executing the discarded prefix
    /// is modeled as that stall, and moving the region start past it lets
    /// a backed-off retry escape the conflicting window's lifetime.
    fn handle_abort(&mut self, core: usize, cause: AbortCause, t: f64, machine: &Machine) -> f64 {
        let Mode::Spec { attempts } = self.modes[core] else {
            unreachable!("abort outside a speculative region");
        };
        let discarded = (t - self.spec.region_start(core)).max(0.0);
        let abort_cost = machine.timing().htm_abort();
        self.spec.abort(core, cause, t);
        if attempts < self.spec.config().max_retries {
            self.spec.note_retry(discarded);
            let backoff = abort_cost * f64::from(attempts + 1);
            let penalty = discarded + abort_cost + backoff;
            self.spec.begin(core, t + penalty);
            self.modes[core] = Mode::Spec {
                attempts: attempts + 1,
            };
            penalty
        } else {
            self.spec.note_fallback(discarded);
            self.modes[core] = Mode::Fallback;
            discarded + abort_cost
        }
    }
}

impl Policy for HtmxPolicy {
    fn pre(
        &mut self,
        _tid: usize,
        ev: FlatEvent,
        core: usize,
        machine: &Machine,
        _cluster: &Cluster,
        now: f64,
    ) -> Action {
        match ev {
            FlatEvent::XctBegin(_) => {
                self.spec.begin(core, now);
                self.modes[core] = Mode::Spec { attempts: 0 };
                Action::Stall(machine.timing().htm_begin())
            }
            FlatEvent::Data { block, write } => {
                if self.modes[core] == Mode::Idle {
                    // Data outside a transaction (malformed trace):
                    // execute non-speculatively.
                    return Action::Continue;
                }
                // Peek the coherence action this access is about to
                // produce — speculative and fallback accesses alike feed
                // the conflict oracle.
                let dir = machine.hierarchy().directory();
                let action = if write {
                    dir.peek_write(core, block)
                } else {
                    dir.peek_read(core, block)
                };
                // Holder side: doom any concurrently active victims (a
                // no-op under segment-serial replay, where only one window
                // is ever open at a consultation, but kept so the policy
                // stays correct under a preemptive engine).
                self.spec.observe_action(core, block, &action);
                // Requester side: abort-and-retry until this access is
                // conflict-free (each backoff moves the region past more
                // of the conflicting window's lifetime) or we fall back.
                let mut stall = 0.0;
                while matches!(self.modes[core], Mode::Spec { .. }) {
                    let t = now + stall;
                    if self.spec.is_doomed(core)
                        || self.spec.conflicts(core, block, write, t, &action)
                    {
                        stall += self.handle_abort(core, AbortCause::Conflict, t, machine);
                        continue;
                    }
                    match self.spec.record_access(core, block, write) {
                        Ok(()) => break,
                        Err(cause) => {
                            // Capacity: the retry's fresh window records
                            // this access on the next loop iteration.
                            stall += self.handle_abort(core, cause, t, machine);
                        }
                    }
                }
                if stall > 0.0 {
                    Action::Stall(stall)
                } else {
                    Action::Continue
                }
            }
            FlatEvent::XctEnd => {
                let action = match self.modes[core] {
                    Mode::Spec { .. } => {
                        if self.spec.is_doomed(core) {
                            // Doomed with nothing left to re-execute: the
                            // completion stands in for the fallback rerun.
                            let discarded = (now - self.spec.region_start(core)).max(0.0);
                            self.spec.abort(core, AbortCause::Conflict, now);
                            self.spec.note_fallback(discarded);
                            Action::Stall(discarded + machine.timing().htm_abort())
                        } else {
                            self.spec.commit(core, now);
                            Action::Stall(machine.timing().htm_commit())
                        }
                    }
                    _ => Action::Continue,
                };
                self.modes[core] = Mode::Idle;
                action
            }
            // Instruction fetches and operation markers are invisible to
            // speculation — the segment-granular purity contract.
            _ => Action::Continue,
        }
    }

    // Instruction hits and misses are never consulted: whole runs execute
    // inside the machine.
    fn segment_granular(&self) -> bool {
        true
    }

    fn observes_misses(&self) -> bool {
        false
    }

    // Every data event must reach `pre` (peek + record): the data-run
    // fast lane would bypass the conflict oracle.
    fn data_run_granular(&self) -> bool {
        false
    }
}

/// Replay under HTMX speculation with the default [`SpecConfig`].
pub fn run(traces: &InternedSet<'_>, cfg: &ReplayConfig) -> ReplayResult {
    run_with(traces, cfg, SpecConfig::default())
}

/// [`run`] with explicit speculation knobs (tests and ablations).
pub fn run_with(
    traces: &InternedSet<'_>,
    cfg: &ReplayConfig,
    spec_cfg: SpecConfig,
) -> ReplayResult {
    let mut machine = Machine::new(&cfg.sim);
    let n_cores = cfg.sim.n_cores;
    let order: Vec<usize> = (0..traces.len()).collect();
    let mut policy = HtmxPolicy::new(n_cores, spec_cfg);
    let mut result = run_des(
        &mut machine,
        traces,
        &order,
        |i, _| i % n_cores,
        &mut policy,
        "HTMX",
        cfg,
    );
    result.spec = *policy.spec.stats();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::interned;
    use addict_sim::{BlockAddr, SimConfig};
    use addict_trace::{TraceEvent, XctTrace, XctTypeId};

    fn xct(data: &[(u64, bool)]) -> XctTrace {
        let mut events = vec![
            TraceEvent::XctBegin {
                xct_type: XctTypeId(0),
            },
            TraceEvent::Instr {
                block: BlockAddr(0x1000),
                n_blocks: 4,
                ipb: 10,
            },
        ];
        events.extend(data.iter().map(|&(b, w)| TraceEvent::Data {
            block: BlockAddr(b),
            write: w,
        }));
        events.push(TraceEvent::XctEnd);
        XctTrace {
            xct_type: XctTypeId(0),
            events,
        }
    }

    fn cfg(cores: usize) -> ReplayConfig {
        ReplayConfig {
            sim: SimConfig::paper_default().with_cores(cores),
            ..Default::default()
        }
    }

    /// Every replay upholds the speculation ledger: each opened region
    /// ends in exactly one commit or abort, and each transaction ends in
    /// exactly one commit or fallback completion.
    fn assert_ledger(r: &ReplayResult) {
        let s = &r.spec;
        assert_eq!(s.begins, s.commits + s.aborts(), "begins ledger: {s:?}");
        assert_eq!(
            s.commits + s.fallbacks,
            r.n_xcts as u64,
            "terminal ledger: {s:?}"
        );
        assert_eq!(s.aborts(), s.retries + s.fallbacks, "abort ledger: {s:?}");
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        // Each core touches its own lines: no conflicts, no aborts.
        let traces: Vec<XctTrace> = (0..8)
            .map(|i| xct(&[(0x9000 + i * 0x100, true), (0x9001 + i * 0x100, false)]))
            .collect();
        let r = run(&interned(&traces).as_set(), &cfg(4));
        assert_eq!(r.scheduler, "HTMX");
        assert_eq!(r.n_xcts, 8);
        assert_eq!(r.spec.commits, 8);
        assert_eq!(r.spec.aborts(), 0);
        assert_eq!(r.spec.fallbacks, 0);
        assert_eq!(r.spec.discarded_cycles, 0.0);
        assert_ledger(&r);
        // Baseline placement: no migrations, no context switches; the
        // begin/commit costs show up as overhead.
        assert_eq!(r.stats.migrations_in(), 0);
        assert_eq!(r.stats.context_switches(), 0);
        assert!(r.stats.overhead_cycles() > 0.0);
    }

    #[test]
    fn contended_writes_cause_conflict_aborts() {
        // Every transaction writes the same line from a different core:
        // later writers doom earlier speculators.
        let traces: Vec<XctTrace> = (0..12)
            .map(|_| {
                xct(&[
                    (0x9000, true),
                    (0x9040, false),
                    (0x9080, false),
                    (0x90c0, false),
                    (0x9000, true),
                ])
            })
            .collect();
        let r = run(&interned(&traces).as_set(), &cfg(4));
        assert!(
            r.spec.aborts_conflict > 0,
            "contended writes must conflict: {:?}",
            r.spec
        );
        assert!(r.spec.discarded_cycles > 0.0);
        assert_ledger(&r);
    }

    #[test]
    fn oversized_windows_capacity_abort_then_fall_back() {
        // One transaction touching more distinct lines than the window
        // fits: capacity aborts burn the retry budget, then fallback.
        let lines: Vec<(u64, bool)> = (0..10u64).map(|i| (0xa000 + i * 0x40, false)).collect();
        let traces = vec![xct(&lines)];
        let spec_cfg = SpecConfig {
            capacity: 4,
            max_retries: 1,
        };
        let r = run_with(&interned(&traces).as_set(), &cfg(2), spec_cfg);
        assert!(r.spec.aborts_capacity >= 1, "{:?}", r.spec);
        assert_eq!(r.spec.fallbacks, 1);
        assert_eq!(r.spec.commits, 0);
        assert_eq!(r.spec.retries, 1);
        assert_ledger(&r);
    }

    #[test]
    fn zero_retries_fall_back_on_first_abort() {
        let lines: Vec<(u64, bool)> = (0..6u64).map(|i| (0xb000 + i * 0x40, true)).collect();
        let traces = vec![xct(&lines), xct(&lines)];
        let spec_cfg = SpecConfig {
            capacity: 2,
            max_retries: 0,
        };
        let r = run_with(&interned(&traces).as_set(), &cfg(2), spec_cfg);
        assert_eq!(r.spec.retries, 0);
        assert_eq!(r.spec.fallbacks, 2);
        assert_ledger(&r);
    }

    #[test]
    fn speculation_costs_time_against_baseline() {
        // Same traces under Baseline and HTMX: identical placement, so
        // HTMX's extra cycles are exactly its speculation stalls.
        let traces: Vec<XctTrace> = (0..8)
            .map(|i| xct(&[(0x9000 + i * 0x100, true), (0x9040 + i * 0x100, false)]))
            .collect();
        let c = cfg(4);
        let w = interned(&traces);
        let base = crate::sched::baseline::run(&w.as_set(), &c);
        let htm = run(&w.as_set(), &c);
        assert!(htm.total_cycles > base.total_cycles);
        assert_eq!(htm.instructions, base.instructions);
        assert_eq!(base.spec.begins, 0, "baseline must not speculate");
    }
}
