//! ADDICT's runtime (Algorithm 2, lines 16–31): batched same-type
//! transactions enter at their type's entry core and migrate at the
//! planned migration points, with order-dependency tracking (a point fires
//! only after its predecessor in the sequence — line 25) and dynamic core
//! reassignment when the planned destination is busy (Section 3.2.3).
//!
//! Because every core now executes one cache-sized *action* of one
//! operation for every transaction in the batch, its L1-I stays resident
//! after the first (leader) transaction warms it — the source of the
//! paper's 85% L1-I miss reduction.

use addict_sim::Machine;
use addict_trace::event::FlatEvent;
use addict_trace::{InternedSet, OpKind, XctTypeId};

use crate::plan::{AssignmentPlan, Slot, XctPlan};
use crate::replay::{
    batch_order, run_des_admitted, Action, Admission, Cluster, Policy, ReplayConfig, ReplayResult,
};

#[derive(Debug, Clone, Copy, Default)]
struct ThreadState {
    current_op: Option<OpKind>,
    next_point: usize,
}

struct AddictPolicy<'a> {
    plan: &'a AssignmentPlan,
    xct_types: Vec<XctTypeId>,
    state: Vec<ThreadState>,
    n_cores: usize,
    /// Dynamic reassignment of idle cores (Section 3.2.3); off for the
    /// ablation bench.
    reassign: bool,
    /// The slot each core most recently served — its *warm* action.
    /// Reassignment is sticky: a stolen core keeps serving its new slot
    /// until demand shifts again, so its L1-I stays hot.
    last_served: Vec<Option<(XctTypeId, usize)>>,
}

// Thread-safety audit: parallel-sweep workers drive policies off the main
// thread, and the borrowed assignment plan is shared across workers.
const _: () = {
    const fn audit<T: Send + Sync>() {}
    audit::<AddictPolicy<'_>>();
    audit::<AssignmentPlan>();
};

impl<'a> AddictPolicy<'a> {
    /// The plan borrow outlives `&self` (it comes from the external plan),
    /// so callers can keep it while mutating per-thread state.
    fn xct_plan(&self, tid: usize) -> Option<&'a XctPlan> {
        let p = self.plan.of(self.xct_types[tid])?;
        (!p.fallback).then_some(p)
    }

    /// Pick a core for `slot`. Preference order:
    /// 1. an idle core already warm with this slot's action,
    /// 2. an idle planned (home) core,
    /// 3. with reassignment on: any idle core — it is *reassigned* to this
    ///    migration point and stays warm for it (Section 3.2.3),
    /// 4. the least-loaded warm-or-home core (the transaction waits in
    ///    that core's work queue — Algorithm 2 line 31).
    fn choose_core(
        &self,
        key: (XctTypeId, usize),
        slot: &Slot,
        cluster: &Cluster,
        now: f64,
    ) -> usize {
        for c in 0..self.n_cores {
            if self.last_served[c] == Some(key) && cluster.is_idle(c, now) {
                return c;
            }
        }
        for &c in &slot.cores {
            if cluster.is_idle(c, now) {
                return c;
            }
        }
        if self.reassign {
            if let Some(c) = (0..self.n_cores).find(|&c| cluster.is_idle(c, now)) {
                return c;
            }
        }
        let candidates: Vec<usize> = (0..self.n_cores)
            .filter(|&c| self.last_served[c] == Some(key))
            .chain(slot.cores.iter().copied())
            .collect();
        cluster.earliest_of(&candidates)
    }

    fn migrate_to_slot(
        &mut self,
        xct: XctTypeId,
        slot_id: usize,
        xp: &XctPlan,
        core: usize,
        cluster: &Cluster,
        now: f64,
    ) -> Action {
        let key = (xct, slot_id);
        let slot = &xp.slots[slot_id];
        if self.last_served[core] == Some(key) || slot.cores.contains(&core) {
            // The action's code is (or will be) resident right here.
            self.last_served[core] = Some(key);
            return Action::Continue;
        }
        let dest = self.choose_core(key, slot, cluster, now);
        if dest == core {
            self.last_served[core] = Some(key);
            Action::Continue
        } else {
            self.last_served[dest] = Some(key);
            Action::MigrateTo(dest)
        }
    }
}

impl Policy for AddictPolicy<'_> {
    /// Instruction events: migrate *before* executing a migration point so
    /// the point's block is fetched on its assigned core.
    fn pre(
        &mut self,
        tid: usize,
        ev: FlatEvent,
        core: usize,
        _machine: &Machine,
        cluster: &Cluster,
        now: f64,
    ) -> Action {
        let FlatEvent::Instr { block, .. } = ev else {
            return Action::Continue;
        };
        let Some(op) = self.state[tid].current_op else {
            return Action::Continue;
        };
        let Some(xp) = self.xct_plan(tid) else {
            return Action::Continue;
        };
        let Some(op_plan) = xp.ops.get(&op) else {
            return Action::Continue;
        };
        let next = self.state[tid].next_point;
        if next >= op_plan.points.len() || op_plan.points[next].addr != block {
            // Either all points fired, or this address is not the expected
            // next point (the line 25 order-dependency check: an address
            // reached before its predecessor does not trigger).
            return Action::Continue;
        }
        self.state[tid].next_point += 1;
        let slot = op_plan.points[next].slot;
        self.migrate_to_slot(self.xct_types[tid], slot, xp, core, cluster, now)
    }

    /// Markers: transaction entry and operation entry migrations happen
    /// after the (free) marker event is consumed.
    fn post(
        &mut self,
        tid: usize,
        ev: FlatEvent,
        core: usize,
        _missed: bool,
        _machine: &Machine,
        cluster: &Cluster,
        now: f64,
    ) -> Action {
        match ev {
            FlatEvent::XctBegin(_) => {
                self.state[tid] = ThreadState::default();
                let Some(xp) = self.xct_plan(tid) else {
                    return Action::Continue;
                };
                self.migrate_to_slot(self.xct_types[tid], xp.entry_slot, xp, core, cluster, now)
            }
            FlatEvent::OpBegin(op) => {
                self.state[tid] = ThreadState {
                    current_op: Some(op),
                    next_point: 0,
                };
                let Some(xp) = self.xct_plan(tid) else {
                    return Action::Continue;
                };
                let Some(op_plan) = xp.ops.get(&op) else {
                    return Action::Continue;
                };
                let slot = op_plan.entry_slot;
                self.migrate_to_slot(self.xct_types[tid], slot, xp, core, cluster, now)
            }
            FlatEvent::OpEnd(_) => {
                self.state[tid].current_op = None;
                Action::Continue
            }
            _ => Action::Continue,
        }
    }

    // `pre` acts on instruction hits only at the thread's pending migration
    // point, which `watch_addr` reports; `post` acts only on markers. Safe
    // for segment execution, and — since misses trigger nothing either —
    // whole runs (misses included) execute inside the machine.
    fn segment_granular(&self) -> bool {
        true
    }

    fn observes_misses(&self) -> bool {
        false
    }

    // Migration points are *instruction* addresses: `pre` ignores data
    // events, `post` acts only on markers, so whole data runs execute
    // inside the machine too.
    fn data_run_granular(&self) -> bool {
        true
    }

    /// The next planned migration point of `tid`'s current operation: the
    /// one address where `pre` must see the instruction stream (line 25's
    /// order dependency means *only* `points[next]` can fire — an address
    /// matching a later point is ignored, exactly as in per-block replay).
    fn watch_addr(&self, tid: usize) -> Option<addict_sim::BlockAddr> {
        let op = self.state[tid].current_op?;
        let xp = self.xct_plan(tid)?;
        let op_plan = xp.ops.get(&op)?;
        op_plan
            .points
            .get(self.state[tid].next_point)
            .map(|p| p.addr)
    }
}

/// Replay under ADDICT with the given assignment plan.
pub fn run(traces: &InternedSet<'_>, plan: &AssignmentPlan, cfg: &ReplayConfig) -> ReplayResult {
    run_with_options(traces, plan, cfg, false)
}

/// Replay with dynamic reassignment switchable (ablation).
pub fn run_with_options(
    traces: &InternedSet<'_>,
    plan: &AssignmentPlan,
    cfg: &ReplayConfig,
    reassign: bool,
) -> ReplayResult {
    let mut machine = Machine::new(&cfg.sim);
    let n_cores = cfg.sim.n_cores;
    let batches = batch_order(traces, cfg.batch_size);
    let mut order = Vec::with_capacity(traces.len());
    let mut batch_of = Vec::with_capacity(traces.len());
    // Same-type batches flow into each other; the admission gate only
    // applies when the *type* changes (a different plan takes the cores).
    let mut type_run = 0usize;
    let mut prev_type = None;
    for batch in &batches {
        let ty = traces.xct_type(batch[0]);
        if prev_type.is_some_and(|p| p != ty) {
            type_run += 1;
        }
        prev_type = Some(ty);
        for &tid in batch {
            batch_of.push(type_run);
            order.push(tid);
        }
    }

    let xct_types: Vec<XctTypeId> = (0..traces.len()).map(|i| traces.xct_type(i)).collect();
    let mut policy = AddictPolicy {
        plan,
        xct_types,
        state: vec![ThreadState::default(); traces.len()],
        n_cores,
        reassign,
        last_served: vec![None; n_cores],
    };

    // Entry placement: the type's entry-slot core, or round-robin for
    // fallback types.
    let plan_ref = plan;
    run_des_admitted(
        &mut machine,
        traces,
        &order,
        move |dispatch_idx, xct_type| match plan_ref.of(xct_type) {
            Some(xp) if !xp.fallback => xp.slots[xp.entry_slot].cores[0],
            _ => dispatch_idx % n_cores,
        },
        &mut policy,
        "ADDICT",
        cfg,
        Admission::BatchSerial {
            inflight: cfg.batch_size,
            batch_of,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::find_migration_points;
    use crate::plan::PlanConfig;
    use crate::replay::interned;
    use addict_sim::{BlockAddr, SimConfig};
    use addict_trace::{TraceEvent, XctTrace, XctTypeId};

    const XT: XctTypeId = XctTypeId(0);

    /// A transaction running two probes, each walking 600 blocks — more
    /// than one 512-block L1-I, so Algorithm 1 finds one point per probe.
    fn trace() -> XctTrace {
        let mut events = vec![TraceEvent::XctBegin { xct_type: XT }];
        for _ in 0..2 {
            events.push(TraceEvent::OpBegin { op: OpKind::Probe });
            events.push(TraceEvent::Instr {
                block: BlockAddr(0x8000),
                n_blocks: 600,
                ipb: 10,
            });
            events.push(TraceEvent::OpEnd { op: OpKind::Probe });
        }
        events.push(TraceEvent::XctEnd);
        XctTrace {
            xct_type: XT,
            events,
        }
    }

    fn cfg(cores: usize) -> ReplayConfig {
        ReplayConfig {
            sim: SimConfig::paper_default().with_cores(cores),
            ..Default::default()
        }
        .with_batch_size(cores)
    }

    fn setup(cores: usize) -> (Vec<XctTrace>, AssignmentPlan, ReplayConfig) {
        let cfg = cfg(cores);
        let profile: Vec<XctTrace> = (0..4).map(|_| trace()).collect();
        let map = find_migration_points(&profile, cfg.sim.l1i);
        let plan = AssignmentPlan::build(&map, PlanConfig::new(cores));
        let traces: Vec<XctTrace> = (0..8).map(|_| trace()).collect();
        (traces, plan, cfg)
    }

    #[test]
    fn migrates_at_planned_points() {
        let (traces, plan, cfg) = setup(4);
        let xp = plan.of(XT).unwrap();
        assert!(!xp.fallback);
        assert_eq!(xp.ops[&OpKind::Probe].points.len(), 1);
        let r = run(&interned(&traces).as_set(), &plan, &cfg);
        // Per transaction: entry + 2x (op entry + 1 point) >= 4 moves
        // every transaction after the first (the first starts on the
        // entry core already).
        assert!(
            r.stats.migrations_in() as usize >= traces.len() * 3,
            "migrations = {}",
            r.stats.migrations_in()
        );
        assert_eq!(r.stats.context_switches(), 0);
    }

    #[test]
    fn slashes_l1i_misses_versus_baseline() {
        let (traces, plan, cfg) = setup(4);
        let w = interned(&traces);
        let addict = run(&w.as_set(), &plan, &cfg);
        let base = crate::sched::baseline::run(&w.as_set(), &cfg);
        // Each probe's 600-block walk thrashes a single L1-I (512 lines)
        // every time under baseline; under ADDICT the two halves live on
        // different cores and stay resident across the batch.
        assert!(
            (addict.stats.l1i_misses() as f64) < 0.5 * base.stats.l1i_misses() as f64,
            "ADDICT {} vs baseline {}",
            addict.stats.l1i_misses(),
            base.stats.l1i_misses()
        );
    }

    /// A transaction spanning four distinct operations, each with its own
    /// code region — the realistic shape where ADDICT's pipeline spreads
    /// work across op slots.
    fn multi_op_trace() -> XctTrace {
        let mut events = vec![TraceEvent::XctBegin { xct_type: XT }];
        for (i, op) in [OpKind::Probe, OpKind::Update, OpKind::Insert, OpKind::Scan]
            .iter()
            .enumerate()
        {
            events.push(TraceEvent::OpBegin { op: *op });
            events.push(TraceEvent::Instr {
                block: BlockAddr(0x20000 + i as u64 * 0x1000),
                n_blocks: 400,
                ipb: 10,
            });
            events.push(TraceEvent::OpEnd { op: *op });
        }
        events.push(TraceEvent::XctEnd);
        XctTrace {
            xct_type: XT,
            events,
        }
    }

    #[test]
    fn total_cycles_beat_baseline_on_thrashing_workload() {
        let cfg = cfg(8);
        let profile: Vec<XctTrace> = (0..4).map(|_| multi_op_trace()).collect();
        let map = find_migration_points(&profile, cfg.sim.l1i);
        let plan = AssignmentPlan::build(&map, PlanConfig::new(8));
        let traces: Vec<XctTrace> = (0..32).map(|_| multi_op_trace()).collect();
        let w = interned(&traces);
        let addict = run(&w.as_set(), &plan, &cfg);
        let base = crate::sched::baseline::run(&w.as_set(), &cfg);
        // The 1600-block transaction thrashes any single L1-I under
        // baseline; ADDICT splits it into four resident actions.
        assert!(
            addict.stats.l1i_misses() < base.stats.l1i_misses() / 2,
            "ADDICT {} vs baseline {} misses",
            addict.stats.l1i_misses(),
            base.stats.l1i_misses()
        );
        assert!(
            addict.total_cycles < base.total_cycles,
            "ADDICT {} vs baseline {}",
            addict.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn scarce_cores_trim_points_but_still_migrate() {
        // 2 cores: the internal point is dropped, entries remain; the
        // transaction still pipelines between entry and op-entry cores.
        let (traces, plan, cfg) = setup(2);
        let xp = plan.of(XT).unwrap();
        assert!(!xp.fallback);
        assert!(xp.ops[&OpKind::Probe].points.is_empty());
        let r = run(&interned(&traces).as_set(), &plan, &cfg);
        assert!(r.stats.migrations_in() > 0);
    }

    #[test]
    fn fallback_type_runs_without_migrations() {
        // A single core cannot even host the entries: the plan falls back
        // to traditional scheduling.
        let (traces, plan, cfg) = setup(1);
        assert!(plan.of(XT).unwrap().fallback);
        let r = run(&interned(&traces).as_set(), &plan, &cfg);
        assert_eq!(r.stats.migrations_in(), 0);
    }

    #[test]
    fn order_dependency_prevents_early_firing() {
        // A trace that touches the migration-point block *before* the op
        // begins must not trigger a migration for it.
        let (profile, plan, cfg) = setup(4);
        let map_point = {
            let map = find_migration_points(&profile, cfg.sim.l1i);
            map.points(XT, OpKind::Probe).unwrap()[0]
        };
        let mut events = vec![TraceEvent::XctBegin { xct_type: XT }];
        // Touch the point's block outside any operation...
        events.push(TraceEvent::Instr {
            block: map_point,
            n_blocks: 1,
            ipb: 10,
        });
        events.push(TraceEvent::XctEnd);
        let stray = vec![XctTrace {
            xct_type: XT,
            events,
        }];
        let r = run(&interned(&stray).as_set(), &plan, &cfg);
        // Only the initial placement happens; the stray touch of the
        // migration-point address fires nothing.
        assert_eq!(r.stats.migrations_in(), 0);
    }
}
