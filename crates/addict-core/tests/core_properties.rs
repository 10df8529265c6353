//! Property-based tests for Algorithm 1, the assignment plan, and the
//! replay engine's conservation laws.

use addict_core::algorithm1::{find_migration_points_interned, MigrationMap};
use addict_core::plan::{AssignmentPlan, PlanConfig};
use addict_core::replay::ReplayConfig;
use addict_core::sched::{run_scheduler, SchedulerKind};
use addict_sim::{BlockAddr, CacheGeometry, SimConfig};
use addict_trace::event::FlatEvent;
use addict_trace::{InternedWorkload, OpKind, TraceEvent, WorkloadTrace, XctTrace, XctTypeId};
use proptest::prelude::*;

/// Algorithm 1 over generated flat traces, interned into a private pool.
fn find_migration_points(traces: &[XctTrace], l1i: CacheGeometry) -> MigrationMap {
    let profile = InternedWorkload::from_flat(&WorkloadTrace {
        name: String::new(),
        xct_type_names: Vec::new(),
        xcts: traces.to_vec(),
    });
    find_migration_points_interned(profile.as_set(), l1i)
}

/// A generated transaction: per op, a walk length (blocks).
fn arb_trace() -> impl Strategy<Value = XctTrace> {
    let op = prop_oneof![
        Just(OpKind::Probe),
        Just(OpKind::Scan),
        Just(OpKind::Update),
        Just(OpKind::Insert),
    ];
    (
        0u16..3,
        prop::collection::vec((op, 1u16..60, 0u64..4), 1..6),
    )
        .prop_map(|(ty, ops)| {
            let mut events = vec![TraceEvent::XctBegin {
                xct_type: XctTypeId(ty),
            }];
            for (kind, blocks, base_sel) in ops {
                events.push(TraceEvent::OpBegin { op: kind });
                events.push(TraceEvent::Instr {
                    block: BlockAddr(0x1000 + base_sel * 0x80),
                    n_blocks: blocks,
                    ipb: 8,
                });
                events.push(TraceEvent::OpEnd { op: kind });
            }
            events.push(TraceEvent::XctEnd);
            XctTrace {
                xct_type: XctTypeId(ty),
                events,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Algorithm 1's chosen sequence is always one of the observed
    /// candidate sequences, and candidate counts sum to the op frequency.
    #[test]
    fn algorithm1_chooses_observed_sequences(traces in prop::collection::vec(arb_trace(), 1..24)) {
        let l1i = CacheGeometry::new(16 * 64, 2); // tiny: evictions happen
        let map = find_migration_points(&traces, l1i);
        for xct in map.xct_types() {
            for op in map.ops_of(xct) {
                let chosen = map.points(xct, op).expect("chosen for profiled op");
                let candidates = map.candidates(xct, op).expect("candidates recorded");
                prop_assert!(candidates.contains_key(chosen));
                let max = candidates.values().max().copied().unwrap_or(0);
                prop_assert_eq!(candidates[chosen], max, "chosen must be most frequent");
                let total: u64 = candidates.values().sum();
                prop_assert_eq!(total, map.frequency(xct, op));
            }
        }
    }

    /// The scan is deterministic: profiling the same trace twice records
    /// the same candidate sequences and choices.
    #[test]
    fn scan_is_deterministic(trace in arb_trace()) {
        let l1i = CacheGeometry::new(16 * 64, 2);
        let (ty, traces) = (trace.xct_type, [trace]);
        let [a, b] = [(); 2].map(|()| find_migration_points(&traces, l1i));
        prop_assert_eq!(a.ops_of(ty), b.ops_of(ty));
        for op in a.ops_of(ty) {
            prop_assert_eq!(a.candidates(ty, op), b.candidates(ty, op));
            prop_assert_eq!(a.points(ty, op), b.points(ty, op));
        }
    }

    /// Plans are well-formed for any core count: every non-fallback slot
    /// has at least one core, all core ids are in range, and a slot's
    /// replicas are distinct.
    #[test]
    fn plans_are_well_formed(
        traces in prop::collection::vec(arb_trace(), 4..24),
        n_cores in 1usize..24,
    ) {
        let l1i = CacheGeometry::new(16 * 64, 2);
        let map = find_migration_points(&traces, l1i);
        let plan = AssignmentPlan::build(&map, PlanConfig::new(n_cores));
        for ty in plan.types() {
            let xp = plan.of(ty).expect("typed plan");
            if xp.fallback {
                continue;
            }
            for (i, slot) in xp.slots.iter().enumerate() {
                prop_assert!(!slot.cores.is_empty(), "slot {i} without cores");
                let mut c = slot.cores.clone();
                c.sort_unstable();
                c.dedup();
                prop_assert_eq!(c.len(), slot.cores.len(), "duplicate replica cores");
                prop_assert!(slot.cores.iter().all(|&x| x < n_cores));
            }
            // Point order is preserved from the chosen sequence.
            for op in map.ops_of(ty) {
                let chosen = map.points(ty, op).expect("profiled");
                if let Some(op_plan) = xp.ops.get(&op) {
                    let planned: Vec<_> = op_plan.points.iter().map(|p| p.addr).collect();
                    prop_assert!(
                        planned.iter().eq(chosen.iter().take(planned.len())),
                        "points must be a prefix of the chosen sequence"
                    );
                }
            }
        }
    }

    /// Replay conservation: every scheduler executes exactly the traced
    /// instructions, finishes every transaction, and produces finite,
    /// positive clocks.
    #[test]
    fn replay_conserves_work(
        traces in prop::collection::vec(arb_trace(), 1..16),
        cores in 2usize..8,
    ) {
        let cfg = ReplayConfig {
            sim: SimConfig::paper_default().with_cores(cores),
            ..ReplayConfig::paper_default()
        }
        .with_batch_size(cores);
        let expected: u64 = traces.iter().map(|t| t.instructions()).sum();
        let map = find_migration_points(&traces, cfg.sim.l1i);
        let eval = InternedWorkload::from_flat(&WorkloadTrace {
            name: String::new(),
            xct_type_names: Vec::new(),
            xcts: traces.clone(),
        });
        for kind in SchedulerKind::ALL {
            let r = run_scheduler(kind, &eval.as_set(), Some(&map), &cfg);
            prop_assert_eq!(r.instructions, expected, "{} lost instructions", r.scheduler);
            prop_assert_eq!(r.n_xcts, traces.len());
            prop_assert!(r.total_cycles.is_finite() && r.total_cycles >= 0.0);
            prop_assert!(r.avg_latency_cycles.is_finite() && r.avg_latency_cycles >= 0.0);
            // L1-I accesses: one per block visit, across all schedulers.
            let visits = traces
                .iter()
                .flat_map(XctTrace::flat_events)
                .filter(|e| matches!(e, FlatEvent::Instr { .. }))
                .count() as u64;
            prop_assert_eq!(r.stats.l1i_accesses(), visits);
        }
    }
}
