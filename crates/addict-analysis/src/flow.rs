//! Measured Figure 1 flow-graph percentages.
//!
//! Figure 1 annotates each call edge A→B of the four database operations
//! with "X% of A's instruction footprint comes from executing B". We
//! measure the same quantity from traces: the operation's instruction
//! footprint is attributed to routines via the code map, and an edge's
//! percentage is `|footprint ∩ closure(B)| / |footprint ∩ closure(A)|`
//! over the static call graph.

use std::collections::BTreeSet;

use addict_sim::BlockAddr;
use addict_trace::codemap::{CodeMap, Routine};
use addict_trace::{InternedWorkload, OpKind};
use serde::{Deserialize, Serialize};

use crate::footprint::{op_instances, Footprint};

/// One measured edge of Figure 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowEdge {
    /// Caller (or the operation itself for top-level boxes).
    pub from: String,
    /// Callee.
    pub to: String,
    /// Measured percentage (0–100).
    pub measured_pct: f64,
    /// The paper's Figure 1 annotation, for side-by-side comparison.
    pub paper_pct: f64,
    /// Dashed in Figure 1 (conditional path)?
    pub conditional: bool,
}

/// Blocks of `footprint` owned by the call closure of `r`.
fn closure_blocks(footprint: &BTreeSet<BlockAddr>, r: Routine) -> usize {
    let map = CodeMap::global();
    let closure = map.closure(r);
    footprint
        .iter()
        .filter(|b| {
            map.routine_of(**b)
                .is_some_and(|owner| closure.contains(&owner))
        })
        .count()
}

/// Union instruction footprint of all instances of `op` in the trace
/// (Figure 1 measures over 1000 transactions of the TPC-C mix).
fn op_footprint(trace: &InternedWorkload, op: OpKind) -> BTreeSet<BlockAddr> {
    let mut union = BTreeSet::new();
    for xct in &trace.xcts {
        for events in op_instances(xct, &trace.pool, op) {
            union.extend(Footprint::of_events(events).instr);
        }
    }
    union
}

/// The Figure 1 edges of one operation, measured over the trace. Returns
/// an empty vector when the operation never ran.
pub fn op_flow(trace: &InternedWorkload, op: OpKind) -> Vec<FlowEdge> {
    use Routine::*;
    let fp = op_footprint(trace, op);
    if fp.is_empty() {
        return Vec::new();
    }
    let total = fp.len() as f64;
    let pct_of = |child: Routine, parent: Option<Routine>| -> f64 {
        let denom = match parent {
            Some(p) => closure_blocks(&fp, p) as f64,
            None => total,
        };
        if denom == 0.0 {
            0.0
        } else {
            100.0 * closure_blocks(&fp, child) as f64 / denom
        }
    };
    let edge = |from: &str, to: &str, child, parent, paper, conditional| FlowEdge {
        from: from.to_owned(),
        to: to.to_owned(),
        measured_pct: pct_of(child, parent),
        paper_pct: paper,
        conditional,
    };

    match op {
        OpKind::Probe => vec![
            edge(
                "find key",
                "lookup",
                BtreeLookup,
                Some(FindKey),
                73.0,
                false,
            ),
            edge(
                "lookup",
                "traverse",
                BtreeTraverse,
                Some(BtreeLookup),
                71.0,
                false,
            ),
            edge(
                "traverse",
                "lock",
                LockAcquire,
                Some(BtreeTraverse),
                33.5,
                false,
            ),
        ],
        OpKind::Scan => vec![
            edge(
                "index scan",
                "initialize cursor",
                InitCursor,
                None,
                75.0,
                false,
            ),
            edge("index scan", "fetch next", FetchNext, None, 25.0, false),
        ],
        OpKind::Update => vec![
            edge(
                "update tuple",
                "pin record page",
                PinRecordPage,
                None,
                40.0,
                false,
            ),
            edge("update tuple", "update page", UpdatePage, None, 46.0, false),
        ],
        OpKind::Insert => vec![
            edge(
                "insert tuple",
                "create record",
                CreateRecord,
                None,
                44.0,
                false,
            ),
            edge(
                "insert tuple",
                "create index entry",
                CreateIndexEntry,
                None,
                56.0,
                false,
            ),
            edge(
                "create record",
                "allocate page",
                AllocatePage,
                Some(CreateRecord),
                47.0,
                true,
            ),
            edge(
                "create index entry",
                "structural modification",
                StructuralModification,
                Some(CreateIndexEntry),
                65.0,
                true,
            ),
        ],
        OpKind::Delete => vec![
            edge(
                "delete tuple",
                "delete record",
                DeleteRecord,
                None,
                44.0,
                false,
            ),
            edge(
                "delete tuple",
                "delete index entry",
                DeleteIndexEntry,
                None,
                56.0,
                false,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{TraceEvent, WorkloadTrace, XctTrace, XctTypeId};

    /// Build a trace whose probe op walks the full FindKey closure.
    fn synthetic_probe_trace() -> InternedWorkload {
        let map = CodeMap::global();
        let mut events = vec![TraceEvent::XctBegin {
            xct_type: XctTypeId(0),
        }];
        events.push(TraceEvent::OpBegin { op: OpKind::Probe });
        for r in [
            Routine::FindKey,
            Routine::BtreeLookup,
            Routine::BtreeTraverse,
            Routine::BpFix,
            Routine::LatchAcquire,
            Routine::LatchRelease,
            Routine::LockAcquire,
            Routine::RecordFetch,
            Routine::TupleLayout,
        ] {
            events.push(TraceEvent::Instr {
                block: map.base(r),
                n_blocks: map.n_blocks(r) as u16,
                ipb: 10,
            });
        }
        events.push(TraceEvent::OpEnd { op: OpKind::Probe });
        events.push(TraceEvent::XctEnd);
        InternedWorkload::from_flat(&WorkloadTrace {
            name: "synthetic".into(),
            xct_type_names: vec!["T".into()],
            xcts: vec![XctTrace {
                xct_type: XctTypeId(0),
                events,
            }],
        })
    }

    #[test]
    fn probe_edges_match_the_static_ratios() {
        // With the whole closure touched, measured percentages reduce to
        // the code map's static inclusive ratios — near the paper's.
        let w = synthetic_probe_trace();
        let edges = op_flow(&w, OpKind::Probe);
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(
                (e.measured_pct - e.paper_pct).abs() < 12.0,
                "{} -> {}: measured {:.1} vs paper {:.1}",
                e.from,
                e.to,
                e.measured_pct,
                e.paper_pct
            );
        }
    }

    #[test]
    fn missing_op_yields_no_edges() {
        let w = synthetic_probe_trace();
        assert!(op_flow(&w, OpKind::Insert).is_empty());
    }

    #[test]
    fn partial_footprint_shrinks_child_share() {
        // Touch FindKey fully but only a sliver of the lookup closure.
        let map = CodeMap::global();
        let mut events = vec![TraceEvent::XctBegin {
            xct_type: XctTypeId(0),
        }];
        events.push(TraceEvent::OpBegin { op: OpKind::Probe });
        events.push(TraceEvent::Instr {
            block: map.base(Routine::FindKey),
            n_blocks: map.n_blocks(Routine::FindKey) as u16,
            ipb: 10,
        });
        events.push(TraceEvent::Instr {
            block: map.base(Routine::BtreeLookup),
            n_blocks: 4,
            ipb: 10,
        });
        events.push(TraceEvent::OpEnd { op: OpKind::Probe });
        events.push(TraceEvent::XctEnd);
        let w = InternedWorkload::from_flat(&WorkloadTrace {
            name: "s".into(),
            xct_type_names: vec!["T".into()],
            xcts: vec![XctTrace {
                xct_type: XctTypeId(0),
                events,
            }],
        });
        let edges = op_flow(&w, OpKind::Probe);
        let lookup = &edges[0];
        // 4 of (64 + 4) blocks ~ 5.9%.
        assert!(lookup.measured_pct < 10.0, "{}", lookup.measured_pct);
    }
}
