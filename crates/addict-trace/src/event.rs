//! The trace format: per-transaction event sequences with transaction and
//! operation markers — the "indicators to identify the transactions and
//! database operations" Algorithm 1 takes as input.

use addict_sim::BlockAddr;
use serde::{Deserialize, Serialize};

/// Workload-specific transaction type (e.g. TPC-C NewOrder). Names live in
/// [`WorkloadTrace::xct_type_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct XctTypeId(pub u16);

/// The five database operations of Section 2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// Read-only point lookup (`index probe`).
    Probe,
    /// Read-only range scan (`index scan`).
    Scan,
    /// In-place record rewrite (`update tuple`).
    Update,
    /// Record + index-entry creation (`insert tuple`).
    Insert,
    /// Record + index-entry removal (`delete tuple`).
    Delete,
}

impl OpKind {
    /// All operation kinds.
    pub const ALL: [OpKind; 5] = [
        OpKind::Probe,
        OpKind::Scan,
        OpKind::Update,
        OpKind::Insert,
        OpKind::Delete,
    ];

    /// Lower-case name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Probe => "probe",
            OpKind::Scan => "scan",
            OpKind::Update => "update",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
        }
    }
}

/// One event of a transaction's execution trace.
///
/// Instruction events are run-length encoded: a straight-line walk through
/// `n_blocks` consecutive blocks is one event, not `n_blocks` events. Use
/// [`flatten`] (or [`XctTrace::flat_events`]) to iterate block-by-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Transaction entry (the type repeats the owning trace's type).
    XctBegin {
        /// Transaction type beginning here.
        xct_type: XctTypeId,
    },
    /// Transaction exit.
    XctEnd,
    /// Database-operation entry.
    OpBegin {
        /// Operation kind.
        op: OpKind,
    },
    /// Database-operation exit.
    OpEnd {
        /// Operation kind (mirrors the matching [`TraceEvent::OpBegin`]).
        op: OpKind,
    },
    /// Sequential execution through `n_blocks` instruction blocks starting
    /// at `block`, charging `ipb` instructions per block.
    Instr {
        /// First instruction block of the run.
        block: BlockAddr,
        /// Number of consecutive blocks walked.
        n_blocks: u16,
        /// Dynamic instructions charged per block visit.
        ipb: u16,
    },
    /// One data access.
    Data {
        /// Data block touched.
        block: BlockAddr,
        /// Store (true) or load (false).
        write: bool,
    },
}

/// A block-granular view of a [`TraceEvent`] stream: instruction runs are
/// expanded to one item per block. This is what schedulers replay and what
/// Algorithm 1 consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatEvent {
    /// Transaction entry.
    XctBegin(XctTypeId),
    /// Transaction exit.
    XctEnd,
    /// Operation entry.
    OpBegin(OpKind),
    /// Operation exit.
    OpEnd(OpKind),
    /// `n_instr` instructions executed in `block`.
    Instr {
        /// Instruction block.
        block: BlockAddr,
        /// Instructions charged to this visit.
        n_instr: u16,
    },
    /// One data access.
    Data {
        /// Data block.
        block: BlockAddr,
        /// Store (true) or load (false).
        write: bool,
    },
}

/// Expand run-length-encoded events into per-block [`FlatEvent`]s.
pub fn flatten(events: &[TraceEvent]) -> impl Iterator<Item = FlatEvent> + '_ {
    events.iter().flat_map(|e| {
        // Each TraceEvent yields either one marker/data item or a run of
        // instruction blocks; model both as a small iterator.
        let (single, run): (Option<FlatEvent>, Option<(BlockAddr, u16, u16)>) = match *e {
            TraceEvent::XctBegin { xct_type } => (Some(FlatEvent::XctBegin(xct_type)), None),
            TraceEvent::XctEnd => (Some(FlatEvent::XctEnd), None),
            TraceEvent::OpBegin { op } => (Some(FlatEvent::OpBegin(op)), None),
            TraceEvent::OpEnd { op } => (Some(FlatEvent::OpEnd(op)), None),
            TraceEvent::Data { block, write } => (Some(FlatEvent::Data { block, write }), None),
            TraceEvent::Instr {
                block,
                n_blocks,
                ipb,
            } => (None, Some((block, n_blocks, ipb))),
        };
        single
            .into_iter()
            .chain(run.into_iter().flat_map(|(block, n_blocks, ipb)| {
                (0..u64::from(n_blocks)).map(move |i| FlatEvent::Instr {
                    block: BlockAddr(block.0 + i),
                    n_instr: ipb,
                })
            }))
    })
}

/// The recorded trace of one transaction instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XctTrace {
    /// Transaction type.
    pub xct_type: XctTypeId,
    /// Event sequence, bracketed by `XctBegin` / `XctEnd`.
    pub events: Vec<TraceEvent>,
}

impl XctTrace {
    /// Total dynamic instructions in the trace.
    pub fn instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Instr { n_blocks, ipb, .. } => u64::from(*n_blocks) * u64::from(*ipb),
                _ => 0,
            })
            .sum()
    }

    /// Iterate block-granular events.
    pub fn flat_events(&self) -> impl Iterator<Item = FlatEvent> + '_ {
        flatten(&self.events)
    }

    /// Iterate over the operations in the trace: `(kind, event range)`.
    /// The range covers the events strictly between `OpBegin` and `OpEnd`.
    pub fn op_slices(&self) -> Vec<(OpKind, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        let mut open: Option<(OpKind, usize)> = None;
        for (i, e) in self.events.iter().enumerate() {
            match e {
                TraceEvent::OpBegin { op } => {
                    debug_assert!(open.is_none(), "nested operations are not emitted");
                    open = Some((*op, i + 1));
                }
                TraceEvent::OpEnd { op } => {
                    let (kind, start) = open.take().expect("OpEnd without OpBegin");
                    debug_assert_eq!(kind, *op);
                    out.push((kind, start..i));
                }
                _ => {}
            }
        }
        debug_assert!(open.is_none(), "unclosed operation");
        out
    }
}

// Thread-safety audit: parallel sweeps (addict-bench) share trace slices
// across worker threads by reference for the whole grid's lifetime.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<TraceEvent>();
    shared::<FlatEvent>();
    shared::<XctTrace>();
    shared::<WorkloadTrace>();
};

/// A named batch of transaction traces (one workload run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// Workload name ("TPC-B", "TPC-C", "TPC-E").
    pub name: String,
    /// Transaction type names, indexed by [`XctTypeId`].
    pub xct_type_names: Vec<String>,
    /// The traces, in generation order.
    pub xcts: Vec<XctTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(0),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(0),
                },
                TraceEvent::Instr {
                    block: BlockAddr(1),
                    n_blocks: 1,
                    ipb: 10,
                },
                TraceEvent::OpBegin { op: OpKind::Probe },
                TraceEvent::Instr {
                    block: BlockAddr(2),
                    n_blocks: 2,
                    ipb: 6,
                },
                TraceEvent::Data {
                    block: BlockAddr(1000),
                    write: false,
                },
                TraceEvent::OpEnd { op: OpKind::Probe },
                TraceEvent::OpBegin { op: OpKind::Update },
                TraceEvent::Instr {
                    block: BlockAddr(3),
                    n_blocks: 1,
                    ipb: 8,
                },
                TraceEvent::Data {
                    block: BlockAddr(1000),
                    write: true,
                },
                TraceEvent::OpEnd { op: OpKind::Update },
                TraceEvent::XctEnd,
            ],
        }
    }

    #[test]
    fn counters() {
        let t = sample();
        assert_eq!(t.instructions(), 10 + 12 + 8);
    }

    #[test]
    fn flatten_expands_runs_in_order() {
        let t = sample();
        let flat: Vec<_> = t.flat_events().collect();
        // 11 raw events, one of which is a 2-block run -> 12 flat items.
        assert_eq!(flat.len(), 12);
        assert_eq!(flat[0], FlatEvent::XctBegin(XctTypeId(0)));
        assert_eq!(
            flat[3],
            FlatEvent::Instr {
                block: BlockAddr(2),
                n_instr: 6
            }
        );
        assert_eq!(
            flat[4],
            FlatEvent::Instr {
                block: BlockAddr(3),
                n_instr: 6
            }
        );
        assert_eq!(*flat.last().unwrap(), FlatEvent::XctEnd);
        // Instruction totals agree between the two views.
        let flat_instr: u64 = flat
            .iter()
            .map(|e| match e {
                FlatEvent::Instr { n_instr, .. } => u64::from(*n_instr),
                _ => 0,
            })
            .sum();
        assert_eq!(flat_instr, t.instructions());
    }

    #[test]
    fn op_slices_cover_operations() {
        let t = sample();
        let ops = t.op_slices();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].0, OpKind::Probe);
        assert_eq!(ops[0].1, 3..5);
        assert_eq!(ops[1].0, OpKind::Update);
        assert_eq!(ops[1].1, 7..9);
        // The slices contain only the inner events.
        let inner = &t.events[ops[0].1.clone()];
        assert!(inner
            .iter()
            .all(|e| matches!(e, TraceEvent::Instr { .. } | TraceEvent::Data { .. })));
    }

    #[test]
    fn op_names_match_paper() {
        assert_eq!(OpKind::Probe.name(), "probe");
        assert_eq!(OpKind::ALL.len(), 5);
    }
}
