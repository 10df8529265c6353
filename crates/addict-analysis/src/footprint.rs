//! Footprint extraction: the unique instruction and data blocks touched by
//! a span of trace events, plus per-block access counts.
//!
//! These are the primitives the Section 2 characterization builds on:
//! Figure 2 compares footprints *across* instances, Figure 3 counts
//! accesses *within* one instance. An instance is a whole transaction
//! (all of a trace's decoded slices) or one operation (one slice that
//! opens with `OpBegin`).

use std::collections::{BTreeMap, BTreeSet};

use addict_sim::BlockAddr;
use addict_trace::{InternedTrace, OpKind, SlicePool, TraceEvent};

/// The unique blocks touched by some span of execution, split by kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Unique instruction blocks.
    pub instr: BTreeSet<BlockAddr>,
    /// Unique data blocks.
    pub data: BTreeSet<BlockAddr>,
}

impl Footprint {
    /// Footprint of a span of events.
    pub fn of_events(events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut fp = Footprint::default();
        for e in events {
            match e {
                TraceEvent::Instr {
                    block, n_blocks, ..
                } => {
                    for i in 0..u64::from(n_blocks) {
                        fp.instr.insert(BlockAddr(block.0 + i));
                    }
                }
                TraceEvent::Data { block, .. } => {
                    fp.data.insert(block);
                }
                _ => {}
            }
        }
        fp
    }
}

/// Per-block access counts over a span of events (Figure 3's "average reuse
/// count" numerator).
#[derive(Debug, Clone, Default)]
pub struct AccessCounts {
    /// Accesses per instruction block.
    pub instr: BTreeMap<BlockAddr, u64>,
    /// Accesses per data block.
    pub data: BTreeMap<BlockAddr, u64>,
}

impl AccessCounts {
    /// Count accesses in a span of events.
    pub fn of_events(events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut c = AccessCounts::default();
        for e in events {
            match e {
                TraceEvent::Instr {
                    block, n_blocks, ..
                } => {
                    for i in 0..u64::from(n_blocks) {
                        *c.instr.entry(BlockAddr(block.0 + i)).or_insert(0) += 1;
                    }
                }
                TraceEvent::Data { block, .. } => *c.data.entry(block).or_insert(0) += 1,
                _ => {}
            }
        }
        c
    }
}

/// The instances of `op` in one trace, decoded. The interner cuts a slice
/// before every `OpBegin` and after every `OpEnd`, so each slice that opens
/// with `OpBegin { op }` is exactly one instance, markers included.
pub(crate) fn op_instances<'a>(
    trace: &'a InternedTrace,
    pool: &'a SlicePool,
    op: OpKind,
) -> impl Iterator<Item = Vec<TraceEvent>> + 'a {
    trace
        .decode_slices(pool)
        .filter(move |s| s.first() == Some(&TraceEvent::OpBegin { op }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::XctTypeId;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::XctBegin {
                xct_type: XctTypeId(0),
            },
            TraceEvent::Instr {
                block: BlockAddr(10),
                n_blocks: 1,
                ipb: 5,
            },
            TraceEvent::Instr {
                block: BlockAddr(10),
                n_blocks: 2,
                ipb: 5,
            },
            TraceEvent::OpBegin { op: OpKind::Probe },
            TraceEvent::Data {
                block: BlockAddr(100),
                write: false,
            },
            TraceEvent::Data {
                block: BlockAddr(100),
                write: true,
            },
            TraceEvent::Data {
                block: BlockAddr(101),
                write: false,
            },
            TraceEvent::OpEnd { op: OpKind::Probe },
            TraceEvent::XctEnd,
        ]
    }

    #[test]
    fn footprint_deduplicates() {
        let fp = Footprint::of_events(events());
        assert_eq!(fp.instr.len(), 2);
        assert_eq!(fp.data.len(), 2);
    }

    #[test]
    fn counts_accumulate_per_block() {
        let c = AccessCounts::of_events(events());
        assert_eq!(c.instr[&BlockAddr(10)], 2);
        assert_eq!(c.instr[&BlockAddr(11)], 1);
        assert_eq!(c.data[&BlockAddr(100)], 2);
    }

    #[test]
    fn empty_span_is_empty() {
        let fp = Footprint::of_events([]);
        assert!(fp.instr.is_empty() && fp.data.is_empty());
    }
}
