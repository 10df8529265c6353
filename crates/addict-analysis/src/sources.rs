//! Where does shared data come from? (Section 2.2.2.)
//!
//! "Investigating the sources of the few, very frequently used data shows
//! that metadata information, lock manager, buffer pool structures, and
//! index root pages are commonly accessed (mostly read) across different
//! transactions."
//!
//! This analysis classifies every data block of a trace by the
//! address-space region it lives in and reports, per region: footprint,
//! access counts, read share, and how common the region's blocks are
//! across transactions — making the paper's claim checkable.

use std::collections::HashMap;

use addict_sim::BlockAddr;
use addict_trace::{layout, InternedWorkload, TraceEvent};
use serde::Serialize;

/// The data regions of the synthetic address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum DataRegion {
    /// Catalog / schema metadata.
    Metadata,
    /// Lock-manager hash buckets.
    LockTable,
    /// Buffer-pool control blocks.
    BufferPool,
    /// Log-buffer window.
    Log,
    /// Per-transaction private state (descriptors, cursors).
    XctState,
    /// Database pages (records, index nodes).
    Pages,
}

impl DataRegion {
    /// Classify a data block.
    pub fn of(block: BlockAddr) -> Option<DataRegion> {
        let b = block.0;
        if (layout::METADATA_BASE..layout::LOCK_TABLE_BASE).contains(&b) {
            Some(DataRegion::Metadata)
        } else if (layout::LOCK_TABLE_BASE..layout::BUFFERPOOL_BASE).contains(&b) {
            Some(DataRegion::LockTable)
        } else if (layout::BUFFERPOOL_BASE..layout::LOG_BASE).contains(&b) {
            Some(DataRegion::BufferPool)
        } else if (layout::LOG_BASE..layout::XCT_STATE_BASE).contains(&b) {
            Some(DataRegion::Log)
        } else if (layout::XCT_STATE_BASE..layout::PAGE_BASE).contains(&b) {
            Some(DataRegion::XctState)
        } else if b >= layout::PAGE_BASE {
            Some(DataRegion::Pages)
        } else {
            None
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DataRegion::Metadata => "metadata",
            DataRegion::LockTable => "lock table",
            DataRegion::BufferPool => "buffer pool",
            DataRegion::Log => "log buffer",
            DataRegion::XctState => "xct state",
            DataRegion::Pages => "pages",
        }
    }

    /// All regions, in report order.
    pub const ALL: [DataRegion; 6] = [
        DataRegion::Metadata,
        DataRegion::LockTable,
        DataRegion::BufferPool,
        DataRegion::Log,
        DataRegion::XctState,
        DataRegion::Pages,
    ];
}

/// Per-region statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RegionStats {
    /// Distinct blocks.
    pub footprint_blocks: usize,
    /// Total accesses.
    pub accesses: u64,
    /// Read accesses (the paper: shared data is "mostly read").
    pub reads: u64,
    /// Blocks present in at least half of the transactions.
    pub blocks_in_half_of_xcts: usize,
}

impl RegionStats {
    /// Read share of the region's accesses.
    pub fn read_share(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.reads as f64 / self.accesses as f64
        }
    }

    /// Share of the region's footprint that is common to ≥50% of
    /// transactions.
    pub fn common_share(&self) -> f64 {
        if self.footprint_blocks == 0 {
            0.0
        } else {
            self.blocks_in_half_of_xcts as f64 / self.footprint_blocks as f64
        }
    }
}

/// Classify every data access of a workload trace by region.
pub fn data_sources(trace: &InternedWorkload) -> HashMap<DataRegion, RegionStats> {
    let mut per_block: HashMap<BlockAddr, (u64, u64, usize)> = HashMap::new(); // (accesses, reads, xcts)
    for xct in &trace.xcts {
        let mut seen = std::collections::HashSet::new();
        for ev in xct.decode_slices(&trace.pool).flatten() {
            if let TraceEvent::Data { block, write } = ev {
                let e = per_block.entry(block).or_insert((0, 0, 0));
                e.0 += 1;
                if !write {
                    e.1 += 1;
                }
                if seen.insert(block) {
                    e.2 += 1;
                }
            }
        }
    }
    let half = trace.xcts.len().div_ceil(2);
    let mut out: HashMap<DataRegion, RegionStats> = HashMap::new();
    for (block, (accesses, reads, xcts)) in per_block {
        let Some(region) = DataRegion::of(block) else {
            continue;
        };
        let s = out.entry(region).or_default();
        s.footprint_blocks += 1;
        s.accesses += accesses;
        s.reads += reads;
        if xcts >= half {
            s.blocks_in_half_of_xcts += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{OpKind, WorkloadTrace, XctTrace, XctTypeId};

    fn workload() -> InternedWorkload {
        let mut xcts = Vec::new();
        for i in 0..10u64 {
            xcts.push(XctTrace {
                xct_type: XctTypeId(0),
                events: vec![
                    TraceEvent::XctBegin {
                        xct_type: XctTypeId(0),
                    },
                    TraceEvent::OpBegin { op: OpKind::Probe },
                    // Shared metadata read by everyone.
                    TraceEvent::Data {
                        block: layout::metadata_block(1),
                        write: false,
                    },
                    // Private page block per transaction.
                    TraceEvent::Data {
                        block: layout::page_block(100 + i, 0),
                        write: true,
                    },
                    // Lock bucket, written.
                    TraceEvent::Data {
                        block: layout::lock_bucket_block(5),
                        write: true,
                    },
                    TraceEvent::OpEnd { op: OpKind::Probe },
                    TraceEvent::XctEnd,
                ],
            });
        }
        InternedWorkload::from_flat(&WorkloadTrace {
            name: "t".into(),
            xct_type_names: vec!["A".into()],
            xcts,
        })
    }

    #[test]
    fn regions_classified_and_counted() {
        let s = data_sources(&workload());
        let meta = &s[&DataRegion::Metadata];
        assert_eq!(meta.footprint_blocks, 1);
        assert_eq!(meta.accesses, 10);
        assert!(
            (meta.read_share() - 1.0).abs() < 1e-9,
            "metadata is read-only"
        );
        assert!(
            (meta.common_share() - 1.0).abs() < 1e-9,
            "metadata shared by all"
        );

        let pages = &s[&DataRegion::Pages];
        assert_eq!(pages.footprint_blocks, 10);
        assert_eq!(pages.common_share(), 0.0, "record pages are private");
        assert_eq!(pages.read_share(), 0.0);

        let locks = &s[&DataRegion::LockTable];
        assert_eq!(locks.footprint_blocks, 1);
        assert!((locks.common_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn region_of_respects_layout() {
        assert_eq!(
            DataRegion::of(layout::metadata_block(0)),
            Some(DataRegion::Metadata)
        );
        assert_eq!(
            DataRegion::of(layout::lock_bucket_block(0)),
            Some(DataRegion::LockTable)
        );
        assert_eq!(
            DataRegion::of(layout::bufferpool_block(0)),
            Some(DataRegion::BufferPool)
        );
        assert_eq!(DataRegion::of(layout::log_block(0)), Some(DataRegion::Log));
        assert_eq!(
            DataRegion::of(layout::xct_state_block(1, 0)),
            Some(DataRegion::XctState)
        );
        assert_eq!(
            DataRegion::of(layout::page_block(0, 0)),
            Some(DataRegion::Pages)
        );
        assert_eq!(DataRegion::of(BlockAddr(0)), None, "code space is not data");
    }
}
