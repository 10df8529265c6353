//! Per-instance reuse analysis (Figure 3).
//!
//! Figure 3 plots, for one transaction type (or operation), the average
//! number of accesses each block receives *within one instance*, with
//! blocks ordered left-to-right by how common they are *across* instances;
//! the vertical gray line marks the blocks present in every instance. The
//! paper's observation: blocks common across instances are also the most
//! heavily reused within an instance.

use std::collections::HashMap;

use addict_sim::BlockAddr;
use addict_trace::{InternedWorkload, OpKind, XctTypeId};
use serde::{Deserialize, Serialize};

use crate::footprint::{op_instances, AccessCounts};

/// One block's position on the Figure 3 plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReusePoint {
    /// The block.
    pub block: u64,
    /// Fraction of instances touching this block (x-axis ordering).
    pub commonality: f64,
    /// Mean accesses per instance that touches it (y-axis).
    pub avg_reuse: f64,
}

/// The Figure 3 profile for one scope: instruction and data points, each
/// sorted by ascending commonality (the paper's x-axis ordering).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReuseProfile {
    /// Instruction blocks.
    pub instr: Vec<ReusePoint>,
    /// Data blocks.
    pub data: Vec<ReusePoint>,
    /// Instances analyzed.
    pub instances: usize,
}

impl ReuseProfile {
    /// Mean within-instance reuse of the blocks present in every instance
    /// versus the rest — the paper's headline comparison.
    pub fn common_vs_rest(points: &[ReusePoint]) -> (f64, f64) {
        let (mut c_sum, mut c_n, mut r_sum, mut r_n) = (0.0, 0usize, 0.0, 0usize);
        for p in points {
            if p.commonality >= 1.0 - 1e-9 {
                c_sum += p.avg_reuse;
                c_n += 1;
            } else {
                r_sum += p.avg_reuse;
                r_n += 1;
            }
        }
        (
            if c_n > 0 { c_sum / c_n as f64 } else { 0.0 },
            if r_n > 0 { r_sum / r_n as f64 } else { 0.0 },
        )
    }
}

/// Build the reuse profile for one transaction type, or for one operation
/// within it (`op = None` analyzes whole transactions, as Figure 3's
/// AccountUpdate panel; `op = Some(..)` analyzes operation instances, as
/// its insert-tuple panel).
pub fn reuse_profile(
    trace: &InternedWorkload,
    ty: XctTypeId,
    op: Option<OpKind>,
) -> Option<ReuseProfile> {
    // Per-instance access counts.
    let pool = &trace.pool;
    let mut counts: Vec<AccessCounts> = Vec::new();
    for xct in trace.xcts.iter().filter(|x| x.xct_type == ty) {
        match op {
            None => counts.push(AccessCounts::of_events(xct.decode_slices(pool).flatten())),
            Some(op) => counts.extend(op_instances(xct, pool, op).map(AccessCounts::of_events)),
        }
    }
    if counts.is_empty() {
        return None;
    }
    let n = counts.len();

    let profile = |select: fn(&AccessCounts) -> &std::collections::BTreeMap<BlockAddr, u64>| {
        let mut presence: HashMap<BlockAddr, (usize, u64)> = HashMap::new();
        for c in &counts {
            for (&b, &accesses) in select(c) {
                let e = presence.entry(b).or_insert((0, 0));
                e.0 += 1;
                e.1 += accesses;
            }
        }
        let mut points: Vec<ReusePoint> = presence
            .into_iter()
            .map(|(b, (present_in, total))| ReusePoint {
                block: b.0,
                commonality: present_in as f64 / n as f64,
                avg_reuse: total as f64 / present_in as f64,
            })
            .collect();
        points.sort_by(|a, b| {
            a.commonality
                .partial_cmp(&b.commonality)
                .expect("finite")
                .then_with(|| a.block.cmp(&b.block))
        });
        points
    };

    Some(ReuseProfile {
        instr: profile(|c| &c.instr),
        data: profile(|c| &c.data),
        instances: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{TraceEvent, WorkloadTrace, XctTrace};

    /// Instances share block 0x100 (touched 3x each) and touch a private
    /// block once.
    fn workload(n: u64) -> InternedWorkload {
        InternedWorkload::from_flat(&WorkloadTrace {
            name: "t".into(),
            xct_type_names: vec!["A".into()],
            xcts: (0..n)
                .map(|i| XctTrace {
                    xct_type: XctTypeId(0),
                    events: vec![
                        TraceEvent::XctBegin {
                            xct_type: XctTypeId(0),
                        },
                        TraceEvent::OpBegin { op: OpKind::Probe },
                        TraceEvent::Instr {
                            block: BlockAddr(0x100),
                            n_blocks: 1,
                            ipb: 5,
                        },
                        TraceEvent::Instr {
                            block: BlockAddr(0x100),
                            n_blocks: 1,
                            ipb: 5,
                        },
                        TraceEvent::Instr {
                            block: BlockAddr(0x100),
                            n_blocks: 1,
                            ipb: 5,
                        },
                        TraceEvent::Instr {
                            block: BlockAddr(0x200 + i),
                            n_blocks: 1,
                            ipb: 5,
                        },
                        TraceEvent::Data {
                            block: BlockAddr(0x900),
                            write: false,
                        },
                        TraceEvent::Data {
                            block: BlockAddr(0x900),
                            write: true,
                        },
                        TraceEvent::Data {
                            block: BlockAddr(0xA00 + i),
                            write: false,
                        },
                        TraceEvent::OpEnd { op: OpKind::Probe },
                        TraceEvent::XctEnd,
                    ],
                })
                .collect(),
        })
    }

    #[test]
    fn common_blocks_show_higher_reuse() {
        let w = workload(8);
        let p = reuse_profile(&w, XctTypeId(0), None).unwrap();
        assert_eq!(p.instances, 8);
        // The shared instruction block: commonality 1.0, reuse 3.
        let shared = p.instr.iter().find(|pt| pt.block == 0x100).unwrap();
        assert!((shared.commonality - 1.0).abs() < 1e-9);
        assert!((shared.avg_reuse - 3.0).abs() < 1e-9);
        // Private blocks: commonality 1/8, reuse 1.
        let private = p.instr.iter().find(|pt| pt.block == 0x200).unwrap();
        assert!((private.commonality - 0.125).abs() < 1e-9);
        assert!((private.avg_reuse - 1.0).abs() < 1e-9);
        // The paper's observation holds.
        let (common, rest) = ReuseProfile::common_vs_rest(&p.instr);
        assert!(common > rest);
        // Sorted ascending by commonality: last point is the shared one.
        assert_eq!(p.instr.last().unwrap().block, 0x100);
    }

    #[test]
    fn data_counted_separately() {
        let w = workload(4);
        let p = reuse_profile(&w, XctTypeId(0), None).unwrap();
        let shared = p.data.iter().find(|pt| pt.block == 0x900).unwrap();
        assert!((shared.avg_reuse - 2.0).abs() < 1e-9);
        assert_eq!(p.data.len(), 1 + 4);
    }

    #[test]
    fn op_scope_and_missing_type() {
        let w = workload(4);
        assert!(reuse_profile(&w, XctTypeId(1), None).is_none());
        let p = reuse_profile(&w, XctTypeId(0), Some(OpKind::Probe)).unwrap();
        assert_eq!(p.instances, 4);
        assert!(reuse_profile(&w, XctTypeId(0), Some(OpKind::Insert)).is_none());
    }
}
