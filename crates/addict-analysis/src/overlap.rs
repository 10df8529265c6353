//! Footprint-overlap analysis (Figure 2).
//!
//! For a set of execution *instances* (whole transactions of a mix, the
//! transactions of one type, or the invocations of one database
//! operation), each cache block in the combined footprint appears in some
//! fraction of the instances. Figure 2 buckets the combined footprint by
//! that appearance frequency: `[0,30)`, `[30,60)`, `[60,90)`, `[90,100)`,
//! and exactly `100%`.

use std::collections::HashMap;

use addict_sim::BlockAddr;
use addict_trace::{InternedWorkload, OpKind, XctTypeId};
use serde::{Deserialize, Serialize};

use crate::footprint::{op_instances, Footprint};

/// Which instances to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapScope {
    /// Every transaction of the mix (Figure 2's "mix" pies).
    Mix,
    /// Transactions of one type (e.g. NewOrder).
    XctType(XctTypeId),
    /// Invocations of one operation across the whole mix.
    Op(OpKind),
    /// Invocations of one operation within one transaction type.
    OpInType(XctTypeId, OpKind),
}

/// Share of the combined footprint per appearance-frequency bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapHistogram {
    /// Shares for `[0,30)`, `[30,60)`, `[60,90)`, `[90,100)`, `100`; they
    /// sum to 1 (for a non-empty footprint).
    pub buckets: [f64; 5],
    /// Number of instances compared.
    pub instances: usize,
    /// Combined footprint size in blocks.
    pub footprint_blocks: usize,
}

impl OverlapHistogram {
    /// Share of the footprint present in at least `threshold` (0..=1) of
    /// the instances. `common_share(0.9)` is the paper's "90%+ overlap".
    pub fn common_share(&self, threshold: f64) -> f64 {
        let mut share = 0.0;
        let bounds = [0.0, 0.3, 0.6, 0.9, 1.0];
        for (i, &lo) in bounds.iter().enumerate() {
            if lo >= threshold - 1e-12 {
                share += self.buckets[i];
            }
        }
        share
    }

    fn from_counts(counts: &HashMap<BlockAddr, usize>, n: usize) -> Self {
        let mut buckets = [0usize; 5];
        for &c in counts.values() {
            let f = c as f64 / n as f64;
            let idx = if c == n {
                4
            } else if f >= 0.9 {
                3
            } else if f >= 0.6 {
                2
            } else if f >= 0.3 {
                1
            } else {
                0
            };
            buckets[idx] += 1;
        }
        let total = counts.len().max(1) as f64;
        OverlapHistogram {
            buckets: buckets.map(|b| b as f64 / total),
            instances: n,
            footprint_blocks: counts.len(),
        }
    }
}

/// Collect the per-instance footprints for a scope.
fn instance_footprints(trace: &InternedWorkload, scope: OverlapScope) -> Vec<Footprint> {
    let (ty, op) = match scope {
        OverlapScope::Mix => (None, None),
        OverlapScope::XctType(ty) => (Some(ty), None),
        OverlapScope::Op(op) => (None, Some(op)),
        OverlapScope::OpInType(ty, op) => (Some(ty), Some(op)),
    };
    let pool = &trace.pool;
    let mut out = Vec::new();
    for xct in &trace.xcts {
        if ty.is_some_and(|ty| xct.xct_type != ty) {
            continue;
        }
        match op {
            None => out.push(Footprint::of_events(xct.decode_slices(pool).flatten())),
            Some(op) => out.extend(op_instances(xct, pool, op).map(Footprint::of_events)),
        }
    }
    out
}

/// Compute the instruction and data overlap histograms for a scope.
/// Returns `None` when the scope has no instances.
pub fn overlap_histogram(
    trace: &InternedWorkload,
    scope: OverlapScope,
) -> Option<(OverlapHistogram, OverlapHistogram)> {
    let footprints = instance_footprints(trace, scope);
    if footprints.is_empty() {
        return None;
    }
    let n = footprints.len();
    let mut instr: HashMap<BlockAddr, usize> = HashMap::new();
    let mut data: HashMap<BlockAddr, usize> = HashMap::new();
    for fp in &footprints {
        for &b in &fp.instr {
            *instr.entry(b).or_insert(0) += 1;
        }
        for &b in &fp.data {
            *data.entry(b).or_insert(0) += 1;
        }
    }
    Some((
        OverlapHistogram::from_counts(&instr, n),
        OverlapHistogram::from_counts(&data, n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{TraceEvent, WorkloadTrace, XctTrace};

    fn xct(ty: u16, instr_base: u64, data_base: u64) -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(ty),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(ty),
                },
                TraceEvent::OpBegin { op: OpKind::Probe },
                // 10 shared blocks + 10 instance-specific ones.
                TraceEvent::Instr {
                    block: BlockAddr(0x100),
                    n_blocks: 10,
                    ipb: 10,
                },
                TraceEvent::Instr {
                    block: BlockAddr(instr_base),
                    n_blocks: 10,
                    ipb: 10,
                },
                TraceEvent::Data {
                    block: BlockAddr(0x9000),
                    write: false,
                },
                TraceEvent::Data {
                    block: BlockAddr(data_base),
                    write: false,
                },
                TraceEvent::OpEnd { op: OpKind::Probe },
                TraceEvent::XctEnd,
            ],
        }
    }

    fn flat_workload() -> WorkloadTrace {
        WorkloadTrace {
            name: "test".into(),
            xct_type_names: vec!["A".into(), "B".into()],
            xcts: (0..10)
                .map(|i| xct(0, 0x1000 + i * 0x100, 0xA000 + i))
                .collect(),
        }
    }

    fn workload() -> InternedWorkload {
        InternedWorkload::from_flat(&flat_workload())
    }

    #[test]
    fn identical_halves_split_buckets() {
        let w = workload();
        let (instr, data) = overlap_histogram(&w, OverlapScope::Mix).unwrap();
        // 10 blocks in all instances, 100 blocks in exactly one instance
        // each: 10/110 in the 100% bucket, 100/110 in [0,30).
        assert!((instr.buckets[4] - 10.0 / 110.0).abs() < 1e-9);
        assert!((instr.buckets[0] - 100.0 / 110.0).abs() < 1e-9);
        assert_eq!(instr.instances, 10);
        assert_eq!(instr.footprint_blocks, 110);
        // Data: 1 shared + 10 private.
        assert!((data.buckets[4] - 1.0 / 11.0).abs() < 1e-9);
        // Buckets always sum to 1.
        assert!((instr.buckets.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn common_share_thresholds() {
        let w = workload();
        let (instr, _) = overlap_histogram(&w, OverlapScope::Mix).unwrap();
        assert!((instr.common_share(0.9) - 10.0 / 110.0).abs() < 1e-9);
        assert!((instr.common_share(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_instance_is_all_common() {
        let w = InternedWorkload::from_flat(&WorkloadTrace {
            name: "one".into(),
            xct_type_names: vec!["A".into()],
            xcts: vec![xct(0, 0x1000, 0xA000)],
        });
        let (instr, _) = overlap_histogram(&w, OverlapScope::Mix).unwrap();
        assert!((instr.buckets[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scopes_filter_instances() {
        let mut flat = flat_workload();
        flat.xcts.push(xct(1, 0x5000, 0xB000));
        let w = InternedWorkload::from_flat(&flat);
        let (i_all, _) = overlap_histogram(&w, OverlapScope::Mix).unwrap();
        assert_eq!(i_all.instances, 11);
        let (i_a, _) = overlap_histogram(&w, OverlapScope::XctType(XctTypeId(0))).unwrap();
        assert_eq!(i_a.instances, 10);
        let (i_op, _) = overlap_histogram(&w, OverlapScope::Op(OpKind::Probe)).unwrap();
        assert_eq!(i_op.instances, 11);
        let (i_ot, _) =
            overlap_histogram(&w, OverlapScope::OpInType(XctTypeId(1), OpKind::Probe)).unwrap();
        assert_eq!(i_ot.instances, 1);
        assert!(overlap_histogram(&w, OverlapScope::Op(OpKind::Delete)).is_none());
    }
}
