//! Algorithm 1: finding migration points.
//!
//! ADDICT replays profiling traces through a single, initially empty L1-I
//! model. Transaction and operation entry/exit markers flush the cache; so
//! does every access that evicts a line. Each eviction-causing instruction
//! address is appended to the current operation's candidate sequence, and
//! the most frequent sequence per (transaction type, operation) becomes
//! that operation's migration points (Section 3.1).
//!
//! Ties are broken deterministically (lexicographically smallest sequence)
//! instead of the paper's "pick randomly" so runs are reproducible; the
//! paper reports never observing ties on these workloads either.

use std::collections::HashMap;

use addict_sim::{BlockAddr, CacheGeometry, SetAssocCache};
use addict_trace::event::FlatEvent;
use addict_trace::{OpKind, XctTrace, XctTypeId};

/// A migration-point sequence: the eviction-causing instruction blocks of
/// one operation execution, in order.
pub type Sequence = Vec<BlockAddr>;

/// The chosen migration points and profiling statistics.
#[derive(Debug, Clone, Default)]
pub struct MigrationMap {
    /// Chosen sequence per (transaction type, operation).
    chosen: HashMap<(XctTypeId, OpKind), Sequence>,
    /// How many times each candidate sequence appeared.
    counts: HashMap<(XctTypeId, OpKind), HashMap<Sequence, u64>>,
    /// Operation invocation counts per transaction type (drives load
    /// balancing in Step 2).
    op_frequency: HashMap<(XctTypeId, OpKind), u64>,
    /// Profiled transactions per type (drives cross-type core placement).
    type_frequency: HashMap<XctTypeId, u64>,
    /// Total instructions executed inside each operation across profiling
    /// (drives work-proportional core replication in Step 2).
    op_instructions: HashMap<(XctTypeId, OpKind), u64>,
    /// Instructions executed outside any operation (begin/commit wrapper).
    wrapper_instructions: HashMap<XctTypeId, u64>,
}

impl MigrationMap {
    /// The chosen migration points for an operation of a transaction type.
    pub fn points(&self, xct: XctTypeId, op: OpKind) -> Option<&Sequence> {
        self.chosen.get(&(xct, op))
    }

    /// Transaction types seen during profiling.
    pub fn xct_types(&self) -> Vec<XctTypeId> {
        let mut v: Vec<XctTypeId> = self.chosen.keys().map(|&(x, _)| x).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Operations profiled for a transaction type, sorted by kind.
    pub fn ops_of(&self, xct: XctTypeId) -> Vec<OpKind> {
        let mut v: Vec<OpKind> = self
            .chosen
            .keys()
            .filter(|&&(x, _)| x == xct)
            .map(|&(_, o)| o)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of times `op` was invoked by `xct` transactions during
    /// profiling.
    pub fn frequency(&self, xct: XctTypeId, op: OpKind) -> u64 {
        self.op_frequency.get(&(xct, op)).copied().unwrap_or(0)
    }

    /// Number of profiled transactions of type `xct`.
    pub fn type_frequency(&self, xct: XctTypeId) -> u64 {
        self.type_frequency.get(&xct).copied().unwrap_or(0)
    }

    /// Total instructions profiled inside `op` of `xct` transactions.
    pub fn op_instructions(&self, xct: XctTypeId, op: OpKind) -> u64 {
        self.op_instructions.get(&(xct, op)).copied().unwrap_or(0)
    }

    /// Total wrapper (outside-operation) instructions of `xct`.
    pub fn wrapper_instructions(&self, xct: XctTypeId) -> u64 {
        self.wrapper_instructions.get(&xct).copied().unwrap_or(0)
    }

    /// Approximate resident bytes — what a cache holding the map charges
    /// for it: the struct, every table's capacity at its in-table slot
    /// size plus one control byte per slot, and every sequence's block
    /// capacity. Allocator rounding is not counted. Capacities follow
    /// the insertion sequence alone, so a map rebuilt from the same
    /// traces reports the same size.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        fn table<K, V>(m: &HashMap<K, V>) -> usize {
            m.capacity() * (size_of::<(K, V)>() + 1)
        }
        let seq = |s: &Sequence| s.capacity() * size_of::<BlockAddr>();
        let counts: usize = self
            .counts
            .values()
            .map(|c| table(c) + c.keys().map(seq).sum::<usize>())
            .sum();
        size_of::<Self>()
            + table(&self.chosen)
            + self.chosen.values().map(seq).sum::<usize>()
            + table(&self.counts)
            + counts
            + table(&self.op_frequency)
            + table(&self.type_frequency)
            + table(&self.op_instructions)
            + table(&self.wrapper_instructions)
    }

    /// All candidate sequences and their occurrence counts (diagnostics,
    /// the Section 3.1.2 example).
    pub fn candidates(&self, xct: XctTypeId, op: OpKind) -> Option<&HashMap<Sequence, u64>> {
        self.counts.get(&(xct, op))
    }

    /// Fraction of operation instances whose sequence exactly matches the
    /// chosen one — the Figure 4 stability metric — measured over fresh
    /// traces.
    pub fn stability(
        &self,
        traces: &[XctTrace],
        l1i: CacheGeometry,
        xct: XctTypeId,
        op: OpKind,
    ) -> Option<f64> {
        let chosen = self.points(xct, op)?;
        let mut matched = 0u64;
        let mut total = 0u64;
        for trace in traces.iter().filter(|t| t.xct_type == xct) {
            for (kind, seq) in per_instance_sequences(trace, l1i) {
                if kind == op {
                    total += 1;
                    if &seq == chosen {
                        matched += 1;
                    }
                }
            }
        }
        (total > 0).then(|| matched as f64 / total as f64)
    }
}

/// Incremental Algorithm 1: observe profiling traces one at a time, then
/// [`finish`](Profiler::finish) into a [`MigrationMap`].
///
/// Trace-at-a-time observation is what lets interned profiling stay
/// compact: each [`InternedTrace`](addict_trace::InternedTrace) is
/// flattened transiently, observed, and dropped, so the whole uncompressed
/// trace set never materializes.
#[derive(Debug)]
pub struct Profiler {
    map: MigrationMap,
    l1i: CacheGeometry,
}

impl Profiler {
    /// A profiler over the given L1-I geometry.
    pub fn new(l1i: CacheGeometry) -> Self {
        Profiler {
            map: MigrationMap::default(),
            l1i,
        }
    }

    /// Feed one profiling trace (lines 1–16 of Algorithm 1).
    pub fn observe(&mut self, trace: &XctTrace) {
        let map = &mut self.map;
        *map.type_frequency.entry(trace.xct_type).or_insert(0) += 1;
        let (instances, wrapper) = scan_trace(trace, self.l1i);
        *map.wrapper_instructions.entry(trace.xct_type).or_insert(0) += wrapper;
        for (op, seq, instr) in instances {
            *map.op_frequency.entry((trace.xct_type, op)).or_insert(0) += 1;
            *map.op_instructions.entry((trace.xct_type, op)).or_insert(0) += instr;
            *map.counts
                .entry((trace.xct_type, op))
                .or_default()
                .entry(seq)
                .or_insert(0) += 1;
        }
    }

    /// Choose the winning sequences (line 17: most frequent; ties break to
    /// the lexicographically smallest for determinism).
    pub fn finish(self) -> MigrationMap {
        let mut map = self.map;
        for (key, seqs) in &map.counts {
            let best = seqs
                .iter()
                .max_by(|(sa, ca), (sb, cb)| ca.cmp(cb).then_with(|| sb.cmp(sa)))
                .map(|(s, _)| s.clone())
                .expect("non-empty candidate set");
            map.chosen.insert(*key, best);
        }
        map
    }
}

/// Run Algorithm 1 over profiling traces with the given L1-I geometry.
pub fn find_migration_points(traces: &[XctTrace], l1i: CacheGeometry) -> MigrationMap {
    let mut p = Profiler::new(l1i);
    for trace in traces {
        p.observe(trace);
    }
    p.finish()
}

/// [`find_migration_points`] over interned profiling traces: each trace is
/// flattened transiently and observed, so memory stays bounded by one
/// trace, not the profile set.
pub fn find_migration_points_interned(
    set: addict_trace::InternedSet<'_>,
    l1i: CacheGeometry,
) -> MigrationMap {
    let mut p = Profiler::new(l1i);
    for trace in set.xcts {
        p.observe(&trace.flatten(set.pool));
    }
    p.finish()
}

/// The eviction sequences of every operation instance in one trace
/// (lines 1–16 of Algorithm 1).
pub fn per_instance_sequences(trace: &XctTrace, l1i: CacheGeometry) -> Vec<(OpKind, Sequence)> {
    scan_trace(trace, l1i)
        .0
        .into_iter()
        .map(|(op, seq, _)| (op, seq))
        .collect()
}

/// Full Algorithm 1 scan of one trace: per-operation eviction sequences
/// with instruction counts, plus the wrapper (outside-operation)
/// instruction count.
pub fn scan_trace(trace: &XctTrace, l1i: CacheGeometry) -> (Vec<(OpKind, Sequence, u64)>, u64) {
    let mut cache = SetAssocCache::new(l1i);
    let mut out = Vec::new();
    let mut wrapper = 0u64;
    let mut current: Option<(OpKind, Sequence, u64)> = None;
    for event in trace.flat_events() {
        match event {
            FlatEvent::XctBegin(_) | FlatEvent::XctEnd => cache.flush(),
            FlatEvent::OpBegin(op) => {
                cache.flush();
                current = Some((op, Vec::new(), 0));
            }
            FlatEvent::OpEnd(_) => {
                cache.flush();
                out.push(current.take().expect("OpEnd without OpBegin"));
            }
            FlatEvent::Instr { block, n_instr } => {
                match current.as_mut() {
                    Some((_, _, instr)) => *instr += u64::from(n_instr),
                    None => wrapper += u64::from(n_instr),
                }
                if cache.access(block).evicted.is_some() {
                    // Line 15-16: reset the cache, mark the point.
                    cache.flush();
                    cache.access(block);
                    if let Some((_, seq, _)) = current.as_mut() {
                        seq.push(block);
                    }
                }
            }
            FlatEvent::Data { .. } => {}
        }
    }
    (out, wrapper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::TraceEvent;

    const XT: XctTypeId = XctTypeId(0);

    /// Geometry small enough to force evictions quickly: 4 sets x 2 ways =
    /// 8 blocks.
    fn tiny_l1i() -> CacheGeometry {
        CacheGeometry::new(8 * 64, 2)
    }

    /// A trace running one `op` over `blocks` sequential instruction
    /// blocks starting at `base`.
    fn trace_with_op(op: OpKind, base: u64, blocks: u16) -> XctTrace {
        XctTrace {
            xct_type: XT,
            events: vec![
                TraceEvent::XctBegin { xct_type: XT },
                TraceEvent::OpBegin { op },
                TraceEvent::Instr {
                    block: BlockAddr(base),
                    n_blocks: blocks,
                    ipb: 10,
                },
                TraceEvent::OpEnd { op },
                TraceEvent::XctEnd,
            ],
        }
    }

    #[test]
    fn small_op_has_no_migration_points() {
        // 6 blocks into an 8-block cache: never evicts.
        let t = trace_with_op(OpKind::Probe, 0x100, 6);
        let seqs = per_instance_sequences(&t, tiny_l1i());
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].0, OpKind::Probe);
        assert!(seqs[0].1.is_empty());
    }

    #[test]
    fn oversized_op_yields_points_at_cache_fill_boundaries() {
        // 20 sequential blocks through an 8-block cache: the 9th distinct
        // block evicts (flush, point), then every 8 blocks after that.
        let t = trace_with_op(OpKind::Insert, 0x200, 20);
        let seqs = per_instance_sequences(&t, tiny_l1i());
        let seq = &seqs[0].1;
        assert_eq!(
            seq.len(),
            2,
            "20 blocks / 8-block window -> 2 overflows, got {seq:?}"
        );
        assert_eq!(seq[0], BlockAddr(0x208));
        assert_eq!(seq[1], BlockAddr(0x210));
    }

    #[test]
    fn most_frequent_sequence_is_chosen() {
        // Nine instances walk 20 blocks (two points); one walks 28 (three
        // points) — the common-case sequence must win, as in the paper's
        // Section 3.1.2 example.
        let mut traces: Vec<XctTrace> = (0..9)
            .map(|_| trace_with_op(OpKind::Insert, 0x200, 20))
            .collect();
        traces.push(trace_with_op(OpKind::Insert, 0x200, 28));
        let map = find_migration_points(&traces, tiny_l1i());
        let points = map.points(XT, OpKind::Insert).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(map.frequency(XT, OpKind::Insert), 10);
        let candidates = map.candidates(XT, OpKind::Insert).unwrap();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[points], 9);
    }

    #[test]
    fn sequences_are_per_operation_and_reset_at_boundaries() {
        // Two ops back to back; the second starts with a flushed cache, so
        // its points are independent of the first.
        let mut events = vec![TraceEvent::XctBegin { xct_type: XT }];
        events.push(TraceEvent::OpBegin { op: OpKind::Probe });
        events.push(TraceEvent::Instr {
            block: BlockAddr(0x300),
            n_blocks: 12,
            ipb: 10,
        });
        events.push(TraceEvent::OpEnd { op: OpKind::Probe });
        events.push(TraceEvent::OpBegin { op: OpKind::Update });
        events.push(TraceEvent::Instr {
            block: BlockAddr(0x300),
            n_blocks: 12,
            ipb: 10,
        });
        events.push(TraceEvent::OpEnd { op: OpKind::Update });
        events.push(TraceEvent::XctEnd);
        let t = XctTrace {
            xct_type: XT,
            events,
        };
        let seqs = per_instance_sequences(&t, tiny_l1i());
        assert_eq!(seqs.len(), 2);
        assert_eq!(
            seqs[0].1, seqs[1].1,
            "identical walks from a clean cache match"
        );
        assert_eq!(seqs[0].1.len(), 1); // 12 blocks -> one overflow
    }

    #[test]
    fn stability_matches_on_identical_traces() {
        let profile: Vec<XctTrace> = (0..5)
            .map(|_| trace_with_op(OpKind::Probe, 0x400, 20))
            .collect();
        let map = find_migration_points(&profile, tiny_l1i());
        let fresh: Vec<XctTrace> = (0..5)
            .map(|_| trace_with_op(OpKind::Probe, 0x400, 20))
            .collect();
        assert_eq!(
            map.stability(&fresh, tiny_l1i(), XT, OpKind::Probe),
            Some(1.0)
        );
        // Divergent traces do not match.
        let divergent: Vec<XctTrace> = (0..4)
            .map(|_| trace_with_op(OpKind::Probe, 0x400, 28))
            .collect();
        assert_eq!(
            map.stability(&divergent, tiny_l1i(), XT, OpKind::Probe),
            Some(0.0)
        );
        // Unknown op: None.
        assert_eq!(map.stability(&fresh, tiny_l1i(), XT, OpKind::Delete), None);
    }

    #[test]
    fn xct_types_and_ops_enumerated() {
        let mut traces = vec![trace_with_op(OpKind::Probe, 0x100, 20)];
        let mut t2 = trace_with_op(OpKind::Update, 0x200, 20);
        t2.xct_type = XctTypeId(1);
        traces.push(t2);
        let map = find_migration_points(&traces, tiny_l1i());
        assert_eq!(map.xct_types(), vec![XctTypeId(0), XctTypeId(1)]);
        assert_eq!(map.ops_of(XctTypeId(0)), vec![OpKind::Probe]);
        assert_eq!(map.ops_of(XctTypeId(1)), vec![OpKind::Update]);
    }
}
