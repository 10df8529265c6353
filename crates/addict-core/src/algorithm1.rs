//! Algorithm 1: finding migration points.
//!
//! ADDICT replays profiling traces through a single, initially empty L1-I
//! model. Transaction and operation entry/exit markers flush the cache; so
//! does every access that evicts a line. Each eviction-causing instruction
//! address is appended to the current operation's candidate sequence, and
//! the most frequent sequence per (transaction type, operation) becomes
//! that operation's migration points (Section 3.1).
//!
//! The profile is read in its interned form. Slices are cut where the scan
//! flushes, so each unique slice is scanned once per call and its result
//! counted for every reference to it: the cost grows with the pool's
//! unique slices, not with every profiled event.
//!
//! Ties are broken deterministically (lexicographically smallest sequence)
//! instead of the paper's "pick randomly" so runs are reproducible; the
//! paper reports never observing ties on these workloads either.

use std::collections::HashMap;

use addict_sim::{BlockAddr, CacheGeometry, SetAssocCache};
use addict_trace::event::{flatten, FlatEvent};
use addict_trace::{
    InternedSet, InternedTrace, OpKind, SlicePool, SliceRef, TraceEvent, XctTypeId,
};

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
        set: InternedSet<'_>,
        l1i: CacheGeometry,
        xct: XctTypeId,
        op: OpKind,
    ) -> Option<f64> {
        let chosen = self.points(xct, op)?;
        let of_type = || set.xcts.iter().filter(|t| t.xct_type == xct);
        let scans = scan_slices(set.pool, of_type(), l1i);
        let mut matched = 0u64;
        let mut total = 0u64;
        for r in of_type().flat_map(InternedTrace::slice_refs) {
            if let Some((kind, seq, _)) = &scans[r].op {
                if *kind == op {
                    total += 1;
                    matched += u64::from(seq == chosen);
                }
            }
        }
        (total > 0).then(|| matched as f64 / total as f64)
    }
}

/// Run Algorithm 1 over flat test traces, interned into a private pool.
#[cfg(test)]
pub(crate) fn find_migration_points(
    traces: &[addict_trace::XctTrace],
    l1i: CacheGeometry,
) -> MigrationMap {
    find_migration_points_interned(crate::replay::interned(traces).as_set(), l1i)
}

/// Run Algorithm 1 over interned profiling traces with the given L1-I
/// geometry. Each unique slice is scanned once; its tallies are then
/// added for every reference to it, trace by trace, in trace order.
pub fn find_migration_points_interned(set: InternedSet<'_>, l1i: CacheGeometry) -> MigrationMap {
    let scans = scan_slices(set.pool, set.xcts, l1i);
    let mut map = MigrationMap::default();
    for trace in set.xcts {
        let xct = trace.xct_type;
        *map.type_frequency.entry(xct).or_insert(0) += 1;
        let wrapper = map.wrapper_instructions.entry(xct).or_insert(0);
        for r in trace.slice_refs() {
            let scan = &scans[r];
            *wrapper += scan.wrapper;
            let Some((op, seq, instr)) = &scan.op else {
                continue;
            };
            let key = (xct, *op);
            *map.op_frequency.entry(key).or_insert(0) += 1;
            *map.op_instructions.entry(key).or_insert(0) += instr;
            let counts = map.counts.entry(key).or_default();
            match counts.get_mut(seq) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(seq.clone(), 1);
                }
            }
        }
    }
    // Line 17: the most frequent sequence wins; ties break to the
    // lexicographically smallest for determinism.
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

/// Algorithm 1's result for one slice (lines 1–16): the operation
/// instance the slice completes, if any, and the instructions it runs
/// outside any operation.
#[derive(Debug, Default)]
struct SliceScan {
    /// `(operation, eviction sequence, instructions)` of the instance
    /// whose `OpEnd` closes the slice.
    op: Option<(OpKind, Sequence, u64)>,
    /// Instructions outside any operation (the begin/commit wrapper).
    wrapper: u64,
}

/// Every slice the traces reference, scanned once.
///
/// The interner cuts a slice before every `OpBegin` and after every
/// `OpEnd`, and Algorithm 1 flushes its L1-I at both, so every slice
/// starts from an empty L1-I with no operation open. Its scan is then a
/// function of the slice alone, whichever trace references it.
fn scan_slices<'a>(
    pool: &SlicePool,
    xcts: impl IntoIterator<Item = &'a InternedTrace>,
    l1i: CacheGeometry,
) -> HashMap<SliceRef, SliceScan> {
    let mut cache = SetAssocCache::new(l1i);
    let mut scans = HashMap::new();
    for &r in xcts.into_iter().flat_map(InternedTrace::slice_refs) {
        scans
            .entry(r)
            .or_insert_with(|| scan_slice(pool.resolve(r), &mut cache));
    }
    scans
}

/// Scan one slice from an empty L1-I. An operation the slice opens but
/// does not close is dropped, as a flat scan drops it when the next
/// `OpBegin` or the end of the trace comes first.
fn scan_slice(events: &[TraceEvent], cache: &mut SetAssocCache) -> SliceScan {
    cache.flush();
    let mut scan = SliceScan::default();
    let mut current: Option<(OpKind, Sequence, u64)> = None;
    for event in flatten(events) {
        match event {
            FlatEvent::XctBegin(_) | FlatEvent::XctEnd => cache.flush(),
            FlatEvent::OpBegin(op) => {
                cache.flush();
                current = Some((op, Vec::new(), 0));
            }
            FlatEvent::OpEnd(_) => {
                cache.flush();
                scan.op = Some(current.take().expect("OpEnd without OpBegin"));
            }
            FlatEvent::Instr { block, n_instr } => {
                match current.as_mut() {
                    Some((_, _, instr)) => *instr += u64::from(n_instr),
                    None => scan.wrapper += u64::from(n_instr),
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
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::{InternedWorkload, WorkloadTrace, XctTrace};

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

    /// `n` copies of [`trace_with_op`], interned.
    fn interned(n: usize, op: OpKind, base: u64, blocks: u16) -> InternedWorkload {
        InternedWorkload::from_flat(&WorkloadTrace {
            name: String::new(),
            xct_type_names: Vec::new(),
            xcts: vec![trace_with_op(op, base, blocks); n],
        })
    }

    #[test]
    fn small_op_has_no_migration_points() {
        // 6 blocks into an 8-block cache: never evicts.
        let t = trace_with_op(OpKind::Probe, 0x100, 6);
        let map = find_migration_points(&[t], tiny_l1i());
        assert_eq!(map.frequency(XT, OpKind::Probe), 1);
        assert_eq!(map.ops_of(XT), vec![OpKind::Probe]);
        assert!(map.points(XT, OpKind::Probe).unwrap().is_empty());
    }

    #[test]
    fn oversized_op_yields_points_at_cache_fill_boundaries() {
        // 20 sequential blocks through an 8-block cache: the 9th distinct
        // block evicts (flush, point), then every 8 blocks after that.
        let t = trace_with_op(OpKind::Insert, 0x200, 20);
        let map = find_migration_points(&[t], tiny_l1i());
        let seq = map.points(XT, OpKind::Insert).unwrap();
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
        let map = find_migration_points(&[t], tiny_l1i());
        let probe = map.points(XT, OpKind::Probe).unwrap();
        assert_eq!(
            Some(probe),
            map.points(XT, OpKind::Update),
            "identical walks from a clean cache match"
        );
        assert_eq!(probe.len(), 1); // 12 blocks -> one overflow
    }

    #[test]
    fn stability_matches_on_identical_traces() {
        let profile: Vec<XctTrace> = (0..5)
            .map(|_| trace_with_op(OpKind::Probe, 0x400, 20))
            .collect();
        let map = find_migration_points(&profile, tiny_l1i());
        let fresh = interned(5, OpKind::Probe, 0x400, 20);
        assert_eq!(
            map.stability(fresh.as_set(), tiny_l1i(), XT, OpKind::Probe),
            Some(1.0)
        );
        // Divergent traces do not match.
        let divergent = interned(4, OpKind::Probe, 0x400, 28);
        assert_eq!(
            map.stability(divergent.as_set(), tiny_l1i(), XT, OpKind::Probe),
            Some(0.0)
        );
        // Unknown op: None.
        assert_eq!(
            map.stability(fresh.as_set(), tiny_l1i(), XT, OpKind::Delete),
            None
        );
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
