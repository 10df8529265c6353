//! The trace recorder the storage engine drives while executing
//! transactions.
//!
//! Several transactions may be open at once (the engine interleaves them on
//! one thread, as callers of a storage manager do); each gets its own event
//! stream, keyed by a caller-chosen `u64` handle. A stream is never stored
//! flat: each transaction's [`TraceBuilder`] cuts it into slices and
//! interns every slice into the recorder's [`SlicePool`] as it closes, so
//! an op body the workload repeats is stored once however many
//! transactions record it. The engine *switches* the
//! recorder to a transaction before emitting events for it — mirroring how
//! Pin attributes trace events to the thread executing them.
//!
//! Emission primitives:
//!
//! * [`TraceRecorder::exec`] — the full block walk of a routine (straight
//!   line code),
//! * [`TraceRecorder::exec_part`] — one slice of a routine's region (loop
//!   bodies, conditional halves),
//! * [`TraceRecorder::data`] — one data-block access.
//!
//! The recorder can be disabled, in which case every call is a cheap no-op
//! — the storage engine runs identically either way, so plain storage tests
//! pay nothing for the instrumentation.

use std::collections::HashMap;

use addict_sim::BlockAddr;

use crate::codemap::{CodeMap, Routine};
use crate::event::{OpKind, TraceEvent, XctTypeId};
use crate::intern::{InternedTrace, SlicePool, TraceBuilder};

#[derive(Debug, Clone)]
struct OpenTrace {
    builder: TraceBuilder,
    op_open: Option<OpKind>,
}

/// Records per-transaction traces of engine execution.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    enabled: bool,
    open: HashMap<u64, OpenTrace>,
    current: Option<u64>,
    /// Every slice recorded since the last [`TraceRecorder::take_traces`].
    pool: SlicePool,
    finished: Vec<InternedTrace>,
}

impl TraceRecorder {
    /// A recorder that captures events.
    pub fn new() -> Self {
        TraceRecorder {
            enabled: true,
            open: HashMap::new(),
            current: None,
            pool: SlicePool::new(),
            finished: Vec::new(),
        }
    }

    /// Turn capturing on or off (population runs are untraced).
    ///
    /// # Panics
    /// Panics if any transaction is open.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "cannot toggle tracing with open transactions"
        );
        self.enabled = on;
    }

    /// Start a transaction under `handle` and make it current. The engine
    /// is expected to emit the `XctBegin` routine walk itself right after.
    ///
    /// # Panics
    /// Panics if `handle` is already open.
    pub fn begin_xct(&mut self, handle: u64, xct_type: XctTypeId) {
        if !self.enabled {
            return;
        }
        let mut builder = TraceBuilder::new(xct_type);
        builder.push(TraceEvent::XctBegin { xct_type }, &mut self.pool);
        let prev = self.open.insert(
            handle,
            OpenTrace {
                builder,
                op_open: None,
            },
        );
        assert!(prev.is_none(), "begin_xct: handle {handle} already open");
        self.current = Some(handle);
    }

    /// Direct subsequent events to `handle`'s trace.
    ///
    /// # Panics
    /// Panics if `handle` is not open.
    pub fn switch_to(&mut self, handle: u64) {
        if !self.enabled {
            return;
        }
        assert!(
            self.open.contains_key(&handle),
            "switch_to unknown handle {handle}"
        );
        self.current = Some(handle);
    }

    /// Finish transaction `handle`.
    ///
    /// # Panics
    /// Panics if `handle` is not open or has an operation still open.
    pub fn end_xct(&mut self, handle: u64) {
        if !self.enabled {
            return;
        }
        let mut open = self
            .open
            .remove(&handle)
            .expect("end_xct without begin_xct");
        assert!(
            open.op_open.is_none(),
            "end_xct with an operation still open"
        );
        open.builder.push(TraceEvent::XctEnd, &mut self.pool);
        self.finished.push(open.builder.finish(&mut self.pool));
        if self.current == Some(handle) {
            self.current = None;
        }
    }

    /// The current transaction and the pool it records into.
    fn cur(&mut self) -> Option<(&mut OpenTrace, &mut SlicePool)> {
        let open = self.open.get_mut(&self.current?)?;
        Some((open, &mut self.pool))
    }

    /// Append `e` to the current transaction (dropped if none is current).
    fn push(&mut self, e: TraceEvent) {
        if let Some((open, pool)) = self.cur() {
            open.builder.push(e, pool);
        }
    }

    /// Enter a database operation on the current transaction.
    pub fn begin_op(&mut self, op: OpKind) {
        if !self.enabled {
            return;
        }
        let (open, pool) = self.cur().expect("begin_op outside a transaction");
        assert!(open.op_open.is_none(), "operations do not nest");
        open.op_open = Some(op);
        open.builder.push(TraceEvent::OpBegin { op }, pool);
    }

    /// Exit the open database operation on the current transaction.
    pub fn end_op(&mut self) {
        if !self.enabled {
            return;
        }
        let (open, pool) = self.cur().expect("end_op outside a transaction");
        let op = open.op_open.take().expect("end_op without begin_op");
        open.builder.push(TraceEvent::OpEnd { op }, pool);
    }

    /// Emit the full block walk of `routine`.
    #[inline]
    pub fn exec(&mut self, routine: Routine) {
        if !self.enabled {
            return;
        }
        let map = CodeMap::global();
        self.walk(routine, 0, map.n_blocks(routine));
    }

    /// Emit one slice of `routine`'s region: part `part` of `of` equal
    /// parts. Used for loop bodies and conditional halves so that runtime
    /// control flow shapes the instruction stream.
    ///
    /// # Panics
    /// Panics if `part >= of` or `of == 0`.
    pub fn exec_part(&mut self, routine: Routine, part: u64, of: u64) {
        assert!(of > 0 && part < of, "exec_part({part}, {of}) out of range");
        if !self.enabled {
            return;
        }
        let n = CodeMap::global().n_blocks(routine);
        let start = n * part / of;
        let end = n * (part + 1) / of;
        self.walk(routine, start, end);
    }

    /// Emit an exact block slice `[start, start+len)` of `routine`'s
    /// region. The engine uses this for *data-dependent branch variants*:
    /// equal-length alternative slices chosen by runtime values (key bits,
    /// bucket indexes, record sizes), which produce the partial same-type
    /// instruction overlap the paper measures in Figure 2 — without
    /// changing the routine's total footprint.
    ///
    /// # Panics
    /// Panics if the slice exceeds the routine's region.
    pub fn exec_slice(&mut self, routine: Routine, start: u64, len: u64) {
        let n = CodeMap::global().n_blocks(routine);
        assert!(
            start + len <= n,
            "slice {start}+{len} exceeds {routine:?} ({n} blocks)"
        );
        if !self.enabled {
            return;
        }
        self.walk(routine, start, start + len);
    }

    fn walk(&mut self, routine: Routine, from: u64, to: u64) {
        if from == to {
            return;
        }
        let map = CodeMap::global();
        let base = map.base(routine).0;
        let ipb = map.instrs_per_block(routine);
        let n = u16::try_from(to - from).expect("routine regions fit u16 blocks");
        self.push(TraceEvent::Instr {
            block: BlockAddr(base + from),
            n_blocks: n,
            ipb,
        });
    }

    /// Emit one data access on the current transaction.
    #[inline]
    pub fn data(&mut self, block: BlockAddr, write: bool) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent::Data { block, write });
    }

    /// Drain the completed traces (in completion order) and the pool
    /// their slices live in; the recorder starts a fresh pool.
    ///
    /// # Panics
    /// Panics if any transaction is open: its slices so far live in the
    /// pool being handed out.
    pub fn take_traces(&mut self) -> (Vec<InternedTrace>, SlicePool) {
        assert!(self.open.is_empty(), "take_traces with open transactions");
        (
            std::mem::take(&mut self.finished),
            std::mem::take(&mut self.pool),
        )
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::CodeMap;
    use crate::event::XctTrace;

    /// Drain `r` and flatten its traces.
    fn take_flat(r: &mut TraceRecorder) -> Vec<XctTrace> {
        let (xcts, pool) = r.take_traces();
        xcts.iter().map(|t| t.flatten(&pool)).collect()
    }

    #[test]
    fn records_a_bracketed_transaction() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(3));
        r.begin_op(OpKind::Probe);
        r.exec(Routine::FindKey);
        r.data(BlockAddr(0x9999), false);
        r.end_op();
        r.end_xct(1);
        let traces = take_flat(&mut r);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.xct_type, XctTypeId(3));
        assert!(matches!(
            t.events.first(),
            Some(TraceEvent::XctBegin { .. })
        ));
        assert!(matches!(t.events.last(), Some(TraceEvent::XctEnd)));
        let map = CodeMap::global();
        let instr_blocks = t
            .flat_events()
            .filter(|e| matches!(e, crate::event::FlatEvent::Instr { .. }))
            .count();
        assert_eq!(instr_blocks as u64, map.n_blocks(Routine::FindKey));
        let data = t
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Data { .. }));
        assert_eq!(data.count(), 1);
    }

    #[test]
    fn interleaved_transactions_keep_separate_streams() {
        // Two open transactions whose ops and data accesses interleave,
        // both running the same probe body on different records.
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.data(BlockAddr(100), false);
        r.begin_xct(2, XctTypeId(1));
        r.begin_op(OpKind::Probe);
        r.exec(Routine::FindKey);
        r.switch_to(1);
        r.begin_op(OpKind::Probe);
        r.exec(Routine::FindKey);
        r.data(BlockAddr(0x9000), false);
        r.switch_to(2);
        r.data(BlockAddr(0xa000), false);
        r.end_op();
        r.switch_to(1);
        r.end_op();
        r.switch_to(2);
        r.data(BlockAddr(200), true);
        r.end_xct(2);
        r.end_xct(1);

        let map = CodeMap::global();
        let probe = |addr: u64| {
            [
                TraceEvent::OpBegin { op: OpKind::Probe },
                TraceEvent::Instr {
                    block: map.base(Routine::FindKey),
                    n_blocks: map.n_blocks(Routine::FindKey) as u16,
                    ipb: map.instrs_per_block(Routine::FindKey),
                },
                TraceEvent::Data {
                    block: BlockAddr(addr),
                    write: false,
                },
                TraceEvent::OpEnd { op: OpKind::Probe },
            ]
        };
        let mut first = vec![TraceEvent::XctBegin {
            xct_type: XctTypeId(1),
        }];
        first.extend(probe(0xa000));
        first.extend([
            TraceEvent::Data {
                block: BlockAddr(200),
                write: true,
            },
            TraceEvent::XctEnd,
        ]);
        let mut second = vec![
            TraceEvent::XctBegin {
                xct_type: XctTypeId(0),
            },
            TraceEvent::Data {
                block: BlockAddr(100),
                write: false,
            },
        ];
        second.extend(probe(0x9000));
        second.push(TraceEvent::XctEnd);

        // Completion order: 2 first.
        let (xcts, pool) = r.take_traces();
        assert_eq!(xcts.len(), 2);
        assert_eq!(xcts[0].flatten(&pool).events, first);
        assert_eq!(xcts[0].xct_type, XctTypeId(1));
        assert_eq!(xcts[1].flatten(&pool).events, second);
        assert_eq!(xcts[1].xct_type, XctTypeId(0));
        // The probe body both recorded is one pool entry: three slices
        // each, five distinct.
        assert_eq!(xcts[0].slice_refs()[1], xcts[1].slice_refs()[1]);
        assert_eq!(pool.slices_interned(), 6);
        assert_eq!(pool.unique_slices(), 5);
    }

    #[test]
    fn exec_part_slices_cover_whole_region_disjointly() {
        let mut r = TraceRecorder::new();
        r.begin_xct(0, XctTypeId(0));
        for part in 0..3 {
            r.exec_part(Routine::BtreeTraverse, part, 3);
        }
        r.end_xct(0);
        let t = &take_flat(&mut r)[0];
        let map = CodeMap::global();
        let base = map.base(Routine::BtreeTraverse).0;
        let n = map.n_blocks(Routine::BtreeTraverse);
        let mut seen = std::collections::HashSet::new();
        for e in t.flat_events() {
            if let crate::event::FlatEvent::Instr { block, .. } = e {
                if (base..base + n).contains(&block.0) {
                    assert!(seen.insert(block.0), "block visited twice across parts");
                }
            }
        }
        assert_eq!(seen.len() as u64, n, "parts did not cover the region");
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let mut r = TraceRecorder::new();
        r.set_enabled(false);
        r.begin_xct(5, XctTypeId(0));
        r.exec(Routine::FindKey);
        r.data(BlockAddr(1), true);
        r.end_xct(5);
        let (xcts, pool) = r.take_traces();
        assert!(xcts.is_empty());
        assert_eq!(pool.n_events(), 0);
    }

    #[test]
    fn set_enabled_toggles_capture() {
        let mut r = TraceRecorder::new();
        r.set_enabled(false);
        r.begin_xct(1, XctTypeId(0));
        r.end_xct(1);
        assert!(r.take_traces().0.is_empty());
        r.set_enabled(true);
        r.begin_xct(2, XctTypeId(0));
        r.end_xct(2);
        assert_eq!(r.take_traces().0.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn duplicate_handle_rejected() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.begin_xct(1, XctTypeId(1));
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_operations_rejected() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.begin_op(OpKind::Probe);
        r.begin_op(OpKind::Update);
    }

    #[test]
    #[should_panic(expected = "operation still open")]
    fn end_xct_with_open_operation_rejected() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.begin_op(OpKind::Probe);
        r.end_xct(1);
    }

    #[test]
    #[should_panic(expected = "unknown handle")]
    fn switch_to_unknown_handle_rejected() {
        let mut r = TraceRecorder::new();
        r.switch_to(42);
    }

    #[test]
    #[should_panic(expected = "open transactions")]
    fn take_traces_with_open_transaction_rejected() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.take_traces();
    }

    #[test]
    fn multiple_transactions_accumulate() {
        let mut r = TraceRecorder::new();
        for i in 0..5 {
            r.begin_xct(i, XctTypeId(i as u16));
            r.end_xct(i);
        }
        let (xcts, _) = r.take_traces();
        assert_eq!(xcts.len(), 5);
        assert!(r.take_traces().0.is_empty());
    }
}
