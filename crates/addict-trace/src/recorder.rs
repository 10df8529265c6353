//! The trace recorder the storage engine drives while executing
//! transactions.
//!
//! Several transactions may be open at once (the engine interleaves them on
//! one thread, as callers of a storage manager do); each gets its own event
//! stream, keyed by a caller-chosen `u64` handle. The engine *switches* the
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
use crate::event::{OpKind, TraceEvent, XctTrace, XctTypeId};

#[derive(Debug)]
struct OpenTrace {
    trace: XctTrace,
    op_open: Option<OpKind>,
}

/// Records per-transaction traces of engine execution.
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    open: HashMap<u64, OpenTrace>,
    current: Option<u64>,
    finished: Vec<XctTrace>,
}

impl TraceRecorder {
    /// A recorder that captures events.
    pub fn new() -> Self {
        TraceRecorder {
            enabled: true,
            open: HashMap::new(),
            current: None,
            finished: Vec::new(),
        }
    }

    /// A recorder that drops everything (for untraced engine runs).
    pub fn disabled() -> Self {
        TraceRecorder {
            enabled: false,
            ..Self::new()
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
        let mut trace = XctTrace {
            xct_type,
            events: Vec::with_capacity(4096),
        };
        trace.events.push(TraceEvent::XctBegin { xct_type });
        let prev = self.open.insert(
            handle,
            OpenTrace {
                trace,
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
        open.trace.events.push(TraceEvent::XctEnd);
        self.finished.push(open.trace);
        if self.current == Some(handle) {
            self.current = None;
        }
    }

    fn cur(&mut self) -> Option<&mut OpenTrace> {
        let handle = self.current?;
        self.open.get_mut(&handle)
    }

    /// Enter a database operation on the current transaction.
    pub fn begin_op(&mut self, op: OpKind) {
        if !self.enabled {
            return;
        }
        let open = self.cur().expect("begin_op outside a transaction");
        assert!(open.op_open.is_none(), "operations do not nest");
        open.op_open = Some(op);
        open.trace.events.push(TraceEvent::OpBegin { op });
    }

    /// Exit the open database operation on the current transaction.
    pub fn end_op(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self.cur().expect("end_op outside a transaction");
        let op = open.op_open.take().expect("end_op without begin_op");
        open.trace.events.push(TraceEvent::OpEnd { op });
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
        let Some(open) = self.cur() else { return };
        open.trace.events.push(TraceEvent::Instr {
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
        let Some(open) = self.cur() else { return };
        open.trace.events.push(TraceEvent::Data { block, write });
    }

    /// Number of completed traces held.
    pub fn len(&self) -> usize {
        self.finished.len()
    }

    /// True when no completed traces are held.
    pub fn is_empty(&self) -> bool {
        self.finished.is_empty()
    }

    /// Drain the completed traces (in completion order).
    pub fn take_traces(&mut self) -> Vec<XctTrace> {
        std::mem::take(&mut self.finished)
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

    #[test]
    fn records_a_bracketed_transaction() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(3));
        r.begin_op(OpKind::Probe);
        r.exec(Routine::FindKey);
        r.data(BlockAddr(0x9999), false);
        r.end_op();
        r.end_xct(1);
        let traces = r.take_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.xct_type, XctTypeId(3));
        assert!(matches!(
            t.events.first(),
            Some(TraceEvent::XctBegin { .. })
        ));
        assert!(matches!(t.events.last(), Some(TraceEvent::XctEnd)));
        let map = CodeMap::global();
        assert_eq!(t.instr_accesses(), map.n_blocks(Routine::FindKey));
        assert_eq!(t.data_accesses(), 1);
    }

    #[test]
    fn interleaved_transactions_keep_separate_streams() {
        let mut r = TraceRecorder::new();
        r.begin_xct(1, XctTypeId(0));
        r.begin_xct(2, XctTypeId(1));
        // Events for 2 (current after begin), then switch back to 1.
        r.data(BlockAddr(200), false);
        r.switch_to(1);
        r.data(BlockAddr(100), false);
        r.data(BlockAddr(101), false);
        r.switch_to(2);
        r.data(BlockAddr(201), true);
        r.end_xct(2);
        r.end_xct(1);
        let traces = r.take_traces();
        assert_eq!(traces.len(), 2);
        // Completion order: 2 first.
        assert_eq!(traces[0].xct_type, XctTypeId(1));
        assert_eq!(traces[0].data_accesses(), 2);
        assert_eq!(traces[1].xct_type, XctTypeId(0));
        assert_eq!(traces[1].data_accesses(), 2);
        // No cross-contamination.
        assert!(traces[1].events.iter().all(|e| !matches!(
            e,
            TraceEvent::Data { block, .. } if block.0 >= 200
        )));
    }

    #[test]
    fn exec_part_slices_cover_whole_region_disjointly() {
        let mut r = TraceRecorder::new();
        r.begin_xct(0, XctTypeId(0));
        for part in 0..3 {
            r.exec_part(Routine::BtreeTraverse, part, 3);
        }
        r.end_xct(0);
        let t = &r.take_traces()[0];
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
        let mut r = TraceRecorder::disabled();
        r.begin_xct(5, XctTypeId(0));
        r.exec(Routine::FindKey);
        r.data(BlockAddr(1), true);
        r.end_xct(5);
        assert!(r.take_traces().is_empty());
    }

    #[test]
    fn set_enabled_toggles_capture() {
        let mut r = TraceRecorder::new();
        r.set_enabled(false);
        r.begin_xct(1, XctTypeId(0));
        r.end_xct(1);
        assert!(r.is_empty());
        r.set_enabled(true);
        r.begin_xct(2, XctTypeId(0));
        r.end_xct(2);
        assert_eq!(r.len(), 1);
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
    #[should_panic(expected = "unknown handle")]
    fn switch_to_unknown_handle_rejected() {
        let mut r = TraceRecorder::new();
        r.switch_to(42);
    }

    #[test]
    fn multiple_transactions_accumulate() {
        let mut r = TraceRecorder::new();
        for i in 0..5 {
            r.begin_xct(i, XctTypeId(i as u16));
            r.end_xct(i);
        }
        assert_eq!(r.len(), 5);
        let traces = r.take_traces();
        assert_eq!(traces.len(), 5);
        assert!(r.is_empty());
    }
}
