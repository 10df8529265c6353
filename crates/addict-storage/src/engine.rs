//! The transaction manager: the paper's five database operations, fully
//! instrumented.
//!
//! Every public operation brackets itself with `OpBegin`/`OpEnd` markers
//! and, while the *real* structures mutate (B+-trees descend and split,
//! heaps allocate pages, the lock table and log advance), emits:
//!
//! * the instruction-block walks of the routines executed, following the
//!   Figure 1 flow graph (conditional routines — `allocate page`,
//!   `structural modification` — only when the engine actually takes those
//!   paths), and
//! * a data-block access for every page region, lock bucket, buffer-pool
//!   frame, log slot, and catalog entry touched.
//!
//! The resulting traces are the input to ADDICT's Algorithm 1 and to every
//! replayed experiment.

use std::collections::HashMap;

use addict_trace::codemap::{CodeMap, Routine};
use addict_trace::layout;
use addict_trace::{OpKind, TraceRecorder, XctTrace, XctTypeId};

use crate::btree::{PathStep, SmoStats};
use crate::bufferpool::BufferPool;
use crate::catalog::{Catalog, IndexId, TableId};
use crate::error::{StorageError, StorageResult};
use crate::heap::PageAllocator;
use crate::lock::{AcquireOutcome, LockManager, LockMode, Resource};
use crate::rid::Rid;
use crate::wal::{LogManager, LogPayload};

/// Transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XctId(pub u64);

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in frames. The paper keeps the whole database
    /// resident; the default is large enough that steady-state runs never
    /// evict. Frames are allocated on demand, as pages are first fixed, so
    /// a large capacity costs nothing until it is reached.
    pub bufferpool_frames: usize,
    /// B+-tree fanout (max keys per node).
    pub btree_max_keys: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            bufferpool_frames: 1 << 20,
            btree_max_keys: 256,
        }
    }
}

#[derive(Debug, Clone)]
struct XctState {
    #[allow(dead_code)]
    ty: XctTypeId,
    active: bool,
}

/// The storage engine.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    catalog: Catalog,
    alloc: PageAllocator,
    bp: BufferPool,
    locks: LockManager,
    log: LogManager,
    rec: TraceRecorder,
    xcts: HashMap<u64, XctState>,
    next_xct: u64,
}

impl Engine {
    /// A fresh engine (tracing on).
    pub fn new(cfg: EngineConfig) -> Self {
        let bp = BufferPool::new(cfg.bufferpool_frames);
        Engine {
            cfg,
            catalog: Catalog::new(),
            alloc: PageAllocator::new(),
            bp,
            locks: LockManager::new(),
            log: LogManager::default(),
            rec: TraceRecorder::new(),
            xcts: HashMap::new(),
            next_xct: 1,
        }
    }

    /// Toggle trace capture (population runs switch it off).
    pub fn set_tracing(&mut self, on: bool) {
        self.rec.set_enabled(on);
    }

    /// Drain the traces recorded so far.
    pub fn take_traces(&mut self) -> Vec<XctTrace> {
        self.rec.take_traces()
    }

    /// The catalog (schema inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Buffer-pool statistics.
    pub fn bufferpool_stats(&self) -> crate::bufferpool::BufferPoolStats {
        self.bp.stats()
    }

    /// Log-manager reference (tests, diagnostics).
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Lock-manager reference (tests, diagnostics).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Release the spare capacity population leaves in the lock and
    /// transaction tables: both end population empty but sized for its
    /// largest load. Called once an engine is populated, so a kept
    /// snapshot, and every clone of it, does not carry that capacity.
    pub fn shrink_to_fit(&mut self) {
        self.locks.shrink_to_fit();
        self.xcts.shrink_to_fit();
    }

    /// Total pages allocated.
    pub fn pages_allocated(&self) -> u64 {
        self.alloc.allocated()
    }

    /// Approximate heap bytes of the engine's state: the catalog's heaps
    /// and trees, the buffer pool and the lock manager. The recorder is
    /// not counted: it holds traces only between a transaction and the
    /// next drain.
    pub fn resident_bytes(&self) -> usize {
        self.catalog.resident_bytes() + self.bp.resident_bytes() + self.locks.resident_bytes()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table.
    pub fn create_table(&mut self, name: &str) -> TableId {
        self.catalog.create_table(name)
    }

    /// Create an index on `table`.
    pub fn create_index(&mut self, table: TableId, name: &str) -> StorageResult<IndexId> {
        self.catalog
            .create_index(&mut self.alloc, table, name, self.cfg.btree_max_keys)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction of workload type `ty`.
    pub fn begin(&mut self, ty: XctTypeId) -> XctId {
        let id = XctId(self.next_xct);
        self.next_xct += 1;
        self.xcts.insert(id.0, XctState { ty, active: true });
        self.rec.begin_xct(id.0, ty);
        self.rec.exec(Routine::XctBegin);
        self.touch_xct_state(id, 4, true);
        self.log_emit(LogPayload::XctBegin);
        id
    }

    /// Commit: force the log, release all locks, close the trace.
    pub fn commit(&mut self, xct: XctId) -> StorageResult<()> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.exec(Routine::XctCommit);
        self.touch_xct_state(xct, 4, false);
        self.log_emit(LogPayload::XctCommit);
        self.log.flush();
        let released = self.locks.release_all(xct.0);
        self.rec.exec(Routine::LockRelease);
        // Touch a few representative lock buckets on release; releasing
        // hundreds of locks re-touches the same code blocks anyway.
        for r in released.iter().take(8) {
            self.rec
                .data(layout::lock_bucket_block(LockManager::bucket_of(*r)), true);
        }
        self.rec.end_xct(xct.0);
        self.xcts.remove(&xct.0);
        Ok(())
    }

    /// Abort: release locks, log the abort, close the trace.
    /// (Data undo is elided — aborts only arise in lock-conflict tests.)
    pub fn abort(&mut self, xct: XctId) -> StorageResult<()> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.log_emit(LogPayload::XctAbort);
        self.locks.release_all(xct.0);
        self.rec.exec(Routine::LockRelease);
        self.rec.end_xct(xct.0);
        self.xcts.remove(&xct.0);
        Ok(())
    }

    fn check_active(&self, xct: XctId) -> StorageResult<()> {
        match self.xcts.get(&xct.0) {
            Some(s) if s.active => Ok(()),
            Some(_) => Err(StorageError::XctAborted(xct.0)),
            None => Err(StorageError::NoSuchXct(xct.0)),
        }
    }

    // ------------------------------------------------------------------
    // Instrumentation helpers
    // ------------------------------------------------------------------

    /// Touch the transaction's private descriptor blocks (state machine,
    /// cursor objects, lock list). These are the thread-private data a
    /// migrating transaction leaves behind on its previous core — the
    /// Section 4.3 L1-D cost of computation spreading.
    fn touch_xct_state(&mut self, xct: XctId, n: u64, write: bool) {
        for i in 0..n {
            self.rec
                .data(layout::xct_state_block(xct.0, i), write && i == 0);
        }
    }

    /// Acquire a lock, emitting the lock-manager walk and bucket access.
    /// Conflicts resolve by wait-die: the requester loses unless waiting is
    /// deadlock-free, in which case the caller may retry.
    ///
    /// The lock manager's fast/slow path split is data dependent: which
    /// half of the queueing code runs depends on the bucket — one of the
    /// equal-length branch variants that give same-type transactions the
    /// partial (not total) instruction overlap of Figure 2.
    fn lock(&mut self, xct: XctId, res: Resource, mode: LockMode) -> StorageResult<()> {
        let n = CodeMap::global().n_blocks(Routine::LockAcquire);
        self.rec.exec_slice(Routine::LockAcquire, 0, n / 2);
        let outcome = self.locks.acquire(xct.0, res, mode);
        let variant = match mode {
            LockMode::S | LockMode::IS => 0,
            LockMode::X | LockMode::IX => 1,
        };
        self.rec
            .exec_slice(Routine::LockAcquire, n / 2 + variant * (n / 4), n / 4);
        // Appending to the transaction's lock list touches its descriptor.
        self.rec.data(layout::xct_state_block(xct.0, 2), true);
        match outcome {
            AcquireOutcome::Granted { bucket, .. } => {
                self.rec.data(layout::lock_bucket_block(bucket), true);
                Ok(())
            }
            AcquireOutcome::Conflict { bucket, holders } => {
                self.rec.data(layout::lock_bucket_block(bucket), false);
                if self.locks.would_deadlock(xct.0, &holders) {
                    return Err(StorageError::Deadlock { waiter: xct.0 });
                }
                self.locks.record_wait(xct.0, &holders);
                Err(StorageError::LockConflict {
                    loser: xct.0,
                    holder: holders[0],
                })
            }
        }
    }

    /// Append a log record, emitting the log-insert walk and tail write.
    fn log_emit(&mut self, payload: LogPayload) {
        let (_, off) = self.log.append(payload);
        self.rec.exec(Routine::LogInsert);
        self.rec.data(layout::log_block(off), true);
    }

    /// Fix a page in the buffer pool, emitting the fix walk, the frame
    /// control block, and the page-header read.
    fn bp_fix(&mut self, page: u64) -> StorageResult<()> {
        self.rec.exec(Routine::BpFix);
        let out = self.bp.fix(page)?;
        self.rec.data(layout::bufferpool_block(out.frame), false);
        self.rec.data(layout::page_block(page, 0), false);
        Ok(())
    }

    fn bp_unfix(&mut self, page: u64, dirty: bool) {
        self.rec.exec(Routine::BpUnfix);
        self.bp.unfix(page, dirty);
    }

    /// Emit a root-to-leaf descent: per level, buffer fix + latch + the
    /// traverse loop body + key-area touches at the search position.
    ///
    /// One quarter of the per-level loop body is a data-dependent variant
    /// (binary-search tail, boundary-key handling) selected by the node
    /// and landing position, so different descents share most — not all —
    /// of their instruction blocks.
    fn emit_descent(&mut self, path: &[PathStep]) -> StorageResult<()> {
        let n = CodeMap::global().n_blocks(Routine::BtreeTraverse);
        let quarter = n / 4;
        self.rec.exec_slice(Routine::BtreeTraverse, 0, quarter);
        for step in path {
            self.bp_fix(step.page_id)?;
            self.rec.exec(Routine::LatchAcquire);
            // Common loop body.
            self.rec
                .exec_slice(Routine::BtreeTraverse, quarter, quarter);
            // Data-dependent half-quarter variant.
            let variant = (step.page_id ^ step.pos as u64) % 2;
            self.rec.exec_slice(
                Routine::BtreeTraverse,
                2 * quarter + variant * (quarter / 2),
                quarter / 2,
            );
            // Binary search touches the middle and the landing key blocks.
            let key_area = |pos: usize| {
                let off = 128 + (pos as u64 * 16) % (layout::PAGE_BYTES - 192);
                layout::page_block(step.page_id, off)
            };
            self.rec.data(key_area(step.n_keys / 2), false);
            self.rec.data(key_area(step.pos), false);
            self.rec.exec(Routine::LatchRelease);
            self.bp_unfix(step.page_id, false);
        }
        self.rec
            .exec_slice(Routine::BtreeTraverse, 3 * quarter, n - 3 * quarter);
        Ok(())
    }

    /// Emit structural-modification work (splits, new roots, merges).
    fn emit_smo(&mut self, smo: &SmoStats) {
        if !smo.any() {
            return;
        }
        for _ in 0..smo.splits + smo.merges {
            self.rec.exec_part(Routine::StructuralModification, 0, 2);
            self.rec.exec(Routine::LatchAcquire);
            self.rec.exec(Routine::LatchRelease);
        }
        for _ in 0..smo.pages_allocated {
            self.rec.exec(Routine::AllocatePage);
            self.rec.exec(Routine::BpFix);
            self.log_emit(LogPayload::PageAlloc);
        }
        if smo.new_root || smo.root_collapsed || smo.borrows > 0 {
            self.rec.exec_part(Routine::StructuralModification, 1, 2);
        }
        self.log_emit(LogPayload::Smo);
    }

    /// Emit record-page touches covering the record's full block span
    /// (reading a 250-byte row touches four cache blocks).
    fn emit_record_touch(&mut self, rid: Rid, offset: usize, len: usize, write: bool) {
        let first = layout::page_block(rid.page, offset as u64);
        let last = layout::page_block(rid.page, (offset + len.max(1) - 1) as u64);
        for b in first.0..=last.0.min(first.0 + 7) {
            self.rec.data(addict_sim::BlockAddr(b), write);
        }
    }

    /// Emit the tuple-format decode/encode walk: half common, half chosen
    /// by the record's size class.
    fn emit_tuple_layout(&mut self, len: usize) {
        let n = CodeMap::global().n_blocks(Routine::TupleLayout);
        self.rec.exec_slice(Routine::TupleLayout, 0, n / 2);
        let variant = (len / 64) as u64 % 2;
        self.rec
            .exec_slice(Routine::TupleLayout, n / 2 + variant * (n / 4), n / 4);
    }

    // ------------------------------------------------------------------
    // The five database operations
    // ------------------------------------------------------------------

    /// `index probe` (Figure 1): point lookup by key. Returns the tuple
    /// bytes, or `None` when the key does not exist (the paper's "flag
    /// indicating the key is not found").
    pub fn index_probe(
        &mut self,
        xct: XctId,
        index: IndexId,
        key: u64,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Probe);
        let result = self.index_probe_inner(xct, index, key);
        self.rec.end_op();
        result
    }

    fn index_probe_inner(
        &mut self,
        xct: XctId,
        index: IndexId,
        key: u64,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.rec
            .data(layout::metadata_block(u64::from(index.0)), false);
        self.touch_xct_state(xct, 3, true);
        self.rec.exec_part(Routine::FindKey, 0, 2);
        self.rec.exec_part(Routine::BtreeLookup, 0, 2);

        let idx = self.catalog.index(index)?;
        let table = idx.table;
        let probe = idx.btree.probe(key);
        self.emit_descent(&probe.path)?;
        self.rec.exec_part(Routine::BtreeLookup, 1, 2);

        let Some(packed) = probe.value else {
            self.rec.exec_part(Routine::FindKey, 1, 2);
            return Ok(None);
        };
        let rid = Rid::unpack(packed);

        // Lock the record (by rid, the record's identity), then fetch it.
        self.lock(
            xct,
            Resource::Record {
                table: table.0,
                key: packed,
            },
            LockMode::S,
        )?;
        self.rec.exec(Routine::RecordFetch);
        self.bp_fix(rid.page)?;
        let (bytes, offset) = {
            let t = self.catalog.table(table)?;
            let bytes = t.heap.get(rid)?.to_vec();
            let offset = t.heap.record_offset(rid)?;
            (bytes, offset)
        };
        self.emit_record_touch(rid, offset, bytes.len(), false);
        self.emit_tuple_layout(bytes.len());
        self.bp_unfix(rid.page, false);
        self.rec.exec_part(Routine::FindKey, 1, 2);
        Ok(Some(bytes))
    }

    /// Probe variant returning the rid instead of the bytes (workloads
    /// chain probe -> update on the same record, as TPC transactions do).
    pub fn index_probe_rid(
        &mut self,
        xct: XctId,
        index: IndexId,
        key: u64,
    ) -> StorageResult<Option<Rid>> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Probe);
        let result = self.index_probe_rid_inner(xct, index, key);
        self.rec.end_op();
        result
    }

    fn index_probe_rid_inner(
        &mut self,
        xct: XctId,
        index: IndexId,
        key: u64,
    ) -> StorageResult<Option<Rid>> {
        self.rec
            .data(layout::metadata_block(u64::from(index.0)), false);
        self.touch_xct_state(xct, 3, true);
        self.rec.exec_part(Routine::FindKey, 0, 2);
        self.rec.exec_part(Routine::BtreeLookup, 0, 2);
        let idx = self.catalog.index(index)?;
        let table = idx.table;
        let probe = idx.btree.probe(key);
        self.emit_descent(&probe.path)?;
        self.rec.exec_part(Routine::BtreeLookup, 1, 2);
        let Some(packed) = probe.value else {
            self.rec.exec_part(Routine::FindKey, 1, 2);
            return Ok(None);
        };
        self.lock(
            xct,
            Resource::Record {
                table: table.0,
                key: packed,
            },
            LockMode::S,
        )?;
        self.rec.exec_part(Routine::FindKey, 1, 2);
        Ok(Some(Rid::unpack(packed)))
    }

    /// `index scan` (Figure 1): range scan with per-bound inclusivity.
    /// Returns `(key, tuple bytes)` pairs in key order.
    pub fn index_scan(
        &mut self,
        xct: XctId,
        index: IndexId,
        lo: u64,
        lo_inclusive: bool,
        hi: u64,
        hi_inclusive: bool,
    ) -> StorageResult<Vec<(u64, Vec<u8>)>> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Scan);
        let result = self.index_scan_inner(xct, index, lo, lo_inclusive, hi, hi_inclusive);
        self.rec.end_op();
        result
    }

    fn index_scan_inner(
        &mut self,
        xct: XctId,
        index: IndexId,
        lo: u64,
        lo_inclusive: bool,
        hi: u64,
        hi_inclusive: bool,
    ) -> StorageResult<Vec<(u64, Vec<u8>)>> {
        self.rec
            .data(layout::metadata_block(u64::from(index.0)), false);
        self.touch_xct_state(xct, 3, true);
        // initialize cursor: position on the start leaf.
        self.rec.exec_part(Routine::InitCursor, 0, 2);
        self.rec.exec_part(Routine::BtreeLookup, 0, 2);
        let idx = self.catalog.index(index)?;
        let table = idx.table;
        let scan = idx.btree.range(lo, lo_inclusive, hi, hi_inclusive);
        self.emit_descent(&scan.path)?;
        self.rec.exec_part(Routine::BtreeLookup, 1, 2);
        self.rec.exec_part(Routine::InitCursor, 1, 2);

        // Coarse table lock instead of one lock per fetched tuple (the
        // scalable-locking configuration the paper runs Shore-MT with).
        self.lock(xct, Resource::Table(table.0), LockMode::S)?;

        // fetch next: the short tuple loop.
        self.rec.exec(Routine::FetchNext);
        let mut out = Vec::with_capacity(scan.items.len());
        let mut current_leaf = scan.leaf_pages.first().copied();
        let mut leaf_iter = scan.leaf_pages.iter().skip(1);
        let per_leaf = (scan.items.len() / scan.leaf_pages.len().max(1)).max(1);
        for (i, &(key, packed)) in scan.items.iter().enumerate() {
            // Leaf transition roughly every `per_leaf` tuples.
            if i > 0 && i % per_leaf == 0 {
                if let Some(&next_leaf) = leaf_iter.next() {
                    self.rec.exec(Routine::LatchRelease);
                    current_leaf = Some(next_leaf);
                    self.bp_fix(next_leaf)?;
                    self.rec.exec(Routine::LatchAcquire);
                    self.bp_unfix(next_leaf, false);
                }
            }
            let fetch_n = CodeMap::global().n_blocks(Routine::FetchNext);
            let variant = (i as u64) % 2;
            self.rec.exec_slice(
                Routine::FetchNext,
                fetch_n / 4 + variant * (fetch_n / 8),
                fetch_n / 8,
            );
            if let Some(leaf) = current_leaf {
                self.rec.data(
                    layout::page_block(leaf, 128 + (i as u64 * 16) % 4096),
                    false,
                );
            }
            let rid = Rid::unpack(packed);
            let (bytes, offset) = {
                let t = self.catalog.table(table)?;
                (t.heap.get(rid)?.to_vec(), t.heap.record_offset(rid)?)
            };
            self.emit_record_touch(rid, offset, bytes.len(), false);
            self.rec.exec_part(Routine::TupleLayout, 0, 4);
            out.push((key, bytes));
        }
        Ok(out)
    }

    /// `update tuple` (Figure 1): rewrite the record at `rid`.
    pub fn update_tuple(
        &mut self,
        xct: XctId,
        table: TableId,
        rid: Rid,
        bytes: &[u8],
    ) -> StorageResult<()> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Update);
        let result = self.update_tuple_inner(xct, table, rid, bytes);
        self.rec.end_op();
        result
    }

    fn update_tuple_inner(
        &mut self,
        xct: XctId,
        table: TableId,
        rid: Rid,
        bytes: &[u8],
    ) -> StorageResult<()> {
        self.rec
            .data(layout::metadata_block(u64::from(table.0)), false);
        self.touch_xct_state(xct, 3, true);
        self.rec.exec_part(Routine::UpdateTupleApi, 0, 2);
        self.lock(
            xct,
            Resource::Record {
                table: table.0,
                key: rid.pack(),
            },
            LockMode::X,
        )?;

        // pin record page.
        self.rec.exec_part(Routine::PinRecordPage, 0, 2);
        self.bp_fix(rid.page)?;
        self.rec.exec(Routine::LatchAcquire);
        self.rec.exec_part(Routine::PinRecordPage, 1, 2);

        // update page: rewrite + log.
        let up_n = CodeMap::global().n_blocks(Routine::UpdatePage);
        self.rec.exec_slice(Routine::UpdatePage, 0, up_n / 2);
        let offset = {
            let t = self.catalog.table_mut(table)?;
            t.heap.update(rid, bytes)?;
            t.heap.record_offset(rid)?
        };
        self.emit_record_touch(rid, offset, bytes.len(), true);
        self.emit_tuple_layout(bytes.len());
        self.log_emit(LogPayload::Update);
        let lsn = self.log.next_lsn() - 1;
        if let Some(page) = self.catalog.table_mut(table)?.heap.page_mut(rid.page) {
            page.set_page_lsn(lsn);
        }
        let up_variant = u64::from(table.0) % 2;
        self.rec.exec_slice(
            Routine::UpdatePage,
            up_n / 2 + up_variant * (up_n / 4),
            up_n / 4,
        );

        self.rec.exec(Routine::LatchRelease);
        self.bp_unfix(rid.page, true);
        self.rec.exec_part(Routine::UpdateTupleApi, 1, 2);
        Ok(())
    }

    /// `insert tuple` (Figure 1): create the record, then an entry in every
    /// index of the table. `index_keys` supplies the key for each index
    /// (empty for index-less tables like TPC-B's History).
    pub fn insert_tuple(
        &mut self,
        xct: XctId,
        table: TableId,
        index_keys: &[(IndexId, u64)],
        bytes: &[u8],
    ) -> StorageResult<Rid> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Insert);
        let result = self.insert_tuple_inner(xct, table, index_keys, bytes);
        self.rec.end_op();
        result
    }

    fn insert_tuple_inner(
        &mut self,
        xct: XctId,
        table: TableId,
        index_keys: &[(IndexId, u64)],
        bytes: &[u8],
    ) -> StorageResult<Rid> {
        {
            let t = self.catalog.table(table)?;
            assert_eq!(
                t.indexes.len(),
                index_keys.len(),
                "insert must supply a key per index of {}",
                t.name
            );
        }
        self.rec
            .data(layout::metadata_block(u64::from(table.0)), false);
        self.touch_xct_state(xct, 3, true);
        self.rec.exec_part(Routine::InsertTupleApi, 0, 2);
        self.lock(xct, Resource::Table(table.0), LockMode::IX)?;

        // create record.
        self.rec.exec_part(Routine::CreateRecord, 0, 3);
        let ins = {
            let t = self.catalog.table_mut(table)?;
            t.heap.insert(&mut self.alloc, bytes)?
        };
        if ins.allocated_page {
            // allocate page: the conditional Figure 1 path.
            self.rec.exec(Routine::AllocatePage);
            self.rec.exec(Routine::BpFix);
            self.rec.data(layout::page_block(ins.rid.page, 0), true);
            self.log_emit(LogPayload::PageAlloc);
        }
        let cr_n = CodeMap::global().n_blocks(Routine::CreateRecord);
        let cr_variant = u64::from(table.0) % 2;
        self.rec.exec_slice(
            Routine::CreateRecord,
            cr_n / 3 + cr_variant * (cr_n / 6),
            cr_n / 6,
        );
        self.bp_fix(ins.rid.page)?;
        let offset = self.catalog.table(table)?.heap.record_offset(ins.rid)?;
        self.emit_record_touch(ins.rid, offset, bytes.len(), true);
        self.emit_tuple_layout(bytes.len());
        self.log_emit(LogPayload::Insert);
        self.bp_unfix(ins.rid.page, true);
        self.rec.exec_part(Routine::CreateRecord, 2, 3);

        self.lock(
            xct,
            Resource::Record {
                table: table.0,
                key: ins.rid.pack(),
            },
            LockMode::X,
        )?;

        // create index entry, per index.
        let packed = ins.rid.pack();
        for &(index, key) in index_keys {
            self.rec.exec_part(Routine::CreateIndexEntry, 0, 2);
            let (path, smo, leaf_page) = {
                let idx = self.catalog.index_mut(index)?;
                debug_assert_eq!(idx.table, table, "index belongs to another table");
                let r = idx.btree.insert(&mut self.alloc, key, packed)?;
                let leaf = r.path.last().expect("path reaches a leaf").page_id;
                (r.path, r.smo, leaf)
            };
            self.emit_descent(&path)?;
            self.rec
                .data(layout::page_block(leaf_page, 128 + (key * 16) % 4096), true);
            self.emit_smo(&smo);
            self.log_emit(LogPayload::Insert);
            let cie_n = CodeMap::global().n_blocks(Routine::CreateIndexEntry);
            let cie_variant = leaf_page % 2;
            self.rec.exec_slice(
                Routine::CreateIndexEntry,
                cie_n / 2 + cie_variant * (cie_n / 4),
                cie_n / 4,
            );
        }
        self.rec.exec_part(Routine::InsertTupleApi, 1, 2);
        Ok(ins.rid)
    }

    /// `delete tuple`: locate by the first index key, remove the record and
    /// every index entry.
    pub fn delete_tuple(
        &mut self,
        xct: XctId,
        table: TableId,
        index_keys: &[(IndexId, u64)],
    ) -> StorageResult<()> {
        self.check_active(xct)?;
        self.rec.switch_to(xct.0);
        self.rec.begin_op(OpKind::Delete);
        let result = self.delete_tuple_inner(xct, table, index_keys);
        self.rec.end_op();
        result
    }

    fn delete_tuple_inner(
        &mut self,
        xct: XctId,
        table: TableId,
        index_keys: &[(IndexId, u64)],
    ) -> StorageResult<()> {
        assert!(
            !index_keys.is_empty(),
            "delete locates the record through an index"
        );
        self.rec
            .data(layout::metadata_block(u64::from(table.0)), false);
        self.touch_xct_state(xct, 3, true);
        self.rec.exec_part(Routine::DeleteTupleApi, 0, 2);
        self.lock(xct, Resource::Table(table.0), LockMode::IX)?;

        // Locate through the first index.
        let (first_index, first_key) = index_keys[0];
        let packed = {
            let idx = self.catalog.index(first_index)?;
            let probe = idx.btree.probe(first_key);
            self.emit_descent(&probe.path)?;
            probe
                .value
                .ok_or(StorageError::KeyNotFound { key: first_key })?
        };
        let rid = Rid::unpack(packed);
        self.lock(
            xct,
            Resource::Record {
                table: table.0,
                key: packed,
            },
            LockMode::X,
        )?;

        // Remove the record.
        self.rec.exec(Routine::DeleteRecord);
        self.bp_fix(rid.page)?;
        let offset = self.catalog.table(table)?.heap.record_offset(rid)?;
        self.emit_record_touch(rid, offset, 1, true);
        self.emit_tuple_layout(64);
        {
            let t = self.catalog.table_mut(table)?;
            t.heap.delete(rid)?;
        }
        self.log_emit(LogPayload::Delete);
        self.bp_unfix(rid.page, true);

        // Remove every index entry.
        for &(index, key) in index_keys {
            self.rec.exec_part(Routine::DeleteIndexEntry, 0, 2);
            let (path, smo) = {
                let idx = self.catalog.index_mut(index)?;
                let r = idx.btree.delete(key)?;
                (r.path, r.smo)
            };
            self.emit_descent(&path)?;
            self.emit_smo(&smo);
            self.log_emit(LogPayload::Delete);
            self.rec.exec_part(Routine::DeleteIndexEntry, 1, 2);
        }
        self.rec.exec_part(Routine::DeleteTupleApi, 1, 2);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Untraced accessors (population, verification)
    // ------------------------------------------------------------------

    /// Read a tuple without tracing or locking (test verification).
    pub fn peek(&self, table: TableId, rid: Rid) -> StorageResult<Vec<u8>> {
        Ok(self.catalog.table(table)?.heap.get(rid)?.to_vec())
    }

    /// Probe an index without tracing or locking (population, tests).
    pub fn peek_index(&self, index: IndexId, key: u64) -> StorageResult<Option<Rid>> {
        Ok(self
            .catalog
            .index(index)?
            .btree
            .probe(key)
            .value
            .map(Rid::unpack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::TraceEvent;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            btree_max_keys: 8,
            ..Default::default()
        })
    }

    /// One table with one index and `n` populated rows keyed 0..n.
    fn populated(n: u64) -> (Engine, TableId, IndexId) {
        let mut e = engine();
        let t = e.create_table("t");
        let i = e.create_index(t, "t_pk").unwrap();
        e.set_tracing(false);
        let x = e.begin(XctTypeId(0));
        for k in 0..n {
            let payload = format!("row-{k:08}");
            e.insert_tuple(x, t, &[(i, k)], payload.as_bytes()).unwrap();
        }
        e.commit(x).unwrap();
        e.set_tracing(true);
        (e, t, i)
    }

    #[test]
    fn probe_finds_inserted_tuple() {
        let (mut e, _t, i) = populated(100);
        let x = e.begin(XctTypeId(0));
        let bytes = e.index_probe(x, i, 42).unwrap().unwrap();
        assert_eq!(bytes, b"row-00000042");
        assert_eq!(e.index_probe(x, i, 100_000).unwrap(), None);
        e.commit(x).unwrap();
    }

    #[test]
    fn probe_trace_contains_markers_and_routine_walks() {
        let (mut e, _t, i) = populated(100);
        let x = e.begin(XctTypeId(7));
        e.index_probe(x, i, 1).unwrap();
        e.commit(x).unwrap();
        let traces = e.take_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.xct_type, XctTypeId(7));
        let ops = t.op_slices();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, OpKind::Probe);
        // The probe span contains FindKey blocks and data accesses.
        let map = addict_trace::CodeMap::global();
        let span = &t.events[ops[0].1.clone()];
        let mut saw_findkey = false;
        let mut saw_data = false;
        for ev in span {
            match ev {
                TraceEvent::Instr { block, .. }
                    if map.routine_of(*block) == Some(Routine::FindKey) =>
                {
                    saw_findkey = true;
                }
                TraceEvent::Data { .. } => saw_data = true,
                _ => {}
            }
        }
        assert!(saw_findkey && saw_data);
    }

    #[test]
    fn update_rewrites_record() {
        let (mut e, t, i) = populated(50);
        let x = e.begin(XctTypeId(0));
        let rid = e.index_probe_rid(x, i, 7).unwrap().unwrap();
        e.update_tuple(x, t, rid, b"updated-row!").unwrap();
        e.commit(x).unwrap();
        assert_eq!(e.peek(t, rid).unwrap(), b"updated-row!");
    }

    #[test]
    fn insert_maintains_all_indexes() {
        let mut e = engine();
        let t = e.create_table("orders");
        let pk = e.create_index(t, "orders_pk").unwrap();
        let sk = e.create_index(t, "orders_by_customer").unwrap();
        let x = e.begin(XctTypeId(0));
        let rid = e
            .insert_tuple(x, t, &[(pk, 1000), (sk, 77)], b"order")
            .unwrap();
        e.commit(x).unwrap();
        assert_eq!(e.peek_index(pk, 1000).unwrap(), Some(rid));
        assert_eq!(e.peek_index(sk, 77).unwrap(), Some(rid));
    }

    #[test]
    fn scan_returns_range_in_order() {
        let (mut e, _t, i) = populated(200);
        let x = e.begin(XctTypeId(0));
        let rows = e.index_scan(x, i, 10, true, 15, false).unwrap();
        let keys: Vec<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
        assert_eq!(rows[0].1, b"row-00000010");
        e.commit(x).unwrap();
    }

    #[test]
    fn delete_removes_record_and_entries() {
        let (mut e, t, i) = populated(100);
        let x = e.begin(XctTypeId(0));
        e.delete_tuple(x, t, &[(i, 30)]).unwrap();
        assert_eq!(e.index_probe(x, i, 30).unwrap(), None);
        e.commit(x).unwrap();
        assert_eq!(e.peek_index(i, 30).unwrap(), None);
        // Other rows untouched.
        assert!(e.peek_index(i, 31).unwrap().is_some());
    }

    #[test]
    fn page_allocation_emits_allocate_walk() {
        let mut e = engine();
        let t = e.create_table("hist");
        // No index: TPC-B History-style table.
        let x = e.begin(XctTypeId(0));
        // Large rows force a page allocation quickly.
        let big = vec![1u8; 3000];
        for _ in 0..4 {
            e.insert_tuple(x, t, &[], &big).unwrap();
        }
        e.commit(x).unwrap();
        let traces = e.take_traces();
        let map = addict_trace::CodeMap::global();
        let mut alloc_walks = 0;
        for ev in &traces[0].events {
            if let TraceEvent::Instr { block, .. } = ev {
                if map.routine_of(*block) == Some(Routine::AllocatePage) {
                    alloc_walks += 1;
                }
            }
        }
        assert!(alloc_walks >= 2, "4 x 3 KB rows need at least 2 pages");
    }

    #[test]
    fn smo_walks_emitted_on_splits() {
        let mut e = engine(); // fanout 8: splits come fast
        let t = e.create_table("t");
        let i = e.create_index(t, "pk").unwrap();
        let x = e.begin(XctTypeId(0));
        for k in 0..100 {
            e.insert_tuple(x, t, &[(i, k)], b"r").unwrap();
        }
        e.commit(x).unwrap();
        let traces = e.take_traces();
        let map = addict_trace::CodeMap::global();
        let saw_smo = traces[0].events.iter().any(|ev| {
            matches!(ev, TraceEvent::Instr { block, .. }
                if map.routine_of(*block) == Some(Routine::StructuralModification))
        });
        assert!(saw_smo, "100 inserts at fanout 8 must split");
    }

    #[test]
    fn lock_conflict_surfaces_wait_die() {
        let (mut e, t, i) = populated(10);
        let x1 = e.begin(XctTypeId(0));
        let x2 = e.begin(XctTypeId(0));
        let rid = e.index_probe_rid(x1, i, 5).unwrap().unwrap();
        e.update_tuple(x1, t, rid, b"x1-version--").unwrap();
        // x2 probing the same key needs S on a record x1 holds X on.
        let err = e.index_probe(x2, i, 5).unwrap_err();
        assert!(matches!(err, StorageError::LockConflict { loser, .. } if loser == x2.0));
        e.abort(x2).unwrap();
        e.commit(x1).unwrap();
        // After release, a new transaction reads x1's version.
        let x3 = e.begin(XctTypeId(0));
        assert_eq!(e.index_probe(x3, i, 5).unwrap().unwrap(), b"x1-version--");
        e.commit(x3).unwrap();
    }

    #[test]
    fn deadlock_detected_across_two_records() {
        let (mut e, t, i) = populated(10);
        let x1 = e.begin(XctTypeId(0));
        let x2 = e.begin(XctTypeId(0));
        let rid1 = e.index_probe_rid(x1, i, 1).unwrap().unwrap();
        let rid2 = e.index_probe_rid(x2, i, 2).unwrap().unwrap();
        e.update_tuple(x1, t, rid1, b"aaaaaaaaaaaa").unwrap();
        e.update_tuple(x2, t, rid2, b"bbbbbbbbbbbb").unwrap();
        // x1 wants x2's record: conflict, x1 waits.
        assert!(matches!(
            e.update_tuple(x1, t, rid2, b"cccccccccccc"),
            Err(StorageError::LockConflict { .. })
        ));
        // x2 wanting x1's record would close the cycle.
        assert!(matches!(
            e.update_tuple(x2, t, rid1, b"dddddddddddd"),
            Err(StorageError::Deadlock { waiter }) if waiter == x2.0
        ));
        e.abort(x2).unwrap();
        e.commit(x1).unwrap();
    }

    #[test]
    fn commit_forces_log() {
        let (mut e, t, i) = populated(10);
        let x = e.begin(XctTypeId(0));
        let rid = e.index_probe_rid(x, i, 3).unwrap().unwrap();
        e.update_tuple(x, t, rid, b"new-contents").unwrap();
        let before = e.log().durable_lsn();
        e.commit(x).unwrap();
        assert!(e.log().durable_lsn() > before);
    }

    #[test]
    fn untraced_population_leaves_no_traces() {
        let (mut e, _, _) = populated(50);
        assert!(e.take_traces().is_empty(), "population must not be traced");
    }

    #[test]
    fn operations_on_finished_xct_rejected() {
        let (mut e, _t, i) = populated(10);
        let x = e.begin(XctTypeId(0));
        e.commit(x).unwrap();
        assert!(matches!(
            e.index_probe(x, i, 1),
            Err(StorageError::NoSuchXct(_))
        ));
    }
}
