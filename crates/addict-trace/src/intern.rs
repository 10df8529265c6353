//! Interned, arena-backed traces: the replay working set shrunk to the
//! *distinct code paths* of the workload.
//!
//! TPC transaction traces repeat near-identical event sequences per
//! transaction type — the very instruction locality ADDICT exploits on the
//! simulated machine. Flat `XctTrace`s waste that locality on the *host*:
//! every trace owns its own `Vec<TraceEvent>`, so at thousands of traces
//! replay streams tens of megabytes of near-duplicate events through the
//! host's memory hierarchy. This module stores each distinct event
//! sequence **once**:
//!
//! * [`SlicePool`] — a content-addressed arena: one contiguous
//!   `Vec<TraceEvent>` backing store holding deduplicated *canonical*
//!   slices (data-access block addresses blanked, since those vary per
//!   transaction even when control flow repeats);
//! * [`SliceRef`] — an 8-byte reference `{ pool_idx, len }` into the pool;
//! * [`TraceBuilder`] — cuts a trace into slices as it is recorded and
//!   interns each one as it closes;
//! * [`InternedTrace`] — a trace as a compact `Vec<SliceRef>` plus the
//!   per-trace varying parts: the data-access block addresses, in stream
//!   order, delta-varint encoded against per-region running bases (see
//!   `encode_addr`) so each address costs ~1.5 bytes instead of 8;
//! * [`InternedWorkload`] — the interned form of a `WorkloadTrace`, its
//!   pool behind an `Arc` so replay threads (and whole sweep grids) share
//!   one read-only working set;
//! * [`InternedSet`] — the borrowed `(pool, traces)` view the replay
//!   engine walks, fetching events straight out of the `SliceRef`s.
//!
//! Slices split at **operation boundaries** (`OpBegin` starts a new slice,
//! `OpEnd` ends one): op bodies are the unit the paper shows repeating
//! across instances, and measured on TPC-C they dedup ~35x at this
//! granularity. [`InternedTrace::decode_slices`] walks a trace back out
//! slice by slice with its real data addresses. Interning is lossless —
//! [`InternedTrace::flatten`], that walk concatenated, reproduces the
//! original event sequence bit-for-bit, and the round-trip is
//! property-tested in `tests/intern_roundtrip.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use addict_sim::{BlockAddr, DataAccess};
use serde::{Deserialize, Serialize};

use crate::event::{FlatEvent, TraceEvent, WorkloadTrace, XctTrace, XctTypeId};
use crate::layout;
use crate::set::{prefetch_ptr, DataRun, Fetched};

/// A reference to one deduplicated slice in a [`SlicePool`]: `len` events
/// starting at `pool_idx` in the backing store. 8 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceRef {
    /// Start offset into the pool's backing store.
    pub pool_idx: u32,
    /// Number of events in the slice (always ≥ 1).
    pub len: u32,
}

/// FNV-1a over a canonical slice. Deterministic (unlike `RandomState`), so
/// pool layout is a pure function of interning order.
fn hash_slice(events: &[TraceEvent]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for e in events {
        match *e {
            TraceEvent::XctBegin { xct_type } => mix(1 | (u64::from(xct_type.0) << 8)),
            TraceEvent::XctEnd => mix(2),
            TraceEvent::OpBegin { op } => mix(3 | ((op as u64) << 8)),
            TraceEvent::OpEnd { op } => mix(4 | ((op as u64) << 8)),
            TraceEvent::Instr {
                block,
                n_blocks,
                ipb,
            } => {
                mix(5 | (u64::from(n_blocks) << 8) | (u64::from(ipb) << 32));
                mix(block.0);
            }
            TraceEvent::Data { write, .. } => mix(6 | (u64::from(write) << 8)),
        }
    }
    h
}

/// Content-addressed arena of deduplicated canonical event slices.
///
/// All interned traces of a workload (or of several — profile and eval
/// sets share one pool) reference this single backing store, so replaying
/// N traces touches the pool's few hundred distinct slices instead of N
/// private event vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlicePool {
    /// The contiguous backing store of canonical events.
    events: Vec<TraceEvent>,
    /// Canonical-slice hash → slices with that hash (collisions resolved
    /// by comparing contents).
    index: HashMap<u64, Vec<SliceRef>>,
    /// Slices interned so far, duplicates included (dedup numerator).
    slices_interned: u64,
    /// Distinct slices stored (dedup denominator).
    unique_slices: u64,
}

impl SlicePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a canonical slice (data addresses already blanked),
    /// returning a reference to the pool's single copy.
    ///
    /// # Panics
    /// Panics on an empty slice or a pool exceeding `u32` events.
    pub fn intern(&mut self, canon: &[TraceEvent]) -> SliceRef {
        assert!(!canon.is_empty(), "empty slices are never interned");
        self.slices_interned += 1;
        let h = hash_slice(canon);
        let candidates = self.index.entry(h).or_default();
        for &r in candidates.iter() {
            if &self.events[r.pool_idx as usize..(r.pool_idx + r.len) as usize] == canon {
                return r;
            }
        }
        // Bound the *end* of the new slice, not its start: pool_idx + len
        // must stay representable so resolve()/at() arithmetic cannot
        // overflow u32.
        let end = u32::try_from(self.events.len() + canon.len()).expect("pool fits u32 events");
        let len = u32::try_from(canon.len()).expect("slice fits u32 events");
        let pool_idx = end - len;
        self.events.extend_from_slice(canon);
        let r = SliceRef { pool_idx, len };
        candidates.push(r);
        self.unique_slices += 1;
        r
    }

    /// The canonical events of `r`.
    #[inline]
    pub fn resolve(&self, r: SliceRef) -> &[TraceEvent] {
        &self.events[r.pool_idx as usize..(r.pool_idx + r.len) as usize]
    }

    /// One canonical event of `r` — the replay hot path's pool read.
    #[inline]
    fn at(&self, r: SliceRef, pos: u32) -> TraceEvent {
        debug_assert!(pos < r.len);
        self.events[(r.pool_idx + pos) as usize]
    }

    /// Events in the backing store (each distinct slice stored once).
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Distinct slices stored.
    pub fn unique_slices(&self) -> u64 {
        self.unique_slices
    }

    /// Slices interned, duplicates included.
    pub fn slices_interned(&self) -> u64 {
        self.slices_interned
    }

    /// Resident bytes of the backing store.
    pub fn backing_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<TraceEvent>()
    }
}

/// One transaction trace in interned form: a compact slice-reference
/// sequence plus the per-trace varying data-access addresses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InternedTrace {
    /// Transaction type.
    pub xct_type: XctTypeId,
    /// The trace's event stream as references into the shared pool.
    slices: Vec<SliceRef>,
    /// Data-access block addresses, in stream order (canonical slices
    /// carry blanked `Data` events; these are their real addresses),
    /// delta-varint encoded — see [`encode_addr`]. Self-contained per
    /// trace (bases reset at trace start), so re-interning into another
    /// pool copies these bytes verbatim.
    data: Vec<u8>,
    /// Number of addresses encoded in `data`.
    n_data: u32,
    /// Total dynamic instructions, cached at intern time. Schedulers that
    /// weigh placement by work (STREX's load balancer) ask for this once
    /// per transaction; resolving it through the pool would be O(events)
    /// per call and turns the dispatch pre-pass into an O(total events)
    /// scan of the whole workload.
    instructions: u64,
}

/// Regions of the delta codec: `min(addr >> 24, 7)`, which lines the
/// layout's data regions up one-to-one (metadata 1, locks 2, buffer pool
/// 3, log 4, transaction state 5) and folds everything at
/// [`layout::PAGE_BASE`] and above into region 7.
const DELTA_REGIONS: usize = 8;

/// Seed value of each region's running base: the region's own base
/// address, so a region's first touch encodes as its small offset from
/// the base rather than a full absolute address.
const DELTA_BASES: [u64; DELTA_REGIONS] = [
    0,
    layout::METADATA_BASE,
    layout::LOCK_TABLE_BASE,
    layout::BUFFERPOOL_BASE,
    layout::LOG_BASE,
    layout::XCT_STATE_BASE,
    0x0600_0000,
    layout::PAGE_BASE,
];

/// The delta-codec region of an address.
#[inline]
fn delta_region(addr: u64) -> usize {
    ((addr >> 24).min(7)) as usize
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append one data-access address to a trace's encoded side table,
/// updating the running per-region bases.
///
/// Addresses are stored as zigzag varint deltas against the **last
/// address seen in the same address-space region** of the trace, bases
/// seeded from [`DELTA_BASES`]. A region's first touch is a small offset
/// from its base (effectively absolute); later touches pay only for
/// their locality — sequential log blocks, repeated lock buckets and
/// per-transaction state cost a byte or two instead of eight. Deltas
/// never cross regions, so the op-body pattern "metadata, lock, page,
/// log" — addresses tens of megabytes apart — stays cheap. Measured on
/// TPC-B@400 this shrinks address bytes ~5.3x (TPC-C ~4.8x), where a
/// first-touch-per-op scheme manages only ~1.8x.
///
/// Entry layout: first byte `continue(bit 7) | region(bits 6..4) |
/// payload(bits 3..0)`, then LEB128 continuation bytes (7 payload bits,
/// high bit = continue) — at most 10 bytes for a 64-bit zigzag delta.
/// Arithmetic wraps, so every `u64` address round-trips.
fn encode_addr(addr: u64, last: &mut [u64; DELTA_REGIONS], out: &mut Vec<u8>) {
    let r = delta_region(addr);
    let mut z = zigzag(addr.wrapping_sub(last[r]) as i64);
    last[r] = addr;
    let mut first = ((r as u8) << 4) | (z & 0xf) as u8;
    z >>= 4;
    if z != 0 {
        first |= 0x80;
    }
    out.push(first);
    while z != 0 {
        let mut b = (z & 0x7f) as u8;
        z >>= 7;
        if z != 0 {
            b |= 0x80;
        }
        out.push(b);
    }
}

/// Decode the address at byte offset `off`, returning it with the offset
/// of the next entry. Pure — the caller commits base/offset updates
/// separately, because the cursor's `fetch` peeks without consuming.
#[inline]
fn decode_addr(data: &[u8], off: usize, last: &[u64; DELTA_REGIONS]) -> (u64, usize) {
    let first = data[off];
    let r = ((first >> 4) & 0x7) as usize;
    let mut z = u64::from(first & 0xf);
    let mut shift = 4u32;
    let mut cont = first & 0x80 != 0;
    let mut i = off + 1;
    while cont {
        let b = data[i];
        z |= u64::from(b & 0x7f) << shift;
        shift += 7;
        cont = b & 0x80 != 0;
        i += 1;
    }
    (last[r].wrapping_add(unzigzag(z) as u64), i)
}

/// Decode the address at `*off` and consume it: advances the offset and
/// commits the region's running base. (The decoded address is always in
/// the region the entry was tagged with, so committing by
/// `delta_region(addr)` matches the encoder.)
#[inline]
fn decode_addr_mut(data: &[u8], off: &mut usize, last: &mut [u64; DELTA_REGIONS]) -> u64 {
    let (addr, next) = decode_addr(data, *off, last);
    last[delta_region(addr)] = addr;
    *off = next;
    addr
}

/// Builds one [`InternedTrace`] event by event, interning each slice into
/// a [`SlicePool`] as soon as it closes. The one slicing routine: the
/// recorder drives it while a transaction runs, and
/// [`InternedTrace::intern`] drives it over a recorded flat trace.
///
/// A slice ends right before every `OpBegin` and right after every
/// `OpEnd`, so op bodies — the unit that repeats across instances — land
/// as single pool entries. Data addresses go to the trace's delta-encoded
/// side table (see `encode_addr`) and are blanked in the slice.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    xct_type: XctTypeId,
    slices: Vec<SliceRef>,
    /// The open slice, canonical form.
    canon: Vec<TraceEvent>,
    data: Vec<u8>,
    n_data: u32,
    last: [u64; DELTA_REGIONS],
    instructions: u64,
}

impl TraceBuilder {
    /// An empty trace of type `xct_type`.
    pub fn new(xct_type: XctTypeId) -> Self {
        TraceBuilder {
            xct_type,
            slices: Vec::new(),
            canon: Vec::new(),
            data: Vec::new(),
            n_data: 0,
            last: DELTA_BASES,
            instructions: 0,
        }
    }

    /// Append `e`, interning the slice it closes (if any) into `pool`.
    pub fn push(&mut self, mut e: TraceEvent, pool: &mut SlicePool) {
        match &mut e {
            TraceEvent::OpBegin { .. } => self.cut(pool),
            TraceEvent::Data { block, .. } => {
                encode_addr(block.0, &mut self.last, &mut self.data);
                self.n_data += 1;
                *block = BlockAddr(0);
            }
            TraceEvent::Instr { n_blocks, ipb, .. } => {
                self.instructions += u64::from(*n_blocks) * u64::from(*ipb);
            }
            _ => {}
        }
        self.canon.push(e);
        if matches!(e, TraceEvent::OpEnd { .. }) {
            self.cut(pool);
        }
    }

    /// Intern the open slice, if it holds any event.
    fn cut(&mut self, pool: &mut SlicePool) {
        if !self.canon.is_empty() {
            self.slices.push(pool.intern(&self.canon));
            self.canon.clear();
        }
    }

    /// Close the last slice and return the trace.
    pub fn finish(mut self, pool: &mut SlicePool) -> InternedTrace {
        self.cut(pool);
        // Traces live for the whole run at million-transaction scale, so
        // copy them into exact-fit allocations. Shrinking the grown
        // buffers in place instead leaves each one where it grew, among
        // the engine's short-lived allocations: 100,000 default-scale
        // TPC-B transactions peaked at 71.7 MB that way and 58.4 MB
        // copied (glibc malloc, Linux x86-64).
        InternedTrace {
            xct_type: self.xct_type,
            slices: self.slices.to_vec(),
            data: self.data.to_vec(),
            n_data: self.n_data,
            instructions: self.instructions,
        }
    }
}

impl InternedTrace {
    /// Intern a recorded flat `trace` into `pool` (see [`TraceBuilder`]
    /// for where slices split).
    pub fn intern(trace: &XctTrace, pool: &mut SlicePool) -> InternedTrace {
        let mut builder = TraceBuilder::new(trace.xct_type);
        for &e in &trace.events {
            builder.push(e, pool);
        }
        builder.finish(pool)
    }

    /// Decode the trace one slice at a time: each item is a slice's
    /// events with their real data addresses. [`Self::flatten`] and the
    /// Section 2 analyses read traces through it; replay walks
    /// [`InternedSet`]'s cursor instead. A slice that opens with `OpBegin`
    /// is exactly one operation instance, both markers included (see
    /// [`TraceBuilder`]).
    ///
    /// # Panics
    /// Panics at the end of the walk unless the slices consumed the data
    /// stream exactly.
    pub fn decode_slices<'a>(
        &'a self,
        pool: &'a SlicePool,
    ) -> impl Iterator<Item = Vec<TraceEvent>> + 'a {
        let mut refs = self.slices.iter();
        let mut off = 0usize;
        let mut last = DELTA_BASES;
        std::iter::from_fn(move || {
            let Some(&r) = refs.next() else {
                assert_eq!(off, self.data.len(), "data stream exhausted exactly");
                return None;
            };
            let decoded = pool.resolve(r).iter().map(|&e| match e {
                TraceEvent::Data { write, .. } => TraceEvent::Data {
                    block: BlockAddr(decode_addr_mut(&self.data, &mut off, &mut last)),
                    write,
                },
                e => e,
            });
            Some(decoded.collect())
        })
    }

    /// Reconstruct the flat trace, bit-identical to what was interned.
    pub fn flatten(&self, pool: &SlicePool) -> XctTrace {
        XctTrace {
            xct_type: self.xct_type,
            events: self.decode_slices(pool).flatten().collect(),
        }
    }

    /// Slice references of this trace.
    pub fn slice_refs(&self) -> &[SliceRef] {
        &self.slices
    }

    /// Number of data accesses.
    pub fn data_accesses(&self) -> u64 {
        u64::from(self.n_data)
    }

    /// Bytes of the encoded data-address side table (raw form would be
    /// `8 × data_accesses()`).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Events after slice expansion (= the flat trace's event count).
    pub fn n_events(&self) -> usize {
        self.slices.iter().map(|r| r.len as usize).sum()
    }

    /// Total dynamic instructions (matches `XctTrace::instructions`).
    /// Cached at intern time — O(1), never touches the pool.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Per-trace resident bytes (slice refs + data addresses + the struct
    /// itself; the shared pool is accounted separately).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slices.len() * std::mem::size_of::<SliceRef>()
            + self.data.len()
    }
}

/// A named batch of interned traces — the interned form of
/// [`WorkloadTrace`]. The pool sits behind an `Arc` so several workloads
/// (profile + eval) and every thread of a sweep grid share one read-only
/// arena.
#[derive(Debug, Clone)]
pub struct InternedWorkload {
    /// Workload name ("TPC-B", "TPC-C", "TPC-E").
    pub name: String,
    /// Transaction type names, indexed by [`XctTypeId`].
    pub xct_type_names: Vec<String>,
    /// The shared slice arena.
    pub pool: Arc<SlicePool>,
    /// The traces, in generation order.
    pub xcts: Vec<InternedTrace>,
}

impl InternedWorkload {
    /// Intern a flat workload into a fresh private pool.
    pub fn from_flat(w: &WorkloadTrace) -> Self {
        let mut pool = SlicePool::new();
        let xcts = w
            .xcts
            .iter()
            .map(|t| InternedTrace::intern(t, &mut pool))
            .collect();
        InternedWorkload {
            name: w.name.clone(),
            xct_type_names: w.xct_type_names.clone(),
            pool: Arc::new(pool),
            xcts,
        }
    }

    /// Reconstruct the flat workload, bit-identical to what was interned.
    pub fn flatten(&self) -> WorkloadTrace {
        WorkloadTrace {
            name: self.name.clone(),
            xct_type_names: self.xct_type_names.clone(),
            xcts: self.xcts.iter().map(|t| t.flatten(&self.pool)).collect(),
        }
    }

    /// Total resident bytes of this workload for cache accounting: the
    /// shared pool's backing store plus every trace's refs/addresses plus
    /// the container and name overhead. This is what a trace-pool cache
    /// charges against its byte budget — when several workloads share one
    /// pool (`Arc`), each cached entry still charges the full pool (the
    /// budget bounds worst-case retention, so double-counting a shared
    /// arena errs on the safe side).
    pub fn resident_bytes(&self) -> usize {
        let names: usize = self
            .xct_type_names
            .iter()
            .map(|n| n.len() + std::mem::size_of::<String>())
            .sum();
        std::mem::size_of::<Self>() + self.name.len() + names + self.footprint().resident_bytes()
    }

    /// The borrowed `(pool, traces)` view replay walks.
    pub fn as_set(&self) -> InternedSet<'_> {
        InternedSet {
            pool: &self.pool,
            xcts: &self.xcts,
        }
    }

    /// Memory footprint report (BENCHMARKS.md methodology). Both sides
    /// count their per-trace struct overhead: flat is
    /// `size_of::<XctTrace>() + events × size_of::<TraceEvent>()` per
    /// trace, interned is [`InternedTrace::resident_bytes`] plus the
    /// shared pool once.
    pub fn footprint(&self) -> InternFootprint {
        let flat_events: usize = self.xcts.iter().map(InternedTrace::n_events).sum();
        let per_trace: usize = self.xcts.iter().map(InternedTrace::resident_bytes).sum();
        InternFootprint {
            n_traces: self.xcts.len(),
            flat_bytes: flat_events * std::mem::size_of::<TraceEvent>()
                + self.xcts.len() * std::mem::size_of::<XctTrace>(),
            pool_bytes: self.pool.backing_bytes(),
            trace_bytes: per_trace,
            data_bytes: self.xcts.iter().map(InternedTrace::data_bytes).sum(),
            data_accesses: self.xcts.iter().map(InternedTrace::data_accesses).sum(),
            unique_slices: self.pool.unique_slices(),
            slices_interned: self.pool.slices_interned(),
        }
    }
}

/// Resident-memory comparison of a workload's flat vs interned form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InternFootprint {
    /// Traces measured.
    pub n_traces: usize,
    /// Bytes the flat event vectors would occupy (events × 16).
    pub flat_bytes: usize,
    /// Bytes of the shared pool backing store.
    pub pool_bytes: usize,
    /// Bytes of the per-trace slice refs + data addresses.
    pub trace_bytes: usize,
    /// Bytes of the encoded per-trace data-address side tables (the
    /// dominant component of `trace_bytes` on TPC workloads).
    pub data_bytes: usize,
    /// Data accesses across all traces (8 bytes each if stored raw).
    pub data_accesses: u64,
    /// Distinct slices in the pool.
    pub unique_slices: u64,
    /// Slices interned, duplicates included.
    pub slices_interned: u64,
}

impl InternFootprint {
    /// Total interned resident bytes (pool + per-trace).
    pub fn resident_bytes(&self) -> usize {
        self.pool_bytes + self.trace_bytes
    }

    /// Flat-over-interned byte reduction factor.
    pub fn reduction(&self) -> f64 {
        if self.resident_bytes() == 0 {
            1.0
        } else {
            self.flat_bytes as f64 / self.resident_bytes() as f64
        }
    }

    /// Raw-over-encoded reduction of the data-address side tables
    /// (8 bytes per access if stored as absolute `u64`s).
    pub fn address_reduction(&self) -> f64 {
        if self.data_bytes == 0 {
            1.0
        } else {
            (self.data_accesses * 8) as f64 / self.data_bytes as f64
        }
    }

    /// Dedup ratio of the pool this workload interned into.
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_slices == 0 {
            1.0
        } else {
            self.slices_interned as f64 / self.unique_slices as f64
        }
    }
}

/// Borrowed view of interned traces + their pool: what the replay engine
/// and the sweep grid hand around. `Copy`, 2 pointers wide.
#[derive(Debug, Clone, Copy)]
pub struct InternedSet<'a> {
    /// The shared arena.
    pub pool: &'a SlicePool,
    /// The traces to replay.
    pub xcts: &'a [InternedTrace],
}

/// Cursor over an interned trace: the **current slice's `SliceRef` cached
/// inline** (so steady-state fetches read only the pool — no per-event
/// `slices[]` indirection), the slice's index, the position within it, the
/// block offset within the current instruction run, and the delta
/// decoder's state in the per-trace data-address stream (byte offset plus
/// the running per-region bases — the stream is sequential-decode only,
/// which the forward-walking cursor is by construction).
///
/// A default cursor carries the sentinel `r.len == 0` with `slice == 0`,
/// meaning "first slice not yet loaded" — resolved lazily because
/// `Default` has no trace to look at. After the first advance the cached
/// ref only refreshes at slice boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternCursor {
    r: SliceRef,
    slice: u32,
    pos: u32,
    off: u16,
    data_off: u32,
    last: [u64; DELTA_REGIONS],
}

impl Default for InternCursor {
    fn default() -> Self {
        InternCursor {
            r: SliceRef::default(),
            slice: 0,
            pos: 0,
            off: 0,
            data_off: 0,
            last: DELTA_BASES,
        }
    }
}

impl InternedSet<'_> {
    /// The slice under `cur`, loading the first slice for a fresh cursor.
    /// `None` is end-of-trace. (Slices are never empty, so a loaded ref
    /// always has at least one event.)
    #[inline]
    fn slice_of(&self, idx: usize, cur: InternCursor) -> Option<SliceRef> {
        if cur.r.len != 0 {
            return Some(cur.r);
        }
        if cur.slice == 0 {
            return self.xcts[idx].slices.first().copied();
        }
        None
    }

    /// Materialize the lazily-loaded first slice into the cursor.
    #[inline]
    fn load(&self, idx: usize, cur: &mut InternCursor) {
        if cur.r.len == 0 {
            if let Some(&r) = self.xcts[idx].slices.first() {
                cur.r = r;
            }
        }
    }

    /// Step `cur` past the current event: next position in the cached
    /// slice, or load the next slice at its boundary.
    #[inline]
    fn bump(&self, idx: usize, cur: &mut InternCursor) {
        cur.pos += 1;
        if cur.pos >= cur.r.len {
            cur.slice += 1;
            cur.pos = 0;
            cur.r = self.xcts[idx]
                .slices
                .get(cur.slice as usize)
                .copied()
                .unwrap_or(SliceRef {
                    pool_idx: 0,
                    len: 0,
                });
        }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.xcts.len()
    }

    /// True when there are no traces.
    pub fn is_empty(&self) -> bool {
        self.xcts.is_empty()
    }

    /// Transaction type of trace `idx`.
    pub fn xct_type(&self, idx: usize) -> XctTypeId {
        self.xcts[idx].xct_type
    }

    /// Total dynamic instructions of trace `idx` (STREX's load balancer).
    pub fn instructions_of(&self, idx: usize) -> u64 {
        self.xcts[idx].instructions
    }

    /// What stands at `cur` in trace `idx`. The single trace read per
    /// engine step: the replay engine calls it once per executed event
    /// (or once per *segment* on the segment-granular fast path) and
    /// never re-reads the trace to advance.
    #[inline]
    pub fn fetch(&self, idx: usize, cur: InternCursor) -> Fetched {
        let t = &self.xcts[idx];
        let Some(r) = self.slice_of(idx, cur) else {
            return Fetched::End;
        };
        match self.pool.at(r, cur.pos) {
            TraceEvent::Instr {
                block,
                n_blocks,
                ipb,
            } => Fetched::Run {
                block: BlockAddr(block.0 + u64::from(cur.off)),
                rem: n_blocks - cur.off,
                ipb,
            },
            TraceEvent::Data { write, .. } => {
                // Peek: decode without committing offset or bases —
                // `advance_event` consumes the entry.
                let (addr, _) = decode_addr(&t.data, cur.data_off as usize, &cur.last);
                Fetched::Event(FlatEvent::Data {
                    block: BlockAddr(addr),
                    write,
                })
            }
            TraceEvent::XctBegin { xct_type } => Fetched::Event(FlatEvent::XctBegin(xct_type)),
            TraceEvent::XctEnd => Fetched::Event(FlatEvent::XctEnd),
            TraceEvent::OpBegin { op } => Fetched::Event(FlatEvent::OpBegin(op)),
            TraceEvent::OpEnd { op } => Fetched::Event(FlatEvent::OpEnd(op)),
        }
    }

    /// Consume `k` blocks of the instruction run that [`Self::fetch`]
    /// reported with `rem` blocks remaining (`1 <= k <= rem`; `k == rem`
    /// ends the run). Cursor arithmetic plus, at a slice boundary, one
    /// slice-ref read.
    #[inline]
    pub fn advance_run(&self, idx: usize, cur: &mut InternCursor, rem: u16, k: u16) {
        debug_assert!(k >= 1 && k <= rem);
        self.load(idx, cur);
        if k == rem {
            cur.off = 0;
            self.bump(idx, cur);
        } else {
            cur.off += k;
        }
    }

    /// Consume the non-run event that [`Self::fetch`] reported as `ev`
    /// (the event is passed back so the cursor can step its data-address
    /// stream without resolving the pool again).
    #[inline]
    pub fn advance_event(&self, idx: usize, cur: &mut InternCursor, ev: FlatEvent) {
        if let FlatEvent::Data { block, .. } = ev {
            // The fetched event already carries the decoded address, so
            // committing it needs only the entry's byte length (scan the
            // continuation bits), not a second decode.
            debug_assert_eq!(
                decode_addr(&self.xcts[idx].data, cur.data_off as usize, &cur.last).0,
                block.0,
                "advance_event got an event fetch did not return"
            );
            cur.last[delta_region(block.0)] = block.0;
            let data = &self.xcts[idx].data;
            let mut i = cur.data_off as usize;
            while data[i] & 0x80 != 0 {
                i += 1;
            }
            cur.data_off = (i + 1) as u32;
        }
        self.load(idx, cur);
        self.bump(idx, cur);
    }

    /// Collect the run of consecutive `Data` events standing at `cur` into
    /// `run` (cleared first), without advancing the cursor. Returns the run
    /// length — `0` when the cursor does not stand at a data event. The
    /// data-run view is computed lazily here, at replay time: the pool
    /// stores per-event `Data` entries unchanged.
    ///
    /// A direct pool scan: canonical `Data` events are read straight out
    /// of the cached slice (crossing slice boundaries as needed) and their
    /// real addresses streamed out of the trace's delta-encoded side table
    /// with a local copy of the decoder state — one pool read and one
    /// varint decode per event on the data-heavy hot path.
    pub fn gather_data_run(&self, idx: usize, cur: InternCursor, run: &mut DataRun) -> usize {
        run.clear();
        let t = &self.xcts[idx];
        let Some(mut r) = self.slice_of(idx, cur) else {
            return 0;
        };
        // For a fresh cursor `slice_of` loaded slice 0, which is exactly
        // `cur.slice`; thereafter the cached ref and index stay in step.
        let mut slice = cur.slice as usize;
        let mut pos = cur.pos;
        let mut off = cur.data_off as usize;
        let mut last = cur.last;
        loop {
            while pos < r.len {
                let TraceEvent::Data { write, .. } = self.pool.at(r, pos) else {
                    return run.len();
                };
                run.push(DataAccess {
                    block: BlockAddr(decode_addr_mut(&t.data, &mut off, &mut last)),
                    write,
                });
                pos += 1;
            }
            slice += 1;
            match t.slices.get(slice) {
                Some(&next) => {
                    r = next;
                    pos = 0;
                }
                None => return run.len(),
            }
        }
    }

    /// Consume `k` consecutive data events previously reported by
    /// [`Self::gather_data_run`] (`1 <= k <=` the gathered length).
    ///
    /// Slice-granular arithmetic (one `slices[]` read per crossed
    /// boundary) instead of `k` load+bump round trips. The `k` consumed
    /// entries are decoded once more to roll the delta bases forward —
    /// varints have no random access, and the decode is cheaper than the
    /// gather that produced them.
    pub fn advance_data_run(&self, idx: usize, cur: &mut InternCursor, k: usize) {
        self.load(idx, cur);
        {
            let data = &self.xcts[idx].data;
            let mut off = cur.data_off as usize;
            for _ in 0..k {
                decode_addr_mut(data, &mut off, &mut cur.last);
            }
            cur.data_off = off as u32;
        }
        let mut rem = k as u32;
        loop {
            let in_slice = cur.r.len - cur.pos;
            if rem < in_slice {
                cur.pos += rem;
                return;
            }
            rem -= in_slice;
            cur.slice += 1;
            cur.pos = 0;
            match self.xcts[idx].slices.get(cur.slice as usize) {
                Some(&next) => cur.r = next,
                None => {
                    // End of trace: the sentinel cursor `bump` would leave.
                    // Advancing further than the gathered run is a caller
                    // bug — fail fast (in release too; a silent wrap here
                    // would spin forever on the 0-length sentinel).
                    cur.r = SliceRef {
                        pool_idx: 0,
                        len: 0,
                    };
                    assert!(rem == 0, "advance_data_run past the gathered run");
                    return;
                }
            }
            if rem == 0 {
                return;
            }
        }
    }

    /// Hint that trace `idx` will replay soon (the engine calls this for
    /// the next queued trace when a segment starts, one pick ahead of
    /// use). Purely advisory: it issues software prefetches and observes
    /// or mutates nothing a replay could see.
    ///
    /// A resumed trace's first fetch chases `InternedTrace` -> `slices[0]`
    /// -> pool storage -> `data` varints; at scale every link is cold (the
    /// resident set outgrows L2 long before the 10k rung), and the
    /// schedulers that time-multiplex the whole workload (STREX's
    /// round-robin) resume a cold trace every few hundred events. Warming
    /// the chain heads one pick ahead overlaps those misses with the
    /// previous segment's replay.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        let t = &self.xcts[idx];
        prefetch_ptr(t);
        prefetch_ptr(t.slices.as_ptr());
        prefetch_ptr(t.data.as_ptr());
    }

    /// Walk trace `idx` through the cursor as flat events, one
    /// [`FlatEvent::Instr`] per block (a test and diagnostic helper; the
    /// replay engine drives the cursor itself).
    pub fn flat_events(&self, idx: usize) -> Vec<FlatEvent> {
        let mut cur = InternCursor::default();
        let mut out = Vec::new();
        loop {
            match self.fetch(idx, cur) {
                Fetched::End => break,
                Fetched::Run { block, rem, ipb } => {
                    out.push(FlatEvent::Instr {
                        block,
                        n_instr: ipb,
                    });
                    self.advance_run(idx, &mut cur, rem, 1);
                }
                Fetched::Event(ev) => {
                    out.push(ev);
                    self.advance_event(idx, &mut cur, ev);
                }
            }
        }
        out
    }
}

// Thread-safety audit: sweep grids share interned sets (and their Arc'd
// pools) across worker threads for the whole grid's lifetime.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<SliceRef>();
    shared::<SlicePool>();
    shared::<InternedTrace>();
    shared::<InternedWorkload>();
    shared::<InternedSet<'_>>();
    shared::<InternFootprint>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;

    fn sample(data_base: u64) -> XctTrace {
        XctTrace {
            xct_type: XctTypeId(0),
            events: vec![
                TraceEvent::XctBegin {
                    xct_type: XctTypeId(0),
                },
                TraceEvent::Instr {
                    block: BlockAddr(1),
                    n_blocks: 2,
                    ipb: 10,
                },
                TraceEvent::OpBegin { op: OpKind::Probe },
                TraceEvent::Instr {
                    block: BlockAddr(0x40),
                    n_blocks: 4,
                    ipb: 6,
                },
                TraceEvent::Data {
                    block: BlockAddr(data_base),
                    write: false,
                },
                TraceEvent::Data {
                    block: BlockAddr(data_base + 3),
                    write: true,
                },
                TraceEvent::OpEnd { op: OpKind::Probe },
                TraceEvent::XctEnd,
            ],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let mut pool = SlicePool::new();
        let t = sample(0x9000);
        let it = InternedTrace::intern(&t, &mut pool);
        assert_eq!(it.flatten(&pool).events, t.events);
        assert_eq!(it.instructions(), t.instructions());
        assert_eq!(it.data_accesses(), 2);
        assert_eq!(it.n_events(), t.events.len());
    }

    #[test]
    fn same_control_flow_shares_slices() {
        // Two traces identical up to data addresses: the second interning
        // adds nothing to the pool.
        let mut pool = SlicePool::new();
        let a = InternedTrace::intern(&sample(0x9000), &mut pool);
        let before = pool.n_events();
        let b = InternedTrace::intern(&sample(0xf300), &mut pool);
        assert_eq!(pool.n_events(), before, "no new pool events");
        assert_eq!(a.slices, b.slices, "identical slice refs");
        assert_eq!((pool.slices_interned(), pool.unique_slices()), (6, 3));
        // Yet both flatten to their own data addresses.
        assert_ne!(a.flatten(&pool).events, b.flatten(&pool).events);
    }

    #[test]
    fn interned_set_walks_like_flat() {
        let mut pool = SlicePool::new();
        let traces = [sample(0x9000), sample(0xa000)];
        let interned: Vec<InternedTrace> = traces
            .iter()
            .map(|t| InternedTrace::intern(t, &mut pool))
            .collect();
        let set = InternedSet {
            pool: &pool,
            xcts: &interned,
        };
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                set.flat_events(i),
                t.flat_events().collect::<Vec<_>>(),
                "trace {i} diverged"
            );
        }
    }

    /// The data-run view — `InternedSet`'s direct-pool-scan
    /// `gather_data_run`/`advance_data_run` — agrees with the flat event
    /// stream: at every cursor position the gathered run is the maximal
    /// run of consecutive `Data` events of `XctTrace::flat_events()`
    /// standing there, and advancing part of a run lands on its remainder.
    #[test]
    fn interned_data_runs_match_flat() {
        let mut pool = SlicePool::new();
        let traces = [sample(0x9000), sample(0xa040)];
        let interned: Vec<InternedTrace> = traces
            .iter()
            .map(|t| InternedTrace::intern(t, &mut pool))
            .collect();
        let set = InternedSet {
            pool: &pool,
            xcts: &interned,
        };
        for (idx, t) in traces.iter().enumerate() {
            let flat: Vec<FlatEvent> = t.flat_events().collect();
            let run_at = |i: usize| -> Vec<DataAccess> {
                flat[i..]
                    .iter()
                    .map_while(|ev| match *ev {
                        FlatEvent::Data { block, write } => Some(DataAccess { block, write }),
                        _ => None,
                    })
                    .collect()
            };
            let mut cur = InternCursor::default();
            let mut run = DataRun::new();
            // Position of `cur` in the flat stream.
            let mut i = 0;
            loop {
                let n = set.gather_data_run(idx, cur, &mut run);
                assert_eq!(run.accesses(), run_at(i), "trace {idx} at event {i}");
                if n > 0 {
                    // Consume part of the run; the remainder must still
                    // agree.
                    let k = 1 + n / 2;
                    set.advance_data_run(idx, &mut cur, k);
                    i += k;
                    let rest = set.gather_data_run(idx, cur, &mut run);
                    assert_eq!(run.accesses(), run_at(i), "trace {idx} at event {i}");
                    set.advance_data_run(idx, &mut cur, rest);
                    i += rest;
                    continue;
                }
                match set.fetch(idx, cur) {
                    Fetched::End => {
                        assert_eq!(i, flat.len(), "trace {idx} ended early");
                        break;
                    }
                    Fetched::Run { rem, .. } => set.advance_run(idx, &mut cur, rem, 1),
                    Fetched::Event(ev) => set.advance_event(idx, &mut cur, ev),
                }
                i += 1;
            }
        }
    }

    #[test]
    fn workload_roundtrip_and_footprint() {
        let w = WorkloadTrace {
            name: "t".into(),
            xct_type_names: vec!["only".into()],
            xcts: (0..8).map(|i| sample(0x9000 + i * 64)).collect(),
        };
        let iw = InternedWorkload::from_flat(&w);
        let back = iw.flatten();
        assert_eq!(back.name, w.name);
        assert_eq!(back.xct_type_names, w.xct_type_names);
        for (a, b) in back.xcts.iter().zip(&w.xcts) {
            assert_eq!(a.xct_type, b.xct_type);
            assert_eq!(a.events, b.events);
        }
        let fp = iw.footprint();
        assert_eq!(
            fp.flat_bytes,
            w.xcts
                .iter()
                .map(|t| t.events.len() * std::mem::size_of::<TraceEvent>()
                    + std::mem::size_of::<XctTrace>())
                .sum::<usize>()
        );
        assert!(
            fp.resident_bytes() < fp.flat_bytes,
            "8 identical-flow traces must compress: {fp:?}"
        );
        assert!(fp.dedup_ratio() > 3.0, "{fp:?}");
        assert_eq!(
            fp.data_accesses,
            8 * 2,
            "eight traces of two data accesses each"
        );
        assert!(
            fp.data_bytes < fp.data_accesses as usize * 8,
            "encoded addresses must beat raw u64s: {fp:?}"
        );
        assert!(fp.address_reduction() > 1.0, "{fp:?}");
        // Cache accounting covers the footprint plus container overhead.
        assert!(iw.resident_bytes() > fp.resident_bytes());
        assert!(iw.resident_bytes() < fp.resident_bytes() + 4096);
    }

    #[test]
    fn empty_trace_interns_to_nothing() {
        let mut pool = SlicePool::new();
        let t = XctTrace {
            xct_type: XctTypeId(3),
            events: vec![],
        };
        let it = InternedTrace::intern(&t, &mut pool);
        assert!(it.slices.is_empty());
        assert_eq!(it.flatten(&pool).events, t.events);
        assert_eq!(pool.n_events(), 0);
    }

    #[test]
    fn hash_collisions_fall_back_to_comparison() {
        // Different slices with (presumably) different hashes both live in
        // the pool; identical content always returns the original ref.
        let mut pool = SlicePool::new();
        let e1 = [TraceEvent::XctEnd];
        let e2 = [TraceEvent::XctBegin {
            xct_type: XctTypeId(1),
        }];
        let r1 = pool.intern(&e1);
        let r2 = pool.intern(&e2);
        assert_ne!(r1, r2);
        assert_eq!(pool.intern(&e1), r1);
        assert_eq!(pool.intern(&e2), r2);
        assert_eq!(pool.unique_slices(), 2);
        assert_eq!(pool.slices_interned(), 4);
    }

    #[test]
    fn delta_codec_roundtrips_extremes() {
        // Non-monotone, duplicate, region-hopping, >32-bit-delta and
        // full-u64 sequences — the wrapping zigzag arithmetic must
        // round-trip every address bit-identically.
        let addrs = [
            0u64,
            1,
            u64::MAX,
            u64::MAX - 1,
            0,
            layout::PAGE_BASE,
            layout::LOCK_TABLE_BASE + 7,
            layout::LOCK_TABLE_BASE + 7,
            1 << 33,
            (1 << 33) + 5,
            layout::LOG_BASE,
            u64::MAX / 2,
            3,
            i64::MAX as u64,
            i64::MAX as u64 + 1,
        ];
        let mut enc = DELTA_BASES;
        let mut buf = Vec::new();
        for &a in &addrs {
            encode_addr(a, &mut enc, &mut buf);
        }
        let mut dec = DELTA_BASES;
        let mut off = 0usize;
        for &a in &addrs {
            assert_eq!(decode_addr_mut(&buf, &mut off, &mut dec), a);
        }
        assert_eq!(off, buf.len(), "decoder consumed the stream exactly");
        assert_eq!(enc, dec, "encoder and decoder bases stay in step");
    }

    #[test]
    fn delta_codec_exploits_region_locality() {
        // An op-body-shaped access pattern: catalog entry, lock bucket, a
        // short page run, sequential log blocks, then the same pattern
        // again. Region-crossing costs nothing (each region keeps its own
        // base), so the whole thing averages ≲ 2 bytes per address.
        let mut addrs = Vec::new();
        for op in 0..8u64 {
            addrs.push(layout::METADATA_BASE + 3);
            addrs.push(layout::LOCK_TABLE_BASE + 100 + op * 17);
            for b in 0..4 {
                addrs.push(layout::PAGE_BASE + op * 128 + b);
            }
            addrs.push(layout::LOG_BASE + op);
        }
        let mut enc = DELTA_BASES;
        let mut buf = Vec::new();
        for &a in &addrs {
            encode_addr(a, &mut enc, &mut buf);
        }
        assert!(
            buf.len() <= addrs.len() * 2,
            "{} bytes for {} addresses",
            buf.len(),
            addrs.len()
        );
        // And the raw form is ≥ 3x larger — the BENCH_6 shrink criterion
        // in miniature.
        assert!(addrs.len() * 8 >= buf.len() * 3);
    }
}
