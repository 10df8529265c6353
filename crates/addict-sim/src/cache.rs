//! A set-associative cache with true-LRU replacement.
//!
//! This single structure backs every cache in the simulated machine (L1-I,
//! L1-D, private L2, shared LLC banks) and is also used standalone by
//! ADDICT's Algorithm 1, which tracks the eviction behaviour of an empty
//! L1-I over an instruction stream to pick migration points.
//!
//! Every replay builds a machine, so the layout is kept small: each way is
//! one four-byte word that encodes the block's set-relative tag and its
//! dirty bit, and each set orders its ways by recency instead of stamping
//! them (see [`SetAssocCache`]). A dropped cache empties its way storage
//! and leaves it on a bounded per-thread spare list, and the next cache
//! of the same size built on that thread reuses it, so back-to-back
//! replays do not go back to the allocator (and the kernel) for every
//! machine.

use std::cell::RefCell;

use crate::block::{BlockAddr, DataAccess};
use crate::config::CacheGeometry;

/// Bytes of way storage each thread keeps for reuse: a few paper-default
/// machines (1,114,112 bytes each).
const SPARE_BYTES: usize = 4 << 20;

/// Way storage of dropped caches, all zeroes, for reuse by
/// [`SetAssocCache::new`].
#[derive(Default)]
struct Spares {
    lines: Vec<Vec<u32>>,
    bytes: usize,
}

thread_local! {
    static SPARES: RefCell<Spares> = RefCell::new(Spares::default());
}

/// Zeroed way storage of `len` ways: a spare of that length if this
/// thread has one, a fresh zeroed allocation otherwise.
fn take_lines(len: usize) -> Vec<u32> {
    SPARES
        .with(|spares| {
            let mut spares = spares.borrow_mut();
            let i = spares.lines.iter().rposition(|l| l.len() == len)?;
            spares.bytes -= len * 4;
            Some(spares.lines.swap_remove(i))
        })
        .unwrap_or_else(|| vec![0; len])
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Did the block hit?
    pub hit: bool,
    /// Block evicted to make room, if the access was a filling miss and the
    /// target set was full.
    pub evicted: Option<BlockAddr>,
}

impl AccessOutcome {
    /// A plain hit.
    pub const HIT: AccessOutcome = AccessOutcome {
        hit: true,
        evicted: None,
    };
}

/// The dirty bit of a way.
const DIRTY: u32 = 1;

/// Set-relative tags (`block >> log2(n_sets)`) stay below this, so that
/// the way word `(tag + 1) << 1 | dirty` fits in a `u32`.
const TAG_LIMIT: u64 = 1 << 30;

/// Where the way word `tag` sits among the resident ways of `set`. The
/// scan stops at the first empty way: nothing is resident behind it.
#[inline]
fn find(set: &[u32], tag: u32) -> Option<usize> {
    for (i, &way) in set.iter().enumerate() {
        if way & !DIRTY == tag {
            return Some(i);
        }
        if way == 0 {
            return None;
        }
    }
    None
}

/// Move the way at `i` to the front of `set`, shifting ways `0..i` back
/// by one. Shifts here and in [`shift_in`] are hand-written loops, not
/// `copy_within`: a set is a handful of words, and a `memmove` call costs
/// more than the shift itself.
#[inline]
fn move_to_front(set: &mut [u32], i: usize) {
    let mut carry = set[i];
    for slot in &mut set[..=i] {
        carry = std::mem::replace(slot, carry);
    }
}

/// One pass over `set` for the way word `tag`: each way passed shifts back
/// by one. On a hit the way lands at the front with `dirty` or-ed in, and
/// the result is `None`. On a miss `tag | dirty` is left at the front, and
/// the result is the word pushed out of the set: the LRU victim of a full
/// set, or `0` if the set had room.
#[inline]
fn shift_in(set: &mut [u32], tag: u32, dirty: u32) -> Option<u32> {
    let mut carry = tag | dirty;
    for i in 0..set.len() {
        let way = std::mem::replace(&mut set[i], carry);
        if way & !DIRTY == tag {
            set[0] = way | dirty;
            return None;
        }
        if way == 0 {
            return Some(0);
        }
        carry = way;
    }
    Some(carry)
}

/// A set-associative cache with true-LRU replacement, operating on
/// [`BlockAddr`]s. Stores no payload bytes — only presence, recency, and a
/// dirty bit (enough for miss accounting and write-back modeling).
///
/// Each way is one `u32`: `(tag + 1) << 1 | dirty`, where the tag is the
/// block's set-relative part, `block >> log2(n_sets)`. The set index
/// supplies the low bits, so a victim's block is rebuilt from its tag and
/// its set. Tag `0` is a real tag, hence the `+ 1`, which leaves the word
/// `0` free to mean *empty*, and empty storage is all zeroes: a fresh
/// zeroed allocation, or the storage of a cache of the same size dropped
/// earlier on the same thread, which emptied it.
///
/// A tag must stay below `2^30` to fit, so a cache of `n_sets` sets holds
/// blocks below `2^30 * n_sets`: `2^36` for the 64-set L1s. Every method
/// panics on a block beyond that range rather than alias it. Trace blocks
/// sit far below it (the database-page region starts at block `2^28`).
///
/// Each set keeps its resident ways as a prefix, in recency order, most
/// recent first: a hit moves its way to the front, a fill inserts at the
/// front (a full set drops its last way, the victim), an invalidation
/// closes the gap, and every scan stops at the first empty way. That order
/// is exactly true LRU, so no per-way stamps are kept. The position of a
/// block within its set is never observable: the interface reports only
/// hits, victims, dirty bits and occupancy.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    lines: Vec<u32>,
    /// `log2(n_sets)`: set geometry is validated power-of-two, so a block's
    /// set is its low `set_bits` bits (a mask rather than a 64-bit modulo,
    /// which the replay hot loop runs on every instruction block) and its
    /// tag is the bits above.
    set_bits: u32,
    ways: usize,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let n_sets = geom.n_sets();
        let ways = geom.ways as usize;
        SetAssocCache {
            lines: take_lines((n_sets as usize) * ways),
            set_bits: n_sets.trailing_zeros(),
            ways,
        }
    }

    /// Where `block` lives: the index of the first way of its set, and
    /// the way word of a clean copy.
    ///
    /// # Panics
    /// If the block's tag, `block >> log2(n_sets)`, is `2^30` or more.
    #[inline]
    fn locate(&self, block: BlockAddr) -> (usize, u32) {
        let tag = block.0 >> self.set_bits;
        assert!(
            tag < TAG_LIMIT,
            "block {:#x} is beyond the cache's tag range: a way holds \
             block >> log2(n_sets) below 2^30",
            block.0
        );
        let set = (block.0 & ((1 << self.set_bits) - 1)) as usize;
        (set * self.ways, (tag as u32 + 1) << 1)
    }

    /// The ways of the set `block` maps to, and its clean way word.
    #[inline]
    fn set(&self, block: BlockAddr) -> (&[u32], u32) {
        let (start, tag) = self.locate(block);
        (&self.lines[start..start + self.ways], tag)
    }

    #[inline]
    fn set_mut(&mut self, block: BlockAddr) -> (&mut [u32], u32) {
        let (start, tag) = self.locate(block);
        (&mut self.lines[start..start + self.ways], tag)
    }

    /// The block that the non-empty way word `way` of `block`'s set holds.
    #[inline]
    fn block_of(&self, block: BlockAddr, way: u32) -> BlockAddr {
        let set = block.0 & ((1 << self.set_bits) - 1);
        BlockAddr(u64::from((way >> 1) - 1) << self.set_bits | set)
    }

    /// Access `block`, filling it on a miss. Returns hit/miss and any victim.
    pub fn access(&mut self, block: BlockAddr) -> AccessOutcome {
        self.access_inner(block, 0)
    }

    /// Access `block` as a write (marks the line dirty).
    pub fn access_write(&mut self, block: BlockAddr) -> AccessOutcome {
        self.access_inner(block, DIRTY)
    }

    fn access_inner(&mut self, block: BlockAddr, dirty: u32) -> AccessOutcome {
        let (set, tag) = self.set_mut(block);
        match shift_in(set, tag, dirty) {
            None => AccessOutcome::HIT,
            Some(out) => AccessOutcome {
                hit: false,
                evicted: (out != 0).then(|| self.block_of(block, out)),
            },
        }
    }

    /// Access up to `max` *consecutive* blocks starting at `start`, each
    /// exactly as [`SetAssocCache::access`] would, and stop after the first
    /// miss, which is filled like any other. Returns the blocks accessed
    /// and whether the last of them missed. Victims are not reported: the
    /// L1-I, the only caller, never writes back.
    ///
    /// This is the replay engine's segment-granular hot loop: each block
    /// costs one shifting pass over its set, hit or miss, and no
    /// [`AccessOutcome`] is materialized.
    pub fn access_run(&mut self, start: BlockAddr, max: u16) -> (u16, bool) {
        for n in 0..max {
            let (set, tag) = self.set_mut(BlockAddr(start.0 + u64::from(n)));
            if shift_in(set, tag, 0).is_some() {
                return (n + 1, true);
            }
        }
        (max, false)
    }

    /// Consume the longest prefix of `run` that stays in the *private fast
    /// lane*: every access hits, and writes only touch lines that are
    /// already dirty. Each consumed access refreshes LRU recency exactly as
    /// [`SetAssocCache::access`] / [`SetAssocCache::access_write`] would (a
    /// write hit on a dirty line leaves the dirty bit set, so no line state
    /// changes at all). The walk stops *before* the first miss or
    /// clean-line write — the caller services that access through the
    /// ordinary coherent path (for an L1-D, a clean-line write is an S→M
    /// upgrade the directory must see). Returns the accesses consumed.
    ///
    /// This is the data-side counterpart of [`SetAssocCache::access_run`]:
    /// one tight loop with no per-access dispatch and no [`AccessOutcome`]
    /// materialized.
    pub fn data_run_hits(&mut self, run: &[DataAccess]) -> usize {
        let mut n = 0usize;
        while let Some(&DataAccess { block, write }) = run.get(n) {
            let (set, tag) = self.set_mut(block);
            let Some(i) = find(set, tag) else {
                break;
            };
            if write && set[i] & DIRTY == 0 {
                // Upgrade: leave it to the coherent path.
                break;
            }
            move_to_front(set, i);
            n += 1;
        }
        n
    }

    /// Probe without updating recency or filling (used by SLICC's
    /// remote-presence check and by coherence).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (set, tag) = self.set(block);
        find(set, tag).is_some()
    }

    /// Invalidate `block` if present; returns whether the line was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let (set, tag) = self.set_mut(block);
        let i = find(set, tag)?;
        let dirty = set[i] & DIRTY != 0;
        // Close the gap: the ways behind `i` move up one, keeping the
        // resident prefix contiguous.
        let last = set.len() - 1;
        for j in i..last {
            set[j] = set[j + 1];
        }
        set[last] = 0;
        Some(dirty)
    }

    /// Clear the dirty bit of `block` (coherence downgrade M→S).
    pub fn clean(&mut self, block: BlockAddr) {
        let (set, tag) = self.set_mut(block);
        if let Some(i) = find(set, tag) {
            set[i] &= !DIRTY;
        }
    }

    /// Drop every line (Algorithm 1 resets the L1-I at transaction/operation
    /// boundaries and on every eviction-causing access).
    pub fn flush(&mut self) {
        self.lines.fill(0);
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&way| way != 0).count()
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.lines.len()
    }
}

impl Drop for SetAssocCache {
    /// Empty the way storage and keep it for the next cache of this size
    /// on this thread, while the thread's spares stay within
    /// `SPARE_BYTES`. Only sets with a resident way are cleared: the
    /// resident ways are a prefix, so a set whose first way is empty is
    /// already all zeroes, and the sets a replay never filled are read
    /// but not written. A thread that is exiting has no spare list; its
    /// storage is freed.
    fn drop(&mut self) {
        let mut lines = std::mem::take(&mut self.lines);
        for set in lines.chunks_exact_mut(self.ways) {
            if set[0] != 0 {
                set.fill(0);
            }
        }
        let bytes = lines.len() * 4;
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.bytes + bytes <= SPARE_BYTES {
                spares.bytes += bytes;
                spares.lines.push(lines);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheGeometry::new(4 * 64, 2))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(BlockAddr(0)).hit);
        assert!(c.access(BlockAddr(0)).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.access(BlockAddr(0));
        c.access(BlockAddr(2));
        // Touch 0 so 2 becomes LRU.
        c.access(BlockAddr(0));
        let out = c.access(BlockAddr(4));
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(BlockAddr(2)));
        assert!(c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(4)));
        assert!(!c.contains(BlockAddr(2)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(BlockAddr(0)); // set 0
        c.access(BlockAddr(1)); // set 1
        c.access(BlockAddr(2)); // set 0
        c.access(BlockAddr(3)); // set 1
        assert_eq!(c.occupancy(), 4);
        assert!(c.contains(BlockAddr(0)));
        assert!(c.contains(BlockAddr(1)));
    }

    #[test]
    fn eviction_only_when_set_full() {
        let mut c = tiny();
        assert_eq!(c.access(BlockAddr(0)).evicted, None);
        assert_eq!(c.access(BlockAddr(2)).evicted, None);
        assert!(c.access(BlockAddr(4)).evicted.is_some());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access_write(BlockAddr(0));
        c.access(BlockAddr(1));
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
        assert_eq!(c.invalidate(BlockAddr(1)), Some(false));
        assert_eq!(c.invalidate(BlockAddr(7)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn clean_downgrades_dirty_line() {
        let mut c = tiny();
        c.access_write(BlockAddr(0));
        c.clean(BlockAddr(0));
        assert_eq!(c.invalidate(BlockAddr(0)), Some(false));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for i in 0..4 {
            c.access(BlockAddr(i));
        }
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(BlockAddr(0)));
        // After a flush the next access misses again.
        assert!(!c.access(BlockAddr(0)).hit);
    }

    #[test]
    fn contains_does_not_perturb_lru() {
        let mut c = tiny();
        c.access(BlockAddr(0));
        c.access(BlockAddr(2));
        // Probing 0 must NOT refresh it...
        assert!(c.contains(BlockAddr(0)));
        // ...so 0 is still the LRU victim.
        let out = c.access(BlockAddr(4));
        assert_eq!(out.evicted, Some(BlockAddr(0)));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(BlockAddr(0));
        c.access_write(BlockAddr(0));
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
    }

    #[test]
    fn access_run_stops_after_first_miss() {
        let mut c = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8));
        for i in 0..6u64 {
            c.access(BlockAddr(0x100 + i));
        }
        // Blocks 0x100..0x106 resident, 0x106 cold: 6 hits, then the miss.
        assert_eq!(c.access_run(BlockAddr(0x100), 16), (7, true));
        // The miss block was filled, and the walk went no further.
        assert!(c.contains(BlockAddr(0x106)));
        assert!(!c.contains(BlockAddr(0x107)));
        // Bounded by max.
        assert_eq!(c.access_run(BlockAddr(0x100), 4), (4, false));
        // Cold start: the first block misses.
        assert_eq!(c.access_run(BlockAddr(0x9000), 8), (1, true));
    }

    #[test]
    fn access_run_refreshes_lru_like_access() {
        // Two identical caches; one touched via access(), one via
        // access_run(). Their subsequent eviction choices must agree.
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.access(BlockAddr(0));
            c.access(BlockAddr(2)); // set 0 now holds 0 (LRU) and 2 (MRU)
        }
        a.access(BlockAddr(0)); // refresh 0 -> 2 becomes LRU
        assert_eq!(b.access_run(BlockAddr(0), 1), (1, false)); // same refresh
        assert_eq!(a.access(BlockAddr(4)).evicted, Some(BlockAddr(2)));
        assert_eq!(b.access(BlockAddr(4)).evicted, Some(BlockAddr(2)));
    }

    fn da(block: u64, write: bool) -> crate::block::DataAccess {
        crate::block::DataAccess {
            block: BlockAddr(block),
            write,
        }
    }

    #[test]
    fn data_run_hits_consumes_resident_private_prefix() {
        let mut c = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8));
        c.access(BlockAddr(10));
        c.access_write(BlockAddr(11));
        c.access(BlockAddr(12));
        // read hit, dirty-write hit, read hit, then a cold miss stops it.
        let run = [da(10, false), da(11, true), da(12, false), da(13, false)];
        assert_eq!(c.data_run_hits(&run), 3);
        // The miss block was not filled by the walk.
        assert!(!c.contains(BlockAddr(13)));
        // A clean-line write (upgrade) stops the walk even though it hits.
        let run = [da(10, false), da(12, true)];
        assert_eq!(c.data_run_hits(&run), 1);
        assert_eq!(c.invalidate(BlockAddr(12)), Some(false), "stayed clean");
        // Empty run consumes nothing.
        assert_eq!(c.data_run_hits(&[]), 0);
    }

    #[test]
    fn data_run_hits_refreshes_lru_like_access() {
        // Two identical caches; one touched via access()/access_write(),
        // one via data_run_hits(). Subsequent eviction choices must agree.
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.access(BlockAddr(0));
            c.access_write(BlockAddr(2)); // set 0: 0 (LRU, clean), 2 (MRU, dirty)
        }
        a.access(BlockAddr(0));
        a.access_write(BlockAddr(2));
        assert_eq!(b.data_run_hits(&[da(0, false), da(2, true)]), 2);
        assert_eq!(a.access(BlockAddr(4)).evicted, Some(BlockAddr(0)));
        assert_eq!(b.access(BlockAddr(4)).evicted, Some(BlockAddr(0)));
        // The dirty bit survived the fast-lane write.
        assert_eq!(b.invalidate(BlockAddr(2)), Some(true));
    }

    #[test]
    fn one_word_per_way() {
        let bytes = |geom| std::mem::size_of_val(SetAssocCache::new(geom).lines.as_slice());
        assert_eq!(bytes(CacheGeometry::new(32 * 1024, 8)), 4 * 512);
        // The Table 1 machine: an L1-I, an L1-D and an LLC bank per core.
        let cfg = crate::config::SimConfig::paper_default();
        let per_core = bytes(cfg.l1i) + bytes(cfg.l1d) + bytes(cfg.llc_per_core);
        assert_eq!(cfg.n_cores * per_core, 1_114_112);
    }

    #[test]
    fn recycled_storage_starts_empty() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        let mut c = SetAssocCache::new(geom);
        for i in 0..1024 {
            c.access_write(BlockAddr(i));
        }
        assert_eq!(c.occupancy(), 512);
        let storage = c.lines.as_ptr();
        drop(c);
        let mut c = SetAssocCache::new(geom);
        assert_eq!(c.lines.as_ptr(), storage, "the dropped storage is reused");
        assert_eq!(c.occupancy(), 0);
        assert!((0..1024).all(|i| !c.contains(BlockAddr(i))));
        // Every way is empty, not just unmatched: a first fill evicts
        // nothing and no stale dirty bit survives.
        assert_eq!(c.access(BlockAddr(1023)).evicted, None);
        assert_eq!(c.invalidate(BlockAddr(1023)), Some(false));
    }

    #[test]
    fn spare_storage_is_bounded_per_thread() {
        // More storage than the bound, dropped at once: the rest is freed.
        let geom = CacheGeometry::new(1 << 20, 16);
        let caches: Vec<_> = (0..80).map(|_| SetAssocCache::new(geom)).collect();
        drop(caches);
        SPARES.with(|s| {
            let s = s.borrow();
            assert!(s.bytes <= SPARE_BYTES);
            assert_eq!(s.bytes, s.lines.iter().map(|l| l.len() * 4).sum::<usize>());
            assert_eq!(s.lines.len(), SPARE_BYTES / (64 * 1024));
        });
    }

    #[test]
    fn capacity_and_occupancy() {
        let c = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8));
        assert_eq!(c.capacity_blocks(), 512);
        assert_eq!(c.occupancy(), 0);
    }
}
