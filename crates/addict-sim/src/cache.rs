//! A set-associative cache with true-LRU replacement.
//!
//! This single structure backs every cache in the simulated machine (L1-I,
//! L1-D, private L2, shared LLC banks) and is also used standalone by
//! ADDICT's Algorithm 1, which tracks the eviction behaviour of an empty
//! L1-I over an instruction stream to pick migration points.

use crate::block::BlockAddr;
use crate::config::CacheGeometry;

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

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
    valid: bool,
    dirty: bool,
}

const INVALID_LINE: Line = Line {
    block: BlockAddr(0),
    stamp: 0,
    valid: false,
    dirty: false,
};

/// A set-associative cache with true-LRU replacement, operating on
/// [`BlockAddr`]s. Stores no payload bytes — only presence, recency, and a
/// dirty bit (enough for miss accounting and write-back modeling).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    lines: Vec<Line>,
    /// `n_sets - 1`; set geometry is validated power-of-two, so indexing is
    /// a mask rather than a 64-bit modulo (the replay hot loop runs this on
    /// every instruction block).
    set_mask: u64,
    ways: usize,
    tick: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let n_sets = geom.n_sets();
        let ways = geom.ways as usize;
        SetAssocCache {
            lines: vec![INVALID_LINE; (n_sets as usize) * ways],
            set_mask: n_sets - 1,
            ways,
            tick: 0,
        }
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    #[inline]
    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    /// Access `block`, filling it on a miss. Returns hit/miss and any victim.
    pub fn access(&mut self, block: BlockAddr) -> AccessOutcome {
        self.access_inner(block, false)
    }

    /// Access `block` as a write (marks the line dirty).
    pub fn access_write(&mut self, block: BlockAddr) -> AccessOutcome {
        self.access_inner(block, true)
    }

    fn access_inner(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(block);
        let lines = self.set_lines(set);

        // Hit path.
        for line in lines.iter_mut() {
            if line.valid && line.block == block {
                line.stamp = tick;
                line.dirty |= write;
                return AccessOutcome::HIT;
            }
        }

        let evicted = Self::install(lines, block, tick, write);
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Fill `block` into its set after a proven miss: fill an invalid way,
    /// else evict the LRU way. The single replacement policy shared by
    /// [`SetAssocCache::access`] and [`SetAssocCache::fill_miss`] — keeping
    /// it in one place is what keeps the segment-granular path's eviction
    /// choices identical to the per-block path's.
    #[inline]
    fn install(lines: &mut [Line], block: BlockAddr, tick: u64, dirty: bool) -> Option<BlockAddr> {
        let mut victim_idx = 0;
        let mut victim_stamp = u64::MAX;
        for (i, line) in lines.iter().enumerate() {
            if !line.valid {
                victim_idx = i;
                break;
            }
            if line.stamp < victim_stamp {
                victim_stamp = line.stamp;
                victim_idx = i;
            }
        }
        let victim = lines[victim_idx];
        let evicted = victim.valid.then_some(victim.block);
        lines[victim_idx] = Line {
            block,
            stamp: tick,
            valid: true,
            dirty,
        };
        evicted
    }

    /// Walk up to `max` *consecutive* blocks starting at `start`, consuming
    /// leading hits: each hit refreshes LRU recency exactly as
    /// [`SetAssocCache::access`] would, and the walk stops *before* the
    /// first miss (which the caller services through the ordinary miss
    /// path). Returns the number of hits consumed.
    ///
    /// This is the replay engine's segment-granular hot loop: consecutive
    /// blocks land in consecutive sets, so the set arithmetic is hoisted to
    /// one masked add per block and no [`AccessOutcome`] is materialized.
    pub fn run_hits(&mut self, start: BlockAddr, max: u16) -> u16 {
        let ways = self.ways;
        let mut n = 0u16;
        'walk: while n < max {
            let addr = start.0 + u64::from(n);
            let base = (addr & self.set_mask) as usize * ways;
            let lines = &mut self.lines[base..base + ways];
            for line in lines {
                if line.valid && line.block.0 == addr {
                    self.tick += 1;
                    line.stamp = self.tick;
                    n += 1;
                    continue 'walk;
                }
            }
            break;
        }
        n
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
    /// This is the data-side counterpart of [`SetAssocCache::run_hits`]:
    /// one tight loop with the set mask and way count hoisted into
    /// registers, no per-access dispatch, and no [`AccessOutcome`]
    /// materialized.
    pub fn data_run_hits(&mut self, run: &[crate::block::DataAccess]) -> usize {
        let ways = self.ways;
        let mut n = 0usize;
        'walk: while n < run.len() {
            let crate::block::DataAccess { block, write } = run[n];
            let base = (block.0 & self.set_mask) as usize * ways;
            let lines = &mut self.lines[base..base + ways];
            for line in lines {
                if line.valid && line.block == block {
                    if write && !line.dirty {
                        // Upgrade: leave it to the coherent path.
                        break 'walk;
                    }
                    self.tick += 1;
                    line.stamp = self.tick;
                    n += 1;
                    continue 'walk;
                }
            }
            break;
        }
        n
    }

    /// Fill `block` after the caller has already proven it absent (e.g. a
    /// [`SetAssocCache::run_hits`] walk stopped here): skips the hit scan
    /// and goes straight to victim selection. Tick, stamp, and eviction
    /// choice are identical to [`SetAssocCache::access`] on a miss.
    pub fn fill_miss(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        debug_assert!(!self.contains(block), "fill_miss of a resident block");
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(block);
        let lines = self.set_lines(set);
        Self::install(lines, block, tick, false)
    }

    /// Probe without updating recency or filling (used by SLICC's
    /// remote-presence check and by coherence).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        let start = set * self.ways;
        self.lines[start..start + self.ways]
            .iter()
            .any(|l| l.valid && l.block == block)
    }

    /// Invalidate `block` if present; returns whether the line was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let set = self.set_index(block);
        for line in self.set_lines(set) {
            if line.valid && line.block == block {
                let dirty = line.dirty;
                line.valid = false;
                line.dirty = false;
                return Some(dirty);
            }
        }
        None
    }

    /// Clear the dirty bit of `block` (coherence downgrade M→S).
    pub fn clean(&mut self, block: BlockAddr) {
        let set = self.set_index(block);
        for line in self.set_lines(set) {
            if line.valid && line.block == block {
                line.dirty = false;
                return;
            }
        }
    }

    /// Drop every line (Algorithm 1 resets the L1-I at transaction/operation
    /// boundaries and on every eviction-causing access).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = INVALID_LINE;
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.lines.len()
    }

    /// Iterate over all resident blocks (diagnostics, tests).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.lines.iter().filter(|l| l.valid).map(|l| l.block)
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
    fn run_hits_consumes_resident_prefix() {
        let mut c = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8));
        for i in 0..6u64 {
            c.access(BlockAddr(0x100 + i));
        }
        // Blocks 0x100..0x106 resident, 0x106 cold: 6 hits, stop at miss.
        assert_eq!(c.run_hits(BlockAddr(0x100), 16), 6);
        // The miss block was not filled by the walk.
        assert!(!c.contains(BlockAddr(0x106)));
        // Bounded by max.
        assert_eq!(c.run_hits(BlockAddr(0x100), 4), 4);
        // Cold start: zero hits.
        assert_eq!(c.run_hits(BlockAddr(0x9000), 8), 0);
    }

    #[test]
    fn run_hits_refreshes_lru_like_access() {
        // Two identical caches; one touched via access(), one via
        // run_hits(). Their subsequent eviction choices must agree.
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.access(BlockAddr(0));
            c.access(BlockAddr(2)); // set 0 now holds 0 (LRU) and 2 (MRU)
        }
        a.access(BlockAddr(0)); // refresh 0 -> 2 becomes LRU
        assert_eq!(b.run_hits(BlockAddr(0), 1), 1); // same refresh, fast path
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
    fn capacity_and_occupancy() {
        let c = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8));
        assert_eq!(c.capacity_blocks(), 512);
        assert_eq!(c.occupancy(), 0);
    }
}
