//! MESI-style directory coherence for the private L1-D caches.
//!
//! Table 1 lists "MESI-coherence for L1-D". The simulator needs coherence
//! for two observable effects:
//!
//! 1. when a migrated transaction writes data it dirtied on its previous
//!    core, the stale copy must be invalidated (SLICC/ADDICT "leave their
//!    data behind", Section 4.3), and
//! 2. dirty blocks fetched from a remote L1-D cost a cache-to-cache
//!    transfer rather than a memory round trip.
//!
//! We model a full-map directory: per block, a sharer bitmask and an
//! optional modified owner. The instruction stream is read-only so L1-I
//! needs no coherence.
//!
//! The directory sits on the replay hot path (every data access consults
//! it). Its entries live in a std `HashMap` keyed by block address and
//! hashed with the splitmix64 finalizer (no per-map random state), so it
//! allocates only as the map grows; [`CoherenceAction`] reports the cores
//! to invalidate as a [`SharerMask`] bitmask rather than a heap-allocated
//! list — the directory assumes at most 64 cores, so one `u64` covers
//! every sharer vector.

use std::collections::hash_map::{self, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::block::BlockAddr;

/// A set of cores encoded as a 64-bit mask (bit `i` = core `i`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerMask(pub u64);

impl SharerMask {
    /// The empty set.
    pub const EMPTY: SharerMask = SharerMask(0);

    /// Cores a mask can name: the most cores a machine can have.
    pub(crate) const CAPACITY: usize = u64::BITS as usize;

    /// A singleton set.
    #[inline]
    pub fn only(core: usize) -> Self {
        debug_assert!(core < 64);
        SharerMask(1 << core)
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores in the set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Does the set contain `core`?
    #[inline]
    pub fn contains(self, core: usize) -> bool {
        debug_assert!(core < 64);
        self.0 & (1 << core) != 0
    }

    /// Insert `core`.
    #[inline]
    pub fn insert(&mut self, core: usize) {
        debug_assert!(core < 64);
        self.0 |= 1 << core;
    }

    /// Remove `core`.
    #[inline]
    pub fn remove(&mut self, core: usize) {
        debug_assert!(core < 64);
        self.0 &= !(1 << core);
    }

    /// Iterate the member cores in ascending order (allocation-free).
    #[inline]
    pub fn iter(self) -> SharerIter {
        SharerIter(self.0)
    }
}

impl IntoIterator for SharerMask {
    type Item = usize;
    type IntoIter = SharerIter;

    fn into_iter(self) -> SharerIter {
        self.iter()
    }
}

impl FromIterator<usize> for SharerMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut m = SharerMask::EMPTY;
        for c in iter {
            m.insert(c);
        }
        m
    }
}

/// Iterator over the cores of a [`SharerMask`], ascending.
#[derive(Debug, Clone)]
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let core = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(core)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

/// Cores that must act for a coherence transaction to complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// Cores whose L1-D copy must be invalidated.
    pub invalidate: SharerMask,
    /// Core that holds the block modified and must supply it / downgrade
    /// (charged as a cache-to-cache transfer).
    pub supplier: Option<usize>,
}

impl CoherenceAction {
    /// True when no remote cache needs to do anything.
    pub fn is_silent(&self) -> bool {
        self.invalidate.is_empty() && self.supplier.is_none()
    }
}

const NO_OWNER: u8 = u8::MAX;

/// One tracked block: its sharer bitmask and modified owner
/// (`NO_OWNER` when no core holds it modified).
#[derive(Debug)]
struct Entry {
    sharers: u64,
    owner: u8,
}

/// Hashes a block address with [`hash_block`]. The directory's keys are
/// `u64`s, so `write_u64` is the only entry point `Hash` uses.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the directory hashes u64 block addresses only")
    }

    #[inline]
    fn write_u64(&mut self, block: u64) {
        self.0 = hash_block(block);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Full-map directory for up to 64 cores: a sharer mask and modified
/// owner per block with at least one sharer.
#[derive(Debug, Default)]
pub struct Directory {
    entries: HashMap<u64, Entry, BuildHasherDefault<BlockHasher>>,
}

/// Finalizer of splitmix64: a full-avalanche multiply-shift hash, plenty
/// for block addresses that arrive nearly sequential.
#[inline]
fn hash_block(block: u64) -> u64 {
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry of `block`, inserted untracked if absent.
    #[inline]
    fn entry(&mut self, block: BlockAddr) -> &mut Entry {
        self.entries.entry(block.0).or_insert(Entry {
            sharers: 0,
            owner: NO_OWNER,
        })
    }

    /// The remote work a read by `core` requires, as a pure function of
    /// one entry's state — shared by [`Directory::on_read`] (which then
    /// mutates) and [`Directory::peek_read`] (which does not), so the two
    /// cannot drift.
    #[inline]
    fn read_action(core: usize, owner: u8) -> CoherenceAction {
        let mut action = CoherenceAction::default();
        if owner != NO_OWNER && owner as usize != core {
            // M -> S at the owner; it supplies the data.
            action.supplier = Some(owner as usize);
        }
        action
    }

    /// The remote work a write by `core` requires (see
    /// [`Directory::read_action`]).
    #[inline]
    fn write_action(core: usize, sharers: u64, owner: u8) -> CoherenceAction {
        let mut action = CoherenceAction::default();
        if owner != NO_OWNER && owner as usize != core {
            action.supplier = Some(owner as usize);
        }
        // Every remote copy is invalidated, the (remote) supplier included.
        action.invalidate = SharerMask(sharers & !(1 << core));
        action
    }

    /// Core `core` reads `block`. Returns the remote work required.
    /// After this call the directory records `core` as a sharer.
    pub fn on_read(&mut self, core: usize, block: BlockAddr) -> CoherenceAction {
        debug_assert!(core < 64);
        let entry = self.entry(block);
        let action = Self::read_action(core, entry.owner);
        if action.supplier.is_some() {
            entry.owner = NO_OWNER;
        }
        entry.sharers |= 1 << core;
        action
    }

    /// Core `core` writes `block`. All other copies are invalidated and
    /// `core` becomes the modified owner.
    pub fn on_write(&mut self, core: usize, block: BlockAddr) -> CoherenceAction {
        debug_assert!(core < 64);
        let entry = self.entry(block);
        let action = Self::write_action(core, entry.sharers, entry.owner);
        entry.sharers = 1 << core;
        entry.owner = core as u8;
        action
    }

    /// The exact [`CoherenceAction`] [`Directory::on_read`] would return
    /// for this access, **without** performing it. An untracked block is
    /// silent. This is the speculation subsystem's conflict oracle: a
    /// policy peeks the action of the access it is about to execute and
    /// dooms any speculative window the action's victims hold open.
    pub fn peek_read(&self, core: usize, block: BlockAddr) -> CoherenceAction {
        debug_assert!(core < 64);
        self.entries
            .get(&block.0)
            .map_or_else(CoherenceAction::default, |e| {
                Self::read_action(core, e.owner)
            })
    }

    /// The exact [`CoherenceAction`] [`Directory::on_write`] would return
    /// for this access, without performing it (see
    /// [`Directory::peek_read`]).
    pub fn peek_write(&self, core: usize, block: BlockAddr) -> CoherenceAction {
        debug_assert!(core < 64);
        self.entries
            .get(&block.0)
            .map_or_else(CoherenceAction::default, |e| {
                Self::write_action(core, e.sharers, e.owner)
            })
    }

    /// Core `core` evicted `block` from its L1-D (silently for clean lines,
    /// with a writeback for dirty ones — the caller models the writeback).
    pub fn on_evict(&mut self, core: usize, block: BlockAddr) {
        if let hash_map::Entry::Occupied(mut slot) = self.entries.entry(block.0) {
            let entry = slot.get_mut();
            entry.sharers &= !(1 << core);
            if entry.owner as usize == core {
                entry.owner = NO_OWNER;
            }
            if entry.sharers == 0 {
                slot.remove();
            }
        }
    }

    /// Is `core` recorded as holding `block`?
    pub fn is_sharer(&self, core: usize, block: BlockAddr) -> bool {
        self.entries
            .get(&block.0)
            .is_some_and(|e| e.sharers & (1 << core) != 0)
    }

    /// The modified owner of `block`, if any.
    pub fn owner(&self, block: BlockAddr) -> Option<usize> {
        let owner = self.entries.get(&block.0)?.owner;
        (owner != NO_OWNER).then_some(owner as usize)
    }

    /// Number of blocks with at least one sharer (diagnostics).
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(42);

    #[test]
    fn first_read_is_silent() {
        let mut d = Directory::new();
        let a = d.on_read(0, B);
        assert!(a.is_silent());
        assert!(d.is_sharer(0, B));
    }

    #[test]
    fn read_after_remote_write_downgrades_owner() {
        let mut d = Directory::new();
        assert!(d.on_write(1, B).is_silent());
        assert_eq!(d.owner(B), Some(1));
        let a = d.on_read(0, B);
        assert_eq!(a.supplier, Some(1));
        assert!(a.invalidate.is_empty());
        assert_eq!(d.owner(B), None);
        assert!(d.is_sharer(0, B) && d.is_sharer(1, B));
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new();
        d.on_read(0, B);
        d.on_read(1, B);
        d.on_read(2, B);
        let a = d.on_write(3, B);
        assert_eq!(a.invalidate.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(d.owner(B), Some(3));
        assert!(!d.is_sharer(0, B));
        assert!(d.is_sharer(3, B));
    }

    #[test]
    fn write_after_remote_write_transfers_and_invalidates() {
        let mut d = Directory::new();
        d.on_write(5, B);
        let a = d.on_write(6, B);
        assert_eq!(a.supplier, Some(5));
        assert_eq!(a.invalidate, SharerMask::only(5));
        assert_eq!(d.owner(B), Some(6));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        d.on_write(2, B);
        assert!(d.on_write(2, B).is_silent());
        assert_eq!(d.owner(B), Some(2));
    }

    #[test]
    fn evict_clears_state() {
        let mut d = Directory::new();
        d.on_write(0, B);
        d.on_evict(0, B);
        assert_eq!(d.owner(B), None);
        assert!(!d.is_sharer(0, B));
        assert_eq!(d.tracked_blocks(), 0);
        // Fresh write afterwards is silent again.
        assert!(d.on_write(1, B).is_silent());
    }

    #[test]
    fn evict_of_one_sharer_keeps_others() {
        let mut d = Directory::new();
        d.on_read(0, B);
        d.on_read(1, B);
        d.on_evict(0, B);
        assert!(d.is_sharer(1, B));
        assert_eq!(d.tracked_blocks(), 1);
    }

    #[test]
    fn peek_predicts_mutating_calls_and_leaves_no_trace() {
        let mut d = Directory::new();
        d.on_read(0, B);
        d.on_read(1, B);
        d.on_write(2, B);
        // Peeks agree with the action the mutating call then returns, for
        // reads and writes, local and remote cores alike.
        for core in 0..4 {
            let mut replay = Directory::new();
            replay.on_read(0, B);
            replay.on_read(1, B);
            replay.on_write(2, B);
            assert_eq!(d.peek_read(core, B), replay.on_read(core, B));
            let mut replay = Directory::new();
            replay.on_read(0, B);
            replay.on_read(1, B);
            replay.on_write(2, B);
            assert_eq!(d.peek_write(core, B), replay.on_write(core, B));
        }
        // Peeking mutated nothing: owner, sharers, and size are as set up.
        assert_eq!(d.owner(B), Some(2));
        assert!(d.is_sharer(2, B) && !d.is_sharer(0, B));
        assert_eq!(d.tracked_blocks(), 1);
        // An untracked block peeks silent without inserting an entry.
        let far = BlockAddr(999);
        assert!(d.peek_read(3, far).is_silent());
        assert!(d.peek_write(3, far).is_silent());
        assert_eq!(d.tracked_blocks(), 1);
    }

    #[test]
    fn sharer_mask_iterates_ascending() {
        let m: SharerMask = [63usize, 0, 17].into_iter().collect();
        assert_eq!(m.count(), 3);
        assert!(m.contains(17) && !m.contains(16));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 17, 63]);
        assert_eq!(m.iter().len(), 3);
    }

    #[test]
    fn table_survives_growth_and_heavy_churn() {
        let mut d = Directory::new();
        // Far more live blocks than the initial capacity.
        for b in 0..10_000u64 {
            d.on_read((b % 8) as usize, BlockAddr(b));
        }
        assert_eq!(d.tracked_blocks(), 10_000);
        for b in 0..10_000u64 {
            assert!(
                d.is_sharer((b % 8) as usize, BlockAddr(b)),
                "lost block {b}"
            );
        }
        // Evict every other block, then reinsert with a different core.
        for b in (0..10_000u64).step_by(2) {
            d.on_evict((b % 8) as usize, BlockAddr(b));
        }
        assert_eq!(d.tracked_blocks(), 5_000);
        for b in (0..10_000u64).step_by(2) {
            assert!(d.on_write(9, BlockAddr(b)).is_silent());
        }
        assert_eq!(d.tracked_blocks(), 10_000);
        for b in (0..10_000u64).step_by(2) {
            assert_eq!(d.owner(BlockAddr(b)), Some(9));
        }
    }

    #[test]
    fn double_evict_is_a_noop() {
        let mut d = Directory::new();
        d.on_read(0, B);
        d.on_evict(0, B);
        assert_eq!(d.tracked_blocks(), 0);
        // A duplicate evict — from either the same or another core — must
        // be a no-op, not a len underflow.
        d.on_evict(0, B);
        d.on_evict(3, B);
        assert_eq!(d.tracked_blocks(), 0);
        assert!(!d.is_sharer(0, B) && !d.is_sharer(3, B));
        // Reinsertion tracks the block afresh.
        d.on_read(2, B);
        assert_eq!(d.tracked_blocks(), 1);
        assert!(d.is_sharer(2, B));
    }

    #[test]
    fn lookups_survive_interleaved_evicts() {
        let mut d = Directory::new();
        // Insert keys sharing their low bits, evict every third, and
        // verify lookups still find exactly the survivors.
        let keys: Vec<u64> = (0..512).map(|i| i * 1024 + 7).collect();
        for &k in &keys {
            d.on_read(1, BlockAddr(k));
        }
        for &k in keys.iter().step_by(3) {
            d.on_evict(1, BlockAddr(k));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(d.is_sharer(1, BlockAddr(k)), i % 3 != 0, "key {k}");
        }
    }
}
