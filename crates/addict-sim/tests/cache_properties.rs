//! Property-based tests for the set-associative cache and the coherence
//! directory: LRU behaviour, occupancy bounds, directory/cache
//! consistency under random access sequences, and a differential test of
//! the cache against a stamp-based true-LRU reference model.

use addict_sim::cache::{AccessOutcome, SetAssocCache};
use addict_sim::coherence::Directory;
use addict_sim::config::CacheGeometry;
use addict_sim::{BlockAddr, DataAccess};
use proptest::prelude::*;

fn small_cache() -> SetAssocCache {
    // 4 sets x 4 ways = 16 blocks.
    SetAssocCache::new(CacheGeometry::new(16 * 64, 4))
}

proptest! {
    /// Occupancy never exceeds capacity, and every evicted block was
    /// previously resident.
    #[test]
    fn occupancy_bounded_and_evictions_valid(addrs in prop::collection::vec(0u64..64, 1..300)) {
        let mut c = small_cache();
        let mut resident = std::collections::HashSet::new();
        for a in addrs {
            let b = BlockAddr(a);
            let out = c.access(b);
            if let Some(v) = out.evicted {
                prop_assert!(resident.remove(&v), "evicted non-resident block {v:?}");
            }
            prop_assert_eq!(out.hit, !resident.insert(b) || out.hit);
            resident.insert(b);
            prop_assert!(c.occupancy() <= c.capacity_blocks());
            prop_assert_eq!(c.occupancy(), resident.len());
        }
        // The cache's own view agrees with the model.
        for &b in &resident {
            prop_assert!(c.contains(b));
        }
    }

    /// An access immediately followed by the same access always hits
    /// (temporal locality is never lost instantly).
    #[test]
    fn immediate_reaccess_hits(addrs in prop::collection::vec(0u64..1024, 1..200)) {
        let mut c = small_cache();
        for a in addrs {
            c.access(BlockAddr(a));
            prop_assert!(c.access(BlockAddr(a)).hit);
        }
    }

    /// Within one set, the most recently used `ways` distinct blocks are
    /// always resident (true-LRU property).
    #[test]
    fn lru_keeps_most_recent_ways(addrs in prop::collection::vec(0u64..40, 1..300)) {
        let ways = 4usize;
        let n_sets = 4u64;
        let mut c = small_cache();
        let mut per_set_recency: Vec<Vec<BlockAddr>> = vec![Vec::new(); n_sets as usize];
        for a in addrs {
            let b = BlockAddr(a);
            c.access(b);
            let set = (a % n_sets) as usize;
            per_set_recency[set].retain(|&x| x != b);
            per_set_recency[set].push(b);
            let recent: Vec<_> = per_set_recency[set].iter().rev().take(ways).collect();
            for &&r in &recent {
                prop_assert!(c.contains(r), "recently used {r:?} evicted too early");
            }
        }
    }

    /// Flush always empties the cache, regardless of prior history.
    #[test]
    fn flush_resets(addrs in prop::collection::vec(0u64..256, 0..100)) {
        let mut c = small_cache();
        for a in addrs {
            c.access(BlockAddr(a));
        }
        c.flush();
        prop_assert_eq!(c.occupancy(), 0);
    }

    /// Directory invariant: after any interleaving of reads/writes/evicts,
    /// a block has at most one modified owner, and the owner is a sharer.
    #[test]
    fn directory_single_owner(ops in prop::collection::vec((0usize..4, 0u64..8, 0u8..3), 1..200)) {
        let mut d = Directory::new();
        for (core, addr, kind) in ops {
            let b = BlockAddr(addr);
            match kind {
                0 => { d.on_read(core, b); }
                1 => { d.on_write(core, b); }
                _ => { d.on_evict(core, b); }
            }
            if let Some(owner) = d.owner(b) {
                prop_assert!(d.is_sharer(owner, b), "owner not a sharer");
                // A write by anyone else would have cleared this owner, so
                // at most one core can believe it owns the block.
                for other in 0..4 {
                    if other != owner {
                        prop_assert_ne!(d.owner(b), Some(other));
                    }
                }
            }
        }
    }
}

/// The reference model: a true-LRU cache that stamps every way with a
/// per-cache tick on each touch and evicts an invalid way if there is
/// one, else the smallest stamp. This is the layout `SetAssocCache` had
/// before each way became one recency-ordered word; it is kept here so
/// the compact cache is checked against the obvious implementation.
#[derive(Debug)]
struct StampCache {
    lines: Vec<StampLine>,
    n_sets: u64,
    ways: usize,
    tick: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct StampLine {
    block: u64,
    stamp: u64,
    valid: bool,
    dirty: bool,
}

impl StampCache {
    fn new(n_sets: u64, ways: usize) -> Self {
        StampCache {
            lines: vec![StampLine::default(); n_sets as usize * ways],
            n_sets,
            ways,
            tick: 0,
        }
    }

    fn set(&mut self, block: BlockAddr) -> &mut [StampLine] {
        let start = (block.0 % self.n_sets) as usize * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    fn find(&mut self, block: BlockAddr) -> Option<&mut StampLine> {
        self.set(block)
            .iter_mut()
            .find(|l| l.valid && l.block == block.0)
    }

    fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) = self.find(block) {
            line.stamp = tick;
            line.dirty |= write;
            return AccessOutcome::HIT;
        }
        AccessOutcome {
            hit: false,
            evicted: self.install(block, write),
        }
    }

    fn install(&mut self, block: BlockAddr, dirty: bool) -> Option<BlockAddr> {
        let tick = self.tick;
        let set = self.set(block);
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => (0..set.len()).min_by_key(|&i| set[i].stamp).unwrap(),
        };
        let old = set[victim];
        set[victim] = StampLine {
            block: block.0,
            stamp: tick,
            valid: true,
            dirty,
        };
        old.valid.then_some(BlockAddr(old.block))
    }

    fn access_run(&mut self, start: BlockAddr, max: u16) -> (u16, bool) {
        for n in 0..max {
            if !self.access(BlockAddr(start.0 + u64::from(n)), false).hit {
                return (n + 1, true);
            }
        }
        (max, false)
    }

    fn data_run_hits(&mut self, run: &[DataAccess]) -> usize {
        let mut n = 0;
        for a in run {
            match self.find(a.block) {
                Some(line) if !a.write || line.dirty => {}
                _ => break,
            }
            self.access(a.block, a.write);
            n += 1;
        }
        n
    }

    fn contains(&mut self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let line = self.find(block)?;
        let dirty = line.dirty;
        *line = StampLine::default();
        Some(dirty)
    }

    fn clean(&mut self, block: BlockAddr) {
        if let Some(line) = self.find(block) {
            line.dirty = false;
        }
    }

    fn flush(&mut self) {
        self.lines.fill(StampLine::default());
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// One cache operation of the differential test.
#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    AccessWrite(u64),
    AccessRun(u64, u16),
    DataRunHits(Vec<(u64, bool)>),
    Invalidate(u64),
    Clean(u64),
    Contains(u64),
    Flush,
}

/// Sets of every differential-test geometry.
const N_SETS: u64 = 2;

/// The first block past the differential-test caches' range: a way holds
/// the tag `block >> log2(N_SETS)` only below 2^30.
const TOP: u64 = (1 << 30) * N_SETS;

/// Blocks at each end of the tag range the differential test draws from:
/// 2 sets, so a 4-way cache holds 8 of the 24 and every geometry sees
/// conflict evictions, and the top blocks check that victims are rebuilt
/// from the highest tags as well as the lowest.
const UNIVERSE: u64 = 12;

fn universe() -> impl Iterator<Item = u64> {
    (0..UNIVERSE).chain(TOP - UNIVERSE..TOP)
}

fn arb_op() -> impl Strategy<Value = Op> {
    let block = || prop_oneof![0u64..UNIVERSE, TOP - UNIVERSE..TOP];
    // A walk that would run past the range stops at its end.
    let run =
        |(b, n): (u64, u16)| Op::AccessRun(b, u16::try_from(TOP - b).map_or(n, |room| n.min(room)));
    prop_oneof![
        6 => block().prop_map(Op::Access),
        4 => block().prop_map(Op::AccessWrite),
        4 => (block(), 0u16..6).prop_map(run),
        3 => prop::collection::vec((block(), any::<bool>()), 0..6).prop_map(Op::DataRunHits),
        2 => block().prop_map(Op::Invalidate),
        2 => block().prop_map(Op::Clean),
        1 => block().prop_map(Op::Contains),
        1 => Just(Op::Flush),
    ]
}

/// Drive `SetAssocCache` and the reference model through `ops` on a
/// 2-set cache of `ways` ways, asserting identical results after every
/// operation.
fn check_against_reference(ways: usize, ops: &[Op]) {
    let mut cache = SetAssocCache::new(CacheGeometry::new(N_SETS * ways as u64 * 64, ways as u32));
    let mut model = StampCache::new(N_SETS, ways);
    for (step, op) in ops.iter().enumerate() {
        let at = format!("{ways}-way, step {step}: {op:?}");
        match *op {
            Op::Access(b) => {
                assert_eq!(
                    cache.access(BlockAddr(b)),
                    model.access(BlockAddr(b), false),
                    "{at}"
                );
            }
            Op::AccessWrite(b) => {
                let b = BlockAddr(b);
                assert_eq!(cache.access_write(b), model.access(b, true), "{at}");
            }
            Op::AccessRun(b, n) => {
                let b = BlockAddr(b);
                assert_eq!(cache.access_run(b, n), model.access_run(b, n), "{at}");
            }
            Op::DataRunHits(ref run) => {
                let run: Vec<DataAccess> = run
                    .iter()
                    .map(|&(b, write)| DataAccess {
                        block: BlockAddr(b),
                        write,
                    })
                    .collect();
                assert_eq!(cache.data_run_hits(&run), model.data_run_hits(&run), "{at}");
            }
            Op::Invalidate(b) => {
                let b = BlockAddr(b);
                assert_eq!(cache.invalidate(b), model.invalidate(b), "{at}");
            }
            Op::Clean(b) => {
                cache.clean(BlockAddr(b));
                model.clean(BlockAddr(b));
            }
            Op::Contains(b) => {
                let b = BlockAddr(b);
                assert_eq!(cache.contains(b), model.contains(b), "{at}");
            }
            Op::Flush => {
                cache.flush();
                model.flush();
            }
        }
        assert_eq!(cache.occupancy(), model.occupancy(), "{at}: occupancy");
        for b in universe().map(BlockAddr) {
            assert_eq!(
                cache.contains(b),
                model.contains(b),
                "{at}: residency of {b:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every operation returns what the stamp-based reference returns —
    /// hit flags, victims, run lengths, dirty reports, occupancy — over
    /// 1-, 2- and 4-way sets.
    #[test]
    fn matches_stamp_based_reference(ops in prop::collection::vec(arb_op(), 1..200)) {
        for ways in [1, 2, 4] {
            check_against_reference(ways, &ops);
        }
    }
}

/// A block whose tag does not fit a way is refused, not aliased onto a
/// block of the same set.
#[test]
#[should_panic(expected = "beyond the cache's tag range")]
fn block_past_the_tag_range_is_rejected() {
    let geom = CacheGeometry::new(32 * 1024, 8);
    let mut cache = SetAssocCache::new(geom);
    let last = BlockAddr((1 << 30) * geom.n_sets() - 1);
    cache.access(last);
    assert!(cache.contains(last));
    cache.access(BlockAddr(last.0 + 1));
}

/// One step of the teardown test: every operation that fills, empties or
/// copies a cache.
#[derive(Debug, Clone)]
enum Churn {
    Access(u64),
    Write(u64),
    Run(u64, u16),
    Invalidate(u64),
    Clean(u64),
    Flush,
    Clone,
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    let block = || 0u64..4096;
    prop_oneof![
        6 => block().prop_map(Churn::Access),
        4 => block().prop_map(Churn::Write),
        3 => (block(), 1u16..9).prop_map(|(b, n)| Churn::Run(b, n)),
        2 => block().prop_map(Churn::Invalidate),
        1 => block().prop_map(Churn::Clean),
        1 => Just(Churn::Flush),
        1 => Just(Churn::Clone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A dropped cache hands its storage to the next cache of its size
    /// built on the thread, and that cache starts with every way empty,
    /// whatever filled, flushed or copied the dropped one: teardown
    /// clears exactly the sets a fill ever reached, so a fill that went
    /// unrecorded would surface here as a resident way.
    #[test]
    fn dropped_storage_is_reused_empty(
        shape in 0usize..4,
        ops in prop::collection::vec(arb_churn(), 0..80),
    ) {
        // (sets, ways): one set, a few, and more sets than one word of
        // the filled-set bitmap covers.
        let (n_sets, ways) = [(1u64, 4u32), (4, 2), (128, 1), (256, 4)][shape];
        let geom = CacheGeometry::new(n_sets * u64::from(ways) * 64, ways);
        // Four blocks per way, so sets fill up and evict.
        let span = n_sets * u64::from(ways) * 4;
        let mut cache = SetAssocCache::new(geom);
        for op in ops {
            match op {
                Churn::Access(b) => {
                    cache.access(BlockAddr(b % span));
                }
                Churn::Write(b) => {
                    cache.access_write(BlockAddr(b % span));
                }
                Churn::Run(b, n) => {
                    cache.access_run(BlockAddr(b % span), n);
                }
                Churn::Invalidate(b) => {
                    cache.invalidate(BlockAddr(b % span));
                }
                Churn::Clean(b) => cache.clean(BlockAddr(b % span)),
                Churn::Flush => {
                    cache.flush();
                    prop_assert_eq!(cache.occupancy(), 0);
                }
                Churn::Clone => cache = cache.clone(),
            }
        }
        drop(cache);
        let fresh = SetAssocCache::new(geom);
        prop_assert_eq!(fresh.occupancy(), 0, "a way survived teardown");
    }
}
