//! The buffer pool: pin-counted residency tracking with clock eviction.
//!
//! Pages themselves are owned by heap files and B+-trees (the database is
//! memory-resident, as in the paper's setup: "the buffer-pool is configured
//! to keep the whole database in memory"). The buffer pool tracks which
//! pages occupy frames, enforces pin counts, and evicts with a clock hand
//! when capacity is exceeded — the control structures whose (shared) data
//! accesses Section 2.2.2 attributes to the buffer pool.
//!
//! Frames are allocated on demand, up to the capacity. A frame is never
//! freed, so the frames in use are always `0..frames.len()`: a miss takes
//! frame `frames.len()` while the pool is below capacity, and the clock
//! runs only once every frame is occupied. The frame numbers, hits,
//! victims and statistics are exactly those of a pool whose frames all
//! exist up front; a memory-resident database never pays for the frames
//! it does not reach.

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};

/// Outcome of fixing a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixOutcome {
    /// Frame the page occupies (drives the control-block data address).
    pub frame: u64,
    /// Whether the page was already resident.
    pub hit: bool,
    /// Page evicted to make room, if any.
    pub evicted: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: u64,
    pin_count: u32,
    dirty: bool,
    referenced: bool,
}

/// Buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Fix calls that found the page resident.
    pub hits: u64,
    /// Fix calls that had to install the page.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Dirty evictions (would be write-backs on a disk system).
    pub dirty_evictions: u64,
}

/// A clock-eviction buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    /// The occupied frames, in frame order; grows to `capacity`.
    frames: Vec<Frame>,
    capacity: usize,
    resident: HashMap<u64, usize>,
    hand: usize,
    stats: BufferPoolStats,
}

impl BufferPool {
    /// A pool of up to `capacity` frames, none allocated yet.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames: Vec::new(),
            capacity,
            resident: HashMap::new(),
            hand: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// Approximate heap bytes: the frames and the page table.
    pub fn resident_bytes(&self) -> usize {
        crate::vec_bytes(&self.frames) + crate::table_bytes(&self.resident)
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Current pin count of a page (0 if not resident).
    pub fn pin_count(&self, page: u64) -> u32 {
        self.resident
            .get(&page)
            .map_or(0, |&f| self.frames[f].pin_count)
    }

    /// Fix (pin) a page, installing it if absent.
    ///
    /// # Errors
    /// [`StorageError::BufferPoolExhausted`] when every frame is pinned.
    pub fn fix(&mut self, page: u64) -> StorageResult<FixOutcome> {
        if let Some(&f) = self.resident.get(&page) {
            let frame = &mut self.frames[f];
            frame.pin_count += 1;
            frame.referenced = true;
            self.stats.hits += 1;
            return Ok(FixOutcome {
                frame: f as u64,
                hit: true,
                evicted: None,
            });
        }
        self.stats.misses += 1;
        let frame = Frame {
            page,
            pin_count: 1,
            dirty: false,
            referenced: true,
        };
        let (f, evicted) = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            (self.frames.len() - 1, None)
        } else {
            let (f, old) = self.clock_victim()?;
            self.resident.remove(&old);
            self.stats.evictions += 1;
            if self.frames[f].dirty {
                self.stats.dirty_evictions += 1;
            }
            self.frames[f] = frame;
            (f, Some(old))
        };
        self.resident.insert(page, f);
        Ok(FixOutcome {
            frame: f as u64,
            hit: false,
            evicted,
        })
    }

    /// Unfix (unpin) a page, optionally marking it dirty.
    ///
    /// # Panics
    /// Panics if the page is not resident or not pinned.
    pub fn unfix(&mut self, page: u64, dirty: bool) {
        let &f = self
            .resident
            .get(&page)
            .expect("unfix of non-resident page");
        let frame = &mut self.frames[f];
        assert!(frame.pin_count > 0, "unfix of unpinned page");
        frame.pin_count -= 1;
        frame.dirty |= dirty;
    }

    /// The clock victim of a full pool: `(frame, evicted_page)`.
    fn clock_victim(&mut self) -> StorageResult<(usize, u64)> {
        // Two full sweeps (the first clears reference bits).
        for _ in 0..2 * self.frames.len() {
            let f = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[f];
            if frame.pin_count > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Ok((f, frame.page));
        }
        Err(StorageError::BufferPoolExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_hit_and_miss_accounting() {
        let mut bp = BufferPool::new(4);
        let a = bp.fix(10).unwrap();
        assert!(!a.hit);
        let b = bp.fix(10).unwrap();
        assert!(b.hit);
        assert_eq!(a.frame, b.frame);
        assert_eq!(
            bp.stats(),
            BufferPoolStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(bp.pin_count(10), 2);
    }

    #[test]
    fn eviction_prefers_unreferenced_unpinned() {
        let mut bp = BufferPool::new(2);
        bp.fix(1).unwrap();
        bp.fix(2).unwrap();
        bp.unfix(1, false);
        bp.unfix(2, false);
        // Page 3 must evict one of them.
        let out = bp.fix(3).unwrap();
        assert!(out.evicted.is_some());
        assert_eq!(bp.resident_pages(), 2);
        assert_eq!(bp.stats().evictions, 1);
    }

    #[test]
    fn pinned_pages_never_evicted() {
        let mut bp = BufferPool::new(2);
        bp.fix(1).unwrap(); // stays pinned
        bp.fix(2).unwrap();
        bp.unfix(2, false);
        let out = bp.fix(3).unwrap();
        assert_eq!(out.evicted, Some(2), "only the unpinned page is evictable");
        assert_eq!(bp.pin_count(1), 1);
    }

    #[test]
    fn exhausted_when_all_pinned() {
        let mut bp = BufferPool::new(2);
        bp.fix(1).unwrap();
        bp.fix(2).unwrap();
        assert_eq!(bp.fix(3), Err(StorageError::BufferPoolExhausted));
    }

    #[test]
    fn dirty_evictions_counted() {
        let mut bp = BufferPool::new(1);
        bp.fix(1).unwrap();
        bp.unfix(1, true);
        bp.fix(2).unwrap();
        assert_eq!(bp.stats().dirty_evictions, 1);
    }

    #[test]
    #[should_panic(expected = "unfix of unpinned")]
    fn double_unfix_panics() {
        let mut bp = BufferPool::new(2);
        bp.fix(1).unwrap();
        bp.unfix(1, false);
        bp.unfix(1, false);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(3);
        for p in [1, 2, 3] {
            bp.fix(p).unwrap();
            bp.unfix(p, false);
        }
        // First eviction sweeps all reference bits clear, then takes the
        // frame the hand wrapped to (page 1).
        let out = bp.fix(4).unwrap();
        assert_eq!(out.evicted, Some(1));
        bp.unfix(4, false);
        // Re-reference page 2: its bit is set again.
        bp.fix(2).unwrap();
        bp.unfix(2, false);
        // Next eviction must skip the re-referenced page 2 and take page 3,
        // whose bit stayed clear.
        let out = bp.fix(5).unwrap();
        assert_eq!(out.evicted, Some(3), "second chance protected page 2");
        assert_eq!(bp.pin_count(2), 0);
        assert!(bp.fix(2).unwrap().hit, "page 2 survived");
    }
}

/// The on-demand pool against the pool it replaced, which allocated every
/// frame up front and searched them for a free one on each miss.
#[cfg(test)]
mod reference_model {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    struct EagerFrame {
        page: u64,
        pin_count: u32,
        dirty: bool,
        referenced: bool,
        occupied: bool,
    }

    /// The eager pool, kept verbatim apart from naming.
    struct EagerPool {
        frames: Vec<EagerFrame>,
        resident: HashMap<u64, usize>,
        hand: usize,
        stats: BufferPoolStats,
    }

    impl EagerPool {
        fn new(capacity: usize) -> Self {
            let empty = EagerFrame {
                page: 0,
                pin_count: 0,
                dirty: false,
                referenced: false,
                occupied: false,
            };
            EagerPool {
                frames: vec![empty; capacity],
                resident: HashMap::with_capacity(capacity),
                hand: 0,
                stats: BufferPoolStats::default(),
            }
        }

        fn fix(&mut self, page: u64) -> StorageResult<FixOutcome> {
            if let Some(&f) = self.resident.get(&page) {
                let frame = &mut self.frames[f];
                frame.pin_count += 1;
                frame.referenced = true;
                self.stats.hits += 1;
                return Ok(FixOutcome {
                    frame: f as u64,
                    hit: true,
                    evicted: None,
                });
            }
            self.stats.misses += 1;
            let (f, evicted) = self.find_victim()?;
            if let Some(old) = evicted {
                self.resident.remove(&old);
                self.stats.evictions += 1;
                if self.frames[f].dirty {
                    self.stats.dirty_evictions += 1;
                }
            }
            self.frames[f] = EagerFrame {
                page,
                pin_count: 1,
                dirty: false,
                referenced: true,
                occupied: true,
            };
            self.resident.insert(page, f);
            Ok(FixOutcome {
                frame: f as u64,
                hit: false,
                evicted,
            })
        }

        fn unfix(&mut self, page: u64, dirty: bool) {
            let frame = &mut self.frames[self.resident[&page]];
            assert!(frame.pin_count > 0, "unfix of unpinned page");
            frame.pin_count -= 1;
            frame.dirty |= dirty;
        }

        fn find_victim(&mut self) -> StorageResult<(usize, Option<u64>)> {
            if let Some(f) = self.frames.iter().position(|fr| !fr.occupied) {
                return Ok((f, None));
            }
            for _ in 0..2 * self.frames.len() {
                let f = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let frame = &mut self.frames[f];
                if frame.pin_count > 0 {
                    continue;
                }
                if frame.referenced {
                    frame.referenced = false;
                    continue;
                }
                return Ok((f, Some(frame.page)));
            }
            Err(StorageError::BufferPoolExhausted)
        }

        fn pin_count(&self, page: u64) -> u32 {
            self.resident
                .get(&page)
                .map_or(0, |&f| self.frames[f].pin_count)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Fix(u64),
        /// Unfix the `n`-th pinned page (mod their count), maybe dirtying it.
        Unfix(usize, bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Twelve pages over at most eight frames: hits, clock evictions
        // and, once enough pages stay pinned, exhaustion.
        prop_oneof![
            3 => (0u64..12).prop_map(Op::Fix),
            2 => (0usize..16, any::<bool>()).prop_map(|(n, d)| Op::Unfix(n, d)),
        ]
    }

    const PAGES: std::ops::Range<u64> = 0..12;

    /// Apply `ops` to both pools at `capacity`, asserting identical
    /// outcomes, statistics and pin counts after every op. Returns the
    /// evictions and exhausted fixes seen.
    fn drive(capacity: usize, ops: Vec<Op>) -> (u64, u64) {
        let mut pool = BufferPool::new(capacity);
        let mut model = EagerPool::new(capacity);
        let mut exhausted = 0;
        for op in ops {
            match op {
                Op::Fix(page) => {
                    let outcome = model.fix(page);
                    exhausted += u64::from(outcome.is_err());
                    assert_eq!(pool.fix(page), outcome);
                }
                Op::Unfix(n, dirty) => {
                    let pinned: Vec<u64> = PAGES.filter(|&p| model.pin_count(p) > 0).collect();
                    if let Some(&page) = pinned.get(n % pinned.len().max(1)) {
                        pool.unfix(page, dirty);
                        model.unfix(page, dirty);
                    }
                }
            }
            assert_eq!(pool.stats(), model.stats);
            assert_eq!(pool.resident_pages(), model.resident.len());
            for page in PAGES {
                assert_eq!(pool.pin_count(page), model.pin_count(page));
            }
            assert!(pool.frames.len() <= capacity);
        }
        (model.stats.evictions, exhausted)
    }

    fn case() -> impl Strategy<Value = (usize, Vec<Op>)> {
        (1usize..9, prop::collection::vec(op(), 1..200))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn on_demand_pool_matches_eager_pool(case in case()) {
            drive(case.0, case.1);
        }
    }

    #[test]
    fn the_cases_reach_eviction_and_exhaustion() {
        // The property's own cases, summed: a generator that never ran
        // the clock or filled the pool with pins would prove little.
        let (evictions, exhausted) = (0..256)
            .map(|n| {
                let (capacity, ops) = case().generate(&mut proptest::TestRng::for_case(n));
                drive(capacity, ops)
            })
            .fold((0, 0), |(a, b), (e, x)| (a + e, b + x));
        assert!(
            evictions > 100 && exhausted > 100,
            "{evictions} {exhausted}"
        );
    }
}
