//! The lock manager: hierarchical two-phase locking with S/X/IS/IX modes,
//! lock upgrade, and waits-for deadlock detection.
//!
//! Shore-MT's lock manager is one of the shared structures the paper's
//! characterization highlights (Section 2.2.2): its hash-table buckets are
//! among the few data blocks touched by nearly every transaction. The
//! [`LockManager::bucket_of`] mapping feeds those data-block addresses to
//! the trace recorder.
//!
//! The engine interleaves transactions on one thread, so conflicts surface
//! as [`AcquireOutcome::Conflict`] rather than blocking; callers decide
//! whether to abort (wait-die) or retry. The waits-for graph and its cycle
//! detector implement real deadlock detection for callers that model
//! waiting.

use std::collections::{HashMap, HashSet};

/// Lock modes, including intention modes for table-level locks
/// (hierarchical locking, as in Shore-MT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (table level).
    IS,
    /// Intention exclusive (table level).
    IX,
    /// Shared.
    S,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Classic compatibility matrix (no SIX; the workloads never need it).
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IS, X) | (X, IS) => false,
            (IS, _) | (_, IS) => true,
            (IX, IX) => true,
            (IX, _) | (_, IX) => false,
            (S, S) => true,
            (S, X) | (X, S) | (X, X) => false,
        }
    }

    /// Does holding `self` already imply `other`?
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (X, _) => true,
            (S, S) | (S, IS) => true,
            (IX, IX) | (IX, IS) => true,
            (IS, IS) => true,
            _ => self == other,
        }
    }
}

/// A lockable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// Whole table.
    Table(u32),
    /// One record, identified by table and key.
    Record {
        /// Owning table.
        table: u32,
        /// Key (or packed rid) of the record.
        key: u64,
    },
}

/// Number of hash buckets in the lock table (power of two).
pub const LOCK_BUCKETS: u64 = 4096;

/// Outcome of an acquire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Lock granted (or already held at a covering mode).
    Granted {
        /// Hash bucket touched (for data-address mapping).
        bucket: u64,
        /// Whether this was an upgrade of an existing weaker lock.
        upgraded: bool,
    },
    /// Conflicting holders prevent the grant.
    Conflict {
        /// Hash bucket touched.
        bucket: u64,
        /// Transactions holding incompatible locks.
        holders: Vec<u64>,
    },
}

#[derive(Debug, Clone, Default)]
struct LockEntry {
    /// `(xct, mode)` pairs currently granted.
    holders: Vec<(u64, LockMode)>,
}

/// The lock manager.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    table: HashMap<Resource, LockEntry>,
    held: HashMap<u64, Vec<Resource>>,
    waits_for: HashMap<u64, HashSet<u64>>,
}

impl LockManager {
    /// Empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate heap bytes of the lock, held-lock and waits-for tables
    /// and their per-entry lists.
    pub fn resident_bytes(&self) -> usize {
        use crate::{table_bytes, vec_bytes};
        table_bytes(&self.table)
            + self
                .table
                .values()
                .map(|e| vec_bytes(&e.holders))
                .sum::<usize>()
            + table_bytes(&self.held)
            + self.held.values().map(vec_bytes).sum::<usize>()
            + table_bytes(&self.waits_for)
            + self
                .waits_for
                .values()
                .map(|s| s.capacity() * (std::mem::size_of::<u64>() + 1))
                .sum::<usize>()
    }

    /// Hash bucket of a resource (the data block the engine reports).
    pub fn bucket_of(resource: Resource) -> u64 {
        // FNV-1a over the resource's discriminating fields.
        let (a, b) = match resource {
            Resource::Table(t) => (u64::from(t), u64::MAX),
            Resource::Record { table, key } => (u64::from(table), key),
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in a.to_le_bytes().iter().chain(b.to_le_bytes().iter()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h % LOCK_BUCKETS
    }

    /// Request `mode` on `resource` for `xct`.
    pub fn acquire(&mut self, xct: u64, resource: Resource, mode: LockMode) -> AcquireOutcome {
        let bucket = Self::bucket_of(resource);
        let entry = self.table.entry(resource).or_default();

        // Re-entrant / covered request?
        if let Some(&(_, held_mode)) = entry.holders.iter().find(|(x, _)| *x == xct) {
            if held_mode.covers(mode) {
                return AcquireOutcome::Granted {
                    bucket,
                    upgraded: false,
                };
            }
            // Upgrade: allowed only if every other holder is compatible
            // with the stronger mode.
            let conflicting: Vec<u64> = entry
                .holders
                .iter()
                .filter(|(x, m)| *x != xct && !m.compatible(mode))
                .map(|(x, _)| *x)
                .collect();
            if conflicting.is_empty() {
                let slot = entry
                    .holders
                    .iter_mut()
                    .find(|(x, _)| *x == xct)
                    .expect("holder just found");
                slot.1 = mode;
                return AcquireOutcome::Granted {
                    bucket,
                    upgraded: true,
                };
            }
            return AcquireOutcome::Conflict {
                bucket,
                holders: conflicting,
            };
        }

        let conflicting: Vec<u64> = entry
            .holders
            .iter()
            .filter(|(_, m)| !m.compatible(mode))
            .map(|(x, _)| *x)
            .collect();
        if !conflicting.is_empty() {
            return AcquireOutcome::Conflict {
                bucket,
                holders: conflicting,
            };
        }
        entry.holders.push((xct, mode));
        self.held.entry(xct).or_default().push(resource);
        AcquireOutcome::Granted {
            bucket,
            upgraded: false,
        }
    }

    /// Release everything `xct` holds (2PL release-at-commit). Returns the
    /// resources released, in acquisition order.
    pub fn release_all(&mut self, xct: u64) -> Vec<Resource> {
        self.clear_wait(xct);
        let resources = self.held.remove(&xct).unwrap_or_default();
        for r in &resources {
            if let Some(entry) = self.table.get_mut(r) {
                entry.holders.retain(|(x, _)| *x != xct);
                if entry.holders.is_empty() {
                    self.table.remove(r);
                }
            }
        }
        resources
    }

    /// Locks currently held by `xct`.
    pub fn held_by(&self, xct: u64) -> &[Resource] {
        self.held.get(&xct).map_or(&[], Vec::as_slice)
    }

    /// The mode `xct` holds on `resource`, if any.
    pub fn mode_of(&self, xct: u64, resource: Resource) -> Option<LockMode> {
        self.table
            .get(&resource)?
            .holders
            .iter()
            .find(|(x, _)| *x == xct)
            .map(|&(_, m)| m)
    }

    /// Record that `waiter` is blocked on `holders` (for callers modeling
    /// waiting instead of aborting).
    pub fn record_wait(&mut self, waiter: u64, holders: &[u64]) {
        self.waits_for
            .entry(waiter)
            .or_default()
            .extend(holders.iter().copied());
    }

    /// Clear `waiter`'s wait edges (after the lock is granted or dropped).
    pub fn clear_wait(&mut self, waiter: u64) {
        self.waits_for.remove(&waiter);
    }

    /// Would adding edges `waiter -> holders` close a cycle in the waits-for
    /// graph? (Deadlock detection by DFS.)
    pub fn would_deadlock(&self, waiter: u64, holders: &[u64]) -> bool {
        // Deadlock iff some holder can already reach `waiter`.
        let mut stack: Vec<u64> = holders.to_vec();
        let mut seen = HashSet::new();
        while let Some(x) = stack.pop() {
            if x == waiter {
                return true;
            }
            if seen.insert(x) {
                if let Some(next) = self.waits_for.get(&x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// Release the spare capacity of the lock, held-lock and waits-for
    /// tables. Population acquires and releases a lock per loaded record,
    /// so the tables end it empty but sized for the largest load; an
    /// engine that is kept and cloned afterwards should not carry that.
    pub fn shrink_to_fit(&mut self) {
        self.table.shrink_to_fit();
        self.held.shrink_to_fit();
        self.waits_for.shrink_to_fit();
    }

    /// Number of distinct locked resources (diagnostics).
    pub fn n_locked(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    const T: Resource = Resource::Table(1);
    const R1: Resource = Resource::Record { table: 1, key: 100 };

    fn granted(o: &AcquireOutcome) -> bool {
        matches!(o, AcquireOutcome::Granted { .. })
    }

    #[test]
    fn compatibility_matrix() {
        assert!(IS.compatible(IX) && IX.compatible(IS));
        assert!(IS.compatible(S) && S.compatible(IS));
        assert!(!IS.compatible(X) && !X.compatible(IS));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S) && !S.compatible(IX));
        assert!(S.compatible(S));
        assert!(!S.compatible(X) && !X.compatible(X));
    }

    #[test]
    fn shared_locks_coexist_exclusive_conflicts() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.acquire(1, R1, S)));
        assert!(granted(&lm.acquire(2, R1, S)));
        match lm.acquire(3, R1, X) {
            AcquireOutcome::Conflict { holders, .. } => {
                let mut h = holders;
                h.sort_unstable();
                assert_eq!(h, vec![1, 2]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn reentrant_and_covered_requests_granted() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.acquire(1, R1, X)));
        // X covers S: no new lock needed.
        assert!(matches!(
            lm.acquire(1, R1, S),
            AcquireOutcome::Granted {
                upgraded: false,
                ..
            }
        ));
        assert_eq!(lm.held_by(1).len(), 1);
    }

    #[test]
    fn upgrade_s_to_x_when_sole_holder() {
        let mut lm = LockManager::new();
        lm.acquire(1, R1, S);
        assert!(matches!(
            lm.acquire(1, R1, X),
            AcquireOutcome::Granted { upgraded: true, .. }
        ));
        assert_eq!(lm.mode_of(1, R1), Some(X));
        // Now xct 2 cannot even get S.
        assert!(!granted(&lm.acquire(2, R1, S)));
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let mut lm = LockManager::new();
        lm.acquire(1, R1, S);
        lm.acquire(2, R1, S);
        match lm.acquire(1, R1, X) {
            AcquireOutcome::Conflict { holders, .. } => assert_eq!(holders, vec![2]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // Xct 1 still holds S.
        assert_eq!(lm.mode_of(1, R1), Some(S));
    }

    #[test]
    fn intention_locks_on_table() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.acquire(1, T, IX)));
        assert!(granted(&lm.acquire(2, T, IX)), "IX is compatible with IX");
        assert!(!granted(&lm.acquire(3, T, S)), "S conflicts with IX");
        assert!(granted(&lm.acquire(3, T, IS)), "IS is compatible with IX");
    }

    #[test]
    fn release_all_frees_everything() {
        let mut lm = LockManager::new();
        lm.acquire(1, T, IX);
        lm.acquire(1, R1, X);
        let released = lm.release_all(1);
        assert_eq!(released.len(), 2);
        assert_eq!(lm.n_locked(), 0);
        assert!(granted(&lm.acquire(2, R1, X)));
    }

    #[test]
    fn deadlock_cycle_detected() {
        let mut lm = LockManager::new();
        // 1 waits for 2, 2 waits for 3.
        lm.record_wait(1, &[2]);
        lm.record_wait(2, &[3]);
        // 3 waiting on 1 closes the cycle.
        assert!(lm.would_deadlock(3, &[1]));
        // 3 waiting on an unrelated xct does not.
        assert!(!lm.would_deadlock(3, &[99]));
        // Clearing 2's wait breaks the path.
        lm.clear_wait(2);
        assert!(!lm.would_deadlock(3, &[1]));
    }

    #[test]
    fn self_wait_is_immediate_deadlock() {
        let lm = LockManager::new();
        assert!(lm.would_deadlock(7, &[7]));
    }

    #[test]
    fn shrink_to_fit_keeps_held_locks_and_drops_spare_capacity() {
        let mut lm = LockManager::new();
        for key in 0..1000 {
            lm.acquire(1, Resource::Record { table: 1, key }, X);
        }
        lm.release_all(1);
        lm.acquire(2, R1, S);
        let before = lm.resident_bytes();
        lm.shrink_to_fit();
        assert!(
            lm.resident_bytes() < before / 10,
            "{before} -> {}",
            lm.resident_bytes()
        );
        assert_eq!(lm.mode_of(2, R1), Some(S));
        assert!(!granted(&lm.acquire(3, R1, X)));
    }

    #[test]
    fn bucket_mapping_is_stable_and_bounded() {
        let b1 = LockManager::bucket_of(R1);
        let b2 = LockManager::bucket_of(R1);
        assert_eq!(b1, b2);
        assert!(b1 < LOCK_BUCKETS);
        // Different records usually hash differently.
        let other = Resource::Record { table: 1, key: 101 };
        assert_ne!(LockManager::bucket_of(other), b1);
    }
}
