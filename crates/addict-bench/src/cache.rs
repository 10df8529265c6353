//! Cross-request trace-pool cache.
//!
//! Trace generation dominates service latency — populating a storage
//! engine and tracing N transactions costs seconds to minutes, while
//! replaying the resulting interned set costs milliseconds to seconds.
//! A resident server amortizes that: the first job generating
//! `(benchmark, seed, n_xcts, chunk, small)` pays for it, every later
//! job reuses the shared [`InternedWorkload`] behind an `Arc`.
//!
//! A miss is the one trace-generation path of the harness: a fresh
//! storage engine (`setup`/`setup_small`) traced by
//! [`collect_traces_interned_chunked`] into a private slice pool. The
//! job layer, the server, `fig5`–`fig9`, `ablation` and `bench` all fetch
//! their interned traces here.
//!
//! Concurrency: one `Mutex` over the table plus a `Condvar`. A miss
//! installs a *pending* slot and generates **outside the lock**; a second
//! request for the same key meanwhile blocks on the condvar and counts as
//! a hit once the first finishes (the work happened once — that is what
//! the counter measures). A panicking generation clears its pending slot
//! and wakes waiters so they can retry rather than deadlock.
//!
//! Eviction is LRU by resident bytes against a byte budget
//! ([`TracePool::new`]): after each insert, least-recently-used **idle**
//! entries (sole-owner `Arc`s — never one a running job still replays
//! from) are dropped until the total fits. An entry larger than the whole
//! budget is served to its requester and evicted immediately after — the
//! budget bounds *resident* cache bytes, not job size. Counters
//! ([`TracePool::stats`]) make all of this observable through the
//! server's `/stats` endpoint.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use addict_trace::{InternedWorkload, SlicePool};
use addict_workloads::{collect_traces_interned_chunked, Benchmark};

/// Default recorder-drain granularity of a [`TraceKey`]: large enough to
/// amortize the per-drain engine round trip, small enough that a chunk of
/// flat traces stays a rounding error next to the interned set it feeds.
pub const DEFAULT_GEN_CHUNK: usize = 64;

/// Cache identity of one generated trace range. Two jobs agreeing on all
/// five fields replay byte-identical traces (generation is a pure
/// function of the key: a fresh engine and a freshly seeded transaction
/// stream, with `chunk` changing only peak memory —
/// `tests/trace_determinism.rs`), so sharing the interned set is
/// invisible to results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Benchmark to build and trace.
    pub bench: Benchmark,
    /// Transaction-stream RNG seed.
    pub seed: u64,
    /// Transactions to trace.
    pub n_xcts: usize,
    /// Generation→interning drain granularity.
    pub chunk: usize,
    /// Reduced test-scale population.
    pub small: bool,
}

impl TraceKey {
    /// Human-readable form for progress lines and diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "{}/seed{}/n{}{}",
            self.bench.id(),
            self.seed,
            self.n_xcts,
            if self.small { "/small" } else { "" }
        )
    }

    /// Predicted resident bytes of this key's interned workload,
    /// **before** generating it — the admission-control input: a server
    /// can refuse a job whose traces would not fit the pool budget
    /// without first paying seconds of generation to find out.
    ///
    /// The model is linear per benchmark, `pool + slope × n_xcts`, with
    /// constants measured from the BENCH_6 scaling ladder and the
    /// BENCH_7 per-workload `trace_memory` sections: the shared slice
    /// pool is constant in `n_xcts` (BENCH_6 measured it flat from 400
    /// to 1M transactions), and per-trace bytes grow linearly (the
    /// delta-varint address share dominates at ~1.5 B/address).
    /// Slopes are the measured 400-transaction values rounded **up** —
    /// the 1M-rung slope is slightly smaller (281 vs 305 B/xct on
    /// TPC-B), so the estimate is conservative at scale, which is the
    /// right direction for admission control. `small` populations
    /// produce traces of comparable shape (fewer *distinct* pages, not
    /// shorter transactions), so they share the full-scale constants.
    pub fn estimated_resident_bytes(&self) -> usize {
        // (pool bytes, per-transaction slope in bytes) per registry
        // entry, from BENCH_7.json `trace_memory` at n_xcts = 400.
        let (pool, slope) = match self.bench {
            Benchmark::TpcB => (10_336, 280),
            Benchmark::TpcC => (470_704, 1_151),
            Benchmark::TpcE => (298_544, 481),
            Benchmark::Tatp => (46_576, 139),
            Benchmark::YcsbA => (14_080, 143),
            Benchmark::YcsbB => (12_608, 136),
        };
        pool + slope * self.n_xcts
    }
}

/// Counter snapshot of a [`TracePool`] (the `/stats` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a resident (or in-flight) entry.
    pub hits: u64,
    /// Requests that had to generate.
    pub misses: u64,
    /// Generations performed (== misses unless a generation panicked).
    pub generations: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Resident entries still pinned by a borrower (a running job holds
    /// the entry's `Arc`); these are never evicted. A cancelled or
    /// finished job must return this to 0 — the chaos tests' leak probe.
    pub pinned_entries: usize,
    /// Resident bytes right now (sum of entry [`InternedWorkload::resident_bytes`]).
    pub resident_bytes: usize,
    /// Byte budget (`usize::MAX` = unbounded).
    pub budget_bytes: usize,
}

enum Slot {
    /// Another request is generating this key; wait on the condvar.
    Pending,
    /// Resident entry.
    Ready {
        workload: Arc<InternedWorkload>,
        bytes: usize,
        /// Monotonic use tick for LRU ordering.
        used: u64,
    },
}

struct Inner {
    slots: HashMap<TraceKey, Slot>,
    stats: CacheStats,
    tick: u64,
}

/// The cross-request trace cache: `TraceKey` → shared
/// [`InternedWorkload`], bounded by a byte budget with LRU eviction.
pub struct TracePool {
    inner: Mutex<Inner>,
    cond: Condvar,
    budget: usize,
    /// Fault-injection countdown: each pending generation decrements it,
    /// and a nonzero value panics *instead of* generating — exercising
    /// the panic-clears-pending-slot path from outside. Only chaos tests
    /// arm it ([`TracePool::fail_next_generations`]); it is always 0 in
    /// production, costing one relaxed load per miss.
    gen_faults: std::sync::atomic::AtomicU32,
}

/// Removes a pending slot (and wakes waiters) if generation unwinds, so
/// a panicking engine build cannot strand other requests on the condvar.
struct PendingGuard<'a> {
    pool: &'a TracePool,
    key: TraceKey,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.pool.inner.lock().expect("trace pool lock");
            inner.slots.remove(&self.key);
            self.pool.cond.notify_all();
        }
    }
}

impl TracePool {
    /// A pool evicting LRU entries beyond `budget_bytes` resident bytes.
    pub fn new(budget_bytes: usize) -> Self {
        TracePool {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                stats: CacheStats {
                    budget_bytes,
                    ..CacheStats::default()
                },
                tick: 0,
            }),
            cond: Condvar::new(),
            budget: budget_bytes,
            gen_faults: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Arm the generation fault injector: the next `n` generations panic
    /// instead of generating (chaos-test hook; see the `gen_faults`
    /// field). The panic unwinds through [`TracePool::get`]'s pending
    /// guard, so waiters wake and retry — exactly the code path a real
    /// engine-population panic takes.
    pub fn fail_next_generations(&self, n: u32) {
        self.gen_faults
            .store(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// True when `key`'s traces are resident right now (an in-flight
    /// pending generation does not count). Admission control uses this
    /// to skip charging a job for bytes that already exist.
    pub fn contains(&self, key: &TraceKey) -> bool {
        let inner = self.inner.lock().expect("trace pool lock");
        matches!(inner.slots.get(key), Some(Slot::Ready { .. }))
    }

    /// A pool that never evicts (the batch binaries' configuration — a
    /// single job's working set, dropped with the pool).
    pub fn unbounded() -> Self {
        TracePool::new(usize::MAX)
    }

    /// Fetch (or generate) the traces for `key`. Returns the shared
    /// workload and whether this was a cache hit. A request that waited
    /// for another request's in-flight generation counts as a hit: the
    /// generation happened once, which is the thing the counters measure.
    ///
    /// `_threads` is ignored: one key is one engine, generated on the
    /// calling thread. Callers fetch several keys concurrently instead.
    pub fn get(&self, key: &TraceKey, _threads: usize) -> (Arc<InternedWorkload>, bool) {
        {
            let mut inner = self.inner.lock().expect("trace pool lock");
            loop {
                let resident = match inner.slots.get(key) {
                    Some(Slot::Ready { workload, .. }) => Some(Some(Arc::clone(workload))),
                    Some(Slot::Pending) => Some(None),
                    None => None,
                };
                match resident {
                    Some(Some(w)) => {
                        inner.tick += 1;
                        let tick = inner.tick;
                        if let Some(Slot::Ready { used, .. }) = inner.slots.get_mut(key) {
                            *used = tick;
                        }
                        inner.stats.hits += 1;
                        return (w, true);
                    }
                    Some(None) => {
                        // Another request is generating this key; wait,
                        // then re-check — the slot is now Ready, or was
                        // removed by a panicked generation (then we take
                        // the miss path ourselves).
                        inner = self.cond.wait(inner).expect("trace pool lock");
                    }
                    None => {
                        inner.stats.misses += 1;
                        inner.slots.insert(*key, Slot::Pending);
                        break;
                    }
                }
            }
        }

        let mut guard = PendingGuard {
            pool: self,
            key: *key,
            armed: true,
        };
        // Chaos hook: an armed fault panics here, inside the pending
        // guard, simulating a generation that died mid-population.
        if self
            .gen_faults
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |n| n.checked_sub(1),
            )
            .is_ok()
        {
            panic!("injected generation fault for {}", key.describe());
        }
        // The engine and runner drop at the end of this block, before the
        // entry is published.
        let workload = Arc::new({
            let (mut engine, mut runner) = if key.small {
                key.bench.setup_small()
            } else {
                key.bench.setup()
            };
            let mut slices = SlicePool::new();
            let xcts = collect_traces_interned_chunked(
                &mut engine,
                runner.as_mut(),
                key.n_xcts,
                key.seed,
                &mut slices,
                key.chunk,
            );
            InternedWorkload {
                name: runner.name().to_owned(),
                xct_type_names: runner.xct_type_names(),
                pool: Arc::new(slices),
                xcts,
            }
        });
        let bytes = workload.resident_bytes();
        guard.armed = false;

        let mut inner = self.inner.lock().expect("trace pool lock");
        inner.tick += 1;
        let used = inner.tick;
        inner.slots.insert(
            *key,
            Slot::Ready {
                workload: Arc::clone(&workload),
                bytes,
                used,
            },
        );
        inner.stats.generations += 1;
        self.evict_over_budget(&mut inner);
        self.refresh_residency(&mut inner);
        drop(inner);
        self.cond.notify_all();
        (workload, false)
    }

    /// Drop LRU idle entries until resident bytes fit the budget. Entries
    /// still shared outside the cache (a job mid-replay) are skipped —
    /// their memory is live either way, and evicting the table entry
    /// would only force a regeneration without freeing anything.
    fn evict_over_budget(&self, inner: &mut Inner) {
        loop {
            let resident: usize = inner
                .slots
                .values()
                .map(|s| match s {
                    Slot::Ready { bytes, .. } => *bytes,
                    Slot::Pending => 0,
                })
                .sum();
            if resident <= self.budget {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { workload, used, .. } if Arc::strong_count(workload) == 1 => {
                        Some((*used, *k))
                    }
                    _ => None,
                })
                .min_by_key(|&(used, _)| used)
                .map(|(_, k)| k);
            let Some(victim) = victim else {
                // Everything resident is in active use; nothing evictable.
                return;
            };
            inner.slots.remove(&victim);
            inner.stats.evictions += 1;
        }
    }

    fn refresh_residency(&self, inner: &mut Inner) {
        inner.stats.entries = inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count();
        inner.stats.pinned_entries = inner
            .slots
            .values()
            .filter(|s| match s {
                Slot::Ready { workload, .. } => Arc::strong_count(workload) > 1,
                Slot::Pending => false,
            })
            .count();
        inner.stats.resident_bytes = inner
            .slots
            .values()
            .map(|s| match s {
                Slot::Ready { bytes, .. } => *bytes,
                Slot::Pending => 0,
            })
            .sum();
    }

    /// Current counter snapshot. Taking a snapshot also re-enforces the
    /// budget: an over-budget entry that was pinned by a running job at
    /// insert time (and therefore unevictable) is collected here once the
    /// job has dropped its `Arc`.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.inner.lock().expect("trace pool lock");
        self.evict_over_budget(&mut inner);
        self.refresh_residency(&mut inner);
        inner.stats
    }
}

// Thread-safety audit: the pool is shared by reference across server
// worker threads.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<TracePool>();
    shared::<TraceKey>();
    shared::<CacheStats>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize, seed: u64) -> TraceKey {
        TraceKey {
            bench: Benchmark::TpcB,
            seed,
            n_xcts: n,
            chunk: 4,
            small: true,
        }
    }

    #[test]
    fn grid_fetch_orders_results_by_key() {
        let pool = TracePool::unbounded();
        let keys = [key(3, 1), key(5, 2)];
        let out = crate::run_grid(&keys, 2, |_, k| pool.get(k, 1).0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].xcts.len(), 3);
        assert_eq!(out[1].xcts.len(), 5);
        assert_eq!(out[0].name, "TPC-B");
    }

    #[test]
    fn hit_and_miss_counters_track_sharing() {
        let pool = TracePool::unbounded();
        let (a, hit_a) = pool.get(&key(6, 1), 1);
        let (b, hit_b) = pool.get(&key(6, 1), 1);
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the resident Arc");
        let (_c, hit_c) = pool.get(&key(6, 2), 1); // different seed = different entry
        assert!(!hit_c);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.generations), (1, 2, 2));
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 0);
        assert!(s.resident_bytes > 0);
        assert_eq!(s.resident_bytes, a.resident_bytes() + _c.resident_bytes());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Learn one entry's size, then budget for two.
        let probe = TracePool::unbounded();
        let (w, _) = probe.get(&key(5, 1), 1);
        let one = w.resident_bytes();
        drop((w, probe));

        let pool = TracePool::new(2 * one + one / 2);
        let (a, _) = pool.get(&key(5, 1), 1);
        let (b, _) = pool.get(&key(5, 2), 1);
        drop((a, b)); // idle: evictable
                      // Touch seed 1 so seed 2 is the LRU victim when seed 3 arrives.
        let (_a2, hit) = pool.get(&key(5, 1), 1);
        assert!(hit);
        drop(_a2);
        let (_c, _) = pool.get(&key(5, 3), 1);
        drop(_c);
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        let (_a3, hit_a) = pool.get(&key(5, 1), 1); // survived (recently used)
        assert!(hit_a, "recently-used entry was evicted");
        let (_b2, hit_b) = pool.get(&key(5, 2), 1); // the LRU victim
        assert!(!hit_b, "LRU victim still resident");
    }

    #[test]
    fn in_use_entries_are_not_evicted() {
        let probe = TracePool::unbounded();
        let (w, _) = probe.get(&key(5, 1), 1);
        let one = w.resident_bytes();
        drop((w, probe));

        // Budget below a single entry: with the Arc held, nothing is
        // evictable; once dropped, the next insert evicts it.
        let pool = TracePool::new(one / 2);
        let (held, _) = pool.get(&key(5, 1), 1);
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.stats().entries, 1);
        let (_other, _) = pool.get(&key(5, 2), 1);
        drop(_other);
        drop(held);
        let (_third, _) = pool.get(&key(5, 3), 1);
        drop(_third);
        // All three generated; the idle ones got evicted down to budget
        // (every entry exceeds it alone, so the table drains to empty).
        let s = pool.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 2, "stats: {s:?}");
        assert_eq!(s.entries, 0);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn estimate_is_conservative_for_small_keys() {
        // The admission model must never under-predict (a job admitted on
        // an optimistic estimate defeats the point of admission control).
        // Generate a couple of real small-scale workloads and compare.
        let pool = TracePool::unbounded();
        for (bench, n) in [(Benchmark::TpcB, 12), (Benchmark::TpcB, 40)] {
            let k = TraceKey {
                bench,
                seed: 1,
                n_xcts: n,
                chunk: 4,
                small: true,
            };
            let (w, _) = pool.get(&k, 1);
            assert!(
                k.estimated_resident_bytes() >= w.resident_bytes(),
                "{}: estimated {} < actual {}",
                k.describe(),
                k.estimated_resident_bytes(),
                w.resident_bytes()
            );
        }
        // And the model is monotone in n_xcts.
        let at = |n| {
            TraceKey {
                bench: Benchmark::TpcC,
                seed: 2,
                n_xcts: n,
                chunk: 64,
                small: false,
            }
            .estimated_resident_bytes()
        };
        assert!(at(400) < at(10_000) && at(10_000) < at(1_000_000));
    }

    #[test]
    fn injected_generation_fault_clears_slot_and_recovers() {
        let pool = TracePool::unbounded();
        let k = key(6, 9);
        pool.fail_next_generations(1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.get(&k, 1)))
            .expect_err("armed fault must panic");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected generation fault"), "{msg}");
        assert!(!pool.contains(&k), "panicked generation left a slot");
        // The fault was consumed: the retry generates for real.
        let (w, hit) = pool.get(&k, 1);
        assert!(!hit);
        assert!(pool.contains(&k));
        assert!(w.resident_bytes() > 0);
        let s = pool.stats();
        assert_eq!(s.misses, 2, "both attempts are misses");
        assert_eq!(s.generations, 1, "only the retry generated");
        // Pinned while we hold the Arc, idle after.
        assert_eq!(s.pinned_entries, 1);
        drop(w);
        assert_eq!(pool.stats().pinned_entries, 0);
    }

    #[test]
    fn concurrent_same_key_generates_once() {
        let pool = TracePool::unbounded();
        let k = key(8, 1);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| pool.get(&k, 1).0)).collect();
            let arcs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for w in &arcs[1..] {
                assert!(Arc::ptr_eq(&arcs[0], w));
            }
        });
        let s = pool.stats();
        assert_eq!(s.generations, 1, "duplicate in-flight generation");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }
}
