//! Cross-request trace-pool cache.
//!
//! Trace generation dominates service latency — populating a storage
//! engine and tracing N transactions costs seconds to minutes, while
//! replaying the resulting interned set costs milliseconds to seconds.
//! A resident server amortizes that: the first job generating
//! `(benchmark, seed, n_xcts, chunk, small)` pays for it, every later
//! job reuses the shared [`InternedWorkload`] behind an `Arc`.
//!
//! A miss is the one trace-generation path of the harness: a copy of the
//! benchmark's populated storage engine traced by
//! [`collect_traces_interned_chunked`] into a private slice pool. The
//! job layer, the server, `fig5`–`fig9`, `ablation` and `bench` all fetch
//! their interned traces here.
//!
//! Population takes no seed, so the pool populates each `(benchmark,
//! small)` once (`setup`/`setup_small`) and keeps the engine and runner
//! as a *snapshot*; every miss traces a clone of it. Copying the
//! populated state is far cheaper than rebuilding it, and a clone traces
//! exactly what a fresh engine would (`tests/trace_determinism.rs`, and
//! the default-scale digests of `tests/golden_digests.rs`). A snapshot
//! is a rebuildable cache: its bytes count toward the budget, it is
//! evicted before any trace entry, and losing it costs one population,
//! never a different result.
//!
//! A profile entry also memoizes Algorithm 1: [`TracePool::get_profile`]
//! returns the entry's migration map for the paper-default L1-I (the
//! one geometry every job replays), computed once per entry and shared
//! as an `Arc<MigrationMap>`, so a warm job never re-profiles. The map is
//! a pure function of the entry's traces and the geometry, so sharing it
//! is invisible to results. Its bytes count toward the entry's and leave with it on
//! eviction; it holds no workload `Arc`, so it never pins the entry.
//!
//! Concurrency: one `Mutex` over the table plus a `Condvar`. A miss
//! installs a *pending* slot and generates **outside the lock**; a second
//! request for the same key meanwhile blocks on the condvar and counts as
//! a hit once the first finishes (the work happened once — that is what
//! the counter measures). A panicking generation clears its pending slot
//! and wakes waiters so they can retry rather than deadlock. A map is
//! computed outside the lock too, in the entry's `OnceLock` cell: a
//! concurrent request for the same map waits on the cell instead of
//! running Algorithm 1 a second time. Snapshots work the same way:
//! concurrent misses on one benchmark wait on its snapshot's `OnceLock`,
//! so it is populated once; a population that panics leaves the cell
//! empty for the next miss to fill.
//!
//! Eviction is LRU by resident bytes against a byte budget
//! ([`TracePool::new`]): after each insert, the least-recently-used
//! snapshots go first, then least-recently-used **idle** entries
//! (sole-owner `Arc`s — never one a running job still replays from),
//! until the total fits. An entry larger than the whole
//! budget is served to its requester and evicted immediately after — the
//! budget bounds *resident* cache bytes, not job size. Counters
//! ([`TracePool::stats`]) make all of this observable through the
//! server's `/stats` endpoint.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use addict_core::algorithm1::{find_migration_points_interned, MigrationMap};
use addict_core::replay::ReplayConfig;
use addict_storage::Engine;
use addict_trace::{InternedWorkload, SlicePool};
use addict_workloads::{collect_traces_interned_chunked, Benchmark, WorkloadRunner};

/// Default recorder-drain granularity of a [`TraceKey`]: large enough to
/// amortize the per-drain engine round trip, small enough that a chunk of
/// flat traces stays a rounding error next to the interned set it feeds.
pub const DEFAULT_GEN_CHUNK: usize = 64;

/// Cache identity of one generated trace range. Two jobs agreeing on all
/// five fields replay byte-identical traces (generation is a pure
/// function of the key: a freshly populated engine, or a clone of one,
/// and a freshly seeded transaction stream, with `chunk` changing only
/// peak memory — `tests/trace_determinism.rs`), so sharing the interned
/// set is invisible to results.
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

    /// Predicted resident bytes of this key's entry — its interned
    /// workload plus, for a profile key, its memoized migration map —
    /// **before** generating it — the admission-control input: a server
    /// can refuse a job whose traces would not fit the pool budget
    /// without first paying seconds of generation to find out.
    ///
    /// The model is linear per benchmark, `pool + slope × n_xcts`, plus
    /// `map` for a profile key (seed [`PROFILE_SEED`](crate::PROFILE_SEED)).
    /// The shared slice pool is *not* constant in `n_xcts` for every
    /// benchmark: TPC-C, TPC-E and TATP keep meeting distinct pages (TPC-C's
    /// pool grows from 0.47 MB at 400 transactions to 5.8 MB at 10,000),
    /// so the slope absorbs the pool's growth as well as the per-trace
    /// bytes. The constants are fitted to resident bytes measured in a
    /// release build for seeds 1 and 2, at small and default scale, for
    /// `n_xcts` in {1, 12, 40, 50, 400} and, at default scale, {1,000,
    /// 2,000, 10,000}:
    /// - `slope` is the steepest secant between consecutive measured
    ///   workload sizes from 400 up, plus 5%, rounded up to a whole byte;
    /// - `pool` is the smallest intercept that put every measured workload
    ///   at least 5% under `pool + slope × n_xcts` when it was fitted,
    ///   rounded up to 1,000 bytes;
    /// - `map` is the largest measured migration map
    ///   ([`MigrationMap::resident_bytes`], seed 1) divided by 0.95,
    ///   rounded up to 1,000 bytes. Maps grow slowly with `n_xcts` (TPC-C:
    ///   4.8 KB at 400 transactions, 6.0 KB at 10,000).
    ///
    /// Re-measured at every one of those points with the maps counted,
    /// each sits at least 4.8% under its estimate. The tightest are
    /// evaluation keys, which hold no map (TPC-E, 1,000 default-scale
    /// transactions, seed 2: 4.86%); the tightest profile key is TPC-B at
    /// 10,000 (4.98%). The margin covers seeds that were not measured;
    /// seeds 1 and 2 differ by up to 4% at 400 TPC-C transactions.
    pub fn estimated_resident_bytes(&self) -> usize {
        // (pool, per-transaction slope, migration map) in bytes per
        // registry entry.
        let (pool, slope, map) = match self.bench {
            Benchmark::TpcB => (11_000, 302, 2_000),
            Benchmark::TpcC => (123_000, 2_252, 7_000),
            Benchmark::TpcE => (223_000, 742, 9_000),
            Benchmark::Tatp => (39_000, 190, 5_000),
            Benchmark::YcsbA => (15_000, 159, 2_000),
            Benchmark::YcsbB => (11_000, 157, 2_000),
        };
        let map = if self.seed == crate::PROFILE_SEED {
            map
        } else {
            0
        };
        pool + slope * self.n_xcts + map
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
    /// Benchmarks populated (`setup`/`setup_small`) to build a snapshot:
    /// one per `(benchmark, small)` while its snapshot stays resident.
    pub populations: u64,
    /// Migration maps computed by Algorithm 1 (one per profile entry;
    /// a warm job adds none).
    pub alg1_runs: u64,
    /// Trace entries dropped by LRU eviction (snapshots not counted).
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Resident entries still pinned by a borrower (a running job holds
    /// the entry's `Arc`); these are never evicted. A cancelled or
    /// finished job must return this to 0 — the chaos tests' leak probe.
    pub pinned_entries: usize,
    /// Resident bytes right now: every entry's
    /// [`InternedWorkload::resident_bytes`] plus its memoized map's
    /// [`MigrationMap::resident_bytes`], plus `snapshot_bytes`.
    pub resident_bytes: usize,
    /// The resident snapshots' share of `resident_bytes`: each populated
    /// engine's [`Engine::resident_bytes`].
    pub snapshot_bytes: usize,
    /// Byte budget (`usize::MAX` = unbounded).
    pub budget_bytes: usize,
}

enum Slot {
    /// Another request is generating this key; wait on the condvar.
    Pending,
    /// Resident entry.
    Ready {
        workload: Arc<InternedWorkload>,
        /// The workload's resident bytes.
        bytes: usize,
        /// Memoized Algorithm 1 map and its resident bytes, empty until
        /// the first [`TracePool::get_profile`] computes it.
        map: Arc<OnceLock<(Arc<MigrationMap>, usize)>>,
        /// Monotonic use tick for LRU ordering.
        used: u64,
    },
}

impl Slot {
    /// Resident bytes: the workload plus its map, once computed.
    fn bytes(&self) -> usize {
        match self {
            Slot::Pending => 0,
            Slot::Ready { bytes, map, .. } => bytes + map.get().map_or(0, |(_, b)| *b),
        }
    }
}

/// A benchmark populated at one scale, cloned by every miss on it.
struct Snapshot {
    engine: Engine,
    runner: Box<dyn WorkloadRunner>,
    /// The engine's resident bytes.
    bytes: usize,
}

/// The snapshot of one `(benchmark, small)`: empty until its first miss
/// populates it.
struct SnapshotSlot {
    cell: Arc<OnceLock<Snapshot>>,
    /// Monotonic use tick for LRU ordering.
    used: u64,
}

impl SnapshotSlot {
    fn bytes(&self) -> usize {
        self.cell.get().map_or(0, |s| s.bytes)
    }
}

struct Inner {
    slots: HashMap<TraceKey, Slot>,
    snapshots: HashMap<(Benchmark, bool), SnapshotSlot>,
    stats: CacheStats,
    tick: u64,
}

impl Inner {
    fn snapshot_bytes(&self) -> usize {
        self.snapshots.values().map(SnapshotSlot::bytes).sum()
    }

    fn resident_bytes(&self) -> usize {
        self.slots.values().map(Slot::bytes).sum::<usize>() + self.snapshot_bytes()
    }
}

/// The cross-request trace cache: `TraceKey` → shared
/// [`InternedWorkload`], plus one populated engine per benchmark and
/// scale, bounded by a byte budget with LRU eviction.
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
                snapshots: HashMap::new(),
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
        let snapshot = {
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
                        break Self::snapshot_cell(&mut inner, key);
                    }
                }
            }
        };

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
        let mut populated = false;
        let Snapshot { engine, runner, .. } = snapshot.get_or_init(|| {
            populated = true;
            let (engine, runner) = if key.small {
                key.bench.setup_small()
            } else {
                key.bench.setup()
            };
            let bytes = engine.resident_bytes();
            Snapshot {
                engine,
                runner,
                bytes,
            }
        });
        // The copies drop at the end of this block, before the entry is
        // published.
        let workload = Arc::new({
            let (mut engine, mut runner) = (engine.clone(), runner.clone_box());
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
        // Let go of the snapshot before eviction runs: an evicted snapshot
        // is freed once no miss holds it.
        drop(snapshot);
        let bytes = workload.resident_bytes();
        guard.armed = false;

        let mut inner = self.inner.lock().expect("trace pool lock");
        inner.stats.populations += u64::from(populated);
        inner.tick += 1;
        let used = inner.tick;
        inner.slots.insert(
            *key,
            Slot::Ready {
                workload: Arc::clone(&workload),
                bytes,
                map: Arc::default(),
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

    /// The snapshot cell of `key`'s benchmark and scale, installed empty
    /// if absent, and marked used.
    fn snapshot_cell(inner: &mut Inner, key: &TraceKey) -> Arc<OnceLock<Snapshot>> {
        inner.tick += 1;
        let used = inner.tick;
        let slot = inner
            .snapshots
            .entry((key.bench, key.small))
            .or_insert_with(|| SnapshotSlot {
                cell: Arc::default(),
                used,
            });
        slot.used = used;
        Arc::clone(&slot.cell)
    }

    /// Fetch profile traces like [`get`](TracePool::get), plus
    /// Algorithm 1's migration map over them for the paper-default L1-I.
    /// The first request for a key computes the map outside the table
    /// lock; a concurrent request waits for that result; every later
    /// request shares the same `Arc` until the entry is evicted. The
    /// returned bool is the trace fetch's hit flag.
    pub fn get_profile(&self, key: &TraceKey) -> (Arc<InternedWorkload>, Arc<MigrationMap>, bool) {
        let (workload, hit) = self.get(key, 1);
        let cell = {
            let inner = self.inner.lock().expect("trace pool lock");
            let Some(Slot::Ready { map, .. }) = inner.slots.get(key) else {
                unreachable!("an entry is never evicted while borrowed");
            };
            Arc::clone(map)
        };
        let mut computed = false;
        let (map, _) = cell.get_or_init(|| {
            computed = true;
            let l1i = ReplayConfig::paper_default().sim.l1i;
            let map = find_migration_points_interned(workload.as_set(), l1i);
            let bytes = map.resident_bytes();
            (Arc::new(map), bytes)
        });
        if computed {
            let mut inner = self.inner.lock().expect("trace pool lock");
            inner.stats.alg1_runs += 1;
            self.evict_over_budget(&mut inner);
            self.refresh_residency(&mut inner);
        }
        (workload, Arc::clone(map), hit)
    }

    /// Drop LRU snapshots, then LRU idle entries, until resident bytes fit
    /// the budget. Entries still shared outside the cache (a job
    /// mid-replay) are skipped — their memory is live either way, and
    /// evicting the table entry would only force a regeneration without
    /// freeing anything. A snapshot a miss is cloning from is not skipped:
    /// the miss keeps its own handle, and the memory goes when it is done.
    fn evict_over_budget(&self, inner: &mut Inner) {
        while inner.resident_bytes() > self.budget {
            let snapshot = inner
                .snapshots
                .iter()
                .filter(|(_, s)| s.bytes() > 0)
                .min_by_key(|(_, s)| s.used)
                .map(|(k, _)| *k);
            if let Some(snapshot) = snapshot {
                inner.snapshots.remove(&snapshot);
                continue;
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
        inner.stats.snapshot_bytes = inner.snapshot_bytes();
        inner.stats.resident_bytes = inner.resident_bytes();
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
    use crate::job::{fetch_traces, run_job, CancelToken, JobSpec};
    use addict_core::replay::ReplayConfig;
    use addict_core::sched::{run_scheduler, SchedulerKind};

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
        // Plus the one TPC-B snapshot both misses cloned.
        assert_eq!((s.populations, s.entries), (1, 2));
        assert!(s.snapshot_bytes > 0);
        assert_eq!(
            s.resident_bytes,
            a.resident_bytes() + _c.resident_bytes() + s.snapshot_bytes
        );
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
        // Generate every benchmark's profile and eval ranges at small and
        // default scale, from one transaction up, and compare. A profile
        // entry is charged its memoized migration map too; the snapshot
        // its generation cloned is not (admission never reserves one).
        // Entries share nothing, so the keys of one benchmark and scale
        // share a pool (one population) and each key is charged what its
        // fetch added.
        let mut groups = Vec::new();
        for bench in Benchmark::ALL {
            for small in [true, false] {
                let mut keys = Vec::new();
                for n_xcts in [1, 12, 40, 400] {
                    for seed in [crate::PROFILE_SEED, crate::EVAL_SEED] {
                        keys.push(TraceKey {
                            bench,
                            seed,
                            n_xcts,
                            chunk: DEFAULT_GEN_CHUNK,
                            small,
                        });
                    }
                }
                groups.push(keys);
            }
        }
        let actual = crate::run_grid(&groups, 2, |_, keys| {
            let pool = TracePool::unbounded();
            let charged = || {
                let s = pool.stats();
                s.resident_bytes - s.snapshot_bytes
            };
            keys.iter()
                .map(|k| {
                    let before = charged();
                    if k.seed == crate::PROFILE_SEED {
                        pool.get_profile(k);
                    } else {
                        pool.get(k, 1);
                    }
                    (*k, charged() - before)
                })
                .collect::<Vec<_>>()
        });
        let under: Vec<String> = actual
            .iter()
            .flatten()
            .filter(|(k, actual)| k.estimated_resident_bytes() < *actual)
            .map(|(k, actual)| {
                format!(
                    "{}: estimated {} < actual {actual}",
                    k.describe(),
                    k.estimated_resident_bytes()
                )
            })
            .collect();
        assert!(under.is_empty(), "under-predicted: {under:#?}");
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

    fn profile_key(bench: Benchmark, n: usize) -> TraceKey {
        TraceKey {
            bench,
            seed: crate::PROFILE_SEED,
            n_xcts: n,
            chunk: DEFAULT_GEN_CHUNK,
            small: true,
        }
    }

    #[test]
    fn warm_fetch_shares_the_memoized_map() {
        let mut spec = JobSpec::new(vec![Benchmark::TpcB, Benchmark::YcsbA], 12);
        spec.small = true;
        spec.threads = 2;
        let pool = TracePool::unbounded();
        let fetch = || fetch_traces(&spec, &pool, &|_| {}, &CancelToken::new()).unwrap();
        let cold = fetch();
        assert_eq!(pool.stats().alg1_runs, 2, "one map per profile entry");
        let warm = fetch();
        for (c, w) in cold.iter().zip(&warm) {
            assert!(Arc::ptr_eq(&c.map, &w.map), "{} re-profiled", c.bench.id());
        }
        let s = pool.stats();
        assert_eq!(s.alg1_runs, 2, "a warm fetch ran Algorithm 1");
        assert_eq!((s.hits, s.misses), (4, 4), "maps do not count as fetches");
    }

    #[test]
    fn racing_cold_profile_requests_run_algorithm1_once() {
        let pool = TracePool::unbounded();
        let k = profile_key(Benchmark::TpcB, 10);
        let start = std::sync::Barrier::new(2);
        let maps: Vec<Arc<MigrationMap>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        pool.get_profile(&k).1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&maps[0], &maps[1]));
        let s = pool.stats();
        assert_eq!(s.alg1_runs, 1, "duplicate Algorithm 1 run");
        assert_eq!(s.generations, 1);
    }

    #[test]
    fn memoized_maps_replay_bit_identical_to_fresh_ones() {
        let pool = TracePool::unbounded();
        let cfg = ReplayConfig::paper_default();
        let diverged: Vec<String> = crate::run_grid(&Benchmark::ALL, 2, |_, &bench| {
            let profile = profile_key(bench, 12);
            let eval = TraceKey {
                seed: crate::EVAL_SEED,
                ..profile
            };
            // The second request is served from the memo.
            pool.get_profile(&profile);
            let (traces, memo, _) = pool.get_profile(&profile);
            let fresh = find_migration_points_interned(traces.as_set(), cfg.sim.l1i);
            let (eval, _) = pool.get(&eval, 1);
            [
                SchedulerKind::Addict,
                SchedulerKind::Slicc,
                SchedulerKind::Strex,
            ]
            .into_iter()
            .filter(|&kind| {
                let run = |map: &MigrationMap| {
                    format!("{:?}", run_scheduler(kind, &eval.as_set(), Some(map), &cfg))
                };
                run(&memo) != run(&fresh)
            })
            .map(|kind| format!("{} / {}", bench.id(), kind.id()))
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(diverged.is_empty(), "memoized map changed: {diverged:?}");
        assert_eq!(pool.stats().alg1_runs, Benchmark::ALL.len() as u64);
    }

    #[test]
    fn evicting_a_profile_entry_drops_its_map_bytes() {
        let k = profile_key(Benchmark::TpcB, 8);
        let (workload_bytes, map_bytes) = {
            let (w, map, _) = TracePool::unbounded().get_profile(&k);
            (w.resident_bytes(), map.resident_bytes())
        };
        let pool = TracePool::new(workload_bytes + map_bytes);
        let (w, map, _) = pool.get_profile(&k);
        assert_eq!(pool.stats().resident_bytes, workload_bytes + map_bytes);
        drop((w, map));
        // A second entry overflows the budget: the idle profile entry and
        // its map leave together.
        let other = TraceKey {
            seed: crate::EVAL_SEED,
            ..k
        };
        let (o, _) = pool.get(&other, 1);
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert!(!pool.contains(&k));
        assert_eq!(s.resident_bytes, o.resident_bytes());
        drop(o);
        // The map left with the entry: fetching it again re-profiles.
        pool.get_profile(&k);
        assert_eq!(pool.stats().alg1_runs, 2);

        // A job releases every pin, maps included.
        let mut spec = JobSpec::new(vec![Benchmark::TpcB], 8);
        spec.small = true;
        let unbounded = TracePool::unbounded();
        run_job(&spec, &unbounded, &|_| {}).unwrap();
        let s = unbounded.stats();
        assert_eq!(s.pinned_entries, 0);
        assert_eq!(s.alg1_runs, 1);
    }

    /// A workload's slice refs and data, and the traces they flatten to
    /// (the pool's hash index iterates in no fixed order, so a plain
    /// `Debug` of the workload is not comparable).
    fn canon(w: &InternedWorkload) -> String {
        format!("{:?} {:?}", w.xcts, w.flatten())
    }

    /// `key`'s traces collected directly on a freshly populated engine.
    fn fresh(key: &TraceKey) -> String {
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
        canon(&InternedWorkload {
            name: runner.name().to_owned(),
            xct_type_names: runner.xct_type_names(),
            pool: Arc::new(slices),
            xcts,
        })
    }

    #[test]
    fn profile_and_eval_seeds_populate_once() {
        let pool = TracePool::unbounded();
        let profile = profile_key(Benchmark::TpcC, 10);
        let evals = [2, 3].map(|seed| TraceKey { seed, ..profile });
        pool.get_profile(&profile);
        for eval in &evals {
            let (w, hit) = pool.get(eval, 1);
            assert!(!hit);
            assert_eq!(canon(&w), fresh(eval), "{}", eval.describe());
        }
        let s = pool.stats();
        assert_eq!((s.misses, s.generations, s.populations), (3, 3, 1));
        assert!(s.snapshot_bytes > 0);
        // The other scale is a snapshot of its own.
        pool.get(
            &TraceKey {
                small: false,
                ..evals[0]
            },
            1,
        );
        assert_eq!(pool.stats().populations, 2);
    }

    #[test]
    fn racing_same_benchmark_keys_populate_once() {
        let pool = TracePool::unbounded();
        let start = std::sync::Barrier::new(4);
        let traces: Vec<(TraceKey, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4)
                .map(|seed| {
                    let (pool, start) = (&pool, &start);
                    s.spawn(move || {
                        let k = key(8, seed);
                        start.wait();
                        (k, canon(&pool.get(&k, 1).0))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = pool.stats();
        assert_eq!((s.generations, s.populations), (4, 1));
        for (k, w) in &traces {
            assert_eq!(*w, fresh(k), "{}", k.describe());
        }
    }

    #[test]
    fn budget_below_one_snapshot_populates_every_miss() {
        // Room for every trace entry but not for the populated engine:
        // each miss populates, as before snapshots, with the same traces.
        let probe = TracePool::unbounded();
        probe.get(&key(8, 1), 1);
        let budget = probe.stats().snapshot_bytes / 2;
        let pool = TracePool::new(budget);
        for seed in [1, 2, 3] {
            let k = key(8, seed);
            let (w, _) = pool.get(&k, 1);
            assert_eq!(canon(&w), fresh(&k), "{}", k.describe());
        }
        let s = pool.stats();
        assert_eq!((s.generations, s.populations, s.entries), (3, 3, 3));
        assert_eq!(s.snapshot_bytes, 0);
        assert!(s.resident_bytes <= budget, "{s:?}");
    }

    #[test]
    fn injected_fault_does_not_poison_the_snapshot() {
        let pool = TracePool::unbounded();
        let fault = |k: &TraceKey| {
            pool.fail_next_generations(1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.get(k, 1)))
                .expect_err("armed fault must panic");
        };
        // A fault before the first population leaves the cell empty...
        fault(&key(6, 1));
        assert_eq!(pool.stats().populations, 0);
        // ...and the next miss fills it.
        let (w, _) = pool.get(&key(6, 1), 1);
        assert_eq!(canon(&w), fresh(&key(6, 1)));
        // A fault on a populated snapshot leaves it intact for the retry.
        fault(&key(6, 2));
        let (w, _) = pool.get(&key(6, 2), 1);
        assert_eq!(canon(&w), fresh(&key(6, 2)));
        let s = pool.stats();
        assert_eq!((s.misses, s.generations, s.populations), (4, 2, 1));
    }

    #[test]
    fn snapshots_are_evicted_before_trace_entries() {
        let probe = TracePool::unbounded();
        probe.get(&key(5, 1), 1);
        let s = probe.stats();
        let one = s.resident_bytes - s.snapshot_bytes;
        drop(probe);

        // Room for the snapshot and one entry: the second entry evicts
        // the snapshot, not the idle first entry. (A snapshot's size
        // varies by a few hundred bytes from one population to the next:
        // hash tables that saw removals rehash at hash-dependent points.)
        let pool = TracePool::new(s.snapshot_bytes + one + one / 2);
        pool.get(&key(5, 1), 1);
        assert!(pool.stats().snapshot_bytes > 0);
        pool.get(&key(5, 2), 1);
        let after = pool.stats();
        assert_eq!((after.entries, after.evictions), (2, 0));
        assert_eq!(after.snapshot_bytes, 0);
        // The next miss repopulates.
        pool.get(&key(5, 3), 1);
        assert_eq!(pool.stats().populations, 2);
    }
}
