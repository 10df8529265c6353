//! The simulated multicore machine: hierarchy + timing + statistics.
//!
//! A [`Machine`] is driven by a scheduler (in `addict-core`): the scheduler
//! decides *which* context runs *where*, calls [`Machine::fetch_instr`] /
//! [`Machine::access_data`] for the trace events of that context, and charges
//! the returned latencies to its own per-core clocks. The machine itself is
//! policy-free.

use crate::block::{BlockAddr, DataAccess};
use crate::config::SimConfig;
use crate::hierarchy::{Hierarchy, MemAccessResult, ServiceLevel};
use crate::stats::MachineStats;
use crate::timing::TimingModel;

/// Identifier of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// Result of [`Machine::fetch_instr_run`]: how far a segment-granular
/// instruction walk progressed and where the clock landed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Blocks executed (hits plus, when `missed_last`, one serviced miss).
    pub blocks: u16,
    /// The per-core clock after charging every executed block.
    pub now: f64,
    /// The final executed block missed the L1-I (drivers consult their
    /// policy there; miss-free walks never leave the fast loop).
    pub missed_last: bool,
}

/// A multicore machine executing block-granularity memory traces.
#[derive(Debug)]
pub struct Machine {
    hierarchy: Hierarchy,
    timing: TimingModel,
    stats: MachineStats,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        Machine {
            hierarchy: Hierarchy::new(cfg),
            timing: TimingModel::new(cfg.clone()),
            stats: MachineStats::new(cfg.n_cores),
        }
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &SimConfig {
        self.timing.config()
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.hierarchy.n_cores()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The timing model (exposed for drivers that need raw latencies).
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    fn record_common(&mut self, core: usize, res: &MemAccessResult) {
        let c = &mut self.stats.cores[core];
        if res.l2p_accessed {
            c.l2p_accesses += 1;
            if !res.l2p_hit {
                c.l2p_misses += 1;
            }
        }
        if res.llc_accessed {
            c.llc_accesses += 1;
            c.noc_hops += u64::from(res.hops) * 2;
            if !res.llc_hit {
                c.llc_misses += 1;
            }
        }
        if res.level == ServiceLevel::Memory {
            c.mem_accesses += 1;
        }
        if res.writeback {
            c.writebacks += 1;
        }
        if res.c2c {
            if let Some(s) = res.supplier {
                self.stats.cores[s].c2c_supplied += 1;
            }
        }
    }

    /// Execute `n_instr` instructions on `core`, all fetched from the
    /// instruction block `block`. Returns the cycles charged (execution +
    /// any fetch stall).
    pub fn fetch_instr(&mut self, core: CoreId, block: BlockAddr, n_instr: u64) -> f64 {
        let res = self.hierarchy.fetch_instr(core.0, block);
        {
            let c = &mut self.stats.cores[core.0];
            c.instructions += n_instr;
            c.l1i_accesses += 1;
            if res.level != ServiceLevel::L1 {
                c.l1i_misses += 1;
            }
        }
        self.record_common(core.0, &res);
        let base = self.timing.execute(n_instr);
        let stall = self.timing.instr_miss(res.level, res.hops);
        let c = &mut self.stats.cores[core.0];
        c.base_cycles += base;
        c.instr_stall_cycles += stall;
        base + stall
    }

    /// Execute up to `n_blocks` *consecutive* instruction blocks starting at
    /// `start` on `core`, charging `ipb` instructions per block — the
    /// segment-granular replay hot path.
    ///
    /// The L1-I walk ([`Hierarchy::fetch_instr_run`]) makes one pass over
    /// each block's set, hit or miss, and stops after the first miss, which
    /// it has already filled and serviced below the L1-I. With
    /// `stop_on_miss`, that miss ends the run so the scheduler can consult
    /// its policy; without it (policies indifferent to misses) the walk
    /// resumes after the miss and runs to the end without ever leaving the
    /// machine. All statistics and the returned clock are bit-identical
    /// to issuing the same blocks through per-block [`Machine::fetch_instr`]
    /// calls and accumulating `now += cycles` per block.
    pub fn fetch_instr_run(
        &mut self,
        core: CoreId,
        start: BlockAddr,
        n_blocks: u16,
        ipb: u16,
        mut now: f64,
        stop_on_miss: bool,
    ) -> RunOutcome {
        debug_assert!(n_blocks > 0, "empty instruction run");
        let base = self.timing.execute(u64::from(ipb));
        let mut done: u16 = 0;
        if !self.hierarchy.has_next_line_prefetch() {
            // The f64 sums live in locals for the whole walk and take the
            // same additions in the same per-block order as the per-block
            // path (f64 addition is order-sensitive), so the totals written
            // back are bit-equal to it.
            let c = &self.stats.cores[core.0];
            let (mut base_cycles, mut stall_cycles) = (c.base_cycles, c.instr_stall_cycles);
            let mut missed_last = false;
            while done < n_blocks && !missed_last {
                let block = BlockAddr(start.0 + u64::from(done));
                let (n, miss) = self
                    .hierarchy
                    .fetch_instr_run(core.0, block, n_blocks - done);
                done += n;
                let c = &mut self.stats.cores[core.0];
                c.instructions += u64::from(ipb) * u64::from(n);
                c.l1i_accesses += u64::from(n);
                for _ in 0..n - u16::from(miss.is_some()) {
                    base_cycles += base;
                    now += base;
                }
                if let Some(res) = miss {
                    c.l1i_misses += 1;
                    self.record_common(core.0, &res);
                    let stall = self.timing.instr_miss(res.level, res.hops);
                    base_cycles += base;
                    stall_cycles += stall;
                    now += base + stall;
                    missed_last = stop_on_miss;
                }
            }
            let c = &mut self.stats.cores[core.0];
            c.base_cycles = base_cycles;
            c.instr_stall_cycles = stall_cycles;
            return RunOutcome {
                blocks: done,
                now,
                missed_last,
            };
        }
        // Next-line prefetcher enabled: prefetch issue is per-fetch state,
        // so walk block-by-block through the full path (still skipping all
        // per-block driver work, which is where most replay time goes).
        while done < n_blocks {
            let block = BlockAddr(start.0 + u64::from(done));
            let misses_before = self.stats.cores[core.0].l1i_misses;
            now += self.fetch_instr(core, block, u64::from(ipb));
            done += 1;
            if stop_on_miss && self.stats.cores[core.0].l1i_misses > misses_before {
                return RunOutcome {
                    blocks: done,
                    now,
                    missed_last: true,
                };
            }
        }
        RunOutcome {
            blocks: done,
            now,
            missed_last: false,
        }
    }

    /// Access a data block on `core`. Returns the cycles charged (after OoO
    /// hiding).
    pub fn access_data(&mut self, core: CoreId, block: BlockAddr, write: bool) -> f64 {
        let res = self.hierarchy.access_data(core.0, block, write);
        {
            let c = &mut self.stats.cores[core.0];
            c.l1d_accesses += 1;
            if res.level != ServiceLevel::L1 {
                c.l1d_misses += 1;
            }
            c.invalidations_received += u64::from(res.invalidated_cores);
        }
        self.record_common(core.0, &res);
        let charged = self.timing.data_access(res.level, res.hops);
        self.stats.cores[core.0].data_stall_cycles += charged;
        charged
    }

    /// Execute a run of consecutive data accesses on `core` — the
    /// run-granular data hot path. Leading *private* accesses (read hits,
    /// and write hits on already-dirty lines) are consumed in one tight
    /// loop inside the cache ([`Hierarchy::l1d_run_hits`]) without touching
    /// the coherence directory; the first shared, upgraded, or missing
    /// block falls back to the ordinary [`Machine::access_data`] path — so
    /// the directory never sees a batched conflicting access — and the walk
    /// resumes after it. The whole run always completes.
    ///
    /// Returns the per-core clock after charging every access. Statistics,
    /// directory state, and the clock are bit-identical to issuing the same
    /// accesses through per-block [`Machine::access_data`] calls and
    /// accumulating `now += cycles`: consumed accesses are L1 hits, whose
    /// charge is exactly `0.0` (see [`TimingModel::data_access`]
    /// (crate::timing::TimingModel::data_access)), and adding `0.0` to the
    /// non-negative finite accumulators involved (`now`,
    /// `data_stall_cycles`) is a bitwise no-op. Should a future timing
    /// model ever charge L1-D hits, the guard below routes every access
    /// through the per-block path, so the run API stays correct (if no
    /// longer fast) instead of silently dropping charges.
    pub fn access_data_run(&mut self, core: CoreId, run: &[DataAccess], mut now: f64) -> f64 {
        if self.timing.data_access(ServiceLevel::L1, 0) != 0.0 {
            for a in run {
                now += self.access_data(core, a.block, a.write);
            }
            return now;
        }
        let mut i = 0usize;
        while i < run.len() {
            let hits = self.hierarchy.l1d_run_hits(core.0, &run[i..]);
            if hits > 0 {
                self.stats.cores[core.0].l1d_accesses += hits as u64;
                i += hits;
                if i == run.len() {
                    break;
                }
            }
            // First non-private access: full coherent path, exactly what
            // per-block execution would do.
            now += self.access_data(core, run[i].block, run[i].write);
            i += 1;
        }
        now
    }

    /// Data accesses consumed by the run path's private fast lane
    /// (diagnostic; not part of [`MachineStats`], so run-path and
    /// block-path statistics stay comparable).
    pub fn data_run_fast_hits(&self) -> u64 {
        self.hierarchy.data_run_fast_hits()
    }

    /// Read-only view of the memory hierarchy (diagnostics and the
    /// model-based coherence tests).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Migrate a thread from `from` to `to`; returns the overhead cycles the
    /// destination core is charged.
    pub fn migrate(&mut self, from: CoreId, to: CoreId) -> f64 {
        debug_assert_ne!(from, to, "migration to the same core is a context switch");
        let cost = self.timing.migration();
        let c = &mut self.stats.cores[to.0];
        c.migrations_in += 1;
        c.overhead_cycles += cost;
        cost
    }

    /// A same-core context switch (STREX-style time multiplexing).
    pub fn context_switch(&mut self, core: CoreId) -> f64 {
        let cost = self.timing.context_switch();
        let c = &mut self.stats.cores[core.0];
        c.context_switches += 1;
        c.overhead_cycles += cost;
        cost
    }

    /// Charge `core` a policy-decided stall of `cycles` (speculation
    /// begin/commit/abort costs, backoff, discarded work). Accounted as
    /// overhead like migrations and context switches; returns the cycles
    /// so drivers can advance the clock with the same value they charged.
    pub fn stall(&mut self, core: CoreId, cycles: f64) -> f64 {
        self.stats.cores[core.0].overhead_cycles += cycles;
        cycles
    }

    /// Probe whether `core`'s L1-I holds `block` (SLICC heuristic).
    pub fn l1i_contains(&self, core: CoreId, block: BlockAddr) -> bool {
        self.hierarchy.l1i_contains(core.0, block)
    }

    /// Lines resident in `core`'s L1-I.
    pub fn l1i_occupancy(&self, core: CoreId) -> usize {
        self.hierarchy.l1i_occupancy(core.0)
    }

    /// Drop all of `core`'s L1-I contents.
    pub fn flush_l1i(&mut self, core: CoreId) {
        self.hierarchy.flush_l1i(core.0);
    }

    /// Next-line L1-I prefetches issued (0 unless enabled in the config).
    pub fn prefetches_issued(&self) -> u64 {
        self.hierarchy.prefetches_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(&SimConfig::paper_default().with_cores(4))
    }

    #[test]
    fn fetch_updates_instruction_counters() {
        let mut m = machine();
        let b = BlockAddr(100);
        let cycles = m.fetch_instr(CoreId(0), b, 16);
        // First fetch misses all the way to memory.
        assert!(cycles > m.timing().execute(16));
        assert_eq!(m.stats().instructions(), 16);
        assert_eq!(m.stats().l1i_accesses(), 1);
        assert_eq!(m.stats().l1i_misses(), 1);
        assert_eq!(m.stats().mem_accesses(), 1);

        // Re-fetch: pure execution cost.
        let cycles = m.fetch_instr(CoreId(0), b, 16);
        assert!((cycles - m.timing().execute(16)).abs() < 1e-9);
        assert_eq!(m.stats().l1i_misses(), 1);
    }

    #[test]
    fn data_access_counters_and_hiding() {
        let mut m = machine();
        let b = BlockAddr(0xdead);
        let miss_cycles = m.access_data(CoreId(1), b, false);
        assert_eq!(m.stats().l1d_misses(), 1);
        // Off-chip, partially hidden: cheaper than the raw instruction miss.
        let mut m2 = machine();
        let instr_miss = m2.fetch_instr(CoreId(1), b, 1) - m2.timing().execute(1);
        assert!(miss_cycles < instr_miss);
        let hit_cycles = m.access_data(CoreId(1), b, false);
        assert_eq!(hit_cycles, 0.0);
        assert_eq!(m.stats().l1d_accesses(), 2);
    }

    #[test]
    fn migration_is_counted_and_charged() {
        let mut m = machine();
        let cost = m.migrate(CoreId(0), CoreId(2));
        assert!((cost - 90.0).abs() < 1e-9);
        assert_eq!(m.stats().migrations_in(), 1);
        assert_eq!(m.stats().cores[2].migrations_in, 1);
        assert!((m.stats().overhead_cycles() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn context_switch_counted_separately() {
        let mut m = machine();
        m.context_switch(CoreId(3));
        assert_eq!(m.stats().context_switches(), 1);
        assert_eq!(m.stats().migrations_in(), 0);
    }

    #[test]
    fn writes_to_shared_data_count_invalidations() {
        let mut m = machine();
        let b = BlockAddr(7);
        m.access_data(CoreId(0), b, false);
        m.access_data(CoreId(1), b, false);
        m.access_data(CoreId(2), b, true);
        assert_eq!(m.stats().invalidations_received(), 2);
    }

    /// Drive `n_blocks` from `start` through the segment path on one
    /// machine and the per-block path on another; both must agree bit-wise.
    fn run_both(
        cfg: &SimConfig,
        start: u64,
        n_blocks: u16,
        prefetch: bool,
        stop_on_miss: bool,
    ) -> (Machine, Machine) {
        let mut cfg = cfg.clone().with_cores(2);
        cfg.l1i_next_line_prefetch = prefetch;
        let mut seg = Machine::new(&cfg);
        let mut flat = Machine::new(&cfg);
        // Warm a prefix so the walk sees hits and misses.
        for m in [&mut seg, &mut flat] {
            for i in 0..6u64 {
                m.fetch_instr(CoreId(0), BlockAddr(start + i), 10);
            }
        }
        let mut now_seg = 1.5f64;
        let mut done = 0u16;
        while done < n_blocks {
            let out = seg.fetch_instr_run(
                CoreId(0),
                BlockAddr(start + u64::from(done)),
                n_blocks - done,
                10,
                now_seg,
                stop_on_miss,
            );
            now_seg = out.now;
            done += out.blocks;
        }
        let mut now_flat = 1.5f64;
        for i in 0..u64::from(n_blocks) {
            now_flat += flat.fetch_instr(CoreId(0), BlockAddr(start + i), 10);
        }
        assert_eq!(now_seg.to_bits(), now_flat.to_bits(), "clocks diverged");
        (seg, flat)
    }

    #[test]
    fn fetch_instr_run_matches_per_block_path() {
        // The deep hierarchy sends every walk miss through the private L2.
        for cfg in [SimConfig::paper_default(), SimConfig::paper_deep()] {
            for prefetch in [false, true] {
                for stop_on_miss in [false, true] {
                    let (seg, flat) = run_both(&cfg, 0x4000, 40, prefetch, stop_on_miss);
                    assert_eq!(
                        format!("{:?}", seg.stats()),
                        format!("{:?}", flat.stats()),
                        "stats diverged ({:?}, prefetch={prefetch}, \
                         stop_on_miss={stop_on_miss})",
                        cfg.hierarchy
                    );
                    assert_eq!(seg.prefetches_issued(), flat.prefetches_issued());
                    // The L1-I occupancy the walks leave behind must agree too.
                    assert_eq!(seg.l1i_occupancy(CoreId(0)), flat.l1i_occupancy(CoreId(0)));
                }
            }
        }
    }

    #[test]
    fn fetch_instr_run_stops_at_each_miss() {
        let mut m = machine();
        // 6 warm blocks then cold ones: first call consumes the warm run
        // plus one serviced miss.
        for i in 0..6u64 {
            m.fetch_instr(CoreId(0), BlockAddr(i), 10);
        }
        let out = m.fetch_instr_run(CoreId(0), BlockAddr(0), 16, 10, 0.0, true);
        assert!(out.missed_last);
        assert_eq!(out.blocks, 7);
        // Entirely warm run: no miss, full length.
        let out = m.fetch_instr_run(CoreId(0), BlockAddr(0), 7, 10, 0.0, true);
        assert!(!out.missed_last);
        assert_eq!(out.blocks, 7);
    }

    #[test]
    fn fetch_instr_run_services_whole_run_when_miss_blind() {
        let mut m = machine();
        for i in 0..6u64 {
            m.fetch_instr(CoreId(0), BlockAddr(i), 10);
        }
        // 6 hits + 10 cold misses, all in one call.
        let out = m.fetch_instr_run(CoreId(0), BlockAddr(0), 16, 10, 0.0, false);
        assert!(!out.missed_last);
        assert_eq!(out.blocks, 16);
        assert_eq!(m.stats().l1i_misses(), 6 + 10);
    }

    fn da(block: u64, write: bool) -> DataAccess {
        DataAccess {
            block: BlockAddr(block),
            write,
        }
    }

    /// Drive the same interleaved data accesses through the run path on one
    /// machine and the per-block path on another; both must agree bit-wise.
    #[test]
    fn access_data_run_matches_per_block_path() {
        let mut run_m = machine();
        let mut blk_m = machine();
        // Warm shared and private state: block 50 shared by cores 0/1,
        // block 51 dirty on core 0, blocks 60.. private to core 1.
        for m in [&mut run_m, &mut blk_m] {
            m.access_data(CoreId(0), BlockAddr(50), false);
            m.access_data(CoreId(1), BlockAddr(50), false);
            m.access_data(CoreId(0), BlockAddr(51), true);
            for b in 60..66u64 {
                m.access_data(CoreId(1), BlockAddr(b), false);
            }
        }
        // Mixed run on core 0: private hits, a dirty-write hit, a shared
        // write (invalidates core 1), cold misses, then hits again.
        let run0 = [
            da(50, false),
            da(51, true),
            da(50, true), // shared write: coherent path, invalidates core 1
            da(70, false),
            da(51, false),
            da(70, true),
        ];
        // Run on core 1: its private blocks plus the block core 0 stole.
        let run1 = [da(60, false), da(61, true), da(50, false), da(62, false)];
        let mut now_run = 3.25f64;
        now_run = run_m.access_data_run(CoreId(0), &run0, now_run);
        now_run = run_m.access_data_run(CoreId(1), &run1, now_run);
        let mut now_blk = 3.25f64;
        for a in &run0 {
            now_blk += blk_m.access_data(CoreId(0), a.block, a.write);
        }
        for a in &run1 {
            now_blk += blk_m.access_data(CoreId(1), a.block, a.write);
        }
        assert_eq!(now_run.to_bits(), now_blk.to_bits(), "clocks diverged");
        assert_eq!(
            format!("{:?}", run_m.stats()),
            format!("{:?}", blk_m.stats()),
            "stats diverged"
        );
        assert_eq!(
            run_m.hierarchy().tracked_data_blocks(),
            blk_m.hierarchy().tracked_data_blocks()
        );
        // The fast lane really engaged.
        assert!(run_m.data_run_fast_hits() > 0);
        assert_eq!(blk_m.data_run_fast_hits(), 0);
    }

    /// Every access of a run performs exactly one L1-D lookup — the stats
    /// double-source guard: `l1d_accesses` equals the number of data
    /// events regardless of how many fast-lane/coherent-path round trips
    /// the run took.
    #[test]
    fn access_data_run_counts_every_access_once() {
        let mut m = machine();
        let run: Vec<DataAccess> = (0..17u64).map(|i| da(0x100 + i % 7, i % 3 == 0)).collect();
        m.access_data_run(CoreId(2), &run, 0.0);
        assert_eq!(m.stats().l1d_accesses(), run.len() as u64);
        assert_eq!(m.stats().data_accesses(), run.len() as u64);
    }

    #[test]
    fn mpki_reflects_activity() {
        let mut m = machine();
        for i in 0..100u64 {
            m.fetch_instr(CoreId(0), BlockAddr(i), 10);
        }
        // 100 distinct blocks, all cold misses: 100 misses / 1000 instr.
        assert!((m.stats().l1i_mpki() - 100.0).abs() < 1e-9);
    }

    /// Core 64 would alias core 0 in the directory's one-word sharer
    /// masks, so a 65-core machine must not be built at all.
    #[test]
    #[should_panic(expected = "needs 1 to 64 cores")]
    fn more_than_64_cores_is_rejected() {
        Machine::new(&SimConfig::paper_default().with_cores(65));
    }

    #[test]
    #[should_panic(expected = "needs 1 to 64 cores")]
    fn zero_cores_is_rejected() {
        let mut cfg = SimConfig::paper_default();
        cfg.n_cores = 0;
        Machine::new(&cfg);
    }
}
