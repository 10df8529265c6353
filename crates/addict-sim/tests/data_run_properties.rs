//! Differential property test for the run-granular data path:
//! `Machine::access_data_run` must be *bit-identical* to issuing the same
//! accesses through per-block `Machine::access_data` calls — per-core
//! clocks, every per-level counter (L1-D/L2p/LLC/memory), invalidation and
//! cache-to-cache counts, writebacks, and the coherence-directory state —
//! on arbitrary interleaved per-core access sequences.
//!
//! The sequences deliberately concentrate blocks on a few cache sets
//! (evictions), reuse blocks across cores (sharing, invalidations,
//! upgrades, C2C transfers), and mix loads with stores, so every exit
//! condition of the private fast lane is crossed mid-run.

use addict_sim::{BlockAddr, CoreId, DataAccess, Machine, SimConfig};
use proptest::prelude::*;

const N_CORES: usize = 4;

/// Blocks collide heavily: few sets (the L1-D has 64 sets, so tags stride
/// by 64) and more tags per set than the 8 ways, forcing evictions.
fn arb_access() -> impl Strategy<Value = (usize, DataAccess)> {
    (0usize..N_CORES, 0u64..3, 0u64..12, any::<bool>()).prop_map(|(core, set, tag, write)| {
        (
            core,
            DataAccess {
                block: BlockAddr(set + tag * 64),
                write,
            },
        )
    })
}

/// Split an interleaved sequence into maximal consecutive same-core runs —
/// exactly the coalescing the replay engine performs (a thread's data
/// events execute back-to-back on its current core).
fn same_core_runs(ops: &[(usize, DataAccess)]) -> Vec<(usize, Vec<DataAccess>)> {
    let mut runs: Vec<(usize, Vec<DataAccess>)> = Vec::new();
    for &(core, access) in ops {
        match runs.last_mut() {
            Some((c, run)) if *c == core => run.push(access),
            _ => runs.push((core, vec![access])),
        }
    }
    runs
}

/// Snapshot of the directory state over the block universe.
fn directory_state(m: &Machine) -> Vec<(u64, Vec<bool>, Option<usize>)> {
    let dir = m.hierarchy().directory();
    (0u64..(3 + 11 * 64 + 1))
        .map(|b| {
            let block = BlockAddr(b);
            (
                b,
                (0..N_CORES).map(|c| dir.is_sharer(c, block)).collect(),
                dir.owner(block),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline property: run-path replay of arbitrary interleavings is
    /// bit-identical to block-at-a-time replay — clocks, counters,
    /// invalidations, directory.
    #[test]
    fn data_run_path_matches_per_block_path(
        ops in prop::collection::vec(arb_access(), 1..300),
        deep in any::<bool>(),
    ) {
        let cfg = if deep {
            SimConfig::paper_deep().with_cores(N_CORES)
        } else {
            SimConfig::paper_default().with_cores(N_CORES)
        };
        let mut run_m = Machine::new(&cfg);
        let mut blk_m = Machine::new(&cfg);
        // Independent per-core clocks, like the replay engine's.
        let mut run_now = [0.5f64; N_CORES];
        let mut blk_now = [0.5f64; N_CORES];
        for (core, run) in same_core_runs(&ops) {
            run_now[core] = run_m.access_data_run(CoreId(core), &run, run_now[core]);
            for a in &run {
                blk_now[core] += blk_m.access_data(CoreId(core), a.block, a.write);
            }
        }
        for c in 0..N_CORES {
            prop_assert_eq!(
                run_now[c].to_bits(),
                blk_now[c].to_bits(),
                "core {} clock diverged ({} vs {})",
                c,
                run_now[c],
                blk_now[c]
            );
        }
        // Every counter — l1d accesses/misses, l2p, llc, memory,
        // invalidations_received, c2c_supplied, writebacks, noc hops,
        // data_stall_cycles — compared per core via Debug (which renders
        // f64 shortest-roundtrip, so byte equality is bit equality).
        prop_assert_eq!(
            format!("{:?}", run_m.stats()),
            format!("{:?}", blk_m.stats())
        );
        prop_assert_eq!(
            run_m.stats().invalidations_received(),
            blk_m.stats().invalidations_received()
        );
        // The coherence directory ends in the identical state.
        prop_assert_eq!(directory_state(&run_m), directory_state(&blk_m));
        // Both machines did the same number of data accesses — the stats
        // single-source guard at machine level.
        prop_assert_eq!(run_m.stats().data_accesses(), ops.len() as u64);
        prop_assert_eq!(blk_m.stats().data_accesses(), ops.len() as u64);
    }

    /// Splitting one logical run into arbitrary sub-runs cannot change the
    /// outcome either (the engine re-gathers a run's remainder after any
    /// partial consumption).
    #[test]
    fn run_splitting_is_invisible(
        accesses in prop::collection::vec(
            (0u64..2, 0u64..10, any::<bool>())
                .prop_map(|(s, t, w)| DataAccess { block: BlockAddr(s + t * 64), write: w }),
            1..80,
        ),
        split in 1usize..8,
    ) {
        let cfg = SimConfig::paper_default().with_cores(2);
        let mut whole_m = Machine::new(&cfg);
        let mut split_m = Machine::new(&cfg);
        let whole_now = whole_m.access_data_run(CoreId(1), &accesses, 0.25);
        let mut split_now = 0.25f64;
        for chunk in accesses.chunks(split) {
            split_now = split_m.access_data_run(CoreId(1), chunk, split_now);
        }
        prop_assert_eq!(whole_now.to_bits(), split_now.to_bits());
        prop_assert_eq!(
            format!("{:?}", whole_m.stats()),
            format!("{:?}", split_m.stats())
        );
    }
}

/// Deterministic smoke: the fast lane really consumes private hits (the
/// proptests would pass even if everything took the coherent path).
#[test]
fn fast_lane_engages_on_private_reuse() {
    let cfg = SimConfig::paper_default().with_cores(2);
    let mut m = Machine::new(&cfg);
    let run: Vec<DataAccess> = (0..8u64)
        .map(|i| DataAccess {
            block: BlockAddr(0x500 + i),
            write: i % 2 == 0,
        })
        .collect();
    // Cold pass: nothing is private yet.
    m.access_data_run(CoreId(0), &run, 0.0);
    let after_cold = m.data_run_fast_hits();
    // Warm pass: every access is a hit, writes land on dirty lines.
    m.access_data_run(CoreId(0), &run, 0.0);
    assert_eq!(
        m.data_run_fast_hits() - after_cold,
        run.len() as u64,
        "warm private run must be consumed entirely by the fast lane"
    );
}
