//! Model-based property tests for the coherence directory: random
//! interleavings of insert (read/write), remove (evict), and lookup are
//! checked op-by-op against a `HashMap` reference model, and before every
//! read or write the conflict oracle (`peek_read`/`peek_write`) must
//! predict the action the mutating call then returns.
//!
//! The second proptest lifts the model to the hierarchy level and drives
//! the **run-granular data path**: interleaved per-core access sequences
//! execute in batches through `Hierarchy::access_data_run`, and after
//! every batch the directory's sharer masks, modified owners and tracked
//! count must match (a) a `HashMap` + shadow-L1-D
//! model that re-implements the MESI protocol of `access_data`, and (b) a
//! hierarchy replaying the same sequence block-at-a-time — proving the
//! batched fast lane never lets the directory skip (or double-apply) a
//! coherence transaction.

use std::collections::HashMap;

use addict_sim::coherence::Directory;
use addict_sim::{BlockAddr, CoreId, DataAccess, Machine, SetAssocCache, SimConfig};
use proptest::prelude::*;

/// Reference model: block -> (sharer bitmask, modified owner).
#[derive(Default)]
struct Model {
    blocks: HashMap<u64, (u64, Option<usize>)>,
}

impl Model {
    /// Mirrors `Directory::on_read`, returning the expected supplier.
    fn on_read(&mut self, core: usize, block: u64) -> Option<usize> {
        let entry = self.blocks.entry(block).or_insert((0, None));
        let supplier = match entry.1 {
            Some(o) if o != core => {
                entry.1 = None;
                Some(o)
            }
            _ => None,
        };
        entry.0 |= 1 << core;
        supplier
    }

    /// Mirrors `Directory::on_write`, returning (supplier, invalidate mask).
    fn on_write(&mut self, core: usize, block: u64) -> (Option<usize>, u64) {
        let entry = self.blocks.entry(block).or_insert((0, None));
        let supplier = entry.1.filter(|&o| o != core);
        let invalidate = entry.0 & !(1 << core);
        *entry = (1 << core, Some(core));
        (supplier, invalidate)
    }

    /// Mirrors `Directory::on_evict`.
    fn on_evict(&mut self, core: usize, block: u64) {
        if let Some(entry) = self.blocks.get_mut(&block) {
            entry.0 &= !(1 << core);
            if entry.1 == Some(core) {
                entry.1 = None;
            }
            if entry.0 == 0 {
                self.blocks.remove(&block);
            }
        }
    }
}

/// Hierarchy-level reference model: the `HashMap` directory model plus one
/// shadow L1-D per core, mirroring exactly the coherence-relevant state
/// machine of `Hierarchy::access_data` — directory transaction first
/// (invalidating remote shadow copies, cleaning a downgraded supplier),
/// then the local lookup, then `on_evict` for the victim.
struct HierModel {
    dir: Model,
    l1d: Vec<SetAssocCache>,
}

impl HierModel {
    fn new(cfg: &SimConfig) -> Self {
        HierModel {
            dir: Model::default(),
            l1d: (0..cfg.n_cores)
                .map(|_| SetAssocCache::new(cfg.l1d))
                .collect(),
        }
    }

    fn access(&mut self, core: usize, a: DataAccess) {
        let block = a.block;
        let (supplier, invalidate) = if a.write {
            self.dir.on_write(core, block.0)
        } else {
            let s = self.dir.on_read(core, block.0);
            (s, 0u64)
        };
        for victim in 0..self.l1d.len() {
            if invalidate & (1 << victim) != 0 {
                self.l1d[victim].invalidate(block);
            }
        }
        if let Some(s) = supplier {
            if !a.write {
                self.l1d[s].clean(block);
            }
        }
        let out = if a.write {
            self.l1d[core].access_write(block)
        } else {
            self.l1d[core].access(block)
        };
        if let Some(victim) = out.evicted {
            self.dir.on_evict(core, victim.0);
        }
    }
}

/// Blocks collide on few sets so shadow caches evict (tag stride 64 = the
/// L1-D set count at the paper geometry).
fn arb_batch() -> impl Strategy<Value = (usize, Vec<DataAccess>)> {
    (
        0usize..4,
        prop::collection::vec(
            (0u64..3, 0u64..11, any::<bool>()).prop_map(|(s, t, w)| DataAccess {
                block: BlockAddr(s + t * 64),
                write: w,
            }),
            1..12,
        ),
    )
}

proptest! {
    /// After every batched `access_data_run`, the directory matches both
    /// the protocol model and a block-at-a-time hierarchy, sharer masks
    /// included.
    #[test]
    fn batched_data_runs_keep_directory_in_model_state(
        batches in prop::collection::vec(arb_batch(), 1..60),
    ) {
        let cfg = SimConfig::paper_default().with_cores(4);
        let mut run_m = Machine::new(&cfg);
        let mut blk_m = Machine::new(&cfg);
        let mut model = HierModel::new(&cfg);
        for (core, batch) in batches {
            run_m.access_data_run(CoreId(core), &batch, 0.0);
            for a in &batch {
                blk_m.access_data(CoreId(core), a.block, a.write);
                model.access(core, *a);
            }
            let run_dir = run_m.hierarchy().directory();
            let blk_dir = blk_m.hierarchy().directory();
            // Sharer mask and owner of every universe block agree with
            // the protocol model...
            for b in 0u64..(3 + 10 * 64 + 1) {
                let block = BlockAddr(b);
                let expected = model.dir.blocks.get(&b).copied();
                for c in 0..4 {
                    prop_assert_eq!(
                        run_dir.is_sharer(c, block),
                        expected.is_some_and(|(s, _)| s & (1 << c) != 0),
                        "core {} block {}", c, b
                    );
                }
                prop_assert_eq!(run_dir.owner(block), expected.and_then(|(_, o)| o));
            }
            // ...and the live count matches the per-block hierarchy.
            prop_assert_eq!(run_dir.tracked_blocks(), model.dir.blocks.len());
            prop_assert_eq!(run_dir.tracked_blocks(), blk_dir.tracked_blocks());
        }
    }
}

proptest! {
    /// The directory agrees with the model after every operation, action
    /// payloads included, and each peek predicts the action its read or
    /// write then returns, throughout arbitrary churn.
    #[test]
    fn directory_matches_hashmap_model(
        ops in prop::collection::vec((0usize..4, 0usize..6, 0u64..24), 1..500)
    ) {
        let mut dir = Directory::new();
        let mut model = Model::default();
        for (op, core, block) in ops {
            let b = BlockAddr(block);
            match op {
                0 => {
                    let peeked = dir.peek_read(core, b);
                    let action = dir.on_read(core, b);
                    prop_assert_eq!(peeked, action);
                    let supplier = model.on_read(core, block);
                    prop_assert_eq!(action.supplier, supplier);
                    prop_assert!(action.invalidate.is_empty(), "reads never invalidate");
                }
                1 => {
                    let peeked = dir.peek_write(core, b);
                    let action = dir.on_write(core, b);
                    prop_assert_eq!(peeked, action);
                    let (supplier, invalidate) = model.on_write(core, block);
                    prop_assert_eq!(action.supplier, supplier);
                    prop_assert_eq!(action.invalidate.0, invalidate);
                }
                2 => {
                    dir.on_evict(core, b);
                    model.on_evict(core, block);
                }
                _ => {
                    // Pure lookup round; state checked below like every op.
                }
            }
            // Full-state agreement on the touched block...
            let expected = model.blocks.get(&block).copied();
            prop_assert_eq!(
                dir.is_sharer(core, b),
                expected.is_some_and(|(s, _)| s & (1 << core) != 0)
            );
            prop_assert_eq!(dir.owner(b), expected.and_then(|(_, o)| o));
            // ...and aggregate agreement: a double removal or a lost
            // entry breaks the live count here.
            prop_assert_eq!(dir.tracked_blocks(), model.blocks.len());
        }
        // Terminal sweep: every block the model knows is visible with the
        // right sharers and owner; every block it dropped is gone.
        for b in 0u64..24 {
            let expected = model.blocks.get(&b).copied();
            for core in 0..6 {
                prop_assert_eq!(
                    dir.is_sharer(core, BlockAddr(b)),
                    expected.is_some_and(|(s, _)| s & (1 << core) != 0)
                );
            }
            prop_assert_eq!(dir.owner(BlockAddr(b)), expected.and_then(|(_, o)| o));
        }
    }
}
