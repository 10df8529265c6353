//! Property-based tests: the B+-tree against a `BTreeMap` model, slotted
//! pages against a vector-of-records model, and heap placement against a
//! naive first-fit scan.

use std::collections::BTreeMap;

use addict_storage::btree::BTree;
use addict_storage::heap::{HeapFile, HeapInsert, PageAllocator};
use addict_storage::page::SlottedPage;
use addict_storage::Rid;
use proptest::prelude::*;

/// Operations the B+-tree model understands.
#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Probe(u64),
    Range(u64, u64),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    // A small key universe maximizes collisions, duplicates, and deletes of
    // present keys — the interesting cases.
    let key = 0u64..2000;
    prop_oneof![
        4 => (key.clone(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        2 => key.clone().prop_map(TreeOp::Delete),
        2 => key.clone().prop_map(TreeOp::Probe),
        1 => (key.clone(), key).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+-tree behaves exactly like BTreeMap under arbitrary operation
    /// sequences, and its structural invariants hold after every mutation.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(tree_op(), 1..400)) {
        let mut alloc = PageAllocator::new();
        // Tiny fanout so a few hundred keys build a deep tree with constant
        // splits and merges.
        let mut tree = BTree::with_max_keys(&mut alloc, 4);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let tree_result = tree.insert(&mut alloc, k, v);
                    match model.entry(k) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(tree_result.is_err(), "duplicate {k} accepted");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            prop_assert!(tree_result.is_ok(), "fresh insert of {k} rejected");
                            slot.insert(v);
                        }
                    }
                    tree.check_invariants();
                }
                TreeOp::Delete(k) => {
                    let tree_result = tree.delete(k);
                    match model.remove(&k) {
                        Some(v) => {
                            let r = tree_result.expect("model had the key");
                            prop_assert_eq!(r.value, v);
                        }
                        None => prop_assert!(tree_result.is_err(), "phantom delete of {k}"),
                    }
                    tree.check_invariants();
                }
                TreeOp::Probe(k) => {
                    prop_assert_eq!(tree.probe(k).value, model.get(&k).copied());
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<(u64, u64)> = tree.range(lo, true, hi, true).items;
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
    }

    /// Scans honor all four inclusivity combinations.
    #[test]
    fn btree_range_inclusivity(
        keys in prop::collection::btree_set(0u64..500, 1..100),
        lo in 0u64..500,
        hi in 0u64..500,
        lo_inc in any::<bool>(),
        hi_inc in any::<bool>(),
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut alloc = PageAllocator::new();
        let mut tree = BTree::with_max_keys(&mut alloc, 6);
        for &k in &keys {
            tree.insert(&mut alloc, k, k).unwrap();
        }
        let got: Vec<u64> =
            tree.range(lo, lo_inc, hi, hi_inc).items.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| {
                (if lo_inc { k >= lo } else { k > lo }) && (if hi_inc { k <= hi } else { k < hi })
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Slotted pages: whatever sequence of inserts/updates/deletes runs, the
    /// live records always read back exactly.
    #[test]
    fn page_matches_model(ops in prop::collection::vec((0u8..3, 0usize..40, 1usize..300), 1..200)) {
        let mut page = SlottedPage::new();
        let mut model: Vec<Option<Vec<u8>>> = Vec::new(); // by slot
        let mut live = 0usize;
        for (kind, target, len) in ops {
            let payload = vec![(len % 251) as u8; len];
            match kind {
                0 => {
                    // Insert.
                    if let Ok(slot) = page.insert(&payload) {
                        let slot = slot as usize;
                        if slot == model.len() {
                            model.push(Some(payload));
                        } else {
                            prop_assert!(model[slot].is_none(), "reused a live slot");
                            model[slot] = Some(payload);
                        }
                        live += 1;
                    }
                }
                1 => {
                    // Update an existing live slot, if any.
                    let slot = if model.is_empty() { 0 } else { target % model.len() };
                    let is_live = model.get(slot).is_some_and(Option::is_some);
                    let r = page.update(slot as u16, &payload);
                    if !is_live {
                        prop_assert!(r.is_err(), "update of dead slot succeeded");
                    } else if r.is_ok() {
                        model[slot] = Some(payload);
                    }
                }
                _ => {
                    // Delete.
                    let slot = if model.is_empty() { 0 } else { target % model.len() };
                    let is_live = model.get(slot).is_some_and(Option::is_some);
                    let deleted = page.delete(slot as u16);
                    prop_assert_eq!(deleted, is_live);
                    if deleted {
                        model[slot] = None;
                        live -= 1;
                    }
                }
            }
            // Full read-back check.
            prop_assert_eq!(page.n_records(), live);
            for (slot, expect) in model.iter().enumerate() {
                prop_assert_eq!(page.get(slot as u16), expect.as_deref(), "slot {}", slot);
            }
        }
    }

    /// Heap placement is exactly a first-fit scan from page 0: under mixed
    /// widths, deletes and resizing updates, every insert lands on the same
    /// rid, allocating a page exactly when the naive scan does.
    #[test]
    fn heap_placement_matches_first_fit(
        ops in prop::collection::vec((0u8..4, 0usize..1000, 0usize..8), 1..400),
    ) {
        const WIDTHS: [usize; 8] = [16, 50, 60, 100, 101, 104, 200, 1500];
        let mut alloc = PageAllocator::new();
        let mut heap = HeapFile::new();
        let mut model_alloc = PageAllocator::new();
        let mut model: Vec<(u64, SlottedPage)> = Vec::new();
        let mut live: Vec<Rid> = Vec::new();
        for (kind, target, width) in ops {
            let record = vec![(width * 37 % 251) as u8; WIDTHS[width]];
            match kind {
                0 | 1 => {
                    let got = heap.insert(&mut alloc, &record).unwrap();
                    let fit = model.iter().position(|(_, p)| p.fits(record.len()));
                    let idx = fit.unwrap_or_else(|| {
                        model.push((model_alloc.alloc(), SlottedPage::new()));
                        model.len() - 1
                    });
                    let (pid, page) = &mut model[idx];
                    let want = HeapInsert {
                        rid: Rid::new(*pid, page.insert(&record).unwrap()),
                        allocated_page: fit.is_none(),
                    };
                    prop_assert_eq!(got, want);
                    live.push(got.rid);
                }
                2 if !live.is_empty() => {
                    let rid = live.swap_remove(target % live.len());
                    heap.delete(rid).unwrap();
                    let page = &mut model.iter_mut().find(|(p, _)| *p == rid.page).unwrap().1;
                    prop_assert!(page.delete(rid.slot));
                }
                3 if !live.is_empty() => {
                    let rid = live[target % live.len()];
                    let got = heap.update(rid, &record).is_ok();
                    let page = &mut model.iter_mut().find(|(p, _)| *p == rid.page).unwrap().1;
                    prop_assert_eq!(got, page.update(rid.slot, &record).is_ok());
                }
                _ => {}
            }
        }
    }
}

#[test]
fn btree_large_sequential_build_and_teardown() {
    let mut alloc = PageAllocator::new();
    let mut tree = BTree::new(&mut alloc);
    for k in 0..50_000u64 {
        tree.insert(&mut alloc, k, k ^ 0xAAAA).unwrap();
    }
    tree.check_invariants();
    assert_eq!(tree.len(), 50_000);
    assert!(tree.height() >= 2);
    for k in (0..50_000u64).rev() {
        assert_eq!(tree.delete(k).unwrap().value, k ^ 0xAAAA);
    }
    assert!(tree.is_empty());
    tree.check_invariants();
}

#[test]
fn btree_random_build_matches_sorted_scan() {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut alloc = PageAllocator::new();
    let mut tree = BTree::with_max_keys(&mut alloc, 32);
    let mut keys: Vec<u64> = (0..10_000u64).collect();
    keys.shuffle(&mut rng);
    for &k in &keys {
        tree.insert(&mut alloc, k, k).unwrap();
    }
    tree.check_invariants();
    let scan = tree.range(0, true, u64::MAX, true);
    assert_eq!(scan.items.len(), 10_000);
    assert!(scan.items.windows(2).all(|w| w[0].0 < w[1].0));
}
