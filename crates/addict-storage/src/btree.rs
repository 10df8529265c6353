//! B+-trees: the index structure behind `index probe`, `index scan`,
//! `create index entry`, and `delete index entry`.
//!
//! * Arena-based nodes (`Vec<Node>`), each bound to a globally unique page
//!   id so index descents emit real per-level data-block accesses — the
//!   upper levels and root are the shared read-mostly blocks Section 2.2.2
//!   observes, the leaves are the rarely shared ones.
//! * Full structural-modification support: leaf/internal splits, root
//!   growth, borrow-from-sibling, merges, and root collapse — the
//!   `structural modification` box of Figure 1. Every operation reports its
//!   SMO activity so the engine can emit the corresponding (conditional)
//!   instruction walks.
//! * Unique keys (`u64 -> u64`); composite workload keys are packed by the
//!   workload layer.

use crate::error::{StorageError, StorageResult};
use crate::heap::PageAllocator;

/// Node handle within one tree's arena.
pub type NodeId = usize;

/// Default maximum keys per node (both leaf and internal). An 8 KB page
/// holds ~500 key/value pairs; 256 keeps trees realistically shallow while
/// exercising splits at workload scale.
pub const DEFAULT_MAX_KEYS: usize = 256;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        keys: Vec<u64>,
        children: Vec<NodeId>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
        next: Option<NodeId>,
    },
}

impl Node {
    fn n_keys(&self) -> usize {
        match self {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
        }
    }
}

/// One step of a root-to-leaf descent (for trace emission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// Page id of the node visited.
    pub page_id: u64,
    /// Key-array position the search landed on.
    pub pos: usize,
    /// Number of keys in the node (lets the engine scale block touches).
    pub n_keys: usize,
}

/// Structural-modification activity of one mutation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmoStats {
    /// Node splits performed.
    pub splits: u32,
    /// A new root was created (tree grew).
    pub new_root: bool,
    /// Keys borrowed from a sibling.
    pub borrows: u32,
    /// Node merges performed.
    pub merges: u32,
    /// The root collapsed into its single child (tree shrank).
    pub root_collapsed: bool,
    /// Pages allocated for new nodes.
    pub pages_allocated: u32,
}

impl SmoStats {
    /// Did any structural modification happen?
    pub fn any(&self) -> bool {
        self.splits > 0
            || self.new_root
            || self.borrows > 0
            || self.merges > 0
            || self.root_collapsed
    }
}

/// Result of a probe.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Root-to-leaf path visited.
    pub path: Vec<PathStep>,
    /// The value, if the key exists.
    pub value: Option<u64>,
}

/// Result of an insert.
#[derive(Debug, Clone)]
pub struct InsertResult {
    /// Root-to-leaf path visited (pre-split).
    pub path: Vec<PathStep>,
    /// Structural modifications triggered.
    pub smo: SmoStats,
}

/// Result of a delete.
#[derive(Debug, Clone)]
pub struct DeleteResult {
    /// Root-to-leaf path visited.
    pub path: Vec<PathStep>,
    /// The removed value.
    pub value: u64,
    /// Structural modifications triggered.
    pub smo: SmoStats,
}

/// Result of a range scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Root-to-leaf path to the scan's start position.
    pub path: Vec<PathStep>,
    /// Leaf page ids visited while fetching.
    pub leaf_pages: Vec<u64>,
    /// Matching `(key, value)` pairs in key order.
    pub items: Vec<(u64, u64)>,
}

/// A unique-key B+-tree.
#[derive(Debug, Clone)]
pub struct BTree {
    nodes: Vec<Node>,
    page_ids: Vec<u64>,
    free: Vec<NodeId>,
    root: NodeId,
    max_keys: usize,
    height: u32,
    len: usize,
}

impl BTree {
    /// An empty tree with the default fanout.
    pub fn new(alloc: &mut PageAllocator) -> Self {
        Self::with_max_keys(alloc, DEFAULT_MAX_KEYS)
    }

    /// An empty tree with a custom fanout (tests use tiny fanouts to force
    /// deep trees and frequent SMOs).
    pub fn with_max_keys(alloc: &mut PageAllocator, max_keys: usize) -> Self {
        assert!(max_keys >= 4, "fanout too small for rebalancing");
        let mut tree = BTree {
            nodes: Vec::new(),
            page_ids: Vec::new(),
            free: Vec::new(),
            root: 0,
            max_keys,
            height: 1,
            len: 0,
        };
        tree.root = tree.alloc_node(
            alloc,
            Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            },
        );
        tree
    }

    fn alloc_node(&mut self, alloc: &mut PageAllocator, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            // Reuse keeps the page id (a freed index page recycled).
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.page_ids.push(alloc.alloc());
        id
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Approximate heap bytes: the node array, every node's key, value
    /// and child buffers, and the page-id and free lists.
    pub fn resident_bytes(&self) -> usize {
        let node = |n: &Node| match n {
            Node::Internal { keys, children } => {
                crate::vec_bytes(keys) + crate::vec_bytes(children)
            }
            Node::Leaf { keys, vals, .. } => crate::vec_bytes(keys) + crate::vec_bytes(vals),
        };
        crate::vec_bytes(&self.nodes)
            + self.nodes.iter().map(node).sum::<usize>()
            + crate::vec_bytes(&self.page_ids)
            + crate::vec_bytes(&self.free)
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (levels, including the leaf level).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Page id of the root node (a hot shared block).
    pub fn root_page(&self) -> u64 {
        self.page_ids[self.root]
    }

    fn min_keys(&self) -> usize {
        self.max_keys / 2
    }

    /// Descend to the leaf for `key`, recording the path.
    fn descend(&self, key: u64) -> (Vec<PathStep>, Vec<usize>, NodeId) {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut child_idxs = Vec::with_capacity(self.height as usize);
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    path.push(PathStep {
                        page_id: self.page_ids[cur],
                        pos: idx,
                        n_keys: keys.len(),
                    });
                    child_idxs.push(idx);
                    cur = children[idx];
                }
                Node::Leaf { keys, .. } => {
                    let pos = keys.partition_point(|&k| k < key);
                    path.push(PathStep {
                        page_id: self.page_ids[cur],
                        pos,
                        n_keys: keys.len(),
                    });
                    return (path, child_idxs, cur);
                }
            }
        }
    }

    /// Point lookup.
    pub fn probe(&self, key: u64) -> ProbeResult {
        let (path, _, leaf) = self.descend(key);
        let value = match &self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => {
                let pos = keys.partition_point(|&k| k < key);
                (pos < keys.len() && keys[pos] == key).then(|| vals[pos])
            }
            Node::Internal { .. } => unreachable!("descend ends at a leaf"),
        };
        ProbeResult { path, value }
    }

    /// Insert a unique key.
    ///
    /// # Errors
    /// [`StorageError::DuplicateKey`] if the key is present.
    pub fn insert(
        &mut self,
        alloc: &mut PageAllocator,
        key: u64,
        value: u64,
    ) -> StorageResult<InsertResult> {
        let (path, child_idxs, leaf) = self.descend(key);
        let mut smo = SmoStats::default();

        // Leaf insertion.
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => {
                let pos = keys.partition_point(|&k| k < key);
                if pos < keys.len() && keys[pos] == key {
                    return Err(StorageError::DuplicateKey { key });
                }
                keys.insert(pos, key);
                vals.insert(pos, value);
            }
            Node::Internal { .. } => unreachable!("descend ends at a leaf"),
        }
        self.len += 1;

        // Split propagation, bottom-up along the recorded path.
        let mut cur = leaf;
        let mut ancestors: Vec<NodeId> = self.node_path(&child_idxs);
        debug_assert_eq!(*ancestors.last().unwrap_or(&self.root), cur);
        ancestors.pop(); // drop the leaf itself; what remains are parents
        while self.nodes[cur].n_keys() > self.max_keys {
            let (sep, right) = self.split(alloc, cur, &mut smo);
            match ancestors.pop() {
                Some(parent) => {
                    let Node::Internal { keys, children } = &mut self.nodes[parent] else {
                        unreachable!("parents are internal")
                    };
                    let idx = keys.partition_point(|&k| k <= sep);
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    cur = parent;
                }
                None => {
                    // Root split: grow the tree.
                    let new_root = self.alloc_node(
                        alloc,
                        Node::Internal {
                            keys: vec![sep],
                            children: vec![cur, right],
                        },
                    );
                    smo.pages_allocated += 1;
                    smo.new_root = true;
                    self.root = new_root;
                    self.height += 1;
                    break;
                }
            }
        }
        Ok(InsertResult { path, smo })
    }

    /// Materialize the node ids along a child-index path from the root.
    fn node_path(&self, child_idxs: &[usize]) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(child_idxs.len() + 1);
        let mut cur = self.root;
        ids.push(cur);
        for &idx in child_idxs {
            let Node::Internal { children, .. } = &self.nodes[cur] else {
                unreachable!("child index implies internal node")
            };
            cur = children[idx];
            ids.push(cur);
        }
        ids
    }

    /// Split an overflowing node; returns `(separator, right_id)`.
    fn split(
        &mut self,
        alloc: &mut PageAllocator,
        node: NodeId,
        smo: &mut SmoStats,
    ) -> (u64, NodeId) {
        smo.splits += 1;
        smo.pages_allocated += 1;
        let mid = self.nodes[node].n_keys() / 2;
        match &mut self.nodes[node] {
            Node::Leaf { keys, vals, next } => {
                let right_keys = keys.split_off(mid);
                let right_vals = vals.split_off(mid);
                let sep = right_keys[0];
                let old_next = *next;
                let right = self.alloc_node(
                    alloc,
                    Node::Leaf {
                        keys: right_keys,
                        vals: right_vals,
                        next: old_next,
                    },
                );
                let Node::Leaf { next, .. } = &mut self.nodes[node] else {
                    unreachable!()
                };
                *next = Some(right);
                (sep, right)
            }
            Node::Internal { keys, children } => {
                // Middle key moves up; right node gets keys after it.
                let sep = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // remove the separator itself
                let right_children = children.split_off(mid + 1);
                let right = self.alloc_node(
                    alloc,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                );
                (sep, right)
            }
        }
    }

    /// Remove a key.
    ///
    /// # Errors
    /// [`StorageError::KeyNotFound`] if absent.
    pub fn delete(&mut self, key: u64) -> StorageResult<DeleteResult> {
        let (path, child_idxs, leaf) = self.descend(key);
        let mut smo = SmoStats::default();

        let value = match &mut self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => {
                let pos = keys.partition_point(|&k| k < key);
                if pos >= keys.len() || keys[pos] != key {
                    return Err(StorageError::KeyNotFound { key });
                }
                keys.remove(pos);
                vals.remove(pos)
            }
            Node::Internal { .. } => unreachable!("descend ends at a leaf"),
        };
        self.len -= 1;

        // Rebalance bottom-up.
        let mut ancestors = self.node_path(&child_idxs);
        let mut idx_in_parent = child_idxs;
        let mut cur = ancestors.pop().expect("path non-empty");
        while cur != self.root && self.nodes[cur].n_keys() < self.min_keys() {
            let parent = *ancestors.last().expect("non-root has a parent");
            let my_idx = idx_in_parent.pop().expect("matching depth");
            if !self.try_borrow(parent, my_idx, &mut smo) {
                self.merge(parent, my_idx, &mut smo);
            }
            cur = parent;
            ancestors.pop();
        }

        // Root collapse: an internal root with a single child shrinks the
        // tree; an empty leaf root just stays (empty tree).
        while let Node::Internal { keys, children } = &self.nodes[self.root] {
            if !keys.is_empty() {
                break;
            }
            let child = children[0];
            self.free.push(self.root);
            self.root = child;
            self.height -= 1;
            smo.root_collapsed = true;
        }

        Ok(DeleteResult { path, value, smo })
    }

    /// Try to borrow a key from a sibling of `children[my_idx]`.
    fn try_borrow(&mut self, parent: NodeId, my_idx: usize, smo: &mut SmoStats) -> bool {
        let Node::Internal { children, .. } = &self.nodes[parent] else {
            unreachable!("parent is internal")
        };
        let n_children = children.len();
        let me = children[my_idx];

        // Prefer the left sibling, then the right.
        for (sib_idx, from_left) in [
            (my_idx.checked_sub(1), true),
            ((my_idx + 1 < n_children).then_some(my_idx + 1), false),
        ] {
            let Some(sib_idx) = sib_idx else { continue };
            let Node::Internal { children, .. } = &self.nodes[parent] else {
                unreachable!()
            };
            let sib = children[sib_idx];
            if self.nodes[sib].n_keys() <= self.min_keys() {
                continue;
            }
            let sep_idx = if from_left { my_idx - 1 } else { my_idx };
            self.shift_one(parent, sep_idx, sib, me, from_left);
            smo.borrows += 1;
            return true;
        }
        false
    }

    /// Move one entry from `sib` into `me` across separator `sep_idx`.
    fn shift_one(
        &mut self,
        parent: NodeId,
        sep_idx: usize,
        sib: NodeId,
        me: NodeId,
        from_left: bool,
    ) {
        // Take both nodes out to sidestep aliasing.
        let mut sib_node = std::mem::replace(
            &mut self.nodes[sib],
            Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            },
        );
        let mut me_node = std::mem::replace(
            &mut self.nodes[me],
            Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            },
        );
        let new_sep = match (&mut sib_node, &mut me_node) {
            (
                Node::Leaf {
                    keys: sk, vals: sv, ..
                },
                Node::Leaf {
                    keys: mk, vals: mv, ..
                },
            ) => {
                if from_left {
                    let k = sk.pop().expect("sibling has spare keys");
                    let v = sv.pop().expect("parallel arrays");
                    mk.insert(0, k);
                    mv.insert(0, v);
                    mk[0]
                } else {
                    let k = sk.remove(0);
                    let v = sv.remove(0);
                    mk.push(k);
                    mv.push(v);
                    sk[0]
                }
            }
            (
                Node::Internal {
                    keys: sk,
                    children: sc,
                },
                Node::Internal {
                    keys: mk,
                    children: mc,
                },
            ) => {
                let Node::Internal { keys: pk, .. } = &self.nodes[parent] else {
                    unreachable!()
                };
                let old_sep = pk[sep_idx];
                if from_left {
                    let k = sk.pop().expect("sibling has spare keys");
                    let c = sc.pop().expect("parallel arrays");
                    mk.insert(0, old_sep);
                    mc.insert(0, c);
                    k
                } else {
                    let k = sk.remove(0);
                    let c = sc.remove(0);
                    mk.push(old_sep);
                    mc.push(c);
                    k
                }
            }
            _ => unreachable!("siblings are at the same level"),
        };
        self.nodes[sib] = sib_node;
        self.nodes[me] = me_node;
        let Node::Internal { keys, .. } = &mut self.nodes[parent] else {
            unreachable!()
        };
        keys[sep_idx] = new_sep;
    }

    /// Merge `children[my_idx]` with a sibling (the underflowing node always
    /// has a sibling because the parent has ≥ 1 key).
    fn merge(&mut self, parent: NodeId, my_idx: usize, smo: &mut SmoStats) {
        smo.merges += 1;
        let Node::Internal { children, .. } = &self.nodes[parent] else {
            unreachable!()
        };
        // Merge with the left sibling when one exists, else with the right.
        let (left_idx, right_idx) = if my_idx > 0 {
            (my_idx - 1, my_idx)
        } else {
            (my_idx, my_idx + 1)
        };
        let left = children[left_idx];
        let right = children[right_idx];

        let right_node = std::mem::replace(
            &mut self.nodes[right],
            Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            },
        );
        let Node::Internal {
            keys: pk,
            children: pc,
        } = &mut self.nodes[parent]
        else {
            unreachable!()
        };
        let sep = pk.remove(left_idx);
        pc.remove(right_idx);

        match (&mut self.nodes[left], right_node) {
            (
                Node::Leaf {
                    keys: lk,
                    vals: lv,
                    next: ln,
                },
                Node::Leaf {
                    keys: rk,
                    vals: rv,
                    next: rn,
                },
            ) => {
                lk.extend(rk);
                lv.extend(rv);
                *ln = rn;
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same level"),
        }
        self.free.push(right);
    }

    /// Range scan over `[lo, hi]` with per-bound inclusivity (the paper's
    /// index-scan signature: two keys + two inclusiveness flags).
    pub fn range(&self, lo: u64, lo_inclusive: bool, hi: u64, hi_inclusive: bool) -> ScanResult {
        let (path, _, leaf) = self.descend(lo);
        let mut items = Vec::new();
        let mut leaf_pages = Vec::new();
        let mut cur = Some(leaf);
        'leaves: while let Some(id) = cur {
            let Node::Leaf { keys, vals, next } = &self.nodes[id] else {
                unreachable!("leaf chain stays on leaves")
            };
            leaf_pages.push(self.page_ids[id]);
            for (i, &k) in keys.iter().enumerate() {
                let after_lo = if lo_inclusive { k >= lo } else { k > lo };
                if !after_lo {
                    continue;
                }
                let before_hi = if hi_inclusive { k <= hi } else { k < hi };
                if !before_hi {
                    break 'leaves;
                }
                items.push((k, vals[i]));
            }
            cur = *next;
        }
        ScanResult {
            path,
            leaf_pages,
            items,
        }
    }

    /// Check every structural invariant; used by tests (including property
    /// tests) after each mutation. Cost is O(n).
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        let mut leaf_count = 0usize;
        self.check_node(self.root, None, None, self.height, &mut leaf_count);
        assert_eq!(leaf_count, self.len, "len out of sync with leaf contents");
        // Leaf chain is sorted and complete.
        let mut cur = Some(self.leftmost_leaf());
        let mut prev_key: Option<u64> = None;
        let mut chained = 0usize;
        while let Some(id) = cur {
            let Node::Leaf { keys, next, .. } = &self.nodes[id] else {
                panic!("leaf chain reached an internal node")
            };
            for &k in keys {
                assert!(prev_key.is_none_or(|p| p < k), "leaf chain out of order");
                prev_key = Some(k);
                chained += 1;
            }
            cur = *next;
        }
        assert_eq!(chained, self.len, "leaf chain misses keys");
    }

    fn leftmost_leaf(&self) -> NodeId {
        let mut cur = self.root;
        while let Node::Internal { children, .. } = &self.nodes[cur] {
            cur = children[0];
        }
        cur
    }

    fn check_node(
        &self,
        id: NodeId,
        lo: Option<u64>,
        hi: Option<u64>,
        expected_depth: u32,
        leaf_count: &mut usize,
    ) {
        let node = &self.nodes[id];
        // Key ordering and bounds.
        let keys = match node {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys,
        };
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "keys not strictly sorted");
        }
        if let Some(lo) = lo {
            assert!(
                keys.first().is_none_or(|&k| k >= lo),
                "key below subtree bound"
            );
        }
        if let Some(hi) = hi {
            assert!(
                keys.last().is_none_or(|&k| k < hi),
                "key above subtree bound"
            );
        }
        // Occupancy (root exempt).
        if id != self.root {
            assert!(node.n_keys() >= self.min_keys(), "underfull node");
        }
        assert!(node.n_keys() <= self.max_keys, "overfull node");
        match node {
            Node::Leaf { keys, vals, .. } => {
                assert_eq!(expected_depth, 1, "leaves at unequal depth");
                assert_eq!(keys.len(), vals.len(), "parallel arrays diverge");
                *leaf_count += keys.len();
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "fan-out mismatch");
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.check_node(child, clo, chi, expected_depth - 1, leaf_count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(max_keys: usize) -> (PageAllocator, BTree) {
        let mut alloc = PageAllocator::new();
        let t = BTree::with_max_keys(&mut alloc, max_keys);
        (alloc, t)
    }

    #[test]
    fn empty_probe_returns_none() {
        let (_, t) = tree(4);
        let r = t.probe(42);
        assert_eq!(r.value, None);
        assert_eq!(r.path.len(), 1, "single-leaf tree has a one-step path");
        t.check_invariants();
    }

    #[test]
    fn insert_probe_roundtrip() {
        let (mut alloc, mut t) = tree(4);
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(&mut alloc, k, k * 10).unwrap();
        }
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(t.probe(k).value, Some(k * 10));
        }
        assert_eq!(t.probe(2).value, None);
        assert_eq!(t.len(), 5);
        t.check_invariants();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut alloc, mut t) = tree(4);
        t.insert(&mut alloc, 1, 10).unwrap();
        assert!(matches!(
            t.insert(&mut alloc, 1, 20),
            Err(StorageError::DuplicateKey { key: 1 })
        ));
        assert_eq!(t.probe(1).value, Some(10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn splits_grow_the_tree_and_report_smo() {
        let (mut alloc, mut t) = tree(4);
        let mut saw_split = false;
        let mut saw_new_root = false;
        for k in 0..100u64 {
            let r = t.insert(&mut alloc, k, k).unwrap();
            saw_split |= r.smo.splits > 0;
            saw_new_root |= r.smo.new_root;
            t.check_invariants();
        }
        assert!(saw_split && saw_new_root);
        assert!(t.height() >= 3, "100 keys at fanout 4 must be deep");
        for k in 0..100u64 {
            assert_eq!(t.probe(k).value, Some(k));
        }
    }

    #[test]
    fn probe_path_length_equals_height() {
        let (mut alloc, mut t) = tree(4);
        for k in 0..200u64 {
            t.insert(&mut alloc, k * 2, k).unwrap();
        }
        let r = t.probe(100);
        assert_eq!(r.path.len() as u32, t.height());
        // Path page ids are distinct.
        let mut pages: Vec<_> = r.path.iter().map(|s| s.page_id).collect();
        pages.dedup();
        assert_eq!(pages.len(), r.path.len());
    }

    #[test]
    fn delete_with_merges_shrinks_back() {
        let (mut alloc, mut t) = tree(4);
        for k in 0..100u64 {
            t.insert(&mut alloc, k, k).unwrap();
        }
        let peak_height = t.height();
        let mut saw_merge = false;
        let mut saw_borrow = false;
        let mut saw_collapse = false;
        for k in 0..100u64 {
            let r = t.delete(k).unwrap();
            assert_eq!(r.value, k);
            saw_merge |= r.smo.merges > 0;
            saw_borrow |= r.smo.borrows > 0;
            saw_collapse |= r.smo.root_collapsed;
            t.check_invariants();
        }
        assert!(saw_merge, "100 deletions at fanout 4 must merge");
        assert!(saw_borrow, "borrowing expected before merging");
        assert!(saw_collapse, "tree must shrink");
        assert!(t.is_empty());
        assert!(t.height() < peak_height);
        assert!(matches!(
            t.delete(5),
            Err(StorageError::KeyNotFound { key: 5 })
        ));
    }

    #[test]
    fn range_scan_with_inclusivity_flags() {
        let (mut alloc, mut t) = tree(4);
        for k in (0..50u64).map(|k| k * 2) {
            t.insert(&mut alloc, k, k + 1).unwrap();
        }
        let r = t.range(10, true, 20, true);
        let keys: Vec<u64> = r.items.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        let r = t.range(10, false, 20, false);
        let keys: Vec<u64> = r.items.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![12, 14, 16, 18]);
        // Scan crosses leaves: more than one leaf page visited.
        let r = t.range(0, true, 98, true);
        assert!(r.leaf_pages.len() > 1);
        assert_eq!(r.items.len(), 50);
        // Empty range.
        let r = t.range(11, true, 11, true);
        assert!(r.items.is_empty());
    }

    #[test]
    fn scan_values_track_keys() {
        let (mut alloc, mut t) = tree(8);
        for k in 0..300u64 {
            t.insert(&mut alloc, k, 1000 + k).unwrap();
        }
        let r = t.range(250, true, 260, false);
        for (k, v) in r.items {
            assert_eq!(v, 1000 + k);
        }
    }

    #[test]
    fn freed_nodes_are_reused() {
        let (mut alloc, mut t) = tree(4);
        for k in 0..200u64 {
            t.insert(&mut alloc, k, k).unwrap();
        }
        let pages_after_build = alloc.allocated();
        for k in 0..200u64 {
            t.delete(k).unwrap();
        }
        for k in 0..200u64 {
            t.insert(&mut alloc, k, k).unwrap();
        }
        // Rebuild reuses freed nodes: few or no new pages.
        assert!(
            alloc.allocated() <= pages_after_build + 2,
            "rebuild allocated {} new pages",
            alloc.allocated() - pages_after_build
        );
        t.check_invariants();
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let (mut alloc, mut t) = tree(6);
        // Insert evens, delete every fourth, insert odds.
        for k in (0..400u64).step_by(2) {
            t.insert(&mut alloc, k, k).unwrap();
        }
        for k in (0..400u64).step_by(4) {
            t.delete(k).unwrap();
        }
        for k in (1..400u64).step_by(2) {
            t.insert(&mut alloc, k, k).unwrap();
        }
        t.check_invariants();
        for k in 0..400u64 {
            let expected = if k % 2 == 1 || k % 4 == 2 {
                Some(k)
            } else {
                None
            };
            assert_eq!(t.probe(k).value, expected, "key {k}");
        }
    }

    #[test]
    fn root_page_is_stable_across_leaf_splits() {
        let (mut alloc, mut t) = tree(4);
        let mut k = 0u64;
        while t.height() < 2 {
            t.insert(&mut alloc, k, k).unwrap();
            k += 1;
        }
        let root = t.root_page();
        // Two more leaf splits: each adds a separator to the root, which
        // has room for both, so the root neither splits nor moves.
        let mut leaf_splits = 0;
        while leaf_splits < 2 {
            let r = t.insert(&mut alloc, k, k).unwrap();
            k += 1;
            assert!(!r.smo.new_root, "key {k} split the root");
            leaf_splits += r.smo.splits;
        }
        assert_eq!(leaf_splits, 2, "each split was a leaf split");
        assert_eq!(t.root_page(), root);
        assert_eq!(t.height(), 2);
        t.check_invariants();
    }
}
