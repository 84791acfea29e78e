//! A paged R-tree over the ranking dimensions.
//!
//! The hierarchical partition of Chapter 4: nested, possibly overlapping
//! boxes with `m..=M` entries per node (Guttman's structure). Supports
//!
//! * STR bulk-loading (how the cubes are built offline),
//! * single-tuple insertion with quadratic split, reporting the **update
//!   set** of tuples whose root-to-slot paths changed — exactly what the
//!   incremental signature maintenance of Section 4.2.5 consumes
//!   (Figures 4.5/4.6), and
//! * deletion with Guttman's condense-tree + re-insertion.
//!
//! Tuple paths are `⟨p0, …, p_{d−1}, slot⟩`: entry positions from the root
//! down to the tuple's slot inside its leaf (Section 4.2.1).

use std::collections::HashMap;
use std::sync::Arc;

use rcube_func::Rect;
use rcube_storage::{ByteReader, ByteWriter, DiskSim, PageId, StorageError};
use rcube_table::{Relation, Tid};

use crate::{HierIndex, NodeHandle};

/// R-tree sizing parameters.
#[derive(Debug, Clone)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`), for splits/condensing.
    pub min_entries: usize,
    /// Bulk-load fill fraction of `M` (default 0.7): packing nodes full
    /// would make the very first insertion split all the way to the root.
    pub bulk_fill: f64,
}

impl RTreeConfig {
    /// Page-derived fanout: `M = page / (8·dims + 4)` — yields the thesis'
    /// 204 (2-d) … 93 (5-d) figures for 4 KB pages. `m = 0.4·M`.
    pub fn for_page(page_size: usize, dims: usize) -> Self {
        let max_entries = (page_size / (8 * dims + 4)).max(4);
        Self { max_entries, min_entries: (max_entries * 2 / 5).max(2), bulk_fill: 0.7 }
    }

    /// Small fanout handy for unit tests mirroring the thesis' toy figures.
    pub fn small(max_entries: usize) -> Self {
        Self { max_entries, min_entries: (max_entries * 2 / 5).max(1), bulk_fill: 0.7 }
    }
}

/// A path update produced by incremental maintenance: `old_path == None`
/// for freshly inserted tuples; `new_path == None` for deleted ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathUpdate {
    pub tid: Tid,
    pub old_path: Option<Vec<u16>>,
    pub new_path: Option<Vec<u16>>,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Internal(Vec<u32>),
    Leaf(Vec<(Tid, Vec<f64>)>),
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Rect,
    kind: NodeKind,
    parent: Option<u32>,
    page: PageId,
}

/// The R-tree.
///
/// Nodes sit behind [`Arc`], so `clone()` copies one pointer per node plus
/// the tid → leaf map, and a mutation copies only the nodes it edits
/// ([`Arc::make_mut`]): a writer folding updates into a clone of the tree
/// a reader is still searching shares every node it leaves alone.
///
/// Persisted, the tree is one store object per node
/// ([`Self::encode_node`], [`Self::write_paged`]): the tree remembers which
/// object holds each node as it is now, and every mutation goes through
/// one helper that forgets it — so a commit rewrites exactly the nodes
/// changed since the last one.
#[derive(Debug, Clone)]
pub struct RTree {
    dims: usize,
    nodes: Vec<Arc<Node>>,
    root: u32,
    height: usize,
    config: RTreeConfig,
    /// tid → leaf node (answers "which leaf holds this tuple" in O(1)).
    tid_leaf: HashMap<Tid, u32>,
    /// Per node id, the store object holding the node's current bytes;
    /// `None` for a node never stored or changed since. Beside the nodes,
    /// not in them: `Arc::make_mut` copies a shared node, and the copy
    /// is exactly what must lose the id.
    stored: Vec<Option<PageId>>,
}

impl RTree {
    /// Bulk-loads `points` with Sort-Tile-Recursive packing.
    pub fn bulk_load(disk: &DiskSim, points: Vec<(Tid, Vec<f64>)>, config: RTreeConfig) -> Self {
        assert!(!points.is_empty(), "cannot bulk-load an empty R-tree");
        let dims = points[0].1.len();
        let mut tree = Self {
            dims,
            nodes: Vec::new(),
            root: 0,
            height: 1,
            config,
            tid_leaf: HashMap::with_capacity(points.len()),
            stored: Vec::new(),
        };
        // Pack to the fill fraction, not to capacity, so subsequent
        // insertions do not cascade splits from the first tuple on. Keeping
        // `cap ≥ 2·min` lets a short trailing chunk be split into two
        // halves that both satisfy the minimum fill.
        let min = tree.config.min_entries.max(1);
        let cap = ((tree.config.max_entries as f64 * tree.config.bulk_fill) as usize)
            .max(2 * min)
            .clamp(min, tree.config.max_entries);

        // STR: recursively sort/tile the points, then chunk into leaves.
        let mut pts = points;
        str_order(&mut pts, 0, dims, cap);
        let mut level: Vec<u32> = Vec::new();
        let mut start = 0;
        for size in pack_sizes(pts.len(), cap, min) {
            let id = tree.alloc_leaf(disk, pts[start..start + size].to_vec());
            level.push(id);
            start += size;
        }
        // Pack upper levels from consecutive (spatially coherent) runs.
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut start = 0;
            for size in pack_sizes(level.len(), cap, min) {
                let id = tree.alloc_internal(disk, level[start..start + size].to_vec());
                next.push(id);
                start += size;
            }
            level = next;
            tree.height += 1;
        }
        tree.root = level[0];
        tree
    }

    /// Bulk-loads over a relation's ranking dimensions `dims` (all of them
    /// when `dims` is empty).
    pub fn over_relation(
        disk: &DiskSim,
        rel: &Relation,
        dims: &[usize],
        config: RTreeConfig,
    ) -> Self {
        let use_dims: Vec<usize> =
            if dims.is_empty() { (0..rel.schema().num_ranking()).collect() } else { dims.to_vec() };
        let points = rel.tids().map(|t| (t, rel.ranking_point_proj(t, &use_dims))).collect();
        Self::bulk_load(disk, points, config)
    }

    /// Number of spatial dimensions.
    pub fn point_dims(&self) -> usize {
        self.dims
    }

    /// Sizing configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Approximate materialized size in bytes (entry-count model, matching
    /// the fanout math: `8·dims + 4` per entry).
    pub fn byte_size(&self) -> usize {
        let entry = 8 * self.dims + 4;
        self.live_nodes()
            .map(|n| match &self.nodes[n as usize].kind {
                NodeKind::Leaf(e) => e.len() * entry,
                NodeKind::Internal(c) => c.len() * (16 * self.dims + 4),
            })
            .sum()
    }

    /// Entries of leaf `n`, borrowed — [`HierIndex::leaf_entries`] without
    /// the per-entry clone (empty for an internal node).
    pub fn leaf_slice(&self, n: NodeHandle) -> &[(Tid, Vec<f64>)] {
        match &self.nodes[n.0 as usize].kind {
            NodeKind::Leaf(e) => e,
            NodeKind::Internal(_) => &[],
        }
    }

    /// Child node ids of internal node `n`, borrowed and in entry order
    /// (wrap one in [`NodeHandle`] to address it; empty for a leaf).
    pub fn child_ids(&self, n: NodeHandle) -> &[u32] {
        match &self.nodes[n.0 as usize].kind {
            NodeKind::Internal(c) => c,
            NodeKind::Leaf(_) => &[],
        }
    }

    /// Bounding region of `n`, borrowed — [`HierIndex::region`] without
    /// the clone.
    pub fn mbr(&self, n: NodeHandle) -> &Rect {
        &self.nodes[n.0 as usize].mbr
    }

    /// The tuple path `⟨p0, …, slot⟩` of `tid`.
    pub fn tuple_path(&self, tid: Tid) -> Option<Vec<u16>> {
        let leaf = *self.tid_leaf.get(&tid)?;
        let mut path = self.path_of_node(leaf);
        let slot = match &self.nodes[leaf as usize].kind {
            NodeKind::Leaf(entries) => entries.iter().position(|&(t, _)| t == tid)?,
            NodeKind::Internal(_) => unreachable!("tid_leaf maps to a leaf"),
        };
        path.push(slot as u16);
        Some(path)
    }

    /// Paths for every stored tuple (cube construction input).
    pub fn tuple_paths(&self) -> Vec<(Tid, Vec<u16>)> {
        let mut out = Vec::with_capacity(self.tid_leaf.len());
        let mut path = Vec::new();
        self.collect_paths(self.root, &mut path, &mut out);
        out
    }

    fn collect_paths(&self, node: u32, path: &mut Vec<u16>, out: &mut Vec<(Tid, Vec<u16>)>) {
        match &self.nodes[node as usize].kind {
            NodeKind::Leaf(entries) => {
                for (slot, &(tid, _)) in entries.iter().enumerate() {
                    path.push(slot as u16);
                    out.push((tid, path.clone()));
                    path.pop();
                }
            }
            NodeKind::Internal(children) => {
                for (i, &c) in children.iter().enumerate() {
                    path.push(i as u16);
                    self.collect_paths(c, path, out);
                    path.pop();
                }
            }
        }
    }

    /// Inserts a tuple, returning the path updates the signature cube must
    /// apply (Algorithm 2's update set `U`).
    pub fn insert(&mut self, disk: &DiskSim, tid: Tid, point: Vec<f64>) -> Vec<PathUpdate> {
        assert_eq!(point.len(), self.dims, "point arity mismatch");
        assert!(!self.tid_leaf.contains_key(&tid), "duplicate tid {tid}");

        // Walk the choose-leaf path.
        let mut path_nodes = vec![self.root];
        while let NodeKind::Internal(children) =
            &self.nodes[*path_nodes.last().unwrap() as usize].kind
        {
            let best = children
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let (ea, eb) = (self.enlargement(a, &point), self.enlargement(b, &point));
                    ea.total_cmp(&eb).then(
                        self.nodes[a as usize]
                            .mbr
                            .volume()
                            .total_cmp(&self.nodes[b as usize].mbr.volume()),
                    )
                })
                .expect("internal node has children");
            path_nodes.push(best);
        }
        let leaf = *path_nodes.last().unwrap();

        // Determine the highest node that will split: walking up from the
        // leaf, a node splits while it is at capacity.
        let mut split_top: Option<u32> = None;
        for &n in path_nodes.iter().rev() {
            if self.node_len(n) >= self.config.max_entries {
                split_top = Some(n);
            } else {
                break;
            }
        }

        // Capture old paths for every tuple whose position may change.
        let mut old_paths: HashMap<Tid, Vec<u16>> = HashMap::new();
        let mut touched: Vec<Tid> = Vec::new();
        if let Some(top) = split_top {
            let scope = if top == self.root { self.root } else { top };
            let mut prefix = self.path_of_node(scope);
            let mut collected = Vec::new();
            // Re-root collection at `scope` by temporarily extending prefix.
            self.collect_paths(scope, &mut prefix, &mut collected);
            for (t, p) in collected {
                touched.push(t);
                old_paths.insert(t, p);
            }
        }

        // Perform the insertion with cascading quadratic splits.
        self.insert_entry(disk, leaf, tid, point);

        // Assemble the update set.
        let mut updates = Vec::with_capacity(touched.len() + 1);
        updates.push(PathUpdate { tid, old_path: None, new_path: self.tuple_path(tid) });
        for t in touched {
            let new_path = self.tuple_path(t);
            let old_path = old_paths.remove(&t);
            if new_path.as_ref() != old_path.as_ref() {
                updates.push(PathUpdate { tid: t, old_path, new_path });
            }
        }
        updates
    }

    /// Deletes a tuple (condense-tree with re-insertion), returning path
    /// updates.
    ///
    /// A delta flush runs one of these per tombstone, so the common case
    /// stays local: when the leaf keeps its minimum fill nothing above it
    /// changes, and the update set is the removed tuple plus the entries
    /// behind it in that leaf, each shifted down one slot — no other
    /// tuple's path is even looked at. Only an underflowing leaf, whose
    /// condense + re-insertion can move tuples anywhere, pays for the
    /// whole-tree before/after snapshot diff.
    pub fn delete(&mut self, disk: &DiskSim, tid: Tid) -> Vec<PathUpdate> {
        let Some(&leaf) = self.tid_leaf.get(&tid) else {
            return Vec::new();
        };
        if leaf == self.root || self.node_len(leaf) > self.config.min_entries {
            return self.delete_in_place(leaf, tid);
        }
        let before: HashMap<Tid, Vec<u16>> = self.tuple_paths().into_iter().collect();

        // Remove the entry.
        if let NodeKind::Leaf(entries) = &mut self.node_mut(leaf).kind {
            entries.retain(|&(t, _)| t != tid);
        }
        self.tid_leaf.remove(&tid);
        self.recompute_mbrs_upward(leaf);

        // Condense: collect orphaned entries from underflowing nodes.
        let mut orphans: Vec<(Tid, Vec<f64>)> = Vec::new();
        let mut cur = leaf;
        while cur != self.root {
            let parent = self.nodes[cur as usize].parent.expect("non-root has parent");
            if self.node_len(cur) < self.config.min_entries {
                // Detach `cur` from its parent and stash its tuples.
                if let NodeKind::Internal(children) = &mut self.node_mut(parent).kind {
                    children.retain(|&c| c != cur);
                }
                let mut stash = Vec::new();
                self.collect_leaf_entries(cur, &mut stash);
                for &(t, _) in &stash {
                    self.tid_leaf.remove(&t);
                }
                orphans.extend(stash);
                self.recompute_mbrs_upward(parent);
            }
            cur = parent;
        }
        // Shrink the root if it lost all but one child.
        loop {
            let next = match &self.nodes[self.root as usize].kind {
                NodeKind::Internal(children) if children.len() == 1 && self.height > 1 => {
                    children[0]
                }
                _ => break,
            };
            self.root = next;
            self.node_mut(next).parent = None;
            self.height -= 1;
        }
        for (t, p) in orphans {
            self.reinsert_point(disk, t, p);
        }

        // Diff against the snapshot.
        let after: HashMap<Tid, Vec<u16>> = self.tuple_paths().into_iter().collect();
        let mut updates =
            vec![PathUpdate { tid, old_path: Some(before[&tid].clone()), new_path: None }];
        for (t, old) in &before {
            if *t == tid {
                continue;
            }
            let new = after.get(t);
            if new != Some(old) {
                updates.push(PathUpdate {
                    tid: *t,
                    old_path: Some(old.clone()),
                    new_path: new.cloned(),
                });
            }
        }
        updates
    }

    // ---- internals -------------------------------------------------------

    /// Removes `tid` from a leaf that stays at or above minimum fill: the
    /// entries behind it close the gap, nothing else moves.
    fn delete_in_place(&mut self, leaf: u32, tid: Tid) -> Vec<PathUpdate> {
        let prefix = self.path_of_node(leaf);
        let at = |slot: usize| {
            let mut path = prefix.clone();
            path.push(slot as u16);
            Some(path)
        };
        let NodeKind::Leaf(entries) = &mut self.node_mut(leaf).kind else {
            unreachable!("tid_leaf maps to a leaf")
        };
        let slot = entries.iter().position(|&(t, _)| t == tid).expect("tid_leaf is current");
        entries.remove(slot);
        let mut updates = Vec::with_capacity(entries.len() - slot + 1);
        updates.push(PathUpdate { tid, old_path: at(slot), new_path: None });
        for (i, &(t, _)) in entries[slot..].iter().enumerate() {
            updates.push(PathUpdate { tid: t, old_path: at(slot + i + 1), new_path: at(slot + i) });
        }
        self.tid_leaf.remove(&tid);
        self.recompute_mbrs_upward(leaf);
        updates
    }

    /// Unique access to node `n`, copying it first when a clone of the
    /// tree still shares it. The only way to edit a node: it forgets the
    /// object that stored the node's old bytes.
    fn node_mut(&mut self, n: u32) -> &mut Node {
        self.stored[n as usize] = None;
        Arc::make_mut(&mut self.nodes[n as usize])
    }

    /// Appends `node`, not stored yet, and returns its id.
    fn push_node(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Arc::new(node));
        self.stored.push(None);
        id
    }

    /// Re-parents `child`, leaving a node that already points there shared.
    fn set_parent(&mut self, child: u32, parent: u32) {
        if self.nodes[child as usize].parent != Some(parent) {
            self.node_mut(child).parent = Some(parent);
        }
    }

    fn alloc_leaf(&mut self, disk: &DiskSim, entries: Vec<(Tid, Vec<f64>)>) -> u32 {
        let id = self.nodes.len() as u32;
        let mut mbr = Rect::empty(self.dims);
        for (tid, p) in &entries {
            mbr.expand(p);
            self.tid_leaf.insert(*tid, id);
        }
        let page = disk.alloc_page();
        disk.write(page);
        self.push_node(Node { mbr, kind: NodeKind::Leaf(entries), parent: None, page })
    }

    fn alloc_internal(&mut self, disk: &DiskSim, children: Vec<u32>) -> u32 {
        let id = self.nodes.len() as u32;
        let mut mbr = Rect::empty(self.dims);
        for &c in &children {
            mbr.expand_rect(&self.nodes[c as usize].mbr);
            self.set_parent(c, id);
        }
        let page = disk.alloc_page();
        disk.write(page);
        self.push_node(Node { mbr, kind: NodeKind::Internal(children), parent: None, page })
    }

    fn node_len(&self, n: u32) -> usize {
        match &self.nodes[n as usize].kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }

    fn enlargement(&self, n: u32, p: &[f64]) -> f64 {
        let mbr = &self.nodes[n as usize].mbr;
        let mut grown = mbr.clone();
        grown.expand(p);
        grown.volume() - mbr.volume()
    }

    fn path_of_node(&self, n: u32) -> Vec<u16> {
        let mut path = Vec::new();
        let mut cur = n;
        while let Some(parent) = self.nodes[cur as usize].parent {
            let pos = match &self.nodes[parent as usize].kind {
                NodeKind::Internal(c) => c.iter().position(|&x| x == cur).unwrap(),
                NodeKind::Leaf(_) => unreachable!(),
            };
            path.push(pos as u16);
            cur = parent;
        }
        path.reverse();
        path
    }

    fn collect_leaf_entries(&self, n: u32, out: &mut Vec<(Tid, Vec<f64>)>) {
        match &self.nodes[n as usize].kind {
            NodeKind::Leaf(e) => out.extend(e.iter().cloned()),
            NodeKind::Internal(c) => {
                for &child in c {
                    self.collect_leaf_entries(child, out);
                }
            }
        }
    }

    fn insert_entry(&mut self, disk: &DiskSim, leaf: u32, tid: Tid, point: Vec<f64>) {
        let node = self.node_mut(leaf);
        node.mbr.expand(&point);
        if let NodeKind::Leaf(entries) = &mut node.kind {
            entries.push((tid, point));
        }
        self.tid_leaf.insert(tid, leaf);
        disk.write(self.nodes[leaf as usize].page);
        self.recompute_mbrs_upward(leaf);
        if self.node_len(leaf) > self.config.max_entries {
            self.split_node(disk, leaf);
        }
    }

    /// Quadratic split of an overfull node, propagating upward.
    fn split_node(&mut self, disk: &DiskSim, n: u32) {
        // Collect entry rects for seed picking.
        let rects: Vec<Rect> = match &self.nodes[n as usize].kind {
            NodeKind::Leaf(e) => e.iter().map(|(_, p)| Rect::point(p)).collect(),
            NodeKind::Internal(c) => {
                c.iter().map(|&c| self.nodes[c as usize].mbr.clone()).collect()
            }
        };
        let (g1, g2) = quadratic_partition(&rects, self.config.min_entries);

        // Materialize the two groups.
        let sibling = match self.nodes[n as usize].kind.clone() {
            NodeKind::Leaf(entries) => {
                let keep: Vec<_> = g1.iter().map(|&i| entries[i].clone()).collect();
                let give: Vec<_> = g2.iter().map(|&i| entries[i].clone()).collect();
                self.replace_leaf_entries(n, keep);
                self.alloc_leaf(disk, give)
            }
            NodeKind::Internal(children) => {
                let keep: Vec<u32> = g1.iter().map(|&i| children[i]).collect();
                let give: Vec<u32> = g2.iter().map(|&i| children[i]).collect();
                self.replace_internal_children(n, keep);
                self.alloc_internal(disk, give)
            }
        };
        disk.write(self.nodes[n as usize].page);

        match self.nodes[n as usize].parent {
            Some(parent) => {
                if let NodeKind::Internal(children) = &mut self.node_mut(parent).kind {
                    children.push(sibling);
                }
                self.set_parent(sibling, parent);
                self.recompute_mbrs_upward(parent);
                disk.write(self.nodes[parent as usize].page);
                if self.node_len(parent) > self.config.max_entries {
                    self.split_node(disk, parent);
                }
            }
            None => {
                // Root split: grow the tree.
                let new_root = self.alloc_internal(disk, vec![n, sibling]);
                self.root = new_root;
                self.height += 1;
            }
        }
    }

    fn replace_leaf_entries(&mut self, n: u32, entries: Vec<(Tid, Vec<f64>)>) {
        let mut mbr = Rect::empty(self.dims);
        for (tid, p) in &entries {
            mbr.expand(p);
            self.tid_leaf.insert(*tid, n);
        }
        let node = self.node_mut(n);
        node.mbr = mbr;
        node.kind = NodeKind::Leaf(entries);
    }

    fn replace_internal_children(&mut self, n: u32, children: Vec<u32>) {
        let mut mbr = Rect::empty(self.dims);
        for &c in &children {
            mbr.expand_rect(&self.nodes[c as usize].mbr);
            self.set_parent(c, n);
        }
        let node = self.node_mut(n);
        node.mbr = mbr;
        node.kind = NodeKind::Internal(children);
    }

    fn recompute_mbrs_upward(&mut self, from: u32) {
        let mut cur = Some(from);
        while let Some(n) = cur {
            let mbr = match &self.nodes[n as usize].kind {
                NodeKind::Leaf(e) => {
                    let mut r = Rect::empty(self.dims);
                    for (_, p) in e {
                        r.expand(p);
                    }
                    r
                }
                NodeKind::Internal(c) => {
                    let mut r = Rect::empty(self.dims);
                    for &child in c {
                        r.expand_rect(&self.nodes[child as usize].mbr);
                    }
                    r
                }
            };
            // An ancestor whose box did not move stays shared.
            if self.nodes[n as usize].mbr != mbr {
                self.node_mut(n).mbr = mbr;
            }
            cur = self.nodes[n as usize].parent;
        }
    }

    fn reinsert_point(&mut self, disk: &DiskSim, tid: Tid, point: Vec<f64>) {
        // Choose-leaf descent, then plain entry insertion.
        let mut cur = self.root;
        while let NodeKind::Internal(children) = &self.nodes[cur as usize].kind {
            cur = children
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    self.enlargement(a, &point).total_cmp(&self.enlargement(b, &point))
                })
                .unwrap();
        }
        self.insert_entry(disk, cur, tid, point);
    }

    // ---- persistence: one store object per node -------------------------
    //
    // A catalog keeps the header and a node table (node id → object id,
    // `write_paged` / `read_paged`); each node is an object of its own
    // (`encode_node`). Page ids are preserved so a reopened tree charges
    // the same simulated I/O pattern as the one that built the cube. The
    // byte layout is specified in `rcube_storage::format` (*Signature
    // catalog*).

    /// Node ids in use, reachable or not (a condense detaches nodes but
    /// never renumbers them): the length of a stored node table.
    pub fn node_slots(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The store object holding node `n` as it is now — `None` when the
    /// node was never stored or has changed since.
    pub fn stored_node(&self, n: u32) -> Option<PageId> {
        self.stored[n as usize]
    }

    /// Records that `object` holds node `n` as it is now.
    pub fn set_stored_node(&mut self, n: u32, object: PageId) {
        self.stored[n as usize] = Some(object);
    }

    /// Node `n` as one store object: its id, modelled page, parent, MBR,
    /// kind and entries.
    pub fn encode_node(&self, n: u32) -> Vec<u8> {
        let node = &self.nodes[n as usize];
        let entries = match &node.kind {
            NodeKind::Internal(children) => 4 * children.len(),
            NodeKind::Leaf(entries) => entries.len() * (4 + 8 * self.dims),
        };
        let mut w = ByteWriter::with_capacity(4 + 8 + 4 + 16 * self.dims + 1 + 4 + entries);
        w.put_u32(n);
        w.put_u64(node.page.0);
        w.put_u32(node.parent.unwrap_or(u32::MAX));
        for d in 0..self.dims {
            w.put_f64(node.mbr.lo(d));
            w.put_f64(node.mbr.hi(d));
        }
        match &node.kind {
            NodeKind::Internal(children) => {
                w.put_u8(0);
                w.put_u32(children.len() as u32);
                for &c in children {
                    w.put_u32(c);
                }
            }
            NodeKind::Leaf(entries) => {
                w.put_u8(1);
                w.put_u32(entries.len() as u32);
                for (tid, point) in entries {
                    w.put_u32(*tid);
                    for &v in point {
                        w.put_f64(v);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Appends the tree header (dims, root, height, sizing) and the node
    /// table: `objects[n]` is the store object holding node `n`, one per
    /// node id.
    pub fn write_paged(&self, w: &mut ByteWriter, objects: &[PageId]) {
        assert_eq!(objects.len(), self.nodes.len(), "one object per node id");
        w.put_u64(self.dims as u64);
        w.put_u32(self.root);
        w.put_u64(self.height as u64);
        w.put_u64(self.config.max_entries as u64);
        w.put_u64(self.config.min_entries as u64);
        w.put_f64(self.config.bulk_fill);
        w.put_u64(objects.len() as u64);
        for object in objects {
            w.put_u64(object.0);
        }
    }

    /// Rebuilds the tree [`Self::write_paged`] described from `r`, fetching
    /// each node object through `load`; every node remembers its object.
    /// Anything that is not a well-formed tree — a truncated or garbled
    /// object, a node under another id, an index out of range, a cycle, a
    /// parent link that disagrees with its parent, a leaf off the tree's
    /// height, an overfull node, a tid stored twice, disordered or NaN
    /// bounds — fails typed, before any traversal could loop or panic.
    pub fn read_paged(
        r: &mut ByteReader<'_>,
        mut load: impl FnMut(PageId) -> Result<Arc<[u8]>, StorageError>,
    ) -> Result<Self, StorageError> {
        const LIMIT: usize = 1 << 30;
        let dims = r.count(64)?;
        let root = r.u32()?;
        let height = r.count(LIMIT)?;
        let max_entries = r.count(LIMIT)?;
        let min_entries = r.count(LIMIT)?;
        let bulk_fill = r.f64()?;
        if dims == 0 || height == 0 || max_entries < 2 || !(1..=max_entries).contains(&min_entries)
        {
            return Err(StorageError::Malformed("R-tree header out of range"));
        }
        let slots = r.count(r.remaining() / 8)?;
        let objects = (0..slots).map(|_| r.u64().map(PageId)).collect::<Result<Vec<_>, _>>()?;
        let nodes = objects
            .iter()
            .enumerate()
            .map(|(n, &object)| {
                decode_node(&load(object)?, n as u32, dims, max_entries, slots).map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        if root as usize >= slots {
            return Err(StorageError::Malformed("R-tree root out of range"));
        }
        // Walk what the root reaches: each node once (a cycle or a shared
        // child is caught before it could loop), linked back to the node
        // that lists it, leaves exactly at the tree's height.
        let mut tid_leaf = HashMap::new();
        let mut visited = vec![false; slots];
        let mut stack = vec![(root, None, 1usize)];
        while let Some((n, parent, depth)) = stack.pop() {
            if std::mem::replace(&mut visited[n as usize], true) {
                return Err(StorageError::Malformed("R-tree node reachable twice (cycle)"));
            }
            let node = &nodes[n as usize];
            if node.parent != parent {
                return Err(StorageError::Malformed("R-tree parent link disagrees with the tree"));
            }
            match &node.kind {
                NodeKind::Internal(children) if depth < height => {
                    stack.extend(children.iter().map(|&c| (c, Some(n), depth + 1)));
                }
                NodeKind::Leaf(entries) if depth == height => {
                    for &(tid, _) in entries {
                        if tid_leaf.insert(tid, n).is_some() {
                            return Err(StorageError::Malformed("R-tree stores a tid twice"));
                        }
                    }
                }
                _ => return Err(StorageError::Malformed("R-tree node off the tree's height")),
            }
        }
        Ok(Self {
            dims,
            nodes,
            root,
            height,
            config: RTreeConfig { max_entries, min_entries, bulk_fill },
            tid_leaf,
            stored: objects.into_iter().map(Some).collect(),
        })
    }

    fn live_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        // Nodes reachable from the root.
        let mut stack = vec![self.root];
        let mut seen = Vec::new();
        while let Some(n) = stack.pop() {
            seen.push(n);
            if let NodeKind::Internal(c) = &self.nodes[n as usize].kind {
                stack.extend_from_slice(c);
            }
        }
        seen.into_iter()
    }
}

/// One node object written by [`RTree::encode_node`], checked to be node
/// `id` of a `dims`-dimensional tree of `slots` nodes holding at most
/// `max_entries` entries each.
fn decode_node(
    bytes: &[u8],
    id: u32,
    dims: usize,
    max_entries: usize,
    slots: usize,
) -> Result<Node, StorageError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != id {
        return Err(StorageError::Malformed("R-tree node object under another node id"));
    }
    let page = PageId(r.u64()?);
    let parent = match r.u32()? {
        u32::MAX => None,
        p if (p as usize) < slots => Some(p),
        _ => return Err(StorageError::Malformed("R-tree parent index out of range")),
    };
    let (mut lo, mut hi) = (Vec::with_capacity(dims), Vec::with_capacity(dims));
    for _ in 0..dims {
        lo.push(r.f64()?);
        hi.push(r.f64()?);
    }
    // Rect::new asserts lo <= hi, so reject garbled bounds — including
    // NaN, which is incomparable — as a typed error instead of panicking.
    if !lo.iter().zip(&hi).all(|(l, h)| l <= h) {
        return Err(StorageError::Malformed("R-tree MBR bounds out of order"));
    }
    let mbr = Rect::new(lo, hi);
    let kind = r.u8()?;
    let len = r.u32()? as usize;
    let entry = if kind == 0 { 4 } else { 4 + 8 * dims };
    if len > max_entries || len * entry != r.remaining() {
        return Err(StorageError::Malformed("R-tree node entry count disagrees with its object"));
    }
    let kind = match kind {
        0 => {
            let children = (0..len).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
            if children.iter().any(|&c| c as usize >= slots) {
                return Err(StorageError::Malformed("R-tree child index out of range"));
            }
            NodeKind::Internal(children)
        }
        1 => {
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                let tid = r.u32()?;
                let point = (0..dims).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
                entries.push((tid, point));
            }
            NodeKind::Leaf(entries)
        }
        _ => return Err(StorageError::Malformed("unknown R-tree node kind")),
    };
    Ok(Node { mbr, kind, parent, page })
}

/// Guttman's quadratic split: pick the two seeds wasting the most area,
/// then greedily assign by least enlargement, honouring `min_entries`.
fn quadratic_partition(rects: &[Rect], min_entries: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2);
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union_volume(&rects[j]) - rects[i].volume() - rects[j].volume();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut g1 = vec![s1];
    let mut g2 = vec![s2];
    let mut r1 = rects[s1].clone();
    let mut r2 = rects[s2].clone();
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();
    while let Some(pos) = pick_next(&rest, &r1, &r2, rects) {
        let i = rest.swap_remove(pos);
        let remaining = rest.len();
        // Force-assign to honour the minimum fill.
        if g1.len() + remaining < min_entries {
            r1.expand_rect(&rects[i]);
            g1.push(i);
            continue;
        }
        if g2.len() + remaining < min_entries {
            r2.expand_rect(&rects[i]);
            g2.push(i);
            continue;
        }
        let e1 = r1.union_volume(&rects[i]) - r1.volume();
        let e2 = r2.union_volume(&rects[i]) - r2.volume();
        if e1 < e2 || (e1 == e2 && g1.len() <= g2.len()) {
            r1.expand_rect(&rects[i]);
            g1.push(i);
        } else {
            r2.expand_rect(&rects[i]);
            g2.push(i);
        }
    }
    (g1, g2)
}

/// PickNext: the entry with the largest preference gap between groups.
fn pick_next(rest: &[usize], r1: &Rect, r2: &Rect, rects: &[Rect]) -> Option<usize> {
    rest.iter()
        .enumerate()
        .max_by(|(_, &a), (_, &b)| {
            let da = (r1.union_volume(&rects[a]) - r2.union_volume(&rects[a])).abs();
            let db = (r1.union_volume(&rects[b]) - r2.union_volume(&rects[b])).abs();
            da.total_cmp(&db)
        })
        .map(|(pos, _)| pos)
}

impl HierIndex for RTree {
    fn dims(&self) -> usize {
        self.dims
    }

    fn root(&self) -> NodeHandle {
        NodeHandle(self.root)
    }

    fn is_leaf(&self, n: NodeHandle) -> bool {
        matches!(self.nodes[n.0 as usize].kind, NodeKind::Leaf(_))
    }

    fn region(&self, n: NodeHandle) -> Rect {
        self.mbr(n).clone()
    }

    fn children(&self, n: NodeHandle) -> Vec<NodeHandle> {
        self.child_ids(n).iter().map(|&i| NodeHandle(i)).collect()
    }

    fn leaf_entries(&self, n: NodeHandle) -> Vec<(Tid, Vec<f64>)> {
        self.leaf_slice(n).to_vec()
    }

    fn read_node(&self, disk: &DiskSim, n: NodeHandle) {
        disk.read(self.nodes[n.0 as usize].page);
    }

    fn node_path(&self, n: NodeHandle) -> Vec<u16> {
        self.path_of_node(n.0)
    }

    fn height(&self) -> usize {
        self.height
    }

    fn max_fanout(&self) -> usize {
        self.config.max_entries
    }

    fn node_count(&self) -> usize {
        self.live_nodes().count()
    }
}

/// Chunk sizes covering `n` entries with every chunk in `[min, cap]`
/// (except a lone root-level chunk smaller than `min` when `n < min`).
/// Requires `cap ≥ 2·min` so a short trailing chunk can be rebalanced.
fn pack_sizes(n: usize, cap: usize, min: usize) -> Vec<usize> {
    debug_assert!(cap >= 2 * min || n <= cap);
    let mut sizes = Vec::with_capacity(n.div_ceil(cap));
    let mut rem = n;
    while rem > 0 {
        if rem <= cap {
            sizes.push(rem);
            break;
        }
        if rem - cap < min {
            // Split the remainder into two balanced halves, both ≥ min.
            let half = rem / 2;
            sizes.push(rem - half);
            sizes.push(half);
            break;
        }
        sizes.push(cap);
        rem -= cap;
    }
    sizes
}

/// Orders points Sort-Tile-Recursively in place.
fn str_order(pts: &mut [(Tid, Vec<f64>)], dim: usize, dims: usize, leaf_cap: usize) {
    if pts.len() <= leaf_cap || dim >= dims {
        return;
    }
    pts.sort_unstable_by(|a, b| a.1[dim].total_cmp(&b.1[dim]));
    let pages = pts.len().div_ceil(leaf_cap);
    let slabs = (pages as f64).powf(1.0 / (dims - dim) as f64).ceil() as usize;
    let slab_size = pts.len().div_ceil(slabs);
    for chunk in pts.chunks_mut(slab_size) {
        str_order(chunk, dim + 1, dims, leaf_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<(Tid, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| (i as Tid, (0..dims).map(|_| rng.gen::<f64>()).collect())).collect()
    }

    /// Structural invariants: MBR containment, fill factors, parent links,
    /// tid_leaf consistency.
    fn check_invariants(t: &RTree) {
        let mut stack = vec![t.root];
        let mut tuple_count = 0;
        while let Some(n) = stack.pop() {
            let node = &t.nodes[n as usize];
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    assert!(
                        n == t.root || entries.len() >= t.config.min_entries,
                        "leaf underflow: {}",
                        entries.len()
                    );
                    assert!(entries.len() <= t.config.max_entries);
                    for (tid, p) in entries {
                        assert!(node.mbr.contains(p), "leaf MBR misses point");
                        assert_eq!(t.tid_leaf[tid], n, "tid_leaf out of date");
                        tuple_count += 1;
                    }
                }
                NodeKind::Internal(children) => {
                    assert!(
                        n == t.root || children.len() >= t.config.min_entries,
                        "internal underflow"
                    );
                    assert!(children.len() <= t.config.max_entries);
                    for &c in children {
                        assert_eq!(t.nodes[c as usize].parent, Some(n), "parent link broken");
                        assert!(
                            node.mbr.covers(&t.nodes[c as usize].mbr),
                            "child MBR escapes parent"
                        );
                        stack.push(c);
                    }
                }
            }
        }
        assert_eq!(tuple_count, t.tid_leaf.len());
    }

    /// A store for paged trees: node objects by id.
    type Objects = HashMap<PageId, Arc<[u8]>>;

    /// Stores every node of `t` afresh (object ids spaced out, as in a
    /// file) and returns the catalog entry and the objects.
    fn store_paged(t: &RTree) -> (Vec<u8>, Objects) {
        let mut objects = Objects::new();
        let ids: Vec<PageId> = (0..t.node_slots())
            .map(|n| {
                let id = PageId(100 + 3 * u64::from(n));
                objects.insert(id, t.encode_node(n).into());
                id
            })
            .collect();
        let mut w = ByteWriter::new();
        t.write_paged(&mut w, &ids);
        (w.into_bytes(), objects)
    }

    fn read_back(entry: &[u8], objects: &Objects) -> Result<RTree, StorageError> {
        RTree::read_paged(&mut ByteReader::new(entry), |id| {
            objects.get(&id).cloned().ok_or(StorageError::MissingObject(id))
        })
    }

    /// Everything a save of `t` writes but the object ids: every node's
    /// object and the header.
    fn image(t: &RTree) -> Vec<Vec<u8>> {
        let mut header = ByteWriter::new();
        t.write_paged(&mut header, &vec![PageId(0); t.node_slots() as usize]);
        (0..t.node_slots()).map(|n| t.encode_node(n)).chain([header.into_bytes()]).collect()
    }

    #[test]
    fn serialization_round_trips() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(700, 3, 11);
        let t = RTree::bulk_load(&disk, pts.clone(), RTreeConfig::small(12));
        assert!((0..t.node_slots()).all(|n| t.stored_node(n).is_none()), "built, never stored");
        let (entry, objects) = store_paged(&t);
        let back = read_back(&entry, &objects).expect("round trip");
        check_invariants(&back);
        assert_eq!(image(&back), image(&t));
        assert_eq!(back.point_dims(), t.point_dims());
        assert_eq!(back.height(), t.height());
        assert_eq!(back.node_count(), t.node_count());
        for (tid, _) in &pts {
            assert_eq!(back.tuple_path(*tid), t.tuple_path(*tid), "path of tid {tid}");
        }
        for n in 0..back.node_slots() {
            let object = back.stored_node(n).expect("a read node knows its object");
            assert_eq!(*objects[&object], *back.encode_node(n));
        }
        assert!(read_back(&entry[..10], &objects).is_err());
        assert!(read_back(&entry[..entry.len() - 1], &objects).is_err());
    }

    #[test]
    fn a_clone_shares_nodes_until_one_side_edits_them() {
        let disk = DiskSim::with_defaults();
        let built = RTree::bulk_load(&disk, random_points(600, 2, 31), RTreeConfig::small(8));
        let (entry, objects) = store_paged(&built);
        let served = read_back(&entry, &objects).unwrap();
        let before = image(&served);
        let mut writer = served.clone();
        assert!(served.nodes.iter().zip(&writer.nodes).all(|(a, b)| Arc::ptr_eq(a, b)));

        // One no-split insert and one in-place delete: each copies its leaf
        // (ancestors only where a box moved), nothing else — and exactly
        // the copies forget their stored objects.
        writer.insert(&disk, 9_000, vec![0.5, 0.5]);
        writer.delete(&disk, 17);
        check_invariants(&writer);
        let copied: Vec<u32> = (0..served.node_slots())
            .filter(|&n| !Arc::ptr_eq(&served.nodes[n as usize], &writer.nodes[n as usize]))
            .collect();
        assert!((2..=2 * served.height()).contains(&copied.len()), "copied {copied:?}");
        for n in 0..served.node_slots() {
            assert!(served.stored_node(n).is_some());
            let kept = writer.stored_node(n);
            assert_eq!(kept.is_none(), copied.contains(&n), "node {n}");
            assert!(kept.is_none() || kept == served.stored_node(n));
        }

        // Splits, a condense and re-insertions on the writer's side: the
        // served tree still encodes to the bytes it had.
        let mut rng = StdRng::seed_from_u64(32);
        for i in 0..300u32 {
            writer.insert(&disk, 10_000 + i, vec![rng.gen(), rng.gen()]);
            writer.delete(&disk, i * 2);
        }
        check_invariants(&writer);
        check_invariants(&served);
        assert_eq!(image(&served), before, "the served clone never moved");
        assert!(served.tuple_path(17).is_some() && writer.tuple_path(17).is_none());
        assert!(writer.node_slots() > served.node_slots());
        for n in served.node_slots()..writer.node_slots() {
            assert_eq!(writer.stored_node(n), None, "a new node was never stored");
        }
    }

    /// A one-node tree whose root is `root`'s encoding, under object 1.
    fn one_node(root: &[u8]) -> (Vec<u8>, Objects) {
        let mut w = ByteWriter::new();
        w.put_u64(2); // dims
        w.put_u32(0); // root
        w.put_u64(1); // height
        w.put_u64(8); // max_entries
        w.put_u64(2); // min_entries
        w.put_f64(0.7);
        w.put_u64(1); // one node
        w.put_u64(1); // … in object 1
        (w.into_bytes(), Objects::from([(PageId(1), Arc::from(root))]))
    }

    /// Node 0 of a 2-d tree: internal, no parent, unit box, `children`.
    fn internal_root(children: &[u32]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(0); // node id
        w.put_u64(0); // page
        w.put_u32(u32::MAX); // no parent
        for _ in 0..2 {
            w.put_f64(0.0);
            w.put_f64(1.0);
        }
        w.put_u8(0); // internal
        w.put_u32(children.len() as u32);
        for &c in children {
            w.put_u32(c);
        }
        w.into_bytes()
    }

    #[test]
    fn malformed_serialization_fails_typed_not_by_panic() {
        // Truncated: the catalog entry and a node object alike.
        let disk = DiskSim::with_defaults();
        let t = RTree::bulk_load(&disk, random_points(5, 2, 3), RTreeConfig::small(8));
        let (entry, objects) = store_paged(&t);
        assert!(read_back(&entry, &objects).is_ok());
        assert!(read_back(&entry[..entry.len() - 4], &objects).is_err(), "truncated table");
        let mut short = objects.clone();
        let (&id, bytes) = short.iter_mut().next().unwrap();
        *bytes = bytes[..bytes.len() - 1].into();
        assert!(read_back(&entry, &short).is_err(), "truncated node {id:?}");
        // An out-of-range child, and a node that is its own child (a
        // cycle), are rejected rather than followed.
        let (entry, objects) = one_node(&internal_root(&[7]));
        assert!(read_back(&entry, &objects).is_err(), "out-of-range child must fail");
        let (entry, objects) = one_node(&internal_root(&[0]));
        assert!(read_back(&entry, &objects).is_err(), "self-cycle must fail");
        // NaN MBR bounds fail typed too (NaN <= x is false).
        let (entry, mut objects) = store_paged(&t);
        let root = PageId(100 + 3 * u64::from(t.root)); // where `store_paged` put it
        let mut nan = objects[&root].to_vec();
        let lo = 4 + 8 + 4; // node id, page, parent: the first lo
        nan[lo..lo + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        objects.insert(root, nan.into());
        assert!(read_back(&entry, &objects).is_err(), "NaN bound must fail");
    }

    /// A tree a decode accepted must be one the tree's own operations can
    /// walk and edit: every tuple path leads to its tuple, and an insert
    /// and a delete keep it so.
    fn exercise(mut t: RTree, disk: &DiskSim) {
        let paths = t.tuple_paths();
        assert_eq!(paths.len(), t.tid_leaf.len());
        for (tid, path) in &paths {
            assert_eq!(t.tuple_path(*tid).as_ref(), Some(path));
            let mut cur = t.root();
            for &p in &path[..path.len() - 1] {
                cur = NodeHandle(t.child_ids(cur)[p as usize]);
            }
            assert_eq!(t.leaf_slice(cur)[*path.last().unwrap() as usize].0, *tid);
        }
        let _ = t.byte_size() + t.node_count();
        let point = vec![0.5; t.point_dims()];
        t.insert(disk, u32::MAX, point);
        if let Some(&(tid, _)) = paths.first() {
            t.delete(disk, tid);
        }
        assert!(t.tuple_path(u32::MAX).is_some());
    }

    #[test]
    fn decode_fuzz_gives_a_typed_error_or_a_valid_tree() {
        let disk = DiskSim::with_defaults();
        let t = RTree::bulk_load(&disk, random_points(90, 2, 41), RTreeConfig::small(6));
        let (entry, objects) = store_paged(&t);
        let ids: Vec<PageId> = {
            let mut ids: Vec<PageId> = objects.keys().copied().collect();
            ids.sort();
            ids
        };
        let mut rng = StdRng::seed_from_u64(42);
        let (mut rejected, mut accepted) = (0, 0);
        for _ in 0..3_000 {
            let (mut entry, mut objects) = (entry.clone(), objects.clone());
            let victim = ids[rng.gen_range(0..ids.len())];
            match rng.gen_range(0..5) {
                // A bit flipped in one node object…
                0 => {
                    let mut bytes = objects[&victim].to_vec();
                    let bit = rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    objects.insert(victim, bytes.into());
                }
                // … or in the header and node table.
                1 => {
                    let bit = rng.gen_range(0..entry.len() * 8);
                    entry[bit / 8] ^= 1 << (bit % 8);
                }
                // An arbitrary object in a node's place.
                2 => {
                    let len = rng.gen_range(0..200);
                    let junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    objects.insert(victim, junk.into());
                }
                // Two table entries swapped.
                3 => {
                    let (i, j) = (rng.gen_range(0..ids.len()), rng.gen_range(0..ids.len()));
                    let at = |k: usize| 44 + 8 * k;
                    for b in 0..8 {
                        entry.swap(at(i) + b, at(j) + b);
                    }
                }
                // A node object cut short.
                _ => {
                    let bytes = &objects[&victim];
                    let cut: Arc<[u8]> = bytes[..rng.gen_range(0..bytes.len())].into();
                    objects.insert(victim, cut);
                }
            }
            match read_back(&entry, &objects) {
                Ok(tree) => {
                    accepted += 1;
                    exercise(tree, &disk);
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 1_000 && accepted > 100, "{rejected} rejected, {accepted} accepted");
    }

    #[test]
    fn bulk_load_preserves_all_points() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(500, 2, 1);
        let t = RTree::bulk_load(&disk, pts.clone(), RTreeConfig::small(8));
        check_invariants(&t);
        let mut seen: Vec<Tid> = t.tuple_paths().into_iter().map(|(t, _)| t).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn page_fanout_matches_thesis_numbers() {
        assert_eq!(RTreeConfig::for_page(4096, 2).max_entries, 204);
        assert_eq!(RTreeConfig::for_page(4096, 5).max_entries, 93);
    }

    #[test]
    fn tuple_path_navigates_to_tuple() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(300, 2, 2);
        let t = RTree::bulk_load(&disk, pts.clone(), RTreeConfig::small(4));
        for (tid, point) in &pts {
            let path = t.tuple_path(*tid).unwrap();
            // Walk the path through children; the final component is the slot.
            let mut cur = t.root();
            for &p in &path[..path.len() - 1] {
                cur = t.children(cur)[p as usize];
            }
            let entries = t.leaf_entries(cur);
            let (found, pnt) = &entries[*path.last().unwrap() as usize];
            assert_eq!(found, tid);
            assert_eq!(pnt, point);
        }
    }

    #[test]
    fn insert_without_split_updates_only_new_tuple() {
        let disk = DiskSim::with_defaults();
        // Room in the leaves: fanout 8, 4 points.
        let pts = random_points(4, 2, 3);
        let mut t = RTree::bulk_load(&disk, pts, RTreeConfig::small(8));
        let ups = t.insert(&disk, 100, vec![0.5, 0.5]);
        check_invariants(&t);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].tid, 100);
        assert!(ups[0].old_path.is_none());
        assert!(ups[0].new_path.is_some());
    }

    #[test]
    fn insert_with_split_reports_moved_tuples() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(4, 2, 4);
        // Full packing (fill = 1.0) so the next insert must split.
        let cfg = RTreeConfig { max_entries: 4, min_entries: 1, bulk_fill: 1.0 };
        let mut t = RTree::bulk_load(&disk, pts, cfg);
        // 5th point into a full leaf forces a split.
        let ups = t.insert(&disk, 50, vec![0.9, 0.9]);
        check_invariants(&t);
        assert!(ups.len() > 1, "split must move at least one tuple");
        // All updates must reflect current reality.
        for u in &ups {
            assert_eq!(t.tuple_path(u.tid), u.new_path);
        }
    }

    #[test]
    fn incremental_inserts_match_full_rebuild_paths() {
        // Apply update sets to a shadow map and compare with fresh paths.
        let disk = DiskSim::with_defaults();
        let pts = random_points(64, 2, 5);
        let mut t = RTree::bulk_load(&disk, pts, RTreeConfig::small(4));
        let mut shadow: HashMap<Tid, Vec<u16>> = t.tuple_paths().into_iter().collect();
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..64u32 {
            let tid = 1000 + i;
            let p = vec![rng.gen(), rng.gen()];
            for u in t.insert(&disk, tid, p) {
                match &u.new_path {
                    Some(np) => {
                        shadow.insert(u.tid, np.clone());
                    }
                    None => {
                        shadow.remove(&u.tid);
                    }
                }
            }
            check_invariants(&t);
        }
        let truth: HashMap<Tid, Vec<u16>> = t.tuple_paths().into_iter().collect();
        assert_eq!(shadow, truth, "update sets must reconstruct the exact paths");
    }

    #[test]
    fn delete_removes_and_reports() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(40, 2, 6);
        let mut t = RTree::bulk_load(&disk, pts, RTreeConfig::small(4));
        let ups = t.delete(&disk, 7);
        check_invariants(&t);
        assert!(t.tuple_path(7).is_none());
        assert_eq!(ups[0].tid, 7);
        assert!(ups[0].new_path.is_none());
        // Remaining paths reported correctly.
        for u in &ups[1..] {
            assert_eq!(t.tuple_path(u.tid), u.new_path);
        }
    }

    /// The whole-tree reference for an update set: every tuple whose path
    /// differs between two `tuple_paths()` snapshots, order-normalized.
    fn snapshot_diff(before: &HashMap<Tid, Vec<u16>>, t: &RTree) -> Vec<PathUpdate> {
        let after: HashMap<Tid, Vec<u16>> = t.tuple_paths().into_iter().collect();
        let mut tids: Vec<Tid> = before.keys().chain(after.keys()).copied().collect();
        tids.sort_unstable();
        tids.dedup();
        tids.into_iter()
            .filter(|t| before.get(t) != after.get(t))
            .map(|tid| PathUpdate {
                tid,
                old_path: before.get(&tid).cloned(),
                new_path: after.get(&tid).cloned(),
            })
            .collect()
    }

    #[test]
    fn update_sets_equal_the_whole_tree_snapshot_diff() {
        // Fanout 6 / min 2 with wide leaves first (in-place deletes that
        // shift slots), then enough deletes to underflow and condense, with
        // inserts interleaved so freed slots are reused and leaves split.
        let disk = DiskSim::with_defaults();
        let mut t = RTree::bulk_load(&disk, random_points(240, 2, 21), RTreeConfig::small(6));
        let mut rng = StdRng::seed_from_u64(22);
        let mut live: Vec<Tid> = (0..240).collect();
        let (mut in_place, mut condensed) = (0, 0);
        for step in 0..400u32 {
            let before: HashMap<Tid, Vec<u16>> = t.tuple_paths().into_iter().collect();
            let mut got = if step % 3 == 2 || live.len() < 20 {
                let tid = 1000 + step;
                live.push(tid);
                t.insert(&disk, tid, vec![rng.gen(), rng.gen()])
            } else {
                let tid = live.swap_remove(rng.gen_range(0..live.len()));
                let leaf = t.tid_leaf[&tid];
                if t.node_len(leaf) > t.config.min_entries {
                    in_place += 1;
                } else {
                    condensed += 1;
                }
                t.delete(&disk, tid)
            };
            check_invariants(&t);
            got.sort_by_key(|u| u.tid);
            assert_eq!(got, snapshot_diff(&before, &t), "step {step}");
        }
        assert!(in_place > 50 && condensed > 10, "both delete paths ran: {in_place}/{condensed}");
        assert!(t.delete(&disk, 999_999).is_empty(), "absent tid is a no-op");
    }

    #[test]
    fn deep_delete_chain_stays_consistent() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(128, 2, 7);
        let mut t = RTree::bulk_load(&disk, pts, RTreeConfig::small(4));
        for tid in 0..100u32 {
            t.delete(&disk, tid);
            check_invariants(&t);
        }
        assert_eq!(t.tid_leaf.len(), 28);
    }

    #[test]
    fn three_dimensional_points_work() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(200, 3, 8);
        let t = RTree::bulk_load(&disk, pts, RTreeConfig::small(6));
        check_invariants(&t);
        assert_eq!(t.dims(), 3);
        assert_eq!(t.region(t.root()).dims(), 3);
    }

    #[test]
    fn node_count_and_height_reasonable() {
        let disk = DiskSim::with_defaults();
        let pts = random_points(1000, 2, 9);
        let t = RTree::bulk_load(&disk, pts, RTreeConfig::small(10));
        // Fill 0.7 -> chunks of 7: 1000/7 = 143 leaves, /7 = 21, /7 = 3,
        // /7 = 1 -> height 4.
        assert_eq!(t.height(), 4);
        assert!(t.node_count() >= 143);
    }
}
