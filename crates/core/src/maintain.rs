//! Incremental maintenance of the signature cube — Algorithm 2
//! (Section 4.2.5, Figures 4.5/4.6).
//!
//! An R-tree insertion/deletion yields a set of [`PathUpdate`]s: tuples
//! whose root-to-slot paths changed (plus the new/removed tuple itself).
//! For every materialized cuboid we group the updates by affected cell,
//! load that cell's signature (the one remaining whole-signature
//! materialization — queries go through the lazy per-node read path of
//! [`crate::sigcube`] instead), clear the old paths over the packed bit
//! words, set the new paths, and write the signature back — never touching
//! unaffected cells.
//!
//! # Batching: one rewrite per touched cell
//!
//! Algorithm 2 takes an update *set*, and the cost that matters is the
//! number of cell signatures rewritten, so a writer with many R-tree
//! operations to fold (a delta flush) does not call
//! [`apply_path_updates`] per operation. It runs all of them against the
//! tree first, feeding each returned update set to a [`PathUpdateBatch`],
//! and applies the batch's net set once: every touched cell is loaded,
//! edited and COW-rewritten exactly once however many operations hit it.
//!
//! The coalescing rule is per tid: keep the *first* `old_path` and the
//! *last* `new_path`, and drop the entry when the two ends are equal.
//! That is order-independent because a cell signature is a pure function
//! of the set of tuple paths in its cell, and slots are unique at any
//! instant: the net set says which paths left the cell's set (first old
//! paths, all distinct — they coexisted before the batch) and which
//! entered it (last new paths, all distinct — they coexist after it).
//! Clearing every old path before setting any new one, as
//! [`apply_path_updates`] always has, then yields exactly the path set the
//! sequential per-operation application ends on, even when one tuple
//! lands on the slot another vacated mid-batch.
//!
//! The write-back is patch-level copy-on-write
//! ([`SignatureCube::replace_cell`]): the rewritten cell's partials are
//! *appended* under fresh page ids, the replaced ones retired for a later
//! vacuum, and only the replaced partials' shared-node-cache entries are
//! invalidated — untouched cells keep their hot decoded nodes. On a
//! writable file-backed cube a following [`SignatureCube::commit`]
//! publishes the patch as the next generation while readers pinned on the
//! previous one keep streaming it unchanged (`rcube_storage::format`).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use rcube_index::rtree::PathUpdate;
use rcube_storage::{DiskSim, StorageError};
use rcube_table::Tid;

use crate::sigcube::SignatureCube;
use crate::signature::Signature;

/// The net update set of a sequence of R-tree operations (module docs,
/// *Batching*): feed it each operation's update set in execution order,
/// then apply [`Self::into_updates`] once.
#[derive(Debug, Default)]
pub struct PathUpdateBatch {
    by_tid: BTreeMap<Tid, PathUpdate>,
}

impl PathUpdateBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in the update set the next R-tree operation returned: a tid
    /// seen before keeps its first `old_path` and takes the new
    /// `new_path`.
    pub fn extend(&mut self, updates: Vec<PathUpdate>) {
        for u in updates {
            match self.by_tid.entry(u.tid) {
                Entry::Vacant(slot) => {
                    slot.insert(u);
                }
                Entry::Occupied(mut slot) => slot.get_mut().new_path = u.new_path,
            }
        }
    }

    /// The net updates in tid order; tuples that ended where they started
    /// are dropped.
    pub fn into_updates(self) -> Vec<PathUpdate> {
        self.by_tid.into_values().filter(|u| u.old_path != u.new_path).collect()
    }
}

/// Applies a set of path updates to every materialized cuboid.
///
/// `selection_values(tid)` supplies the tuple's selection-dimension values
/// (from the relation, including freshly inserted tuples); it is asked once
/// per update. Returns the number of cell signatures rewritten — one per
/// distinct touched cell per cuboid. A corrupt stored signature or a
/// failed retire surfaces as a typed error; cells already rewritten stay
/// rewritten in the (uncommitted) handle.
pub fn apply_path_updates(
    cube: &mut SignatureCube,
    updates: &[PathUpdate],
    selection_values: impl Fn(u32) -> Vec<u32>,
    disk: &DiskSim,
) -> Result<usize, StorageError> {
    let selections: Vec<Vec<u32>> = updates.iter().map(|u| selection_values(u.tid)).collect();
    let mut rewritten = 0;
    for dims in cube.cuboid_dims() {
        // Group updates by the affected cell of this cuboid (ordered, so
        // the append order of the rewritten partials is reproducible).
        let mut per_cell: BTreeMap<Vec<u32>, Vec<&PathUpdate>> = BTreeMap::new();
        for (u, sel) in updates.iter().zip(&selections) {
            per_cell.entry(dims.iter().map(|&d| sel[d]).collect()).or_default().push(u);
        }
        for (vals, cell_updates) in per_cell {
            // Load (or create) the cell signature.
            let mut sig = match cube.cell_signature(&dims, &vals) {
                Some(stored) => stored.try_load_full(disk, cube.store())?,
                None => Signature::empty(cube.fanout()),
            };
            // Clear every old path before setting any new one (Algorithm 2,
            // lines 6–7): updates may swap slot positions between tuples,
            // and a late clear would erase an earlier set.
            for u in &cell_updates {
                if let Some(old) = &u.old_path {
                    sig.clear_path(old);
                }
            }
            for u in &cell_updates {
                if let Some(new) = &u.new_path {
                    sig.set_path(new);
                }
            }
            cube.replace_cell(&dims, vals, &sig, disk)?;
            rewritten += 1;
        }
    }
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_index::rtree::{RTree, RTreeConfig};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Relation;

    use crate::sigcube::SignatureCubeConfig;

    /// End-to-end invariant: after incremental inserts, every cell
    /// signature equals what a from-scratch rebuild would produce.
    #[test]
    fn incremental_equals_rebuild() {
        let full = SyntheticSpec { tuples: 600, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(500);
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(6));
        let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());

        // Insert tuples 500..600 one at a time, maintaining incrementally.
        for tid in 500..600u32 {
            let point = full.ranking_point(tid);
            let updates = rtree.insert(&disk, tid, point);
            apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            )
            .unwrap();
        }

        // Rebuild from scratch over the same (mutated) R-tree and compare.
        let rebuilt = SignatureCube::build(&full, &rtree, &disk, SignatureCubeConfig::default());
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
    }

    #[test]
    fn deletion_maintenance_matches_rebuild() {
        let full = SyntheticSpec { tuples: 300, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &full, &[], RTreeConfig::small(6));
        let mut cube = SignatureCube::build(&full, &rtree, &disk, SignatureCubeConfig::default());

        for tid in 0..50u32 {
            let updates = rtree.delete(&disk, tid);
            apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            )
            .unwrap();
        }
        let rebuilt = build_over_remaining(&full, &rtree, &disk);
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
    }

    fn build_over_remaining(rel: &Relation, rtree: &RTree, disk: &DiskSim) -> SignatureCube {
        // SignatureCube::build reads paths from the R-tree, which no longer
        // contains the deleted tuples, so a direct rebuild suffices.
        SignatureCube::build(rel, rtree, disk, SignatureCubeConfig::default())
    }

    fn assert_cubes_equal(
        rel: &Relation,
        rtree: &RTree,
        a: &SignatureCube,
        b: &SignatureCube,
        disk: &DiskSim,
    ) {
        for d in 0..rel.schema().num_selection() {
            let card = rel.schema().selection_dim(d).cardinality();
            for v in 0..card {
                let sa = a.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, a.store()));
                let sb = b.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, b.store()));
                match (sa, sb) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        let mut px = x.paths();
                        let mut py = y.paths();
                        px.sort();
                        py.sort();
                        assert_eq!(px, py, "cell ({d}={v}) paths diverged");
                    }
                    (x, y) => panic!(
                        "cell ({d}={v}) presence diverged: incremental={} rebuilt={}",
                        x.is_some(),
                        y.is_some()
                    ),
                }
            }
        }
        let _ = rtree;
    }

    #[test]
    fn update_touches_only_affected_cells() {
        let full = SyntheticSpec { tuples: 201, cardinality: 10, ..Default::default() }.generate();
        let base = full.prefix(200);
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(32));
        let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());
        // A no-split insert updates exactly one cell per cuboid.
        let updates = rtree.insert(&disk, 200, full.ranking_point(200));
        if updates.len() == 1 {
            let rewritten = apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            )
            .unwrap();
            assert_eq!(rewritten, full.schema().num_selection());
        }
    }
}
