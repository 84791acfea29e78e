//! Incremental maintenance of the signature cube — Algorithm 2
//! (Section 4.2.5, Figures 4.5/4.6), node-granular.
//!
//! An R-tree insertion/deletion yields a set of [`PathUpdate`]s: tuples
//! whose root-to-slot paths changed (plus the new/removed tuple itself).
//! For every materialized cuboid the updates are grouped by affected cell,
//! and each touched cell is *spliced*
//! ([`SignatureCube::splice_cell`](crate::sigcube::SignatureCube)): no
//! cell is ever decoded or re-encoded whole.
//!
//! # The splice: what is read, what is rewritten
//!
//! A stored signature is a run of partials, each a run of
//! `[SID][node coding]` entries in strictly increasing SID order, with the
//! catalog holding each partial's first SID. A path touches one node per
//! level, and a node's SID is arithmetic on the path, so per touched cell
//! the splice
//!
//! 1. **reads** only the partials some SID on an old or a new path routes
//!    to — a header scan into the `(SID, offset)` directory queries use,
//!    no payload decoded — and **decodes** only those nodes;
//! 2. **edits** the decoded copies exactly as the thesis' lines 6–7 edit a
//!    tree: every old path cleared before any new one is set (a clear
//!    drops the nodes it empties and clears their bit in the parent,
//!    upward; a set creates the nodes it misses);
//! 3. **rewrites** only the partials holding a node whose bits ended up
//!    different — a bit cleared and set again changes nothing. A rebuilt
//!    partial is the old one's node sequence with dropped nodes left out,
//!    changed ones re-encoded by `coding::encode_best`, created ones
//!    inserted at their SID, and **every other node copied as the bit
//!    range it occupied**, SID prefix included.
//!
//! Copying is exact, not approximately right: `encode_best` is a pure
//! function of a node's bits and recorded length, `decode_node` restores
//! both, so re-encoding an untouched node — which is what the whole-cell
//! rewrite did — reproduces its stored coding bit for bit. Only the cut
//! into partials can differ from a whole-cell rewrite; the tests hold the
//! two to the same decoded bits *and* the same codings, node by node.
//!
//! **Where a node goes, and the cut rules.** Partials partition the SID
//! line at their first SIDs, so a created node belongs to the partial
//! whose range holds its SID — the one already scanned to learn the node
//! was missing. A rebuilt stream that still fits a page stays one partial:
//! the `1 − α` of the page `StoredSignature::write` left free is there to
//! be grown into. One that does not is cut at node boundaries by `write`'s
//! own rule — close a piece once it reaches `α · page` — so every piece
//! gets its slack back (a piece is also closed before a node that would
//! push it past the page). A partial whose nodes all dropped disappears
//! from the catalog. `partials`, `first_sid` and `total_bits` are patched
//! in place; untouched partials keep their page ids, and with them their
//! buffer-pool frames and their node tables in the shared node cache. A
//! rewritten partial's table is made by the splice from the same piece
//! list (copied nodes keep their decoded bits, re-encoded ones enter
//! decoded) and replaces the old one ([`crate::nodecache`]).
//!
//! **When the cell is rewritten instead.** If the clears drop the root,
//! nothing of the old cell survives and what it becomes depends on the new
//! paths alone: it is written fresh through `StoredSignature::write` (or
//! removed, with no new path). That is the only way a cell's depth can
//! change — a root split or shrink moves every tuple of every cell — and
//! it also covers a cell emptied and refilled in one batch, and a cell
//! that did not exist.
//!
//! **What a long run accrues.** Every rewritten partial is appended under
//! a fresh page id and the one it replaces retired, so the file grows by
//! the dirty partials (plus the catalog) per commit until a vacuum; cuts
//! leave a cell in more, emptier partials than a fresh `write` would
//! (each between `α · page` and a page, the last of a cut possibly
//! small), and drops leave short ones. None of that is repacked here, and
//! a vacuum copies partials verbatim — it reclaims retired pages, not
//! slack. Rebuilding the cube is what re-cuts cells.
//!
//! # Batching: one splice per touched cell
//!
//! Algorithm 2 takes an update *set*, so a writer with many R-tree
//! operations to fold (a delta flush) does not call
//! [`apply_path_updates`] per operation. It runs all of them against the
//! tree first, feeding each returned update set to a [`PathUpdateBatch`],
//! and applies the batch's net set once: every touched cell is spliced
//! exactly once however many operations hit it.
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
//! The write-back is patch-level copy-on-write: rewritten partials are
//! *appended*, the replaced ones retired for a later vacuum, and only the
//! replaced partials' node tables leave the shared node cache. On a
//! writable file-backed cube a following [`SignatureCube::commit`]
//! publishes the patch as the next generation while readers pinned on the
//! previous one keep streaming it unchanged (`rcube_storage::format`).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use rcube_index::rtree::PathUpdate;
use rcube_storage::{DiskSim, StorageError};
use rcube_table::Tid;

use crate::sigcube::SignatureCube;

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

/// What one [`apply_path_updates`] call rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceCounts {
    /// Cells the update set touched — one per distinct cell per cuboid.
    pub cells_rewritten: usize,
    /// Partial-signature objects appended in their place.
    pub partials_rewritten: usize,
    /// Node codings produced by `encode_best`; every other node of a
    /// rewritten partial was copied as stored bits.
    pub nodes_reencoded: usize,
}

/// Groups `updates` by the cell of `dims` each tuple belongs to (ordered,
/// so the append order of the rewritten partials is reproducible).
fn group_by_cell<'u>(
    dims: &[usize],
    updates: &'u [PathUpdate],
    selections: &[Vec<u32>],
) -> BTreeMap<Vec<u32>, Vec<&'u PathUpdate>> {
    let mut per_cell: BTreeMap<Vec<u32>, Vec<&PathUpdate>> = BTreeMap::new();
    for (u, sel) in updates.iter().zip(selections) {
        per_cell.entry(dims.iter().map(|&d| sel[d]).collect()).or_default().push(u);
    }
    per_cell
}

/// Applies a set of path updates to every materialized cuboid.
///
/// `selection_values(tid)` supplies the tuple's selection-dimension values
/// (from the relation, including freshly inserted tuples); it is asked once
/// per update. The cube records the values of every tuple that ends up in
/// the tree where they differ from what it holds — a new tuple's, in
/// practice — so the next commit stores them. Values outside the cube's
/// selection schema, a corrupt stored partial, an ill-formed path or a
/// failed append surface as a typed error; cells already spliced stay
/// spliced in the (uncommitted) handle, the failing cell is left as it
/// was.
pub fn apply_path_updates(
    cube: &mut SignatureCube,
    updates: &[PathUpdate],
    selection_values: impl Fn(u32) -> Vec<u32>,
    disk: &DiskSim,
) -> Result<MaintenanceCounts, StorageError> {
    let selections: Vec<Vec<u32>> = updates.iter().map(|u| selection_values(u.tid)).collect();
    for (u, sel) in updates.iter().zip(&selections) {
        if u.new_path.is_some() && cube.tuples.get(u.tid).as_ref() != Some(sel) {
            cube.tuples.set(u.tid, sel)?;
        }
    }
    let mut counts = MaintenanceCounts::default();
    for dims in cube.cuboid_dims() {
        for (vals, cell_updates) in group_by_cell(&dims, updates, &selections) {
            let olds: Vec<&[u16]> =
                cell_updates.iter().filter_map(|u| u.old_path.as_deref()).collect();
            let news: Vec<&[u16]> =
                cell_updates.iter().filter_map(|u| u.new_path.as_deref()).collect();
            let spliced = cube.splice_cell(&dims, vals, &olds, &news, disk)?;
            counts.cells_rewritten += 1;
            counts.partials_rewritten += spliced.partials;
            counts.nodes_reencoded += spliced.nodes;
        }
    }
    Ok(counts)
}

/// The whole-cell Algorithm 2 the splice replaced — load every partial of
/// a touched cell, edit the tree, re-encode all of it — kept as the
/// reference [`apply_path_updates`] is tested against.
#[cfg(test)]
pub(crate) fn apply_path_updates_whole_cell(
    cube: &mut SignatureCube,
    updates: &[PathUpdate],
    selection_values: impl Fn(u32) -> Vec<u32>,
    disk: &DiskSim,
) -> Result<(), StorageError> {
    use crate::signature::Signature;
    let selections: Vec<Vec<u32>> = updates.iter().map(|u| selection_values(u.tid)).collect();
    for dims in cube.cuboid_dims() {
        for (vals, cell_updates) in group_by_cell(&dims, updates, &selections) {
            let mut sig = match cube.cell_signature(&dims, &vals) {
                Some(stored) => stored.load_full(disk, cube.store())?,
                None => Signature::empty(cube.fanout()),
            };
            for old in cell_updates.iter().filter_map(|u| u.old_path.as_deref()) {
                sig.clear_path(old);
            }
            for new in cell_updates.iter().filter_map(|u| u.new_path.as_deref()) {
                sig.set_path(new);
            }
            cube.replace_cell(&dims, vals, &sig, disk)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_index::rtree::{RTree, RTreeConfig};
    use rcube_index::HierIndex;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Relation;

    use crate::sigcube::{set_bits, SignatureCubeConfig};

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
                let sa =
                    a.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, a.store()).unwrap());
                let sb =
                    b.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, b.store()).unwrap());
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

    // ---- splice ≡ whole-cell ≡ rebuild, node by node ----------------------

    const CARD: u32 = 3;

    fn selection_of(rel: &Relation) -> impl Fn(u32) -> Vec<u32> + '_ {
        |t| (0..rel.schema().num_selection()).map(|d| rel.selection_value(t, d)).collect()
    }

    /// One R-tree driven through `batches` of random inserts and deletes;
    /// every batch's net update set goes through the splice and through the
    /// whole-cell reference, and after every batch both must hold, cell by
    /// cell and node by node, the same decoded bits *and* the same codings
    /// (only the cut into partials may differ), the set bits of a cube
    /// built from scratch over the tree, and a well-formed catalog — with
    /// `within_page`, every partial inside one `page` (the splice never
    /// writes a longer one; `StoredSignature::write` may, when `α · page`
    /// plus one node does not fit). Returns the lowest and the tallest
    /// tree a batch ended on and whether some cell emptied and refilled.
    fn check_splice_history(
        fanout: usize,
        alpha: f64,
        page: usize,
        seed: u64,
        batches: usize,
        within_page: bool,
    ) -> (usize, usize, bool) {
        let full =
            SyntheticSpec { tuples: 600, cardinality: CARD, seed, ..Default::default() }.generate();
        let base = full.prefix(120);
        let disk = DiskSim::new(page, 0);
        let config = SignatureCubeConfig { alpha, cuboids: None };
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(fanout));
        let mut spliced = SignatureCube::build(&base, &rtree, &disk, config.clone());
        let mut reference = SignatureCube::build(&base, &rtree, &disk, config.clone());
        // splitmix64: this crate's tests carry no `rand`.
        let mut state = seed ^ 0xA5A5;
        let mut below = move |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut live: Vec<u32> = base.tids().collect();
        let (mut next, mut filling) = (120u32, true);
        let (mut lowest, mut tallest, mut refilled) = (rtree.height(), rtree.height(), false);
        let mut was_empty = std::collections::BTreeSet::new();
        for batch_no in 0..batches {
            let mut batch = PathUpdateBatch::new();
            for _ in 0..1 + below(40) {
                // Fill until the root has split, drain until cells empty
                // out and the root shrinks, fill again.
                if live.len() >= 300 {
                    filling = false;
                } else if live.len() <= 4 {
                    filling = true;
                }
                let insert = next < 600 && below(100) < if filling { 90 } else { 10 };
                if !insert && live.len() < 2 {
                    continue; // keep a tuple in the tree
                }
                if insert {
                    batch.extend(rtree.insert(&disk, next, full.ranking_point(next)));
                    live.push(next);
                    next += 1;
                } else {
                    let tid = live.swap_remove(below(live.len()));
                    batch.extend(rtree.delete(&disk, tid));
                }
            }
            let updates = batch.into_updates();
            let counts =
                apply_path_updates(&mut spliced, &updates, selection_of(&full), &disk).unwrap();
            apply_path_updates_whole_cell(&mut reference, &updates, selection_of(&full), &disk)
                .unwrap();
            let on_paths: usize = updates
                .iter()
                .map(|u| {
                    u.old_path.as_ref().map_or(0, Vec::len)
                        + u.new_path.as_ref().map_or(0, Vec::len)
                })
                .sum();
            assert!(counts.nodes_reencoded <= on_paths * spliced.cuboid_dims().len());

            let rebuilt = SignatureCube::build(&full, &rtree, &disk, config.clone());
            for dims in spliced.cuboid_dims() {
                for v in 0..CARD {
                    let cell = (&dims[..], &[v][..]);
                    let got = spliced.cell_nodes(cell.0, cell.1);
                    assert_eq!(
                        got,
                        reference.cell_nodes(cell.0, cell.1),
                        "batch {batch_no} cell {cell:?}"
                    );
                    let got = set_bits(&got);
                    let want = set_bits(&rebuilt.cell_nodes(cell.0, cell.1));
                    assert_eq!(got, want, "batch {batch_no} cell {cell:?} vs rebuild");
                    if got.is_empty() {
                        was_empty.insert((dims.clone(), v));
                    } else {
                        refilled |= was_empty.contains(&(dims.clone(), v));
                        let page = within_page.then_some(page);
                        spliced.assert_cell_wellformed(cell.0, cell.1, page);
                    }
                }
            }
            lowest = lowest.min(rtree.height());
            tallest = tallest.max(rtree.height());
        }
        (lowest, tallest, refilled)
    }

    #[test]
    fn splice_equals_whole_cell_equals_rebuild() {
        // (fanout, alpha, page bytes): one partial per cell; a few nodes per
        // partial with room to grow; one or two nodes per partial.
        let (mut grew, mut shrank, mut refilled) = (false, false, false);
        for (i, &(fanout, alpha, page)) in
            [(6, 0.75, 4096), (5, 0.75, 64), (8, 0.5, 96), (6, 1e-6, 4096), (4, 0.3, 48)]
                .iter()
                .enumerate()
        {
            let start = RTree::over_relation(
                &DiskSim::with_defaults(),
                &SyntheticSpec { tuples: 120, cardinality: CARD, ..Default::default() }.generate(),
                &[],
                RTreeConfig::small(fanout),
            )
            .height();
            let (lowest, tallest, again) =
                check_splice_history(fanout, alpha, page, 7 + i as u64, 40, true);
            grew |= tallest > start;
            shrank |= lowest < start;
            refilled |= again;
        }
        assert!(grew && shrank, "the histories split and shrank the root ({grew}, {shrank})");
        assert!(refilled, "some cell was emptied and filled again");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(16))]
        #[test]
        fn proptest_splice_equals_whole_cell_equals_rebuild(
            fanout in 4usize..10,
            alpha_millis in 1usize..900,
            page in 40usize..160,
            seed in 0u64..10_000,
        ) {
            check_splice_history(fanout, alpha_millis as f64 / 1000.0, page, seed, 14, false);
        }
    }

    /// Inserts `tids` of `full` one flush-sized batch at a time.
    fn insert_all(
        cube: &mut SignatureCube,
        rtree: &mut RTree,
        full: &Relation,
        tids: std::ops::Range<u32>,
        disk: &DiskSim,
    ) {
        for chunk in tids.collect::<Vec<_>>().chunks(16) {
            let mut batch = PathUpdateBatch::new();
            for &tid in chunk {
                batch.extend(rtree.insert(disk, tid, full.ranking_point(tid)));
            }
            apply_path_updates(cube, &batch.into_updates(), selection_of(full), disk).unwrap();
        }
    }

    fn partial_counts(cube: &SignatureCube) -> Vec<usize> {
        (0..CARD).map(|v| cube.cell_signature(&[0], &[v]).map_or(0, |s| s.num_partials())).collect()
    }

    #[test]
    fn a_partial_that_outgrows_its_page_is_cut_at_a_node_boundary() {
        // 64-byte pages hold some seven nodes; a fanout wide enough that
        // the root never splits, so every cell keeps its depth and is only
        // ever grown through the splice — more partials can only mean
        // overflow cuts.
        let full =
            SyntheticSpec { tuples: 800, cardinality: CARD, ..Default::default() }.generate();
        let base = full.prefix(300);
        let disk = DiskSim::new(64, 0);
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(40));
        let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());
        let (height, before) = (rtree.height(), partial_counts(&cube));
        insert_all(&mut cube, &mut rtree, &full, 300..800, &disk);
        assert_eq!(rtree.height(), height, "no root split: the cells were spliced, not rewritten");
        let after = partial_counts(&cube);
        assert!(after.iter().zip(&before).all(|(a, b)| a > b), "{before:?} -> {after:?}");
        for v in 0..CARD {
            cube.assert_cell_wellformed(&[0], &[v], Some(64));
        }
        let rebuilt = SignatureCube::build(&full, &rtree, &disk, SignatureCubeConfig::default());
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
    }

    #[test]
    fn a_partial_whose_nodes_all_drop_leaves_the_catalog() {
        // One or two nodes per partial; deleting most of the tuples (never
        // all of a cell's) drops leaf-level nodes, and with them partials.
        let full =
            SyntheticSpec { tuples: 600, cardinality: CARD, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &full, &[], RTreeConfig::small(8));
        let config = SignatureCubeConfig { alpha: 1e-6, cuboids: None };
        let mut cube = SignatureCube::build(&full, &rtree, &disk, config.clone());
        let before = partial_counts(&cube);
        let doomed: Vec<u32> = full.tids().filter(|t| t % 8 != 0).collect();
        for chunk in doomed.chunks(16) {
            let mut batch = PathUpdateBatch::new();
            for &tid in chunk {
                batch.extend(rtree.delete(&disk, tid));
            }
            apply_path_updates(&mut cube, &batch.into_updates(), selection_of(&full), &disk)
                .unwrap();
        }
        let after = partial_counts(&cube);
        assert!(after.iter().zip(&before).all(|(a, b)| 0 < *a && a < b), "{before:?} -> {after:?}");
        for v in 0..CARD {
            cube.assert_cell_wellformed(&[0], &[v], Some(disk.page_size()));
        }
        let rebuilt = SignatureCube::build(&full, &rtree, &disk, config);
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
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
            assert_eq!(rewritten.cells_rewritten, full.schema().num_selection());
        }
    }
}
