//! The thesis' worked examples, reproduced end to end.

use ranking_cube::cube::gridcube::{GridCubeConfig, GridRankingCube};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::signature::Signature;
use ranking_cube::func::{Linear, SqDist};
use ranking_cube::index::{BPlusTree, HierIndex};
use ranking_cube::merge::{IndexMerge, JoinSigCursor, JoinSignature, MergeConfig};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::{Dim, RelationBuilder, Schema};

/// Table 3.1 + Section 3.3.3: the demonstrative top-2 query must return
/// t1 and t3 (0-based: tids 0 and 2) with scores 0.10 and 0.30.
#[test]
fn section_3_3_3_demonstrative_example() {
    let schema = Schema::new(vec![Dim::cat("A1", 2), Dim::cat("A2", 2)], vec!["N1", "N2"]);
    let mut b = RelationBuilder::new(schema);
    b.push(&[0, 0], &[0.05, 0.05]); // t1
    b.push(&[0, 1], &[0.65, 0.70]); // t2
    b.push(&[0, 0], &[0.05, 0.25]); // t3
    b.push(&[0, 0], &[0.35, 0.15]); // t4
    let rel = b.finish();
    let disk = DiskSim::with_defaults();
    let cube =
        GridRankingCube::build(&rel, &disk, GridCubeConfig { block_size: 1, ..Default::default() });
    // select top 2 * where A1 = 1 and A2 = 1 sort by N1 + N2 (1-based in
    // the thesis; our values are 0-based).
    let q = Query::select([(0, 0), (1, 0)]).rank(Linear::uniform(2)).top(2);
    let res = cube.source(&disk).query(&q.plan()).unwrap();
    assert_eq!(res.tids(), vec![0, 2]);
    assert!((res.items[0].1 - 0.10).abs() < 1e-12);
    assert!((res.items[1].1 - 0.30).abs() < 1e-12);
}

/// Table 4.1 / Figure 4.3: the (A = a1)-signature built from the paths of
/// t1 ⟨1,1,1⟩ and t3 ⟨1,2,1⟩ (0-based ⟨0,0,0⟩, ⟨0,1,0⟩).
#[test]
fn figure_4_3_signature_structure() {
    let sig = Signature::from_paths(2, [[0u16, 0, 0].as_slice(), [0u16, 1, 0].as_slice()]);
    assert!(sig.contains_path(&[0]));
    assert!(sig.contains_path(&[0, 0, 0]));
    assert!(sig.contains_path(&[0, 1, 0]));
    assert!(!sig.contains_path(&[1]));
    assert!(!sig.contains_path(&[0, 0, 1]));
    assert_eq!(sig.node_count(), 4); // root + N1 + two leaves
}

/// Table 5.2 / Figure 5.1/5.2: merging B+-tree indices on A and B. The
/// top-1 query with f = (A − B)² must return t4 (A=50, B=45, f=25), and
/// the joint state (a1, b1) must be empty in the join-signature.
#[test]
fn table_5_2_index_merge_example() {
    let a = [10.0, 20.0, 30.0, 50.0, 54.0, 72.0, 75.0, 85.0];
    let bvals = [40.0, 60.0, 65.0, 45.0, 10.0, 30.0, 36.0, 62.0];
    let disk = DiskSim::with_defaults();
    let ta = BPlusTree::bulk_load_with_fanout(
        &disk,
        a.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
        3,
    );
    let tb = BPlusTree::bulk_load_with_fanout(
        &disk,
        bvals.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
        3,
    );
    let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
    let merge = IndexMerge::new(idx.clone()).with_full_signature(&disk);

    // f = (A − B)²: SqDist-style via GeneralSq over both attributes.
    let f = ranking_cube::func::GeneralSq::new(vec![(0, 1.0), (1, -1.0)], vec![]);
    let q = Query::all().rank(f).top(1);
    let res = merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap();
    assert_eq!(res.tids(), vec![3]); // t4, 0-based tid 3
    assert!((res.items[0].1 - 25.0).abs() < 1e-9);

    // Figure 5.2: (a1, b1) is an empty joint state.
    let paths = ranking_cube::merge::joinsig::collect_tuple_paths(&idx);
    let sig = JoinSignature::build(&idx, &paths, &disk);
    let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
    assert!(!cursor.check_child(&vec![vec![], vec![]], &[0, 0]));
    assert!(cursor.check_child(&vec![vec![], vec![]], &[1, 1]));
}

/// Intro Example 1, Q2: quadratic target queries over the cube.
#[test]
fn intro_example_1_q2_quadratic_target() {
    let schema =
        Schema::new(vec![Dim::cat("maker", 3), Dim::cat("type", 2)], vec!["price", "mileage"]);
    let mut b = RelationBuilder::new(schema);
    // Ford convertibles at various (price, mileage) in units of $50k/150k.
    b.push(&[1, 1], &[0.40, 0.07]); // $20k, 10.5k mi — the sweet spot
    b.push(&[1, 1], &[0.80, 0.50]);
    b.push(&[1, 1], &[0.10, 0.90]);
    b.push(&[0, 1], &[0.40, 0.07]); // right specs, wrong maker
    b.push(&[1, 0], &[0.40, 0.07]); // right specs, wrong type
    let rel = b.finish();
    let disk = DiskSim::with_defaults();
    let cube =
        GridRankingCube::build(&rel, &disk, GridCubeConfig { block_size: 1, ..Default::default() });
    let f = SqDist::new(vec![0.40, 1.0 / 15.0]);
    let q = Query::select([(0, 1), (1, 1)]).rank(f).top(1);
    let res = cube.source(&disk).query(&q.plan()).unwrap();
    assert_eq!(res.tids(), vec![0]);
}
