//! Chapter 5's scenario: top-k with an *ad-hoc, non-monotone* ranking
//! function over separately indexed attributes — the territory where
//! TA-style sort-merge does not apply at all.
//!
//! ```sh
//! cargo run --release --example adhoc_index_merge
//! ```

use ranking_cube::func::{Expr, RankFn};
use ranking_cube::index::HierIndex;
use ranking_cube::merge::{Expansion, MergeAlgo};
use ranking_cube::prelude::*;
use ranking_cube::table::gen::SyntheticSpec;

fn main() {
    let rel = SyntheticSpec { tuples: 50_000, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();

    // One B+-tree per ranking attribute (the per-attribute indexes a
    // database would already have).
    let trees: Vec<BPlusTree> = (0..2)
        .map(|d| {
            BPlusTree::bulk_load_with_fanout(
                &disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                64,
            )
        })
        .collect();
    let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();

    // The merge engine, with and without the join-signature.
    let plain = IndexMerge::new(idx.clone());
    let with_sig = IndexMerge::new(idx).with_full_signature(&disk);
    println!(
        "join-signature: {} state signatures, {} KB",
        with_sig.signatures()[0].num_states(),
        with_sig.signature_bytes() / 1000
    );

    // An ad-hoc function assembled from the expression AST:
    // f = (A − B²)² + |A − 0.5| — non-monotone, non-convex.
    let f = Expr::var(0)
        .sub(Expr::var(1).square())
        .square()
        .add(Expr::var(0).sub(Expr::constant(0.5)).abs());
    println!("\ntop-5 by (A − B²)² + |A − 0.5|:");

    let top5 = Query::all().rank(f.clone()).top(5);
    let res = with_sig.source(MergeConfig::default(), &disk).query(&top5.plan()).unwrap();
    for (tid, score) in &res.items {
        let p = rel.ranking_point(*tid);
        println!("  t{tid}: A = {:.3}, B = {:.3}, f = {score:.5}", p[0], p[1]);
    }

    // Compare the three search configurations on work done.
    let top100 = Query::all().rank(f.clone()).top(100);
    for (name, engine, algo) in [
        ("basic (Algorithm 4)", &plain, MergeAlgo::Basic),
        ("progressive (Algorithm 5)", &plain, MergeAlgo::Progressive),
        ("progressive + join-signature", &with_sig, MergeAlgo::Progressive),
    ] {
        let cfg = MergeConfig { algo, expansion: Expansion::Auto };
        let r = engine.source(cfg, &disk).query(&top100.plan()).unwrap();
        println!(
            "{name:>30}: {:>7} states, {:>5} leaf reads, peak heap {:>6}",
            r.stats.states_generated, r.stats.blocks_read, r.stats.peak_heap
        );
    }

    // Verify against a scan.
    let mut naive: Vec<(u32, f64)> =
        rel.tids().map(|t| (t, f.score(&rel.ranking_point(t)))).collect();
    naive.sort_by(|a, b| a.1.total_cmp(&b.1));
    assert_eq!(res.tids(), naive[..5].iter().map(|&(t, _)| t).collect::<Vec<_>>());
    println!("\n(answers verified against a full scan)");
}
