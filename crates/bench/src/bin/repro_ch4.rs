//! Reproduces the Chapter 4 evaluation (Table 4.2, Figures 4.8–4.13): the
//! signature-based ranking cube — construction and space costs, adaptive
//! compression, incremental maintenance, and query performance against the
//! Boolean-first and ranking-first strategies.

use rcube_baseline::{BooleanFirst, RankingFirst};
use rcube_bench::{base_tuples, cost_ms, print_figure, synthetic, time_ms, Series};
use rcube_core::coding::{self, Scheme};
use rcube_core::maintain::{apply_path_updates, PathUpdateBatch};
use rcube_core::query::{Query, RankedSource};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::{GeneralSq, Linear, RankFn, SqDist};
use rcube_index::bptree::BPlusTree;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_index::HierIndex;
use rcube_storage::{BitWriter, DiskSim};
use rcube_table::gen::DataDist;
use rcube_table::Relation;

/// Chapter 4 defaults: Db = 3 Boolean dims, Dp = 3 ranking dims, C = 100.
fn ch4_data(tuples: usize, c: u32, seed: u64) -> Relation {
    synthetic(tuples, 3, c, 3, DataDist::Uniform, seed)
}

fn build_all(rel: &Relation, disk: &DiskSim) -> (RTree, SignatureCube) {
    let rtree = RTree::over_relation(disk, rel, &[], RTreeConfig::for_page(4096, 3));
    let cube = SignatureCube::build(rel, &rtree, disk, SignatureCubeConfig::default());
    (rtree, cube)
}

fn table4_2() {
    // The running example: a 28-bit array under every coding scheme
    // (M = 32). The thesis reports BL/RL/PI/PC sizes for this node.
    let bits = rcube_storage::PackedBits::from_bools(
        &"0110000000110000000000000001".chars().map(|c| c == '1').collect::<Vec<bool>>(),
    );
    println!();
    println!("== Table 4.2: encoding a node with M = 32 ==");
    println!("{:>10} {:>12}", "scheme", "total bits");
    for scheme in Scheme::all() {
        let mut w = BitWriter::new();
        match coding::encode_with(scheme, &bits, 32, &mut w) {
            Some(total) => println!("{:>10} {:>12}", format!("{scheme:?}"), total),
            None => println!("{:>10} {:>12}", format!("{scheme:?}"), "n/a"),
        }
    }
    let mut w = BitWriter::new();
    let best = coding::encode_best(&bits, 32, &mut w);
    println!("adaptive choice: {best:?} ({} bits)", w.len());
}

fn fig4_8() {
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base];
    let mut series = Series::default();
    for &t in &ts {
        let rel = ch4_data(t, 100, 41);
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 3));
        let (_, cube_ms) =
            time_ms(|| SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default()));
        // The thesis builds its R-tree by per-tuple insertion (bulk loading
        // is what the *cube* construction consumes); measure that mode.
        let (_, rtree_ms) = time_ms(|| {
            let mut t2 = RTree::bulk_load(
                &disk,
                vec![(0, rel.ranking_point(0))],
                RTreeConfig::for_page(4096, 3),
            );
            for tid in 1..rel.len() as u32 {
                t2.insert(&disk, tid, rel.ranking_point(tid));
            }
        });
        let (_, btree_ms) = time_ms(|| {
            for d in 0..rel.schema().num_selection() {
                let entries =
                    rel.tids().map(|tid| (rel.selection_value(tid, d) as f64, tid)).collect();
                let _ = BPlusTree::bulk_load(&disk, entries);
            }
        });
        series.push("P-Cube", cube_ms);
        series.push("R-tree", rtree_ms);
        series.push("B-tree", btree_ms);
    }
    print_figure(
        "Fig 4.8",
        "construction time (ms) w.r.t. T",
        "T",
        &ts.map(|t| t.to_string()),
        &series,
    );
}

fn fig4_9() {
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base];
    let mut series = Series::default();
    for &t in &ts {
        let rel = ch4_data(t, 100, 42);
        let disk = DiskSim::with_defaults();
        let (rtree, cube) = build_all(&rel, &disk);
        let btree_bytes: usize = (0..rel.schema().num_selection())
            .map(|d| {
                let entries =
                    rel.tids().map(|tid| (rel.selection_value(tid, d) as f64, tid)).collect();
                BPlusTree::bulk_load(&disk, entries).byte_size()
            })
            .sum();
        series.push("R-tree (MB)", rtree.byte_size() as f64 / 1e6);
        series.push("B-tree (MB)", btree_bytes as f64 / 1e6);
        series.push("P-Cube (MB)", cube.materialized_bytes() as f64 / 1e6);
    }
    print_figure("Fig 4.9", "materialized size w.r.t. T", "T", &ts.map(|t| t.to_string()), &series);
}

fn fig4_10() {
    // Adaptive compression vs baseline-only coding as cardinality grows.
    let cs = [10u32, 100, 1000];
    let mut series = Series::default();
    for &c in &cs {
        let rel = ch4_data(base_tuples(), c, 43);
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 3));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        series.push("Compress (MB)", cube.materialized_bytes() as f64 / 1e6);
        // Baseline coding size: every signature node stored as a raw
        // length-prefixed bit array (the BL scheme), estimated from the
        // per-cell signature structure.
        let m = rtree.max_fanout();
        let mut bl_bits = 0usize;
        for d in 0..rel.schema().num_selection() {
            for v in 0..c {
                if let Some(stored) = cube.cell_signature(&[d], &[v]) {
                    let sig = stored.load_full(&disk, cube.store());
                    bl_bits += sig.node_count() * (rcube_storage::bits_for(m) + m);
                }
            }
        }
        series.push("Baseline (MB)", bl_bits as f64 / 8.0 / 1e6);
    }
    print_figure(
        "Fig 4.10",
        "signature size w.r.t. cardinality C (adaptive vs BL-only)",
        "C",
        &cs.map(|c| c.to_string()),
        &series,
    );
}

fn fig4_11() {
    // Incremental update cost: inserting 1 / 10 / 100 tuples.
    let base = base_tuples();
    let sizes = [base / 2, base, 2 * base];
    let batches = [1usize, 10, 100];
    let mut series = Series::default();
    for &batch in &batches {
        for &t in &sizes {
            let full = ch4_data(t + 200, 100, 44);
            let rel = full.prefix(t);
            let disk = DiskSim::with_defaults();
            let mut rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 3));
            let mut cube =
                SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
            // Batch maintenance (Algorithm 2 takes a *set* of new tuples):
            // collect every path update, then apply them cell-by-cell once.
            let (_, ms) = time_ms(|| {
                let mut updates = PathUpdateBatch::new();
                for tid in t as u32..(t + batch) as u32 {
                    updates.extend(rtree.insert(&disk, tid, full.ranking_point(tid)));
                }
                apply_path_updates(
                    &mut cube,
                    &updates.into_updates(),
                    |x| {
                        (0..full.schema().num_selection())
                            .map(|d| full.selection_value(x, d))
                            .collect()
                    },
                    &disk,
                )
                .expect("apply path updates");
            });
            series.push(&format!("T={t}"), ms);
        }
    }
    print_figure(
        "Fig 4.11",
        "incremental update time (ms) w.r.t. batch size",
        "#inserted",
        &batches.map(|b| b.to_string()),
        &series,
    );
}

fn fig4_12() {
    let rel = ch4_data(base_tuples(), 10, 45);
    let disk = DiskSim::with_defaults();
    let (rtree, cube) = build_all(&rel, &disk);
    let bf = BooleanFirst::build(&rel, &disk);
    let ks = [10usize, 20, 50, 100];
    let mut series = Series::default();
    for &k in &ks {
        let q = Query::select([(0, 5), (1, 9)]).rank(Linear::new(vec![0.7, 1.1, 0.4])).top(k);
        disk.clear_buffer();
        let (res, cpu) = time_ms(|| bf.source(&rel, &disk).query(&q.plan()).unwrap());
        series.push("Boolean", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| RankingFirst::source(&rtree, &rel, &disk).query(&q.plan()).unwrap());
        series.push("Ranking", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) = time_ms(|| cube.source(&rtree, &disk).query(&q.plan()).unwrap());
        series.push("Signature", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 4.12",
        "execution time (ms) w.r.t. k",
        "k",
        &ks.map(|k| k.to_string()),
        &series,
    );
}

fn fig4_13() {
    let rel = ch4_data(base_tuples(), 10, 46);
    let disk = DiskSim::with_defaults();
    let (rtree, cube) = build_all(&rel, &disk);
    let functions: Vec<(&str, Box<dyn RankFn>)> = vec![
        ("Linear", Box::new(Linear::new(vec![0.9, 0.5, 1.3]))),
        ("Distance", Box::new(SqDist::new(vec![0.2, 0.8, 0.5]))),
        ("General", Box::new(GeneralSq::mse3())),
    ];
    let mut series = Series::default();
    let mut xs = Vec::new();
    for (name, f) in functions {
        xs.push(name.to_string());
        let q = Query::select([(0, 5), (1, 9)]).rank(f).top(100);
        disk.clear_buffer();
        let rf = RankingFirst::source(&rtree, &rel, &disk).query(&q.plan()).unwrap();
        series.push("Ranking", rf.stats.blocks_read as f64);
        disk.clear_buffer();
        let sig = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        series.push("Signature", sig.stats.blocks_read as f64);
    }
    print_figure(
        "Fig 4.13",
        "R-tree block accesses w.r.t. ranking function (k = 100)",
        "function",
        &xs,
        &series,
    );
}

fn main() {
    let mut figures: Vec<rcube_bench::Figure> = vec![
        ("table4_2", Box::new(table4_2)),
        ("fig4_8", Box::new(fig4_8)),
        ("fig4_9", Box::new(fig4_9)),
        ("fig4_10", Box::new(fig4_10)),
        ("fig4_11", Box::new(fig4_11)),
        ("fig4_12", Box::new(fig4_12)),
        ("fig4_13", Box::new(fig4_13)),
    ];
    rcube_bench::run_selected(&mut figures);
}
