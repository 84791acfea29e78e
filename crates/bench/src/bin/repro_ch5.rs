//! Reproduces the Chapter 5 evaluation (Table 5.1, Figures 5.7–5.22):
//! index-merge with progressive expansion and join-signatures, against
//! table scan and the basic merge.

use rcube_baseline::TableScan;
use rcube_bench::{base_tuples, cost_ms, print_figure, synthetic, time_ms, Series};
use rcube_core::query::{Query, RankedSource};
use rcube_func::{Constrained, GeneralSq, Linear, RankFn, SqDist};
use rcube_index::bptree::BPlusTree;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_index::HierIndex;
use rcube_merge::{Expansion, IndexMerge, MergeAlgo, MergeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::{forest_cover, DataDist};
use rcube_table::Relation;

const BTREE_FANOUT: usize = 64;

fn ch5_data(tuples: usize, dims: usize, seed: u64) -> Relation {
    synthetic(tuples, 3, 20, dims, DataDist::Uniform, seed)
}

fn btrees(rel: &Relation, disk: &DiskSim, fanout: usize) -> Vec<BPlusTree> {
    (0..rel.schema().num_ranking())
        .map(|d| {
            BPlusTree::bulk_load_with_fanout(
                disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                fanout,
            )
        })
        .collect()
}

/// The three controlled functions of Section 5.4.2 over two attributes.
fn fs2() -> SqDist {
    SqDist::new(vec![0.35, 0.65])
}
fn fg2() -> GeneralSq {
    GeneralSq::fg()
}
fn fc2() -> Constrained<Linear> {
    Constrained::new(Linear::uniform(2), 1, 0.25, 0.55)
}

struct Ch5Setup {
    rel: Relation,
    disk: DiskSim,
    trees: Vec<BPlusTree>,
    scan: TableScan,
}

fn ch5_setup(tuples: usize, dims: usize, seed: u64) -> Ch5Setup {
    let rel = ch5_data(tuples, dims, seed);
    let disk = DiskSim::with_defaults();
    let trees = btrees(&rel, &disk, BTREE_FANOUT);
    let scan = TableScan::new(&rel, &disk);
    Ch5Setup { rel, disk, trees, scan }
}

fn time_vs_k(fig: &str, title: &str, f: impl RankFn + Clone + 'static) {
    // Larger T than the other figures: the index-merge vs table-scan
    // crossover needs the scan to cost enough pages (the paper runs 1M+).
    let s = ch5_setup(5 * base_tuples(), 2, 51);
    let idx: Vec<&dyn HierIndex> = s.trees.iter().map(|t| t as &dyn HierIndex).collect();
    let plain = IndexMerge::new(idx.clone());
    let with_sig = IndexMerge::new(idx).with_full_signature(&s.disk);
    let ks = [10usize, 20, 50, 100];
    let mut series = Series::default();
    let basic = MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto };
    for &k in &ks {
        let q = Query::all().rank(f.clone()).top(k);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| s.scan.source(&s.rel, &s.disk).query(&q.plan()).unwrap());
        series.push("TS", cost_ms(cpu, res.stats.io));
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| plain.source(basic, &s.disk).query(&q.plan()).unwrap());
        series.push("BL", cost_ms(cpu, res.stats.io));
        s.disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| plain.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap());
        series.push("PE", cost_ms(cpu, res.stats.io));
        s.disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| with_sig.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap());
        series.push("PE+SIG", cost_ms(cpu, res.stats.io));
    }
    print_figure(fig, title, "K", &ks.map(|k| k.to_string()), &series);
}

fn table5_1() {
    // Basic vs improved on f = (A − B²)², top-100.
    let s = ch5_setup(2 * base_tuples(), 2, 50);
    let idx: Vec<&dyn HierIndex> = s.trees.iter().map(|t| t as &dyn HierIndex).collect();
    let basic = IndexMerge::new(idx.clone());
    let improved = IndexMerge::new(idx).with_full_signature(&s.disk);
    let q = Query::all().rank(fg2()).top(100);
    let full = MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto };
    let b = basic.source(full, &s.disk).query(&q.plan()).unwrap();
    let i = improved.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap();
    println!();
    println!("== Table 5.1: significance of the two challenges (f = (A−B²)², top-100) ==");
    println!("{:>12} {:>18} {:>14}", "Index-Merge", "States Generated", "Disk Accesses");
    println!("{:>12} {:>18} {:>14}", "Basic", b.stats.states_generated, b.stats.blocks_read);
    println!("{:>12} {:>18} {:>14}", "Improved", i.stats.states_generated, i.stats.blocks_read);
}

fn fig5_7() {
    time_vs_k("Fig 5.7", "execution time (ms) w.r.t. K, f = fs", fs2());
}
fn fig5_8() {
    time_vs_k("Fig 5.8", "execution time (ms) w.r.t. K, f = fg", fg2());
}
fn fig5_9() {
    time_vs_k("Fig 5.9", "execution time (ms) w.r.t. K, f = fc", fc2());
}

fn fig5_10_11_12() {
    let s = ch5_setup(base_tuples(), 2, 52);
    let idx: Vec<&dyn HierIndex> = s.trees.iter().map(|t| t as &dyn HierIndex).collect();
    let plain = IndexMerge::new(idx.clone());
    let with_sig = IndexMerge::new(idx).with_full_signature(&s.disk);
    let functions = [
        ("fs", Query::all().rank(fs2()).top(100)),
        ("fg", Query::all().rank(fg2()).top(100)),
        ("fc", Query::all().rank(fc2()).top(100)),
    ];
    let mut disk_series = Series::default();
    let mut states_series = Series::default();
    let mut heap_series = Series::default();
    let mut xs = Vec::new();
    let basic = MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto };
    for (name, q) in &functions {
        xs.push(name.to_string());
        let b = plain.source(basic, &s.disk).query(&q.plan()).unwrap();
        let p = plain.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap();
        let g = with_sig.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap();
        disk_series.push("BL", b.stats.blocks_read as f64);
        disk_series.push("PE", p.stats.blocks_read as f64);
        disk_series.push("PE+SIG(idx)", g.stats.blocks_read as f64);
        disk_series.push("PE+SIG(sig)", g.stats.sig_loads as f64);
        states_series.push("BL", b.stats.states_generated as f64);
        states_series.push("PE", p.stats.states_generated as f64);
        states_series.push("PE+SIG", g.stats.states_generated as f64);
        heap_series.push("BL", b.stats.peak_heap as f64);
        heap_series.push("PE", p.stats.peak_heap as f64);
        heap_series.push("PE+SIG", g.stats.peak_heap as f64);
    }
    print_figure("Fig 5.10", "disk accesses w.r.t. f (k = 100)", "f", &xs, &disk_series);
    print_figure("Fig 5.11", "states generated w.r.t. f (k = 100)", "f", &xs, &states_series);
    print_figure("Fig 5.12", "peak heap size w.r.t. f (k = 100)", "f", &xs, &heap_series);
}

fn fig5_13() {
    // Real data (CoverType surrogate), 3 B+-trees, fs over the 3 attrs.
    let rel = forest_cover(base_tuples(), 53);
    let disk = DiskSim::with_defaults();
    let trees = btrees(&rel, &disk, BTREE_FANOUT);
    let scan = TableScan::new(&rel, &disk);
    let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
    let plain = IndexMerge::new(idx.clone());
    let with_sig = IndexMerge::new(idx).with_full_signature(&disk);
    let f = SqDist::new(vec![0.4, 0.5, 0.6]);
    let ks = [10usize, 20, 50, 100];
    let mut series = Series::default();
    for &k in &ks {
        let q = Query::all().rank(f.clone()).top(k);
        disk.clear_buffer();
        let (res, cpu) = time_ms(|| scan.source(&rel, &disk).query(&q.plan()).unwrap());
        series.push("TS", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| plain.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| with_sig.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE+SIG", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 5.13",
        "execution time (ms) w.r.t. K, real data",
        "K",
        &ks.map(|k| k.to_string()),
        &series,
    );
}

fn fig5_14() {
    // Two d-dimensional R-trees, fs over 2d attributes.
    let ds = [1usize, 2, 3, 4];
    let mut series = Series::default();
    for &d in &ds {
        let rel = ch5_data(base_tuples() / 2, 2 * d, 54);
        let disk = DiskSim::with_defaults();
        let dims_a: Vec<usize> = (0..d).collect();
        let dims_b: Vec<usize> = (d..2 * d).collect();
        let ra = RTree::over_relation(&disk, &rel, &dims_a, RTreeConfig::for_page(4096, d));
        let rb = RTree::over_relation(&disk, &rel, &dims_b, RTreeConfig::for_page(4096, d));
        let idx: Vec<&dyn HierIndex> = vec![&ra, &rb];
        let scan = TableScan::new(&rel, &disk);
        let merge = IndexMerge::new(idx.clone()).with_full_signature(&disk);
        let plain = IndexMerge::new(idx);
        let f = SqDist::new((0..2 * d).map(|i| 0.3 + 0.05 * i as f64).collect());
        let q = Query::all().rank(f).top(100);
        disk.clear_buffer();
        let (res, cpu) = time_ms(|| scan.source(&rel, &disk).query(&q.plan()).unwrap());
        series.push("TS", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| plain.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE", cost_ms(cpu, res.stats.io));
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE+SIG", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 5.14",
        "execution time (ms) w.r.t. R-tree dimensionality",
        "d per tree",
        &ds.map(|d| d.to_string()),
        &series,
    );
}

fn fig5_15_16_17() {
    // 3-way merge: PE vs pairwise (2d) vs full (3d) signatures.
    let s = ch5_setup(base_tuples(), 3, 55);
    let idx: Vec<&dyn HierIndex> = s.trees.iter().map(|t| t as &dyn HierIndex).collect();
    let pe = IndexMerge::new(idx.clone());
    let sig2 = IndexMerge::new(idx.clone()).with_pairwise_signatures(&s.disk);
    let sig3 = IndexMerge::new(idx).with_full_signature(&s.disk);
    let f = SqDist::new(vec![0.3, 0.5, 0.7]);
    let ks = [10usize, 20, 50, 100];
    let (mut ts, mut hs, mut ds) = (Series::default(), Series::default(), Series::default());
    for &k in &ks {
        let q = Query::all().rank(f.clone()).top(k);
        for (name, engine) in [("PE", &pe), ("PE+2dSIG", &sig2), ("PE+3dSIG", &sig3)] {
            s.disk.clear_buffer();
            let (res, cpu) = time_ms(|| {
                engine.source(MergeConfig::default(), &s.disk).query(&q.plan()).unwrap()
            });
            ts.push(name, cost_ms(cpu, res.stats.io));
            hs.push(name, res.stats.peak_heap as f64);
            ds.push(name, (res.stats.blocks_read + res.stats.sig_loads) as f64);
        }
    }
    let xs = ks.map(|k| k.to_string());
    print_figure("Fig 5.15", "execution time (ms) w.r.t. K, 3 indices", "K", &xs, &ts);
    print_figure("Fig 5.16", "peak heap size w.r.t. K, 3 indices", "K", &xs, &hs);
    print_figure("Fig 5.17", "disk accesses w.r.t. K, 3 indices", "K", &xs, &ds);
}

fn fig5_18() {
    // Partial attributes: two 2-d R-trees (4 attrs), ranking on 2..4 of
    // them (unused attributes get weight 0).
    let rel = ch5_data(base_tuples() / 2, 4, 56);
    let disk = DiskSim::with_defaults();
    let ra = RTree::over_relation(&disk, &rel, &[0, 1], RTreeConfig::for_page(4096, 2));
    let rb = RTree::over_relation(&disk, &rel, &[2, 3], RTreeConfig::for_page(4096, 2));
    let idx: Vec<&dyn HierIndex> = vec![&ra, &rb];
    let merge = IndexMerge::new(idx).with_full_signature(&disk);
    let used = [2usize, 3, 4];
    let mut series = Series::default();
    for &u in &used {
        let weights: Vec<f64> = (0..4).map(|i| if i < u { 1.0 } else { 0.0 }).collect();
        let q = Query::all().rank(SqDist::weighted(vec![0.4; 4], weights)).top(100);
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE+SIG", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 5.18",
        "execution time (ms) w.r.t. attributes used in ranking",
        "#attrs",
        &used.map(|u| u.to_string()),
        &series,
    );
}

fn fig5_19() {
    // Node size sweep: B+-tree fanout standing in for page size.
    let fanouts = [16usize, 32, 64, 128];
    let mut series = Series::default();
    for &m in &fanouts {
        let rel = ch5_data(base_tuples(), 2, 57);
        let disk = DiskSim::with_defaults();
        let trees = btrees(&rel, &disk, m);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let merge = IndexMerge::new(idx).with_full_signature(&disk);
        let q = Query::all().rank(fs2()).top(100);
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        series.push("PE+SIG", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 5.19",
        "execution time (ms) w.r.t. node size (fanout)",
        "fanout",
        &fanouts.map(|m| m.to_string()),
        &series,
    );
}

fn fig5_20_21_22() {
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base];
    let mut time_series = Series::default();
    let mut build_series = Series::default();
    let mut size_series = Series::default();
    for &t in &ts {
        let rel = ch5_data(t, 2, 58);
        let disk = DiskSim::with_defaults();
        let trees = btrees(&rel, &disk, BTREE_FANOUT);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let (merge, build_ms) = time_ms(|| IndexMerge::new(idx.clone()).with_full_signature(&disk));
        let q = Query::all().rank(fg2()).top(100);
        disk.clear_buffer();
        let (res, cpu) =
            time_ms(|| merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap());
        time_series.push("PE+SIG", cost_ms(cpu, res.stats.io));
        build_series.push("join-signature", build_ms);
        size_series.push("join-signature (KB)", merge.signature_bytes() as f64 / 1e3);
    }
    let xs = ts.map(|t| t.to_string());
    print_figure("Fig 5.20", "execution time (ms) w.r.t. T", "T", &xs, &time_series);
    print_figure(
        "Fig 5.21",
        "join-signature construction time (ms) w.r.t. T",
        "T",
        &xs,
        &build_series,
    );
    print_figure("Fig 5.22", "join-signature size w.r.t. T", "T", &xs, &size_series);
}

fn main() {
    let mut figures: Vec<rcube_bench::Figure> = vec![
        ("table5_1", Box::new(table5_1)),
        ("fig5_7", Box::new(fig5_7)),
        ("fig5_8", Box::new(fig5_8)),
        ("fig5_9", Box::new(fig5_9)),
        ("fig5_10_11_12", Box::new(fig5_10_11_12)),
        ("fig5_13", Box::new(fig5_13)),
        ("fig5_14", Box::new(fig5_14)),
        ("fig5_15_16_17", Box::new(fig5_15_16_17)),
        ("fig5_18", Box::new(fig5_18)),
        ("fig5_19", Box::new(fig5_19)),
        ("fig5_20_21_22", Box::new(fig5_20_21_22)),
    ];
    rcube_bench::run_selected(&mut figures);
}
