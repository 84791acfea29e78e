//! Reproduces the Chapter 7 evaluation (Figures 7.3–7.14): skylines with
//! Boolean predicates — the signature method against Boolean-first (BNL)
//! and ranking-first baselines, plus drill-down / roll-up heap reuse.

use rcube_bench::{base_tuples, cost_ms, print_figure, synthetic, time_ms, Series};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_skyline::bbs::skyline_ranking_first;
use rcube_skyline::bnl::boolean_first_skyline;
use rcube_skyline::{SkylineEngine, SkylineQuery};
use rcube_storage::DiskSim;
use rcube_table::gen::DataDist;
use rcube_table::Relation;

struct Ch7Setup {
    rel: Relation,
    disk: DiskSim,
    rtree: RTree,
    cube: SignatureCube,
}

fn ch7_setup_with(rel: Relation, fanout: Option<usize>) -> Ch7Setup {
    let disk = DiskSim::with_defaults();
    let dp = rel.schema().num_ranking();
    let config = match fanout {
        Some(m) => RTreeConfig::small(m),
        None => RTreeConfig::for_page(4096, dp),
    };
    let rtree = RTree::over_relation(&disk, &rel, &[], config);
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    Ch7Setup { rel, disk, rtree, cube }
}

fn ch7_setup(tuples: usize, c: u32, dp: usize, dist: DataDist, seed: u64) -> Ch7Setup {
    ch7_setup_with(synthetic(tuples, 3, c, dp, dist, seed), None)
}

fn rows_per_page(rel: &Relation) -> usize {
    (4096 / (4 * rel.schema().num_selection() + 8 * rel.schema().num_ranking() + 4)).max(1)
}

/// One measurement point: (time, disk, peak heap) per method.
fn measure(s: &Ch7Setup, q: &SkylineQuery, series: (&mut Series, &mut Series, &mut Series)) {
    let (ts, ds, hs) = series;
    s.disk.clear_buffer();
    let (res, cpu) = time_ms(|| boolean_first_skyline(&s.rel, &s.disk, q, rows_per_page(&s.rel)));
    ts.push("Boolean", cost_ms(cpu, res.stats.io));
    ds.push("Boolean", res.stats.io.disk_reads as f64);
    hs.push("Boolean", res.stats.tuples_scored as f64);
    s.disk.clear_buffer();
    let (res, cpu) = time_ms(|| skyline_ranking_first(&s.rtree, &s.rel, q, &s.disk));
    ts.push("Ranking", cost_ms(cpu, res.stats.io));
    ds.push("Ranking", res.stats.io.disk_reads as f64);
    hs.push("Ranking", res.stats.peak_heap as f64);
    s.disk.clear_buffer();
    let engine = SkylineEngine::new(&s.rtree, &s.cube);
    let (res, cpu) = time_ms(|| engine.skyline(q, &s.disk).expect("skyline"));
    ts.push("Signature", cost_ms(cpu, res.0.stats.io));
    ds.push("Signature", res.0.stats.io.disk_reads as f64);
    hs.push("Signature", res.0.stats.peak_heap as f64);
}

fn default_query() -> SkylineQuery {
    SkylineQuery::new(vec![(0, 1)], vec![0, 1])
}

fn fig7_3_4_5() {
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base];
    let (mut t_s, mut d_s, mut h_s) = (Series::default(), Series::default(), Series::default());
    for &t in &ts {
        let s = ch7_setup(t, 20, 2, DataDist::Uniform, 71);
        measure(&s, &default_query(), (&mut t_s, &mut d_s, &mut h_s));
    }
    let xs = ts.map(|t| t.to_string());
    print_figure("Fig 7.3", "execution time (ms) w.r.t. T", "T", &xs, &t_s);
    print_figure("Fig 7.4", "disk accesses w.r.t. T", "T", &xs, &d_s);
    print_figure("Fig 7.5", "peak candidate heap size w.r.t. T", "T", &xs, &h_s);
}

fn fig7_6() {
    let cs = [10u32, 20, 50, 100];
    let (mut t_s, mut d_s, mut h_s) = (Series::default(), Series::default(), Series::default());
    for &c in &cs {
        let s = ch7_setup(base_tuples(), c, 2, DataDist::Uniform, 72);
        measure(&s, &default_query(), (&mut t_s, &mut d_s, &mut h_s));
    }
    print_figure("Fig 7.6", "execution time (ms) w.r.t. C", "C", &cs.map(|c| c.to_string()), &t_s);
}

fn fig7_7() {
    let dists =
        [("E", DataDist::Uniform), ("C", DataDist::Correlated), ("A", DataDist::AntiCorrelated)];
    let (mut t_s, mut d_s, mut h_s) = (Series::default(), Series::default(), Series::default());
    let mut xs = Vec::new();
    for (name, dist) in dists {
        xs.push(name.to_string());
        let s = ch7_setup(base_tuples(), 20, 2, dist, 73);
        measure(&s, &default_query(), (&mut t_s, &mut d_s, &mut h_s));
    }
    print_figure("Fig 7.7", "execution time (ms) w.r.t. distribution S", "S", &xs, &t_s);
}

fn fig7_8() {
    let dps = [2usize, 3, 4];
    let (mut t_s, mut d_s, mut h_s) = (Series::default(), Series::default(), Series::default());
    for &dp in &dps {
        let s = ch7_setup(base_tuples(), 20, dp, DataDist::Uniform, 74);
        let q = SkylineQuery::new(vec![(0, 1)], (0..dp).collect());
        measure(&s, &q, (&mut t_s, &mut d_s, &mut h_s));
    }
    print_figure(
        "Fig 7.8",
        "execution time (ms) w.r.t. preference dimensionality Dp",
        "Dp",
        &dps.map(|d| d.to_string()),
        &t_s,
    );
}

fn fig7_9() {
    // R-tree node capacity sweep (the `m/M` knob of Section 4.2.1).
    let ms = [16usize, 32, 64, 128];
    let mut series = Series::default();
    for &m in &ms {
        let s = ch7_setup_with(synthetic(base_tuples(), 3, 20, 2, DataDist::Uniform, 75), Some(m));
        let engine = SkylineEngine::new(&s.rtree, &s.cube);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.skyline(&default_query(), &s.disk).expect("skyline"));
        series.push("Signature", cost_ms(cpu, res.0.stats.io));
    }
    print_figure(
        "Fig 7.9",
        "execution time (ms) w.r.t. node capacity M",
        "M",
        &ms.map(|m| m.to_string()),
        &series,
    );
}

fn fig7_10() {
    // Hardness: predicate selectivity shrinks as conditions stack up.
    let s = ch7_setup(base_tuples(), 4, 2, DataDist::Uniform, 76);
    let preds = [vec![(0usize, 1u32)], vec![(0, 1), (1, 2)], vec![(0, 1), (1, 2), (2, 3)]];
    let (mut t_s, mut d_s, mut h_s) = (Series::default(), Series::default(), Series::default());
    let mut xs = Vec::new();
    for conds in &preds {
        xs.push(format!("{:.3}", 0.25f64.powi(conds.len() as i32)));
        let q = SkylineQuery::new(conds.clone(), vec![0, 1]);
        measure(&s, &q, (&mut t_s, &mut d_s, &mut h_s));
    }
    print_figure(
        "Fig 7.10",
        "execution time (ms) w.r.t. hardness (selectivity)",
        "selectivity",
        &xs,
        &t_s,
    );
}

fn fig7_11() {
    // Number of Boolean predicates: signature assembly cost vs pruning.
    let s = ch7_setup(base_tuples(), 10, 2, DataDist::Uniform, 77);
    let engine = SkylineEngine::new(&s.rtree, &s.cube);
    let counts = [0usize, 1, 2, 3];
    let mut series = Series::default();
    for &n in &counts {
        let conds: Vec<(usize, u32)> = (0..n).map(|d| (d, 1u32)).collect();
        let q = SkylineQuery::new(conds, vec![0, 1]);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.skyline(&q, &s.disk).expect("skyline"));
        series.push("Signature", cost_ms(cpu, res.0.stats.io));
        series.push("sig loads", res.0.stats.sig_loads as f64);
    }
    print_figure(
        "Fig 7.11",
        "execution time w.r.t. number of Boolean predicates",
        "#predicates",
        &counts.map(|c| c.to_string()),
        &series,
    );
}

fn fig7_12() {
    // Signature loading vs query time breakdown.
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base];
    let mut series = Series::default();
    for &t in &ts {
        let s = ch7_setup(t, 20, 2, DataDist::Uniform, 78);
        let engine = SkylineEngine::new(&s.rtree, &s.cube);
        let q = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.skyline(&q, &s.disk).expect("skyline"));
        let sig_ms = res.0.stats.sig_loads as f64 * rcube_bench::READ_MS;
        series.push("signature load (ms)", sig_ms);
        series.push("total query (ms)", cost_ms(cpu, res.0.stats.io));
    }
    print_figure(
        "Fig 7.12",
        "signature loading time vs query time",
        "T",
        &ts.map(|t| t.to_string()),
        &series,
    );
}

fn fig7_13() {
    let s = ch7_setup(base_tuples(), 10, 2, DataDist::Uniform, 79);
    let engine = SkylineEngine::new(&s.rtree, &s.cube);
    let drill_dims = [1usize, 2];
    let mut series = Series::default();
    let mut xs = Vec::new();
    let base_q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
    let (_, session) = engine.skyline(&base_q, &s.disk).expect("skyline");
    for &d in &drill_dims {
        xs.push(format!("+A{}", d + 1));
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.drill_down(&session, d, 2, &s.disk).expect("skyline"));
        series.push("drill-down (reuse)", cost_ms(cpu, res.0.stats.io));
        let fresh_q = SkylineQuery::new(vec![(0, 1), (d, 2)], vec![0, 1]);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.skyline(&fresh_q, &s.disk).expect("skyline"));
        series.push("new query", cost_ms(cpu, res.0.stats.io));
    }
    print_figure("Fig 7.13", "drill-down vs new query (ms)", "added pred", &xs, &series);
}

fn fig7_14() {
    let s = ch7_setup(base_tuples(), 10, 2, DataDist::Uniform, 80);
    let engine = SkylineEngine::new(&s.rtree, &s.cube);
    let mut series = Series::default();
    let mut xs = Vec::new();
    let base_q = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
    let (_, session) = engine.skyline(&base_q, &s.disk).expect("skyline");
    for &d in &[1usize, 0] {
        xs.push(format!("-A{}", d + 1));
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.roll_up(&session, d, &s.disk).expect("skyline"));
        series.push("roll-up (reuse)", cost_ms(cpu, res.0.stats.io));
        let fresh_q = SkylineQuery::new(base_q.selection.roll_up(d).conds().to_vec(), vec![0, 1]);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| engine.skyline(&fresh_q, &s.disk).expect("skyline"));
        series.push("new query", cost_ms(cpu, res.0.stats.io));
    }
    print_figure("Fig 7.14", "roll-up vs new query (ms)", "removed pred", &xs, &series);
}

fn main() {
    let mut figures: Vec<rcube_bench::Figure> = vec![
        ("fig7_3_4_5", Box::new(fig7_3_4_5)),
        ("fig7_6", Box::new(fig7_6)),
        ("fig7_7", Box::new(fig7_7)),
        ("fig7_8", Box::new(fig7_8)),
        ("fig7_9", Box::new(fig7_9)),
        ("fig7_10", Box::new(fig7_10)),
        ("fig7_11", Box::new(fig7_11)),
        ("fig7_12", Box::new(fig7_12)),
        ("fig7_13", Box::new(fig7_13)),
        ("fig7_14", Box::new(fig7_14)),
    ];
    rcube_bench::run_selected(&mut figures);
}
