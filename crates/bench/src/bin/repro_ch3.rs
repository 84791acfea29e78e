//! Reproduces the Chapter 3 evaluation (Figures 3.4–3.15): the grid
//! ranking cube and ranking fragments against the DBMS baseline and the
//! rank-mapping approach.

use rcube_baseline::{BooleanFirst, RankMapping};
use rcube_bench::{
    base_tuples, cost_ms, print_figure, query_batch, query_of, synthetic, time_ms, Series,
    QUERIES_PER_POINT,
};
use rcube_core::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, RankedSource};
use rcube_func::Linear;
use rcube_index::BPlusTree;
use rcube_storage::DiskSim;
use rcube_table::gen::{forest_cover, DataDist};
use rcube_table::workload::QuerySpec;
use rcube_table::{Relation, Selection};

/// One measurement of the three methods over a query batch; returns
/// average milliseconds per query.
struct Setup {
    rel: Relation,
    disk: DiskSim,
    cube: GridRankingCube,
    rm: RankMapping,
    bl: BooleanFirst,
}

fn setup(rel: Relation, block: usize, cuboids: CuboidSpec) -> Setup {
    let disk = DiskSim::with_defaults();
    let cube = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: block, ranking_dims: Vec::new(), cuboids },
    );
    let rm = RankMapping::build(&rel, &disk);
    let bl = BooleanFirst::build(&rel, &disk);
    Setup { rel, disk, cube, rm, bl }
}

fn default_setup(tuples: usize) -> Setup {
    setup(synthetic(tuples, 3, 20, 2, DataDist::Uniform, 11), 300, CuboidSpec::AllSubsets)
}

/// A ranking-fragments cube (Section 3.4): fragments of size `f`, `P` = 300.
fn fragments(rel: &Relation, disk: &DiskSim, f: usize) -> GridRankingCube {
    let config =
        GridCubeConfig { block_size: 300, cuboids: CuboidSpec::Fragments(f), ..Default::default() };
    GridRankingCube::build(rel, disk, config)
}

fn avg_times(s: &Setup, queries: &[QuerySpec]) -> (f64, f64, f64) {
    let (mut tc, mut tr, mut tb) = (0.0, 0.0, 0.0);
    for q in queries {
        let query = query_of(q);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| s.cube.source(&s.disk).query(&query.plan()).unwrap());
        tc += cost_ms(cpu, res.stats.io);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| s.rm.source(&s.rel, &s.disk).query(&query.plan()).unwrap());
        tr += cost_ms(cpu, res.stats.io);
        s.disk.clear_buffer();
        let (res, cpu) = time_ms(|| s.bl.source(&s.rel, &s.disk).query(&query.plan()).unwrap());
        tb += cost_ms(cpu, res.stats.io);
    }
    let n = queries.len() as f64;
    (tc / n, tr / n, tb / n)
}

fn fig3_4() {
    let s = default_setup(base_tuples());
    let ks = [5usize, 10, 15, 20];
    let mut series = Series::default();
    for &k in &ks {
        let qs = query_batch(&s.rel, 2, 2, k, 1.0, QUERIES_PER_POINT, 21);
        let (c, r, b) = avg_times(&s, &qs);
        series.push("ranking cube", c);
        series.push("rank mapping", r);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.4",
        "query execution time (ms) w.r.t. k",
        "k",
        &ks.map(|k| k.to_string()),
        &series,
    );
}

fn fig3_5() {
    let s = default_setup(base_tuples());
    let us = [1.0, 2.0, 3.0, 4.0, 5.0];
    let mut series = Series::default();
    for &u in &us {
        let qs = query_batch(&s.rel, 2, 2, 10, u, QUERIES_PER_POINT, 22);
        let (c, r, b) = avg_times(&s, &qs);
        series.push("ranking cube", c);
        series.push("rank mapping", r);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.5",
        "query execution time (ms) w.r.t. query skewness u",
        "u",
        &us.map(|u| format!("{u}")),
        &series,
    );
}

fn fig3_6() {
    // Data with 4 ranking dimensions; functions over r of them.
    let s = setup(
        synthetic(base_tuples(), 3, 20, 4, DataDist::Uniform, 13),
        300,
        CuboidSpec::AllSubsets,
    );
    let rs = [2usize, 3, 4];
    let mut series = Series::default();
    for &r in &rs {
        let qs = query_batch(&s.rel, 2, r, 10, 1.0, QUERIES_PER_POINT, 23);
        let (c, rm, b) = avg_times(&s, &qs);
        series.push("ranking cube", c);
        series.push("rank mapping", rm);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.6",
        "query execution time (ms) w.r.t. r (dims in ranking function)",
        "r",
        &rs.map(|r| r.to_string()),
        &series,
    );
}

fn fig3_7() {
    let base = base_tuples();
    let ts = [base / 2, base, 2 * base, 3 * base];
    let mut series = Series::default();
    for &t in &ts {
        let s = default_setup(t);
        let qs = query_batch(&s.rel, 2, 2, 10, 1.0, QUERIES_PER_POINT, 24);
        let (c, r, b) = avg_times(&s, &qs);
        series.push("ranking cube", c);
        series.push("rank mapping", r);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.7",
        "query execution time (ms) w.r.t. database size T",
        "T",
        &ts.map(|t| t.to_string()),
        &series,
    );
}

fn fig3_8() {
    let cs = [10u32, 20, 50, 100];
    let mut series = Series::default();
    for &c in &cs {
        let s = setup(
            synthetic(base_tuples(), 3, c, 2, DataDist::Uniform, 14),
            300,
            CuboidSpec::AllSubsets,
        );
        let qs = query_batch(&s.rel, 2, 2, 10, 1.0, QUERIES_PER_POINT, 25);
        let (cu, r, b) = avg_times(&s, &qs);
        series.push("ranking cube", cu);
        series.push("rank mapping", r);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.8",
        "query execution time (ms) w.r.t. cardinality C",
        "C",
        &cs.map(|c| c.to_string()),
        &series,
    );
}

fn fig3_9() {
    let s = setup(
        synthetic(base_tuples(), 4, 20, 2, DataDist::Uniform, 15),
        300,
        CuboidSpec::AllSubsets,
    );
    let ss = [2usize, 3, 4];
    let mut series = Series::default();
    for &n in &ss {
        let qs = query_batch(&s.rel, n, 2, 10, 1.0, QUERIES_PER_POINT, 26);
        let (c, r, b) = avg_times(&s, &qs);
        series.push("ranking cube", c);
        series.push("rank mapping", r);
        series.push("baseline", b);
    }
    print_figure(
        "Fig 3.9",
        "query execution time (ms) w.r.t. number of selection conditions s",
        "s",
        &ss.map(|s| s.to_string()),
        &series,
    );
}

fn fig3_10() {
    let bs = [100usize, 200, 500, 1000];
    let mut series = Series::default();
    for &b in &bs {
        let s = setup(
            synthetic(base_tuples(), 3, 20, 2, DataDist::Uniform, 16),
            b,
            CuboidSpec::AllSubsets,
        );
        let qs = query_batch(&s.rel, 2, 2, 10, 1.0, QUERIES_PER_POINT, 27);
        let mut t = 0.0;
        for q in &qs {
            let query = query_of(q);
            s.disk.clear_buffer();
            let (res, cpu) = time_ms(|| s.cube.source(&s.disk).query(&query.plan()).unwrap());
            t += cost_ms(cpu, res.stats.io);
        }
        series.push("ranking cube", t / qs.len() as f64);
    }
    print_figure(
        "Fig 3.10",
        "query execution time (ms) w.r.t. base block size B",
        "B",
        &bs.map(|b| b.to_string()),
        &series,
    );
}

fn fig3_11() {
    // Space usage: fragments (F=2) vs rank-mapping composite index vs
    // baseline per-dimension B-trees.
    let dims = [3usize, 6, 9, 12];
    let t = base_tuples() / 2;
    let mut series = Series::default();
    for &s_dims in &dims {
        let rel = synthetic(t, s_dims, 20, 2, DataDist::Uniform, 17);
        let disk = DiskSim::with_defaults();
        let frags = fragments(&rel, &disk, 2);
        series.push("RF (MB)", frags.materialized_bytes() as f64 / 1e6);
        // Rank mapping: clustered composite index ≈ one copy of the data
        // per fragment-sized index set (the thesis builds one per fragment).
        let row = 4 * s_dims + 8 * 2 + 4;
        series.push("RM (MB)", (t * row * s_dims.div_ceil(2)) as f64 / 1e6 / 2.0);
        // Baseline: one B+-tree per selection dimension.
        let bt: usize = (0..s_dims)
            .map(|d| {
                BPlusTree::over_column(
                    &disk,
                    &rel.selection_column(d).iter().map(|&v| v as f64).collect::<Vec<_>>(),
                )
                .byte_size()
            })
            .sum();
        series.push("BL (MB)", (bt + t * row) as f64 / 1e6);
    }
    print_figure(
        "Fig 3.11",
        "space usage w.r.t. number of selection dimensions S (F = 2)",
        "S",
        &dims.map(|d| d.to_string()),
        &series,
    );
}

fn fig3_12() {
    let rel = synthetic(base_tuples(), 6, 5, 2, DataDist::Uniform, 18);
    let disk = DiskSim::with_defaults();
    let frags = fragments(&rel, &disk, 2);
    // Queries intentionally covered by 1, 2 and 3 fragments.
    let selections = [
        Selection::new(vec![(0, 1), (1, 2)]),
        Selection::new(vec![(0, 1), (2, 2)]),
        Selection::new(vec![(0, 1), (2, 2), (4, 3)]),
    ];
    let mut series = Series::default();
    let mut xs = Vec::new();
    for sel in &selections {
        let n = frags.covering_cuboids(sel).map_or(0, |c| c.len());
        xs.push(n.to_string());
        let q = Query::select(sel.conds().to_vec()).rank(Linear::uniform(2)).top(10);
        disk.clear_buffer();
        let (res, cpu) = time_ms(|| frags.source(&disk).query(&q.plan()).unwrap());
        series.push("ranking fragments", cost_ms(cpu, res.stats.io));
    }
    print_figure(
        "Fig 3.12",
        "query execution time (ms) w.r.t. number of covering fragments",
        "#fragments",
        &xs,
        &series,
    );
}

fn fig3_13() {
    let rel = synthetic(base_tuples(), 6, 5, 2, DataDist::Uniform, 19);
    let fs = [1usize, 2, 3];
    let mut series = Series::default();
    for &f in &fs {
        let disk = DiskSim::with_defaults();
        let frags = fragments(&rel, &disk, f);
        let qs = query_batch(&rel, 3, 2, 10, 1.0, QUERIES_PER_POINT, 28);
        let mut t = 0.0;
        for q in &qs {
            let query = query_of(q);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| frags.source(&disk).query(&query.plan()).unwrap());
            t += cost_ms(cpu, res.stats.io);
        }
        series.push("ranking fragments", t / qs.len() as f64);
    }
    print_figure(
        "Fig 3.13",
        "query execution time (ms) w.r.t. fragment size F",
        "F",
        &fs.map(|f| f.to_string()),
        &series,
    );
}

fn fig3_14() {
    let dims = [3usize, 6, 9, 12];
    let mut series = Series::default();
    for &s_dims in &dims {
        let rel = synthetic(base_tuples() / 2, s_dims, 5, 2, DataDist::Uniform, 20);
        let disk = DiskSim::with_defaults();
        let frags = fragments(&rel, &disk, 2);
        let rm = RankMapping::build(&rel, &disk);
        let bl = BooleanFirst::build(&rel, &disk);
        let qs = query_batch(&rel, 3, 2, 10, 1.0, QUERIES_PER_POINT, 29);
        let (mut tf, mut tr, mut tb) = (0.0, 0.0, 0.0);
        for q in &qs {
            let query = query_of(q);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| frags.source(&disk).query(&query.plan()).unwrap());
            tf += cost_ms(cpu, res.stats.io);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| rm.source(&rel, &disk).query(&query.plan()).unwrap());
            tr += cost_ms(cpu, res.stats.io);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| bl.source(&rel, &disk).query(&query.plan()).unwrap());
            tb += cost_ms(cpu, res.stats.io);
        }
        let n = qs.len() as f64;
        series.push("ranking fragments", tf / n);
        series.push("rank mapping", tr / n);
        series.push("baseline", tb / n);
    }
    print_figure(
        "Fig 3.14",
        "query execution time (ms) w.r.t. S (high-dimensional)",
        "S",
        &dims.map(|d| d.to_string()),
        &series,
    );
}

fn fig3_15() {
    // Forest CoverType surrogate, fragments of size 3, 3 conditions,
    // ranking over all 3 quantitative attributes.
    let rel = forest_cover(base_tuples(), 30);
    let disk = DiskSim::with_defaults();
    let frags = fragments(&rel, &disk, 3);
    let rm = RankMapping::build(&rel, &disk);
    let bl = BooleanFirst::build(&rel, &disk);
    let ks = [5usize, 10, 15, 20];
    let mut series = Series::default();
    for &k in &ks {
        let qs = query_batch(&rel, 3, 3, k, 1.0, QUERIES_PER_POINT, 31);
        let (mut tf, mut tr, mut tb) = (0.0, 0.0, 0.0);
        for q in &qs {
            let query = query_of(q);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| frags.source(&disk).query(&query.plan()).unwrap());
            tf += cost_ms(cpu, res.stats.io);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| rm.source(&rel, &disk).query(&query.plan()).unwrap());
            tr += cost_ms(cpu, res.stats.io);
            disk.clear_buffer();
            let (res, cpu) = time_ms(|| bl.source(&rel, &disk).query(&query.plan()).unwrap());
            tb += cost_ms(cpu, res.stats.io);
        }
        let n = qs.len() as f64;
        series.push("ranking fragments", tf / n);
        series.push("rank mapping", tr / n);
        series.push("baseline", tb / n);
    }
    print_figure(
        "Fig 3.15",
        "query execution time (ms) on real data (CoverType surrogate)",
        "k",
        &ks.map(|k| k.to_string()),
        &series,
    );
}

fn main() {
    let mut figures: Vec<rcube_bench::Figure> = vec![
        ("fig3_4", Box::new(fig3_4)),
        ("fig3_5", Box::new(fig3_5)),
        ("fig3_6", Box::new(fig3_6)),
        ("fig3_7", Box::new(fig3_7)),
        ("fig3_8", Box::new(fig3_8)),
        ("fig3_9", Box::new(fig3_9)),
        ("fig3_10", Box::new(fig3_10)),
        ("fig3_11", Box::new(fig3_11)),
        ("fig3_12", Box::new(fig3_12)),
        ("fig3_13", Box::new(fig3_13)),
        ("fig3_14", Box::new(fig3_14)),
        ("fig3_15", Box::new(fig3_15)),
    ];
    rcube_bench::run_selected(&mut figures);
}
