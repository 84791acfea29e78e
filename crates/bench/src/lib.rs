//! Experiment harness regenerating every table and figure of the thesis'
//! evaluation chapters (see DESIGN.md §3 for the full index).
//!
//! Each `repro_chN` binary accepts figure ids (`fig3_4`, `table5_1`, …) or
//! `all`; it prints one series table per figure in the same shape as the
//! paper's plot: one row per x-value, one column per method. Absolute
//! numbers are laptop-scale (set `RCUBE_SCALE` to grow the data sizes; the
//! default base is 20 000 tuples vs the paper's 1–10 M); the reproduction
//! target is the *shape* — who wins, by roughly what factor, and where
//! crossovers fall.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rcube_core::maintain::apply_path_updates;
use rcube_core::query::{Query, RankedSource};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::{DiskSim, IoSnapshot, PageStore};
use rcube_table::gen::{DataDist, SyntheticSpec};
use rcube_table::workload::{QueryGen, QuerySpec, WorkloadParams, ZipfQueryGen};
use rcube_table::{Relation, Tid};

pub mod report;
pub use report::{fixed, BenchReport, Bound, Json, Obj};

/// Global scale knob: data sizes multiply by `RCUBE_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("RCUBE_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Base tuple count `T` after scaling (paper default: 3M; ours: 20k).
pub fn base_tuples() -> usize {
    (20_000.0 * scale()) as usize
}

/// Queries averaged per measurement point (paper: 20; ours: 5).
pub const QUERIES_PER_POINT: usize = 5;

/// Milliseconds elapsed while running `f`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Cost model for "execution time" figures: the simulated disk charges no
/// wall-clock latency, so reported times combine measured CPU with a
/// per-operation I/O charge. The charges (0.1 ms per physical page read,
/// 0.2 ms per random tuple access) approximate the sequential/random cost
/// ratio of the thesis' 2007-era disk subsystem; EXPERIMENTS.md records
/// this substitution.
pub const READ_MS: f64 = 0.1;
/// Per random access charge (non-clustered row fetch).
pub const RANDOM_MS: f64 = 0.2;

/// Total modeled milliseconds for a run: CPU + charged I/O.
pub fn cost_ms(cpu_ms: f64, io: IoSnapshot) -> f64 {
    cpu_ms + io.disk_reads as f64 * READ_MS + io.random_accesses as f64 * RANDOM_MS
}

/// A measurement series: named method → one value per x point.
#[derive(Debug, Default)]
pub struct Series {
    columns: Vec<(String, Vec<f64>)>,
}

impl Series {
    pub fn push(&mut self, method: &str, value: f64) {
        match self.columns.iter_mut().find(|(n, _)| n == method) {
            Some((_, v)) => v.push(value),
            None => self.columns.push((method.to_string(), vec![value])),
        }
    }

    pub fn columns(&self) -> &[(String, Vec<f64>)] {
        &self.columns
    }
}

/// Prints a figure table: header, one row per x value, one column per
/// method (the paper-plot shape).
pub fn print_figure(id: &str, title: &str, x_label: &str, xs: &[String], series: &Series) {
    println!();
    println!("== {id}: {title} ==");
    print!("{:>14}", x_label);
    for (name, _) in series.columns() {
        print!("{name:>16}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>14}");
        for (_, vals) in series.columns() {
            match vals.get(i) {
                Some(v) if v.abs() >= 1000.0 => print!("{v:>16.0}"),
                Some(v) => print!("{v:>16.3}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
}

/// Standard synthetic data (Table 3.8 defaults at laptop scale).
pub fn synthetic(tuples: usize, s: usize, c: u32, r: usize, dist: DataDist, seed: u64) -> Relation {
    SyntheticSpec { tuples, selection_dims: s, cardinality: c, ranking_dims: r, dist, seed }
        .generate()
}

/// Standard query batch (Table 3.9 defaults).
pub fn query_batch(
    rel: &Relation,
    s: usize,
    r: usize,
    k: usize,
    u: f64,
    n: usize,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut qg =
        QueryGen::new(WorkloadParams { num_conditions: s, num_ranking: r, k, skewness: u, seed });
    qg.batch(rel, n)
}

/// Zipf-skewed query batch: like [`query_batch`], but selection values
/// are drawn rank-frequency Zipf(`value_skew`) per dimension (value 0 is
/// the hottest), modeling the hot-key skew real workloads show. Seeded
/// and deterministic — the shard bench uses this mix so repeated runs
/// gate on identical per-shard counters.
#[allow(clippy::too_many_arguments)]
pub fn zipf_query_batch(
    rel: &Relation,
    s: usize,
    r: usize,
    k: usize,
    u: f64,
    value_skew: f64,
    n: usize,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut qg = ZipfQueryGen::new(
        WorkloadParams { num_conditions: s, num_ranking: r, k, skewness: u, seed },
        value_skew,
    );
    qg.batch(rel, n)
}

/// The generated query as the one every source takes.
pub fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

/// A scratch path in the temp dir, unique to this bench, tag and process.
pub fn temp_path(bench: &str, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rcube_{bench}_bench_{tag}_{}", std::process::id()))
}

/// An answer as comparable text: each tid with its score's bit pattern.
pub fn render(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

/// The four queries the pinned-reader benches (recovery, maintenance)
/// serve while a writer commits underneath them.
pub fn reader_queries() -> Vec<Query> {
    [(vec![(0, 1)], 10), (vec![(1, 2)], 8), (vec![(0, 0), (1, 1)], 10), (vec![(2, 3)], 5)]
        .into_iter()
        .map(|(conds, k)| Query::select(conds).rank(Linear::uniform(2)).top(k))
        .collect()
}

/// [`render`]ed answers to [`reader_queries`] on a signature cube.
pub fn answers(cube: &SignatureCube, rtree: &RTree, disk: &DiskSim) -> Vec<String> {
    let source = cube.source(rtree, disk);
    reader_queries()
        .iter()
        .map(|q| render(&source.query(&q.plan()).expect("query").items))
        .collect()
}

/// Builds a signature cube over `rel` (R-tree fanout 16, nodes charged to
/// `disk`) and saves it, R-tree included, as a cube file at `path`.
pub fn save_signature_cube(
    rel: &Relation,
    config: SignatureCubeConfig,
    disk: &DiskSim,
    path: &Path,
) {
    let rtree = RTree::over_relation(disk, rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(rel, &rtree, disk, config);
    cube.save_to(&rtree, path).expect("save signature cube");
}

/// One maintenance round over a writable store: R-tree inserts of tuples
/// `from..to` of `rel`, COW cell patches, one generational commit. The
/// store (and its writer lock) is dropped on return.
pub fn maintain_and_commit(store: PageStore, rel: &Relation, from: usize, to: usize) {
    let (mut cube, mut rtree) = SignatureCube::open_store(store).expect("decode catalog");
    let disk = DiskSim::with_defaults();
    for tid in from as Tid..to as Tid {
        let updates = rtree.insert(&disk, tid, rel.ranking_point(tid));
        let sel =
            |t| (0..rel.schema().num_selection()).map(|d| rel.selection_value(t, d)).collect();
        apply_path_updates(&mut cube, &updates, sel, &disk).expect("apply path updates");
    }
    cube.commit(&mut rtree).expect("patch commit");
}

/// The `q`-quantile of `samples` by nearest rank, `round((n − 1)·q)`;
/// sorts `samples`. `None` when there are none.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    samples.sort_unstable();
    let last = samples.len().checked_sub(1)?;
    Some(samples[(last as f64 * q).round() as usize])
}

/// One reproducible figure: its id and the closure that regenerates it.
pub type Figure<'a> = (&'a str, Box<dyn FnMut() + 'a>);

/// Runs the figures selected on the command line: each entry of `figures`
/// is `(id, runner)`; no arguments or `all` runs everything.
pub fn run_selected(figures: &mut [Figure<'_>]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let mut matched = false;
    for (id, runner) in figures.iter_mut() {
        if run_all || args.iter().any(|a| a == id) {
            runner();
            matched = true;
        }
    }
    if !matched {
        eprintln!("unknown figure id; available:");
        for (id, _) in figures.iter() {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_by_method() {
        let mut s = Series::default();
        s.push("a", 1.0);
        s.push("b", 2.0);
        s.push("a", 3.0);
        assert_eq!(s.columns().len(), 2);
        assert_eq!(s.columns()[0].1, vec![1.0, 3.0]);
    }

    #[test]
    fn time_ms_returns_value() {
        let (v, ms) = time_ms(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn bench_env_block_is_well_formed() {
        let text = BenchReport::new("x").render();
        let env = text.lines().nth(2).expect("bench_env follows bench");
        assert!(env.starts_with("  \"bench_env\": { \"hardware_threads\": "), "{env}");
        assert!(
            env.ends_with(", \"page_size_bytes\": 4096, \"build_profile\": \"release\" },")
                || env.ends_with(", \"page_size_bytes\": 4096, \"build_profile\": \"debug\" },")
        );
        assert!(text.starts_with("{\n  \"bench\": \"x\",\n"));
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        assert_eq!(percentile(&mut [4, 1, 3, 2], 0.5), Some(3));
        assert_eq!(percentile(&mut [5, 1, 3], 0.5), Some(3));
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut hundred, 0.99), Some(99));
        assert_eq!(
            (percentile(&mut hundred, 0.0), percentile(&mut hundred, 1.0)),
            (Some(1), Some(100))
        );
        assert_eq!(percentile(&mut [], 0.5), None);
        // The old `v[n / 2]` median picks the same sample at every length.
        for n in 1..=9u64 {
            let mut v: Vec<u64> = (0..n).collect();
            assert_eq!(percentile(&mut v, 0.5), Some(n / 2));
        }
    }

    #[test]
    fn synthetic_uses_parameters() {
        let r = synthetic(100, 4, 7, 3, DataDist::Uniform, 1);
        assert_eq!(r.len(), 100);
        assert_eq!(r.schema().num_selection(), 4);
        assert_eq!(r.schema().num_ranking(), 3);
    }
}
