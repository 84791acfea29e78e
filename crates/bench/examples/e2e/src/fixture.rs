//! Generated inputs and the files the workloads serve from. Everything
//! derives from `--seed`; the engine only ever sees what is built here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ranking_cube::prelude::*;
use ranking_cube::table::gen::{DataDist, SyntheticSpec};
use ranking_cube::table::workload::{
    MixedWorkloadGen, MixedWorkloadParams, QuerySpec, WorkloadParams, ZipfQueryGen,
};
use ranking_cube::table::Tid;

use crate::spec::*;

/// An answer as the oracle compares it: tid plus the score's bit pattern.
pub type Answer = Vec<(Tid, u64)>;

pub fn answer_of(items: &[(Tid, f64)]) -> Answer {
    items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// All files of one process live under `<target>/e2e-scratch/<pid>/`
/// (beside the binary, so inside whatever checkout built it) and go
/// when the guard drops — on unwind too.
pub struct Scratch {
    dir: PathBuf,
}

/// The cargo target directory this binary was built into.
pub fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent().and_then(Path::parent).expect("binary sits in <target>/release").to_path_buf()
}

impl Scratch {
    pub fn new() -> Self {
        let dir = target_dir().join("e2e-scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self { dir }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

pub fn relation(tuples: usize, seed: u64) -> Relation {
    SyntheticSpec {
        tuples,
        selection_dims: SELECTION_DIMS,
        cardinality: CARDINALITY,
        ranking_dims: RANKING_DIMS,
        dist: DataDist::Uniform,
        seed,
    }
    .generate()
}

fn query_params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        num_conditions: CONDITIONS,
        num_ranking: RANKED_DIMS,
        k: K,
        skewness: WEIGHT_SKEW,
        seed,
    }
}

pub fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

/// The seed's read queries: one Zipf batch, duplicates kept.
pub fn read_queries(rel: &Relation, seed: u64) -> Vec<Query> {
    let mut gen = ZipfQueryGen::new(query_params(seed ^ 0x51ED_270B), VALUE_SKEW);
    gen.batch(rel, QUERIES).iter().map(query_of).collect()
}

/// One client's endless 75/20/5 stream.
pub fn mixed_stream(seed: u64, client: usize) -> MixedWorkloadGen {
    MixedWorkloadGen::new(MixedWorkloadParams {
        query: query_params(seed.wrapping_mul(0x9E37_79B9).wrapping_add(client as u64)),
        value_skew: VALUE_SKEW,
        insert_fraction: INSERT_FRACTION,
        delete_fraction: DELETE_FRACTION,
    })
}

/// The oracle: each query's answer by table scan of `rel`.
pub fn scan_answers(rel: &Relation, queries: &[Query]) -> Vec<Answer> {
    let disk = DiskSim::with_defaults();
    let scan = TableScan::new(rel, &disk);
    let source = scan.source(rel, &disk);
    queries
        .iter()
        .map(|q| answer_of(&source.open(&q.plan()).expect("scan opens").drain().items))
        .collect()
}

pub fn rtree_config() -> RTreeConfig {
    RTreeConfig::for_page(PAGE_SIZE, RANKING_DIMS)
}

/// Seconds spent in each stage of putting a cube file in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot = start.elapsed().as_secs_f64();
    out
}

/// Builds the grid cube over `rel`, saves it to `path` and reopens it
/// read-only behind `pool_pages`. Also hands back the in-memory build.
pub fn grid_file(
    rel: &Relation,
    path: &Path,
    pool_pages: usize,
) -> (GridRankingCube, GridRankingCube, BuildTimes) {
    let mut t = BuildTimes::default();
    let disk = DiskSim::with_defaults();
    let mem =
        timed(&mut t.build_s, || GridRankingCube::build(rel, &disk, GridCubeConfig::default()));
    timed(&mut t.save_s, || mem.save_to_with(path, PAGE_SIZE, pool_pages).expect("save grid"));
    let file = timed(&mut t.open_s, || {
        GridRankingCube::open_from_with(path, pool_pages).expect("reopen grid")
    });
    (mem, file, t)
}

/// The scatter runs on the calling thread (`parallelism: 1`). With the
/// default — one worker per hardware thread — a query spawns threads,
/// and in this sandbox that made the same seed's `query_p50_us` read
/// 253 µs to 364 µs over six back-to-back runs (119 ± 2 µs without): no
/// bound could hold it. The fan-out's cost stays visible per layer
/// (`core.shard.fanout_self_us`, `core.shard.par_query_us`).
pub fn shard_config() -> ShardedCubeConfig {
    ShardedCubeConfig {
        shards: SHARDS,
        pool_pages: SHARD_POOL_PAGES,
        parallelism: 1,
        ..Default::default()
    }
}

/// Every file of the shard set `build_to` leaves beside `manifest`.
pub fn shard_set_files(manifest: &Path) -> Vec<PathBuf> {
    let stem = manifest.file_stem().and_then(|s| s.to_str()).expect("manifest stem");
    let mut files: Vec<PathBuf> =
        (0..SHARDS).map(|i| manifest.with_file_name(format!("{stem}.shard{i}"))).collect();
    files.push(manifest.to_path_buf());
    files
}

/// Builds the R-tree + signature cube over `rel` and saves it to `path`
/// — the read-only base a `DeltaCube` opens. `build_s` covers both
/// builds.
pub fn sig_file(rel: &Relation, path: &Path) -> BuildTimes {
    let mut t = BuildTimes::default();
    let disk = DiskSim::with_defaults();
    let (rtree, cube) = timed(&mut t.build_s, || {
        let rtree = RTree::over_relation(&disk, rel, &[], rtree_config());
        let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
        (rtree, cube)
    });
    timed(&mut t.save_s, || {
        cube.save_to_with(&rtree, path, PAGE_SIZE, DELTA_POOL_PAGES).expect("save signature cube")
    });
    t
}

pub fn delta_options(metrics: &Metrics) -> DeltaOptions {
    DeltaOptions { pool_pages: DELTA_POOL_PAGES, metrics: metrics.clone(), faults: None }
}
