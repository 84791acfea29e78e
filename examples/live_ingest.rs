//! The LSM delta cube end to end: one process ingesting and serving at
//! once. A Zipf-skewed mixed read/write stream drives the engine's
//! `insert`/`delete` front door — writes land in the WAL + memtable and
//! are queryable immediately — while the maintenance daemon folds them
//! into the base cube past the flush watermark. EXPLAIN ANALYZE shows
//! the memtable-vs-base split per query, and a reopen replays the WAL
//! to prove nothing was lost.
//!
//! ```sh
//! cargo run --release --example live_ingest
//! ```

use std::sync::Arc;
use std::time::Duration;

use ranking_cube::prelude::*;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::workload::{
    MixedWorkloadGen, MixedWorkloadParams, QuerySpec, WorkloadOp, WorkloadParams,
};
use ranking_cube::table::Tid;

const PAGE: usize = 4096;

fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

fn main() {
    // A signature cube file over the base relation: the read-optimized
    // layer the delta overlays.
    let base = SyntheticSpec { tuples: 5_000, cardinality: 8, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_example_ingest_{}", std::process::id()));
    cube.save_to_with(&rtree, &path, PAGE, 256).expect("save base cube");
    drop((cube, rtree));

    // The delta cube opens the file read-only for serving and a sibling
    // `<path>.wal` for durability; the engine routes queries through the
    // merged view and writes through the WAL.
    let delta = Arc::new(
        DeltaCube::open(&path, base.clone(), DeltaOptions::default()).expect("open delta"),
    );
    let engine = Engine::new(base.clone()).with_delta(Arc::clone(&delta));
    println!(
        "delta open: generation {}, replay found {} records",
        delta.serving_generation(),
        delta.last_replay().records
    );

    // A skewed mixed stream: ~30% inserts, ~10% deletes (recency-biased
    // victims), the rest Zipf-hot top-k queries. The generator speaks in
    // victim *ranks*; the driver maps them onto its live tid list.
    let mut gen = MixedWorkloadGen::new(MixedWorkloadParams {
        query: WorkloadParams { num_conditions: 2, num_ranking: 2, k: 8, skewness: 2.0, seed: 7 },
        value_skew: 1.1,
        insert_fraction: 0.30,
        delete_fraction: 0.10,
    });
    let mut live: Vec<Tid> = Vec::new();
    let (mut inserts, mut deletes, mut queries, mut answers) = (0u64, 0u64, 0u64, 0u64);
    for op in gen.stream(&base, 400) {
        match op {
            WorkloadOp::Insert { sel, point } => {
                live.push(engine.insert(&sel, &point).expect("insert"));
                inserts += 1;
            }
            WorkloadOp::Delete { victim_rank } => {
                if victim_rank < live.len() {
                    let tid = live.remove(live.len() - 1 - victim_rank);
                    engine.delete(tid).expect("delete");
                    deletes += 1;
                }
            }
            WorkloadOp::Query(spec) => {
                answers += engine.query(&query_of(&spec)).expect("query").items.len() as u64;
                queries += 1;
            }
        }
    }
    let stats = delta.stats();
    println!(
        "drove {inserts} inserts, {deletes} deletes, {queries} queries ({answers} answers): \
         memtable {} ops / {} bytes, WAL {} bytes",
        stats.memtable_ops, stats.memtable_bytes, stats.wal_bytes
    );

    // EXPLAIN ANALYZE makes the LSM split visible: which answers came
    // from the memtable overlay, which from the pinned base generation,
    // and how many base answers the overlay masked.
    let probe = Query::select([(0usize, 1u32)]).rank(Linear::uniform(2)).top(8);
    let report = engine.explain_analyze(&probe).expect("explain analyze");
    println!("{report}");

    // The background daemon watches the memtable depth and folds pending
    // writes into the base past the watermark — ingest keeps serving the
    // same answers straight through the fold and generation swap.
    let served = engine.query(&probe).expect("query");
    let daemon = engine
        .start_maintenance(MaintenanceConfig {
            flush_watermark_ops: 16,
            poll_interval: Duration::from_millis(10),
            ..MaintenanceConfig::default()
        })
        .expect("a delta cube is registered");
    while daemon.flushes_completed() == 0 {
        assert_eq!(
            engine.query(&probe).expect("query").items,
            served.items,
            "answers never waver mid-flush"
        );
    }
    daemon.stop();
    let stats = delta.stats();
    println!(
        "daemon flushed: generation {}, memtable {} ops, WAL {} bytes",
        stats.serving_generation, stats.memtable_ops, stats.wal_bytes
    );
    assert_eq!(
        engine.query(&probe).expect("query").items,
        served.items,
        "the flush is answer-neutral"
    );

    // More writes land after the flush; drop everything mid-stream and
    // reopen — the WAL replays the un-flushed tail, the cube file holds
    // the flushed delta tuples and their selection values.
    let tid = engine.insert(&[1, 1, 1], &[0.0001, 0.0001]).expect("post-flush insert");
    drop(engine);
    drop(delta);
    let reopened = DeltaCube::open(&path, base.clone(), DeltaOptions::default())
        .expect("reopen after 'crash'");
    let replay = reopened.last_replay();
    println!(
        "reopen replayed {} WAL records: {} pending{}",
        replay.records,
        replay.pending,
        if replay.torn_tail { " (torn tail truncated)" } else { "" }
    );
    let top = reopened.source().open(&probe.plan()).expect("query reopened").try_drain().unwrap();
    assert!(top.items.iter().any(|&(t, _)| t == tid), "the un-flushed insert survived the restart");
    println!("tuple t{tid} inserted after the flush still wins its cell after replay");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ranking_cube::cube::delta::wal_path_for(&path)).ok();
}
