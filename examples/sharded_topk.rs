//! Partitioned cube sets end to end: build a relation into four
//! self-contained shard cube files, one per region of the ranking space,
//! bound by a CRC-stamped manifest, reopen the set from disk, and serve
//! scatter-gather top-k through the [`Engine`] — byte-identical to one
//! unsharded cube, opening only the shards whose box bound can still beat
//! the k-th answer, with per-shard fan-out counters in EXPLAIN ANALYZE and
//! cursor pagination that resumes every shard's paused frontier.
//!
//! ```sh
//! cargo run --release --example sharded_topk
//! ```

use ranking_cube::prelude::*;
use ranking_cube::table::gen::SyntheticSpec;

fn main() {
    let relation =
        SyntheticSpec { tuples: 10_000, cardinality: 5, ..Default::default() }.generate();

    // --- Offline: partition by region, one cube file per shard ----------
    let dir = std::env::temp_dir().join(format!("rcube_sharded_topk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create example dir");
    let manifest = dir.join("cars.manifest");
    let cfg = ShardedCubeConfig { shards: 4, ..Default::default() };
    let built = ShardedCube::build_to(&relation, &manifest, &cfg).expect("build shard set");
    println!("=== build ===");
    for (i, shard) in built.shards().iter().enumerate() {
        let r = shard.region();
        let sides: Vec<String> =
            (0..r.dims()).map(|d| format!("[{:.3}, {:.3}]", r.lo(d), r.hi(d))).collect();
        println!("  shard {i}: {} tuples in {}", shard.tids().len(), sides.join(" x "));
    }
    drop(built);

    // --- Reopen from the manifest, behind the engine front door ----------
    // The sharded set outranks every single-cube route, so the plain
    // query API scatter-gathers transparently.
    let cube = ShardedCube::open_from(&manifest).expect("reopen from manifest");
    let engine = Engine::new(relation).with_prebuilt_sharded(cube);

    let query = Query::select([(0, 2), (1, 1)]).rank(Linear::uniform(2)).top(5);
    assert_eq!(engine.route(&query), Route::Sharded);
    let result = engine.query(&query);
    println!("\n=== scatter-gather top-5 via {:?} ===", Route::Sharded);
    for (tid, score) in &result.items {
        println!("  tid {tid:>5}  score {score:.4}");
    }
    println!(
        "  ({} shards opened, {} blocks read)",
        result.stats.shards_opened, result.stats.blocks_read
    );

    // --- EXPLAIN ANALYZE reports the fan-out ------------------------------
    println!("\n=== EXPLAIN ANALYZE ===");
    let report = engine.explain_analyze(&query).expect("healthy engine");
    println!("{report}");

    // --- Pagination resumes every shard's paused frontier -----------------
    let mut cursor = engine.open(&query).expect("open cursor");
    let first: Vec<_> = (0..5).filter_map(|_| cursor.next()).collect();
    cursor.extend_k(5);
    let next: Vec<_> = (0..5).filter_map(|_| cursor.next()).collect();
    println!("=== page 2 (extend_k, no re-execution) ===");
    for (tid, score) in &next {
        println!("  tid {tid:>5}  score {score:.4}");
    }
    assert_eq!(first, result.items, "page 1 is the batch answer");

    // The merge never pulled a shard past the global threshold: per-shard
    // pulls stay within one of the answers each shard contributed, and a
    // shard whose box bound lies above the last answer was never opened.
    let fanout = engine.sharded_cube().unwrap().last_fanout().expect("fan-out recorded");
    println!("\n=== fan-out ===\n{fanout}");

    std::fs::remove_dir_all(&dir).ok();
}
