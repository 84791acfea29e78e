//! Persistent ranking cubes: build once, save to a single cube file,
//! reopen read-only and serve identical top-k answers — cold and warm.
//! Then the generational side: a reader's cursor keeps streaming the
//! generation it opened while a maintenance patch commits the next one,
//! and the integrity scrub rolls a damaged generation back.
//!
//! ```sh
//! cargo run --release --example persistent_cube
//! ```

use std::time::Instant;

use ranking_cube::cube::maintain::apply_path_updates;
use ranking_cube::cube::ScrubOutcome;
use ranking_cube::prelude::*;
use ranking_cube::table::gen::SyntheticSpec;

const SIG_PAGE: usize = 4096;

fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("t{t}:{s:.3}")).collect::<Vec<_>>().join(" ")
}

fn main() {
    // Offline: build a grid ranking cube over a synthetic relation.
    let rel = SyntheticSpec { tuples: 20_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let t = Instant::now();
    let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
    println!(
        "built cube: {} cuboids, {} KB materialized ({:.0} ms)",
        cube.cuboid_dims().len(),
        cube.materialized_bytes() / 1024,
        t.elapsed().as_secs_f64() * 1e3
    );

    // Persist: every base block and cuboid cell becomes a checksummed
    // page run; the catalog lands in the superblock.
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_example_cube_{}", std::process::id()));
    let t = Instant::now();
    cube.save_to(&path).expect("save cube");
    let file_kb = std::fs::metadata(&path).map(|m| m.len() / 1024).unwrap_or(0);
    println!(
        "saved to {} ({file_kb} KB, {:.0} ms)",
        path.display(),
        t.elapsed().as_secs_f64() * 1e3
    );

    // Reopen read-only — this could be a different process entirely (the
    // integration suite proves it with a spawned child).
    let t = Instant::now();
    let reopened = GridRankingCube::open_from(&path).expect("reopen cube");
    println!("reopened read-only in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let query = Query::select([(0, 1), (2, 3)]).rank(Linear::uniform(2)).top(10);
    let serve_disk = DiskSim::with_defaults();

    // Cold: buffer pool empty, every page read from the file and verified.
    let t = Instant::now();
    let cold = reopened.source(&serve_disk).query(&query.plan()).unwrap();
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    // Warm: the same pages now live in buffer-pool frames.
    let t = Instant::now();
    let warm = reopened.source(&serve_disk).query(&query.plan()).unwrap();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    let mem = cube.source(&disk).query(&query.plan()).unwrap();
    assert_eq!(mem.items, cold.items);
    assert_eq!(mem.items, warm.items);
    println!("top-{} identical across in-memory / cold file / warm file", cold.items.len());
    println!(
        "cold: {cold_ms:.2} ms ({} physical reads), warm: {warm_ms:.2} ms ({} physical reads)",
        cold.stats.io.disk_reads, warm.stats.io.disk_reads
    );
    for (tid, score) in cold.items.iter().take(3) {
        println!("  t{tid}: {score:.3}");
    }
    std::fs::remove_file(&path).ok();

    commit_while_serving();
}

/// A signature cube file under incremental maintenance: a reader cursor
/// opened on generation G finishes on G while the writer publishes G+1;
/// then on-disk damage to G+1 is scrubbed and rolled back to G.
fn commit_while_serving() {
    let full = SyntheticSpec { tuples: 6_000, cardinality: 8, ..Default::default() }.generate();
    let base = 5_980;
    let rel = full.prefix(base);
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_example_sig_{}", std::process::id()));
    cube.save_to_with(&rtree, &path, SIG_PAGE, 256).expect("save signature cube");
    let pages_before = std::fs::metadata(&path).expect("stat").len() / SIG_PAGE as u64;
    drop((cube, rtree));

    // A reader pins the generation it opens; its cursor starts streaming.
    let (reader, reader_rtree) = SignatureCube::open_from(&path).expect("reader open");
    let gen_open = reader.store().generation().expect("file generation");
    let query = Query::select([(0usize, 1u32)]).rank(Linear::uniform(2)).top(8);
    let reader_disk = DiskSim::with_defaults();
    let source = reader.source(&reader_rtree, &reader_disk);
    let mut cursor = source.open(&query.plan()).expect("open cursor");
    let mut streamed = Vec::new();
    for _ in 0..3 {
        if let Some(item) = cursor.try_next().expect("cursor answer") {
            streamed.push(item);
        }
    }
    println!("\nreader opened generation {gen_open}, cursor holds {} answers", streamed.len());

    // Mid-stream, the writer patches the affected cells (COW) and commits
    // the next generation into the inactive superblock slot.
    let (mut wcube, mut wrtree) = SignatureCube::open_writable(&path).expect("writer open");
    for tid in base..full.len() {
        let updates = wrtree.insert(&disk, tid as u32, full.ranking_point(tid as u32));
        apply_path_updates(
            &mut wcube,
            &updates,
            |t| (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect(),
            &disk,
        )
        .expect("apply path updates");
    }
    let gen_next = wcube.commit(&mut wrtree).expect("patch commit").generation;
    println!(
        "writer committed generation {gen_next} ({} retired pages await vacuum)",
        wcube.store().reclaimable_pages()
    );
    drop((wcube, wrtree));

    // The cursor finishes on the generation it opened: draining it now
    // yields exactly what a batch query against the pinned handle yields.
    while let Some(item) = cursor.try_next().expect("cursor answer") {
        streamed.push(item);
    }
    drop(cursor);
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(8);
    let pinned = reader.source(&reader_rtree, &reader_disk).query(&q.plan()).unwrap();
    assert_eq!(streamed, pinned.items, "cursor must finish on its opened generation");
    println!("cursor finished on generation {gen_open}: {}", render(&streamed));

    // Fresh opens elect the new generation.
    let (fresh, fresh_rtree) = SignatureCube::open_from(&path).expect("fresh open");
    assert_eq!(fresh.store().generation(), Some(gen_next));
    let after = fresh.source(&fresh_rtree, &DiskSim::with_defaults()).query(&q.plan()).unwrap();
    println!("generation {gen_next} serves:        {}", render(&after.items));

    // Damage a page only the new generation reaches, then scrub: the
    // verified previous generation takes the open pointer back.
    let victim = (0..full.schema().num_selection())
        .flat_map(|d| (0..8u32).map(move |v| (d, v)))
        .filter_map(|(d, v)| fresh.cell_signature(&[d], &[v]))
        .flat_map(|s| s.partial_pages().iter().copied())
        .find(|p| p.0 >= pages_before)
        .expect("maintenance appended a partial");
    drop((fresh, fresh_rtree));
    let mut bytes = std::fs::read(&path).expect("read cube file");
    bytes[victim.0 as usize * SIG_PAGE + 100] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write damaged file");

    let damage = SignatureCube::open_from(&path)
        .and_then(|(c, _)| c.verify_integrity())
        .expect_err("damage must surface as a typed error");
    println!("scrub found generation {gen_next} damaged: {damage}");
    match SignatureCube::scrub_path(&path).expect("scrub with clean fallback") {
        ScrubOutcome::RolledBack { from, to } => {
            println!("rolled back: generation {from} abandoned, {to} restored")
        }
        ScrubOutcome::Clean { .. } => unreachable!("the damaged generation cannot verify"),
    }
    let (restored, restored_rtree) = SignatureCube::open_from(&path).expect("reopen after scrub");
    assert_eq!(restored.store().generation(), Some(gen_open));
    restored.verify_integrity().expect("restored generation verifies");
    let rolled =
        restored.source(&restored_rtree, &DiskSim::with_defaults()).query(&q.plan()).unwrap();
    assert_eq!(rolled.items, pinned.items);
    println!("generation {gen_open} serves again: {}", render(&rolled.items));

    std::fs::remove_file(&path).ok();
}
