//! The maintenance daemon end to end: COW commits retire pages, the
//! watermark scheduler vacuums the cube file into a sibling temp file
//! and publishes it by atomic rename — while a pinned reader keeps
//! answering from the old inode — then the engine's delta cube re-elects
//! the compacted file on its own. Plus the guard rails: a second writer is
//! refused with a typed error, and a dead writer's stale lock is taken over.
//!
//! ```sh
//! cargo run --release --example live_vacuum
//! ```

use std::sync::Arc;
use std::time::Duration;

use ranking_cube::cube::delta::wal_path_for;
use ranking_cube::cube::maintain::apply_path_updates;
use ranking_cube::prelude::*;
use ranking_cube::storage::{lock_path_for, FileBackend, StorageError};
use ranking_cube::table::gen::SyntheticSpec;

const PAGE: usize = 4096;

fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("t{t}:{s:.3}")).collect::<Vec<_>>().join(" ")
}

fn main() {
    // A signature cube file with a backlog of COW maintenance: each
    // commit patches cells copy-on-write, retiring the old pages.
    let full = SyntheticSpec { tuples: 6_000, cardinality: 8, ..Default::default() }.generate();
    let base = 5_950;
    let rel = full.prefix(base);
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_example_vacuum_{}", std::process::id()));
    cube.save_to_with(&rtree, &path, PAGE, 256).expect("save signature cube");
    drop((cube, rtree));

    // A reader pins the base generation before any maintenance runs.
    let (pinned, pinned_rtree) = SignatureCube::open_from(&path).expect("pinned reader");
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(8);
    let pinned_disk = DiskSim::with_defaults();
    let before = pinned.source(&pinned_rtree, &pinned_disk).query(&q.plan()).unwrap();
    println!("pinned reader opened generation {:?}", pinned.store().generation());

    // COW maintenance commits the next generation and leaves retired
    // pages behind — the backlog the vacuum exists to reclaim.
    let (mut wcube, mut wrtree) = SignatureCube::open_writable(&path, 256).expect("writer open");
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
    wcube.commit(&mut wrtree).expect("patch commit");

    // While the writer lives, its advisory lock excludes every other
    // writable open — typed, fast, naming the owner.
    match PageStore::open_file_writable(&path, 16) {
        Err(StorageError::WriterLocked { owner_pid }) => {
            println!("second writer refused: lock held by live pid {owner_pid}")
        }
        other => panic!("expected WriterLocked, got {other:?}"),
    }
    drop((wcube, wrtree));

    let sb = FileBackend::peek_superblock(&path).expect("peek superblock");
    let bytes_before = std::fs::metadata(&path).expect("stat").len();
    println!(
        "generation {} committed: {} retired pages persisted in the superblock, file {} KB",
        sb.generation,
        sb.retired_pages,
        bytes_before / 1024
    );

    // The engine serves the file through a delta cube while its
    // maintenance daemon watches the persisted retired-page count and
    // vacuums past the watermark: compact into `<path>.vacuum`, fsync,
    // rename over the live name.
    let opts = DeltaOptions { pool_pages: 256, ..DeltaOptions::default() };
    let delta = Arc::new(DeltaCube::open(&path, full.clone(), opts).expect("delta open"));
    let engine = Engine::new(full).with_delta(Arc::clone(&delta));
    let query = Query::select([(0usize, 1u32)]).rank(Linear::uniform(2)).top(8);
    let served = engine.query(&query).expect("query");
    let generation = delta.serving_generation();

    let daemon = engine
        .start_maintenance(MaintenanceConfig {
            watermark_pages: 1,
            poll_interval: Duration::from_millis(20),
            ..MaintenanceConfig::default()
        })
        .expect("a delta cube is registered");
    while daemon.vacuums_completed() == 0 {
        // Queries opened before the swap ride the old inode through it:
        // answers never waver mid-vacuum.
        assert_eq!(engine.query(&query).expect("query").items, served.items);
    }
    println!(
        "daemon vacuumed: {} pages reclaimed in {} cycle(s), {} lock conflicts",
        daemon.pages_reclaimed(),
        daemon.vacuums_completed(),
        daemon.lock_conflicts()
    );
    daemon.stop();

    // The reader pinned before all of it still answers its generation —
    // the rename unlinked the old inode's name, not its bytes.
    let after_swap = pinned.source(&pinned_rtree, &pinned_disk).query(&q.plan()).unwrap();
    assert_eq!(after_swap.items, before.items);
    println!("pinned reader unaffected by the swap: {}", render(&after_swap.items));
    drop((pinned, pinned_rtree));

    // Fresh elections see the compacted file: zero retired pages, same
    // answers, smaller file. The daemon had the delta re-elect it.
    let sb = FileBackend::peek_superblock(&path).expect("peek compacted");
    let bytes_after = std::fs::metadata(&path).expect("stat").len();
    println!(
        "compacted file: generation {}, {} retired pages, {} KB (was {} KB)",
        sb.generation,
        sb.retired_pages,
        bytes_after / 1024,
        bytes_before / 1024
    );
    assert_eq!(delta.serving_generation(), sb.generation);
    assert_eq!(
        engine.query(&query).expect("query").items,
        served.items,
        "vacuum must be answer-neutral"
    );
    println!(
        "engine serves the compacted file (generation {generation} -> {}): {}",
        sb.generation,
        render(&served.items)
    );
    drop((engine, delta));

    // Crash-legacy housekeeping: a lock file left by a dead process is
    // classified stale by the liveness probe and taken over.
    std::fs::write(lock_path_for(&path), format!("{}", u32::MAX - 11)).expect("plant stale lock");
    let takeover = PageStore::open_file_writable(&path, 16).expect("stale lock taken over");
    println!("stale lock from a dead pid taken over by pid {}", std::process::id());
    drop(takeover);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
}
