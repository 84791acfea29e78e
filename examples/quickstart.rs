//! Quickstart: build a ranking cube behind the [`Engine`] front door and
//! *stream* a top-k query — answers arrive progressively, in score order,
//! and pagination resumes the search instead of re-running it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ranking_cube::prelude::*;

fn main() {
    // A relation with two selection dimensions (type, color) and two
    // ranking dimensions (price, mileage), both normalized to [0, 1].
    let schema =
        Schema::new(vec![Dim::cat("type", 3), Dim::cat("color", 4)], vec!["price", "mileage"]);
    let mut builder = RelationBuilder::new(schema);
    // (type, color) and (price, mileage) per car.
    let rows: &[(&[u32; 2], &[f64; 2])] = &[
        (&[0, 1], &[0.20, 0.30]),
        (&[0, 1], &[0.10, 0.15]),
        (&[0, 2], &[0.55, 0.05]),
        (&[1, 1], &[0.90, 0.80]),
        (&[0, 1], &[0.35, 0.40]),
        (&[2, 3], &[0.05, 0.95]),
        (&[0, 1], &[0.25, 0.10]),
    ];
    for (sel, rank) in rows {
        builder.push(*sel, *rank);
    }
    let relation = builder.finish();

    // Offline: materialize the grid ranking cube behind the engine front
    // door (the engine owns the simulated paged disk).
    let engine = Engine::new(relation).with_grid_cube(GridCubeConfig::default());
    let cube = engine.grid_cube().expect("registered above");
    println!(
        "materialized {} cuboids, {} bytes",
        cube.cuboid_dims().len(),
        cube.materialized_bytes()
    );

    // Online: red sedans (type = 0, color = 1) by price + mileage, built
    // with the query builder and *streamed* from a progressive cursor.
    let query = Query::select([(0, 0), (1, 1)]).rank(Linear::uniform(2)).top(2);
    println!("routing through: {:?}", engine.route(&query));

    let mut cursor = engine.open(&query).expect("open cursor");
    println!("top-2 answers (tid, score), streamed best-first:");
    let mut answers = Vec::new();
    for (tid, score) in cursor.by_ref() {
        println!("  t{tid}: {score:.2}");
        answers.push(tid);
    }
    assert_eq!(answers, vec![1, 6]);

    // Pagination: extend_k resumes the paused bound-driven frontier — the
    // blocks the first two answers paid for are never re-read.
    let before = cursor.stats().blocks_read;
    cursor.extend_k(2);
    println!("two more (resumed, not re-run):");
    for (tid, score) in cursor.by_ref() {
        println!("  t{tid}: {score:.2}");
    }
    let stats = cursor.stats();
    println!(
        "blocks read: {} total ({} for the extension), tuples scored: {}",
        stats.blocks_read,
        stats.blocks_read - before,
        stats.tuples_scored
    );

    // Batch callers get the same answers through the same door.
    let result = engine.query(&query).expect("query");
    assert_eq!(result.tids(), vec![1, 6]);
}
