//! Observability tour: run a mixed workload through an instrumented
//! [`Engine`], EXPLAIN one query and EXPLAIN ANALYZE another, dump the
//! metric registry in Prometheus text format, and catch a deliberately
//! cold scan-path query in the slow-query log.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::time::Duration;

use ranking_cube::prelude::*;
use ranking_cube::table::gen::SyntheticSpec;

fn main() {
    // A synthetic relation served by a grid cube covering ranking dims
    // {0, 1}; ranking dim 2 is left uncovered on purpose so one query
    // later must fall back to the table scan.
    let relation =
        SyntheticSpec { tuples: 5_000, cardinality: 6, ranking_dims: 3, ..Default::default() }
            .generate();
    let engine = Engine::new(relation).with_grid_cube(GridCubeConfig {
        block_size: 64,
        ranking_dims: vec![0, 1],
        ..Default::default()
    });

    // Everything below the threshold is business as usual; the log only
    // keeps what crosses it. Zero captures every query so the demo is
    // deterministic.
    engine.set_slow_query_log(Duration::ZERO);

    // --- A mixed workload ------------------------------------------------
    println!("=== mixed workload ===");
    for v in 0..6u32 {
        let q = Query::select([(0, v)]).rank(Linear::uniform(2)).top(10);
        let res = engine.query(&q).expect("query");
        println!(
            "  select d0={v}: {} answers, {} blocks read via {:?}",
            res.items.len(),
            res.stats.blocks_read,
            engine.route(&q)
        );
    }

    // --- EXPLAIN: the routing decision, without executing ----------------
    println!("\n=== EXPLAIN ===");
    let pinned = Query::select([(0, 2), (1, 3)]).rank(Linear::new(vec![0.8, 0.2])).top(5);
    println!("{}", engine.explain(&pinned));

    // --- EXPLAIN ANALYZE: plan joined with actual execution ---------------
    println!("\n=== EXPLAIN ANALYZE ===");
    let report = engine.explain_analyze(&pinned).expect("healthy engine");
    println!("{report}");

    // --- The cold scan-path query -----------------------------------------
    // Ranking on dimension 2 is not covered by the cube: the router has
    // to take the always-applicable table scan, which reads the whole
    // selection — exactly the kind of query a slow log should surface.
    let cold = Query::select([(0, 1)]).rank_on(vec![2], Linear::uniform(1)).top(10);
    assert_eq!(engine.route(&cold), Route::Scan);
    engine.query(&cold).expect("query");

    println!("\n=== slow-query log ===");
    for rec in engine.slow_queries().iter().rev().take(3) {
        println!("  {rec}");
    }
    let slowest = engine
        .slow_queries()
        .into_iter()
        .max_by_key(|r| r.wall)
        .expect("the log captured the workload");
    println!("\nslowest capture, full plan:\n{}", slowest.plan);

    // --- Aggregated snapshot + Prometheus dump ----------------------------
    println!("\n=== engine snapshot ===");
    let stats = engine.stats_snapshot();
    println!("{stats}");

    println!("\n=== prometheus dump (query series) ===");
    for line in stats.metrics.to_prometheus_text().lines() {
        if line.starts_with("query_") && !line.contains("_bucket") {
            println!("  {line}");
        }
    }
}
