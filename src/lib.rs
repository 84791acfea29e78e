//! # ranking-cube
//!
//! A faithful, laptop-scale reproduction of *Integrating OLAP and Ranking:
//! The Ranking-Cube Methodology* (Dong Xin, ICDE 2007 / UIUC thesis 2007).
//!
//! The ranking cube answers **top-k queries with multi-dimensional Boolean
//! selections and ad-hoc ranking functions** by combining semi-offline
//! materialization (rank-aware cuboids / signatures over a geometric data
//! partition) with semi-online computation (progressive, bound-driven
//! search).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents | paper chapter |
//! |---|---|---|
//! | [`storage`] | simulated paged disk, buffer pool, bit codecs | §3.5/§4.4 cost model |
//! | [`table`] | relations, schemas, generators, workloads | §3.5.1 |
//! | [`index`] | B+-tree, R-tree, equi-depth grid | substrates |
//! | [`func`] | ranking functions with box lower bounds | §1.2.1 |
//! | [`cube`] | grid ranking cube (full or fragments), signature cube | Ch 3–4 |
//! | [`merge`] | index-merge for high ranking dimensionality | Ch 5 |
//! | [`join`] | SPJR ranked queries over multiple relations | Ch 6 |
//! | [`skyline`] | skyline / dynamic skyline with Boolean predicates | Ch 7 |
//! | [`baseline`] | table-scan, Boolean-first, ranking-first, rank-mapping | evaluation foils |
//! | [`obs`] | metrics registry, query tracing, exports | observability |
//!
//! and adds the [`Engine`] front door: one owner for the simulated device
//! and every materialized access path, routing each query to the best
//! registered engine.
//!
//! ## Quick start
//!
//! Every engine speaks one progressive operator
//! ([`cube::query::RankedSource`]): build a [`Query`] with the
//! `select(...).rank(...).top(k)` builder, [`Engine::open`] a resumable
//! cursor, and pull `(tid, score)` answers in ascending score order. The
//! cursor is the paper's *semi-online computation* made visible: answers
//! stream as the bound-driven search certifies them, and
//! [`cube::query::TopKCursor::extend_k`] paginates by resuming the paused
//! frontier instead of re-running the query.
//!
//! ```
//! use ranking_cube::prelude::*;
//!
//! // A tiny relation: 2 selection dimensions, 2 ranking dimensions.
//! let mut builder = RelationBuilder::new(
//!     Schema::new(vec![Dim::cat("type", 3), Dim::cat("color", 4)], vec!["price", "mileage"]),
//! );
//! builder.push(&[0, 1], &[0.20, 0.30]);
//! builder.push(&[0, 1], &[0.10, 0.15]);
//! builder.push(&[1, 2], &[0.90, 0.80]);
//! builder.push(&[0, 1], &[0.25, 0.40]);
//! let relation = builder.finish();
//!
//! // Offline: materialize the ranking cube behind the engine front door.
//! let engine = Engine::new(relation).with_grid_cube(GridCubeConfig::default());
//!
//! // Online: stream the cheapest type-0/color-1 cars, best first.
//! let query = Query::select([(0, 0), (1, 1)]).rank(Linear::uniform(2)).top(1);
//! let mut cursor = engine.open(&query).unwrap();
//! assert_eq!(cursor.next(), Some((1, 0.25))); // the cheapest matching car
//!
//! // Pagination resumes the frontier — no re-execution:
//! cursor.extend_k(1);
//! assert_eq!(cursor.next().map(|(tid, _)| tid), Some(0)); // the runner-up
//!
//! // Batch callers drain a cursor behind the same door.
//! let result = engine.query(&Query::select([(0, 0)]).rank(Linear::uniform(2)).top(2)).unwrap();
//! assert_eq!(result.tids(), vec![1, 0]);
//! ```
//!
//! ## Scale out: partitioned cube sets
//!
//! A [`cube::shard::ShardedCube`] splits the relation by region of its
//! ranking space into N self-contained cube files (one buffer pool and
//! I/O meter each, bound together by a CRC-stamped manifest that records
//! each shard's box) and serves them as one `RankedSource`: the
//! scatter-gather cursor opens shards in the order of their box bounds,
//! stops once the k-th answer beats every unopened box, and never pulls
//! an open shard past the global threshold, so sharded answers are
//! byte-identical to an unsharded cube. A grid cube is the set of one
//! shard, whose own cursor answers: the engine serves one grid-family set,
//! on [`Route::Grid`] when it holds one shard ([`Engine::with_grid_cube`],
//! [`Engine::with_prebuilt_grid`]) and on [`Route::Sharded`] when it holds
//! more; see `examples/sharded_topk.rs` for the build-to-disk / reopen /
//! paginate walkthrough.
//!
//! ```
//! use ranking_cube::cube::shard::{Shard, ShardedCube, ShardedCubeConfig};
//! use ranking_cube::prelude::*;
//!
//! # let mut b = RelationBuilder::new(
//! #     Schema::new(vec![Dim::cat("type", 3)], vec!["price", "mileage"]));
//! # for i in 0..40 { b.push(&[i % 3], &[0.01 * i as f64, 0.4]); }
//! # let relation = b.finish();
//! let engine = Engine::new(relation)
//!     .with_sharded_cube(ShardedCubeConfig { shards: 4, ..Default::default() });
//! let query = Query::select([(0, 0)]).rank(Linear::uniform(2)).top(3);
//! assert_eq!(engine.route(&query), Route::Sharded);
//! let result = engine.query(&query).unwrap();
//! let set = engine.sharded_cube().unwrap();
//! let fanout = set.last_fanout().unwrap(); // per-shard pulls/answers/blocks inside
//! assert_eq!(result.stats.shards_opened, fanout.opened() as u64);
//! // A shard opens only when its box's bound reaches the 3rd answer.
//! let (plan, kth) = (query.plan(), result.items[2].1);
//! let reach = |s: &&Shard| plan.func.lower_bound(&s.region().project(plan.ranking_dims)) <= kth;
//! assert_eq!(fanout.opened(), set.shards().iter().filter(reach).count());
//! assert_eq!(fanout.opened(), 1);
//! ```
//!
//! ## Serve under writes: the LSM delta cube
//!
//! A [`cube::delta::DeltaCube`] wraps a persistent signature cube file
//! with an in-memory memtable and a crash-safe WAL, so one process can
//! **ingest tuples and answer certified top-k queries at the same time**.
//! It is the one way the engine serves a signature cube: with nothing
//! pending it answers what the file alone would. Register it and the
//! engine grows a writer API: [`Engine::insert`] / [`Engine::delete`] are
//! durable in the WAL before they return and visible to every query
//! opened afterwards; a background flush
//! ([`cube::delta::DeltaCube::flush`], or the maintenance daemon via
//! [`Engine::start_maintenance`], which also vacuums the file and has the
//! delta serve the compacted one) folds pending writes into the base cube
//! without ever blocking readers — cursors pin the generation they opened,
//! and answers are byte-identical to a cube rebuilt from scratch at every
//! point.
//!
//! ```
//! use std::sync::Arc;
//! use ranking_cube::cube::delta::{DeltaCube, DeltaOptions};
//! use ranking_cube::prelude::*;
//!
//! # let mut b = RelationBuilder::new(
//! #     Schema::new(vec![Dim::cat("type", 3)], vec!["price", "mileage"]));
//! # for i in 0..40 { b.push(&[i % 3], &[0.01 * i as f64 + 0.05, 0.4]); }
//! # let relation = b.finish();
//! # let path = std::env::temp_dir().join(format!("rcube_doc_delta_{}", std::process::id()));
//! # std::fs::remove_file(&path).ok();
//! # std::fs::remove_file(path.with_extension("wal")).ok();
//! # {
//! #     let disk = DiskSim::with_defaults();
//! #     let rtree = RTree::over_relation(&disk, &relation, &[], RTreeConfig::small(16));
//! #     let cube = SignatureCube::build(&relation, &rtree, &disk, SignatureCubeConfig::default());
//! #     cube.save_to_with(&rtree, &path, 512, 64).unwrap();
//! # }
//! // The base cube lives in a file; the delta layer wraps it.
//! let delta = Arc::new(DeltaCube::open(&path, relation.clone(), DeltaOptions::default()).unwrap());
//! let engine = Engine::new(relation).with_delta(Arc::clone(&delta));
//!
//! // Ingest while serving: durable (WAL) before visible.
//! let tid = engine.insert(&[0], &[0.01, 0.01]).unwrap();
//! let query = Query::select([(0, 0)]).rank(Linear::uniform(2)).top(1);
//! assert_eq!(engine.route(&query), Route::Delta);
//! assert_eq!(engine.query(&query).unwrap().tids(), vec![tid]); // the new tuple wins
//!
//! // Background merge: answers are unchanged, the memtable empties.
//! delta.flush().unwrap();
//! assert_eq!(engine.query(&query).unwrap().tids(), vec![tid]);
//! assert_eq!(engine.stats_snapshot().delta.unwrap().memtable_ops, 0);
//! # let wal = delta.wal_path().to_path_buf();
//! # drop(engine); drop(delta);
//! # std::fs::remove_file(&path).ok();
//! # std::fs::remove_file(&wal).ok();
//! ```
//!
//! ## Observability
//!
//! Every engine carries a metric registry ([`obs::Metrics`]): buffer-pool
//! hits/misses/evictions per access path, shared node-cache activity,
//! device I/O, per-route query latency/blocks/tuples histograms, and
//! maintenance events (commits, vacuums, scrubs, fault trips — see
//! `rcube_storage::format` for the maintenance series). Instrumentation
//! is free when disabled: pass [`obs::Metrics::disabled`] to
//! [`Engine::with_disk_and_metrics`] and every handle is a no-op.
//!
//! ```
//! # use ranking_cube::prelude::*;
//! # let mut b = RelationBuilder::new(
//! #     Schema::new(vec![Dim::cat("type", 3)], vec!["price", "mileage"]));
//! # b.push(&[0], &[0.2, 0.3]);
//! # b.push(&[1], &[0.1, 0.4]);
//! # let engine = Engine::new(b.finish()).with_grid_cube(GridCubeConfig::default());
//! let query = Query::select([(0, 0)]).rank(Linear::uniform(2)).top(1);
//!
//! // EXPLAIN: the routing decision, without executing.
//! let plan = engine.explain(&query);
//! assert_eq!(plan.route, engine.route(&query));
//!
//! // EXPLAIN ANALYZE: plan + exact execution counters + trace.
//! let report = engine.explain_analyze(&query).unwrap();
//! assert_eq!(report.executed, plan.route);
//! println!("{report}");
//!
//! // Slow-query log: threshold zero captures everything.
//! engine.set_slow_query_log(std::time::Duration::ZERO);
//! engine.query(&query).unwrap();
//! assert_eq!(engine.slow_queries().len(), 1);
//!
//! // Export: Prometheus text or JSON for scraping.
//! let text = engine.metrics().snapshot().to_prometheus_text();
//! assert!(text.contains("query_grid_count"));
//! ```

pub use rcube_baseline as baseline;
pub use rcube_core as cube;
pub use rcube_func as func;
pub use rcube_index as index;
pub use rcube_join as join;
pub use rcube_merge as merge;
pub use rcube_obs as obs;
pub use rcube_skyline as skyline;
pub use rcube_storage as storage;
pub use rcube_table as table;

mod engine;
mod observe;

pub use engine::{Engine, Route};
pub use observe::{
    AnalyzeReport, CandidatePlan, DeltaContribution, EngineStats, PlanReport, SlowQueryRecord,
};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::engine::{Engine, Route};
    pub use crate::observe::{
        AnalyzeReport, DeltaContribution, EngineStats, PlanReport, SlowQueryRecord,
    };
    pub use rcube_baseline::{BooleanFirst, RankMapping, RankingFirst, TableScan};
    pub use rcube_core::delta::{DeltaCube, DeltaOptions, DeltaStats, FlushReport, ReplayReport};
    pub use rcube_core::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
    pub use rcube_core::query::{Query, QueryPlan, RankedSource, TopKCursor};
    pub use rcube_core::shard::{FanoutReport, ShardedCube, ShardedCubeConfig};
    pub use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
    pub use rcube_core::{
        vacuum_into_place, MaintenanceConfig, MaintenanceScheduler, QueryStats, TopKResult,
        VacuumReport,
    };
    pub use rcube_func::{Expr, GeneralSq, L1Dist, Linear, RankFn, Rect, SqDist};
    pub use rcube_index::bptree::BPlusTree;
    pub use rcube_index::grid::GridPartition;
    pub use rcube_index::rtree::{RTree, RTreeConfig};
    pub use rcube_merge::{IndexMerge, MergeConfig};
    pub use rcube_obs::{Metrics, MetricsSnapshot, QueryTrace};
    pub use rcube_skyline::{SkylineEngine, SkylineQuery};
    pub use rcube_storage::{DiskSim, IoStats, PageStore};
    pub use rcube_table::{Dim, Relation, RelationBuilder, Schema};
}
