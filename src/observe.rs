//! Observability report types for the [`Engine`](crate::Engine) front
//! door: EXPLAIN plans, EXPLAIN ANALYZE joins, the slow-query log, and
//! the aggregated engine snapshot.
//!
//! Everything here is plain data — produced by `Engine::explain`,
//! `Engine::explain_analyze`, `Engine::slow_queries` and
//! `Engine::stats_snapshot` — with human-readable `Display` renderings
//! for demos and operator consoles. The raw metric series behind these
//! reports live in [`rcube_obs`] (re-exported as [`crate::obs`]).
//!
//! # What the signature and delta series count
//!
//! The `signature.*` series are what *queries* read on the delta route,
//! the one route that serves a signature cube (a delta cube given the
//! engine's registry in `DeltaOptions::metrics` attaches every generation
//! it serves); `Engine::stats_snapshot` shows the serving generation's
//! `node_cache` and `signature_pool` beside them:
//!
//! * `signature.nodecache.hits` — node lookups answered by the shared
//!   node cache, `.absent_hits` the ones among them the partial's table
//!   proved absent; equal to the sum of the cursors' `shared_node_hits`.
//! * `signature.nodecache.misses` — lookups that had to read the partial:
//!   `misses - absent_misses` nodes were decoded (the cursors'
//!   `sig_nodes_decoded`), `.absent_misses` found, by the query's own
//!   header scan, that there was no node. On a delta cube the cache
//!   follows the file across flushes, so after warm-up misses stay below
//!   `delta.flush.nodes_reencoded`; a rise after every flush means a
//!   flush took the cold path (`delta.flush.cold_opens`) or the budget
//!   evicts (`.evictions`).
//! * `signature.pool.{hits,misses,evictions}` — buffer-pool traffic of
//!   the handles queries read through: one pool per served generation
//!   (each starts cold; with the node cache warm, a generation reads next
//!   to nothing).
//! * `delta.flush.pool.{hits,misses,evictions}` — the *fold's* own reads:
//!   the partials a flush splices, through its writable handle's pool
//!   (≈ one miss per partial rewritten).
//! * `delta.flush.{path_updates,cells_rewritten,partials_rewritten,
//!   nodes_reencoded,cold_opens}` and the `delta.flush.*_us` phase
//!   histograms — what each flush changed and where its time went;
//!   `delta.flush.writer_hold_us` how long each kept inserts and deletes
//!   waiting (the append mutex, held only to snapshot and to hand over).

use std::fmt;
use std::time::Duration;

use rcube_core::delta::DeltaStats;
use rcube_core::shard::FanoutReport;
use rcube_core::QueryStats;
use rcube_obs::{MetricsSnapshot, TraceEvent};
use rcube_storage::{IoSnapshot, PoolStats};

use crate::engine::Route;

/// One access path's standing for a query: why the router did (or did
/// not) pick it. Rows appear in preference order (delta, sharded, grid,
/// scan).
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The access path under consideration.
    pub route: Route,
    /// Whether the path is registered on the engine at all.
    pub registered: bool,
    /// Whether the registered path can answer this plan
    /// (`can_answer`): selection and ranking dimensions covered.
    pub eligible: bool,
    /// The persistent-fault reason that took the path out of service,
    /// when quarantined.
    pub quarantined: Option<String>,
    /// Whether the router would open this path first.
    pub chosen: bool,
    /// Whether the query pins the grid-family set (whichever of the grid
    /// and sharded routes it is) with an explicit `via_cuboids` cover —
    /// then the only reason any row was chosen or skipped.
    pub pinned: bool,
}

impl CandidatePlan {
    /// Whether the retry/fallback ladder may try this route at all.
    pub fn viable(&self) -> bool {
        self.registered && self.eligible && self.quarantined.is_none()
    }

    /// Human explanation of the row (why chosen / why skipped).
    pub fn reason(&self) -> String {
        let fixed = if self.pinned && self.chosen {
            "pinned: explicit via_cuboids cover"
        } else if self.pinned {
            "skipped: query pins the grid via an explicit cuboid cover"
        } else if self.chosen && self.route == Route::Scan {
            "chosen: always-applicable fallback"
        } else if self.chosen {
            "chosen: covers the selection and ranking dimensions"
        } else if !self.registered {
            "skipped: not registered"
        } else if let Some(why) = &self.quarantined {
            return format!("skipped: quarantined ({why})");
        } else if !self.eligible {
            "skipped: cannot answer (selection or ranking dims uncovered)"
        } else {
            "viable: next fallback if the preferred route fails"
        };
        fixed.into()
    }
}

/// The output of [`Engine::explain`](crate::Engine::explain): how a
/// query *would* execute, computed without running it.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Debug rendering of the query (selection, ranking dims, k).
    pub query: String,
    /// Requested answer count.
    pub k: usize,
    /// Selection predicates as `(dimension, value)` pairs.
    pub selection: Vec<(usize, u32)>,
    /// Ranking dimensions the scoring function reads.
    pub ranking_dims: Vec<usize>,
    /// Tuples in the served relation.
    pub relation_tuples: usize,
    /// The optimizer's cardinality model: selectivity under independent
    /// uniform dimensions (`Selection::estimated_selectivity`).
    pub estimated_selectivity: f64,
    /// `relation_tuples × estimated_selectivity`.
    pub estimated_matches: f64,
    /// Every access path's standing, in preference order.
    pub candidates: Vec<CandidatePlan>,
    /// The route the engine would open first.
    pub route: Route,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PLAN {}", self.query)?;
        writeln!(
            f,
            "  estimate: {:.4} selectivity over {} tuples (~{:.1} matches), k={}",
            self.estimated_selectivity, self.relation_tuples, self.estimated_matches, self.k
        )?;
        writeln!(f, "  candidates (preference order):")?;
        for c in &self.candidates {
            let mark = if c.chosen { "->" } else { "  " };
            writeln!(f, "  {} {:<9} {}", mark, format!("{:?}", c.route), c.reason())?;
        }
        write!(f, "  route: {:?}", self.route)
    }
}

/// The output of
/// [`Engine::explain_analyze`](crate::Engine::explain_analyze): the
/// static plan joined with what actually happened when the query ran.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The plan as predicted before execution.
    pub plan: PlanReport,
    /// The route that actually answered (differs from `plan.route`
    /// only when a storage fault degraded the query mid-flight).
    pub executed: Route,
    /// The answer: `(tid, score)` pairs in ascending score order.
    pub items: Vec<(rcube_table::Tid, f64)>,
    /// Execution counters from the cursor that answered.
    pub stats: QueryStats,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// The query's trace: ordered spans/events with counter deltas
    /// (`cursor.attach` carries open-sunk cost; each `cursor.next`
    /// carries the pull's delta).
    pub events: Vec<TraceEvent>,
    /// The scatter-gather fan-out when the sharded route answered:
    /// per-shard pulls, answers, blocks, and whether the bound pruned
    /// the shard. `None` on unsharded routes.
    pub fanout: Option<FanoutReport>,
    /// The memtable-vs-base split when the delta route answered: how
    /// many answers came from the in-memory overlay vs the pinned base
    /// generation, and how many base answers the overlay masked. `None`
    /// off the delta route.
    pub delta: Option<DeltaContribution>,
}

/// Where a delta-route answer set came from
/// ([`AnalyzeReport::delta`]): the LSM split made visible per query.
#[derive(Debug, Clone, Copy)]
pub struct DeltaContribution {
    /// Answers served from the in-memory overlay (pending writes).
    pub memtable_answers: u64,
    /// Answers served from the pinned base-cube generation.
    pub base_answers: u64,
    /// Base answers suppressed because the overlay deleted or superseded
    /// their tuples.
    pub masked: u64,
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.plan)?;
        writeln!(f, "ANALYZE")?;
        writeln!(
            f,
            "  executed: {:?}{} in {:.3} ms",
            self.executed,
            if self.executed == self.plan.route { "" } else { " (degraded!)" },
            self.wall.as_secs_f64() * 1e3
        )?;
        writeln!(f, "  {:<22} {:>12} {:>12}", "metric", "estimated", "actual")?;
        writeln!(
            f,
            "  {:<22} {:>12.1} {:>12}",
            "answers",
            self.plan.estimated_matches.min(self.plan.k as f64),
            self.items.len()
        )?;
        writeln!(f, "  {:<22} {:>12} {:>12}", "blocks_read", "-", self.stats.blocks_read)?;
        writeln!(f, "  {:<22} {:>12} {:>12}", "tuples_scored", "-", self.stats.tuples_scored)?;
        writeln!(f, "  {:<22} {:>12} {:>12}", "disk_reads", "-", self.stats.io.disk_reads)?;
        writeln!(
            f,
            "  {:<22} {:>12} {:>12}",
            "shared_node_hits", "-", self.stats.shared_node_hits
        )?;
        if let Some(fan) = &self.fanout {
            for line in fan.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        if let Some(d) = &self.delta {
            writeln!(
                f,
                "  delta: {} answers from memtable, {} from base, {} masked",
                d.memtable_answers, d.base_answers, d.masked
            )?;
        }
        write!(f, "  trace: {} events", self.events.len())
    }
}

/// One captured slow query: everything needed to diagnose it after the
/// fact (plan, route, counters, full trace).
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Debug rendering of the query.
    pub query: String,
    /// The route that answered.
    pub route: Route,
    /// Wall-clock execution time (≥ the configured threshold).
    pub wall: Duration,
    /// Execution counters from the answering cursor.
    pub stats: QueryStats,
    /// The plan report at capture time (includes quarantine state).
    pub plan: PlanReport,
    /// The query's trace events.
    pub events: Vec<TraceEvent>,
}

impl fmt::Display for SlowQueryRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SLOW {:.3} ms via {:?}: {} ({} blocks, {} tuples scored, {} trace events)",
            self.wall.as_secs_f64() * 1e3,
            self.route,
            self.query,
            self.stats.blocks_read,
            self.stats.tuples_scored,
            self.events.len()
        )
    }
}

/// The aggregated point-in-time view from
/// [`Engine::stats_snapshot`](crate::Engine::stats_snapshot): device
/// I/O, per-path buffer pools, the shared node cache, quarantine state,
/// and the engine's full metric registry.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Cumulative I/O counters: the engine's device (the scan's) plus the
    /// meter of every shard of the grid-family set — a grid cube's I/O
    /// lands on its one shard's.
    pub io: IoSnapshot,
    /// Delta-layer state when an LSM delta cube is registered: memtable
    /// depth/bytes, WAL length (the frames not yet folded into the cube
    /// file), flushes completed and what they rewrote, last replay
    /// outcome.
    pub delta: Option<DeltaStats>,
    /// Shard count of the registered grid-family set when it is the
    /// sharded route (two or more shards).
    pub sharded_shards: Option<usize>,
    /// Shards of the partitioned set currently failed, with the
    /// condemning error (empty when healthy or unregistered).
    pub sharded_failed: Vec<(usize, String)>,
    /// Grid cube buffer-pool stats: the set of one's shard (file-backed
    /// stores only).
    pub grid_pool: Option<PoolStats>,
    /// Buffer-pool stats of the delta cube's serving generation — the
    /// signature cube new queries read.
    pub signature_pool: Option<PoolStats>,
    /// Stats of the shared cross-query node cache that generation reads
    /// through (the cache follows the file across warm flushes; a cold
    /// one, or a vacuum, starts another).
    pub node_cache: Option<rcube_core::nodecache::NodeCacheStats>,
    /// Routes currently out of service, with the condemning error.
    pub quarantined: Vec<(Route, String)>,
    /// Captured slow queries currently in the log.
    pub slow_queries: usize,
    /// Every counter/gauge/histogram in the engine's registry.
    pub metrics: MetricsSnapshot,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "io: {} logical reads, {} disk reads, {} writes",
            self.io.logical_reads, self.io.disk_reads, self.io.writes
        )?;
        if let Some(d) = &self.delta {
            writeln!(
                f,
                "delta: {} memtable ops ({} bytes), {} WAL bytes, \
                 {} flushes ({} cold opens, {} partials rewritten, {} nodes re-encoded), \
                 generation {} ({} alive), last replay: {} records{}",
                d.memtable_ops,
                d.memtable_bytes,
                d.wal_bytes,
                d.flushes,
                d.cold_opens,
                d.partials_rewritten,
                d.nodes_reencoded,
                d.serving_generation,
                d.generations_retained,
                d.last_replay.records,
                if d.last_replay.torn_tail { " (torn tail truncated)" } else { "" }
            )?;
        }
        if let Some(n) = self.sharded_shards {
            writeln!(f, "sharded: {} shards, {} failed", n, self.sharded_failed.len())?;
        }
        for (name, pool) in [("grid", &self.grid_pool), ("signature", &self.signature_pool)] {
            if let Some(p) = pool {
                writeln!(
                    f,
                    "{name} pool: {} hits, {} misses, {} evictions",
                    p.hits(),
                    p.misses(),
                    p.evictions()
                )?;
            }
        }
        if let Some(nc) = &self.node_cache {
            writeln!(
                f,
                "node cache: {} hits, {} misses, {} evictions, {} entries",
                nc.hits, nc.misses, nc.evictions, nc.entries
            )?;
        }
        writeln!(f, "quarantined: {}", self.quarantined.len())?;
        write!(f, "slow queries logged: {}", self.slow_queries)
    }
}
