//! Posting-list micro-benchmark at the shapes a cube stores, plus the
//! end-to-end fragments covering-set query it feeds (Section 3.6.3).
//!
//! A stored list is one cuboid cell ∩ one base block: on the benchmark's
//! cube the longest of 653 501 holds 50 tids, each with its own base. So
//! `kway_intersect_3` leapfrogs three such lists — against the seed's
//! shape, decode every list into a `HashSet` and intersect set by set —
//! and `fragments_covering_query/*` runs the retrieve step that does it
//! per block. The 100k-bit bitmap and 200k-tid seek rows went with the
//! kernels they measured, which no stored list could reach.
//!
//! The run writes `BENCH_idlist.json` at the workspace root so the perf
//! trajectory of this hot path is recorded PR over PR. The gate is that
//! the streaming leapfrog is no slower than decode-and-hash, a clock gate
//! under the rule of `rcube_bench::report`.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_bench::{fixed, BenchReport, Bound};
use rcube_core::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use rcube_core::idlist::{self, IdCursor, IdListRef, KWayIntersect};
use rcube_core::query::{Query, RankedSource};
use rcube_func::Linear;
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Tid;

/// One stored list: its base tid and the `encode_auto` buffer of the tids
/// relative to it, as a cell page's directory and payload hold them.
type Stored = (Tid, Vec<u8>);

fn cursor((base, buf): &Stored) -> IdCursor<'_> {
    IdListRef::parse(buf).expect("own encoding").cursor_with_base(*base)
}

/// Three cells' lists for one base block of 291 tuples scattered over a
/// 100k-tuple relation: 49, 29 and 17 tids, bases apart, 9 tids common.
fn stored_lists() -> [Stored; 3] {
    let block: Vec<Tid> = (0..291u32).map(|i| i * 343 + (i * i * 7) % 343).collect();
    [(0, 6), (6, 10), (36, 15)].map(|(first, every)| {
        let tids: Vec<Tid> = block.iter().copied().skip(first).step_by(every).collect();
        let rel: Vec<Tid> = tids.iter().map(|t| t - tids[0]).collect();
        (tids[0], idlist::encode_auto(&rel, rel[rel.len() - 1] + 1))
    })
}

/// The seed's k-way shape: decode every list, hash the first, intersect
/// set-by-set.
fn seed_hashset_chain(lists: &[Stored]) -> Vec<Tid> {
    let mut acc: Option<HashSet<Tid>> = None;
    for l in lists {
        let set: HashSet<Tid> = cursor(l).collect();
        acc = Some(match acc {
            None => set,
            Some(prev) => prev.intersection(&set).copied().collect(),
        });
    }
    let mut v: Vec<Tid> = acc.unwrap_or_default().into_iter().collect();
    v.sort_unstable();
    v
}

fn leapfrog(lists: &[Stored]) -> Vec<Tid> {
    KWayIntersect::from_cursors(lists.iter().map(cursor).collect()).collect()
}

fn bench_kway(c: &mut Criterion) {
    let lists = stored_lists();
    assert_eq!(leapfrog(&lists), seed_hashset_chain(&lists));
    assert_eq!(leapfrog(&lists).len(), 9);
    let mut g = c.benchmark_group("kway_intersect_3");
    g.bench_function("seed_decode_hashset", |b| b.iter(|| seed_hashset_chain(&lists)));
    g.bench_function("streaming_leapfrog", |b| b.iter(|| leapfrog(&lists)));
    g.finish();
}

fn bench_fragments_query(c: &mut Criterion) {
    // End-to-end: the fragments covering-set query — every condition pair
    // spans two fragments, so the retrieve step k-way intersects per block.
    let rel =
        SyntheticSpec { tuples: 20_000, selection_dims: 6, cardinality: 5, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let frags = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, cuboids: CuboidSpec::Fragments(2), ..Default::default() },
    );
    let mut g = c.benchmark_group("fragments_covering_query");
    for (label, conds) in
        [("span2", vec![(0usize, 1u32), (2, 2)]), ("span3", vec![(0, 1), (2, 2), (4, 0)])]
    {
        g.bench_function(label, |b| {
            let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(10);
            b.iter(|| frags.source(&disk).query(&q.plan()).unwrap())
        });
    }
    g.finish();
}

/// Serializes every measurement of this run — plus the headline speedup —
/// to `BENCH_idlist.json` at the workspace root. Runs last in the group.
fn emit_json(c: &mut Criterion) {
    let results = c.measurements().iter().map(|m| (m.id.as_str(), m.mean_ns));
    let mut report = BenchReport::criterion("idlist", results);
    let su_kway =
        report.ratio("kway_intersect_3/seed_decode_hashset", "kway_intersect_3/streaming_leapfrog");
    report.set("speedup_kway_intersect", fixed(su_kway, 2));
    // The streaming leapfrog must not lose to decode-and-hash.
    report.clock_gate("speedup_kway_intersect", su_kway, Bound::Min(1.0), Some(1));
    report.write();
}

criterion_group!(benches, bench_kway, bench_fragments_query, emit_json);
criterion_main!(benches);
