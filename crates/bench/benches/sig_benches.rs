//! Signature-cube pruning benchmarks: the lazy zero-copy pruner
//! (`pruner_for`: on-demand node decode, word-AND across the predicates'
//! cursors) on multi-dimensional predicates with no exact cuboid — the
//! `C_sig` workload of Section 4.3.3 — against what assembling the
//! predicate's signature first would load and decode. The assembled
//! search itself is gone (it lost on every counter and, 13×, on the
//! clock); its two columns are read where it read them, off the catalog:
//! every partial of every predicate cell, every coded byte.
//!
//! The run writes `BENCH_sigcube.json` at the workspace root next to
//! `BENCH_idlist.json` / `BENCH_storage.json`: partial loads, bytes of
//! signature codings decoded, and wall time, plus warm- and cold-pool
//! numbers for a reopened file-backed cube. The deterministic gates are
//! hard even on CI (counters don't jitter): the lazy pruner must perform
//! strictly fewer `sig_loads` than eager assembly and decode at least 2×
//! fewer bytes, with the table scan's top-k answers bit for bit.
//!
//! Beside them the JSON carries what the search pushed
//! (`states_generated`, `peak_heap`) and loaded per query, next to the
//! values the pop-time-pruning search read on this fixture before pruning
//! moved to node expansion ([`Case`]): pushes must not rise, and a
//! rise in `sig_loads_lazy` — possible, one node per expanded node none of
//! whose entries ever popped — is printed, not hidden.

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_baseline::TableScan;
use rcube_bench::{fixed, BenchReport, Bound, Obj};
use rcube_core::query::{Query, RankedSource};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Relation;

struct Setup {
    rel: Relation,
    disk: DiskSim,
    rtree: RTree,
    cube: SignatureCube,
    file_disk: DiskSim,
    file_rtree: RTree,
    file_cube: SignatureCube,
    path: std::path::PathBuf,
}

fn setup() -> Setup {
    let rel =
        SyntheticSpec { tuples: 20_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    // A small alpha forces real decomposition (many partials per cell), so
    // partial-level laziness is measurable, not vacuous.
    let mut cube = SignatureCube::build(
        &rel,
        &rtree,
        &disk,
        SignatureCubeConfig { alpha: 0.02, ..Default::default() },
    );
    let path = rcube_bench::temp_path("sig", "cube");
    cube.save_to(&rtree, &path).expect("save signature cube");
    let (mut file_cube, file_rtree) =
        SignatureCube::open_from(&path).expect("reopen signature cube");
    // This bench measures PR 3's *per-query* lazy read path, so the
    // cross-query shared node cache is disabled on both cubes — its
    // repeat-workload effect is BENCH_concurrency.json's subject, and
    // leaving it on would deflate the lazy counters with warm-cache hits.
    cube.set_node_cache_budget(0);
    file_cube.set_node_cache_budget(0);
    let file_disk = DiskSim::with_defaults();
    Setup { rel, disk, rtree, cube, file_disk, file_rtree, file_cube, path }
}

/// One multi-dimensional predicate, with the lazy route's per-query
/// counters at the last commit that probed every entry's path at pop.
struct Case {
    label: &'static str,
    conds: Vec<(usize, u32)>,
    pop_time_states_generated: u64,
    pop_time_peak_heap: u64,
    pop_time_sig_loads: u64,
    pop_time_bytes_decoded: u64,
}

/// Only atomic cuboids are materialized, so every one of these exercises
/// the intersection path.
fn workload() -> [Case; 2] {
    [
        Case {
            label: "sel2",
            conds: vec![(0, 1), (1, 2)],
            pop_time_states_generated: 516,
            pop_time_peak_heap: 352,
            pop_time_sig_loads: 41,
            pop_time_bytes_decoded: 603,
        },
        Case {
            label: "sel3",
            conds: vec![(0, 1), (1, 2), (2, 3)],
            pop_time_states_generated: 672,
            pop_time_peak_heap: 434,
            pop_time_sig_loads: 121,
            pop_time_bytes_decoded: 3231,
        },
    ]
}

fn bench_sigcube(c: &mut Criterion) {
    let s = setup();

    // --- Deterministic counters (run once, asserted hard) ---------------
    let mut counters = Vec::new();
    let mut worst_load_ratio = f64::INFINITY;
    let mut worst_byte_ratio = f64::INFINITY;
    for case in workload() {
        let Case { label, conds, .. } = &case;
        let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(10);
        let lazy = s.cube.source(&s.rtree, &s.disk).query(&q.plan()).unwrap();
        let scan =
            TableScan::new(&s.rel, &s.disk).source(&s.rel, &s.disk).query(&q.plan()).unwrap();
        let bits = |items: &[(u32, f64)]| -> Vec<(u32, u64)> {
            items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
        };
        assert_eq!(
            bits(&lazy.items),
            bits(&scan.items),
            "{label}: lazy answers are not the scan's"
        );
        // Eager assembly loads every partial of every predicate cell and
        // decodes all of their coded bytes before the search starts.
        let cells = conds.iter().map(|&(d, v)| s.cube.cell_signature(&[d], &[v]).expect("cell"));
        let (eager_loads, eager_bytes) = cells.fold((0u64, 0u64), |(loads, bytes), stored| {
            (loads + stored.num_partials() as u64, bytes + stored.total_bits.div_ceil(8) as u64)
        });
        assert!(
            lazy.stats.sig_loads < eager_loads,
            "{label}: lazy sig_loads {} must be strictly fewer than eager {eager_loads}",
            lazy.stats.sig_loads
        );
        let load_ratio = eager_loads as f64 / lazy.stats.sig_loads.max(1) as f64;
        let byte_ratio = eager_bytes as f64 / lazy.stats.sig_bytes_decoded.max(1) as f64;
        worst_load_ratio = worst_load_ratio.min(load_ratio);
        worst_byte_ratio = worst_byte_ratio.min(byte_ratio);
        println!(
            "{label}: sig_loads lazy {} vs eager {eager_loads} ({load_ratio:.2}x), bytes decoded lazy {} vs eager {eager_bytes} ({byte_ratio:.2}x)",
            lazy.stats.sig_loads, lazy.stats.sig_bytes_decoded
        );
        assert!(
            lazy.stats.states_generated <= case.pop_time_states_generated
                && lazy.stats.peak_heap <= case.pop_time_peak_heap,
            "{label}: pruning at expansion pushed more ({} states, peak {}) than pruning at pop ({}, {})",
            lazy.stats.states_generated,
            lazy.stats.peak_heap,
            case.pop_time_states_generated,
            case.pop_time_peak_heap
        );
        println!(
            "{label}: states_generated {} (pop-time {}), peak_heap {} (pop-time {}), sig_loads_lazy {} (pop-time {}{})",
            lazy.stats.states_generated,
            case.pop_time_states_generated,
            lazy.stats.peak_heap,
            case.pop_time_peak_heap,
            lazy.stats.sig_loads,
            case.pop_time_sig_loads,
            if lazy.stats.sig_loads > case.pop_time_sig_loads { " — ROSE" } else { "" }
        );
        let pop_time = Obj::new()
            .with("states_generated", case.pop_time_states_generated)
            .with("peak_heap", case.pop_time_peak_heap)
            .with("sig_loads_lazy", case.pop_time_sig_loads)
            .with("bytes_decoded_lazy", case.pop_time_bytes_decoded);
        let measured = Obj::new()
            .with("sig_loads_lazy", lazy.stats.sig_loads)
            .with("sig_loads_eager", eager_loads)
            .with("bytes_decoded_lazy", lazy.stats.sig_bytes_decoded)
            .with("bytes_decoded_eager", eager_bytes)
            .with("load_reduction", fixed(load_ratio, 2))
            .with("bytes_reduction", fixed(byte_ratio, 2))
            .with("states_generated", lazy.stats.states_generated)
            .with("peak_heap", lazy.stats.peak_heap)
            .with("pop_time", pop_time);
        counters.push((format!("counters_{label}"), measured));
        // The file-backed cube must show the same profile.
        let flazy = s.file_cube.source(&s.file_rtree, &s.file_disk).query(&q.plan()).unwrap();
        assert_eq!(flazy.items, lazy.items, "{label}: file-backed != in-memory answers");
        assert_eq!(flazy.stats.sig_loads, lazy.stats.sig_loads, "{label}: file-backed laziness");
    }
    assert!(
        worst_byte_ratio >= 2.0,
        "lazy pruning must decode at least 2x fewer bytes (got {worst_byte_ratio:.2}x)"
    );

    // --- Wall time -------------------------------------------------------
    let mut g = c.benchmark_group("sigcube_query");
    for Case { label, conds, .. } in workload() {
        let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(10);
        g.bench_function(format!("inmem_lazy/{label}"), |b| {
            b.iter(|| s.cube.source(&s.rtree, &s.disk).query(&q.plan()).unwrap())
        });

        let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(10);
        // Prime the pool once, then measure warm file-backed serving.
        s.file_cube.source(&s.file_rtree, &s.file_disk).query(&q.plan()).unwrap();
        g.bench_function(format!("file_warm_lazy/{label}"), |b| {
            b.iter(|| s.file_cube.source(&s.file_rtree, &s.file_disk).query(&q.plan()).unwrap())
        });

        let q = Query::select(conds).rank(Linear::uniform(3)).top(10);
        g.bench_function(format!("file_cold_lazy/{label}"), |b| {
            b.iter(|| {
                s.file_cube.store().clear_cache();
                s.file_disk.clear_buffer();
                s.file_cube.source(&s.file_rtree, &s.file_disk).query(&q.plan()).unwrap()
            })
        });
    }
    g.finish();

    let results = c.measurements().iter().map(|m| (m.id.as_str(), m.mean_ns));
    let mut report = BenchReport::criterion("sigcube", results);
    let warm_penalty =
        report.ratio("sigcube_query/file_warm_lazy/sel2", "sigcube_query/inmem_lazy/sel2");
    println!(
        "sigcube: loads {worst_load_ratio:.2}x fewer, bytes {worst_byte_ratio:.2}x fewer, warm file {warm_penalty:.2}x inmem"
    );
    for (key, measured) in counters {
        report.set(&key, measured);
    }
    report
        .set("sig_load_reduction_lazy_vs_eager", fixed(worst_load_ratio, 2))
        .set("bytes_decoded_reduction_lazy_vs_eager", fixed(worst_byte_ratio, 2))
        .set("file_warm_penalty_vs_inmem_lazy", fixed(warm_penalty, 2));
    report.counter_gate("bytes_decoded_reduction_lazy_vs_eager", ">= 2.0", "worst query");
    // Warm file-backed lazy queries should stay within 3x of in-memory
    // lazy ones.
    report.clock_gate("file_warm_penalty_vs_inmem_lazy", warm_penalty, Bound::Max(3.0), Some(1));
    report.write();
    std::fs::remove_file(&s.path).ok();
}

criterion_group!(benches, bench_sigcube);
criterion_main!(benches);
