//! The LSM delta cube's crash-safety contract, end to end:
//!
//! * any single WAL bit flip is either caught typed (`ChecksumMismatch`
//!   / `BadLength` / `BadMagic`) or truncated as a torn tail — and a
//!   torn-tail reopen answers exactly like some clean prefix of the
//!   appended ops, never a hybrid;
//! * a crash-point sweep over *every* WAL append (dropped and torn):
//!   reopening recovers precisely the durable prefix, then keeps
//!   accepting writes and flushes;
//! * a crash-point sweep over *every* flush boundary — each cube-file
//!   page write (dropped and torn) plus the WAL hand-over's swap stages
//!   (temp write, temp sync, rename) — always reopens to the full
//!   logical post-ops state, and a subsequent clean flush is
//!   answer-neutral (a crash *between* the cube commit and the WAL
//!   hand-over leaves frames the file already holds: replay skips every
//!   one at or below the file's `flushed_seq`) — swept once over a cold
//!   flush (a copy of the file swapped in under the open delta, so the
//!   flush must parse the catalog) and once over a warm one (which takes
//!   its catalog from the generation it serves and writes fewer pages),
//!   and once over a flush that takes appends
//!   mid-cycle (each reopen holds exactly the ops acknowledged before the
//!   crash point that its generation does not);
//! * a cursor pinned before a flush keeps streaming the R-tree of its
//!   generation while the writer splits and condenses a copy-on-write
//!   clone that shares every untouched node with it;
//! * the merged base+overlay view stays byte-identical to a cube built
//!   from scratch over the logical relation across ≥3
//!   ingest→flush→serve cycles, inserts and deletes alike;
//! * WAL replay counters are exact across sessions — after a flush the
//!   WAL holds only what was appended since — and a cursor opened
//!   mid-stream extends on its pinned generation across a flush.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::storage::{CrashMode, DiskSim, FaultPlan, StorageError, SwapStage};
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::{Relation, RelationBuilder, Tid};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_dlsm_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path_for(&p));
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path_for(p));
    let mut os = wal_path_for(p).into_os_string();
    os.push(".new");
    let _ = std::fs::remove_file(PathBuf::from(os));
}

/// Puts a byte-identical copy of the cube file under `path`: another
/// inode, so the next flush cannot trust the catalog its delta holds and
/// takes the cold path.
fn swap_in_copy(path: &Path) {
    let copy = temp_path("swap_copy");
    std::fs::copy(path, &copy).unwrap();
    std::fs::rename(&copy, path).unwrap();
}

/// Exact score bit patterns: equality is byte-identity of the top-k.
fn render(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

/// Scores only — for comparisons against a rebuilt relation whose tids
/// shifted because tuples were deleted.
fn render_scores(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(_, s)| format!("{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

fn workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![], 12), (vec![(0, 1)], 10), (vec![(1, 2)], 8), (vec![(0, 2), (1, 1)], 10)]
}

/// The delta's merged answers over the shared query workload.
fn answers(delta: &DeltaCube) -> Vec<String> {
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            render(&items)
        })
        .collect()
}

/// The same workload against a from-scratch in-memory cube over `rel`.
fn rebuilt_answers(rel: &Relation) -> Vec<(String, String)> {
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let plan = q.plan();
            let items = cube.source(&rtree, &disk).open(&plan).unwrap().try_drain().unwrap().items;
            (render(&items), render_scores(&items))
        })
        .collect()
}

fn build_base(rel: &Relation, path: &Path) {
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
    cube.save_to_with(&rtree, path, 512, 64).expect("save base cube");
}

fn sel_of(rel: &Relation, tid: Tid) -> Vec<u32> {
    (0..rel.schema().num_selection()).map(|d| rel.selection_value(tid, d)).collect()
}

/// The logical relation after deleting `dropped` and keeping `0..n`.
fn logical_relation(full: &Relation, n: u32, dropped: &[Tid]) -> Relation {
    let mut b = RelationBuilder::new(full.schema().clone());
    for t in 0..n {
        if !dropped.contains(&t) {
            b.push(&sel_of(full, t), &full.ranking_point(t));
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------
// 1. WAL bit-flip proptest: typed error or clean-prefix truncation.
// ---------------------------------------------------------------------

/// Shared fixture for the bit-flip cases: pristine base + WAL bytes and
/// the expected answers after every clean prefix of the appended ops.
struct FlipFixture {
    base_bytes: Vec<u8>,
    wal_bytes: Vec<u8>,
    base: Relation,
    /// `expected[p]` = deep-drain answers with exactly the first `p`
    /// inserts live.
    expected: Vec<Vec<String>>,
}

const FLIP_OPS: u32 = 10;

fn flip_fixture() -> &'static FlipFixture {
    static FIX: OnceLock<FlipFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let full = SyntheticSpec { tuples: 130, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(120);
        let path = temp_path("flip_fixture");
        build_base(&base, &path);
        let base_bytes = std::fs::read(&path).unwrap();
        {
            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            for tid in 120..120 + FLIP_OPS {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
        }
        let wal_bytes = std::fs::read(wal_path_for(&path)).unwrap();
        assert!(wal_bytes.len() > 100, "fixture WAL holds {FLIP_OPS} framed records");
        // Expected answers per clean prefix length.
        let mut expected = Vec::new();
        for p in 0..=FLIP_OPS {
            std::fs::write(&path, &base_bytes).unwrap();
            let _ = std::fs::remove_file(wal_path_for(&path));
            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            for tid in 120..120 + p {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            expected.push(answers(&delta));
        }
        cleanup(&path);
        FlipFixture { base_bytes, wal_bytes, base, expected }
    })
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]
    #[test]
    fn wal_bit_flip_is_caught_or_truncates_to_a_clean_prefix(
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let fix = flip_fixture();
        let offset = ((pos_frac * fix.wal_bytes.len() as f64) as usize)
            .min(fix.wal_bytes.len() - 1);
        let mut corrupt = fix.wal_bytes.clone();
        corrupt[offset] ^= 1u8 << bit;

        let path = temp_path("flip");
        std::fs::write(&path, &fix.base_bytes).unwrap();
        std::fs::write(wal_path_for(&path), &corrupt).unwrap();
        match DeltaCube::open(&path, fix.base.clone(), DeltaOptions::default()) {
            // A flip with valid data behind it must surface typed — the
            // replay refuses to guess past provably-lost records.
            Err(
                StorageError::ChecksumMismatch { .. }
                | StorageError::BadLength { .. }
                | StorageError::BadMagic
                | StorageError::UnsupportedVersion(_),
            ) => {}
            Err(other) => panic!("flip at {offset} bit {bit}: untyped error {other:?}"),
            // A flip the replay survives (torn tail, or a length-field
            // flip that pushes the frame past EOF) must land on a clean
            // prefix of the ops — never wrong answers.
            Ok(delta) => {
                let replay = delta.last_replay();
                let p = replay.pending as usize;
                proptest::prop_assert!(
                    p <= FLIP_OPS as usize,
                    "flip at {} bit {}: replayed {} ops, only {} were appended",
                    offset, bit, p, FLIP_OPS
                );
                proptest::prop_assert_eq!(
                    &answers(&delta),
                    &fix.expected[p],
                    "flip at {} bit {}: survivors must answer like the {}-op prefix",
                    offset, bit, p
                );
            }
        }
        cleanup(&path);
    }
}

// ---------------------------------------------------------------------
// 2. WAL append crash sweep: every append boundary, both crash modes.
// ---------------------------------------------------------------------

#[test]
fn wal_append_crash_sweep_recovers_the_durable_prefix() {
    let full = SyntheticSpec { tuples: 130, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(120);
    let pristine = temp_path("append_pristine");
    build_base(&base, &pristine);
    let base_bytes = std::fs::read(&pristine).unwrap();
    cleanup(&pristine);

    const OPS: u64 = 8;
    // Expected answers per durable-prefix length.
    let mut expected = Vec::new();
    for p in 0..=OPS as u32 {
        let path = temp_path("append_expect");
        std::fs::write(&path, &base_bytes).unwrap();
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 120..120 + p {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        expected.push(answers(&delta));
        drop(delta);
        cleanup(&path);
    }

    // keep=20 tears every record kind mid-frame (upsert frames are
    // longer, delete frames are 21 bytes).
    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: 20 }] {
        for n in 0..OPS {
            let path = temp_path("append_sweep");
            std::fs::write(&path, &base_bytes).unwrap();
            let plan = FaultPlan::new();
            plan.crash_after_page_writes(n, mode);
            {
                let delta = DeltaCube::open(
                    &path,
                    base.clone(),
                    DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() },
                )
                .unwrap();
                // Appends past the crash point are silently lost — the
                // process "dies" with them in memory only.
                for tid in 120..120 + OPS as u32 {
                    let _ = delta.insert(&sel_of(&full, tid), &full.ranking_point(tid));
                }
            }
            assert!(plan.crashed(), "append crash point {n} ({mode:?}) never reached");

            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            let replay = delta.last_replay();
            assert_eq!(
                replay.pending, n,
                "crash at append {n} ({mode:?}): exactly the durable prefix replays"
            );
            let torn = matches!(mode, CrashMode::Torn { .. });
            assert_eq!(
                replay.torn_tail, torn,
                "crash at append {n} ({mode:?}): torn-tail classification"
            );
            assert_eq!(delta.memtable_len(), n as usize);
            assert_eq!(
                answers(&delta),
                expected[n as usize],
                "crash at append {n} ({mode:?}): answers match the durable prefix"
            );

            // The survivor keeps working: new writes and a flush land.
            let tid = delta.insert(&[1, 1, 1], &[0.5, 0.5]).unwrap();
            assert!(tid >= 120);
            let report = delta.flush().unwrap();
            assert_eq!(report.applied_ops, n as usize + 1);
            assert_eq!(delta.memtable_len(), 0);
            drop(delta);
            cleanup(&path);
        }
    }
}

// ---------------------------------------------------------------------
// 3. Flush crash sweep: every cube page write + every WAL swap stage.
// ---------------------------------------------------------------------

#[test]
fn flush_crash_sweep_reopens_to_the_logical_state_at_every_boundary() {
    let full = SyntheticSpec { tuples: 184, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(160);
    let deletes: [Tid; 2] = [3, 17];

    // Durable ops, fault-free: 24 inserts + 2 deletes in the WAL.
    let pristine = temp_path("flush_pristine");
    build_base(&base, &pristine);
    {
        let delta = DeltaCube::open(&pristine, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 160..184u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        for &tid in &deletes {
            delta.delete(tid).unwrap();
        }
    }
    let base_bytes = std::fs::read(&pristine).unwrap();
    let wal_bytes = std::fs::read(wal_path_for(&pristine)).unwrap();

    // The expected post-ops answers, and their byte-identity with a
    // from-scratch cube over the logical relation (scores: tids shift).
    let expected = {
        let delta = DeltaCube::open(&pristine, base.clone(), DeltaOptions::default()).unwrap();
        answers(&delta)
    };
    let rebuilt = rebuilt_answers(&logical_relation(&full, 184, &deletes));
    for (got, (_, want_scores)) in expected.iter().zip(&rebuilt) {
        let got_scores =
            got.split(',').map(|i| i.split(':').nth(1).unwrap_or("")).collect::<Vec<_>>().join(",");
        assert_eq!(got_scores, *want_scores, "fixture merged view matches a rebuilt cube");
    }
    cleanup(&pristine);

    let run_case = |plan: Arc<FaultPlan>, label: String| {
        let path = temp_path("flush_sweep");
        std::fs::write(&path, &base_bytes).unwrap();
        std::fs::write(wal_path_for(&path), &wal_bytes).unwrap();
        let res = {
            let delta = DeltaCube::open(
                &path,
                base.clone(),
                DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() },
            )
            .unwrap();
            swap_in_copy(&path);
            catch_unwind(AssertUnwindSafe(|| delta.flush()))
        };
        assert!(plan.crashed(), "{label}: crash point never reached");
        assert!(!matches!(res, Ok(Ok(_))), "{label}: a crashed flush must not report success");

        // Reopen clean: the full logical state survives, whichever side
        // of the cube-commit/WAL-hand-over boundary the crash landed on.
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!(answers(&delta), expected, "{label}: reopen after crashed flush");
        // And the next flush is answer-neutral.
        delta.flush().unwrap();
        assert_eq!(answers(&delta), expected, "{label}: clean flush after the crash");
        assert_eq!(delta.memtable_len(), 0, "{label}: clean flush drains the memtable");
        drop(delta);
        cleanup(&path);
    };

    // Dry run on a twin to count the cube-file page writes one flush
    // performs (the WAL hand-over is covered by the swap stages below).
    let writes = {
        let path = temp_path("flush_twin");
        std::fs::write(&path, &base_bytes).unwrap();
        std::fs::write(wal_path_for(&path), &wal_bytes).unwrap();
        let counter = FaultPlan::new();
        let delta = DeltaCube::open(
            &path,
            base.clone(),
            DeltaOptions { faults: Some(Arc::clone(&counter)), ..Default::default() },
        )
        .unwrap();
        swap_in_copy(&path);
        assert_eq!(delta.flush().expect("clean counted flush").cold_opens, 1, "a cold flush");
        assert_eq!(answers(&delta), expected, "counted flush is answer-neutral");
        drop(delta);
        cleanup(&path);
        counter.writes_observed()
    };
    assert!(writes > 3, "a flush commits data + alloc + superblock pages, saw {writes}");

    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: 170 }] {
        for n in 0..writes {
            let plan = FaultPlan::new();
            plan.crash_after_page_writes(n, mode);
            run_case(plan, format!("page write {n} ({mode:?})"));
        }
    }
    for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
        let plan = FaultPlan::new();
        plan.crash_at_swap(stage);
        run_case(plan, format!("WAL swap {stage:?}"));
    }
}

/// The same sweep over a flush that takes appends mid-cycle. Its first page
/// write — the fold's, after the snapshot — first lets six inserts and two
/// deletes land through a scripted action: one delete of a pending insert
/// the flush is folding, one of a base tuple. Crashed at each of those
/// appends (dropped and torn), at every page write of the flush after them
/// and at each WAL swap stage, the reopen serves the old generation or the
/// new one and holds exactly the acknowledged ops that generation does not:
/// every one before the crash point on the old generation, only the
/// mid-cycle ones on the new.
#[test]
fn flush_crash_sweep_with_appends_mid_cycle_reopens_to_the_acknowledged_state() {
    let full = SyntheticSpec { tuples: 190, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(160);
    const PRE_OPS: u64 = 26;
    let pristine = temp_path("midcycle_pristine");
    build_base(&base, &pristine);
    let g0 = {
        let delta = DeltaCube::open(&pristine, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 160..184u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        for tid in [3, 17] {
            delta.delete(tid).unwrap();
        }
        delta.serving_generation()
    };
    let base_bytes = std::fs::read(&pristine).unwrap();
    let wal_bytes = std::fs::read(wal_path_for(&pristine)).unwrap();
    cleanup(&pristine);

    // The mid-cycle ops in order, `(tid, insert?)`; `mid` applies the
    // first `k` of them.
    const MID: [(Tid, bool); 8] = [
        (184, true),
        (185, true),
        (186, true),
        (187, true),
        (188, true),
        (189, true),
        (170, false),
        (40, false),
    ];
    const MID_OPS: u64 = MID.len() as u64;
    let mid = |d: &DeltaCube, full: &Relation, k: u64| {
        for &(tid, insert) in &MID[..k as usize] {
            if insert {
                d.insert(&sel_of(full, tid), &full.ranking_point(tid)).unwrap();
            } else {
                d.delete(tid).unwrap();
            }
        }
    };
    // `expected[k]`: the answers with the pre-flush ops and the first `k`
    // mid-cycle ops live, fault-free and never flushed.
    let expected: Vec<Vec<String>> = (0..=MID_OPS)
        .map(|k| {
            let path = temp_path("midcycle_expect");
            std::fs::write(&path, &base_bytes).unwrap();
            std::fs::write(wal_path_for(&path), &wal_bytes).unwrap();
            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            mid(&delta, &full, k);
            let got = answers(&delta);
            drop(delta);
            cleanup(&path);
            got
        })
        .collect();
    let rebuilt = rebuilt_answers(&logical_relation(&full, 190, &[3, 17, 170, 40]));
    for (got, (_, want_scores)) in expected[MID_OPS as usize].iter().zip(&rebuilt) {
        let got_scores =
            got.split(',').map(|i| i.split(':').nth(1).unwrap_or("")).collect::<Vec<_>>().join(",");
        assert_eq!(got_scores, *want_scores, "all ops live: the merged view of a rebuilt cube");
    }

    // One process: the durable pre-flush ops, the mid-cycle ops armed on the
    // flush's first page write, `arm`'s fault, the flush.
    let session = |arm: &dyn Fn(&FaultPlan)| {
        let path = temp_path("midcycle");
        std::fs::write(&path, &base_bytes).unwrap();
        std::fs::write(wal_path_for(&path), &wal_bytes).unwrap();
        let plan = FaultPlan::new();
        let opts = DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
        let delta = Arc::new(DeltaCube::open(&path, base.clone(), opts).unwrap());
        let (during, rel) = (Arc::downgrade(&delta), full.clone());
        plan.before_page_write(0, move || mid(&during.upgrade().unwrap(), &rel, MID_OPS));
        arm(&plan);
        let res = delta.flush();
        (path, plan, res, delta)
    };

    // Fault-free twin: the page writes of the flush and of the appends, and
    // the appends carried over to the new WAL.
    let writes = {
        let (path, plan, res, delta) = session(&|_| {});
        let report = res.expect("clean flush");
        assert_eq!(report.carried_ops, MID_OPS);
        assert_eq!(delta.memtable_len(), MID_OPS as usize, "the mid-cycle ops outlive the flush");
        assert_eq!(answers(&delta), expected[MID_OPS as usize]);
        drop(delta);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!(delta.last_replay().pending, MID_OPS, "the carried frames replay");
        assert_eq!(delta.serving_generation(), g0 + 1);
        assert_eq!(answers(&delta), expected[MID_OPS as usize]);
        drop(delta);
        cleanup(&path);
        plan.writes_observed()
    };
    assert!(writes > MID_OPS + 3, "appends + data + alloc + superblock pages, saw {writes}");

    let run_case = |arm: &dyn Fn(&FaultPlan), acknowledged: u64, label: String| {
        let (path, plan, res, dead) = session(arm);
        drop(dead);
        assert!(plan.crashed(), "{label}: crash point never reached");
        assert!(res.is_err(), "{label}: a crashed flush must not report success");
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let generation = delta.serving_generation();
        assert!(generation == g0 || generation == g0 + 1, "{label}: generation {generation}");
        let replay = delta.last_replay();
        let unfolded = if generation == g0 { PRE_OPS + acknowledged } else { acknowledged };
        assert_eq!(replay.pending, unfolded, "{label}: acknowledged ops replay");
        assert_eq!(answers(&delta), expected[acknowledged as usize], "{label}: reopen");
        delta.flush().unwrap();
        assert_eq!(answers(&delta), expected[acknowledged as usize], "{label}: clean flush");
        assert_eq!(delta.memtable_len(), 0, "{label}: clean flush drains the memtable");
        drop(delta);
        cleanup(&path);
    };
    // keep=20 tears an append mid-frame as well as a page.
    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: 20 }] {
        for n in 0..writes {
            let what = if n < MID_OPS { "mid-cycle append" } else { "flush page write" };
            run_case(
                &move |plan: &FaultPlan| plan.crash_after_page_writes(n, mode),
                n.min(MID_OPS),
                format!("{what} {n} ({mode:?})"),
            );
        }
    }
    for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
        run_case(
            &move |plan: &FaultPlan| plan.crash_at_swap(stage),
            MID_OPS,
            format!("WAL swap {stage:?}"),
        );
    }
}

/// The same sweep over a *warm* flush — the second one of a process, which
/// takes its catalog from the generation it is serving instead of the
/// file, and writes through that generation's node cache: every page write
/// it issues (fewer than a cold flush: only the partials holding a changed
/// node, the catalog, the allocation map, the superblock) and every WAL
/// swap stage. Then the failures a process *survives* — the disk full at
/// each of those page writes: the same process serves on, retries, and the
/// retry appends other bytes under the page ids the failed attempt used,
/// so an answer out of a node table published before its commit stood
/// would be wrong here.
#[test]
fn warm_flush_crash_sweep_reopens_to_the_logical_state_at_every_boundary() {
    let full = SyntheticSpec { tuples: 190, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(160);
    let pristine = temp_path("warm_pristine");
    build_base(&base, &pristine);
    let base_bytes = std::fs::read(&pristine).unwrap();
    cleanup(&pristine);

    // One process: a clean first flush (warm already: it reuses the catalog
    // the open parsed), more writes, then the flush under test, which
    // writes through the node cache the first one handed on. `arm` scripts
    // the crash once the first flush is through.
    let session = |path: &Path, plan: &Arc<FaultPlan>, arm: &dyn Fn(&FaultPlan)| {
        std::fs::write(path, &base_bytes).unwrap();
        let opts = DeltaOptions { faults: Some(Arc::clone(plan)), ..Default::default() };
        let delta = DeltaCube::open(path, base.clone(), opts).unwrap();
        for tid in 160..172u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        assert_eq!(delta.flush().expect("first flush").cold_opens, 0);
        answers(&delta); // warm the node cache the flush under test writes through
        for tid in 172..190u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        for tid in [5, 161, 40] {
            delta.delete(tid).unwrap();
        }
        let before = plan.writes_observed();
        arm(plan);
        let res = catch_unwind(AssertUnwindSafe(|| delta.flush()));
        let answers = matches!(res, Ok(Ok(_))).then(|| answers(&delta));
        (res, plan.writes_observed() - before, answers, delta)
    };

    // Fault-free twin: the expected answers, the page writes of one warm
    // flush, and proof that it *was* warm.
    let (expected, writes) = {
        let path = temp_path("warm_twin");
        let (res, writes, got, _) = session(&path, &FaultPlan::new(), &|_| {});
        assert_eq!(res.unwrap().unwrap().cold_opens, 0, "the second flush is warm too");
        cleanup(&path);
        (got.unwrap(), writes)
    };
    assert!(writes > 3, "a flush commits data + alloc + superblock pages, saw {writes}");

    let run_case = |arm: &dyn Fn(&FaultPlan), label: String| {
        let path = temp_path("warm_sweep");
        let plan = FaultPlan::new();
        let (res, _, _, dead) = session(&path, &plan, arm);
        drop(dead);
        assert!(plan.crashed(), "{label}: crash point never reached");
        assert!(!matches!(res, Ok(Ok(_))), "{label}: a crashed flush must not report success");
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!(answers(&delta), expected, "{label}: reopen after crashed flush");
        delta.flush().unwrap();
        assert_eq!(answers(&delta), expected, "{label}: clean flush after the crash");
        assert_eq!(delta.memtable_len(), 0, "{label}: clean flush drains the memtable");
        drop(delta);
        cleanup(&path);
    };
    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: 170 }] {
        for n in 0..writes {
            let arm = move |plan: &FaultPlan| {
                plan.crash_after_page_writes(plan.writes_observed() + n, mode);
            };
            run_case(&arm, format!("warm page write {n} ({mode:?})"));
        }
    }
    for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
        run_case(
            &move |plan: &FaultPlan| plan.crash_at_swap(stage),
            format!("warm swap {stage:?}"),
        );
    }

    // ENOSPC at each page write: no crash, the process lives on.
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(4);
    for n in 0..writes {
        let label = format!("disk full at warm page write {n}");
        let path = temp_path("warm_full");
        let plan = FaultPlan::new();
        let arm = move |plan: &FaultPlan| plan.enospc_at_page_write(plan.writes_observed() + n);
        let (res, _, _, delta) = session(&path, &plan, &arm);
        assert!(matches!(res, Ok(Err(StorageError::Io(_)))), "{label}: typed failure");
        assert!(!plan.crashed(), "{label}: nothing died");
        assert_eq!(answers(&delta), expected, "{label}: still serving, memtable intact");
        // A cursor pinned across the retry rides the old generation.
        let at_open = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
        let mut pinned = delta.source().open(&q.plan()).unwrap();
        let mut streamed: Vec<_> = pinned.try_next().unwrap().into_iter().collect();
        // The retry folds two writes more than the attempt did: other bytes
        // under the same page ids.
        delta.delete(72).unwrap();
        delta.insert(&sel_of(&full, 7), &full.ranking_point(7)).unwrap();
        assert_eq!(delta.flush().expect("retry").cold_opens, 0, "{label}: file as it was: warm");
        let after_retry = answers(&delta);
        assert_ne!(after_retry, expected, "{label}: the two extra writes show");
        streamed.extend(std::iter::from_fn(|| pinned.try_next().unwrap()));
        assert_eq!(render(&streamed), render(&at_open), "{label}: the pinned cursor's generation");
        drop(pinned);
        // The same history with no failure in it answers the same.
        let twin = temp_path("warm_full_twin");
        let (_, _, _, clean) = session(&twin, &FaultPlan::new(), &|_| {});
        clean.delete(72).unwrap();
        clean.insert(&sel_of(&full, 7), &full.ranking_point(7)).unwrap();
        assert_eq!(after_retry, answers(&clean), "{label}: the retry answers like a clean run");
        drop((clean, delta));
        cleanup(&twin);
        cleanup(&path);
    }
}

// ---------------------------------------------------------------------
// 4. Byte-identity with a rebuilt cube across ingest→flush cycles.
// ---------------------------------------------------------------------

#[test]
fn merged_view_stays_byte_identical_to_a_rebuilt_cube_across_cycles() {
    let full = SyntheticSpec { tuples: 420, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(300);
    let path = temp_path("cycles");
    build_base(&base, &path);
    let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();

    // Three insert-only cycles: tids allocate densely from the base
    // length, so the merged view must be *tid-exactly* identical to a
    // cube rebuilt over the longer prefix — before AND after the flush.
    for cycle in 0..3u32 {
        let lo = 300 + cycle * 30;
        let hi = lo + 30;
        for tid in lo..hi {
            let got = delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            assert_eq!(got, tid);
        }
        let want: Vec<String> =
            rebuilt_answers(&full.prefix(hi as usize)).into_iter().map(|(f, _)| f).collect();
        assert_eq!(answers(&delta), want, "cycle {cycle}: memtable-served view");
        delta.flush().unwrap();
        assert_eq!(answers(&delta), want, "cycle {cycle}: flushed view");
    }
    assert_eq!(delta.flushes_completed(), 3);

    // A fourth cycle with deletes: tids shift in the rebuild, so the
    // identity is on the score bit patterns.
    let dropped: Vec<Tid> = (0..8).collect();
    for &tid in &dropped {
        delta.delete(tid).unwrap();
    }
    let want: Vec<String> = rebuilt_answers(&logical_relation(&full, 390, &dropped))
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let scores = |delta: &DeltaCube| -> Vec<String> {
        workload()
            .into_iter()
            .map(|(conds, k)| {
                let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
                let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
                render_scores(&items)
            })
            .collect()
    };
    assert_eq!(scores(&delta), want, "delete cycle: memtable-served view");
    delta.flush().unwrap();
    assert_eq!(scores(&delta), want, "delete cycle: flushed view");

    // No deleted tid survives a deep drain.
    let deep = Query::select([]).rank(Linear::uniform(2)).top(500);
    let all = delta.source().open(&deep.plan()).unwrap().try_drain().unwrap().items;
    assert_eq!(all.len(), 382);
    assert!(all.iter().all(|&(t, _)| t >= 8), "deleted tids stay masked after their flush");
    drop(delta);
    cleanup(&path);
}

/// A cursor pinned before a flush keeps streaming the R-tree of the
/// generation it opened on while the writer splits, condenses and re-packs
/// its own copy of that tree — which shares every node it did not touch —
/// and keeps probing that generation's signatures while three flushes
/// hand the node cache on: the tables it reads through are retired by the
/// first, dropped from the cache by the second, and it re-reads its own
/// generation's partials (still on the file) after that.
#[test]
fn pinned_cursor_streams_its_generations_tree_while_the_writer_edits_a_copy() {
    let full = SyntheticSpec { tuples: 300, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(220);
    let path = temp_path("pinned_tree");
    build_base(&base, &path);
    let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
    for tid in 220..240u32 {
        delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
    }
    delta.flush().unwrap();

    // Pin two cursors on this generation: the whole relation, and one
    // cell's tuples through its signature.
    let selections: [Vec<(usize, u32)>; 2] = [vec![], vec![(0, 1)]];
    let query = |conds: &Vec<(usize, u32)>, k: usize| {
        Query::select(conds.clone()).rank(Linear::uniform(2)).top(k)
    };
    let at_open: Vec<String> = selections
        .iter()
        .map(|conds| {
            let q = query(conds, 400);
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            render(&items)
        })
        .collect();
    let shallow = selections.each_ref().map(|conds| query(conds, 5));
    let mut cursors: Vec<_> =
        shallow.iter().map(|q| delta.source().open(&q.plan()).unwrap()).collect();
    let mut got: Vec<Vec<(Tid, f64)>> = cursors
        .iter_mut()
        .map(|c| std::iter::from_fn(|| c.try_next().unwrap()).collect())
        .collect();

    // Three warm flushes under them: a cluster that splits leaves up to the
    // root, deletes that underflow and re-insert, a last few inserts.
    for tid in 240..290u32 {
        let f = f64::from(tid % 11) / 500.0;
        delta.insert(&sel_of(&full, tid), &[0.3 + f, 0.7 - f]).unwrap();
    }
    assert_eq!(delta.flush().unwrap().cold_opens, 0);
    for tid in (0..150u32).step_by(2) {
        delta.delete(tid).unwrap();
    }
    assert_eq!(delta.flush().unwrap().cold_opens, 0);
    for (cursor, got) in cursors.iter_mut().zip(&mut got) {
        cursor.extend_k(3);
        got.extend(std::iter::from_fn(|| cursor.try_next().unwrap()));
    }
    for tid in 290..300u32 {
        delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
    }
    assert_eq!(delta.flush().unwrap().cold_opens, 0);

    for (cursor, got) in cursors.iter_mut().zip(&mut got) {
        cursor.extend_k(400);
        got.extend(std::iter::from_fn(|| cursor.try_next().unwrap()));
    }
    let got: Vec<String> = got.iter().map(|items| render(items)).collect();
    assert_eq!(got, at_open, "pinned cursors answer the generation they opened on");
    drop(cursors);
    // Fresh cursors see what the two flushes did.
    let fresh = query(&selections[0], 400);
    let now = delta.source().open(&fresh.plan()).unwrap().try_drain().unwrap().items;
    assert_eq!(now.len(), 300 - 75);
    drop(delta);
    cleanup(&path);
}

// ---------------------------------------------------------------------
// 5. Exact replay accounting + pinned-generation pagination.
// ---------------------------------------------------------------------

#[test]
fn replay_counts_are_exact_and_extend_k_rides_its_pinned_generation() {
    let full = SyntheticSpec { tuples: 320, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(300);
    let path = temp_path("accounting");
    build_base(&base, &path);

    // Session 1: 14 inserts, one base delete, one delete of a fresh
    // insert (same-tid ops collapse in the memtable, not in the WAL).
    {
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 300..314u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        delta.delete(2).unwrap();
        delta.delete(300).unwrap();
        assert_eq!(delta.memtable_len(), 15, "insert+delete of tid 300 collapses");
    }

    // Session 2: every append replays as pending, nothing applied yet.
    {
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let r = delta.last_replay();
        assert_eq!((r.records, r.pending), (16, 16));
        assert!(!r.torn_tail);
        assert_eq!(delta.memtable_len(), 15);

        // Pin a cursor, then flush and keep writing underneath it: the
        // extension must answer the open-time state, not the new one.
        let q = Query::select([]).rank(Linear::uniform(2)).top(12);
        let at_open = {
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            render(&items)
        };
        let q6 = Query::select([]).rank(Linear::uniform(2)).top(6);
        let mut cursor = delta.source().open(&q6.plan()).unwrap();
        let mut pinned: Vec<(Tid, f64)> =
            std::iter::from_fn(|| cursor.try_next().unwrap()).collect();
        assert_eq!(pinned.len(), 6);
        let report = delta.flush().unwrap();
        // 13 surviving upserts + the base delete; the tombstone for tid
        // 300 finds nothing in the base (it never flushed) and is a
        // no-op in the fold.
        assert_eq!(report.applied_ops, 14);
        delta.insert(&[0, 0, 0], &[0.0001, 0.0001]).unwrap();
        cursor.extend_k(6);
        pinned.extend(std::iter::from_fn(|| cursor.try_next().unwrap()));
        assert_eq!(
            render(&pinned),
            at_open,
            "extend_k across the flush answers the open-time state"
        );
        drop(cursor);
        // The new insert is visible to fresh cursors…
        let fresh = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
        assert_ne!(render(&fresh), at_open, "fresh cursors see the post-flush write");
    }

    // Session 3: the flush left the WAL only the insert made after it,
    // then new writes stack pending on top of it.
    {
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let r = delta.last_replay();
        assert_eq!((r.records, r.pending), (1, 1));
        assert_eq!(delta.memtable_len(), 1, "the post-flush insert replays as pending");
        for tid in 314..319u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
    }
    {
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let r = delta.last_replay();
        assert_eq!((r.records, r.pending), (6, 6));
        assert_eq!(delta.memtable_len(), 6);
    }
    cleanup(&path);
}
