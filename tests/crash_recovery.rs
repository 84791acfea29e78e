//! Crash safety of the generational commit protocol, driven by
//! deterministic fault injection (`rcube_storage::fault`):
//!
//! * crash-point sweep — a maintenance commit is replayed once per raw
//!   page-write boundary, crashing (torn or dropped) at exactly that
//!   write; every reopen must elect a *fully committed* generation whose
//!   answers are byte-identical to the pre- or post-commit cube;
//! * a proptest over several committed generations and an arbitrary
//!   crash point, asserting the same invariant;
//! * sticky media bit flips injected on the read path (the file bytes
//!   never change) must surface as typed errors or leave answers
//!   byte-identical — never a silent wrong answer;
//! * eight reader threads pinned on the generation they opened keep
//!   streaming it byte-identically while a writer commits the next one;
//! * `ENOSPC` mid-commit fails the commit but leaves the previous
//!   generation electable, and the commit succeeds when retried;
//! * the integrity scrub rolls the open pointer back to the previous
//!   generation when the newest one is damaged on disk.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use ranking_cube::cube::maintain::apply_path_updates;
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{ScrubOutcome, SignatureCube, SignatureCubeConfig};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::storage::{CrashMode, DiskSim, FaultPlan, FileOptions, PageStore, StorageError};
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::Relation;

const PAGE: usize = 512;
/// Writer pool large enough that nothing is ever evicted: the oblivious
/// post-crash writer then reads its own writes back from the pool, the
/// way a live process reads the kernel page cache after the platters
/// already lost the bytes.
const WRITER_POOL: usize = 4096;

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_crash_{tag}_{}_{n}", std::process::id()));
    p
}

/// Exact score bit patterns: equality is byte-identity of the top-k.
fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

/// The fixed query workload every generation is compared under
/// (cardinality 3, three selection dims).
fn workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![], 8), (vec![(0, 1)], 10), (vec![(1, 2)], 6), (vec![(0, 0), (2, 1)], 10)]
}

fn answers(cube: &SignatureCube, rtree: &RTree) -> Vec<String> {
    let disk = DiskSim::with_defaults();
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            render(&cube.source(rtree, &disk).query(&q.plan()).unwrap().items)
        })
        .collect()
}

/// Builds a cube over the first `base` tuples of `full` and saves it —
/// generation 1 of the file at `path`.
fn save_base(full: &Relation, base: usize, path: &Path) {
    let rel = full.prefix(base);
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    cube.save_to_with(&rtree, path, PAGE, 64).expect("save base cube");
}

fn open_readonly(path: &Path) -> (SignatureCube, RTree) {
    SignatureCube::open_from_with(path, 32).expect("open cube file")
}

fn faulted_writable(path: &Path, plan: &Arc<FaultPlan>) -> PageStore {
    let opts = FileOptions { pool_pages: WRITER_POOL, faults: Some(Arc::clone(plan)) };
    PageStore::open_file_writable(path, opts).expect("open writable (faulted)")
}

/// One maintenance round: insert tuples `from..to` of `full` into the
/// R-tree, patch the affected cells (COW), and commit the next
/// generation. Returns the committed generation.
fn run_maintenance(
    store: PageStore,
    full: &Relation,
    from: usize,
    to: usize,
) -> Result<u64, StorageError> {
    let (mut cube, mut rtree) = SignatureCube::open_store(store)?;
    let disk = DiskSim::with_defaults();
    for tid in from..to {
        let updates = rtree.insert(&disk, tid as u32, full.ranking_point(tid as u32));
        apply_path_updates(
            &mut cube,
            &updates,
            |t| (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect(),
            &disk,
        )?;
    }
    Ok(cube.commit(&mut rtree)?.generation)
}

/// The crash-point sweep: a full maintenance commit is replayed once per
/// raw page-write boundary, crashing exactly there — first with the
/// write dropped whole, then torn mid-sector. Every reopen must elect a
/// fully committed generation (old or new, nothing in between) that
/// verifies clean and answers byte-identically to that generation.
#[test]
fn crash_at_every_write_boundary_recovers_a_committed_generation() {
    let full = SyntheticSpec { tuples: 146, cardinality: 3, ..Default::default() }.generate();
    let base = 140;
    let base_path = temp_path("sweep_base");
    save_base(&full, base, &base_path);

    let (cube_a, rtree_a) = open_readonly(&base_path);
    let gen_a = cube_a.store().generation().expect("file store has a generation");
    let ans_a = answers(&cube_a, &rtree_a);
    drop((cube_a, rtree_a));

    // Clean twin run: counts the total page writes of maintenance +
    // commit and yields the post-commit reference answers.
    let clean_path = temp_path("sweep_clean");
    std::fs::copy(&base_path, &clean_path).expect("copy base file");
    let counter = FaultPlan::new();
    let gen_b = run_maintenance(faulted_writable(&clean_path, &counter), &full, base, full.len())
        .expect("clean maintenance commit");
    let writes = counter.writes_observed();
    assert_eq!(gen_b, gen_a + 1, "commit must publish the successor generation");
    assert!(writes > 3, "commit alone takes catalog + alloc map + superblock writes");
    let (cube_b, rtree_b) = open_readonly(&clean_path);
    assert_eq!(cube_b.store().generation(), Some(gen_b));
    let ans_b = answers(&cube_b, &rtree_b);
    drop((cube_b, rtree_b));
    std::fs::remove_file(&clean_path).ok();

    // Torn keep of a third of a page still covers the whole superblock
    // head, so a tear on the final stamp write *completes* the commit —
    // both recovery outcomes (old and new generation) are exercised.
    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: PAGE / 3 }] {
        for i in 0..writes {
            let p = temp_path("sweep_pt");
            std::fs::copy(&base_path, &p).expect("copy base file");
            let plan = FaultPlan::new();
            plan.crash_after_page_writes(i, mode);
            let store = faulted_writable(&p, &plan);
            // The writer runs obliviously past the crash point; whatever
            // it reports (or however it dies) is irrelevant — only what
            // a fresh open finds on the "disk" matters.
            let _ =
                catch_unwind(AssertUnwindSafe(|| run_maintenance(store, &full, base, full.len())));
            assert!(plan.crashed(), "crash point {i} never reached ({writes} writes total)");

            let (cube, rtree) = SignatureCube::open_from_with(&p, 32)
                .unwrap_or_else(|e| panic!("crash at write {i} ({mode:?}): reopen failed: {e}"));
            cube.verify_integrity()
                .unwrap_or_else(|e| panic!("crash at write {i} ({mode:?}): scrub failed: {e}"));
            let gen = cube.store().generation().expect("file store has a generation");
            let ans = answers(&cube, &rtree);
            let consistent = (gen == gen_a && ans == ans_a) || (gen == gen_b && ans == ans_b);
            assert!(
                consistent,
                "crash at write {i} ({mode:?}): elected generation {gen} is not \
                 byte-identical to a committed one (A={gen_a}, B={gen_b})"
            );
            std::fs::remove_file(&p).ok();
        }
    }
    std::fs::remove_file(&base_path).ok();
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]
    /// Commit several generations cleanly, then crash an extra commit at
    /// an arbitrary write boundary (torn or dropped): the reopened file
    /// must answer byte-identically to *some* committed generation.
    #[test]
    fn crash_after_generations_recovers_some_committed_generation(
        gens in 1usize..4,
        frac in 0.0f64..1.0,
        keep in 0usize..PAGE,
        dropped in proptest::bool::ANY,
    ) {
        const STEP: usize = 4;
        let full = SyntheticSpec { tuples: 140, cardinality: 3, ..Default::default() }.generate();
        let base = 120;
        let path = temp_path("gens");
        save_base(&full, base, &path);

        // Commit `gens` generations cleanly, recording each one's answers.
        let mut committed: Vec<(u64, Vec<String>)> = Vec::new();
        {
            let (cube, rtree) = open_readonly(&path);
            committed.push((cube.store().generation().unwrap(), answers(&cube, &rtree)));
        }
        for g in 0..gens {
            let store = PageStore::open_file_writable(&path, WRITER_POOL).expect("open writable");
            let from = base + g * STEP;
            run_maintenance(store, &full, from, from + STEP).expect("clean commit");
            let (cube, rtree) = open_readonly(&path);
            committed.push((cube.store().generation().unwrap(), answers(&cube, &rtree)));
        }

        // Clean twin of the final round, to size the crash point and get
        // the would-be next generation's answers.
        let from = base + gens * STEP;
        let twin = temp_path("gens_twin");
        std::fs::copy(&path, &twin).expect("copy");
        let counter = FaultPlan::new();
        let next_gen =
            run_maintenance(faulted_writable(&twin, &counter), &full, from, from + STEP)
                .expect("twin commit");
        let writes = counter.writes_observed();
        {
            let (cube, rtree) = open_readonly(&twin);
            committed.push((next_gen, answers(&cube, &rtree)));
        }
        std::fs::remove_file(&twin).ok();

        // Crash the real final round anywhere in [0, writes] — the upper
        // bound crashes *after* the last write, i.e. a completed commit.
        let crash_at = ((frac * writes as f64) as u64).min(writes);
        let mode = if dropped { CrashMode::Dropped } else { CrashMode::Torn { keep } };
        let plan = FaultPlan::new();
        plan.crash_after_page_writes(crash_at, mode);
        let store = faulted_writable(&path, &plan);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_maintenance(store, &full, from, from + STEP)
        }));

        let (cube, rtree) = SignatureCube::open_from_with(&path, 32)
            .unwrap_or_else(|e| panic!("crash at write {crash_at} of {writes}: reopen: {e}"));
        proptest::prop_assert!(cube.verify_integrity().is_ok(), "elected generation dirty");
        let gen = cube.store().generation().unwrap();
        let ans = answers(&cube, &rtree);
        proptest::prop_assert!(
            committed.iter().any(|(g, a)| *g == gen && *a == ans),
            "crash at write {} of {} ({:?}): generation {} not byte-identical to any \
             committed one",
            crash_at, writes, mode, gen
        );
        std::fs::remove_file(&path).ok();
    }
}

/// One saved cube plus its reference answers, shared by the sticky
/// bit-flip property below.
fn pristine_sig() -> &'static (Vec<u8>, Vec<String>) {
    static FILE: std::sync::OnceLock<(Vec<u8>, Vec<String>)> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        let full = SyntheticSpec { tuples: 400, cardinality: 3, ..Default::default() }.generate();
        let path = temp_path("sticky_pristine");
        save_base(&full, 400, &path);
        let bytes = std::fs::read(&path).expect("read back");
        let (cube, rtree) = open_readonly(&path);
        let ans = answers(&cube, &rtree);
        drop((cube, rtree));
        std::fs::remove_file(&path).ok();
        (bytes, ans)
    })
}

proptest::proptest! {
    /// Sticky media corruption: a bit flip injected on every *read*
    /// covering one file offset (the on-disk bytes never change, so this
    /// models a decaying sector, not a tampered file). The flip must
    /// surface as a typed error at open or in the scrub — or, when it
    /// lands in slack no generation reads (the stale superblock slot,
    /// dead pages, padding), leave every answer byte-identical.
    #[test]
    fn sticky_media_bit_flip_never_yields_wrong_answers(
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let (pristine, expected) = pristine_sig();
        let offset = ((pos_frac * pristine.len() as f64) as u64).min(pristine.len() as u64 - 1);
        let path = temp_path("sticky");
        std::fs::write(&path, pristine).expect("write copy");

        let plan = FaultPlan::new();
        plan.corrupt_byte(offset, 1 << bit);
        let opts = FileOptions { pool_pages: 32, faults: Some(Arc::clone(&plan)) };
        let opened = PageStore::open_file(&path, opts).and_then(SignatureCube::open_store);
        match opened {
            Err(_) => {} // superblock / alloc map / catalog rejected the flip
            Ok((cube, rtree)) => {
                if cube.verify_integrity().is_ok() {
                    proptest::prop_assert_eq!(
                        &answers(&cube, &rtree),
                        expected,
                        "flip at byte {} bit {} passed the scrub but changed answers",
                        offset,
                        bit
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Eight readers pinned on the generation they opened race a writer
/// committing the next one: every answer any reader produces — before,
/// during and after the commit — is byte-identical to its opened
/// generation; readers opened after the commit see the new one.
#[test]
fn readers_pinned_on_open_generation_survive_commit() {
    const READERS: usize = 8;
    let full = SyntheticSpec { tuples: 310, cardinality: 3, ..Default::default() }.generate();
    let base = 300;
    let path = temp_path("race");
    save_base(&full, base, &path);

    let (cube_a, rtree_a) = open_readonly(&path);
    let gen_a = cube_a.store().generation().unwrap();
    let ans_a = answers(&cube_a, &rtree_a);
    drop((cube_a, rtree_a));

    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                // Pin on generation A *before* the writer starts.
                let (cube, rtree) = open_readonly(&path);
                assert_eq!(cube.store().generation(), Some(gen_a));
                start.wait();
                let mut rounds = 0u64;
                while !done.load(Ordering::Acquire) || rounds < 3 {
                    assert_eq!(
                        answers(&cube, &rtree),
                        ans_a,
                        "reader pinned on generation {gen_a} saw foreign bytes mid-commit"
                    );
                    rounds += 1;
                }
            });
        }
        start.wait();
        let store = PageStore::open_file_writable(&path, WRITER_POOL).expect("open writable");
        let gen_b = run_maintenance(store, &full, base, full.len()).expect("commit under readers");
        assert_eq!(gen_b, gen_a + 1);
        done.store(true, Ordering::Release);
    });

    // Fresh opens elect the new generation and verify clean.
    let (cube_b, rtree_b) = open_readonly(&path);
    assert_eq!(cube_b.store().generation(), Some(gen_a + 1));
    cube_b.verify_integrity().expect("post-commit scrub");
    assert_ne!(answers(&cube_b, &rtree_b), ans_a, "maintenance must have changed some answer");
    std::fs::remove_file(&path).ok();
}

/// `ENOSPC` inside the commit write sequence fails the commit with a
/// typed error, leaves the previous generation electable, and the commit
/// succeeds when retried once space is back.
#[test]
fn enospc_mid_commit_is_recoverable() {
    let full = SyntheticSpec { tuples: 146, cardinality: 3, ..Default::default() }.generate();
    let base = 140;
    let path = temp_path("enospc");
    save_base(&full, base, &path);
    let (cube_a, rtree_a) = open_readonly(&path);
    let gen_a = cube_a.store().generation().unwrap();
    let ans_a = answers(&cube_a, &rtree_a);
    drop((cube_a, rtree_a));

    // Size the write sequence on a clean twin, then script ENOSPC two
    // writes from the end — inside commit's catalog/alloc/superblock run.
    let twin = temp_path("enospc_twin");
    std::fs::copy(&path, &twin).expect("copy");
    let counter = FaultPlan::new();
    run_maintenance(faulted_writable(&twin, &counter), &full, base, full.len())
        .expect("twin commit");
    let writes = counter.writes_observed();
    let (twin_cube, twin_rtree) = open_readonly(&twin);
    let ans_b = answers(&twin_cube, &twin_rtree);
    drop((twin_cube, twin_rtree));
    std::fs::remove_file(&twin).ok();

    let plan = FaultPlan::new();
    plan.enospc_at_page_write(writes - 2);
    let err = run_maintenance(faulted_writable(&path, &plan), &full, base, full.len())
        .expect_err("commit must surface ENOSPC");
    assert!(matches!(err, StorageError::Io(_)), "expected an I/O error, got {err:?}");

    // The failed commit is invisible: the file still elects generation A.
    let (cube, rtree) = open_readonly(&path);
    assert_eq!(cube.store().generation(), Some(gen_a));
    cube.verify_integrity().expect("previous generation intact");
    assert_eq!(answers(&cube, &rtree), ans_a);
    drop((cube, rtree));

    // Space comes back: the retried maintenance commit goes through.
    let store = PageStore::open_file_writable(&path, WRITER_POOL).expect("reopen writable");
    let gen_b = run_maintenance(store, &full, base, full.len()).expect("retried commit");
    assert_eq!(gen_b, gen_a + 1);
    let (cube, rtree) = open_readonly(&path);
    assert_eq!(cube.store().generation(), Some(gen_b));
    assert_eq!(answers(&cube, &rtree), ans_b);
    std::fs::remove_file(&path).ok();
}

/// Damage confined to the newest generation's pages: open still elects
/// it (the superblock is fine), the scrub detects the rot, verifies the
/// previous generation and rolls the open pointer back to it.
#[test]
fn scrub_rolls_back_to_previous_generation_when_latest_is_damaged() {
    let full = SyntheticSpec { tuples: 146, cardinality: 3, ..Default::default() }.generate();
    let base = 140;
    let path = temp_path("scrub");
    save_base(&full, base, &path);
    let pages_a = std::fs::metadata(&path).expect("stat").len() / PAGE as u64;
    let (cube_a, rtree_a) = open_readonly(&path);
    let gen_a = cube_a.store().generation().unwrap();
    let ans_a = answers(&cube_a, &rtree_a);
    drop((cube_a, rtree_a));

    let store = PageStore::open_file_writable(&path, WRITER_POOL).expect("open writable");
    let gen_b = run_maintenance(store, &full, base, full.len()).expect("commit");
    assert_eq!(gen_b, gen_a + 1);

    // Find a partial written by the maintenance round — a page only
    // generation B reaches — and rot a byte inside it on disk.
    let (cube_b, _rtree_b) = open_readonly(&path);
    let card = 3u32;
    let fresh_page = (0..full.schema().num_selection())
        .flat_map(|d| (0..card).map(move |v| (d, v)))
        .filter_map(|(d, v)| cube_b.cell_signature(&[d], &[v]))
        .flat_map(|s| s.partial_pages().iter().copied())
        .find(|p| p.0 >= pages_a)
        .expect("maintenance appended at least one partial");
    drop(cube_b);
    let offset = fresh_page.0 * PAGE as u64 + 12;
    let mut bytes = std::fs::read(&path).expect("read file");
    bytes[offset as usize] ^= 0x55;
    std::fs::write(&path, &bytes).expect("write damaged file");

    // Open still elects B (the superblock is intact); the deep scrub
    // catches the rot and rolls back to A.
    let (cube, _) = open_readonly(&path);
    assert_eq!(cube.store().generation(), Some(gen_b));
    cube.verify_integrity().expect_err("damage must be detected");
    drop(cube);
    let outcome = SignatureCube::scrub_path(&path).expect("scrub with a clean fallback");
    assert_eq!(outcome, ScrubOutcome::RolledBack { from: gen_b, to: gen_a });

    // Every subsequent open serves the last good generation.
    let (cube, rtree) = open_readonly(&path);
    assert_eq!(cube.store().generation(), Some(gen_a));
    cube.verify_integrity().expect("rolled-back generation is clean");
    assert_eq!(answers(&cube, &rtree), ans_a);
    drop((cube, rtree));
    assert_eq!(
        SignatureCube::scrub_path(&path).expect("second scrub"),
        ScrubOutcome::Clean { generation: gen_a }
    );
    std::fs::remove_file(&path).ok();
}
