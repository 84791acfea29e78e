//! The maintenance daemon's whole contract, end to end:
//!
//! * a live vacuum compacts the cube file into a sibling temp file and
//!   publishes it by atomic rename — readers pinned on the old inode
//!   keep answering byte-identically through the swap, fresh opens
//!   elect the compacted file, and the retired pages are gone;
//! * a crash-point sweep over *every* swap boundary — each temp-file
//!   page write (dropped and torn), the temp fsync, the rename, the
//!   lock release — always reopens to a valid generation with
//!   byte-identical answers: the old file untouched before the rename,
//!   the compacted file after it, never a torn hybrid;
//! * cross-process writer exclusion: a second OS process attempting a
//!   writable open is refused fast with the typed
//!   `StorageError::WriterLocked { owner_pid }`, and a lock file left
//!   by a *dead* process is taken over;
//! * the background scheduler of a delta cube vacuums once the persisted
//!   retired-page count crosses its watermark, then goes quiet;
//! * the engine front door serves through the whole cycle, and its delta
//!   cube re-elects the compacted file without being asked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions};
use ranking_cube::cube::maintain::apply_path_updates;
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::cube::{vacuum_into_place, MaintenanceConfig, MaintenanceScheduler};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::obs::Metrics;
use ranking_cube::storage::{
    lock_path_for, CrashMode, DiskSim, FaultPlan, FileBackend, PageStore, StorageError, SwapStage,
};
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::Relation;
use ranking_cube::{Engine, Route};

const PAGE: usize = 512;
const WRITER_POOL: usize = 4096;
/// Env var carrying the cube path to the child-process half of the
/// exclusion test.
const CHILD_ENV: &str = "RCUBE_MAINT_CHILD_PATH";

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_maint_{tag}_{}_{n}", std::process::id()));
    p
}

/// Exact score bit patterns: equality is byte-identity of the top-k.
fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

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

/// A delta cube over the cube file at `path`, whose tuples are `full`'s —
/// what a maintenance scheduler serves.
fn delta_over(path: &Path, full: &Relation) -> Arc<DeltaCube> {
    Arc::new(DeltaCube::open(path, full.clone(), DeltaOptions::default()).expect("open delta"))
}

/// Removes a cube file and the WAL a delta cube kept beside it.
fn remove_cube(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path_for(path)).ok();
}

/// COW maintenance: insert tuples `from..to`, patch affected cells,
/// commit the next generation — retiring the patched partials' pages.
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

/// A cube file with retired pages awaiting a vacuum: saves the base cube
/// at `path`, runs one COW maintenance round over the remaining tuples,
/// and returns `(post-commit answers, retired page count)`.
fn prepare_retired(full: &Relation, base: usize, path: &Path) -> (Vec<String>, u64) {
    save_base(full, base, path);
    let store = PageStore::open_file_writable(path, WRITER_POOL).expect("open writable");
    run_maintenance(store, full, base, full.len()).expect("maintenance commit");
    let retired = FileBackend::peek_superblock(path).expect("peek").retired_pages;
    assert!(retired > 0, "COW maintenance must retire the patched partials");
    let (cube, rtree) = open_readonly(path);
    let ans = answers(&cube, &rtree);
    (ans, retired)
}

fn config() -> MaintenanceConfig {
    MaintenanceConfig {
        watermark_pages: 1,
        poll_interval: Duration::from_millis(30),
        ..MaintenanceConfig::default()
    }
}

/// The tentpole path: pinned readers survive the atomic swap, fresh
/// opens elect the compacted file, the reclaimable pages are gone and
/// the file shrank, and the obs instruments saw all of it.
#[test]
fn live_vacuum_swaps_under_pinned_readers() {
    let full = SyntheticSpec { tuples: 150, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("live");
    save_base(&full, 140, &path);

    // Reader A pins the base generation before maintenance runs.
    let (cube_a, rtree_a) = open_readonly(&path);
    let ans_a = answers(&cube_a, &rtree_a);

    let store = PageStore::open_file_writable(&path, WRITER_POOL).expect("open writable");
    run_maintenance(store, &full, 140, full.len()).expect("maintenance commit");
    let retired = FileBackend::peek_superblock(&path).expect("peek").retired_pages;
    assert!(retired > 0);
    let bytes_before = std::fs::metadata(&path).expect("stat").len();

    // Reader B pins the post-maintenance generation before the swap.
    let (cube_b, rtree_b) = open_readonly(&path);
    let ans_b = answers(&cube_b, &rtree_b);
    assert_ne!(ans_a, ans_b, "maintenance must have changed some answer");

    let metrics = Metrics::new();
    let report = vacuum_into_place(&path, &metrics, None).expect("vacuum");
    assert_eq!(report.reclaimed_pages, retired, "vacuum reclaims exactly the retired pages");

    // Both pinned readers keep answering their opened generation
    // byte-identically: the rename unlinked the old inode's *name*, not
    // the bytes their descriptors hold.
    assert_eq!(answers(&cube_a, &rtree_a), ans_a, "reader A lost its pinned generation");
    assert_eq!(answers(&cube_b, &rtree_b), ans_b, "reader B lost its pinned generation");
    drop((cube_a, rtree_a, cube_b, rtree_b));

    // Fresh opens elect the compacted file: same answers, zero retired
    // pages, strictly smaller file, and the temp name is gone.
    let sb = FileBackend::peek_superblock(&path).expect("peek compacted");
    assert_eq!(sb.retired_pages, 0, "compaction must clear the persisted retired count");
    assert_eq!(sb.generation, report.generation);
    let (cube, rtree) = open_readonly(&path);
    cube.verify_integrity().expect("compacted file verifies clean");
    assert_eq!(answers(&cube, &rtree), ans_b, "vacuum changed an answer");
    assert!(
        std::fs::metadata(&path).expect("stat").len() < bytes_before,
        "compaction must shrink the file"
    );
    assert!(!std::fs::exists(lock_path_for(&path)).unwrap_or(true), "lock must be released");

    // Instrumentation landed in the caller's registry.
    assert_eq!(metrics.counter("maintenance.vacuums").get(), 1);
    assert_eq!(metrics.counter("maintenance.pages_reclaimed").get(), retired);
    assert_eq!(metrics.histogram("maintenance.vacuum_duration_us").count(), 1);
    assert_eq!(metrics.counter("maintenance.lock_contention").get(), 0);
    std::fs::remove_file(&path).ok();
}

/// A vacuum compacts into pages the size of the file it compacts: a
/// 512-byte-page file comes out with 512-byte pages, not the 4 KiB default.
#[test]
fn a_vacuum_keeps_the_page_size_of_the_file_it_compacts() {
    let full = SyntheticSpec { tuples: 150, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("page_size");
    let (ans, retired) = prepare_retired(&full, 140, &path);
    assert_eq!(FileBackend::peek_superblock(&path).expect("peek").page_size as usize, PAGE);
    let report = vacuum_into_place(&path, &Metrics::disabled(), None).expect("vacuum");
    assert_eq!(report.reclaimed_pages, retired);
    let sb = FileBackend::peek_superblock(&path).expect("peek compacted");
    assert_eq!(sb.page_size as usize, PAGE, "the compacted file keeps the source's pages");
    let (cube, rtree) = open_readonly(&path);
    cube.verify_integrity().expect("compacted file verifies clean");
    assert_eq!(answers(&cube, &rtree), ans, "vacuum changed an answer");
    std::fs::remove_file(&path).ok();
}

/// The fault sweep: crash the vacuum at every temp-file page write (both
/// dropped and torn) and at every named swap stage. Before the rename
/// the target must be byte-for-byte untouched; a crash at the lock
/// release leaves the compacted file already live. Either way a reopen
/// elects a valid generation with byte-identical answers.
#[test]
fn vacuum_crash_sweep_recovers_a_valid_generation_at_every_boundary() {
    let full = SyntheticSpec { tuples: 146, cardinality: 3, ..Default::default() }.generate();
    let pristine_path = temp_path("sweep_pristine");
    let (ans, _retired) = prepare_retired(&full, 140, &pristine_path);
    let pristine = std::fs::read(&pristine_path).expect("read pristine file");

    // Clean twin: counts the temp-file page writes (the only writes the
    // plan sees — the source is opened read-only) and proves the plan
    // plumbing reaches the temp backend.
    let twin = temp_path("sweep_twin");
    std::fs::write(&twin, &pristine).expect("copy");
    let counter = FaultPlan::new();
    let metrics = Metrics::new();
    vacuum_into_place(&twin, &metrics, Some(&counter)).expect("clean guarded vacuum");
    let writes = counter.writes_observed();
    assert!(writes > 3, "vacuum writes data + alloc map + superblock pages into the temp file");
    {
        let (cube, rtree) = open_readonly(&twin);
        assert_eq!(answers(&cube, &rtree), ans, "vacuum must be answer-neutral");
    }
    std::fs::remove_file(&twin).ok();

    // Page-write sweep: all faulted writes land in the temp file, so the
    // target must stay byte-identical no matter where the crash hits.
    for mode in [CrashMode::Dropped, CrashMode::Torn { keep: PAGE / 3 }] {
        for i in 0..writes {
            let p = temp_path("sweep_pt");
            std::fs::write(&p, &pristine).expect("copy");
            let plan = FaultPlan::new();
            plan.crash_after_page_writes(i, mode);
            let res = catch_unwind(AssertUnwindSafe(|| {
                vacuum_into_place(&p, &Metrics::disabled(), Some(&plan))
            }));
            assert!(plan.crashed(), "crash point {i} never reached ({writes} writes total)");
            assert!(
                !matches!(res, Ok(Ok(_))),
                "a vacuum crashing at temp write {i} ({mode:?}) must not report success"
            );
            assert_eq!(
                std::fs::read(&p).expect("read target"),
                pristine,
                "crash at temp write {i} ({mode:?}) modified the live file before the rename"
            );
            let (cube, rtree) = open_readonly(&p);
            cube.verify_integrity().expect("target verifies after crashed vacuum");
            assert_eq!(answers(&cube, &rtree), ans);
            drop((cube, rtree));
            std::fs::remove_file(&p).ok();
            std::fs::remove_file(ranking_cube::cube::scheduler::vacuum_temp_path(&p)).ok();
        }
    }

    // Stage sweep, pre-publish: TempWrite, TempSync and Rename crashes
    // all leave the target untouched.
    for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
        let p = temp_path("sweep_stage");
        std::fs::write(&p, &pristine).expect("copy");
        let plan = FaultPlan::new();
        plan.crash_at_swap(stage);
        let err = vacuum_into_place(&p, &Metrics::disabled(), Some(&plan))
            .expect_err("scripted stage crash must surface");
        assert!(matches!(err, StorageError::Io(_)), "stage {stage:?}: {err}");
        assert!(plan.crashed());
        assert_eq!(
            std::fs::read(&p).expect("read target"),
            pristine,
            "crash at {stage:?} modified the live file"
        );
        let (cube, rtree) = open_readonly(&p);
        assert_eq!(answers(&cube, &rtree), ans);
        drop((cube, rtree));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(ranking_cube::cube::scheduler::vacuum_temp_path(&p)).ok();
    }

    // LockRelease crash: the swap already published — the compacted file
    // is live and valid — but the lock file stays behind like a dead
    // writer's would.
    let p = temp_path("sweep_lock");
    std::fs::write(&p, &pristine).expect("copy");
    let plan = FaultPlan::new();
    plan.crash_at_swap(SwapStage::LockRelease);
    vacuum_into_place(&p, &Metrics::disabled(), Some(&plan))
        .expect_err("lock-release crash must surface");
    assert!(plan.crashed());
    let lock = lock_path_for(&p);
    assert!(std::fs::exists(&lock).unwrap_or(false), "crashed release must leave the lock file");
    let sb = FileBackend::peek_superblock(&p).expect("peek");
    assert_eq!(sb.retired_pages, 0, "the compacted file is the live one");
    let (cube, rtree) = open_readonly(&p);
    cube.verify_integrity().expect("compacted file verifies");
    assert_eq!(answers(&cube, &rtree), ans);
    drop((cube, rtree));

    // In-process the leftover lock still names a *live* pid (ours), so a
    // new writer is refused — exactly as if the crashed owner were
    // alive…
    let own = std::process::id();
    match PageStore::open_file_writable(&p, 16) {
        Err(StorageError::WriterLocked { owner_pid }) => assert_eq!(owner_pid, own),
        other => panic!("expected WriterLocked, got {other:?}"),
    }
    // …and once the owner is genuinely dead (simulated by restamping the
    // lock with a dead pid), the next writer takes the lock over.
    std::fs::write(&lock, DEAD_PID.to_string()).expect("restamp lock");
    let store = PageStore::open_file_writable(&p, 16).expect("stale lock taken over");
    drop(store);
    std::fs::remove_file(&p).ok();
    std::fs::remove_file(&pristine_path).ok();
}

/// A pid no live process holds (far past `pid_max` on any linux box).
const DEAD_PID: u32 = u32::MAX - 7;

/// Child half of the exclusion tests: no-op in a normal run; under
/// [`CHILD_ENV`] it attempts a writable open of the given cube file and
/// prints the typed outcome.
#[test]
fn child_try_open_writable() {
    let Ok(path) = std::env::var(CHILD_ENV) else {
        return;
    };
    match PageStore::open_file_writable(&path, 16) {
        Ok(store) => {
            let gen = store.generation().unwrap_or(0);
            println!("RESULT acquired gen={gen}");
        }
        Err(StorageError::WriterLocked { owner_pid }) => println!("RESULT locked:{owner_pid}"),
        Err(e) => println!("RESULT error:{e}"),
    }
}

/// Cross-process writer exclusion: while this process holds a writable
/// handle, a second OS process is refused with `WriterLocked` naming our
/// pid; after we drop the handle the same child acquires cleanly; and a
/// lock file left by a process that exited is taken over.
#[test]
fn second_writer_process_is_refused_then_takes_over_stale_lock() {
    let full = SyntheticSpec { tuples: 146, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("excl");
    save_base(&full, 146, &path);
    let exe = std::env::current_exe().expect("test binary path");
    let spawn_child = || {
        let out = Command::new(&exe)
            .args(["child_try_open_writable", "--exact", "--nocapture", "--test-threads=1"])
            .env(CHILD_ENV, &path)
            .output()
            .expect("spawn child process");
        assert!(
            out.status.success(),
            "child failed\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .filter_map(|l| l.find("RESULT ").map(|i| l[i + "RESULT ".len()..].to_string()))
            .next()
            .expect("child printed a RESULT line")
    };

    // Held lock: the second process is refused, typed, naming us.
    let writer = PageStore::open_file_writable(&path, WRITER_POOL).expect("first writer");
    assert_eq!(spawn_child(), format!("locked:{}", std::process::id()));
    // Readers are never excluded.
    let (cube, rtree) = open_readonly(&path);
    assert!(!answers(&cube, &rtree).is_empty());
    drop((cube, rtree));

    // Released lock: the same child acquires (and releases on exit).
    drop(writer);
    assert!(spawn_child().starts_with("acquired"), "child must acquire after release");

    // Stale lock from a dead process: plant the reaped child's real pid
    // in the lock file — liveness probing must classify it dead and the
    // next writable open takes the lock over.
    let mut child = Command::new(&exe)
        .args(["child_try_open_writable", "--exact", "--test-threads=1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn throwaway child");
    let dead = child.id();
    assert!(child.wait().expect("reap child").success());
    let lock = lock_path_for(&path);
    std::fs::write(&lock, dead.to_string()).expect("plant stale lock");
    let writer = PageStore::open_file_writable(&path, WRITER_POOL).expect("takeover");
    drop(writer);
    assert!(!std::fs::exists(&lock).unwrap_or(true), "takeover + drop releases the lock");
    std::fs::remove_file(&path).ok();
}

/// The scheduler daemon: quiet below the watermark, vacuums once past
/// it, then quiet again — with the reclaim visible in its counters, the
/// metric registry, and the persisted superblock.
#[test]
fn scheduler_vacuums_past_watermark_then_goes_quiet() {
    let full = SyntheticSpec { tuples: 150, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("sched");
    let (ans, retired) = prepare_retired(&full, 140, &path);

    // Quiet below the watermark: nothing to do yet.
    let metrics = Metrics::new();
    let delta = delta_over(&path, &full);
    let high = MaintenanceConfig { watermark_pages: retired + 100, ..config() };
    let quiet = MaintenanceScheduler::start(high, metrics.clone(), Arc::clone(&delta));
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(quiet.vacuums_completed(), 0, "below the watermark the daemon must not vacuum");
    assert_eq!(quiet.errors(), 0, "{:?}", quiet.last_error());
    quiet.stop();

    // Past the watermark: the daemon vacuums, then finds nothing more.
    let sched = MaintenanceScheduler::start(config(), metrics.clone(), Arc::clone(&delta));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sched.vacuums_completed() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sched.errors(), 0, "{:?}", sched.last_error());
    assert_eq!(sched.vacuums_completed(), 1, "one watermark crossing, one vacuum");
    assert_eq!(sched.pages_reclaimed(), retired);
    // Give the daemon further polls: the compacted file sits at zero
    // retired pages, so it stays quiet.
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(sched.vacuums_completed(), 1, "the daemon must go quiet after compaction");
    sched.stop();

    let sb = FileBackend::peek_superblock(&path).expect("peek");
    assert_eq!(sb.retired_pages, 0);
    assert_eq!(delta.serving_generation(), sb.generation, "the delta serves the compacted file");
    let (cube, rtree) = open_readonly(&path);
    assert_eq!(answers(&cube, &rtree), ans, "daemon vacuum changed an answer");
    drop((cube, rtree, delta));
    assert_eq!(metrics.counter("maintenance.vacuums").get(), 1);
    assert!(metrics.histogram("maintenance.vacuum_duration_us").count() >= 1);
    remove_cube(&path);
}

/// A vacuum colliding with a live writer yields typed, counted, and
/// fatal to nothing: the writer keeps its lock, the scheduler counts the
/// conflict and succeeds on a later poll.
#[test]
fn vacuum_yields_to_live_writer_then_succeeds() {
    let full = SyntheticSpec { tuples: 150, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("yield");
    let (ans, retired) = prepare_retired(&full, 140, &path);

    let writer = PageStore::open_file_writable(&path, WRITER_POOL).expect("live writer");
    let metrics = Metrics::new();
    let err =
        vacuum_into_place(&path, &metrics, None).expect_err("vacuum must yield to a live writer");
    assert!(
        matches!(err, StorageError::WriterLocked { owner_pid } if owner_pid == std::process::id())
    );
    assert_eq!(metrics.counter("maintenance.lock_contention").get(), 1);

    // The scheduler keeps yielding while the writer lives…
    let delta = delta_over(&path, &full);
    let sched = MaintenanceScheduler::start(config(), metrics.clone(), Arc::clone(&delta));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sched.lock_conflicts() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(sched.lock_conflicts() >= 1, "contention must be counted, not fatal");
    assert_eq!(sched.vacuums_completed(), 0);

    // …and vacuums on the first poll after the writer releases.
    drop(writer);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sched.vacuums_completed() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sched.vacuums_completed(), 1);
    assert_eq!(sched.pages_reclaimed(), retired);
    sched.stop();
    let (cube, rtree) = open_readonly(&path);
    assert_eq!(answers(&cube, &rtree), ans);
    drop((cube, rtree, delta));
    remove_cube(&path);
}

/// The engine front door across a full maintenance cycle: it serves while
/// the daemon swaps the file underneath, and its delta cube re-elects the
/// compacted file without being asked — same answers, a cursor opened
/// before the swap drains unchanged, the next flush parses the new file,
/// no quarantine.
#[test]
fn engine_serves_through_live_vacuum_and_refreshes() {
    let full = SyntheticSpec { tuples: 150, cardinality: 3, ..Default::default() }.generate();
    let path = temp_path("engine");
    prepare_retired(&full, 140, &path);

    let delta = delta_over(&path, &full);
    let eng = Engine::new(full.clone()).with_delta(Arc::clone(&delta));
    // Two flushes: the first after an open reuses the catalog the open
    // parsed, the second the generation the first published.
    for point in [[0.5, 0.5], [0.6, 0.4]] {
        eng.insert(&[1, 0, 0], &point).expect("insert");
        assert_eq!(delta.flush().expect("flush").cold_opens, 0);
    }
    let retired = FileBackend::peek_superblock(&path).expect("peek").retired_pages;
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(8);
    assert_eq!(eng.route(&q), Route::Delta);
    let before = eng.query(&q).unwrap();
    let mut pinned = eng.open(&q).expect("open before the vacuum");
    let head = pinned.next().expect("a first answer");

    // The daemon vacuums while the engine keeps serving.
    let sched = eng.start_maintenance(config()).expect("a delta cube is registered");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sched.vacuums_completed() == 0 && std::time::Instant::now() < deadline {
        assert_eq!(eng.query(&q).unwrap().items, before.items, "engine answers drifted mid-vacuum");
    }
    assert_eq!(sched.vacuums_completed(), 1, "{:?}", sched.last_error());
    assert_eq!(sched.pages_reclaimed(), retired);
    sched.stop();
    // The daemon shares the engine's registry.
    assert_eq!(eng.metrics().counter("maintenance.vacuums").get(), 1);

    // The delta serves the compacted file's generation…
    let sb = FileBackend::peek_superblock(&path).expect("peek compacted");
    assert_eq!(sb.retired_pages, 0);
    assert_eq!(delta.serving_generation(), sb.generation);
    // …a cursor opened before the swap drains what it would have…
    let drained: Vec<_> = std::iter::once(head).chain(pinned.by_ref()).collect();
    assert_eq!(drained, before.items, "the pinned generation outlives the swap");
    drop(pinned);
    // …new queries answer the same, and the next flush parses the new file.
    assert_eq!(eng.query(&q).unwrap().items, before.items, "re-election changed an answer");
    assert!(eng.quarantined().is_empty());
    eng.insert(&[2, 1, 0], &[0.7, 0.3]).expect("insert");
    assert_eq!(delta.flush().expect("flush onto the compacted file").cold_opens, 1);
    drop((eng, delta));
    remove_cube(&path);
}
