//! The grid-partition ranking cube (Chapter 3).
//!
//! Offline: decompose the relation into a *selection table* and a *base
//! block table* via equi-depth partitioning (Section 3.2.2); for every
//! materialized cuboid, store per cell the tid(bid) list under pseudo-block
//! coarsening (Section 3.2.3). Online: the four-step query algorithm of
//! Section 3.3 — pre-process, neighborhood search (Lemma 1), buffered
//! pseudo-block retrieval, block-level evaluation — with the stop condition
//! `S_k ≤ S_unseen`.
//!
//! Queries whose selection dimensions are not materialized as a single
//! cuboid are answered by a *covering set* of cuboids whose tid lists are
//! intersected online (Section 3.4.2) — the fragments mechanism.

use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use rcube_func::RankFn;
use rcube_index::grid::{Bid, GridPartition};
use rcube_storage::{
    ByteReader, ByteWriter, DiskSim, IoSnapshot, PageId, PageStore, StorageError,
    DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES,
};
use rcube_table::{Relation, Selection, Tid};

use crate::idlist::{self, IdCursor, IdListRef, KWayIntersect};
use crate::query::{MinScored, ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::{QueryStats, TopKQuery, TopKResult};

/// Which cuboids to materialize.
#[derive(Debug, Clone)]
pub enum CuboidSpec {
    /// All `2^S − 1` non-empty subsets (full ranking cube; small `S` only).
    AllSubsets,
    /// Fragments of the given size: selection dimensions are grouped into
    /// `⌈S/F⌉` disjoint chunks and each chunk gets its full local cube
    /// (Section 3.4.1).
    Fragments(usize),
    /// Explicit cuboid dimension sets.
    Explicit(Vec<Vec<usize>>),
}

/// Construction parameters (defaults from Section 3.5.1).
#[derive(Debug, Clone)]
pub struct GridCubeConfig {
    /// Expected tuples per base block (`P`; default 300).
    pub block_size: usize,
    /// Ranking dimensions covered by the partition (empty = all).
    pub ranking_dims: Vec<usize>,
    /// Cuboid choice.
    pub cuboids: CuboidSpec,
}

impl Default for GridCubeConfig {
    fn default() -> Self {
        Self { block_size: 300, ranking_dims: Vec::new(), cuboids: CuboidSpec::AllSubsets }
    }
}

#[derive(Debug)]
struct Cuboid {
    /// Pseudo-block scale factor for this cuboid.
    sf: usize,
    /// `(cell values over dims, pid) → stored cell page`. Each page is a
    /// per-bid posting-list directory (see [`encode_cell`]).
    cells: HashMap<(Vec<u32>, u32), PageId>,
}

/// Bytes per entry of a cell page's bid directory: `[bid][base][end]`.
const DIR_ENTRY: usize = 12;

/// Encodes one cuboid cell: every base block's tid list as a compressed
/// posting list, fronted by a directory for O(log n) per-bid lookup.
///
/// Layout: `[num_bids: u32]`, then `num_bids` directory entries
/// `[bid: u32][base: u32][end: u32]` (sorted by bid; `base` is the block's
/// smallest tid, `end` the cumulative payload offset), then the
/// concatenated [`idlist`] buffers encoded relative to `base` — block-local
/// origins keep dense cells bitmap-eligible no matter where their tids sit
/// globally.
fn encode_cell(blocks: &BTreeMap<Bid, Vec<Tid>>) -> Vec<u8> {
    let mut dir = Vec::with_capacity(blocks.len() * DIR_ENTRY);
    let mut payload = Vec::new();
    for (&bid, tids) in blocks {
        debug_assert!(!tids.is_empty() && tids.windows(2).all(|w| w[0] < w[1]));
        let base = tids[0];
        let rel: Vec<Tid> = tids.iter().map(|&t| t - base).collect();
        let universe = rel.last().unwrap() + 1;
        payload.extend_from_slice(&idlist::encode_auto(&rel, universe));
        dir.extend_from_slice(&bid.to_le_bytes());
        dir.extend_from_slice(&base.to_le_bytes());
        dir.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    }
    let mut out = Vec::with_capacity(4 + dir.len() + payload.len());
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&dir);
    out.extend_from_slice(&payload);
    out
}

/// Binary-searches a cell page's directory for `bid`; returns the block's
/// base tid and encoded posting-list slice. The cheap presence probe and
/// the cursor constructor below both route through here.
fn cell_entry(page: &[u8], bid: Bid) -> Option<(Tid, &[u8])> {
    if page.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(page[..4].try_into().unwrap()) as usize;
    let dir = page.get(4..4 + n * DIR_ENTRY)?;
    let payload = &page[4 + n * DIR_ENTRY..];
    let entry = |i: usize| -> (Bid, u32, u32) {
        let e = &dir[i * DIR_ENTRY..(i + 1) * DIR_ENTRY];
        (
            u32::from_le_bytes(e[0..4].try_into().unwrap()),
            u32::from_le_bytes(e[4..8].try_into().unwrap()),
            u32::from_le_bytes(e[8..12].try_into().unwrap()),
        )
    };
    let idx = {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if entry(mid).0 < bid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    if idx >= n {
        return None;
    }
    let (found, base, end) = entry(idx);
    if found != bid {
        return None;
    }
    let start = if idx == 0 { 0 } else { entry(idx - 1).2 } as usize;
    Some((base, payload.get(start..end as usize)?))
}

/// True when `bid` has a posting list in this cell page — directory binary
/// search only, no header parse or cursor setup.
fn cell_has_bid(page: &[u8], bid: Bid) -> bool {
    cell_entry(page, bid).is_some()
}

/// Looks up `bid` in a cell page and returns a streaming cursor over its
/// posting list — a zero-copy view into the page bytes.
fn cell_cursor(page: &[u8], bid: Bid) -> Option<IdCursor<'_>> {
    let (base, slice) = cell_entry(page, bid)?;
    IdListRef::parse(slice).ok().map(|l| l.cursor_with_base(base))
}

/// The materialized grid ranking cube.
#[derive(Debug)]
pub struct GridRankingCube {
    partition: GridPartition,
    store: PageStore,
    /// bid → base block page (tid + ranking values records).
    base_pages: Vec<Option<PageId>>,
    cuboids: BTreeMap<Vec<usize>, Cuboid>,
    /// Relation ranking dimensions covered, in partition order.
    ranking_dims: Vec<usize>,
    config: GridCubeConfig,
}

impl GridRankingCube {
    /// Builds the cube over `rel`, charging construction I/O to `disk`.
    pub fn build(rel: &Relation, disk: &DiskSim, config: GridCubeConfig) -> Self {
        let ranking_dims: Vec<usize> = if config.ranking_dims.is_empty() {
            (0..rel.schema().num_ranking()).collect()
        } else {
            config.ranking_dims.clone()
        };
        let partition = GridPartition::build(rel, &ranking_dims, config.block_size);
        let store = PageStore::new();

        // Base block table: bid → [(tid, values…)].
        let mut base_pages = vec![None; partition.num_blocks()];
        for bid in 0..partition.num_blocks() as Bid {
            let tids = partition.block_tids(bid);
            if tids.is_empty() {
                continue;
            }
            let mut bytes = Vec::with_capacity(tids.len() * (4 + 8 * ranking_dims.len()));
            for &tid in tids {
                bytes.extend_from_slice(&tid.to_le_bytes());
                for &d in &ranking_dims {
                    bytes.extend_from_slice(&rel.ranking_value(tid, d).to_le_bytes());
                }
            }
            base_pages[bid as usize] = Some(store.put(disk, bytes));
        }

        // Cuboid dimension sets.
        let dim_sets = match &config.cuboids {
            CuboidSpec::AllSubsets => {
                all_subsets(&(0..rel.schema().num_selection()).collect::<Vec<_>>())
            }
            CuboidSpec::Fragments(f) => fragment_subsets(rel.schema().num_selection(), *f),
            CuboidSpec::Explicit(sets) => sets.clone(),
        };

        let mut cuboids = BTreeMap::new();
        for dims in dim_sets {
            let cards: Vec<u32> =
                dims.iter().map(|&d| rel.schema().selection_dim(d).cardinality()).collect();
            let sf = GridPartition::scale_factor(&cards);
            // Group (cell values, pid) → bid → ascending tid list. Tids
            // arrive in ascending order, so per-bid lists need no sort.
            let mut groups: HashMap<(Vec<u32>, u32), BTreeMap<Bid, Vec<Tid>>> = HashMap::new();
            for tid in rel.tids() {
                let vals: Vec<u32> = dims.iter().map(|&d| rel.selection_value(tid, d)).collect();
                let bid = partition.bid_of(tid);
                let pid = partition.pid_of(bid, sf);
                groups.entry((vals, pid)).or_default().entry(bid).or_default().push(tid);
            }
            let mut cells = HashMap::with_capacity(groups.len());
            for (key, blocks) in groups {
                cells.insert(key, store.put(disk, encode_cell(&blocks)));
            }
            cuboids.insert(dims, Cuboid { sf, cells });
        }

        Self { partition, store, base_pages, cuboids, ranking_dims, config }
    }

    /// The geometry partition (meta information).
    pub fn partition(&self) -> &GridPartition {
        &self.partition
    }

    /// Ranking dimensions covered by the cube.
    pub fn ranking_dims(&self) -> &[usize] {
        &self.ranking_dims
    }

    /// Materialized size in bytes (cuboid cells + base block table).
    pub fn materialized_bytes(&self) -> usize {
        self.store.total_bytes()
    }

    /// Dimension sets of the materialized cuboids.
    pub fn cuboid_dims(&self) -> Vec<Vec<usize>> {
        self.cuboids.keys().cloned().collect()
    }

    /// The covering cuboid set for a selection (Section 3.4.2): maximal
    /// materialized cuboids with `Dim(C) ⊆ Q`, then a greedy minimum cover.
    /// `None` when the materialized cuboids cannot cover the query.
    pub fn covering_cuboids(&self, selection: &Selection) -> Option<Vec<Vec<usize>>> {
        let q: HashSet<usize> = selection.dims().into_iter().collect();
        if q.is_empty() {
            return Some(Vec::new());
        }
        // Candidates: cuboids whose dims ⊆ Q.
        let candidates: Vec<&Vec<usize>> =
            self.cuboids.keys().filter(|dims| dims.iter().all(|d| q.contains(d))).collect();
        // Maximal step: drop candidates strictly contained in another.
        let maximal: Vec<&Vec<usize>> = candidates
            .iter()
            .filter(|&&c| {
                !candidates
                    .iter()
                    .any(|&other| other.len() > c.len() && c.iter().all(|d| other.contains(d)))
            })
            .copied()
            .collect();
        // Greedy minimum cover.
        let mut uncovered = q.clone();
        let mut chosen = Vec::new();
        while !uncovered.is_empty() {
            let best = maximal
                .iter()
                .max_by_key(|c| c.iter().filter(|d| uncovered.contains(d)).count())?;
            let gain = best.iter().filter(|d| uncovered.contains(d)).count();
            if gain == 0 {
                return None;
            }
            for d in best.iter() {
                uncovered.remove(d);
            }
            chosen.push((*best).clone());
        }
        Some(chosen)
    }

    /// Binds this cube to its metering device as a [`RankedSource`] — the
    /// progressive front door ([`RankedSource::open`] yields a resumable
    /// [`TopKCursor`]; the batch methods below drain one).
    pub fn source<'a>(&'a self, disk: &'a DiskSim) -> GridSource<'a> {
        GridSource { cube: self, disk }
    }

    /// True when this cube can answer the plan: the materialized cuboids
    /// cover the selection and the partition covers the ranking
    /// dimensions. The `Engine` facade routes on this.
    pub fn can_answer(&self, selection: &Selection, ranking_dims: &[usize]) -> bool {
        self.covering_cuboids(selection).is_some()
            && ranking_dims.iter().all(|d| self.ranking_dims.contains(d))
    }

    /// Answers a top-k query (Section 3.3 / 3.4.2) — a thin batch wrapper:
    /// open a progressive cursor, drain `k` answers.
    pub fn query<F: RankFn>(&self, query: &TopKQuery<F>, disk: &DiskSim) -> TopKResult {
        self.try_query(query, disk).unwrap_or_else(|e| panic!("storage error during query: {e}"))
    }

    /// Fallible [`Self::query`]: over a file-backed store a truncated or
    /// corrupted page surfaces as a typed [`StorageError`] instead of a
    /// panic (and never as a wrong answer).
    pub fn try_query<F: RankFn>(
        &self,
        query: &TopKQuery<F>,
        disk: &DiskSim,
    ) -> Result<TopKResult, StorageError> {
        self.source(disk).query(&query.plan())
    }

    /// Answers a top-k query through an explicit covering cuboid set (the
    /// `cuboids` plan option of [`QueryPlan`]).
    pub fn query_with_cuboids<F: RankFn>(
        &self,
        query: &TopKQuery<F>,
        covering: &[Vec<usize>],
        disk: &DiskSim,
    ) -> TopKResult {
        self.try_query_with_cuboids(query, covering, disk)
            .unwrap_or_else(|e| panic!("storage error during query: {e}"))
    }

    /// Fallible [`Self::query_with_cuboids`].
    pub fn try_query_with_cuboids<F: RankFn>(
        &self,
        query: &TopKQuery<F>,
        covering: &[Vec<usize>],
        disk: &DiskSim,
    ) -> Result<TopKResult, StorageError> {
        let plan = QueryPlan { cuboids: Some(covering), ..query.plan() };
        self.source(disk).query(&plan)
    }

    /// Block size parameter `P`.
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// The backing object store (in-memory or file-backed).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Per-shard buffer-pool occupancy and hit/miss/eviction counters
    /// (`None` on the in-memory backend) — the cache-effectiveness
    /// snapshot the concurrency bench prints.
    pub fn pool_stats(&self) -> Option<rcube_storage::PoolStats> {
        self.store.pool_stats()
    }

    /// Saves the cube into a single file at `path` with the default page
    /// size (4 KB) and buffer-pool capacity: every base block and cuboid
    /// cell becomes a checksummed on-disk object, and the cube catalog
    /// (partition meta, cuboid directory) is recorded in the superblock.
    /// [`Self::open_from`] reopens it read-only with identical answers.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        self.save_to_with(path, DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES)
    }

    /// [`Self::save_to`] with explicit page size and pool capacity.
    pub fn save_to_with(
        &self,
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        pool_pages: usize,
    ) -> Result<(), StorageError> {
        let file = PageStore::create_file(path, page_size, pool_pages)?;
        let mut w = ByteWriter::new();
        w.put_u8(CATALOG_GRID);
        self.write_file_payload(&file, &mut w)?;
        finish_catalog(&file, w)
    }

    /// Reopens a cube saved by [`Self::save_to`], read-only, with the
    /// default buffer-pool capacity.
    pub fn open_from(path: impl AsRef<std::path::Path>) -> Result<Self, StorageError> {
        Self::open_from_with(path, DEFAULT_POOL_PAGES)
    }

    /// [`Self::open_from`] with an explicit buffer-pool capacity (pages).
    pub fn open_from_with(
        path: impl AsRef<std::path::Path>,
        pool_pages: usize,
    ) -> Result<Self, StorageError> {
        let store = PageStore::open_file(path, pool_pages)?;
        let catalog = read_catalog(&store, CATALOG_GRID)?;
        let mut r = ByteReader::new(&catalog[1..]);
        Self::read_file_payload(store, &mut r)
    }

    /// Scrubs every stored object (base blocks, cuboid cells) through the
    /// validated read path, cache-cold, surfacing the first checksum /
    /// structure error. `Ok(())` means all pages decode clean.
    pub fn verify_integrity(&self) -> Result<(), StorageError> {
        self.store.clear_cache();
        for page in self.base_pages.iter().flatten() {
            self.store.peek(*page)?;
        }
        for cuboid in self.cuboids.values() {
            for &page in cuboid.cells.values() {
                self.store.peek(page)?;
            }
        }
        Ok(())
    }

    /// Copies every object into `file` (deterministic order) and writes
    /// the catalog body: config, ranking dims, partition, base-page table,
    /// cuboid directory with remapped page ids.
    pub(crate) fn write_file_payload(
        &self,
        file: &PageStore,
        w: &mut ByteWriter,
    ) -> Result<(), StorageError> {
        let scratch = DiskSim::new(DEFAULT_PAGE_SIZE, 0);
        w.put_u64(self.config.block_size as u64);
        w.put_u64(self.ranking_dims.len() as u64);
        for &d in &self.ranking_dims {
            w.put_u64(d as u64);
        }
        w.put_bytes(&self.partition.to_bytes());
        w.put_u64(self.base_pages.len() as u64);
        for base in &self.base_pages {
            match base {
                Some(old) => {
                    let data = self.store.peek(*old)?;
                    w.put_u64(file.try_put(&scratch, data.to_vec())?.0);
                }
                None => w.put_u64(u64::MAX),
            }
        }
        w.put_u64(self.cuboids.len() as u64);
        for (dims, cuboid) in &self.cuboids {
            w.put_u64(dims.len() as u64);
            for &d in dims {
                w.put_u64(d as u64);
            }
            w.put_u64(cuboid.sf as u64);
            let mut keys: Vec<&(Vec<u32>, u32)> = cuboid.cells.keys().collect();
            keys.sort();
            w.put_u64(keys.len() as u64);
            for key in keys {
                let (vals, pid) = key;
                w.put_u64(vals.len() as u64);
                for &v in vals {
                    w.put_u32(v);
                }
                w.put_u32(*pid);
                let data = self.store.peek(cuboid.cells[key])?;
                w.put_u64(file.try_put(&scratch, data.to_vec())?.0);
            }
        }
        Ok(())
    }

    /// Inverse of [`Self::write_file_payload`]: rebuilds a cube over the
    /// (typically file-backed, read-only) `store`.
    pub(crate) fn read_file_payload(
        store: PageStore,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, StorageError> {
        const LIMIT: usize = 1 << 30;
        let block_size = r.count(LIMIT)?;
        let nrd = r.count(64)?;
        let mut ranking_dims = Vec::with_capacity(nrd);
        for _ in 0..nrd {
            ranking_dims.push(r.count(LIMIT)?);
        }
        let partition = GridPartition::from_bytes(r.bytes()?)?;
        let nbase = r.count(LIMIT)?;
        if nbase != partition.num_blocks() {
            return Err(StorageError::Malformed("base-page table size mismatch"));
        }
        let mut base_pages = Vec::with_capacity(nbase);
        for _ in 0..nbase {
            base_pages.push(match r.u64()? {
                u64::MAX => None,
                p => Some(PageId(p)),
            });
        }
        let ncuboids = r.count(LIMIT)?;
        let mut cuboids = BTreeMap::new();
        for _ in 0..ncuboids {
            let ndims = r.count(64)?;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                dims.push(r.count(LIMIT)?);
            }
            let sf = r.count(LIMIT)?.max(1);
            let ncells = r.count(LIMIT)?;
            let mut cells = HashMap::with_capacity(ncells);
            for _ in 0..ncells {
                let nvals = r.count(64)?;
                let mut vals = Vec::with_capacity(nvals);
                for _ in 0..nvals {
                    vals.push(r.u32()?);
                }
                let pid = r.u32()?;
                cells.insert((vals, pid), PageId(r.u64()?));
            }
            cuboids.insert(dims, Cuboid { sf, cells });
        }
        let config = GridCubeConfig {
            block_size,
            ranking_dims: ranking_dims.clone(),
            cuboids: CuboidSpec::Explicit(cuboids.keys().cloned().collect()),
        };
        Ok(Self { partition, store, base_pages, cuboids, ranking_dims, config })
    }
}

/// Catalog kind tags (first byte of the catalog object). The signature
/// catalog moved from tag 3 to tag 4 when its per-cell layout changed
/// (per-node `sid → partial` pairs → per-partial first-SID directory +
/// depth); files written with the old layout are rejected with a typed
/// kind-mismatch error instead of being misparsed.
pub(crate) const CATALOG_GRID: u8 = 1;
pub(crate) const CATALOG_FRAGMENTS: u8 = 2;
pub(crate) const CATALOG_SIG: u8 = 4;

/// Stores the finished catalog object, records it in the superblock and
/// flushes the file metadata (superblock + allocation map).
pub(crate) fn finish_catalog(file: &PageStore, w: ByteWriter) -> Result<(), StorageError> {
    let scratch = DiskSim::new(DEFAULT_PAGE_SIZE, 0);
    file.put_catalog(&scratch, w.into_bytes())?;
    file.flush()
}

/// Reads a cube file's catalog object and checks its kind tag.
pub(crate) fn read_catalog(
    store: &PageStore,
    expect_kind: u8,
) -> Result<std::sync::Arc<[u8]>, StorageError> {
    let root = store.catalog().ok_or(StorageError::Malformed("cube file has no catalog"))?;
    let bytes = store.peek(root)?;
    match bytes.first() {
        Some(&kind) if kind == expect_kind => Ok(bytes),
        Some(_) => Err(StorageError::Malformed("catalog kind does not match this cube type")),
        None => Err(StorageError::Malformed("empty catalog object")),
    }
}

/// A [`GridRankingCube`] bound to its metering device: the grid engine's
/// [`RankedSource`]. Cheap `Copy` handle, constructed per query via
/// [`GridRankingCube::source`].
#[derive(Debug, Clone, Copy)]
pub struct GridSource<'a> {
    cube: &'a GridRankingCube,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for GridSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        Ok(TopKCursor::new(Box::new(GridSearch::new(self.cube, self.disk, plan)), plan.k))
    }
}

/// The grid cube's four-step query algorithm (Section 3.3 / 3.4.2) as an
/// explicit, resumable frontier state machine.
///
/// Two heaps drive it: the *frontier* `h` of unretrieved blocks ordered by
/// ranking-function lower bound (the candidate list H of Lemma 1), and a
/// *candidate* min-heap of evaluated-but-unemitted tuples ordered by
/// `(score, tid)`. [`Self::advance`] emits the cheapest candidate once its
/// score is ≤ the frontier's best bound (`S ≤ S_unseen`, the per-answer
/// form of the batch stop condition) and otherwise retrieves exactly one
/// more block. Pausing between answers keeps every heap, the visited set
/// and the pseudo-block buffer alive, so `extend_k` resumes from the
/// frontier instead of re-running the search.
struct GridSearch<'a> {
    cube: &'a GridRankingCube,
    disk: &'a DiskSim,
    func: &'a dyn RankFn,
    selection: Selection,
    covering: Vec<Vec<usize>>,
    /// Positions of the query's ranking dimensions inside the partition.
    proj: Vec<usize>,
    /// Frontier: unretrieved blocks by lower bound (candidate list H).
    h: BinaryHeap<HeapBlock>,
    inserted: HashSet<Bid>,
    /// Pseudo-block buffer: (covering index, pid) → cell page bytes.
    /// `None` records a definitively empty cell. Pages are shared handles
    /// from the store — posting-list views parse straight off them.
    pid_buffer: HashMap<(usize, u32), Option<Arc<[u8]>>>,
    /// Evaluated tuples not yet certified/emitted, cheapest first.
    candidates: BinaryHeap<MinScored>,
    /// Memoized [`Self::best_uninserted`] result; invalidated whenever a
    /// block enters the frontier. Keeps draining buffered candidates after
    /// the frontier empties O(1) per answer instead of O(blocks).
    uninserted_best: Option<Option<(f64, Bid)>>,
    stats: QueryStats,
    before: IoSnapshot,
}

impl<'a> GridSearch<'a> {
    fn new(cube: &'a GridRankingCube, disk: &'a DiskSim, plan: &QueryPlan<'a>) -> Self {
        let covering = match plan.cuboids {
            Some(c) => c.to_vec(),
            None => cube
                .covering_cuboids(plan.selection)
                .expect("materialized cuboids cannot cover the query's selection dimensions"),
        };
        let proj: Vec<usize> = plan
            .ranking_dims
            .iter()
            .map(|d| {
                cube.ranking_dims
                    .iter()
                    .position(|rd| rd == d)
                    .expect("query ranking dimension not covered by the cube")
            })
            .collect();
        let mut search = Self {
            cube,
            disk,
            func: plan.func,
            selection: plan.selection.clone(),
            covering,
            proj,
            h: BinaryHeap::new(),
            inserted: HashSet::new(),
            pid_buffer: HashMap::new(),
            candidates: BinaryHeap::new(),
            uninserted_best: None,
            stats: QueryStats::default(),
            before: disk.stats().snapshot(),
        };
        // Seed with the block containing the function's minimum — computed
        // from meta information only (bin boundaries), no I/O. With an
        // empty `inserted` set this is exactly the fallback scan.
        if let Some((lb, seed)) = search.best_uninserted() {
            search.inserted.insert(seed);
            search.uninserted_best = None;
            search.h.push(HeapBlock(lb, seed));
        }
        search
    }

    fn block_lb(&self, bid: Bid) -> f64 {
        let rect = self.cube.partition.block_rect(bid).project(&self.proj);
        self.func.lower_bound(&rect)
    }

    /// The best block never inserted into the frontier, if any — the
    /// Section 3.6.1 fallback for non-convex functions whose minimum
    /// neighborhood does not reach every block. Memoized between frontier
    /// insertions: post-exhaustion candidate drains would otherwise rescan
    /// every block per emitted answer.
    fn best_uninserted(&mut self) -> Option<(f64, Bid)> {
        if let Some(cached) = self.uninserted_best {
            return cached;
        }
        let best = (0..self.cube.partition.num_blocks() as Bid)
            .filter(|b| !self.inserted.contains(b))
            .map(|b| (self.block_lb(b), b))
            .min_by(|a, b| a.0.total_cmp(&b.0));
        self.uninserted_best = Some(best);
        best
    }

    /// The retrieve step: tid list for `bid` under the query's selection,
    /// intersected across covering cuboids, with pid-level buffering.
    ///
    /// Each covering cuboid contributes a streaming cursor parsed in place
    /// over its buffered cell page; the cursors are leapfrogged by the
    /// k-way intersector (smallest estimated cardinality first). Nothing
    /// is decoded or hashed — the only allocation is the result.
    fn retrieve_block_tids(&mut self, bid: Bid) -> Result<Vec<Tid>, StorageError> {
        if self.covering.is_empty() {
            // No selection: the whole base block qualifies.
            return Ok(self.cube.partition.block_tids(bid).to_vec());
        }
        // Pass 1: buffer each covering cell page in turn, short-circuiting
        // before the next page fetch when a cuboid already proves the
        // intersection empty (absent cell, or bid missing from the cell) —
        // the I/O economy of the original per-cuboid loop.
        for (ci, dims) in self.covering.iter().enumerate() {
            let cuboid = &self.cube.cuboids[dims];
            let pid = self.cube.partition.pid_of(bid, cuboid.sf);
            if let std::collections::hash_map::Entry::Vacant(e) = self.pid_buffer.entry((ci, pid)) {
                let vals: Vec<u32> = dims
                    .iter()
                    .map(|d| self.selection.value_on(*d).expect("covering cuboid dim not in query"))
                    .collect();
                let page = match cuboid.cells.get(&(vals, pid)) {
                    Some(&page) => {
                        self.stats.blocks_read += 1;
                        Some(self.cube.store.try_get_bytes(self.disk, page)?)
                    }
                    None => None,
                };
                e.insert(page);
            }
            match &self.pid_buffer[&(ci, pid)] {
                None => return Ok(Vec::new()), // cell absent: no tuple matches
                Some(page) => {
                    if !cell_has_bid(page, bid) {
                        return Ok(Vec::new()); // bid absent from this cell
                    }
                }
            }
        }
        // Pass 2: zero-copy cursors over the buffered pages, then stream
        // the intersection.
        let cursors: Vec<IdCursor<'_>> = self
            .covering
            .iter()
            .enumerate()
            .map(|(ci, dims)| {
                let pid = self.cube.partition.pid_of(bid, self.cube.cuboids[dims].sf);
                let page = self.pid_buffer[&(ci, pid)].as_deref().expect("buffered in pass 1");
                cell_cursor(page, bid).expect("bid checked in pass 1")
            })
            .collect();
        Ok(KWayIntersect::from_cursors(cursors).collect())
    }

    /// The evaluate step: fetch real values from the base block table and
    /// push scored tuples into the candidate heap. Both the retrieved tid
    /// list and the block records are ascending by tid, so a two-pointer
    /// merge replaces a hash probe.
    fn evaluate_block(&mut self, bid: Bid, tids: &[Tid]) -> Result<(), StorageError> {
        if tids.is_empty() {
            return Ok(());
        }
        let Some(page) = self.cube.base_pages[bid as usize] else {
            return Ok(());
        };
        let bytes = self.cube.store.try_get_bytes(self.disk, page)?;
        self.stats.blocks_read += 1;
        let rec = 4 + 8 * self.cube.ranking_dims.len();
        let mut want = tids.iter().copied().peekable();
        'records: for chunk in bytes.chunks_exact(rec) {
            let tid = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            loop {
                match want.peek() {
                    None => break 'records,
                    Some(&w) if w < tid => {
                        want.next();
                    }
                    Some(&w) if w == tid => {
                        want.next();
                        break;
                    }
                    Some(_) => continue 'records,
                }
            }
            let point: Vec<f64> = self
                .proj
                .iter()
                .map(|&p| {
                    let off = 4 + 8 * p;
                    f64::from_le_bytes(chunk[off..off + 8].try_into().unwrap())
                })
                .collect();
            self.candidates.push(MinScored(self.func.score(&point), tid));
            self.stats.tuples_scored += 1;
        }
        Ok(())
    }
}

impl ProgressiveSearch for GridSearch<'_> {
    fn advance(&mut self) -> Result<Option<(rcube_table::Tid, f64)>, StorageError> {
        loop {
            // Certify: the cheapest evaluated tuple is an answer once every
            // frontier block is strictly worse (S < S_unseen). A block
            // whose bound *ties* may hold an equal-score tuple with a
            // smaller tid, and answers are ascending `(score, tid)`.
            let frontier = self.h.peek().map(|&HeapBlock(b, _)| b);
            if let (Some(c), Some(bound)) = (self.candidates.peek(), frontier) {
                if c.0 < bound {
                    let MinScored(score, tid) = self.candidates.pop().unwrap();
                    return Ok(Some((tid, score)));
                }
            }
            if frontier.is_none() {
                // Frontier exhausted: re-seed with the best block never
                // inserted (Section 3.6.1 fallback for non-convex
                // functions), unless the best pending candidate strictly
                // beats everything unexplored (a tie is read, as above).
                let best = self.best_uninserted();
                match best {
                    Some((lb, bid)) if self.candidates.peek().is_none_or(|c| lb <= c.0) => {
                        self.inserted.insert(bid);
                        self.uninserted_best = None;
                        self.h.push(HeapBlock(lb, bid));
                        continue;
                    }
                    _ => return Ok(self.candidates.pop().map(|MinScored(s, t)| (t, s))),
                }
            }
            // Advance the frontier by exactly one block: retrieve its tid
            // list, evaluate, expand neighbors (Lemma 1).
            let HeapBlock(_, bid) = self.h.pop().expect("frontier checked non-empty");
            self.stats.states_generated += 1;
            let tids = self.retrieve_block_tids(bid)?;
            self.evaluate_block(bid, &tids)?;
            for nb in self.cube.partition.neighbors(bid) {
                if self.inserted.insert(nb) {
                    self.uninserted_best = None;
                    self.h.push(HeapBlock(self.block_lb(nb), nb));
                }
            }
            self.stats.peak_heap = self.stats.peak_heap.max(self.h.len() as u64);
        }
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.stats;
        stats.io = self.before.delta(&self.disk.stats().snapshot());
        stats
    }
}

/// Min-heap entry ordered by block lower bound.
#[derive(Debug, PartialEq)]
struct HeapBlock(f64, Bid);

impl Eq for HeapBlock {}

impl Ord for HeapBlock {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum bound.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for HeapBlock {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All non-empty subsets of `dims` (ascending by size then lexicographic).
pub(crate) fn all_subsets(dims: &[usize]) -> Vec<Vec<usize>> {
    assert!(dims.len() <= 16, "full cube limited to 16 selection dimensions");
    let mut out = Vec::with_capacity((1usize << dims.len()) - 1);
    for mask in 1u32..(1u32 << dims.len()) {
        let set: Vec<usize> =
            (0..dims.len()).filter(|&i| mask >> i & 1 == 1).map(|i| dims[i]).collect();
        out.push(set);
    }
    out.sort_by_key(|s| (s.len(), s.clone()));
    out
}

/// Cuboid sets for fragments of size `f` over `s` dimensions
/// (Example 5: dimensions are chunked evenly; each chunk contributes its
/// full subset lattice).
pub(crate) fn fragment_subsets(s: usize, f: usize) -> Vec<Vec<usize>> {
    let f = f.max(1);
    let mut out = Vec::new();
    let dims: Vec<usize> = (0..s).collect();
    for chunk in dims.chunks(f) {
        out.extend(all_subsets(chunk));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_func::{Linear, SqDist};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::workload::{QueryGen, WorkloadParams};

    fn naive_topk(
        rel: &Relation,
        sel: &Selection,
        f: &impl RankFn,
        dims: &[usize],
        k: usize,
    ) -> Vec<f64> {
        let mut scores: Vec<f64> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| f.score(&rel.ranking_point_proj(t, dims)))
            .collect();
        scores.sort_by(f64::total_cmp);
        scores.truncate(k);
        scores
    }

    #[test]
    fn matches_naive_scan_on_random_workload() {
        let rel = SyntheticSpec { tuples: 3_000, cardinality: 5, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 64, ..Default::default() },
        );
        let mut qg =
            QueryGen::new(WorkloadParams { num_conditions: 2, k: 10, ..Default::default() });
        for spec in qg.batch(&rel, 10) {
            let f = Linear::new(spec.weights.clone());
            let q = TopKQuery::with_ranking_dims(
                spec.selection.conds().to_vec(),
                f,
                spec.ranking_dims.clone(),
                spec.k,
            );
            let got = cube.query(&q, &disk);
            let want = naive_topk(
                &rel,
                &spec.selection,
                &Linear::new(spec.weights.clone()),
                &spec.ranking_dims,
                spec.k,
            );
            assert_eq!(got.scores().len(), want.len());
            for (g, w) in got.scores().iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "score mismatch: {g} vs {w}");
            }
            // Every answer satisfies the selection.
            for t in got.tids() {
                assert!(spec.selection.matches(&rel, t));
            }
        }
    }

    #[test]
    fn distance_queries_match_naive() {
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 50, ..Default::default() },
        );
        let f = SqDist::new(vec![0.3, 0.7]);
        let q = TopKQuery::new(vec![(0, 1)], f, 5);
        let got = cube.query(&q, &disk);
        let want = naive_topk(&rel, &q.selection, &SqDist::new(vec![0.3, 0.7]), &[0, 1], 5);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_weights_supported() {
        // Convex but non-monotone: the thesis' selling point vs TA.
        let rel = SyntheticSpec { tuples: 1_500, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 50, ..Default::default() },
        );
        let f = Linear::new(vec![1.0, -2.0]);
        let q = TopKQuery::new(vec![(1, 0)], f, 8);
        let got = cube.query(&q, &disk);
        let want = naive_topk(&rel, &q.selection, &Linear::new(vec![1.0, -2.0]), &[0, 1], 8);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_selection_ranks_everything() {
        let rel = SyntheticSpec { tuples: 500, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        let q = TopKQuery::new(vec![], Linear::uniform(2), 3);
        let got = cube.query(&q, &disk);
        let want = naive_topk(&rel, &Selection::all(), &Linear::uniform(2), &[0, 1], 3);
        assert_eq!(got.scores().len(), 3);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn selective_query_returns_fewer_than_k() {
        let rel = SyntheticSpec { tuples: 200, cardinality: 50, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 20, ..Default::default() },
        );
        let q = TopKQuery::new(vec![(0, 0), (1, 1), (2, 2)], Linear::uniform(2), 10);
        let got = cube.query(&q, &disk);
        let matching = rel.tids().filter(|&t| q.selection.matches(&rel, t)).count();
        assert_eq!(got.items.len(), matching.min(10));
    }

    #[test]
    fn covering_prefers_largest_cuboid() {
        let rel = SyntheticSpec { tuples: 300, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        let sel = Selection::new(vec![(0, 1), (2, 3)]);
        let cover = cube.covering_cuboids(&sel).unwrap();
        // Full cube materializes {0,2}: one cuboid covers the query.
        assert_eq!(cover, vec![vec![0, 2]]);
    }

    #[test]
    fn fragments_cover_via_intersection() {
        let rel = SyntheticSpec {
            tuples: 2_000,
            selection_dims: 4,
            cardinality: 5,
            ..Default::default()
        }
        .generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig {
                block_size: 64,
                cuboids: CuboidSpec::Fragments(2),
                ..Default::default()
            },
        );
        // Query spanning both fragments: dims {1, 3}.
        let sel = Selection::new(vec![(1, 2), (3, 4)]);
        let cover = cube.covering_cuboids(&sel).unwrap();
        assert_eq!(cover.len(), 2, "dims 1 and 3 live in different fragments");
        let q = TopKQuery::new(vec![(1, 2), (3, 4)], Linear::uniform(2), 10);
        let got = cube.query(&q, &disk);
        let want = naive_topk(&rel, &q.selection, &Linear::uniform(2), &[0, 1], 10);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn all_subsets_enumerates_lattice() {
        let s = all_subsets(&[0, 1, 2]);
        assert_eq!(s.len(), 7);
        assert!(s.contains(&vec![0, 1, 2]));
        assert!(s.contains(&vec![1]));
    }

    #[test]
    fn fragment_subsets_stay_within_chunks() {
        let s = fragment_subsets(4, 2);
        // Chunks {0,1} and {2,3}: 3 subsets each.
        assert_eq!(s.len(), 6);
        assert!(s.contains(&vec![0, 1]));
        assert!(s.contains(&vec![2, 3]));
        assert!(!s.contains(&vec![1, 2]));
    }

    fn temp_cube_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rcube_gridcube_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn saved_cube_reopens_with_identical_answers() {
        let rel = SyntheticSpec { tuples: 2_500, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 64, ..Default::default() },
        );
        let path = temp_cube_path("reopen");
        cube.save_to(&path).expect("save");

        let reopened = GridRankingCube::open_from(&path).expect("open");
        assert!(reopened.store().read_only());
        assert_eq!(reopened.cuboid_dims(), cube.cuboid_dims());
        assert_eq!(reopened.partition().num_blocks(), cube.partition().num_blocks());

        let disk2 = DiskSim::with_defaults();
        let mut qg =
            QueryGen::new(WorkloadParams { num_conditions: 2, k: 10, ..Default::default() });
        for spec in qg.batch(&rel, 8) {
            let q = TopKQuery::with_ranking_dims(
                spec.selection.conds().to_vec(),
                Linear::new(spec.weights.clone()),
                spec.ranking_dims.clone(),
                spec.k,
            );
            let mem = cube.query(&q, &disk);
            let file = reopened.query(&q, &disk2);
            // Byte-identical: same tids, same score bit patterns.
            assert_eq!(mem.items.len(), file.items.len());
            for ((t1, s1), (t2, s2)) in mem.items.iter().zip(&file.items) {
                assert_eq!(t1, t2);
                assert_eq!(s1.to_bits(), s2.to_bits());
            }
            assert!(file.stats.io.logical_reads > 0, "file query must charge I/O");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_selection_query_works_after_reopen() {
        let rel = SyntheticSpec { tuples: 600, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 50, ..Default::default() },
        );
        let path = temp_cube_path("empty_sel");
        cube.save_to_with(&path, 1024, 32).expect("save");
        let reopened = GridRankingCube::open_from_with(&path, 32).expect("open");
        let q = TopKQuery::new(vec![], Linear::uniform(2), 5);
        let mem = cube.query(&q, &disk);
        let file = reopened.query(&q, &DiskSim::with_defaults());
        assert_eq!(mem.items, file.items);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_surfaces_as_checksum_error_not_wrong_answer() {
        let rel = SyntheticSpec { tuples: 1_000, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 64, ..Default::default() },
        );
        let path = temp_cube_path("corrupt");
        let page_size = 512usize;
        cube.save_to_with(&path, page_size, 8).expect("save");

        // Pristine file passes the scrub.
        let clean = GridRankingCube::open_from_with(&path, 8).expect("open clean");
        clean.verify_integrity().expect("clean file verifies");
        drop(clean);

        // Flip one payload byte in the first object page (the two
        // superblock slots occupy pages 0 and 1 under format v3).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2 * page_size + 40] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let tampered = GridRankingCube::open_from_with(&path, 8).expect("superblock still valid");
        match tampered.verify_integrity() {
            Err(StorageError::ChecksumMismatch { page: 2 }) => {}
            other => panic!("expected checksum mismatch on page 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_from_rejects_garbage() {
        let path = temp_cube_path("garbage");
        std::fs::write(&path, vec![0u8; 8192]).unwrap();
        assert!(matches!(GridRankingCube::open_from(&path), Err(StorageError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_charges_io() {
        let rel = SyntheticSpec { tuples: 5_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        disk.clear_buffer();
        let q = TopKQuery::new(vec![(0, 1)], Linear::uniform(2), 10);
        let res = cube.query(&q, &disk);
        assert!(res.stats.io.logical_reads > 0, "query must touch the store");
        assert!(res.stats.blocks_read > 0);
    }
}
