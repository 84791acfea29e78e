//! The grid-partition ranking cube (Chapter 3).
//!
//! Offline: decompose the relation into a *selection table* and a *base
//! block table* via equi-depth partitioning (Section 3.2.2); for every
//! materialized cuboid, store per cell the tid(bid) list under pseudo-block
//! coarsening (Section 3.2.3). Online: the four-step query algorithm of
//! Section 3.3 — pre-process, neighborhood search (Lemma 1), buffered
//! pseudo-block retrieval, block-level evaluation — with the stop condition
//! `S_k < S_unseen`.
//!
//! "Unseen" is every block not yet retrieved, not only the neighbours of
//! those that were: the search (`GridSearch`) keeps the blocks outside its
//! frontier as one best-first heap of *boxes* of blocks, bounded from the
//! bin boundaries alone and halved lazily, so it finds its seed — the block
//! holding the function's minimum — in a descent of `O(R · log b)` bounds
//! instead of bounding all `b^R` blocks, and it certifies an answer against
//! the frontier *and* that heap. For the convex functions of Lemma 1 the
//! second check never binds (same blocks, same order as a neighbourhood
//! search alone); for an ad hoc function with several basins (Section
//! 3.6.1) it is what sends the search into the next one.
//!
//! # Ranking fragments (Section 3.4)
//!
//! Which cuboids are materialized is [`CuboidSpec`]. Full materialization
//! needs `2^S − 1` cuboids; [`CuboidSpec::Fragments`] of size `F` groups the
//! selection dimensions into `⌈S/F⌉` chunks and materializes each chunk's
//! local cube, `⌈S/F⌉ · (2^F − 1)` cuboids in all, so the space grows
//! **linearly** with `S` (Lemma 2). A query whose selection dimensions are
//! not materialized as a single cuboid is answered by a *covering set* of
//! cuboids (Section 3.4.2, [`GridRankingCube::covering_cuboids`]): the
//! per-cuboid posting lists ([`crate::idlist`]) are intersected by the
//! streaming k-way leapfrog directly over the buffered cell pages — one
//! cursor per covering cuboid, never an intermediate tid set. A query over
//! fragments is that case and nothing else: same partition, same search,
//! same file format.
//!
//! # Cells on disk
//!
//! A saved file ([`GridRankingCube::save_to`]) packs the cuboid cells into
//! *segments*: consecutive cells in catalog order — cuboid, cell values,
//! pid — share one object for as long as they fit one page, and a cell too
//! big for a page keeps an object of its own. The cube names every cell by
//! object, offset and length, in memory (one object per cell, offset 0) and
//! reopened alike, and a query reads a cell as a range of its object's
//! frame. Most cells of a four-dimension cube are a few hundred bytes, so
//! a page apiece spent most of the file on padding; a segment never spans
//! two pages, so no fetch reads more pages than its cell alone would.
//!
//! A cell is a directory with one entry per base block it has tuples in,
//! then those blocks' posting lists ([`encode_cell`]). An entry's fields
//! are as wide as the cell's largest value needs, an entry of one tuple
//! stores no list (its `base` is the tuple), and every entry carries the
//! box of its tuples over the ranking dimensions, rounded outward to
//! sixteenths of the block's bin.
//!
//! A base block is one object of `n × R` little-endian `f64`s, row-major:
//! the ranking values of the block's `n` tuples in the order of
//! [`GridPartition::block_tids`], which is ascending and which the catalog
//! stores once. Record `i` belongs to the block's `i`-th tid, so a block
//! keeps no tid column of its own: 24 bytes a tuple over three ranking
//! dimensions lets a block of up to 340 tuples fit two 4 KB pages. An
//! object of any other length is a malformed file.
//!
//! # Selection-aware bounds
//!
//! The stop condition bounds an unread block by its bin box, but a block
//! is read only for the tuples the selection leaves in it — a few of some
//! three hundred under two conditions. When the frontier first pops a
//! block, the search buffers its covering cells, as retrieving it would,
//! and intersects the boxes of the block's entries in them: every
//! qualifying tuple lies in each box, so in their intersection, and the
//! function's lower bound over it is still a lower bound on every tuple
//! the block could answer with. A block whose refined bound exceeds its
//! bin bound goes back into the frontier under it; one whose boxes miss
//! each other holds no qualifying tuple at all. Only a block still on top
//! under its refined bound has its base block read.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use rcube_func::{RankFn, Rect};
use rcube_index::grid::{Bid, GridPartition};
use rcube_storage::{
    format, ByteReader, ByteWriter, DiskSim, IoSnapshot, PageId, PageStore, StorageError,
    DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES,
};
use rcube_table::{Relation, Selection, Tid};

use crate::idlist::{self, IdCursor, IdListRef, KWayIntersect};
use crate::query::{MinScored, ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::QueryStats;

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
    /// The cuboid's selection dimensions, in the order its cell keys
    /// carry their values.
    dims: Vec<usize>,
    /// `dims` as a bitmask ([`dims_mask`]): what cover resolution works on.
    mask: u64,
    /// Pseudo-block scale factor for this cuboid.
    sf: usize,
    /// `(cell values over dims, pid) → where the stored cell lies`. Each
    /// cell is a per-bid posting-list directory (see [`encode_cell`]).
    cells: HashMap<(Vec<u32>, u32), CellRef>,
}

impl Cuboid {
    fn new(dims: Vec<usize>, sf: usize, cells: HashMap<(Vec<u32>, u32), CellRef>) -> Option<Self> {
        let mask = dims_mask(dims.iter().copied())?;
        Some(Self { dims, mask, sf, cells })
    }
}

/// Selection dimensions as a bitmask, bit `d` for dimension `d`; `None`
/// when one is past the 64 a mask holds (no cuboid has such a dimension,
/// so no cover reaches it).
fn dims_mask(dims: impl IntoIterator<Item = usize>) -> Option<u64> {
    dims.into_iter().try_fold(0u64, |mask, d| (d < 64).then(|| mask | 1 << d))
}

/// [`dims_mask`] of the dimensions a selection constrains.
fn selection_mask(selection: &Selection) -> Option<u64> {
    dims_mask(selection.conds().iter().map(|&(d, _)| d))
}

/// Where a stored cell lies: `len` bytes from `start` in the object rooted
/// at `object`. The in-memory build stores one object per cell (`start`
/// 0); a saved file packs runs of small cells into shared one-page
/// *segments* ([`GridRankingCube::save_to`]), so several references name
/// one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellRef {
    object: PageId,
    start: u32,
    len: u32,
}

impl CellRef {
    /// The cell's byte range inside its object.
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    /// The cell's bytes cut out of its object's bytes: a reference that
    /// runs past the object's end is a malformed file.
    fn within(self, object: &[u8]) -> Result<&[u8], StorageError> {
        object
            .get(self.range())
            .ok_or(StorageError::Malformed("cell reference past its object's end"))
    }
}

/// A fetched cell: the shared handle of the object it lies in and its
/// range there, checked against the object's length when fetched —
/// posting-list views parse straight off the frame, nothing is copied.
struct CellBytes {
    frame: Arc<[u8]>,
    range: std::ops::Range<usize>,
}

impl CellBytes {
    fn bytes(&self) -> &[u8] {
        &self.frame[self.range.clone()]
    }
}

/// Bytes in front of a cell's directory: `[entries: u32][widths: u16]`.
const CELL_HEAD: usize = 6;

/// The widest directory field: a `u32`.
const MAX_WIDTH: usize = 4;

/// What a singleton entry's absent list stands for: a delta list of one
/// gap 0, i.e. the entry's `base` alone.
const SINGLETON: &[u8] = &[idlist::TAG_DELTA, 0];

/// One tuple's place in a cuboid under construction: `(cell ordinal, pid,
/// bid, tid)`. Sorted, the rows of one stored cell are contiguous, its
/// blocks ascend and so do the tids inside each block.
type CellRow = (u128, u32, Bid, Tid);

/// Encodes one cuboid cell: every base block's tid list as a compressed
/// posting list, fronted by a directory for O(log n) per-bid lookup.
/// `rows` are the cell's tuples, ascending by `(bid, tid)`; `sixteenths`
/// holds, `r` bytes a tid, the sixteenth of its block's bin each of the
/// tuple's ranking values lies in ([`sixteenth_of`]).
///
/// Layout: `[entries: u32][widths: u16]`, then the entries sorted by bid,
/// each `[bid][base][end][box]`, then the concatenated [`idlist`] buffers
/// encoded relative to `base` — block-local origins keep dense cells
/// bitmap-eligible no matter where their tids sit globally. `base` is the
/// block's smallest tid and `end` the cumulative payload offset. The
/// widths are bytes per field (bid, base, end in successive nibbles, each
/// 0..=4, the top nibble 0), chosen per cell as its largest value needs.
/// An entry whose list is empty (its `end` equals the one before) is a
/// *singleton*: its one tuple is `base`. `box` is one byte per ranking
/// dimension of the partition: the first (low nibble) and last (high
/// nibble) sixteenth of the block's bin that the entry's tuples occupy.
fn encode_cell(rows: &[CellRow], sixteenths: &[u8], r: usize) -> Vec<u8> {
    let mut entries = Vec::new();
    let mut boxes = Vec::new();
    let mut payload = Vec::new();
    let mut rel: Vec<Tid> = Vec::new();
    for block in rows.chunk_by(|a, b| a.2 == b.2) {
        let (_, _, bid, base) = block[0];
        if block.len() > 1 {
            rel.clear();
            rel.extend(block.iter().map(|&(_, _, _, tid)| tid - base));
            let universe = rel.last().unwrap() + 1;
            payload.extend_from_slice(&idlist::encode_auto(&rel, universe));
        }
        entries.push((bid, base, payload.len() as u32));
        for i in 0..r {
            let at = |&(_, _, _, tid): &CellRow| sixteenths[tid as usize * r + i];
            let (lo, hi) = block.iter().map(at).fold((15, 0), |(lo, hi), q| (q.min(lo), q.max(hi)));
            boxes.push(lo | hi << 4);
        }
    }
    write_cell(&entries, &boxes, r, &payload)
}

/// Lays out a cell from its entries `(bid, base, end)`, their boxes (`r`
/// bytes each) and the lists' payload ([`encode_cell`]).
fn write_cell(entries: &[(Bid, Tid, u32)], boxes: &[u8], r: usize, payload: &[u8]) -> Vec<u8> {
    let width = |max: Option<u32>| max.map_or(0, |m| (u32::BITS - m.leading_zeros()).div_ceil(8));
    let widths = [
        width(entries.iter().map(|e| e.0).max()),
        width(entries.iter().map(|e| e.1).max()),
        width(entries.iter().map(|e| e.2).max()),
    ];
    let mut out = Vec::with_capacity(
        CELL_HEAD + entries.len() * (widths.iter().sum::<u32>() as usize + r) + payload.len(),
    );
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let packed = widths.iter().rev().fold(0u16, |packed, &w| packed << 4 | w as u16);
    out.extend_from_slice(&packed.to_le_bytes());
    for (i, &(bid, base, end)) in entries.iter().enumerate() {
        for (value, w) in [bid, base, end].into_iter().zip(widths) {
            out.extend_from_slice(&value.to_le_bytes()[..w as usize]);
        }
        out.extend_from_slice(&boxes[i * r..(i + 1) * r]);
    }
    out.extend_from_slice(payload);
    out
}

/// A block's entry in a cell, as [`cell_entry`] finds it.
struct Entry<'a> {
    /// The block's smallest tid in the cell.
    base: Tid,
    /// Its posting list, relative to `base` ([`SINGLETON`] for one tuple).
    list: &'a [u8],
    /// Its box: one byte a ranking dimension of the partition, the first
    /// sixteenth of the block's bin in the low nibble, the last in the high.
    sixteenths: &'a [u8],
}

impl<'a> Entry<'a> {
    /// A streaming cursor over the entry's tids — a zero-copy view into
    /// the cell's bytes. A list that does not parse is a malformed file.
    fn cursor(&self) -> Result<IdCursor<'a>, StorageError> {
        Ok(IdListRef::parse(self.list)?.cursor_with_base(self.base))
    }
}

/// `N` bytes of `bytes` from `at`, or `None` past its end.
fn word<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..)?.first_chunk().copied()
}

/// A little-endian unsigned integer of `bytes.len()` (≤ 4) bytes.
fn uint(bytes: &[u8]) -> u32 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b))
}

/// Binary-searches a cell's directory for `bid` (`r` box bytes an entry)
/// and returns its entry, `None` when the cell has no tuple in the block.
/// Bytes that do not hold the layout of [`encode_cell`] around the entry
/// are a malformed file: a directory running past the cell, a width out of
/// range, an `end` below the one before it or past the lists, or a box
/// whose first sixteenth lies above its last.
fn cell_entry(cell: &[u8], bid: Bid, r: usize) -> Result<Option<Entry<'_>>, StorageError> {
    let malformed = StorageError::Malformed;
    let n =
        word(cell, 0).map(u32::from_le_bytes).ok_or(malformed("cell shorter than its header"))?;
    let packed =
        word(cell, 4).map(u16::from_le_bytes).ok_or(malformed("cell shorter than its header"))?;
    let [wb, wt, we, rest] = [0, 4, 8, 12].map(|shift| usize::from(packed >> shift & 0xF));
    if wb.max(wt).max(we) > MAX_WIDTH || rest != 0 {
        return Err(malformed("cell directory width out of range"));
    }
    let size = wb + wt + we + r;
    let (dir, payload) = (n as usize)
        .checked_mul(size)
        .and_then(|len| cell[CELL_HEAD..].split_at_checked(len))
        .ok_or(malformed("cell directory runs past the cell"))?;
    let field = |i: usize, at: usize, w: usize| uint(&dir[i * size + at..][..w]);
    let (mut lo, mut hi) = (0usize, n as usize);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if field(mid, 0, wb) < bid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == n as usize || field(lo, 0, wb) != bid {
        return Ok(None);
    }
    let end = field(lo, wb + wt, we) as usize;
    let start = if lo == 0 { 0 } else { field(lo - 1, wb + wt, we) as usize };
    let list = match start.cmp(&end) {
        std::cmp::Ordering::Equal => SINGLETON,
        std::cmp::Ordering::Less => {
            payload.get(start..end).ok_or(malformed("cell list runs past the cell"))?
        }
        std::cmp::Ordering::Greater => return Err(malformed("cell directory ends descend")),
    };
    let sixteenths = &dir[lo * size + wb + wt + we..][..r];
    if sixteenths.iter().any(|&b| b & 0xF > b >> 4) {
        return Err(malformed("cell entry box is inverted"));
    }
    Ok(Some(Entry { base: field(lo, wb, wt), list, sixteenths }))
}

/// Edge `j` (0..=16) of the sixteenths a bin `[lo, hi]` is cut into: `lo`
/// at 0, `hi` at 16 and never past `hi` between, monotone in `j`. The one
/// formula a box is encoded ([`sixteenth_of`]) and decoded with.
fn sixteenth_edge(lo: f64, hi: f64, j: u8) -> f64 {
    if j >= 16 {
        hi
    } else {
        (lo + (hi - lo) * f64::from(j) / 16.0).min(hi)
    }
}

/// The sixteenth of the bin `[lo, hi]` that `v` lies in: the last `j` in
/// `0..16` whose [`sixteenth_edge`] is ≤ `v`, so `v` lies in
/// `[edge(j), edge(j + 1)]` for every `v` in the bin. Monotone in `v`:
/// the sixteenths of an entry's smallest and largest values bracket every
/// value between, and boxes of one block intersect by comparing nibbles.
/// The estimate from the division is corrected against the edges
/// themselves; an overshoot steps outward (down), since an edge above `v`
/// would leave `v` outside its own box — a wrong answer, not a slow one.
fn sixteenth_of(lo: f64, hi: f64, v: f64) -> u8 {
    // A NaN estimate casts to 0.
    let mut j = ((v - lo) / (hi - lo) * 16.0).clamp(0.0, 15.0) as u8;
    while j > 0 && sixteenth_edge(lo, hi, j) > v {
        j -= 1;
    }
    while j < 15 && sixteenth_edge(lo, hi, j + 1) <= v {
        j += 1;
    }
    j
}

/// The bin of block `bid` on partition dimension `i`: its two edges.
fn bin_edges(partition: &GridPartition, bid: Bid, i: usize) -> (f64, f64) {
    let (edges, c) = (partition.boundaries(i), partition.coord(bid, i));
    (edges[c], edges[c + 1])
}

/// The materialized grid ranking cube.
#[derive(Debug)]
pub struct GridRankingCube {
    partition: GridPartition,
    store: PageStore,
    /// bid → base block object: the ranking values of the block's tuples,
    /// in `partition.block_tids(bid)` order; `None` exactly for an empty
    /// block.
    base_pages: Vec<Option<PageId>>,
    /// The materialized cuboids, ascending by `dims` (the order cover
    /// resolution breaks ties in, and the order a saved catalog lists them).
    cuboids: Vec<Cuboid>,
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

        // Base block table: bid → the ranking values of its tuples, in the
        // order of `partition.block_tids(bid)` (module docs, *Cells on disk*).
        let mut base_pages = vec![None; partition.num_blocks()];
        for bid in 0..partition.num_blocks() as Bid {
            let tids = partition.block_tids(bid);
            if tids.is_empty() {
                continue;
            }
            let mut bytes = Vec::with_capacity(tids.len() * 8 * ranking_dims.len());
            for &tid in tids {
                for &d in &ranking_dims {
                    bytes.extend_from_slice(&rel.ranking_value(tid, d).to_le_bytes());
                }
            }
            base_pages[bid as usize] = Some(store.put(disk, bytes));
        }

        // Cuboid dimension sets.
        let mut dim_sets = match &config.cuboids {
            CuboidSpec::AllSubsets => {
                all_subsets(&(0..rel.schema().num_selection()).collect::<Vec<_>>())
            }
            CuboidSpec::Fragments(f) => fragment_subsets(rel.schema().num_selection(), *f),
            CuboidSpec::Explicit(sets) => sets.clone(),
        };

        dim_sets.sort();
        dim_sets.dedup();
        // Every tuple's sixteenth of its block's bin, one byte a ranking
        // dimension: what the boxes of the cell entries are made of.
        let r = ranking_dims.len();
        let mut sixteenths = Vec::with_capacity(rel.len() * r);
        for tid in rel.tids() {
            let bid = partition.bid_of(tid);
            for (i, &d) in ranking_dims.iter().enumerate() {
                let (lo, hi) = bin_edges(&partition, bid, i);
                sixteenths.push(sixteenth_of(lo, hi, rel.ranking_value(tid, d)));
            }
        }
        let mut cuboids = Vec::with_capacity(dim_sets.len());
        for dims in dim_sets {
            let cards: Vec<u32> =
                dims.iter().map(|&d| rel.schema().selection_dim(d).cardinality()).collect();
            let sf = GridPartition::scale_factor(&cards);
            // One sort puts every stored cell's tuples side by side: by
            // cell (its values as one mixed-radix ordinal), then pid, then
            // (bid, tid) as `encode_cell` wants them.
            assert!(
                cards.iter().try_fold(1u128, |space, &c| space.checked_mul(c.into())).is_some(),
                "a cuboid's cell space (the product of its cardinalities) must fit 128 bits"
            );
            let vals_of = |tid: Tid| dims.iter().map(move |&d| rel.selection_value(tid, d));
            let pids: Vec<u32> =
                (0..partition.num_blocks() as Bid).map(|bid| partition.pid_of(bid, sf)).collect();
            let mut rows: Vec<CellRow> = rel
                .tids()
                .map(|tid| {
                    let cell = vals_of(tid)
                        .zip(&cards)
                        .fold(0u128, |cell, (v, &card)| cell * card as u128 + v as u128);
                    let bid = partition.bid_of(tid);
                    (cell, pids[bid as usize], bid, tid)
                })
                .collect();
            rows.sort_unstable();
            let mut cells = HashMap::new();
            for cell in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (_, pid, _, tid) = cell[0];
                let bytes = encode_cell(cell, &sixteenths, r);
                let len = u32::try_from(bytes.len()).expect("a cell is under 4 GiB");
                let object = store.put(disk, bytes);
                cells.insert((vals_of(tid).collect(), pid), CellRef { object, start: 0, len });
            }
            let cuboid = Cuboid::new(dims, sf, cells);
            cuboids.push(cuboid.expect("a grid cube indexes selection dimensions 0..64"));
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

    /// Materialized size in bytes in the paper's accounting: cuboid cells
    /// plus a base block table of `(tid, ranking values)` records. The
    /// stored base blocks hold the values alone — their tids are the
    /// partition's — so the tid column is counted here, 4 bytes a tuple.
    pub fn materialized_bytes(&self) -> usize {
        self.store.total_bytes() + 4 * self.partition.num_tuples()
    }

    /// Payload bytes of the stored base blocks, read through the store
    /// uncharged: 8 bytes per ranking dimension per tuple.
    pub fn base_block_bytes(&self) -> Result<usize, StorageError> {
        self.base_pages.iter().flatten().map(|&page| Ok(self.store.peek(page)?.len())).sum()
    }

    /// Dimension sets of the materialized cuboids.
    pub fn cuboid_dims(&self) -> Vec<Vec<usize>> {
        self.cuboids.iter().map(|c| c.dims.clone()).collect()
    }

    /// True when `other` materializes the same cuboids in the same order,
    /// so a cover resolved on one (ordinals into that order) is the cover
    /// the other would resolve — shards built from one `CuboidSpec`.
    pub(crate) fn same_cuboids(&self, other: &Self) -> bool {
        self.cuboids.iter().map(|c| &c.dims).eq(other.cuboids.iter().map(|c| &c.dims))
    }

    /// The covering cuboid set for a selection (Section 3.4.2): maximal
    /// materialized cuboids with `Dim(C) ⊆ Q`, then a greedy minimum cover.
    /// `None` when the materialized cuboids cannot cover the query.
    pub fn covering_cuboids(&self, selection: &Selection) -> Option<Vec<Vec<usize>>> {
        let cover = self.cover_of(selection)?;
        Some(cover.into_iter().map(|i| self.cuboids[i].dims.clone()).collect())
    }

    /// [`Self::covering_cuboids`] as ordinals into `self.cuboids`, resolved
    /// on dimension bitmasks. Ties between equally good cuboids go to the
    /// last in `dims` order.
    fn cover_of(&self, selection: &Selection) -> Option<Vec<usize>> {
        let q = selection_mask(selection)?;
        // Candidates: cuboids whose dims ⊆ Q. Maximal step: drop the ones
        // strictly contained in another.
        let candidates: Vec<usize> =
            (0..self.cuboids.len()).filter(|&i| self.cuboids[i].mask & !q == 0).collect();
        let maximal: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| {
                let c = &self.cuboids[i];
                !candidates
                    .iter()
                    .map(|&o| &self.cuboids[o])
                    .any(|other| other.dims.len() > c.dims.len() && c.mask & !other.mask == 0)
            })
            .collect();
        // Greedy minimum cover.
        let mut uncovered = q;
        let mut chosen = Vec::with_capacity(q.count_ones() as usize);
        while uncovered != 0 {
            let gain = |&i: &usize| (self.cuboids[i].mask & uncovered).count_ones();
            let best = *maximal.iter().max_by_key(|i| gain(i))?;
            if gain(&best) == 0 {
                return None;
            }
            uncovered &= !self.cuboids[best].mask;
            chosen.push(best);
        }
        Some(chosen)
    }

    /// Whether [`Self::cover_of`] would find a cover, without building one:
    /// every candidate lies inside some maximal one, so the greedy pass
    /// succeeds exactly when the candidates' union is the whole selection.
    fn covers(&self, selection: &Selection) -> bool {
        selection_mask(selection).is_some_and(|q| {
            let inside = self.cuboids.iter().filter(|c| c.mask & !q == 0);
            inside.fold(0, |reach, c| reach | c.mask) == q
        })
    }

    /// The cover a search over `plan` runs on, as ordinals: the plan's
    /// pinned `via_cuboids` set, else the resolved one. Panics when the plan
    /// pins a cuboid that is not materialized or the selection cannot be
    /// covered — routing asks [`Self::can_answer`] first.
    pub(crate) fn plan_cover(&self, plan: &QueryPlan<'_>) -> Vec<usize> {
        match plan.cuboids {
            Some(pinned) => pinned
                .iter()
                .map(|dims| {
                    self.cuboids
                        .binary_search_by(|c| c.dims.cmp(dims))
                        .expect("via_cuboids names a cuboid that is not materialized")
                })
                .collect(),
            None => self
                .cover_of(plan.selection)
                .expect("materialized cuboids cannot cover the query's selection dimensions"),
        }
    }

    /// Binds this cube to its metering device as a [`RankedSource`] — the
    /// only way to query it ([`RankedSource::open`] yields a resumable
    /// [`TopKCursor`], [`RankedSource::query`] drains one).
    pub fn source<'a>(&'a self, disk: &'a DiskSim) -> GridSource<'a> {
        GridSource { cube: self, disk }
    }

    /// True when this cube can answer the plan: the materialized cuboids
    /// cover the selection and the partition covers the ranking
    /// dimensions. The `Engine` facade routes on this.
    pub fn can_answer(&self, selection: &Selection, ranking_dims: &[usize]) -> bool {
        self.covers(selection) && ranking_dims.iter().all(|d| self.ranking_dims.contains(d))
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
    /// size (4 KB): every base block becomes a checksummed on-disk object
    /// of ranking values alone, the cuboid cells are packed into
    /// *segments*, and the cube catalog (partition meta with every block's
    /// tids, base-block and cuboid directories) is recorded in the
    /// superblock. [`Self::open_from`] reopens it read-only with identical
    /// answers.
    ///
    /// A segment is one object that concatenates consecutive cells in
    /// catalog order — cuboid, then cell values, then pid, so the pseudo
    /// blocks of one cell, which a query buffers together, sit side by side
    /// — for as long as they fit one page's payload. A cell too big for a
    /// page alone stays an object of its own. A segment never spans two
    /// pages, so fetching a cell reads, and charges, the pages it would
    /// read alone; the catalog names each cell by object, offset and
    /// length.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        self.save_to_with(path, DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES)
    }

    /// [`Self::save_to`] with an explicit page size. The pool capacity is
    /// not used: a save reads nothing back, so the handle that writes the
    /// file caches nothing — a write-through pool would hold a copy of
    /// every segment until the save returns. A reopen picks its own.
    pub fn save_to_with(
        &self,
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        _pool_pages: usize,
    ) -> Result<(), StorageError> {
        let file = PageStore::create_file(path, page_size, 0)?;
        // A one-page object's payload: the page less its header and the
        // object's `u32` length prefix.
        self.save_into(&file, page_size - format::PAGE_HEADER - 4)
    }

    /// Copies every object into `file` (base blocks, then the cells packed
    /// into segments of at most `room` bytes) and writes the catalog.
    fn save_into(&self, file: &PageStore, room: usize) -> Result<(), StorageError> {
        let mut packer = Packer::new(file, room);
        let base_pages = self
            .base_pages
            .iter()
            .map(|base| match base {
                Some(old) => file.try_put_shared(&packer.disk, self.store.peek(*old)?).map(Some),
                None => Ok(None),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cuboids = Vec::with_capacity(self.cuboids.len());
        for cuboid in &self.cuboids {
            let mut keys: Vec<&(Vec<u32>, u32)> = cuboid.cells.keys().collect();
            keys.sort();
            for key in &keys {
                let cell = cuboid.cells[*key];
                packer.push(cell.within(&self.store.peek(cell.object)?)?)?;
            }
            cuboids.push(keys);
        }
        let mut refs = packer.finish()?.into_iter();
        let mut w = ByteWriter::new();
        w.put_u8(CATALOG_GRID);
        w.put_u64(self.config.block_size as u64);
        w.put_u64(self.ranking_dims.len() as u64);
        for &d in &self.ranking_dims {
            w.put_u64(d as u64);
        }
        w.put_bytes(&self.partition.to_bytes());
        w.put_u64(base_pages.len() as u64);
        for base in base_pages {
            w.put_u64(base.map_or(u64::MAX, |page| page.0));
        }
        w.put_u64(cuboids.len() as u64);
        for (cuboid, keys) in self.cuboids.iter().zip(cuboids) {
            w.put_u64(cuboid.dims.len() as u64);
            for &d in &cuboid.dims {
                w.put_u64(d as u64);
            }
            w.put_u64(cuboid.sf as u64);
            w.put_u64(keys.len() as u64);
            for (vals, pid) in keys {
                let cell = refs.next().expect("one reference per packed cell");
                for &v in vals {
                    w.put_u32(v);
                }
                w.put_u32(*pid);
                w.put_u64(cell.object.0);
                w.put_u32(cell.start);
                w.put_u32(cell.len);
            }
        }
        finish_catalog(file, w)
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
        Self::from_catalog(store, &catalog[1..])
    }

    /// Parses a grid catalog — everything after its kind tag — over the
    /// store its object ids name. Any bytes give a cube or a typed error:
    /// every count is bounded by the bytes left to hold it before anything
    /// is allocated for it. Cell references are not checked against their
    /// objects here; a reference past its object's end fails the first
    /// read of it, and [`Self::verify_integrity`] checks them all.
    fn from_catalog(store: PageStore, catalog: &[u8]) -> Result<Self, StorageError> {
        const LIMIT: usize = 1 << 30;
        let mut r = ByteReader::new(catalog);
        let block_size = r.count(LIMIT)?;
        let nrd = r.count(64)?;
        if nrd == 0 {
            // A base block record is 8 bytes a ranking dimension.
            return Err(StorageError::Malformed("grid catalog names no ranking dimension"));
        }
        let ranking_dims = (0..nrd).map(|_| r.count(LIMIT)).collect::<Result<Vec<_>, _>>()?;
        let partition = GridPartition::from_bytes(r.bytes()?)?;
        if partition.dims() != ranking_dims.as_slice() {
            return Err(StorageError::Malformed("partition does not cover the ranking dimensions"));
        }
        let nbase = r.count(r.remaining() / 8)?;
        if nbase != partition.num_blocks() {
            return Err(StorageError::Malformed("base-page table size mismatch"));
        }
        let base_pages = (0..nbase)
            .map(|_| r.u64().map(|p| (p != u64::MAX).then_some(PageId(p))))
            .collect::<Result<Vec<_>, _>>()?;
        let stored = |(bid, base): (usize, &Option<PageId>)| {
            base.is_some() != partition.block_tids(bid as Bid).is_empty()
        };
        if !base_pages.iter().enumerate().all(stored) {
            return Err(StorageError::Malformed("base-page table disagrees with the partition"));
        }
        // A cuboid takes at least its dimension, scale factor and cell
        // counts.
        let ncuboids = r.count(r.remaining() / 24)?;
        let mut cuboids = BTreeMap::new();
        for _ in 0..ncuboids {
            let ndims = r.count(64)?;
            let dims = (0..ndims).map(|_| r.count(LIMIT)).collect::<Result<Vec<_>, _>>()?;
            let sf = r.count(LIMIT)?.max(1);
            // Per cell: its values, pid, object, start, length.
            let ncells = r.count(r.remaining() / (4 * ndims + 20))?;
            let mut cells = HashMap::with_capacity(ncells);
            for _ in 0..ncells {
                let vals = (0..ndims).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
                let pid = r.u32()?;
                let cell = CellRef { object: PageId(r.u64()?), start: r.u32()?, len: r.u32()? };
                cells.insert((vals, pid), cell);
            }
            cuboids.insert(dims, (sf, cells));
        }
        let cuboids = cuboids
            .into_iter()
            .map(|(dims, (sf, cells))| Cuboid::new(dims, sf, cells))
            .collect::<Option<Vec<_>>>()
            .ok_or(StorageError::Malformed("cuboid dimension out of range"))?;
        let config = GridCubeConfig {
            block_size,
            ranking_dims: ranking_dims.clone(),
            cuboids: CuboidSpec::Explicit(cuboids.iter().map(|c| c.dims.clone()).collect()),
        };
        Ok(Self { partition, store, base_pages, cuboids, ranking_dims, config })
    }

    /// Scrubs every stored object (base blocks, cell objects) once through
    /// the validated read path, cache-cold, and checks that every base
    /// block holds one record per tuple of its partition block and every
    /// cell reference lies inside its object, surfacing the first checksum
    /// / structure error. `Ok(())` means all pages decode clean.
    pub fn verify_integrity(&self) -> Result<(), StorageError> {
        self.store.clear_cache();
        let mut scrubbed = HashMap::new();
        let mut scrub = |object: PageId| -> Result<usize, StorageError> {
            if let Some(&len) = scrubbed.get(&object) {
                return Ok(len);
            }
            let len = self.store.peek(object)?.len();
            scrubbed.insert(object, len);
            Ok(len)
        };
        let rec = 8 * self.ranking_dims.len();
        for (bid, base) in self.base_pages.iter().enumerate() {
            let tuples = self.partition.block_tids(bid as Bid).len();
            if base.map(&mut scrub).transpose()?.is_some_and(|len| len != tuples * rec) {
                return Err(BASE_SIZE);
            }
        }
        for cuboid in &self.cuboids {
            for &cell in cuboid.cells.values() {
                if cell.range().end > scrub(cell.object)? {
                    return Err(StorageError::Malformed("cell reference past its object's end"));
                }
            }
        }
        Ok(())
    }

    /// Fetches a stored cell, charging its object's pages to `disk`.
    fn fetch_cell(&self, disk: &DiskSim, cell: CellRef) -> Result<CellBytes, StorageError> {
        let frame = self.store.try_get_bytes(disk, cell.object)?;
        cell.within(&frame)?;
        Ok(CellBytes { frame, range: cell.range() })
    }
}

/// Packs cells, in the order they are pushed, into segment objects of at
/// most `room` bytes; a cell larger than `room` closes the open segment
/// and becomes an object of its own.
struct Packer<'a> {
    file: &'a PageStore,
    /// A throwaway meter: what a save writes is no query's I/O.
    disk: DiskSim,
    room: usize,
    segment: Vec<u8>,
    /// One reference per pushed cell; those from `sealed` on lie in the
    /// open segment and learn its object when it is stored.
    refs: Vec<CellRef>,
    sealed: usize,
}

impl<'a> Packer<'a> {
    fn new(file: &'a PageStore, room: usize) -> Self {
        let disk = DiskSim::new(DEFAULT_PAGE_SIZE, 0);
        Self { file, disk, room, segment: Vec::new(), refs: Vec::new(), sealed: 0 }
    }

    fn push(&mut self, cell: &[u8]) -> Result<(), StorageError> {
        if self.segment.len() + cell.len() > self.room {
            self.seal()?;
        }
        let len = cell.len() as u32;
        if cell.len() > self.room {
            let object = self.file.try_put(&self.disk, cell.to_vec())?;
            self.refs.push(CellRef { object, start: 0, len });
            self.sealed = self.refs.len();
        } else {
            let start = self.segment.len() as u32;
            self.refs.push(CellRef { object: PageId(u64::MAX), start, len });
            self.segment.extend_from_slice(cell);
        }
        Ok(())
    }

    /// Stores the open segment, if any, and points its cells at it.
    fn seal(&mut self) -> Result<(), StorageError> {
        if !self.segment.is_empty() {
            let segment = std::mem::replace(&mut self.segment, Vec::with_capacity(self.room));
            let object = self.file.try_put(&self.disk, segment)?;
            for cell in &mut self.refs[self.sealed..] {
                cell.object = object;
            }
            self.sealed = self.refs.len();
        }
        Ok(())
    }

    /// Seals the last segment and returns every reference, in push order.
    fn finish(mut self) -> Result<Vec<CellRef>, StorageError> {
        self.seal()?;
        Ok(self.refs)
    }
}

/// Catalog kind tags (first byte of the catalog object). The signature
/// catalog moved from tag 3 to tag 4 when its per-cell layout changed
/// (per-node `sid → partial` pairs → per-partial first-SID directory +
/// depth); tag 2 was a fragments-configured grid cube behind two extra
/// integers, tag 1 a grid catalog naming one object per cell, before
/// cells were packed into segments, tag 5 one whose cells carried a fixed
/// 12-byte directory entry with no box, before the narrow entry of
/// [`encode_cell`], and tag 6 one whose base blocks stored each tuple's
/// tid beside its ranking values, before the tids were left to the
/// partition (tag 7). Files carrying a retired tag are rejected with a
/// typed kind-mismatch error instead of being misparsed.
pub(crate) const CATALOG_GRID: u8 = 7;
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

impl<'a> GridSource<'a> {
    /// [`RankedSource::open`] over a cover already resolved
    /// ([`GridRankingCube::plan_cover`]) on a cube with the same cuboids —
    /// how a shard set resolves once for all of its shards.
    pub(crate) fn open_covered(&self, plan: &QueryPlan<'a>, cover: &[usize]) -> TopKCursor<'a> {
        TopKCursor::new(Box::new(GridSearch::new(self.cube, self.disk, plan, cover)), plan.k)
    }
}

impl<'a> RankedSource<'a> for GridSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        Ok(self.open_covered(plan, &self.cube.plan_cover(plan)))
    }
}

/// The grid cube's four-step query algorithm (Section 3.3 / 3.4.2) as an
/// explicit, resumable state machine.
///
/// Three heaps drive it. The *frontier* `h` holds blocks waiting to be
/// retrieved, by ranking-function lower bound (the candidate list H of
/// Lemma 1): a retrieved block puts its axis-neighbours there. The
/// *unexplored* heap holds every block that has not entered the frontier,
/// not one by one but as boxes of blocks, by `(lower bound of the box,
/// lowest bid in it)`; it starts as the one box of all blocks and
/// [`Self::refine`] halves its top only as far as a decision needs. The
/// *candidate* heap holds evaluated-but-unemitted tuples by `(score, tid)`.
///
/// **The order of the unexplored heap is the order of a scan.** A box's
/// bound is no greater than the bound of any block inside it (every
/// `lower_bound` in `rcube_func` is inclusion-monotone, in floating point
/// too) and its lowest bid no greater than theirs, so when a single block
/// reaches the top nothing still boxed can precede it: blocks surface in
/// ascending `(bound, bid)`, which is what bounding all `b^R` blocks and
/// taking the first minimum gave — without touching more than the boxes
/// on the way down. A bound that is only sound changes the order, never
/// the answers: the top of the heap still bounds everything below it.
///
/// **The stop condition looks both ways.** [`Self::advance`] emits the
/// cheapest candidate once its score is strictly below the best bound of
/// the frontier *and* of the unexplored heap (`S < S_unseen`; strict
/// because an equal bound may hide an equal score with a smaller tid), and
/// an unexplored block that strictly beats the frontier's best enters the
/// frontier — the Section 3.6.1 case of a function whose minimum
/// neighbourhood does not reach every basin. For a convex function the
/// frontier always holds a block at least as good (Lemma 1) and ties go to
/// the frontier, so the unexplored heap supplies the seed and then only
/// confirms; otherwise exactly one more block is retrieved per step.
///
/// **A block is bounded twice when a selection applies.** Its first pop
/// from the frontier buffers its covering cells and bounds it by the
/// intersection of its entries' boxes ([`Self::screen`]; see the module's
/// *Selection-aware bounds*). Where that bound exceeds the bin bound the
/// block goes back into the frontier under it, marked deferred, and is
/// read when it next surfaces. The refined bound is still a lower bound on
/// every tuple the block could answer with, so the stop condition above
/// holds unchanged; the neighbours of a block enter the frontier at its
/// first pop, as before, so the neighbourhood grows as it did.
///
/// Pausing between answers keeps every heap, the inserted and deferred
/// sets and the pseudo-block buffer alive, so `extend_k` resumes instead
/// of re-running the search.
struct GridSearch<'a> {
    cube: &'a GridRankingCube,
    disk: &'a DiskSim,
    func: &'a dyn RankFn,
    covering: Vec<Cover<'a>>,
    /// Positions of the query's ranking dimensions inside the partition.
    proj: Vec<usize>,
    /// Frontier: unretrieved blocks by lower bound (candidate list H).
    h: BinaryHeap<HeapBox>,
    /// Boxes of blocks not yet in the frontier, by `(bound, lowest bid)`.
    /// Blocks the neighbourhood inserted meanwhile are dropped when their
    /// box comes apart, not before.
    unexplored: BinaryHeap<HeapBox>,
    /// Bit per block: set once it has entered the frontier.
    inserted: Vec<u64>,
    /// Bit per block: set once its first pop put it back into the frontier
    /// under the bound of its entries' box.
    deferred: Vec<u64>,
    /// Pseudo-block buffer: (covering index, pid) → the fetched cell.
    /// `None` records a definitively empty cell. Cells are ranges of
    /// shared handles from the store — posting-list views parse straight
    /// off them.
    pid_buffer: HashMap<(usize, u32), Option<CellBytes>>,
    /// Evaluated tuples not yet certified/emitted, cheapest first.
    candidates: BinaryHeap<MinScored>,
    /// Scratch reused from block to block: the region being bounded, the
    /// box its entries leave (first and last sixteenth a partition
    /// dimension), the tid list being evaluated, the point being scored.
    region: Rect,
    cut: Vec<(u8, u8)>,
    tids: Vec<Tid>,
    point: Vec<f64>,
    stats: QueryStats,
    before: IoSnapshot,
}

/// One covering cuboid, resolved when the search opens.
struct Cover<'a> {
    cuboid: &'a Cuboid,
    /// The query's cell in this cuboid: its values never change, the pid is
    /// set to the pseudo block of the base block being retrieved.
    key: (Vec<u32>, u32),
}

/// What a search's containers are created with (see [`GridSearch::new`]):
/// boxes per block heap, buffered pseudo blocks, and evaluated tuples
/// awaiting certification (also the tid list of one block). A top-10 over
/// a 7×7×7 partition peaks at 42 frontier and 8 unexplored boxes, 3
/// buffered cells and 30 candidates (28 / 8 / 3 / 59 before deferred
/// blocks went back into the frontier and fewer blocks were evaluated).
const SEARCH_HEAP_CAP: usize = 64;
const PID_BUFFER_CAP: usize = 14;
const CANDIDATES_CAP: usize = 64;

impl<'a> GridSearch<'a> {
    fn new(
        cube: &'a GridRankingCube,
        disk: &'a DiskSim,
        plan: &QueryPlan<'a>,
        cover: &[usize],
    ) -> Self {
        let covering = cover
            .iter()
            .map(|&i| {
                let cuboid = &cube.cuboids[i];
                let vals = cuboid.dims.iter().map(|&d| {
                    plan.selection.value_on(d).expect("covering cuboid dim not in query")
                });
                Cover { cuboid, key: (vals.collect(), 0) }
            })
            .collect();
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
        let num_blocks = cube.partition.num_blocks();
        // The heaps and buffers start at the size a common query grows them
        // to, not empty. A heap that doubles its way up costs a `realloc`
        // per doubling, and the allocator serves a `realloc` from the arena
        // the block first came from, under that arena's lock — the main
        // thread's arena whenever a recycled block of its happens to be
        // the one handed out, which then serializes every query thread on
        // one mutex (ten times a query, measured). Allocating once and
        // freeing once stays in the thread's own cache either way.
        let mut search = Self {
            cube,
            disk,
            func: plan.func,
            covering,
            h: BinaryHeap::with_capacity(SEARCH_HEAP_CAP),
            unexplored: BinaryHeap::with_capacity(SEARCH_HEAP_CAP),
            inserted: vec![0; num_blocks.div_ceil(64)],
            deferred: vec![0; num_blocks.div_ceil(64)],
            pid_buffer: HashMap::with_capacity(PID_BUFFER_CAP),
            candidates: BinaryHeap::with_capacity(
                plan.k.clamp(CANDIDATES_CAP, 16 * CANDIDATES_CAP),
            ),
            region: Rect::unit(proj.len()),
            cut: vec![(0, 15); cube.ranking_dims.len()],
            tids: Vec::with_capacity(CANDIDATES_CAP),
            point: vec![0.0; proj.len()],
            proj,
            stats: QueryStats::default(),
            before: disk.stats().snapshot(),
        };
        // Everything is unexplored: one box from the first block to the
        // last, bounded from meta information only (bin boundaries), no
        // I/O. The first `advance` descends it to the block holding the
        // function's minimum.
        let (lo, hi) = (0, (num_blocks - 1) as Bid);
        let lb = search.bound(lo, hi);
        search.unexplored.push(HeapBox { lb, lo, hi });
        search
    }

    /// Lower bound of the ranking function over the box of blocks between
    /// corner blocks `lo` and `hi`; with `lo == hi`, a block's own bound.
    fn bound(&mut self, lo: Bid, hi: Bid) -> f64 {
        self.cube.partition.span_rect_into(lo, hi, &self.proj, &mut self.region);
        self.func.lower_bound(&self.region)
    }

    /// Capacities of the containers a query grows, for the test that pins
    /// them to what the search was opened with.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 5] {
        [
            self.h.capacity(),
            self.unexplored.capacity(),
            self.pid_buffer.capacity(),
            self.candidates.capacity(),
            self.tids.capacity(),
        ]
    }

    fn is_inserted(&self, bid: Bid) -> bool {
        has_bit(&self.inserted, bid)
    }

    /// Marks `bid` as having entered the frontier; false if it already had.
    fn insert(&mut self, bid: Bid) -> bool {
        set_bit(&mut self.inserted, bid)
    }

    /// Takes the unexplored heap's top apart until it is a single block
    /// that never entered the frontier, or bounds above `limit`, or nothing
    /// is left. A box is halved along the ranked dimension on which it
    /// spans most bins; the unranked ones cannot move the bound, so they
    /// are cut only once every ranked one is down to a single bin (the
    /// halves then inherit the bound).
    fn refine(&mut self, limit: f64) {
        let part = &self.cube.partition;
        while let Some(&HeapBox { lb, lo, hi }) = self.unexplored.peek() {
            if lb > limit || (lo == hi && !self.is_inserted(lo)) {
                return;
            }
            self.unexplored.pop();
            if lo == hi {
                continue; // the neighbourhood got to this block first
            }
            // Bins the box spans beyond the first, per dimension index.
            let extra_on = |i: usize| part.coord(hi, i) - part.coord(lo, i);
            let ranked =
                self.proj.iter().copied().max_by_key(|&i| extra_on(i)).filter(|&i| extra_on(i) > 0);
            let dim = ranked
                .or_else(|| (0..part.dims().len()).find(|&i| extra_on(i) > 0))
                .expect("a box of several blocks spans several bins somewhere");
            // The lower half keeps ⌈bins / 2⌉ of them.
            let (extra, stride) = (extra_on(dim) as Bid, part.stride(dim) as Bid);
            let keep = extra / 2 + 1;
            for (lo, hi) in [(lo, hi - (extra + 1 - keep) * stride), (lo + keep * stride, hi)] {
                let lb = if ranked.is_some() { self.bound(lo, hi) } else { lb };
                self.unexplored.push(HeapBox { lb, lo, hi });
            }
        }
    }

    /// Retrieve pass 1 for `bid`: buffers each covering cuboid's cell for
    /// the block's pseudo block, finds the block's entry in it and
    /// intersects the entries' boxes. `None` when no tuple of the block can
    /// qualify — a cell or an entry is absent, or the boxes miss each
    /// other — else the function's lower bound over the intersection,
    /// projected on the query's dimensions (−∞ with no selection, which
    /// has no cells to read). It stops before the next cell
    /// fetch once a cuboid proves the block empty, the I/O economy of the
    /// original per-cuboid loop.
    fn screen(&mut self, bid: Bid) -> Result<Option<f64>, StorageError> {
        if self.covering.is_empty() {
            return Ok(Some(f64::NEG_INFINITY)); // no entries, no box
        }
        let part = &self.cube.partition;
        self.cut.fill((0, 15));
        for (ci, cover) in self.covering.iter_mut().enumerate() {
            let pid = part.pid_of(bid, cover.cuboid.sf);
            cover.key.1 = pid;
            let page = match self.pid_buffer.entry((ci, pid)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(match cover.cuboid.cells.get(&cover.key) {
                        Some(&cell) => {
                            self.stats.blocks_read += 1;
                            Some(self.cube.fetch_cell(self.disk, cell)?)
                        }
                        None => None,
                    })
                }
            };
            let Some(page) = page else { return Ok(None) };
            let Some(entry) = cell_entry(page.bytes(), bid, self.cube.ranking_dims.len())? else {
                return Ok(None);
            };
            for (cut, &b) in self.cut.iter_mut().zip(entry.sixteenths) {
                *cut = (cut.0.max(b & 0xF), cut.1.min(b >> 4));
            }
        }
        if self.cut.iter().any(|&(first, last)| first > last) {
            return Ok(None);
        }
        for (d, &i) in self.proj.iter().enumerate() {
            let ((lo, hi), (first, last)) = (bin_edges(part, bid, i), self.cut[i]);
            self.region.set(d, sixteenth_edge(lo, hi, first), sixteenth_edge(lo, hi, last + 1));
        }
        Ok(Some(self.func.lower_bound(&self.region)))
    }

    /// Retrieves and evaluates one block whose cells [`Self::screen`] has
    /// buffered.
    fn read_block(&mut self, bid: Bid) -> Result<(), StorageError> {
        if self.covering.is_empty() {
            // No selection: the whole base block qualifies.
            return self.evaluate_block(bid, None);
        }
        let mut tids = std::mem::take(&mut self.tids);
        tids.clear();
        let done = self
            .retrieve_block_tids(bid, &mut tids)
            .and_then(|()| self.evaluate_block(bid, Some(&tids)));
        self.tids = tids;
        done
    }

    /// Retrieve pass 2: the tid list for `bid` under the query's selection,
    /// intersected across covering cuboids, appended to `tids`.
    ///
    /// Each covering cuboid contributes a streaming cursor parsed in place
    /// over its buffered cell; the cursors are leapfrogged by the k-way
    /// intersector (smallest estimated cardinality first). Nothing is
    /// decoded or hashed. A cursor that meets bytes it cannot decode ends
    /// early: its error, read after the drain, keeps a malformed list from
    /// passing for a short one.
    fn retrieve_block_tids(&mut self, bid: Bid, tids: &mut Vec<Tid>) -> Result<(), StorageError> {
        let (cube, pid_buffer) = (self.cube, &self.pid_buffer);
        // A cell or entry pass 1 did not find holds no tuple: `None`.
        let mut cursors = self.covering.iter().enumerate().map(|(ci, cover)| {
            let pid = cube.partition.pid_of(bid, cover.cuboid.sf);
            let Some(Some(page)) = pid_buffer.get(&(ci, pid)) else { return Ok(None) };
            let entry = cell_entry(page.bytes(), bid, cube.ranking_dims.len())?;
            entry.map(|entry| entry.cursor()).transpose()
        });
        let error = if self.covering.len() == 1 {
            let Some(mut list) = cursors.next().transpose()?.flatten() else { return Ok(()) };
            tids.extend(list.by_ref());
            list.error()
        } else {
            let Some(all) = cursors.collect::<Result<Option<Vec<_>>, _>>()? else { return Ok(()) };
            let mut common = KWayIntersect::from_cursors(all);
            tids.extend(common.by_ref());
            common.error()
        };
        error.map_or(Ok(()), |e| Err(e.into()))
    }

    /// The evaluate step: fetch real values from the base block table and
    /// push scored tuples into the candidate heap — every tuple of the
    /// block, or the `wanted` ones. Record `i` of a base block belongs to
    /// `block_tids(bid)[i]` (module docs, *Cells on disk*), so a wanted
    /// tid's record is at its index in that slice; wanted tids ascend, so
    /// each search resumes past the last hit, and tuples are scored in
    /// ascending tid order either way.
    fn evaluate_block(&mut self, bid: Bid, wanted: Option<&[Tid]>) -> Result<(), StorageError> {
        if wanted.is_some_and(<[Tid]>::is_empty) {
            return Ok(());
        }
        let Some(page) = self.cube.base_pages[bid as usize] else {
            return Ok(());
        };
        let bytes = self.cube.store.try_get_bytes(self.disk, page)?;
        self.stats.blocks_read += 1;
        let (all, rec) = (self.cube.partition.block_tids(bid), 8 * self.cube.ranking_dims.len());
        if bytes.len() != all.len() * rec {
            return Err(BASE_SIZE);
        }
        let mut records = bytes.chunks_exact(rec);
        let Some(wanted) = wanted else {
            return all.iter().zip(records).try_for_each(|(&tid, record)| self.score(tid, record));
        };
        // `records` starts at index `next` of `all`.
        let mut next = 0;
        for &tid in wanted {
            let at = next + all[next..].partition_point(|&t| t < tid);
            if all.get(at) != Some(&tid) {
                continue;
            }
            let Some(record) = records.nth(at - next) else { break };
            next = at + 1;
            self.score(tid, record)?;
        }
        Ok(())
    }

    /// Scores tuple `tid` from its base block record.
    fn score(&mut self, tid: Tid, record: &[u8]) -> Result<(), StorageError> {
        for (v, &p) in self.point.iter_mut().zip(&self.proj) {
            *v = word(record, 8 * p).map(f64::from_le_bytes).ok_or(BASE_SIZE)?;
        }
        self.candidates.push(MinScored(self.func.score(&self.point), tid));
        self.stats.tuples_scored += 1;
        Ok(())
    }
}

/// A base block whose length is not its partition block's tuples times
/// one record.
const BASE_SIZE: StorageError =
    StorageError::Malformed("base block size disagrees with its partition");

/// Whether `bid`'s bit is set in a bit-per-block set.
fn has_bit(set: &[u64], bid: Bid) -> bool {
    set[bid as usize / 64] >> (bid % 64) & 1 == 1
}

/// Sets `bid`'s bit; false if it already was.
fn set_bit(set: &mut [u64], bid: Bid) -> bool {
    let fresh = !has_bit(set, bid);
    set[bid as usize / 64] |= 1 << (bid % 64);
    fresh
}

impl ProgressiveSearch for GridSearch<'_> {
    fn advance(&mut self) -> Result<Option<(rcube_table::Tid, f64)>, StorageError> {
        loop {
            let frontier = self.h.peek().map(|b| b.lb);
            let best = self.candidates.peek().map(|c| c.0);
            // The unexplored heap matters only where it could undercut the
            // best candidate or the best frontier block; past the smaller
            // of the two, a box's bound says all there is to say.
            let limit = best.into_iter().chain(frontier).fold(f64::INFINITY, f64::min);
            self.refine(limit);
            let unexplored = self.unexplored.peek().map(|b| b.lb);
            // Certify: the cheapest evaluated tuple is an answer once every
            // block not yet retrieved — frontier or unexplored — is
            // strictly worse (S < S_unseen). A block whose bound *ties* may
            // hold an equal-score tuple with a smaller tid, and answers are
            // ascending `(score, tid)`.
            if best.is_some_and(|c| [frontier, unexplored].into_iter().flatten().all(|b| c < b)) {
                return Ok(self.candidates.pop().map(|MinScored(score, tid)| (tid, score)));
            }
            match (frontier, unexplored) {
                // An unexplored block strictly beats the frontier (or the
                // frontier is empty): it is the seed, or the best block of
                // a basin the neighbourhood has not reached. `refine` left
                // it on top as a single block: its bound is within `limit`.
                (f, Some(u)) if f.is_none_or(|f| u < f) => {
                    let seed = self.unexplored.pop().expect("peeked");
                    debug_assert!(seed.lo == seed.hi && u <= limit);
                    self.insert(seed.lo);
                    self.h.push(seed);
                    continue;
                }
                // Nothing left to retrieve, and no candidate or it would
                // have been certified.
                (None, _) => return Ok(None),
                _ => {}
            }
            // Advance the frontier by exactly one block. On its first pop:
            // expand its neighbours (Lemma 1) and bound it by its entries'
            // box, deferring it if that bound is the higher. Then — now or
            // when it surfaces again — retrieve its tid list and evaluate.
            let HeapBox { lb, lo: bid, .. } = self.h.pop().expect("frontier checked non-empty");
            if has_bit(&self.deferred, bid) {
                self.read_block(bid)?;
                continue;
            }
            self.stats.states_generated += 1;
            for nb in self.cube.partition.neighbors(bid) {
                if self.insert(nb) {
                    let lb = self.bound(nb, nb);
                    self.h.push(HeapBox { lb, lo: nb, hi: nb });
                }
            }
            match self.screen(bid)? {
                Some(refined) if refined > lb => {
                    set_bit(&mut self.deferred, bid);
                    self.h.push(HeapBox { lb: refined, lo: bid, hi: bid });
                }
                Some(_) => self.read_block(bid)?,
                None => {}
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

/// Min-heap entry of both block heaps: the box of blocks between corner
/// blocks `lo` and `hi` (one block when they coincide, as in the frontier),
/// ordered by `(lower bound, lo)` — `lo` is the lowest bid in the box.
#[derive(Debug, PartialEq)]
struct HeapBox {
    lb: f64,
    lo: Bid,
    hi: Bid,
}

impl Eq for HeapBox {}

impl Ord for HeapBox {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum bound.
        other.lb.total_cmp(&self.lb).then(other.lo.cmp(&self.lo))
    }
}

impl PartialOrd for HeapBox {
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
    use crate::query::Query;
    use rcube_func::{Expr, GeneralSq, L1Dist, Linear, SqDist};
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
            let q = Query::select(spec.selection.conds().to_vec())
                .rank_on(spec.ranking_dims.clone(), f)
                .top(spec.k);
            let got = cube.source(&disk).query(&q.plan()).unwrap();
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
        let q = Query::select([(0, 1)]).rank(f).top(5);
        let got = cube.source(&disk).query(&q.plan()).unwrap();
        let want = naive_topk(&rel, q.selection(), &SqDist::new(vec![0.3, 0.7]), &[0, 1], 5);
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
        let q = Query::select([(1, 0)]).rank(f).top(8);
        let got = cube.source(&disk).query(&q.plan()).unwrap();
        let want = naive_topk(&rel, q.selection(), &Linear::new(vec![1.0, -2.0]), &[0, 1], 8);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_selection_ranks_everything() {
        let rel = SyntheticSpec { tuples: 500, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        let q = Query::all().rank(Linear::uniform(2)).top(3);
        let got = cube.source(&disk).query(&q.plan()).unwrap();
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
        let q = Query::select([(0, 0), (1, 1), (2, 2)]).rank(Linear::uniform(2)).top(10);
        let got = cube.source(&disk).query(&q.plan()).unwrap();
        let matching = rel.tids().filter(|&t| q.selection().matches(&rel, t)).count();
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

    /// The cover resolution this crate shipped before it worked on
    /// bitmasks, kept verbatim as the reference: hash sets of dimensions
    /// over the materialized sets in `BTreeMap` (ascending) order.
    fn covering_by_hash_sets(
        cuboids: &[Vec<usize>],
        selection: &Selection,
    ) -> Option<Vec<Vec<usize>>> {
        use std::collections::HashSet;
        let q: HashSet<usize> = selection.dims().into_iter().collect();
        if q.is_empty() {
            return Some(Vec::new());
        }
        let candidates: Vec<&Vec<usize>> =
            cuboids.iter().filter(|dims| dims.iter().all(|d| q.contains(d))).collect();
        let maximal: Vec<&Vec<usize>> = candidates
            .iter()
            .filter(|&&c| {
                !candidates
                    .iter()
                    .any(|&other| other.len() > c.len() && c.iter().all(|d| other.contains(d)))
            })
            .copied()
            .collect();
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

    #[test]
    fn covering_on_masks_matches_the_hash_set_resolution() {
        let rel =
            SyntheticSpec { tuples: 120, selection_dims: 6, cardinality: 2, ..Default::default() }
                .generate();
        let disk = DiskSim::with_defaults();
        let specs = [
            CuboidSpec::AllSubsets,
            CuboidSpec::Fragments(2),
            CuboidSpec::Fragments(3),
            // Covers no query that touches dimension 5, and offers ties:
            // {0,1} and {1,2} gain equally on a query over {0,1,2}.
            CuboidSpec::Explicit(vec![vec![0, 1], vec![1, 2], vec![2, 3, 4], vec![3], vec![0, 4]]),
        ];
        for spec in specs {
            let cfg =
                GridCubeConfig { block_size: 40, cuboids: spec.clone(), ..Default::default() };
            let cube = GridRankingCube::build(&rel, &disk, cfg);
            let mut cuboids = cube.cuboid_dims();
            cuboids.sort();
            let (mut covered, mut uncovered) = (0, 0);
            for dims in std::iter::once(Vec::new()).chain(all_subsets(&[0, 1, 2, 3, 4, 5])) {
                let sel = Selection::new(dims.iter().map(|&d| (d, 1)).collect());
                let want = covering_by_hash_sets(&cuboids, &sel);
                assert_eq!(cube.covering_cuboids(&sel), want, "{spec:?} on {dims:?}");
                assert_eq!(cube.can_answer(&sel, &[0, 1]), want.is_some(), "{spec:?} on {dims:?}");
                if want.is_some() {
                    covered += 1;
                } else {
                    uncovered += 1;
                }
            }
            let explicit = matches!(spec, CuboidSpec::Explicit(_));
            assert_eq!(uncovered > 0, explicit, "{spec:?}: {covered} covered, {uncovered} not");
        }
        // A dimension no mask can hold is simply not covered.
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        let far = Selection::new(vec![(0, 1), (64, 0)]);
        assert_eq!(cube.covering_cuboids(&far), None);
        assert!(!cube.can_answer(&far, &[0]));
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
        let q = Query::select([(1, 2), (3, 4)]).rank(Linear::uniform(2)).top(10);
        let got = cube.source(&disk).query(&q.plan()).unwrap();
        let want = naive_topk(&rel, q.selection(), &Linear::uniform(2), &[0, 1], 10);
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
            let q = Query::select(spec.selection.conds().to_vec())
                .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
                .top(spec.k);
            let mem = cube.source(&disk).query(&q.plan()).unwrap();
            let file = reopened.source(&disk2).query(&q.plan()).unwrap();
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
        let q = Query::all().rank(Linear::uniform(2)).top(5);
        let mem = cube.source(&disk).query(&q.plan()).unwrap();
        let file = reopened.source(&DiskSim::with_defaults()).query(&q.plan()).unwrap();
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

    /// A file whose catalog carries the retired `tag`, then `rest`, fails
    /// to open with the typed kind mismatch.
    fn assert_retired_tag(tag: u8, rest: &[u64]) {
        let path = temp_cube_path(&format!("tag{tag}"));
        let file = PageStore::create_file(&path, 1024, 8).expect("create");
        let mut w = ByteWriter::new();
        w.put_u8(tag);
        for &word in rest {
            w.put_u64(word);
        }
        finish_catalog(&file, w).expect("catalog");
        drop(file);
        match GridRankingCube::open_from(&path) {
            Err(StorageError::Malformed(why)) => assert!(why.contains("catalog kind"), "{why}"),
            other => panic!("tag {tag}: expected a typed kind mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_fragments_catalog_tag_is_a_typed_kind_mismatch() {
        // Tag 2 headed a fragments catalog; no reader is left for it. What
        // followed the tag: fragment size, selection dimensions, then a
        // grid payload.
        assert_retired_tag(2, &[2, 4]);
    }

    #[test]
    fn retired_one_object_per_cell_catalog_tag_is_a_typed_kind_mismatch() {
        // Tag 1 named one object per cell, with a value count per cell; a
        // valid-looking head (block size, one ranking dimension) must not
        // lure the grid parser into it.
        assert_retired_tag(1, &[300, 1, 0]);
    }

    #[test]
    fn retired_fixed_entry_catalog_tag_is_a_typed_kind_mismatch() {
        // Tag 5 named packed cells whose directory entries were a fixed
        // `[bid u32][base u32][end u32]` with no box. Its catalog reads
        // exactly like today's, so only the tag tells the cells apart.
        assert_retired_tag(5, &[300, 1, 0]);
    }

    #[test]
    fn retired_tid_column_catalog_tag_is_a_typed_kind_mismatch() {
        // Tag 6 named base blocks of `[tid u32][f64 × R]` records. Its
        // catalog reads exactly like tag 7's, so only the tag tells the
        // blocks apart.
        assert_retired_tag(6, &[300, 1, 0]);
    }

    #[test]
    fn query_charges_io() {
        let rel = SyntheticSpec { tuples: 5_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        disk.clear_buffer();
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(10);
        let res = cube.source(&disk).query(&q.plan()).unwrap();
        assert!(res.stats.io.logical_reads > 0, "query must touch the store");
        assert!(res.stats.blocks_read > 0);
    }

    // ---- The unexplored heap against the scan it replaced ----

    /// The reference: bound every block that never entered the frontier,
    /// each through a freshly projected rect, and take the first minimum —
    /// what seeding and re-seeding did before the descent.
    fn best_uninserted(search: &GridSearch<'_>) -> Option<(f64, Bid)> {
        (0..search.cube.partition.num_blocks() as Bid)
            .filter(|&b| !search.is_inserted(b))
            .map(|b| (scanned_bound(search, b), b))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    fn scanned_bound(search: &GridSearch<'_>, bid: Bid) -> f64 {
        search.func.lower_bound(&search.cube.partition.block_rect(bid).project(&search.proj))
    }

    /// The block the descent yields next, asked for as `advance` asks.
    fn next_unexplored(search: &mut GridSearch<'_>) -> Option<(f64, Bid)> {
        search.refine(f64::INFINITY);
        search.unexplored.peek().map(|b| {
            assert_eq!(b.lo, b.hi, "refine leaves a single block on top");
            (b.lb, b.lo)
        })
    }

    fn bits(block: Option<(f64, Bid)>) -> Option<(u64, Bid)> {
        block.map(|(lb, bid)| (lb.to_bits(), bid))
    }

    /// `min` of two bowls, the second raised by `off`: a legal ranking
    /// function whose second basin no neighbourhood of the first reaches.
    /// In two dimensions, `min((x−.1)²+(y−.15)², (x−.9)²+(y−.85)²+off)`.
    fn two_bowls(n: usize, off: f64) -> Expr {
        let bowl = |at: &dyn Fn(f64) -> f64| {
            (0..n)
                .map(|i| Expr::var(i).sub(Expr::constant(at(i as f64))).square())
                .reduce(Expr::add)
                .unwrap()
        };
        bowl(&|i| 0.1 + 0.05 * i).min(bowl(&|i| 0.9 - 0.05 * i).add(Expr::constant(off)))
    }

    /// One function of every family, of arity `n`.
    fn families(n: usize) -> Vec<(&'static str, Box<dyn RankFn>)> {
        let mixed = (0..n).map(|i| if i % 2 == 0 { 1.0 + i as f64 } else { -0.5 * i as f64 });
        let spread = |from: f64, step: f64| (0..n).map(|i| from + step * i as f64).collect();
        vec![
            ("linear, mixed signs", Box::new(Linear::new(mixed.collect()))),
            ("sqdist", Box::new(SqDist::new(spread(0.3, 0.2)))),
            ("l1dist", Box::new(L1Dist::new(spread(0.8, -0.25)))),
            ("generalsq", Box::new(GeneralSq::new(vec![(0, 1.0)], vec![(n - 1, 1.0)]))),
            ("two bowls", Box::new(two_bowls(n, 0.002))),
        ]
    }

    /// On partitions of one to four dimensions ranked on every non-empty
    /// subset, for every family: with nothing inserted the descent yields
    /// all blocks in ascending `(bound bits, bid)`; and with blocks
    /// inserted behind its back, what it yields next is the scan's choice.
    #[test]
    fn descent_yields_blocks_in_the_order_of_the_scan() {
        let disk = DiskSim::with_defaults();
        let everything = Selection::all();
        for r in 1..=4usize {
            let rel = SyntheticSpec {
                tuples: 1_200,
                cardinality: 3,
                ranking_dims: r,
                ..Default::default()
            }
            .generate();
            let cube = GridRankingCube::build(
                &rel,
                &disk,
                GridCubeConfig {
                    block_size: 8,
                    cuboids: CuboidSpec::Explicit(Vec::new()),
                    ..Default::default()
                },
            );
            let blocks = cube.partition.num_blocks() as Bid;
            assert!(blocks >= 150, "{r} dims: {blocks} blocks");
            for dims in all_subsets(&(0..r).collect::<Vec<_>>()) {
                for (family, f) in families(dims.len()) {
                    let plan = QueryPlan {
                        selection: &everything,
                        func: &*f,
                        ranking_dims: &dims,
                        k: 1,
                        cuboids: None,
                    };
                    let what = format!("{family} on {dims:?} of {r}");

                    let mut search = GridSearch::new(&cube, &disk, &plan, &cube.plan_cover(&plan));
                    let mut want: Vec<(f64, Bid)> =
                        (0..blocks).map(|b| (scanned_bound(&search, b), b)).collect();
                    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    for &block in &want {
                        assert_eq!(bits(next_unexplored(&mut search)), bits(Some(block)), "{what}");
                        search.unexplored.pop();
                    }
                    assert_eq!(next_unexplored(&mut search), None, "{what}");

                    // Now with a moving inserted set: a few pseudo-random
                    // blocks enter the frontier before every step, as
                    // neighbours would, and the yielded block follows them.
                    let mut search = GridSearch::new(&cube, &disk, &plan, &cube.plan_cover(&plan));
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ blocks as u64;
                    loop {
                        for _ in 0..3 {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            search.insert((state >> 33) as Bid % blocks);
                        }
                        let next = next_unexplored(&mut search);
                        assert_eq!(bits(next), bits(best_uninserted(&search)), "{what}");
                        let Some((_, bid)) = next else { break };
                        search.unexplored.pop();
                        search.insert(bid);
                    }
                }
            }
        }
    }

    /// The scan's answer as the oracle compares it: `(tid, score bits)` in
    /// ascending `(score, tid)`.
    fn scan_topk(
        rel: &Relation,
        sel: &Selection,
        f: &dyn RankFn,
        dims: &[usize],
        k: usize,
    ) -> Vec<(Tid, u64)> {
        let mut all: Vec<(f64, Tid)> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| (f.score(&rel.ranking_point_proj(t, dims)), t))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.iter().take(k).map(|&(s, t)| (t, s.to_bits())).collect()
    }

    fn answer_bits(items: &[(Tid, f64)]) -> Vec<(Tid, u64)> {
        items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
    }

    /// What the search reads is pinned, family by family (summed over 12
    /// queries). The states are what the 343-block scan generated on this
    /// fixture, taken at the commit before the descent: the descent may
    /// change how a block is found, never which block is popped next. The
    /// two-bowl row is the one that had to move — 248 / 378 and 9 of 12
    /// answers wrong while the stop condition looked at the frontier alone.
    /// The blocks fell when entries gained boxes (before → after: 248 →
    /// 187, 232 → 172, 236 → 181, 283 → 225, 244 → 194, 255 → 209, 743 →
    /// 581, 312 → 252): the same blocks are popped, and the base blocks
    /// whose qualifying tuples' box cannot beat the k-th are not read.
    #[test]
    fn block_counts_on_the_census_fixture_are_the_scans() {
        let rel =
            SyntheticSpec { tuples: 6_000, cardinality: 4, ranking_dims: 3, ..Default::default() }
                .generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 30, ..Default::default() },
        );
        let selections: [&[(usize, u32)]; 4] =
            [&[], &[(0, 1)], &[(0, 2), (1, 3)], &[(0, 0), (1, 1), (2, 2)]];
        type Row = (&'static str, Vec<usize>, Box<dyn RankFn>, u64, u64);
        let census: Vec<Row> = vec![
            ("linear [1,3]", vec![0, 2], Box::new(Linear::new(vec![1.0, 3.0])), 187, 372),
            (
                "linear [1,.5,2]",
                vec![0, 1, 2],
                Box::new(Linear::new(vec![1.0, 0.5, 2.0])),
                172,
                360,
            ),
            ("linear [1,-2]", vec![0, 1], Box::new(Linear::new(vec![1.0, -2.0])), 181, 354),
            ("sqdist (.3,.7)", vec![0, 1], Box::new(SqDist::new(vec![0.3, 0.7])), 225, 390),
            (
                "sqdist (.5,.5,.2)",
                vec![0, 1, 2],
                Box::new(SqDist::new(vec![0.5, 0.5, 0.2])),
                194,
                378,
            ),
            ("l1dist (.8,.1)", vec![1, 2], Box::new(L1Dist::new(vec![0.8, 0.1])), 209, 390),
            ("generalsq (N0-N1^2)^2", vec![0, 1], Box::new(GeneralSq::fg()), 581, 936),
            ("two bowls, off .0005", vec![0, 1], Box::new(two_bowls(2, 0.0005)), 252, 444),
        ];
        for (family, dims, f, blocks_read, states_generated) in census {
            let (mut blocks, mut states) = (0, 0);
            for conds in selections {
                let sel = Selection::new(conds.to_vec());
                for k in [1, 10, 60] {
                    let plan = QueryPlan {
                        selection: &sel,
                        func: &*f,
                        ranking_dims: &dims,
                        k,
                        cuboids: None,
                    };
                    let got = cube.source(&disk).query(&plan).unwrap();
                    assert_eq!(
                        answer_bits(&got.items),
                        scan_topk(&rel, &sel, &*f, &dims, k),
                        "{family}, {conds:?}, k={k}"
                    );
                    blocks += got.stats.blocks_read;
                    states += got.stats.states_generated;
                }
            }
            assert_eq!((blocks, states), (blocks_read, states_generated), "{family}");
        }
    }

    /// A common query — a top-10 under two conditions on a 7×7×7 partition,
    /// some three qualifying tuples to a block: the benchmark's shape, scaled
    /// down — finishes inside the containers it was opened with. None of
    /// them reallocates on the way, which is what keeps concurrent queries
    /// off the allocator's arena locks (see [`GridSearch::new`]).
    #[test]
    fn a_common_query_never_outgrows_what_it_was_opened_with() {
        let rel = SyntheticSpec {
            tuples: 9_000,
            selection_dims: 4,
            cardinality: 3,
            ranking_dims: 3,
            ..Default::default()
        }
        .generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 27, ..Default::default() },
        );
        assert_eq!(cube.partition.num_blocks(), 343);
        for conds in [[(0, 0), (2, 1)], [(1, 2), (3, 0)], [(0, 1), (1, 1)]] {
            let sel = Selection::new(conds.to_vec());
            for weights in [[1.0, 3.0], [2.0, 0.5], [1.0, 1.0]] {
                let f = Linear::new(weights.to_vec());
                let plan = QueryPlan {
                    selection: &sel,
                    func: &f,
                    ranking_dims: &[0, 2],
                    k: 10,
                    cuboids: None,
                };
                let mut search = GridSearch::new(&cube, &disk, &plan, &cube.plan_cover(&plan));
                let opened = search.capacities();
                let answers = (0..10).map_while(|_| search.advance().unwrap()).count();
                assert_eq!(answers, 10);
                assert_eq!(search.capacities(), opened, "{conds:?}, {weights:?}");
            }
        }
    }

    /// The stop condition covers blocks the neighbourhood never reached:
    /// every two-bowl query answers what the scan answers (28 of these 48
    /// did not while answers were certified against the frontier alone),
    /// the answers come out of both basins, and a cursor extended after
    /// the search re-seeded resumes to what a fresh, larger query answers.
    #[test]
    fn a_second_basin_is_read_and_extend_k_resumes_past_the_re_seed() {
        let rel = SyntheticSpec { tuples: 4_000, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 40, ..Default::default() },
        );
        let dims = [0, 1];
        for off in [0.0, 0.0005, 0.002, 0.01] {
            let f = two_bowls(2, off);
            for v in 0..3 {
                let sel = Selection::new(vec![(0, v)]);
                let plan = |k| QueryPlan {
                    selection: &sel,
                    func: &f,
                    ranking_dims: &dims,
                    k,
                    cuboids: None,
                };
                for k in [1, 5, 20, 50] {
                    let got = cube.source(&disk).query(&plan(k)).unwrap();
                    let what = format!("off {off}, (0,{v}), k={k}");
                    assert_eq!(
                        answer_bits(&got.items),
                        scan_topk(&rel, &sel, &f, &dims, k),
                        "{what}"
                    );
                    let far = got.items.iter().filter(|&&(t, _)| rel.ranking_value(t, 0) > 0.5);
                    let both = (1..k).contains(&far.count());
                    assert!(both || k < 20 || off > 0.002, "{what}: one basin only");
                }
                let mut cursor = cube.source(&disk).open(&plan(5)).unwrap();
                let mut resumed = cursor.drain().items;
                cursor.extend_k(20);
                resumed.extend(cursor.drain().items);
                let fresh = cube.source(&disk).query(&plan(25)).unwrap();
                assert_eq!(answer_bits(&resumed), answer_bits(&fresh.items), "off {off}, (0,{v})");
                assert!(cursor.stats().blocks_read <= fresh.stats.blocks_read);
            }
        }
    }

    // ---- What a cell page stores, and what it does when it lies ----

    /// One directory entry taken apart: bid, base, encoded list (a
    /// singleton's as the one-tid list it stands for) and box bytes.
    type Listed = (Bid, Tid, Vec<u8>, Vec<u8>);

    /// A cell taken apart, `r` box bytes an entry, in directory order.
    fn cell_lists(cell: &[u8], r: usize) -> Vec<Listed> {
        let n = u32::from_le_bytes(cell[..4].try_into().unwrap()) as usize;
        let (wb, wt, we) =
            (usize::from(cell[4] & 0xF), usize::from(cell[4] >> 4), usize::from(cell[5]));
        let size = wb + wt + we + r;
        let bids = (0..n).map(|i| uint(&cell[CELL_HEAD + i * size..][..wb]));
        bids.map(|bid| {
            let entry = cell_entry(cell, bid, r).unwrap().expect("listed in the directory");
            (bid, entry.base, entry.list.to_vec(), entry.sixteenths.to_vec())
        })
        .collect()
    }

    /// The inverse of [`cell_lists`], for cells whose lists a test rewrote:
    /// every list is stored as given, a singleton's too.
    fn cell_page(lists: &[Listed]) -> Vec<u8> {
        let (mut entries, mut boxes, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        for (bid, base, list, cut) in lists {
            payload.extend_from_slice(list);
            entries.push((*bid, *base, payload.len() as u32));
            boxes.extend_from_slice(cut);
        }
        write_cell(&entries, &boxes, boxes.len() / lists.len().max(1), &payload)
    }

    /// Every stored entry of `cube`, decoded and held to the relation: its
    /// list is the tuples of its block that carry its cell's values, and
    /// its decoded box holds every one of them on every ranking dimension.
    /// Returns the longest list's length, every tag met and how many boxes
    /// are narrower than their bin somewhere.
    fn check_stored_lists(rel: &Relation, cube: &GridRankingCube) -> (usize, Vec<u8>, usize) {
        let (mut longest, mut tags, mut narrow) = (0, Vec::new(), 0);
        let r = cube.ranking_dims.len();
        for cuboid in &cube.cuboids {
            let dims = &cuboid.dims;
            for ((vals, _pid), &cell) in &cuboid.cells {
                let object = cube.store.peek(cell.object).unwrap();
                for (bid, base, list, cut) in cell_lists(cell.within(&object).unwrap(), r) {
                    let got: Vec<Tid> =
                        IdListRef::parse(&list).unwrap().cursor_with_base(base).collect();
                    let in_cell = |t: Tid| {
                        dims.iter().zip(vals).all(|(&d, &v)| rel.selection_value(t, d) == v)
                    };
                    let want: Vec<Tid> = cube
                        .partition
                        .block_tids(bid)
                        .iter()
                        .copied()
                        .filter(|&t| in_cell(t))
                        .collect();
                    let what = format!("cuboid {dims:?} cell {vals:?} block {bid}");
                    assert_eq!(got, want, "{what}");
                    for (i, &b) in cut.iter().enumerate() {
                        let (lo, hi) = bin_edges(&cube.partition, bid, i);
                        let (from, to) =
                            (sixteenth_edge(lo, hi, b & 0xF), sixteenth_edge(lo, hi, (b >> 4) + 1));
                        for &t in &got {
                            let v = rel.ranking_value(t, cube.ranking_dims[i]);
                            assert!(
                                from <= v && v <= to,
                                "{what}: tid {t} at {v:e} outside [{from:e}, {to:e}] on {i}"
                            );
                        }
                    }
                    longest = longest.max(got.len());
                    if !tags.contains(&list[0]) {
                        tags.push(list[0]);
                    }
                    narrow += usize::from(cut.iter().any(|&b| b != 0xF0));
                }
            }
        }
        (longest, tags, narrow)
    }

    /// The benchmark's shape scaled down (four cardinality-10 selection
    /// dimensions, three ranking dimensions, all 15 cuboids): a stored list
    /// is one cell ∩ one base block, so it is short — and a delta list.
    #[test]
    fn every_stored_list_is_a_short_delta_list() {
        let rel = SyntheticSpec {
            tuples: 12_000,
            selection_dims: 4,
            cardinality: 10,
            ranking_dims: 3,
            ..Default::default()
        }
        .generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
        assert_eq!(cube.cuboids.len(), 15);
        let (longest, tags, _) = check_stored_lists(&rel, &cube);
        assert!(longest <= cube.block_size(), "longest list {longest}");
        assert_eq!(tags, [idlist::TAG_DELTA]);
    }

    /// A cardinality-2 dimension is what puts half a block into one list:
    /// lists above 128 tids — the length at which a skip table used to be
    /// written in front — are stored, read back and leapfrogged as the same
    /// delta lists as every other.
    #[test]
    fn lists_longer_than_a_skip_block_round_trip_and_answer() {
        let rel = SyntheticSpec {
            tuples: 7_500,
            selection_dims: 3,
            cardinality: 2,
            ranking_dims: 3,
            ..Default::default()
        }
        .generate();
        let disk = DiskSim::with_defaults();
        let config = |cuboids| GridCubeConfig { block_size: 300, cuboids, ..Default::default() };
        let full = GridRankingCube::build(&rel, &disk, config(CuboidSpec::AllSubsets));
        let (longest, tags, _) = check_stored_lists(&rel, &full);
        assert!(longest > 128, "longest list {longest}");
        assert_eq!(tags, [idlist::TAG_DELTA]);
        // Atomic cuboids only: two conditions intersect two long lists.
        let atomic = GridRankingCube::build(&rel, &disk, config(CuboidSpec::Fragments(1)));
        let f = Linear::new(vec![1.0, 0.5, 2.0]);
        for conds in [vec![(0, 1)], vec![(0, 0), (2, 1)], vec![(0, 1), (1, 1), (2, 0)]] {
            let sel = Selection::new(conds.clone());
            let want = scan_topk(&rel, &sel, &f, &[0, 1, 2], 40);
            for cube in [&full, &atomic] {
                let q = Query::select(conds.clone()).rank(f.clone()).top(40);
                assert_eq!(
                    answer_bits(&cube.source(&disk).query(&q.plan()).unwrap().items),
                    want,
                    "{conds:?}"
                );
            }
        }
    }

    /// A cell page holding a list of the retired tag 2, or one cut inside
    /// a varint, is a malformed file: the query fails typed. It used to
    /// panic on the first and answer without the lost tids on the second.
    #[test]
    fn an_undecodable_list_fails_the_query_typed() {
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        // [5, 9] as tag 2 stored it: count, one block, its table entry, gaps.
        fn as_tag_2(_: &[u8]) -> Vec<u8> {
            vec![2, 2, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 5, 3]
        }
        // The last gap gains a continuation bit and loses its last byte.
        fn cut_varint(list: &[u8]) -> Vec<u8> {
            let mut list = list.to_vec();
            *list.last_mut().expect("a stored list holds a tid") |= 0x80;
            list
        }
        type Corrupt = fn(&[u8]) -> Vec<u8>;
        for (what, corrupt) in [("tag 2", as_tag_2 as Corrupt), ("cut varint", cut_varint)] {
            let cube = GridRankingCube::build(
                &rel,
                &disk,
                GridCubeConfig {
                    block_size: 40,
                    cuboids: CuboidSpec::Fragments(1),
                    ..Default::default()
                },
            );
            // One covering cuboid drains a cursor, two leapfrog.
            let queries = [vec![(0, 1)], vec![(0, 1), (1, 2)]];
            let intact: Vec<usize> = queries
                .iter()
                .map(|conds| {
                    let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(500);
                    cube.source(&disk).query(&q.plan()).expect("intact cube").items.len()
                })
                .collect();
            assert!(intact.iter().all(|&n| n > 100), "{intact:?}");
            for ((vals, _pid), &cell) in &cube.cuboids.iter().find(|c| c.dims == [0]).unwrap().cells
            {
                if vals[..] != [1] {
                    continue;
                }
                // One object per cell in memory: the object is the cell.
                let (page, bytes) = (cell.object, cube.store.peek(cell.object).unwrap());
                let lists: Vec<_> = cell_lists(&bytes, 2)
                    .into_iter()
                    .map(|(bid, base, list, cut)| (bid, base, corrupt(&list), cut))
                    .collect();
                cube.store.overwrite(&disk, page, cell_page(&lists)).unwrap();
            }
            for conds in queries {
                let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(500);
                let got = cube.source(&disk).query(&q.plan());
                // Persistent, so the engine's ladder takes the route out of
                // service and falls back instead of retrying.
                assert!(
                    matches!(&got, Err(e @ StorageError::Malformed(_)) if !e.is_transient()),
                    "{what}, {conds:?}: {got:?}"
                );
            }
        }
    }

    // ---- Segments: what a saved file packs, and what it charges ----

    /// Pads the cell at catalog position `at` of cuboid `ci` to exactly
    /// `len` bytes (a cell's lists end where its directory says; bytes past
    /// the last one are never read) and returns its key.
    fn pad_cell(
        cube: &mut GridRankingCube,
        disk: &DiskSim,
        ci: usize,
        at: usize,
        len: usize,
    ) -> (Vec<u32>, u32) {
        let cells = &mut cube.cuboids[ci].cells;
        let mut keys: Vec<_> = cells.keys().cloned().collect();
        keys.sort();
        let cell = cells.get_mut(&keys[at]).unwrap();
        let mut bytes = cube.store.peek(cell.object).unwrap().to_vec();
        assert!(bytes.len() <= len, "cell {at} is {} bytes already", bytes.len());
        bytes.resize(len, 0xA5);
        cube.store.overwrite(disk, cell.object, bytes).unwrap();
        cell.len = len as u32;
        keys[at].clone()
    }

    /// One query's answer as `(tid, score bits)`, blocks read and pages
    /// charged.
    type Run = (Vec<(Tid, u64)>, u64, u64);

    /// Each query's [`Run`], on a fresh device over a cold pool.
    fn cold_runs(cube: &GridRankingCube, queries: &[Query]) -> Vec<Run> {
        queries
            .iter()
            .map(|q| {
                cube.store.clear_cache();
                let got = cube.source(&DiskSim::with_defaults()).query(&q.plan()).unwrap();
                (answer_bits(&got.items), got.stats.blocks_read, got.stats.io.logical_reads)
            })
            .collect()
    }

    /// Pages one fetch of `cell` charges.
    fn fetch_pages(cube: &GridRankingCube, cell: CellRef) -> u64 {
        let disk = DiskSim::with_defaults();
        cube.fetch_cell(&disk, cell).unwrap();
        disk.stats().snapshot().logical_reads
    }

    /// A cell of exactly one page's room, one a byte over it and one of
    /// two and a half pages, each between small cells, at page sizes 512,
    /// 1024 and 4096. The packed file answers as the in-memory cube does,
    /// block for block, and charges every query and every cell fetch the
    /// pages a file of one object per cell charges — which is what it is
    /// smaller than.
    #[test]
    fn packed_cells_round_trip_and_charge_what_lone_cells_charge() {
        let rel = SyntheticSpec { tuples: 600, cardinality: 3, ..Default::default() }.generate();
        for page_size in [512, 1024, 4096] {
            let disk = DiskSim::with_defaults();
            let config = GridCubeConfig { block_size: 50, ..Default::default() };
            let mut cube = GridRankingCube::build(&rel, &disk, config);
            let ci = cube.cuboids.iter().position(|c| c.dims == [0, 1]).unwrap();
            assert!(cube.cuboids[ci].cells.len() >= 16, "{page_size}: too few cells to pad");
            let room = page_size - format::PAGE_HEADER - 4;
            let padded = [(4, room), (8, room + 1), (12, 2 * page_size + page_size / 2)]
                .map(|(at, len)| pad_cell(&mut cube, &disk, ci, at, len));

            let (packed_path, lone_path) = (
                temp_cube_path(&format!("packed{page_size}")),
                temp_cube_path(&format!("lone{page_size}")),
            );
            cube.save_to_with(&packed_path, page_size, 64).expect("save packed");
            let lone = PageStore::create_file(&lone_path, page_size, 64).expect("create");
            cube.save_into(&lone, 0).expect("save one object per cell");
            drop(lone);
            let packed = GridRankingCube::open_from_with(&packed_path, 64).expect("open packed");
            let lone = GridRankingCube::open_from_with(&lone_path, 64).expect("open lone");
            packed.verify_integrity().expect("packed file scrubs clean");

            // The layout: the exact fit alone in its segment, the two
            // larger cells objects of their own, their neighbours shared.
            let cells = &packed.cuboids[ci].cells;
            let mut keys: Vec<_> = cells.keys().collect();
            keys.sort();
            let sharing = |cell: CellRef| {
                packed
                    .cuboids
                    .iter()
                    .flat_map(|c| c.cells.values())
                    .filter(|o| o.object == cell.object)
                    .count()
            };
            for (key, want) in padded.iter().zip([room, room + 1, 2 * page_size + page_size / 2]) {
                let cell = cells[key];
                assert_eq!((cell.start, cell.len as usize), (0, want), "{page_size}: {key:?}");
                assert_eq!(
                    packed.store.peek(cell.object).unwrap().len(),
                    want,
                    "{page_size}: {key:?}"
                );
                assert_eq!(sharing(cell), 1, "{page_size}: {key:?} shares its object");
            }
            for at in [5, 9, 13] {
                let (a, b) = (cells[keys[at]], cells[keys[at + 1]]);
                assert_eq!(
                    a.object,
                    b.object,
                    "{page_size}: cells {at} and {} share a segment",
                    at + 1
                );
                assert_eq!(a.start + a.len, b.start, "{page_size}: side by side");
            }
            for cuboid in &packed.cuboids {
                for (key, &cell) in &cuboid.cells {
                    let alone =
                        lone.cuboids.iter().find(|c| c.dims == cuboid.dims).unwrap().cells[key];
                    assert_eq!(alone.start, 0);
                    assert_eq!(alone.len, cell.len, "{page_size}: {key:?}");
                    assert_eq!(
                        fetch_pages(&packed, cell),
                        fetch_pages(&lone, alone),
                        "{page_size}: {key:?}"
                    );
                }
            }

            // Every query over the padded cuboid, and some that intersect.
            let mut queries: Vec<Query> = Vec::new();
            for (v0, v1) in (0..3).flat_map(|a| (0..3).map(move |b| (a, b))) {
                queries.push(Query::select([(0, v0), (1, v1)]).rank(Linear::uniform(2)).top(15));
                queries.push(
                    Query::select([(0, v0), (1, v1), (2, 1)])
                        .rank(Linear::new(vec![1.0, 3.0]))
                        .top(5),
                );
            }
            let mem: Vec<_> =
                cold_runs(&cube, &queries).into_iter().map(|(a, b, _)| (a, b)).collect();
            let on_file = cold_runs(&packed, &queries);
            assert_eq!(
                on_file.iter().map(|(a, b, _)| (a.clone(), *b)).collect::<Vec<_>>(),
                mem,
                "{page_size}"
            );
            assert_eq!(
                on_file,
                cold_runs(&lone, &queries),
                "{page_size}: packed vs one object per cell"
            );

            let size = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
            assert!(size(&packed_path) < size(&lone_path), "{page_size}: packing saved nothing");
            // The reopened cube saves the file it was opened from.
            let again_path = temp_cube_path(&format!("again{page_size}"));
            packed.save_to_with(&again_path, page_size, 64).expect("save reopened");
            assert!(std::fs::read(&again_path).unwrap() == std::fs::read(&packed_path).unwrap());
            for path in [packed_path, lone_path, again_path] {
                std::fs::remove_file(path).ok();
            }
        }
    }

    /// A small saved cube: its path, its reopened store and its catalog
    /// body (what follows the kind tag).
    fn saved_catalog(tag: &str, page_size: usize) -> (std::path::PathBuf, PageStore, Vec<u8>) {
        let rel =
            SyntheticSpec { tuples: 120, selection_dims: 2, cardinality: 3, ..Default::default() }
                .generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 30, ..Default::default() },
        );
        let path = temp_cube_path(tag);
        cube.save_to_with(&path, page_size, 16).expect("save");
        let store = PageStore::open_file(&path, 16).expect("open");
        let body = read_catalog(&store, CATALOG_GRID).expect("catalog")[1..].to_vec();
        (path, store, body)
    }

    /// The grid catalog decodes any bytes to a cube or a typed error, never
    /// a panic: the saved catalog, each of its truncations (none of which
    /// is whole), every single-bit flip of it, and arbitrary bodies. A cube
    /// that does come back scrubs to `Ok` or a typed error as well.
    #[test]
    fn the_grid_catalog_decodes_any_bytes_to_a_cube_or_a_typed_error() {
        let (path, store, body) = saved_catalog("catalog_fuzz", 512);
        let decode = |bytes: &[u8]| {
            GridRankingCube::from_catalog(store.clone(), bytes).map(|cube| cube.verify_integrity())
        };
        assert!(matches!(decode(&body), Ok(Ok(()))), "the saved catalog decodes and scrubs");
        // A base-page table naming no object for a block that has tuples.
        let part = GridRankingCube::from_catalog(store.clone(), &body).unwrap().partition;
        let bytes = part.to_bytes();
        let table = body.windows(bytes.len()).position(|w| w == bytes).expect("the partition")
            + bytes.len()
            + 8;
        let bid = (0..part.num_blocks()).find(|&b| !part.block_tids(b as Bid).is_empty()).unwrap();
        let mut unstored = body.clone();
        unstored[table + 8 * bid..][..8].copy_from_slice(&u64::MAX.to_le_bytes());
        match decode(&unstored) {
            Err(StorageError::Malformed(why)) => assert!(why.contains("partition"), "{why}"),
            other => panic!("a non-empty block without a base block decoded: {other:?}"),
        }
        // A cube over no ranking dimension, whose records would be empty.
        let mut w = ByteWriter::new();
        w.put_u64(300);
        w.put_u64(0);
        w.put_bytes(
            &GridPartition::from_parts(vec![], 1, vec![], vec![vec![0]]).unwrap().to_bytes(),
        );
        for word in [1, 0, 0] {
            w.put_u64(word);
        }
        match decode(&w.into_bytes()) {
            Err(StorageError::Malformed(why)) => assert!(why.contains("no ranking"), "{why}"),
            other => panic!("a catalog over no ranking dimension decoded: {other:?}"),
        }
        for n in 0..body.len() {
            assert!(decode(&body[..n]).is_err(), "a {n}-byte prefix decoded");
        }
        let mut flipped = body.clone();
        for bit in 0..body.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in (0..4 * body.len()).step_by(13) {
            let arbitrary: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Mostly small words, so counts often pass their bounds.
                    if state.is_multiple_of(4) {
                        state as u8
                    } else {
                        (state % 3) as u8
                    }
                })
                .collect();
            let _ = decode(&arbitrary);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A cell reference the catalog points one byte past its object's end
    /// decodes — the catalog does not read objects — and then fails the
    /// first query that reads the cell, and the scrub, as a malformed file.
    #[test]
    fn a_cell_reference_past_its_object_fails_its_first_read_typed() {
        let (path, store, mut body) = saved_catalog("past_end", 1024);
        let cube = GridRankingCube::from_catalog(store.clone(), &body).unwrap();
        let (key, cell) = cube
            .cuboids
            .iter()
            .find(|c| c.dims == [0])
            .unwrap()
            .cells
            .iter()
            .find(|(k, _)| k.0 == [1])
            .unwrap();
        let object_len = store.peek(cell.object).unwrap().len() as u32;
        let entry =
            [&cell.object.0.to_le_bytes()[..], &cell.start.to_le_bytes(), &cell.len.to_le_bytes()]
                .concat();
        let at =
            body.windows(entry.len()).position(|w| w == entry).expect("the cell's catalog entry");
        body[at + 12..at + 16].copy_from_slice(&(object_len - cell.start + 1).to_le_bytes());

        let crafted =
            GridRankingCube::from_catalog(store, &body).expect("references are read lazily");
        let q = Query::select([(0, key.0[0])]).rank(Linear::uniform(2)).top(10);
        let got = crafted.source(&DiskSim::with_defaults()).query(&q.plan());
        assert!(
            matches!(&got, Err(e @ StorageError::Malformed(_)) if !e.is_transient()),
            "{got:?}"
        );
        assert!(matches!(crafted.verify_integrity(), Err(StorageError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A base block whose object is not its partition block's tuples times
    /// one record — here another block's object, of another length — fails
    /// every query that reads it, whole or under a selection, and the
    /// scrub, as a malformed file; never as a panic or a wrong answer.
    #[test]
    fn a_base_block_that_disagrees_with_its_partition_is_a_typed_error() {
        let rel = SyntheticSpec { tuples: 1_000, cardinality: 2, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let config = GridCubeConfig { block_size: 50, ..Default::default() };
        let mut cube = GridRankingCube::build(&rel, &disk, config);
        cube.verify_integrity().expect("a built cube scrubs clean");
        let sizes: Vec<usize> = (0..cube.partition.num_blocks())
            .map(|bid| cube.partition.block_tids(bid as Bid).len())
            .collect();
        let (a, b) = (0..sizes.len())
            .flat_map(|a| (0..sizes.len()).map(move |b| (a, b)))
            .find(|&(a, b)| sizes[a] > 0 && sizes[b] > 0 && sizes[a] != sizes[b])
            .expect("two blocks of different sizes");
        cube.base_pages[b] = cube.base_pages[a];

        let size_error = |got: &Result<(), StorageError>| match got {
            Err(StorageError::Malformed(why)) => why.contains("base block size"),
            _ => false,
        };
        for q in [
            Query::all().rank(Linear::uniform(2)).top(rel.len()),
            Query::select([(0, 1)]).rank(Linear::uniform(2)).top(rel.len()),
        ] {
            let got = cube.source(&disk).query(&q.plan()).map(|_| ());
            assert!(size_error(&got), "{got:?}");
        }
        assert!(size_error(&cube.verify_integrity()));
    }

    // ---- Entry boxes: rounded outward, or a wrong answer ----

    /// 4 096 tuples whose ranking values sit on the sixteenths of the four
    /// bins per dimension that `edges` cut out, on the bin edges among
    /// them, and a float beside some of them; the last tuple sits on the
    /// top edge. A selection value is the third of its bin a tuple's
    /// sixteenth lies in, so most entries' boxes are narrower than their
    /// bin and many of their tuples lie on a box edge. Each value occurs 64 times per dimension, so the
    /// equi-depth edges of a 256-tuple block size are exactly `edges`: the
    /// first bin opens at `min(0, ·)` and the last closes at `max(1, ·)` of
    /// the data, which `edges` holds.
    fn on_the_edges(edges: [f64; 5]) -> Relation {
        let at = |x: usize| sixteenth_edge(edges[x / 16], edges[x / 16 + 1], (x % 16) as u8);
        let mut b = rcube_table::RelationBuilder::new(rcube_table::Schema::synthetic(2, 3, 2));
        for t in 0..4096usize {
            let (x, y) = (t % 64, t / 64);
            let mut point = [at(x), at(y)];
            // Beside the edge: above it anywhere, below it only where no
            // bin edge is (a value below a bin edge would move the
            // quantile that put it there).
            match t % 15 {
                3 => point[0] = point[0].next_up(),
                5 if x % 16 != 0 => point[0] = point[0].next_down(),
                7 => point[1] = point[1].next_up(),
                11 if y % 16 != 0 => point[1] = point[1].next_down(),
                _ => {}
            }
            if t == 4095 {
                point = [edges[4]; 2];
            }
            b.push(&[(x % 16 / 6) as u32, (y % 16 / 6) as u32], &point);
        }
        b.finish()
    }

    /// Every decoded entry box holds every tuple of its entry, on tuples
    /// placed exactly on sixteenth edges, on bin edges and in the first and
    /// last bins, with the data inside `[0, 1]` and reaching past it; and
    /// the search answers over them as the scan does, in memory and
    /// reopened. A box rounded inward by one float step fails here.
    #[test]
    fn entry_boxes_hold_tuples_on_sixteenth_and_bin_edges() {
        let disk = DiskSim::with_defaults();
        for edges in [[0.0, 0.3, 0.55, 0.8, 1.0], [-0.25, 0.3, 0.55, 0.8, 1.25]] {
            let rel = on_the_edges(edges);
            let config = GridCubeConfig { block_size: 256, ..Default::default() };
            let cube = GridRankingCube::build(&rel, &disk, config);
            for i in 0..2 {
                assert_eq!(cube.partition.boundaries(i), edges, "{edges:?}: the bins moved");
            }
            let (_, _, narrow) = check_stored_lists(&rel, &cube);
            assert!(narrow >= 200, "{edges:?}: only {narrow} boxes narrower than their bin");

            let path = temp_cube_path("edges");
            cube.save_to(&path).expect("save");
            let reopened = GridRankingCube::open_from(&path).expect("open");
            let families = families(2);
            for conds in [vec![(0, 1)], vec![(0, 2), (1, 0)]] {
                let sel = Selection::new(conds.clone());
                for (family, f) in &families {
                    let plan = QueryPlan {
                        selection: &sel,
                        func: &**f,
                        ranking_dims: &[0, 1],
                        k: 25,
                        cuboids: None,
                    };
                    let want = scan_topk(&rel, &sel, &**f, &[0, 1], 25);
                    for (what, cube) in [("memory", &cube), ("file", &reopened)] {
                        let got = cube.source(&disk).query(&plan).unwrap();
                        assert_eq!(
                            answer_bits(&got.items),
                            want,
                            "{edges:?} {conds:?} {family} {what}"
                        );
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// The sixteenth of a value holds it, and the edges are monotone, on
    /// every edge of a few awkward bins and on the floats beside each.
    #[test]
    fn a_value_lies_in_its_sixteenth() {
        let bins =
            [(0.0, 1.0), (0.3, 0.55), (-0.25, 0.3), (0.1, 0.1f64.next_up().next_up()), (0.8, 1.25)];
        for (lo, hi) in bins {
            for j in 0..=16u8 {
                let edge = sixteenth_edge(lo, hi, j);
                assert!(j == 0 || sixteenth_edge(lo, hi, j - 1) <= edge, "[{lo}, {hi}] edge {j}");
                for v in [edge.next_down(), edge, edge.next_up()] {
                    if !(lo..=hi).contains(&v) {
                        continue;
                    }
                    let q = sixteenth_of(lo, hi, v);
                    let (from, to) = (sixteenth_edge(lo, hi, q), sixteenth_edge(lo, hi, q + 1));
                    assert!(q < 16 && from <= v && v <= to, "[{lo}, {hi}]: {v:e} in {q}");
                }
            }
        }
    }

    /// [`cell_entry`] on a cell that breaks the layout around the entry it
    /// is asked for: a typed error for each way, never a panic or a
    /// silently short list.
    #[test]
    fn a_malformed_cell_directory_is_a_typed_error() {
        // Three entries over two ranking dimensions: a two-tid list, a
        // singleton, a three-tid list.
        let lists = [vec![0u8, 0, 3], vec![], vec![0, 0, 1, 1]];
        let (mut entries, mut payload) = (Vec::new(), Vec::new());
        for ((bid, base), list) in [(3, 40), (9, 77), (300, 70_000)].into_iter().zip(&lists) {
            payload.extend_from_slice(list);
            entries.push((bid, base, payload.len() as u32));
        }
        let boxes = [0x30, 0xF0, 0x55, 0x21, 0xE2, 0x77];
        let cell = write_cell(&entries, &boxes, 2, &payload);
        let tids = |cell: &[u8], bid| -> Result<Vec<Tid>, StorageError> {
            Ok(cell_entry(cell, bid, 2)?.map_or(Vec::new(), |e| e.cursor().unwrap().collect()))
        };
        assert_eq!(tids(&cell, 3).unwrap(), [40, 44]);
        assert_eq!(tids(&cell, 9).unwrap(), [77]);
        assert_eq!(tids(&cell, 300).unwrap(), [70_000, 70_002, 70_004]);
        assert_eq!(tids(&cell, 4).unwrap(), []);
        assert_eq!(cell_entry(&cell, 9, 2).unwrap().unwrap().sixteenths, [0x55, 0x21]);
        // Bid 2 bytes, base 3, end 1: 8 bytes an entry after a 6-byte head.
        assert_eq!(cell.len(), CELL_HEAD + 3 * 8 + payload.len());

        let malformed = |cell: &[u8], bid, why: &str| match cell_entry(cell, bid, 2) {
            Err(StorageError::Malformed(got)) => assert!(got.contains(why), "{why}: {got}"),
            Err(e) => panic!("{why}: {e:?}"),
            Ok(_) => panic!("{why}: decoded"),
        };
        malformed(&cell[..5], 3, "header");
        malformed(&cell[..CELL_HEAD + 3 * 8 - 1], 3, "runs past the cell");
        let mut entries_n = cell.clone();
        entries_n[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        malformed(&entries_n, 3, "runs past the cell");
        for (byte, value) in [(4, 0x05), (4, 0x50), (5, 0x0F), (5, 0x10)] {
            let mut wide = cell.clone();
            wide[byte] = value;
            malformed(&wide, 3, "width out of range");
        }
        let mut inverted = cell.clone();
        inverted[CELL_HEAD + 8 + 6] = 0x1F;
        malformed(&inverted, 9, "inverted");
        let descending = write_cell(&[(1, 5, 3), (2, 6, 1)], &[0xF0; 4], 2, &[0, 0, 1]);
        malformed(&descending, 2, "descend");
        let past = write_cell(&[(1, 5, 2), (2, 6, 9)], &[0xF0; 4], 2, &[0, 0, 1]);
        malformed(&past, 2, "past the cell");
    }

    /// Arbitrary, truncated and bit-flipped cell bytes under a query: each
    /// gives an answer or a typed error, never a panic — the cell decode's
    /// counterpart of the catalog's fuzz test above.
    #[test]
    fn any_cell_bytes_give_an_answer_or_a_typed_error() {
        let rel = SyntheticSpec { tuples: 1_500, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let config = GridCubeConfig {
            block_size: 40,
            cuboids: CuboidSpec::Fragments(1),
            ..Default::default()
        };
        let cube = GridRankingCube::build(&rel, &disk, config);
        let cell = |dim: usize| {
            let cuboid = cube.cuboids.iter().find(|c| c.dims == [dim]).unwrap();
            cuboid.cells.iter().find(|(key, _)| key.0 == [1]).map(|(_, &cell)| cell.object).unwrap()
        };
        // One covering cuboid, and two whose entries intersect.
        let queries = [
            Query::select([(0, 1)]).rank(Linear::new(vec![1.0, 2.0])).top(400),
            Query::select([(0, 1), (1, 1)]).rank(SqDist::new(vec![0.4, 0.6])).top(7),
        ];
        let run = || {
            for q in &queries {
                match cube.source(&disk).query(&q.plan()) {
                    Ok(_) | Err(StorageError::Malformed(_)) => {}
                    Err(e) => panic!("an untyped failure: {e:?}"),
                }
            }
        };
        for object in [cell(0), cell(1)] {
            let intact = cube.store.peek(object).unwrap().to_vec();
            let write = |bytes: Vec<u8>| cube.store.overwrite(&disk, object, bytes).unwrap();
            for n in 0..intact.len() {
                write(intact[..n].to_vec());
                run();
            }
            for bit in 0..intact.len() * 8 {
                let mut flipped = intact.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                write(flipped);
                run();
            }
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for len in (0..2 * intact.len()).step_by(7) {
                let mut arbitrary = intact.clone();
                arbitrary.resize(len, 0);
                for byte in arbitrary.iter_mut().skip(CELL_HEAD) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Mostly a valid header, then anything.
                    *byte = state as u8;
                }
                write(arbitrary);
                run();
            }
            write(intact);
        }
    }
}
