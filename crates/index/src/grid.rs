//! Equi-depth grid partition with pseudo blocks (Section 3.2).
//!
//! Each ranking dimension is cut into `b = (T/P)^(1/R)` equi-depth bins;
//! their cross product forms the *base blocks* (block dimension `B`). For a
//! cuboid with selection cardinalities `c1…cs`, base blocks are coarsened by
//! the *scale factor* `sf = ⌊(Π cj)^(1/s)⌋` into *pseudo blocks* so that one
//! cuboid cell again fills a physical page (Section 3.2.3, Example 4).
//!
//! Neighborhood search (Lemma 1) needs block adjacency and per-block
//! regions; both come from the bin boundaries kept as meta information.

use rcube_func::Rect;
use rcube_storage::{ByteReader, ByteWriter, StorageError};
use rcube_table::{Relation, Tid};

/// Block identifier within a [`GridPartition`] (row-major over bins).
pub type Bid = u32;

/// The equi-depth grid partition over a relation's ranking dimensions.
#[derive(Debug, Clone)]
pub struct GridPartition {
    /// Bin boundaries per dimension: `bins + 1` ascending edges covering
    /// `[0, 1]` (the meta information of Table 3.5).
    boundaries: Vec<Vec<f64>>,
    /// Bins per dimension (`b`).
    bins: usize,
    /// Row-major stride per dimension, `b^(R−1−i)`: every coordinate,
    /// neighbour and pseudo-block id below is arithmetic on these, so the
    /// query loop never materializes a coordinate vector.
    strides: Vec<usize>,
    /// Ranking dimensions covered, in relation order.
    dims: Vec<usize>,
    /// tid → bid.
    tuple_bid: Vec<Bid>,
    /// bid → tids (base block contents).
    blocks: Vec<Vec<Tid>>,
}

impl GridPartition {
    /// Partitions `rel`'s ranking dimensions `dims` (all when empty) into
    /// equi-depth blocks of expected size `block_size` (`P`).
    pub fn build(rel: &Relation, dims: &[usize], block_size: usize) -> Self {
        let dims: Vec<usize> =
            if dims.is_empty() { (0..rel.schema().num_ranking()).collect() } else { dims.to_vec() };
        let r = dims.len();
        let t = rel.len().max(1);
        let bins =
            ((t as f64 / block_size.max(1) as f64).powf(1.0 / r as f64).ceil() as usize).max(1);

        // Equi-depth boundaries: empirical quantiles per dimension.
        let mut boundaries = Vec::with_capacity(r);
        for &d in &dims {
            let mut col: Vec<f64> = rel.ranking_column(d).to_vec();
            col.sort_unstable_by(f64::total_cmp);
            let mut edges = Vec::with_capacity(bins + 1);
            edges.push(0.0_f64.min(*col.first().unwrap_or(&0.0)));
            for b in 1..bins {
                let idx = (b * col.len()) / bins;
                edges.push(col[idx.min(col.len() - 1)]);
            }
            edges.push(1.0_f64.max(*col.last().unwrap_or(&1.0)));
            // Enforce strict monotonicity where duplicates collapse bins.
            for i in 1..edges.len() {
                if edges[i] <= edges[i - 1] {
                    edges[i] = edges[i - 1] + f64::EPSILON * (i as f64 + 1.0);
                }
            }
            boundaries.push(edges);
        }

        let mut part = Self {
            boundaries,
            bins,
            strides: row_major_strides(bins, r),
            dims,
            tuple_bid: Vec::with_capacity(rel.len()),
            blocks: vec![Vec::new(); bins.pow(r as u32)],
        };
        for tid in rel.tids() {
            let p = rel.ranking_point_proj(tid, &part.dims);
            let bid = part.locate(&p);
            part.tuple_bid.push(bid);
            part.blocks[bid as usize].push(tid);
        }
        part
    }

    /// Bins per dimension (`b`).
    pub fn bins_per_dim(&self) -> usize {
        self.bins
    }

    /// Ranking dimensions covered.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of base blocks (`b^R`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Tuples partitioned, over all blocks.
    pub fn num_tuples(&self) -> usize {
        self.tuple_bid.len()
    }

    /// Bin boundaries for dimension index `i` (position within `dims`).
    pub fn boundaries(&self, i: usize) -> &[f64] {
        &self.boundaries[i]
    }

    /// The base block of tuple `tid`.
    pub fn bid_of(&self, tid: Tid) -> Bid {
        self.tuple_bid[tid as usize]
    }

    /// Tids inside base block `bid`.
    pub fn block_tids(&self, bid: Bid) -> &[Tid] {
        &self.blocks[bid as usize]
    }

    /// Base block containing `point` (projected coordinates).
    pub fn locate(&self, point: &[f64]) -> Bid {
        let mut bid = 0usize;
        for (i, &v) in point.iter().enumerate() {
            bid = bid * self.bins + self.bin_of(i, v);
        }
        bid as Bid
    }

    fn bin_of(&self, dim_i: usize, v: f64) -> usize {
        let edges = &self.boundaries[dim_i];
        // partition_point: first edge > v, minus one; clamp into range.
        let idx = edges.partition_point(|&e| e <= v);
        idx.saturating_sub(1).min(self.bins - 1)
    }

    /// Bin coordinate of `bid` along dimension index `i`.
    #[inline]
    pub fn coord(&self, bid: Bid, i: usize) -> usize {
        bid as usize / self.strides[i] % self.bins
    }

    /// Row-major stride of dimension index `i`: block ids that far apart
    /// differ by one bin along it.
    #[inline]
    pub fn stride(&self, i: usize) -> usize {
        self.strides[i]
    }

    /// Row-major coordinates of a block.
    pub fn bid_coords(&self, bid: Bid) -> Vec<usize> {
        (0..self.dims.len()).map(|i| self.coord(bid, i)).collect()
    }

    /// Block id from coordinates.
    pub fn coords_bid(&self, coords: &[usize]) -> Bid {
        coords.iter().zip(&self.strides).map(|(c, s)| c * s).sum::<usize>() as Bid
    }

    /// Geometric region of base block `bid` over the partition dimensions.
    pub fn block_rect(&self, bid: Bid) -> Rect {
        let edges = |side: usize| {
            (0..self.dims.len()).map(|i| self.boundaries[i][self.coord(bid, i) + side]).collect()
        };
        Rect::new(edges(0), edges(1))
    }

    /// Region of the box of blocks between corner blocks `lo` and `hi`
    /// (inclusive; `lo` no greater than `hi` on any coordinate), projected
    /// onto the dimension indices `proj`, written into a caller-owned rect
    /// of `proj.len()` dimensions. With `lo == hi` this is
    /// `block_rect(lo).project(proj)` to the bit, without the allocations.
    pub fn span_rect_into(&self, lo: Bid, hi: Bid, proj: &[usize], out: &mut Rect) {
        for (d, &i) in proj.iter().enumerate() {
            let edges = &self.boundaries[i];
            out.set(d, edges[self.coord(lo, i)], edges[self.coord(hi, i) + 1]);
        }
    }

    /// Axis-neighbours of `bid` (±1 per dimension) — the `neighbor(b, c)`
    /// relation of Lemma 1.
    pub fn neighbors(&self, bid: Bid) -> impl Iterator<Item = Bid> + '_ {
        (0..self.dims.len()).flat_map(move |i| {
            let (c, s) = (self.coord(bid, i), self.strides[i] as Bid);
            let below = (c > 0).then(|| bid - s);
            let above = (c + 1 < self.bins).then(|| bid + s);
            below.into_iter().chain(above)
        })
    }

    /// Scale factor for a cuboid over selection cardinalities `cards`
    /// (Section 3.2.3): `sf = ⌊(Π cj)^(1/s)⌋`, at least 1.
    pub fn scale_factor(cards: &[u32]) -> usize {
        if cards.is_empty() {
            return 1;
        }
        let prod: f64 = cards.iter().map(|&c| c as f64).product();
        // Nudge before flooring: powf(1/s) of an exact power must not land
        // a hair under the integer (e.g. 20^(1/1) = 19.999…).
        ((prod.powf(1.0 / cards.len() as f64) + 1e-9).floor() as usize).max(1)
    }

    /// Pseudo-block id of a base block under scale factor `sf` (merging
    /// every `sf` consecutive bins per dimension).
    pub fn pid_of(&self, bid: Bid, sf: usize) -> u32 {
        let pbins = self.bins.div_ceil(sf);
        (0..self.dims.len()).fold(0, |pid, i| pid * pbins + self.coord(bid, i) / sf) as u32
    }

    /// Number of pseudo blocks under scale factor `sf`.
    pub fn num_pseudo_blocks(&self, sf: usize) -> usize {
        self.bins.div_ceil(sf).pow(self.dims.len() as u32)
    }

    /// Reassembles a partition from serialized parts ([`Self::to_bytes`]'s
    /// counterpart building blocks). `tuple_bid` is rebuilt by inverting
    /// `blocks`, so the parts stay minimal; each block's tids must ascend,
    /// as a built partition's do.
    pub fn from_parts(
        boundaries: Vec<Vec<f64>>,
        bins: usize,
        dims: Vec<usize>,
        blocks: Vec<Vec<Tid>>,
    ) -> Result<Self, StorageError> {
        if boundaries.len() != dims.len() {
            return Err(StorageError::Malformed("grid boundaries/dims arity mismatch"));
        }
        if bins == 0 {
            return Err(StorageError::Malformed("grid partition has no bins"));
        }
        let expect_blocks = dims
            .len()
            .try_into()
            .ok()
            .and_then(|r| bins.checked_pow(r))
            .ok_or(StorageError::Malformed("grid bins^dims overflows"))?;
        if blocks.len() != expect_blocks {
            return Err(StorageError::Malformed("grid block count mismatch"));
        }
        if boundaries.iter().any(|e| e.len() != bins + 1) {
            return Err(StorageError::Malformed("grid boundary edge count mismatch"));
        }
        if blocks.iter().any(|tids| tids.windows(2).any(|w| w[0] >= w[1])) {
            return Err(StorageError::Malformed("grid block tids do not ascend"));
        }
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        let mut tuple_bid = vec![0 as Bid; total];
        for (bid, tids) in blocks.iter().enumerate() {
            for &tid in tids {
                let slot = tuple_bid
                    .get_mut(tid as usize)
                    .ok_or(StorageError::Malformed("grid block tid out of range"))?;
                *slot = bid as Bid;
            }
        }
        let strides = row_major_strides(bins, dims.len());
        Ok(Self { boundaries, bins, strides, dims, tuple_bid, blocks })
    }

    /// Serializes the partition's meta information + block table (cube
    /// persistence). The inverse is [`Self::from_bytes`]. A block's tids
    /// ascend, so its table is a varint count and varint gaps (the first
    /// from 0): a byte or two a tuple instead of four.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.bins as u64);
        w.put_u64(self.dims.len() as u64);
        for &d in &self.dims {
            w.put_u64(d as u64);
        }
        for edges in &self.boundaries {
            w.put_u64(edges.len() as u64);
            for &e in edges {
                w.put_f64(e);
            }
        }
        w.put_u64(self.blocks.len() as u64);
        for tids in &self.blocks {
            w.put_varint(tids.len() as u64);
            let mut prev = 0;
            for &t in tids {
                w.put_varint(u64::from(t - prev));
                prev = t;
            }
        }
        w.into_bytes()
    }

    /// Deserializes a partition written by [`Self::to_bytes`]; every read
    /// is bounds-checked so a garbled blob fails typed, not by panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        const LIMIT: usize = 1 << 30;
        let mut r = ByteReader::new(bytes);
        let bins = r.count(LIMIT)?;
        let ndims = r.count(64)?;
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            dims.push(r.count(LIMIT)?);
        }
        // Every count below is bounded by the bytes left to hold what it
        // counts, so a damaged one fails before it sizes an allocation.
        let mut boundaries = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let edges = r.count(r.remaining() / 8)?;
            let mut v = Vec::with_capacity(edges);
            for _ in 0..edges {
                v.push(r.f64()?);
            }
            boundaries.push(v);
        }
        let nblocks = r.count(r.remaining())?;
        let mut blocks = Vec::with_capacity(nblocks);
        let bad = || StorageError::Malformed("grid block tid list malformed");
        for _ in 0..nblocks {
            // A tid takes at least a byte.
            let n = usize::try_from(r.varint()?)
                .ok()
                .filter(|&n| n <= r.remaining())
                .ok_or_else(bad)?;
            let mut tids = Vec::with_capacity(n);
            let mut prev = 0u32;
            for _ in 0..n {
                let gap = u32::try_from(r.varint()?).map_err(|_| bad())?;
                prev = prev.checked_add(gap).ok_or_else(bad)?;
                tids.push(prev);
            }
            blocks.push(tids);
        }
        Self::from_parts(boundaries, bins, dims, blocks)
    }
}

/// `b^(R−1−i)` for `i` in `0..R`. The caller has already sized `b^R` blocks,
/// so nothing here can overflow.
fn row_major_strides(bins: usize, r: usize) -> Vec<usize> {
    (0..r).map(|i| bins.pow((r - 1 - i) as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::{RelationBuilder, Schema};

    fn thesis_example() -> Relation {
        // Table 3.1 extended with enough tuples to be partitionable.
        let schema = Schema::synthetic(2, 2, 2);
        let mut b = RelationBuilder::new(schema);
        b.push(&[0, 0], &[0.05, 0.05]);
        b.push(&[0, 1], &[0.65, 0.70]);
        b.push(&[0, 0], &[0.05, 0.25]);
        b.push(&[0, 0], &[0.35, 0.15]);
        b.finish()
    }

    #[test]
    fn every_tuple_lands_in_its_block() {
        let rel = SyntheticSpec { tuples: 2000, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[], 100);
        for tid in rel.tids() {
            let bid = g.bid_of(tid);
            let rect = g.block_rect(bid);
            let p = rel.ranking_point(tid);
            assert!(rect.contains(&p), "tuple {tid} at {p:?} not in block rect {rect:?}");
            assert!(g.block_tids(bid).contains(&tid));
        }
    }

    #[test]
    fn equi_depth_blocks_balanced() {
        let rel = SyntheticSpec { tuples: 10_000, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[], 250);
        // b = ceil(sqrt(40)) = 7 bins per dim, 49 blocks.
        assert_eq!(g.bins_per_dim(), 7);
        let sizes: Vec<usize> = (0..g.num_blocks()).map(|b| g.block_tids(b as Bid).len()).collect();
        let avg = 10_000.0 / sizes.len() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max < avg * 2.0, "equi-depth should balance: max {max}, avg {avg}");
    }

    #[test]
    fn coords_round_trip() {
        let rel = SyntheticSpec { tuples: 1000, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[], 50);
        for bid in 0..g.num_blocks() as Bid {
            assert_eq!(g.coords_bid(&g.bid_coords(bid)), bid);
        }
    }

    #[test]
    fn neighbors_are_adjacent() {
        let rel = SyntheticSpec { tuples: 1000, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[], 50);
        let bins = g.bins_per_dim();
        let mid = g.coords_bid(&[bins / 2, bins / 2]);
        let n: Vec<Bid> = g.neighbors(mid).collect();
        assert_eq!(n.len(), 4);
        for nb in n {
            let a = g.bid_coords(mid);
            let b = g.bid_coords(nb);
            let dist: usize = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
            assert_eq!(dist, 1);
        }
        // Corner block has only R neighbours.
        assert_eq!(g.neighbors(g.coords_bid(&[0, 0])).count(), 2);
    }

    /// The stride arithmetic against the coordinate vectors it replaced, on
    /// partitions of one to four dimensions: neighbours in the old order
    /// (per dimension, below then above), pseudo-block ids under every
    /// scale factor, and box regions bit for bit.
    #[test]
    fn stride_arithmetic_matches_coordinate_vectors() {
        for r in 1..=4 {
            let rel =
                SyntheticSpec { tuples: 900, ranking_dims: r, ..Default::default() }.generate();
            let g = GridPartition::build(&rel, &[], 6);
            let bins = g.bins_per_dim();
            assert!(bins >= 3, "{r} dims: {bins} bins");
            for bid in 0..g.num_blocks() as Bid {
                let c = g.bid_coords(bid);
                assert_eq!(g.coords_bid(&c), bid);
                let mut want = Vec::new();
                for i in 0..r {
                    let moved = |to: usize| {
                        let mut m = c.clone();
                        m[i] = to;
                        g.coords_bid(&m)
                    };
                    if c[i] > 0 {
                        want.push(moved(c[i] - 1));
                    }
                    if c[i] + 1 < bins {
                        want.push(moved(c[i] + 1));
                    }
                }
                assert_eq!(g.neighbors(bid).collect::<Vec<_>>(), want, "{r} dims, block {bid}");
                for sf in 1..=bins + 1 {
                    let pbins = bins.div_ceil(sf);
                    let want = c.iter().fold(0, |pid, &x| pid * pbins + x / sf);
                    assert_eq!(g.pid_of(bid, sf) as usize, want, "{r} dims, block {bid}, sf {sf}");
                }
            }
            // Boxes between two corner blocks, on the last dimension alone
            // and on all of them reversed.
            let all: Vec<usize> = (0..r).rev().collect();
            for proj in [&all[..1], &all[..]] {
                let mut got = Rect::unit(proj.len());
                for (lo, hi) in [(0, 0), (0, g.num_blocks() - 1), (1, g.num_blocks() - 1)] {
                    let (lo, hi) = (lo as Bid, hi as Bid);
                    let (a, b) = (g.block_rect(lo).project(proj), g.block_rect(hi).project(proj));
                    g.span_rect_into(lo, hi, proj, &mut got);
                    for d in 0..proj.len() {
                        assert_eq!(got.lo(d).to_bits(), a.lo(d).to_bits());
                        assert_eq!(got.hi(d).to_bits(), b.hi(d).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn scale_factor_matches_example_4() {
        // Cardinalities 2 and 2 -> sf = floor(sqrt(4)) = 2 (Example 4).
        assert_eq!(GridPartition::scale_factor(&[2, 2]), 2);
        assert_eq!(GridPartition::scale_factor(&[20]), 20);
        assert_eq!(GridPartition::scale_factor(&[]), 1);
        assert_eq!(GridPartition::scale_factor(&[20, 20, 20]), 20);
    }

    #[test]
    fn pseudo_blocks_group_base_blocks() {
        let rel = thesis_example();
        let g = GridPartition::build(&rel, &[], 1);
        let sf = 2;
        // Pseudo blocks must form a coarser, consistent mapping.
        let pbins = g.bins_per_dim().div_ceil(sf);
        for bid in 0..g.num_blocks() as Bid {
            let pid = g.pid_of(bid, sf);
            let c = g.bid_coords(bid);
            let expect = (c[0] / sf) * pbins + c[1] / sf;
            assert_eq!(pid as usize, expect);
        }
        assert_eq!(g.num_pseudo_blocks(sf), pbins * pbins);
    }

    #[test]
    fn locate_handles_out_of_range_values() {
        let rel = thesis_example();
        let g = GridPartition::build(&rel, &[], 1);
        // Values at/over the domain edge clamp into valid bins.
        let bid = g.locate(&[1.0, 1.0]);
        assert!((bid as usize) < g.num_blocks());
        let bid = g.locate(&[0.0, 0.0]);
        assert!((bid as usize) < g.num_blocks());
    }

    #[test]
    fn serialization_round_trips() {
        let rel = SyntheticSpec { tuples: 1500, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[], 80);
        let back = GridPartition::from_bytes(&g.to_bytes()).expect("round trip");
        assert_eq!(back.bins_per_dim(), g.bins_per_dim());
        assert_eq!(back.dims(), g.dims());
        assert_eq!(back.num_blocks(), g.num_blocks());
        for tid in rel.tids() {
            assert_eq!(back.bid_of(tid), g.bid_of(tid));
        }
        for bid in 0..g.num_blocks() as Bid {
            assert_eq!(back.block_tids(bid), g.block_tids(bid));
            let (a, b) = (back.block_rect(bid), g.block_rect(bid));
            for d in 0..g.dims().len() {
                assert_eq!(a.lo(d), b.lo(d));
                assert_eq!(a.hi(d), b.hi(d));
            }
        }
    }

    #[test]
    fn a_block_whose_tids_do_not_ascend_fails_typed() {
        let edges = vec![vec![0.0, 0.5, 1.0]];
        for block in [vec![3, 3], vec![4, 2]] {
            let blocks = vec![vec![0, 1], block];
            let got = GridPartition::from_parts(edges.clone(), 2, vec![0], blocks);
            assert!(matches!(got, Err(StorageError::Malformed(why)) if why.contains("ascend")));
        }
    }

    #[test]
    fn truncated_serialization_fails_typed() {
        let rel = thesis_example();
        let g = GridPartition::build(&rel, &[], 1);
        let bytes = g.to_bytes();
        assert!(GridPartition::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(GridPartition::from_bytes(&[]).is_err());
    }

    #[test]
    fn projected_dims_partition() {
        let rel = SyntheticSpec { tuples: 500, ranking_dims: 4, ..Default::default() }.generate();
        let g = GridPartition::build(&rel, &[1, 3], 50);
        assert_eq!(g.dims(), &[1, 3]);
        for tid in rel.tids() {
            let p = rel.ranking_point_proj(tid, &[1, 3]);
            assert_eq!(g.locate(&p), g.bid_of(tid));
        }
    }
}
