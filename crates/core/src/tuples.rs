//! What a signature cube file records of its tuples (format v6): the
//! selection schema, the tuple count, every tuple's selection values and
//! the last WAL seq folded into the file.
//!
//! A signature cell is a pure function of the tuple paths in it, so a
//! flush whose R-tree operations move a tuple must know the cells that
//! tuple belongs to — its selection values. The file keeps them in a
//! *selection column*: one bit stream, tid after tid, ⌈log₂ C_d⌉ bits per
//! dimension MSB-first, cut into chunks of as many whole bytes of tuples
//! as one page holds. The catalog names each chunk's object in an 8-byte
//! table. A commit appends only the chunks it changed — a flush of
//! ascending delta tids touches one or two — and every other table entry
//! names the object an earlier generation wrote, the way the R-tree node
//! table shares untouched nodes.
//!
//! A cube built in memory holds its column in memory and writes it only
//! when saved to a file, so the materialized size of an in-memory cube
//! (and every figure metered on one) does not count it.

use std::sync::Arc;

use rcube_storage::format::PAGE_HEADER;
use rcube_storage::{
    bits_for, BitReader, ByteReader, ByteWriter, DiskSim, PageId, PageStore, StorageError,
    DEFAULT_PAGE_SIZE,
};
use rcube_table::{Dim, Relation, Tid};

/// The tuple side of a signature cube's catalog (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tuples {
    /// The last WAL seq folded into this generation.
    pub(crate) flushed_seq: u64,
    /// Cardinality of each selection dimension: the selection schema.
    cards: Vec<u32>,
    /// Objects of the chunks edited since the last commit: the next
    /// commit retires them.
    replaced: Vec<PageId>,
    /// Tuples in the column: tids `0..len`.
    len: usize,
    /// Bits one tuple takes: Σ ⌈log₂ C_d⌉, at least 1.
    stride: usize,
    /// Tuples per chunk, from the page size of the file it was cut for: a
    /// multiple of 8, so every chunk is whole bytes of the stream.
    per_chunk: usize,
    /// Each chunk's bytes and the object holding them — `None` for a chunk
    /// added or edited since the last commit.
    chunks: Vec<(Arc<Vec<u8>>, Option<PageId>)>,
}

/// Writes `sel` at bit `at`: ⌈log₂ C_d⌉ bits a value, MSB-first.
fn put(bytes: &mut [u8], mut at: usize, cards: &[u32], sel: impl Iterator<Item = u32>) {
    for (v, &c) in sel.zip(cards) {
        let w = bits_for(c as usize);
        for (i, pos) in (at..at + w).enumerate() {
            let bit = (((v >> (w - 1 - i)) & 1) as u8) << (7 - pos % 8);
            bytes[pos / 8] = (bytes[pos / 8] & !(0x80 >> (pos % 8))) | bit;
        }
        at += w;
    }
}

impl Tuples {
    /// An empty column over `cards`, cut for pages of `page_size`: the
    /// most tuples whose whole bytes one page's payload holds (the first
    /// page of an object spends 4 bytes on its length).
    fn new(cards: Vec<u32>, page_size: usize) -> Self {
        let stride = cards.iter().map(|&c| bits_for(c as usize)).sum::<usize>().max(1);
        let per_chunk = 8 * ((page_size - PAGE_HEADER - 4) / stride).max(1);
        Self { cards, stride, per_chunk, ..Self::default() }
    }

    /// This column holding the `len` tuples of `stream`, cut into chunks.
    fn cut(self, stream: &[u8], len: usize) -> Self {
        let chunk = stream.chunks(self.per_chunk * self.stride / 8);
        Self { len, chunks: chunk.map(|c| (Arc::new(c.to_vec()), None)).collect(), ..self }
    }

    /// The column of every tuple of `rel`, cut for pages of `page_size`.
    pub(crate) fn of_relation(rel: &Relation, page_size: usize) -> Self {
        let dims = 0..rel.schema().num_selection();
        let cards = rel.schema().selection_dims().iter().map(Dim::cardinality).collect();
        let tuples = Self::new(cards, page_size);
        let mut stream = vec![0; (rel.len() * tuples.stride).div_ceil(8)];
        for tid in rel.tids() {
            let sel = dims.clone().map(|d| rel.selection_value(tid, d));
            put(&mut stream, tid as usize * tuples.stride, &tuples.cards, sel);
        }
        tuples.cut(&stream, rel.len())
    }

    /// Cardinality of each selection dimension.
    pub(crate) fn cards(&self) -> &[u32] {
        &self.cards
    }

    /// Tuples the column holds: tids `0..len`.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The selection values of `tid`, if the column holds it.
    pub(crate) fn get(&self, tid: Tid) -> Option<Vec<u32>> {
        let tid = tid as usize;
        let bits = &self.chunks.get(tid / self.per_chunk).filter(|_| tid < self.len)?.0;
        let mut r = BitReader::new(bits, bits.len() * 8);
        r.skip(tid % self.per_chunk * self.stride);
        self.cards.iter().map(|&c| r.read_bits(bits_for(c as usize)).map(|v| v as u32)).collect()
    }

    /// Sets the selection values of `tid`, growing the column to hold it
    /// (a tid skipped on the way holds zeros: no tuple of the R-tree
    /// carries it). Values outside the schema are `Malformed`.
    pub(crate) fn set(&mut self, tid: Tid, sel: &[u32]) -> Result<(), StorageError> {
        if sel.len() != self.cards.len() || sel.iter().zip(&self.cards).any(|(&v, &c)| v >= c) {
            return Err(StorageError::Malformed("selection values outside the cube's schema"));
        }
        let tid = tid as usize;
        while self.len <= tid {
            if self.len.is_multiple_of(self.per_chunk) {
                self.chunks.push(Default::default());
            }
            self.len += 1;
            let bits = ((self.len - 1) % self.per_chunk + 1) * self.stride;
            self.edit(self.len - 1).resize(bits.div_ceil(8), 0);
        }
        let (at, cards) = (tid % self.per_chunk * self.stride, self.cards.clone());
        put(self.edit(tid), at, &cards, sel.iter().copied());
        Ok(())
    }

    /// The bytes of the chunk holding `tid`, to edit: its object, if any,
    /// is retired by the next commit.
    fn edit(&mut self, tid: usize) -> &mut Vec<u8> {
        let (bits, stored) = &mut self.chunks[tid / self.per_chunk];
        self.replaced.extend(stored.take());
        Arc::make_mut(bits)
    }

    /// This column cut for pages of `page_size`, no chunk written: what a
    /// save writes into another file.
    pub(crate) fn cut_for(&self, page_size: usize) -> Self {
        let stream: Vec<u8> =
            self.chunks.iter().flat_map(|(bits, _)| bits.iter().copied()).collect();
        let cut = Self::new(self.cards.clone(), page_size).cut(&stream, self.len);
        Self { flushed_seq: self.flushed_seq, ..cut }
    }

    /// Appends the chunks added or edited since the last commit to `store`
    /// and writes the catalog tail: schema, tuple count, `flushed_seq`,
    /// chunk size and the chunk table. Returns that table, for
    /// [`Self::committed`] once the commit stands, and the objects it
    /// replaces, for the commit to retire.
    pub(crate) fn write_changed(
        &self,
        store: &PageStore,
        disk: &DiskSim,
        w: &mut ByteWriter,
    ) -> Result<(Vec<PageId>, Vec<PageId>), StorageError> {
        let write = |(bits, stored): &(Arc<Vec<u8>>, Option<PageId>)| {
            stored.map_or_else(|| store.put_meta(disk, bits.to_vec()), Ok)
        };
        let table = self.chunks.iter().map(write).collect::<Result<Vec<_>, _>>()?;
        w.put_u64(self.cards.len() as u64);
        self.cards.iter().for_each(|&c| w.put_u32(c));
        let counts = [self.len as u64, self.flushed_seq, self.per_chunk as u64, table.len() as u64];
        counts.into_iter().chain(table.iter().map(|object| object.0)).for_each(|n| w.put_u64(n));
        Ok((table, self.replaced.clone()))
    }

    /// The commit that wrote `table` stands: each chunk lives in its object.
    pub(crate) fn committed(&mut self, table: &[PageId]) {
        self.chunks.iter_mut().zip(table).for_each(|((_, stored), &t)| *stored = Some(t));
        self.replaced.clear();
    }

    /// Parses the catalog tail and loads every chunk it names.
    pub(crate) fn read(r: &mut ByteReader<'_>, store: &PageStore) -> Result<Self, StorageError> {
        let cards = (0..r.count(1 << 16)?).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
        // The file's cut, not this build's.
        let mut tuples = Self::new(cards, DEFAULT_PAGE_SIZE);
        tuples.len = r.count(1 << 40)?;
        tuples.flushed_seq = r.u64()?;
        tuples.per_chunk = r.count(1 << 40)?;
        let malformed = StorageError::Malformed("selection column does not match its catalog");
        let whole_bytes = tuples.per_chunk > 0 && (tuples.per_chunk * tuples.stride) % 8 == 0;
        if !whole_bytes || r.count(1 << 40)? != tuples.len.div_ceil(tuples.per_chunk) {
            return Err(malformed);
        }
        for lo in (0..tuples.len).step_by(tuples.per_chunk) {
            let object = PageId(r.u64()?);
            let bits = store.peek(object)?;
            if bits.len() != (tuples.per_chunk.min(tuples.len - lo) * tuples.stride).div_ceil(8) {
                return Err(malformed);
            }
            tuples.chunks.push((Arc::new(bits.to_vec()), Some(object)));
        }
        Ok(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_table::gen::SyntheticSpec;

    #[test]
    fn values_round_trip_through_every_cut() {
        let rel = SyntheticSpec { tuples: 3000, cardinality: 5, ..Default::default() }.generate();
        let store = PageStore::new();
        let disk = DiskSim::with_defaults();
        for page in [64, 512, 4096] {
            let tuples = Tuples::of_relation(&rel, page);
            let mut w = ByteWriter::new();
            tuples.cut_for(512).write_changed(&store, &disk, &mut w).unwrap();
            let bytes = w.into_bytes();
            let read = Tuples::read(&mut ByteReader::new(&bytes), &store).unwrap();
            assert_eq!((read.len(), read.cards()), (3000, tuples.cards()));
            for tid in rel.tids() {
                let want: Vec<u32> = (0..3).map(|d| rel.selection_value(tid, d)).collect();
                assert_eq!(tuples.get(tid), Some(want.clone()), "page {page}, tid {tid}");
                assert_eq!(read.get(tid), Some(want), "page {page}, tid {tid}");
            }
            assert_eq!(read.get(3000), None);
        }
    }

    #[test]
    fn an_edit_rewrites_only_its_chunk_and_a_gap_reads_zero() {
        let rel = SyntheticSpec { tuples: 2000, cardinality: 4, ..Default::default() }.generate();
        let store = PageStore::new();
        let disk = DiskSim::with_defaults();
        let mut tuples = Tuples::of_relation(&rel, 256);
        let mut w = ByteWriter::new();
        let (table, _) = tuples.write_changed(&store, &disk, &mut w).unwrap();
        tuples.committed(&table);
        let chunks = table.len();
        assert!(chunks > 3, "{chunks} chunks");

        // One value, one tid past the end: the chunk it lands in and the
        // last one, and nothing else.
        tuples.set(5, &[3, 3, 3]).unwrap();
        tuples.set(2001, &[1, 2, 3]).unwrap();
        assert_eq!(tuples.replaced, [table[0], table[chunks - 1]]);
        assert_eq!(tuples.get(2000), Some(vec![0, 0, 0]));
        assert_eq!(tuples.get(2001), Some(vec![1, 2, 3]));
        assert_eq!(tuples.get(5), Some(vec![3, 3, 3]));
        let mut w = ByteWriter::new();
        let (next, replaced) = tuples.write_changed(&store, &disk, &mut w).unwrap();
        assert_eq!(replaced, tuples.replaced);
        let same = next.iter().zip(&table).filter(|(a, b)| a == b).count();
        assert_eq!(same, chunks - 2);
        assert!(matches!(tuples.set(9, &[4, 0, 0]), Err(StorageError::Malformed(_))));
        assert!(matches!(tuples.set(9, &[0, 0]), Err(StorageError::Malformed(_))));
    }
}
