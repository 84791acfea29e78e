//! Compressed tid posting lists with zero-copy views and streaming
//! intersection (Section 3.6.3).
//!
//! The grid cube's cell measures are ascending tid lists. The paper's
//! observation is that compression only pays off if queries can operate on
//! the *compressed* form — intersecting covering cuboids is the hottest
//! loop in the whole system, so decoding every list to a `Vec<Tid>` and
//! hashing it (the original implementation) throws the win away. This
//! module is built around two ideas:
//!
//! 1. **Zero-copy views.** [`IdListRef`] borrows the encoded bytes
//!    (typically an `Arc<[u8]>` page handed out by the buffer pool) and
//!    parses only the fixed-size header on construction. No allocation
//!    happens until an intersection actually yields output. The borrow
//!    contract: an `IdListRef<'a>` — and every cursor or iterator derived
//!    from it — is valid exactly as long as the page bytes `&'a [u8]` it
//!    wraps.
//! 2. **Streaming k-way intersection.** [`KWayIntersect`] leapfrogs any
//!    number of [`IdCursor`]s — ordered smallest estimated cardinality
//!    first — without materializing any intermediate list. A bitmap
//!    cursor seeks by jumping to the target's word; a delta cursor walks.
//!
//! ## Representations and when each is chosen
//!
//! | tag | layout | chosen by [`encode_auto`] when |
//! |-----|--------|-------------------------------|
//! | 0 (`delta`)  | LEB128 gaps | sparse lists: the gaps take no more bytes than the bitmap would |
//! | 1 (`bitmap`) | `universe: u32` + bit bytes | dense lists: `⌈universe/8⌉` is the smallest form |
//!
//! A stored list is one cuboid cell ∩ one base block, so it holds at most
//! a block's worth of tids (`block_size`, a few hundred): on the
//! benchmark's cube (100k tuples, four cardinality-10 dimensions, 343
//! blocks, all 15 cuboids) every one of the 653 501 stored lists is tag 0,
//! the longest 50 tids, 65 % of them singletons. Tag 2, a delta list
//! fronted by a skip table, was written only for lists above 128 tids (a
//! cardinality-2 dimension at the default block size); it is no longer
//! read, and a buffer carrying it fails [`IdListRef::parse`] with
//! [`DecodeError::BadTag`]. A longer-list layout belongs with a workload
//! that stores such lists.
//!
//! ## Bitmap layout
//!
//! A bitmap over universe `u` represents a subset of `0..u`: bit `t` lives
//! in byte `t/8`, position `t%8`, so little-endian `u64` loads read it a
//! word at a time. Bits at or above `u` are masked off. Headers are parsed
//! once, at [`IdListRef::parse`] time — never per intersection step.

use rcube_storage::StorageError;
use rcube_table::Tid;

/// Encoded representation tag (first byte of the buffer).
pub const TAG_DELTA: u8 = 0;
/// Bitmap over a `u32` universe.
pub const TAG_BITMAP: u8 = 1;

/// Decoding failures. A cursor stops cleanly at the first malformed byte
/// and keeps the reason ([`IdCursor::error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a varint or declared more payload than present.
    Truncated,
    /// A varint ran past 32 bits (a continuation run would previously
    /// overflow `shift` and panic in debug builds).
    VarintOverflow,
    /// Unknown representation tag.
    BadTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "posting list truncated"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 32 bits"),
            DecodeError::BadTag(t) => write!(f, "unknown posting-list tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A list read off a cube page that does not decode is a malformed file.
impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> Self {
        StorageError::Malformed(match e {
            DecodeError::Truncated => "posting list truncated",
            DecodeError::VarintOverflow => "posting-list varint exceeds 32 bits",
            DecodeError::BadTag(_) => "unknown posting-list tag",
        })
    }
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

/// Delta–varint encodes an ascending tid list.
pub fn encode_delta(tids: &[Tid]) -> Vec<u8> {
    debug_assert!(tids.windows(2).all(|w| w[0] < w[1]), "tid list must be strictly ascending");
    let mut out = vec![TAG_DELTA];
    let mut prev = 0u32;
    for (i, &t) in tids.iter().enumerate() {
        let gap = if i == 0 { t } else { t - prev - 1 };
        push_leb(&mut out, gap);
        prev = t;
    }
    out
}

/// Bitmap encodes a tid list over the universe `0..universe`.
pub fn encode_bitmap(tids: &[Tid], universe: u32) -> Vec<u8> {
    let mut out = vec![TAG_BITMAP];
    out.extend_from_slice(&universe.to_le_bytes());
    let mut bits = vec![0u8; (universe as usize).div_ceil(8)];
    for &t in tids {
        debug_assert!(t < universe);
        bits[(t / 8) as usize] |= 1 << (t % 8);
    }
    out.extend_from_slice(&bits);
    out
}

/// Picks the smaller representation for this list: the delta gaps, or the
/// bitmap when the list is dense enough for `5 + ⌈universe/8⌉` bytes to
/// undercut them.
pub fn encode_auto(tids: &[Tid], universe: u32) -> Vec<u8> {
    let delta = encode_delta(tids);
    if delta.len() <= 5 + (universe as usize).div_ceil(8) {
        delta
    } else {
        encode_bitmap(tids, universe)
    }
}

// ---------------------------------------------------------------------------
// Zero-copy views
// ---------------------------------------------------------------------------

/// A borrowed, header-parsed view of an encoded posting list.
///
/// Parsing validates the header and remembers the payload slices; the
/// element data itself is only touched when a cursor walks it. The view
/// (and everything derived from it) borrows the underlying bytes.
#[derive(Debug, Clone, Copy)]
pub struct IdListRef<'a> {
    repr: Repr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Delta { gaps: &'a [u8] },
    Bitmap { universe: u32, bits: &'a [u8] },
}

impl<'a> IdListRef<'a> {
    /// Parses the header of an encoded buffer. The returned view borrows
    /// `buf`; no bytes are copied.
    pub fn parse(buf: &'a [u8]) -> Result<Self, DecodeError> {
        // No bytes at all is the empty list.
        match buf.first().copied().unwrap_or(TAG_DELTA) {
            TAG_DELTA => Ok(Self { repr: Repr::Delta { gaps: buf.get(1..).unwrap_or(&[]) } }),
            TAG_BITMAP => {
                if buf.len() < 5 {
                    return Err(DecodeError::Truncated);
                }
                let universe = u32::from_le_bytes(buf[1..5].try_into().unwrap());
                let need = (universe as usize).div_ceil(8);
                let bits = &buf[5..];
                if bits.len() < need {
                    return Err(DecodeError::Truncated);
                }
                Ok(Self { repr: Repr::Bitmap { universe, bits: &bits[..need] } })
            }
            other => Err(DecodeError::BadTag(other)),
        }
    }

    /// Cardinality estimate used to order k-way intersections: exact for
    /// bitmaps (word-parallel popcount), an upper bound (payload bytes)
    /// for delta lists.
    pub fn estimated_card(&self) -> usize {
        match self.repr {
            Repr::Delta { gaps } => gaps.len(),
            Repr::Bitmap { bits, universe } => {
                let words = (universe as usize).div_ceil(64);
                (0..words).map(|w| load_word(bits, universe, w).count_ones() as usize).sum()
            }
        }
    }

    /// A streaming cursor over the list, starting before the first element.
    pub fn cursor(self) -> IdCursor<'a> {
        self.cursor_with_base(0)
    }

    /// A cursor that adds `base` to every stored value — posting lists
    /// encoded relative to a block-local origin stream out as global tids.
    pub fn cursor_with_base(self, base: Tid) -> IdCursor<'a> {
        let est = self.estimated_card();
        let inner = match self.repr {
            Repr::Delta { gaps } => {
                CursorInner::Delta { data: gaps, pos: 0, prev: 0, started: false }
            }
            Repr::Bitmap { universe, bits } => CursorInner::Bitmap {
                bits,
                universe,
                word_idx: 0,
                word: load_word(bits, universe, 0),
            },
        };
        let mut c = IdCursor { cur: None, base, est, inner, poisoned: None };
        c.advance();
        c
    }

    /// Decodes the whole list (allocating). Malformed tails stop cleanly.
    pub fn to_vec(self) -> Vec<Tid> {
        let mut out = Vec::with_capacity(self.estimated_card());
        out.extend(self.cursor());
        out
    }
}

/// Word `word` of a bitmap over `universe`: a little-endian `u64` load of
/// up to 8 bytes starting at `bits[8*word]`, bits at or above the universe
/// masked off.
#[inline]
fn load_word(bits: &[u8], universe: u32, word: usize) -> u64 {
    let chunk = bits.get(word * 8..).unwrap_or(&[]);
    let raw = match chunk.first_chunk::<8>() {
        Some(full) => u64::from_le_bytes(*full),
        None => {
            let mut tail = [0u8; 8];
            tail[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(tail)
        }
    };
    let valid = u64::from(universe).saturating_sub(word as u64 * 64);
    raw & if valid >= 64 { !0 } else { (1u64 << valid) - 1 }
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// A streaming cursor over one posting list: `current` / `advance` /
/// `seek`, the primitives the k-way intersector leapfrogs on.
#[derive(Debug, Clone)]
pub struct IdCursor<'a> {
    cur: Option<Tid>,
    base: Tid,
    est: usize,
    poisoned: Option<DecodeError>,
    inner: CursorInner<'a>,
}

#[derive(Debug, Clone)]
enum CursorInner<'a> {
    /// Poisoned: nothing more comes out.
    Done,
    Delta {
        data: &'a [u8],
        pos: usize,
        prev: u32,
        started: bool,
    },
    /// `word` is word `word_idx` less the bits at and below the current
    /// element.
    Bitmap {
        bits: &'a [u8],
        universe: u32,
        word_idx: usize,
        word: u64,
    },
}

impl<'a> IdCursor<'a> {
    /// The element the cursor is positioned on, or `None` at end of list.
    #[inline]
    pub fn current(&self) -> Option<Tid> {
        self.cur
    }

    /// Cardinality estimate inherited from the view (k-way ordering key).
    pub fn estimated_card(&self) -> usize {
        self.est
    }

    /// The decode error that stopped the cursor early, if any. A caller
    /// that must not mistake a malformed list for a short one reads this
    /// once the cursor is drained.
    pub fn error(&self) -> Option<DecodeError> {
        self.poisoned
    }

    /// Moves to the next element. Malformed bytes end the stream cleanly
    /// (and leave the reason in [`Self::error`]).
    pub fn advance(&mut self) {
        match self.try_advance() {
            Ok(next) => self.cur = next,
            Err(e) => {
                self.poisoned = Some(e);
                self.cur = None;
                self.inner = CursorInner::Done;
            }
        }
    }

    fn try_advance(&mut self) -> Result<Option<Tid>, DecodeError> {
        let rel = match &mut self.inner {
            CursorInner::Done => return Ok(None),
            CursorInner::Delta { data, pos, prev, started } => {
                if *pos >= data.len() {
                    return Ok(None);
                }
                let (gap, next) = read_leb(data, *pos)?;
                *pos = next;
                let t = if *started {
                    prev.checked_add(gap)
                        .and_then(|v| v.checked_add(1))
                        .ok_or(DecodeError::VarintOverflow)?
                } else {
                    gap
                };
                *started = true;
                *prev = t;
                t
            }
            CursorInner::Bitmap { bits, universe, word_idx, word } => {
                let num_words = (*universe as usize).div_ceil(64);
                while *word == 0 {
                    *word_idx += 1;
                    if *word_idx >= num_words {
                        return Ok(None);
                    }
                    *word = load_word(bits, *universe, *word_idx);
                }
                let t = (*word_idx as u32) * 64 + word.trailing_zeros();
                *word &= *word - 1;
                t
            }
        };
        self.base.checked_add(rel).map(Some).ok_or(DecodeError::VarintOverflow)
    }

    /// Positions the cursor on the first element `≥ target` (no-op when
    /// already there). Bitmaps jump straight to the target word; delta
    /// lists walk — a stored list is at most a block's worth of tids.
    pub fn seek(&mut self, target: Tid) {
        if let (CursorInner::Bitmap { bits, universe, word_idx, word }, Some(cur)) =
            (&mut self.inner, self.cur)
        {
            if cur < target {
                let rel = target - self.base;
                let target_word = (rel / 64) as usize;
                if target_word > *word_idx {
                    *word_idx = target_word;
                    *word = load_word(bits, *universe, target_word);
                }
                *word &= !0u64 << (rel % 64); // drop bits below the target
            }
        }
        while self.cur.is_some_and(|c| c < target) {
            self.advance();
        }
    }
}

impl<'a> Iterator for IdCursor<'a> {
    type Item = Tid;

    fn next(&mut self) -> Option<Tid> {
        let out = self.cur?;
        self.advance();
        Some(out)
    }
}

// ---------------------------------------------------------------------------
// Streaming k-way intersection
// ---------------------------------------------------------------------------

/// Streaming intersection of `k` posting lists, each with its own base.
///
/// The cursors are ordered by estimated cardinality (smallest first) and
/// leapfrogged: the rarest list nominates candidates, the others `seek`.
/// Nothing is materialized until the caller collects. No cursors yield
/// nothing; one passes through.
pub struct KWayIntersect<'a> {
    cursors: Vec<IdCursor<'a>>,
}

impl<'a> KWayIntersect<'a> {
    /// Intersects cursors, each already carrying its list's base
    /// ([`IdListRef::cursor_with_base`]).
    pub fn from_cursors(mut cursors: Vec<IdCursor<'a>>) -> Self {
        cursors.sort_by_key(|c| c.estimated_card());
        Self { cursors }
    }

    /// The first decode error among the operands ([`IdCursor::error`]): a
    /// malformed list ends the intersection early, and this is how the
    /// caller tells that from an intersection that ran dry.
    pub fn error(&self) -> Option<DecodeError> {
        self.cursors.iter().find_map(IdCursor::error)
    }
}

impl<'a> Iterator for KWayIntersect<'a> {
    type Item = Tid;

    fn next(&mut self) -> Option<Tid> {
        let (rarest, rest) = self.cursors.split_first_mut()?;
        let mut candidate = rarest.current()?;
        'outer: loop {
            for c in rest.iter_mut() {
                c.seek(candidate);
                match c.current() {
                    None => return None,
                    Some(v) if v > candidate => {
                        rarest.seek(v);
                        candidate = rarest.current()?;
                        continue 'outer;
                    }
                    Some(_) => {}
                }
            }
            rarest.advance();
            return Some(candidate);
        }
    }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn push_leb(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bounded LEB128 read: a `u32` needs at most 5 bytes and the fifth may
/// carry only 4 payload bits. Longer continuation runs previously drove
/// `shift` past 31 (debug panic / silent truncation); now they error.
fn read_leb(buf: &[u8], mut pos: usize) -> Result<(u32, usize), DecodeError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(pos) else {
            return Err(DecodeError::Truncated);
        };
        pos += 1;
        if shift == 28 && (byte & 0x80 != 0 || byte & 0x70 != 0) {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_intersect(lists: &[&[Tid]]) -> Vec<Tid> {
        let mut out: Vec<Tid> = lists.first().map(|l| l.to_vec()).unwrap_or_default();
        for l in &lists[1..] {
            out.retain(|t| l.contains(t));
        }
        out
    }

    /// Both representations of a list.
    fn encodings(tids: &[Tid]) -> Vec<Vec<u8>> {
        let universe = tids.last().map_or(1, |&m| m + 1);
        vec![encode_delta(tids), encode_bitmap(tids, universe)]
    }

    fn decode(buf: &[u8]) -> Vec<Tid> {
        IdListRef::parse(buf).unwrap().to_vec()
    }

    /// Strict decode: the cursor's error instead of a short list.
    fn try_decode(buf: &[u8]) -> Result<Vec<Tid>, DecodeError> {
        let mut c = IdListRef::parse(buf)?.cursor();
        let out: Vec<Tid> = c.by_ref().collect();
        c.error().map_or(Ok(out), Err)
    }

    /// The leapfrog over whole buffers, no bases.
    fn intersect(bufs: &[&[u8]]) -> Vec<Tid> {
        let cursors = bufs.iter().map(|b| IdListRef::parse(b).unwrap().cursor()).collect();
        KWayIntersect::from_cursors(cursors).collect()
    }

    #[test]
    fn delta_round_trips() {
        let tids = vec![0, 1, 5, 100, 101, 100_000, 3_000_000];
        assert_eq!(decode(&encode_delta(&tids)), tids);
        assert_eq!(decode(&encode_delta(&[])), Vec::<Tid>::new());
        assert_eq!(decode(&encode_delta(&[7])), vec![7]);
    }

    #[test]
    fn bitmap_round_trips() {
        let tids = vec![0, 3, 8, 62, 63];
        assert_eq!(decode(&encode_bitmap(&tids, 64)), tids);
        assert_eq!(decode(&encode_bitmap(&[], 0)), Vec::<Tid>::new());
    }

    #[test]
    fn dense_lists_compress_better_as_bitmaps() {
        let dense: Vec<Tid> = (0..1000).filter(|t| t % 2 == 0).collect();
        let auto = encode_auto(&dense, 1000);
        assert_eq!(auto[0], TAG_BITMAP);
        assert!(auto.len() < encode_delta(&dense).len());
        assert_eq!(decode(&auto), dense);
    }

    #[test]
    fn sparse_lists_compress_better_as_deltas() {
        let sparse = vec![10, 5_000, 90_000];
        let auto = encode_auto(&sparse, 100_000);
        assert_eq!(auto[0], TAG_DELTA);
        assert!(auto.len() < 5 + 100_000 / 8);
        assert_eq!(decode(&auto), sparse);
        // Length does not change the form: a long sparse list is the same
        // delta list, with no table in front of it.
        let long: Vec<Tid> = (0..2_000u32).map(|i| i * 50).collect();
        let auto = encode_auto(&long, 100_000);
        assert_eq!(auto, encode_delta(&long));
        assert_eq!(decode(&auto), long);
    }

    #[test]
    fn legacy_buffers_still_decode() {
        // Byte-for-byte buffers the seed encoder produced (tag 0 / tag 1)
        // must keep decoding identically.
        let tids = vec![1u32, 3, 5, 7, 9, 50];
        let delta: Vec<u8> = vec![TAG_DELTA, 1, 1, 1, 1, 1, 40];
        assert_eq!(decode(&delta), tids);
        assert_eq!(encode_delta(&tids), delta);
        let bitmap = encode_bitmap(&tids, 64);
        assert_eq!(decode(&bitmap), tids);
        assert_eq!(bitmap.len(), 5 + 8);
    }

    #[test]
    fn retired_skip_tag_fails_typed() {
        // [5, 9] as the retired tag 2 stored it: count, one block, its
        // `(max_tid, end_offset)` table entry, then the two gaps.
        let skip = [2u8, 2, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 5, 3];
        let err = IdListRef::parse(&skip).unwrap_err();
        assert_eq!(err, DecodeError::BadTag(2));
        assert!(matches!(StorageError::from(err), StorageError::Malformed(_)));
    }

    #[test]
    fn intersection_matches_set_semantics() {
        let a = vec![1, 3, 5, 7, 9, 50];
        let b = vec![3, 4, 5, 50, 80];
        let want = vec![3, 5, 50];
        // All four representation pairings.
        for ea in [encode_delta(&a), encode_bitmap(&a, 128)] {
            for eb in [encode_delta(&b), encode_bitmap(&b, 128)] {
                assert_eq!(intersect(&[&ea, &eb]), want, "tags {} ∩ {}", ea[0], eb[0]);
            }
        }
    }

    #[test]
    fn bitmap_universe_mismatch_drops_high_bits() {
        // a over universe 100, b over universe 1000: nothing at or above
        // 100 can come out, whichever side nominates.
        let a: Vec<Tid> = (0..100).collect();
        let b: Vec<Tid> = (0..1000).filter(|t| t % 3 == 0).collect();
        let ea = encode_bitmap(&a, 100);
        let eb = encode_bitmap(&b, 1000);
        let want: Vec<Tid> = (0..100).filter(|t| t % 3 == 0).collect();
        assert_eq!(intersect(&[&ea, &eb]), want);
        assert_eq!(intersect(&[&eb, &ea]), want);
        // Bits stored past the declared universe are not elements.
        let mut stray = encode_bitmap(&[1, 9], 10);
        stray[6] |= 0b1111_1100; // bits 10..16 of the second byte
        assert_eq!(decode(&stray), vec![1, 9]);
        assert_eq!(IdListRef::parse(&stray).unwrap().estimated_card(), 2);
    }

    #[test]
    fn delta_beats_raw_u32_on_ascending_lists() {
        let tids: Vec<Tid> = (0..10_000).map(|i| i * 3).collect();
        let encoded = encode_delta(&tids);
        assert!(encoded.len() * 2 < tids.len() * 4, "{} vs {}", encoded.len(), tids.len() * 4);
    }

    #[test]
    fn malformed_leb_errors_instead_of_overflowing_shift() {
        // Six continuation bytes: shift would previously reach 35.
        let buf = vec![TAG_DELTA, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(try_decode(&buf), Err(DecodeError::VarintOverflow));
        // The lossy decode stops cleanly (no panic, no garbage element).
        assert_eq!(decode(&buf), Vec::<Tid>::new());
        // A fifth byte with too-high payload bits is also an overflow.
        let buf = vec![TAG_DELTA, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(try_decode(&buf), Err(DecodeError::VarintOverflow));
        // Trailing continuation bit with no next byte: truncated.
        let buf = vec![TAG_DELTA, 0x80];
        assert_eq!(try_decode(&buf), Err(DecodeError::Truncated));
        // But the maximum u32 still decodes: 5 bytes, top byte 0x0f.
        let mut ok = vec![TAG_DELTA];
        push_leb(&mut ok, u32::MAX);
        assert_eq!(try_decode(&ok).unwrap(), vec![u32::MAX]);
    }

    #[test]
    fn truncated_headers_error() {
        assert_eq!(IdListRef::parse(&[TAG_BITMAP, 1, 0]).unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            IdListRef::parse(&[TAG_BITMAP, 64, 0, 0, 0, 0xff]).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(IdListRef::parse(&[9, 9, 9]).unwrap_err(), DecodeError::BadTag(9));
        assert_eq!(IdListRef::parse(&[]).unwrap().cursor().current(), None);
    }

    #[test]
    fn cursor_seek_gallops_to_targets() {
        let tids: Vec<Tid> = (0..5_000u32).map(|i| i * 11).collect();
        for enc in encodings(&tids) {
            let list = IdListRef::parse(&enc).unwrap();
            let mut c = list.cursor();
            c.seek(0);
            assert_eq!(c.current(), Some(0));
            c.seek(12); // between 11 and 22
            assert_eq!(c.current(), Some(22), "tag {}", enc[0]);
            c.seek(22); // no-op: already there
            assert_eq!(c.current(), Some(22));
            c.seek(43_000); // lands on a multiple of 11
            assert_eq!(c.current(), Some(43_010));
            c.seek(tids.last().copied().unwrap());
            assert_eq!(c.current(), tids.last().copied());
            c.seek(u32::MAX);
            assert_eq!(c.current(), None);
            assert_eq!(c.error(), None, "running off the end is not an error");
        }
    }

    #[test]
    fn cursor_with_base_offsets_values() {
        let rel: Vec<Tid> = vec![0, 2, 9, 63, 64, 200];
        for enc in encodings(&rel) {
            let list = IdListRef::parse(&enc).unwrap();
            let got: Vec<Tid> = list.cursor_with_base(1_000).collect();
            let want: Vec<Tid> = rel.iter().map(|t| t + 1_000).collect();
            assert_eq!(got, want, "tag {}", enc[0]);
            let mut c = list.cursor_with_base(1_000);
            c.seek(1_010);
            assert_eq!(c.current(), Some(1_063));
        }
    }

    #[test]
    fn base_offset_overflow_stops_cleanly() {
        // A stored value near u32::MAX plus a large base must not wrap
        // (which would emit a bogus small tid and break ascending order) —
        // the cursor poisons and ends instead. Bitmap is exempt here: a
        // real bitmap near this universe would be half a gigabyte.
        let enc = encode_delta(&[0, u32::MAX - 10]);
        let list = IdListRef::parse(&enc).unwrap();
        let got: Vec<Tid> = list.cursor_with_base(100).collect();
        assert_eq!(got, vec![100], "overflow element must be dropped");
        let mut c = list.cursor_with_base(100);
        c.advance();
        assert_eq!(c.error(), Some(DecodeError::VarintOverflow));
    }

    #[test]
    fn kway_streams_without_materializing() {
        let a: Vec<Tid> = (0..1_000).map(|i| i * 2).collect();
        let b: Vec<Tid> = (0..1_000).map(|i| i * 3).collect();
        let c: Vec<Tid> = (0..1_000).map(|i| i * 5).collect();
        let (ea, eb, ec) = (encode_delta(&a), encode_bitmap(&b, 3_000), encode_delta(&c));
        let want: Vec<Tid> = (0..2_000).filter(|t| t % 30 == 0).collect();
        assert_eq!(intersect(&[&ea, &eb, &ec]), want);
    }

    #[test]
    fn kway_edge_fans() {
        let empty: Vec<Tid> = vec![];
        let single = vec![42u32];
        let run: Vec<Tid> = (40..50).collect();
        for ee in encodings(&empty) {
            for es in encodings(&single) {
                assert_eq!(intersect(&[&es, &ee]), empty);
                assert_eq!(intersect(&[&ee, &es]), empty);
            }
        }
        for es in encodings(&single) {
            for er in encodings(&run) {
                assert_eq!(intersect(&[&es, &er]), vec![42]);
            }
        }
        // Zero lists and one list.
        assert_eq!(intersect(&[]), empty);
        assert_eq!(intersect(&[&encode_delta(&run)]), run);
    }

    #[test]
    fn kway_reports_a_poisoned_operand() {
        // A list cut inside a varint ends the stream early; the error is
        // how a caller tells that from an intersection that ran dry.
        let full: Vec<Tid> = (0..40).map(|i| i * 300).collect();
        let mut cut = encode_delta(&full);
        cut.truncate(cut.len() - 1); // the last gap loses its final byte
        let ok = encode_delta(&full);
        for bufs in [vec![&cut], vec![&ok, &cut], vec![&cut, &ok]] {
            let cursors = bufs.iter().map(|b| IdListRef::parse(b).unwrap().cursor()).collect();
            let mut it = KWayIntersect::from_cursors(cursors);
            assert_eq!(it.by_ref().collect::<Vec<_>>(), full[..39], "{} operands", bufs.len());
            assert_eq!(it.error(), Some(DecodeError::Truncated));
        }
        let mut clean = KWayIntersect::from_cursors(vec![IdListRef::parse(&ok).unwrap().cursor()]);
        assert_eq!(clean.by_ref().count(), 40);
        assert_eq!(clean.error(), None);
    }

    #[test]
    fn word_parallel_equals_bit_at_a_time() {
        // The seed's byte-oriented loop, kept as the reference oracle for
        // the bitmap cursor's word loads and jumps.
        fn seed_bitmap_intersect(a: &[u8], b: &[u8]) -> Vec<Tid> {
            let ua = u32::from_le_bytes(a[1..5].try_into().unwrap());
            let ub = u32::from_le_bytes(b[1..5].try_into().unwrap());
            let universe = ua.min(ub);
            let mut out = Vec::new();
            for t in 0..universe {
                let byte = 5 + (t / 8) as usize;
                if (a[byte] & b[byte]) >> (t % 8) & 1 == 1 {
                    out.push(t);
                }
            }
            out
        }
        let a: Vec<Tid> = (0..10_000).filter(|t| t % 2 == 0).collect();
        let b: Vec<Tid> = (0..10_000).filter(|t| t % 3 == 0).collect();
        let ea = encode_bitmap(&a, 10_000);
        let eb = encode_bitmap(&b, 10_007); // deliberately unequal universes
        assert_eq!(intersect(&[&ea, &eb]), seed_bitmap_intersect(&ea, &eb));
    }

    proptest::proptest! {
        #[test]
        fn proptest_round_trip(mut raw in proptest::collection::vec(0u32..50_000, 0..300)) {
            raw.sort_unstable();
            raw.dedup();
            let universe = raw.last().map_or(1, |&m| m + 1);
            proptest::prop_assert_eq!(&try_decode(&encode_delta(&raw)).unwrap(), &raw);
            proptest::prop_assert_eq!(&try_decode(&encode_bitmap(&raw, universe)).unwrap(), &raw);
            proptest::prop_assert_eq!(&try_decode(&encode_auto(&raw, universe)).unwrap(), &raw);
        }

        /// Delta × bitmap operand mixes, each list encoded relative to its
        /// own base as a cell page stores them, against the naive set.
        #[test]
        fn proptest_kway_equals_naive(
            mut a in proptest::collection::vec(0u32..2_000, 0..400),
            mut b in proptest::collection::vec(0u32..2_000, 0..400),
            mut c in proptest::collection::vec(0u32..2_000, 0..400),
            bitmap in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        ) {
            for l in [&mut a, &mut b, &mut c] {
                l.sort_unstable();
                l.dedup();
            }
            let pick = |tids: &[Tid], bitmap: bool| -> (Tid, Vec<u8>) {
                let base = tids.first().copied().unwrap_or(0);
                let rel: Vec<Tid> = tids.iter().map(|t| t - base).collect();
                let universe = rel.last().map_or(1, |&m| m + 1);
                (base, if bitmap { encode_bitmap(&rel, universe) } else { encode_delta(&rel) })
            };
            let encoded = [pick(&a, bitmap.0), pick(&b, bitmap.1), pick(&c, bitmap.2)];
            let cursors = |n: usize| -> Vec<IdCursor<'_>> {
                encoded[..n]
                    .iter()
                    .map(|(base, buf)| IdListRef::parse(buf).unwrap().cursor_with_base(*base))
                    .collect()
            };
            let mut it = KWayIntersect::from_cursors(cursors(3));
            let got: Vec<Tid> = it.by_ref().collect();
            proptest::prop_assert_eq!(&got, &naive_intersect(&[&a, &b, &c]), "bitmap {:?}", bitmap);
            proptest::prop_assert_eq!(it.error(), None);
            let got2: Vec<Tid> = KWayIntersect::from_cursors(cursors(2)).collect();
            proptest::prop_assert_eq!(&got2, &naive_intersect(&[&a, &b]));
        }

        #[test]
        fn proptest_seek_matches_scan(
            mut raw in proptest::collection::vec(0u32..10_000, 1..500),
            targets in proptest::collection::vec(0u32..11_000, 1..40),
        ) {
            raw.sort_unstable();
            raw.dedup();
            for enc in encodings(&raw) {
                let list = IdListRef::parse(&enc).unwrap();
                let mut sorted_targets = targets.clone();
                sorted_targets.sort_unstable();
                let mut cur = list.cursor();
                // Ascending targets keep every seek monotone, so the cursor
                // must land exactly on the first element ≥ each target.
                for &t in &sorted_targets {
                    cur.seek(t);
                    let want = raw.iter().copied().find(|&x| x >= t);
                    proptest::prop_assert_eq!(cur.current(), want, "tag {} target {}", enc[0], t);
                }
            }
        }
    }
}
