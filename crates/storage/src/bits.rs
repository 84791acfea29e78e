//! Bit-level serialization used by the Chapter 4 signature codings.
//!
//! The thesis' coding schemes (`BL`, `RL`, `PI`, `PC`) are defined on raw
//! binary strings — e.g. the run-length code writes `⌈log2(i+1)⌉-1` ones, a
//! zero, then `i` in binary. [`BitWriter`] and [`BitReader`] implement the
//! MSB-first bit stream those definitions assume.

/// Append-only MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the stream.
    len: usize,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let byte_idx = self.len / 8;
        if byte_idx == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 1 << (7 - (self.len % 8));
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, most significant first:
    /// tops up the partial last byte, then moves whole bytes.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        let mut left = width;
        let used = self.len % 8;
        if used != 0 && left > 0 {
            let free = 8 - used;
            let take = free.min(left);
            let chunk = (value >> (left - take)) as u8 & low_mask(take);
            *self.bytes.last_mut().expect("partial byte exists") |= chunk << (free - take);
            left -= take;
        }
        while left >= 8 {
            left -= 8;
            self.bytes.push((value >> left) as u8);
        }
        if left > 0 {
            self.bytes.push((value as u8 & low_mask(left)) << (8 - left));
        }
        self.len += width;
    }

    /// Appends `n` copies of `bit`, a word at a time.
    pub fn push_repeat(&mut self, bit: bool, n: usize) {
        let word = if bit { u64::MAX } else { 0 };
        let mut left = n;
        while left > 0 {
            let take = left.min(64);
            self.push_bits(word, take);
            left -= take;
        }
    }

    /// Appends every bit produced by another writer: a byte copy when
    /// this stream ends on a byte boundary, one shift per byte otherwise.
    pub fn extend(&mut self, other: &BitWriter) {
        let used = self.len % 8;
        if used == 0 {
            self.bytes.extend_from_slice(&other.bytes);
        } else {
            self.bytes.reserve(other.bytes.len());
            for &b in &other.bytes {
                *self.bytes.last_mut().expect("partial byte exists") |= b >> used;
                self.bytes.push(b << (8 - used));
            }
        }
        self.len += other.len;
        // The padding bits of `other`'s last byte are zero, so a spilled
        // byte past the new end carries nothing.
        self.bytes.truncate(self.len.div_ceil(8));
    }

    /// The underlying byte buffer (final partial byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the writer, returning `(bytes, bit_len)`.
    pub fn into_parts(self) -> (Vec<u8>, usize) {
        (self.bytes, self.len)
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reads up to `bit_len` bits from `bytes`.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        debug_assert!(bit_len <= bytes.len() * 8);
        Self { bytes, len: bit_len, pos: 0 }
    }

    /// Current read position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads one bit, or `None` at end of stream.
    #[inline]
    pub fn next_bit(&mut self) -> Option<bool> {
        if self.pos >= self.len {
            return None;
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `width` bits as an MSB-first integer; `None` if fewer remain.
    /// Consumes up to a byte per step, not a bit.
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        debug_assert!(width <= 64);
        if self.remaining() < width {
            return None;
        }
        let mut v = 0u64;
        let mut left = width;
        while left > 0 {
            let avail = 8 - self.pos % 8;
            let take = avail.min(left);
            let chunk = (self.bytes[self.pos / 8] >> (avail - take)) & low_mask(take);
            v = (v << take) | u64::from(chunk);
            self.pos += take;
            left -= take;
        }
        Some(v)
    }

    /// Advances past `n` bits without decoding them.
    pub fn skip(&mut self, n: usize) -> bool {
        if self.remaining() < n {
            return false;
        }
        self.pos += n;
        true
    }
}

/// The low `n` bits of a byte set (`n ≤ 8`).
#[inline]
fn low_mask(n: usize) -> u8 {
    (0xffu16 >> (8 - n)) as u8
}

/// Number of bits needed to represent values `0..m` (i.e. `⌈log2 m⌉`, with
/// the convention that one value still needs one bit slot in the thesis'
/// node headers: `bits_for(1) == 0`, `bits_for(2) == 1`, `bits_for(32) == 5`).
pub fn bits_for(m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        (usize::BITS - (m - 1).leading_zeros()) as usize
    }
}

/// Positions of the set bits of an LSB-first word array, ascending: one
/// `trailing_zeros` per set bit, not a per-bit loop. [`PackedBits::iter_ones`]
/// over bare words, for masks ANDed together outside a [`PackedBits`].
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + bit)
        })
    })
}

/// A length-tracked bit array packed into `u64` words.
///
/// Signature nodes are at most one partition fanout `M` wide, so a node is
/// one or a few words; AND/OR/containment over whole nodes become
/// word-parallel bitwise ops plus `count_ones`, the same treatment the
/// posting-list engine gives tid bitmaps. The word array is LSB-first:
/// bit `i` lives in `words[i / 64]` at position `i % 64`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty (zero-length) array.
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-zeros array of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-ones array of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Self::zeros(len);
        for (i, w) in b.words.iter_mut().enumerate() {
            let remaining = len - i * 64;
            *w = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
        b
    }

    /// Builds from a `bool` slice (index `i` → bit `i`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Self::zeros(bits.len());
        for (i, &set) in bits.iter().enumerate() {
            if set {
                b.words[i / 64] |= 1 << (i % 64);
            }
        }
        b
    }

    /// Expands back into a `bool` vector (round-trip/testing aid).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of bit slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`, or `false` past the end (trailing-zero semantics).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`, growing the array as needed.
    pub fn set(&mut self, i: usize) {
        if i >= self.len {
            self.len = i + 1;
            self.words.resize(self.len.div_ceil(64), 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i` (no-op past the end).
    pub fn clear(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// True when any bit is set (word-parallel).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits (word-parallel `count_ones`).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (LSB-first; trailing slots past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Positions of set bits, ascending (word-at-a-time trailing-zeros
    /// scan, not a per-bit loop).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_ones(&self.words)
    }

    /// Positions of clear bits below `len`, ascending (the same
    /// word-at-a-time scan as [`Self::iter_ones`], over inverted words).
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let live = (self.len - wi * 64).min(64);
            let mut w = !w & (u64::MAX >> (64 - live));
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Word-parallel OR; the result is as long as the longer operand.
    pub fn or(&self, other: &PackedBits) -> PackedBits {
        let len = self.len.max(other.len);
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0);
        }
        PackedBits { words, len }
    }

    /// Word-parallel AND; the result is as long as the shorter operand.
    pub fn and(&self, other: &PackedBits) -> PackedBits {
        let len = self.len.min(other.len);
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words[i] & other.words[i];
        }
        PackedBits { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.push(b);
        }
        let mut r = BitReader::new(w.as_bytes(), w.len());
        for &b in &pattern {
            assert_eq!(r.next_bit(), Some(b));
        }
        assert_eq!(r.next_bit(), None);
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.push_bits(0b10110, 5);
        w.push_bits(1023, 10);
        w.push_bits(0, 3);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert_eq!(r.read_bits(5), Some(0b10110));
        assert_eq!(r.read_bits(10), Some(1023));
        assert_eq!(r.read_bits(3), Some(0));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn extend_concatenates_streams() {
        let mut a = BitWriter::new();
        a.push_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.push_bits(0b0110, 4);
        a.extend(&b);
        let mut r = BitReader::new(a.as_bytes(), a.len());
        assert_eq!(r.read_bits(7), Some(0b1010110));
    }

    #[test]
    fn skip_and_position() {
        let mut w = BitWriter::new();
        w.push_bits(0xFF, 8);
        w.push_bits(0b01, 2);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert!(r.skip(8));
        assert_eq!(r.position(), 8);
        assert_eq!(r.read_bits(2), Some(0b01));
        assert!(!r.skip(1));
    }

    #[test]
    fn bits_for_matches_log2_ceiling() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(32), 5);
        assert_eq!(bits_for(33), 6);
        assert_eq!(bits_for(204), 8);
    }

    #[test]
    fn packed_bits_round_trip_bools() {
        let bools: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let packed = PackedBits::from_bools(&bools);
        assert_eq!(packed.len(), 130);
        assert_eq!(packed.to_bools(), bools);
        assert_eq!(packed.count_ones(), bools.iter().filter(|&&b| b).count());
        let ones: Vec<usize> = packed.iter_ones().collect();
        let expect: Vec<usize> =
            bools.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        assert_eq!(ones, expect);
        let zeros: Vec<usize> = packed.iter_zeros().collect();
        assert_eq!(zeros.len(), 130 - ones.len());
    }

    #[test]
    fn packed_bits_set_grows_and_get_is_trailing_zero() {
        let mut b = PackedBits::new();
        b.set(70);
        assert_eq!(b.len(), 71);
        assert!(b.get(70));
        assert!(!b.get(69));
        assert!(!b.get(500), "past-the-end reads are false");
        b.clear(70);
        assert!(!b.any());
    }

    #[test]
    fn packed_bits_word_parallel_ops() {
        let a = PackedBits::from_bools(&[true, true, false, true, false]);
        let b = PackedBits::from_bools(&[true, false, false, true]);
        let and = a.and(&b);
        assert_eq!(and.to_bools(), vec![true, false, false, true]);
        let or = a.or(&b);
        assert_eq!(or.to_bools(), vec![true, true, false, true, false]);
        // Ones/zeros constructors across a word boundary.
        let ones = PackedBits::ones(67);
        assert_eq!(ones.count_ones(), 67);
        assert!(ones.get(66) && !ones.get(67));
        assert_eq!(PackedBits::zeros(67).count_ones(), 0);
    }

    /// Bit-at-a-time references for the chunked codec paths.
    fn push_bits_ref(w: &mut BitWriter, value: u64, width: usize) {
        for i in (0..width).rev() {
            w.push((value >> i) & 1 == 1);
        }
    }

    fn read_bits_ref(r: &mut BitReader, width: usize) -> Option<u64> {
        if r.remaining() < width {
            return None;
        }
        Some((0..width).fold(0u64, |v, _| (v << 1) | u64::from(r.next_bit().unwrap())))
    }

    fn test_values() -> [u64; 6] {
        [0, u64::MAX, 0xA5A5_A5A5_A5A5_A5A5, 0x0123_4567_89AB_CDEF, 1, 1 << 63]
    }

    #[test]
    fn chunked_push_and_read_match_the_bitwise_reference_at_every_alignment() {
        for align in 0..8 {
            for width in 0..=64 {
                for value in test_values() {
                    let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                    // `align` leading ones: garbage above `width` in `value`
                    // must not leak into them or into the padding.
                    fast.push_repeat(true, align);
                    for _ in 0..align {
                        slow.push(true);
                    }
                    fast.push_bits(value, width);
                    push_bits_ref(&mut slow, value, width);
                    fast.push_bits(0b101, 3);
                    push_bits_ref(&mut slow, 0b101, 3);
                    assert_eq!(fast.len(), slow.len());
                    assert_eq!(fast.as_bytes(), slow.as_bytes(), "align {align} width {width}");

                    let mut a = BitReader::new(fast.as_bytes(), fast.len());
                    let mut b = BitReader::new(slow.as_bytes(), slow.len());
                    assert!(a.skip(align) && b.skip(align));
                    let got = a.read_bits(width);
                    assert_eq!(got, read_bits_ref(&mut b, width));
                    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                    assert_eq!(got, Some(value & mask));
                    assert_eq!(a.read_bits(3), Some(0b101));
                    assert_eq!(a.read_bits(1), None, "reads past the end stay None");
                    assert_eq!(a.position(), align + width + 3);
                }
            }
        }
    }

    #[test]
    fn chunked_extend_matches_the_bitwise_reference_at_every_alignment() {
        for align in 0..8 {
            for width in 0..=64 {
                for tail in [0usize, 1, 7, 8, 13] {
                    let mut other = BitWriter::new();
                    other.push_bits(0x0123_4567_89AB_CDEF, width);
                    other.push_repeat(true, tail);
                    let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                    fast.push_repeat(true, align);
                    slow.push_repeat(true, align);
                    fast.extend(&other);
                    let mut r = BitReader::new(other.as_bytes(), other.len());
                    while let Some(b) = r.next_bit() {
                        slow.push(b);
                    }
                    // Appending after the extend proves the padding stayed zero.
                    fast.push_bits(0b10, 2);
                    slow.push_bits(0b10, 2);
                    assert_eq!(fast.len(), slow.len());
                    assert_eq!(
                        fast.as_bytes(),
                        slow.as_bytes(),
                        "align {align} width {width} tail {tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn iter_zeros_is_the_complement_of_iter_ones() {
        for len in [0usize, 1, 63, 64, 65, 128, 130, 204] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 11 == 5).collect();
            let packed = PackedBits::from_bools(&bools);
            let zeros: Vec<usize> = packed.iter_zeros().collect();
            let expect: Vec<usize> = (0..len).filter(|&i| !bools[i]).collect();
            assert_eq!(zeros, expect, "len {len}");
            assert_eq!(PackedBits::ones(len).iter_zeros().count(), 0);
            assert_eq!(PackedBits::zeros(len).iter_zeros().count(), len);
        }
    }

    #[test]
    fn push_repeat_writes_runs() {
        let mut w = BitWriter::new();
        w.push_repeat(true, 9);
        w.push_repeat(false, 3);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        for _ in 0..9 {
            assert_eq!(r.next_bit(), Some(true));
        }
        for _ in 0..3 {
            assert_eq!(r.next_bit(), Some(false));
        }
        assert_eq!(r.next_bit(), None);
    }
}
