//! Node-level adaptive signature coding (Section 4.2.2, Table 4.2).
//!
//! Every signature node is serialized as `[CS: 3][Len: L][coding region]`:
//!
//! * `CS` selects the scheme — `000` baseline (`BL`), `01x` position index
//!   (`PI`), `10x` run-length (`RL`), `11x` prefix compression (`PC`);
//!   the last bit distinguishes the *sparse* (encode 1s) and *dense*
//!   (encode 0s) variants.
//! * `Len` holds the region length − 1 (the thesis' one-less principle).
//! * Every region starts with the original bit-array length − 1 in
//!   `w = ⌈log2 M⌉` bits so trailing-bit truncation is reversible.
//!
//! [`encode_best`] tries every applicable scheme and keeps the smallest —
//! the adaptive choice that Figure 4.10 measures against `BL`-only coding.
//!
//! Bit arrays travel as packed-word [`PackedBits`]; [`decode_node`] is
//! total over arbitrary input (corrupt streams return `None`, never
//! panic), and [`skip_node`] advances past a coding by reading only the
//! 3 + `Len` header bits — the primitive behind the per-partial node
//! directory of [`crate::sigcube`].

use rcube_storage::bits::{bits_for, BitReader, BitWriter, PackedBits};

/// Coding schemes (values match the CS field layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Baseline: raw bit array (with trailing-zero truncation).
    Bl,
    /// Position index over 1s (sparse) or 0s (dense).
    Pi { dense: bool },
    /// Run-length over 0-runs (sparse) or 1-runs (dense).
    Rl { dense: bool },
    /// Prefix compression of position lists.
    Pc { dense: bool },
}

impl Scheme {
    fn cs_bits(self) -> u64 {
        match self {
            Scheme::Bl => 0b000,
            Scheme::Pi { dense } => 0b010 | u64::from(dense),
            Scheme::Rl { dense } => 0b100 | u64::from(dense),
            Scheme::Pc { dense } => 0b110 | u64::from(dense),
        }
    }

    /// `None` for CS values no encoder emits (corrupt input).
    fn from_cs(cs: u64) -> Option<Scheme> {
        match cs {
            0b000 => Some(Scheme::Bl),
            0b010 | 0b011 => Some(Scheme::Pi { dense: cs & 1 == 1 }),
            0b100 | 0b101 => Some(Scheme::Rl { dense: cs & 1 == 1 }),
            0b110 | 0b111 => Some(Scheme::Pc { dense: cs & 1 == 1 }),
            _ => None,
        }
    }

    /// Every scheme variant, in the order [`encode_best`] breaks ties.
    const ALL: [Scheme; 7] = [
        Scheme::Bl,
        Scheme::Pi { dense: false },
        Scheme::Pi { dense: true },
        Scheme::Rl { dense: false },
        Scheme::Rl { dense: true },
        Scheme::Pc { dense: false },
        Scheme::Pc { dense: true },
    ];

    /// Every scheme variant, for exhaustive tests.
    pub fn all() -> Vec<Scheme> {
        Self::ALL.to_vec()
    }
}

/// Width of position/length fields for fanout `m`.
fn w_of(m: usize) -> usize {
    bits_for(m).max(1)
}

/// Width of the `Len` header: enough for the worst-case region of *any*
/// scheme (position lists and run codes can exceed the BL region; RL's
/// worst case is `2w + 2` bits per set bit).
fn len_width(m: usize) -> usize {
    let w = w_of(m);
    bits_for(w + m * (2 * w + 2) + 1).max(1)
}

/// PC prefix width for fanout `m`: `p = log2(2^n / (n ln 2))`, clamped.
fn pc_split(m: usize) -> (usize, usize) {
    let n = w_of(m);
    let p = (((1u64 << n) as f64) / (n as f64 * std::f64::consts::LN_2))
        .log2()
        .round()
        .clamp(1.0, (n.max(2) - 1) as f64) as usize;
    (p, n - p)
}

/// Encodes the region for `scheme`; returns `None` when inapplicable.
fn encode_region(scheme: Scheme, bits: &PackedBits, m: usize) -> Option<BitWriter> {
    let len = bits.len();
    if len == 0 || len > m {
        return None;
    }
    let w = w_of(m);
    let mut out = BitWriter::new();
    out.push_bits((len - 1) as u64, w); // original length, one-less
    match scheme {
        Scheme::Bl => {
            // Raw array with trailing zeros truncated. Words are LSB-first
            // and the stream MSB-first, so each word goes out reversed.
            let payload = bl_payload_len(bits);
            for (wi, &word) in bits.words().iter().enumerate() {
                let take = payload.saturating_sub(wi * 64).min(64);
                if take == 0 {
                    break;
                }
                out.push_bits(word.reverse_bits() >> (64 - take), take);
            }
        }
        Scheme::Pi { dense } => {
            let positions: Vec<usize> =
                if dense { bits.iter_zeros().collect() } else { bits.iter_ones().collect() };
            for &p in &positions {
                out.push_bits(p as u64, w);
            }
        }
        Scheme::Rl { dense } => {
            // Sparse: runs of `i` zeros followed by a 1, per set bit.
            // Dense: runs of `i` ones followed by a 0, per clear bit.
            let positions: Vec<usize> =
                if dense { bits.iter_zeros().collect() } else { bits.iter_ones().collect() };
            let mut prev = 0usize;
            for &p in &positions {
                let run = p - prev;
                push_run(&mut out, run as u64);
                prev = p + 1;
            }
        }
        Scheme::Pc { dense } => {
            if w_of(m) < 2 {
                return None; // no prefix/suffix split possible
            }
            let (p, s) = pc_split(m);
            let positions: Vec<usize> =
                if dense { bits.iter_zeros().collect() } else { bits.iter_ones().collect() };
            let mut i = 0;
            while i < positions.len() {
                let prefix = positions[i] >> s;
                let mut j = i;
                while j < positions.len() && (positions[j] >> s) == prefix {
                    j += 1;
                }
                let count = j - i;
                if count > (1 << s) {
                    return None; // cannot express the group size
                }
                out.push_bits(prefix as u64, p);
                out.push_bits((count - 1) as u64, s);
                for &q in &positions[i..j] {
                    out.push_bits((q & ((1 << s) - 1)) as u64, s);
                }
                i = j;
            }
        }
    }
    Some(out)
}

/// BL payload bits: the array up to and including its last set bit.
fn bl_payload_len(bits: &PackedBits) -> usize {
    let words = bits.words();
    words
        .iter()
        .rposition(|&w| w != 0)
        .map_or(0, |wi| wi * 64 + 64 - words[wi].leading_zeros() as usize)
}

/// Value bits of the run code for a run of `i`.
fn run_value_bits(i: u64) -> usize {
    bits_for((i + 1) as usize).max(1)
}

/// Gamma-style run code: `max(1, ⌈log2(i+1)⌉) − 1` ones, a zero, then `i`
/// (Section 4.2.2's run-length rule; `i = 1` encodes as `01`).
fn push_run(out: &mut BitWriter, i: u64) {
    let bits = run_value_bits(i);
    out.push_repeat(true, bits - 1);
    out.push(false);
    out.push_bits(i, bits);
}

/// What the position-list schemes (PI, RL, PC) cost for one polarity,
/// tallied in a single pass over the positions.
struct PositionCosts {
    /// Positions listed.
    count: usize,
    /// Total bits of the RL run codes.
    rl_bits: usize,
    /// Distinct PC prefix groups.
    pc_groups: usize,
}

fn position_costs(positions: impl Iterator<Item = usize>, pc_suffix: usize) -> PositionCosts {
    let mut costs = PositionCosts { count: 0, rl_bits: 0, pc_groups: 0 };
    let mut next_run_start = 0usize;
    let mut last_prefix = None;
    for p in positions {
        costs.count += 1;
        costs.rl_bits += 2 * run_value_bits((p - next_run_start) as u64);
        next_run_start = p + 1;
        let prefix = p >> pc_suffix;
        if last_prefix != Some(prefix) {
            costs.pc_groups += 1;
            last_prefix = Some(prefix);
        }
    }
    costs
}

/// The region length in bits every scheme would produce for `bits`, in
/// [`Scheme::ALL`] order — computed from the set/clear positions alone,
/// nothing is encoded. `None` marks an inapplicable scheme, exactly where
/// [`encode_region`] returns `None`.
fn region_lens(bits: &PackedBits, m: usize) -> [Option<usize>; 7] {
    let len = bits.len();
    if len == 0 || len > m {
        return [None; 7];
    }
    let w = w_of(m);
    // PC needs a prefix/suffix split; a group never outgrows its count
    // field, because a prefix has only `2^s` distinct positions under it.
    let (p, s) = if w < 2 { (0, 0) } else { pc_split(m) };
    let ones = position_costs(bits.iter_ones(), s);
    let zeros = position_costs(bits.iter_zeros(), s);
    let pi = |c: &PositionCosts| Some(w + c.count * w);
    let rl = |c: &PositionCosts| Some(w + c.rl_bits);
    let pc = |c: &PositionCosts| (w >= 2).then(|| w + c.pc_groups * (p + s) + c.count * s);
    [
        Some(w + bl_payload_len(bits)),
        pi(&ones),
        pi(&zeros),
        rl(&ones),
        rl(&zeros),
        pc(&ones),
        pc(&zeros),
    ]
}

fn read_run(r: &mut BitReader) -> Option<u64> {
    let mut count = 0usize;
    while r.next_bit()? {
        count += 1;
        if count >= 64 {
            // Corrupt: a valid u64 run code has at most 63 unary bits
            // (the value is read as `count + 1 ≤ 64` bits below).
            return None;
        }
    }
    r.read_bits(count + 1)
}

/// Encodes `bits` with a specific scheme (testing / Table 4.2 repro).
/// Returns the total coded size in bits, or `None` if inapplicable.
pub fn encode_with(
    scheme: Scheme,
    bits: &PackedBits,
    m: usize,
    out: &mut BitWriter,
) -> Option<usize> {
    let region = encode_region(scheme, bits, m)?;
    out.push_bits(scheme.cs_bits(), 3);
    out.push_bits((region.len().max(1) - 1) as u64, len_width(m));
    out.extend(&region);
    Some(3 + len_width(m) + region.len())
}

/// Encodes `bits` with the smallest applicable scheme; returns the winner.
///
/// Size-first: every scheme's region length comes from [`region_lens`]
/// and only the winner is encoded. Ties go to the earliest scheme in
/// [`Scheme::ALL`] order (strict `<`), so the emitted bits are the ones an
/// encode-all-seven-and-compare pass would pick.
pub fn encode_best(bits: &PackedBits, m: usize, out: &mut BitWriter) -> Scheme {
    let mut best: Option<(Scheme, usize)> = None;
    for (scheme, len) in Scheme::ALL.into_iter().zip(region_lens(bits, m)) {
        if let Some(len) = len {
            if best.is_none_or(|(_, b)| len < b) {
                best = Some((scheme, len));
            }
        }
    }
    let (scheme, predicted) = best.expect("BL always applies");
    let coded = encode_with(scheme, bits, m, out).expect("a sized scheme applies");
    debug_assert_eq!(coded, 3 + len_width(m) + predicted, "{scheme:?} size model diverged");
    scheme
}

/// Advances past one node coding reading only its `[CS][Len]` header —
/// no region bits are decoded. Returns the total coding size in bits, or
/// `None` when the stream is truncated.
pub fn skip_node(r: &mut BitReader, m: usize) -> Option<usize> {
    r.read_bits(3)?;
    let region_len = r.read_bits(len_width(m))? as usize + 1;
    if !r.skip(region_len) {
        return None;
    }
    Some(3 + len_width(m) + region_len)
}

/// Decodes one node coding, returning the reconstructed bit array.
/// Total over arbitrary input: any structurally invalid coding (unknown
/// CS, out-of-range position, truncated region) yields `None`.
pub fn decode_node(r: &mut BitReader, m: usize) -> Option<PackedBits> {
    let cs = r.read_bits(3)?;
    let scheme = Scheme::from_cs(cs)?;
    let region_len = r.read_bits(len_width(m))? as usize + 1;
    if r.remaining() < region_len {
        return None; // truncated region
    }
    let start = r.position();
    let w = w_of(m);
    let len = r.read_bits(w)? as usize + 1;
    if len > m.max(1) {
        return None; // longer than any node of this partition
    }
    let mut bits = match scheme {
        Scheme::Bl
        | Scheme::Pi { dense: false }
        | Scheme::Rl { dense: false }
        | Scheme::Pc { dense: false } => PackedBits::zeros(len),
        _ => PackedBits::ones(len),
    };
    match scheme {
        Scheme::Bl => {
            let payload = (region_len.checked_sub(w)?).min(len);
            for i in 0..payload {
                if r.next_bit()? {
                    bits.set(i);
                }
            }
        }
        Scheme::Pi { dense } => {
            let count = region_len.checked_sub(w)? / w;
            for _ in 0..count {
                let p = r.read_bits(w)? as usize;
                if p >= len {
                    return None;
                }
                if dense {
                    bits.clear(p);
                } else {
                    bits.set(p);
                }
            }
        }
        Scheme::Rl { dense } => {
            let mut pos = 0usize;
            while r.position() - start < region_len {
                let run = read_run(r)? as usize;
                pos += run;
                if pos >= len {
                    break;
                }
                if dense {
                    bits.clear(pos);
                } else {
                    bits.set(pos);
                }
                pos += 1;
            }
        }
        Scheme::Pc { dense } => {
            if w < 2 {
                return None; // PC is never emitted for such fanouts
            }
            let (p, s) = pc_split(m);
            while r.position() - start < region_len {
                let prefix = r.read_bits(p)? as usize;
                let count = r.read_bits(s)? as usize + 1;
                for _ in 0..count {
                    let suffix = r.read_bits(s)? as usize;
                    let q = (prefix << s) | suffix;
                    if q < len {
                        if dense {
                            bits.clear(q);
                        } else {
                            bits.set(q);
                        }
                    }
                }
            }
        }
    }
    // Skip any remaining region bits (schemes may finish early).
    let consumed = r.position() - start;
    if consumed > region_len || !r.skip(region_len - consumed) {
        return None;
    }
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(scheme: Scheme, bits: &[bool], m: usize) -> Option<Vec<bool>> {
        let mut w = BitWriter::new();
        encode_with(scheme, &PackedBits::from_bools(bits), m, &mut w)?;
        let mut r = BitReader::new(w.as_bytes(), w.len());
        decode_node(&mut r, m).map(|b| b.to_bools())
    }

    /// Table 4.2's running example: a 28-bit array with M = 32 and 1s at
    /// positions 1, 2, 10, 11, 27 (0-based reading of
    /// `0110000000110000000000000001`).
    fn table_4_2_bits() -> Vec<bool> {
        let s = "0110000000110000000000000001";
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn all_schemes_round_trip_table_4_2() {
        let bits = table_4_2_bits();
        for scheme in Scheme::all() {
            if let Some(got) = round_trip(scheme, &bits, 32) {
                assert_eq!(got, bits, "scheme {scheme:?} corrupted the array");
            }
        }
    }

    #[test]
    fn sparse_schemes_beat_baseline_on_table_4_2() {
        let bits = PackedBits::from_bools(&table_4_2_bits());
        let size = |s| {
            let mut w = BitWriter::new();
            encode_with(s, &bits, 32, &mut w).map(|_| w.len())
        };
        let bl = size(Scheme::Bl).unwrap();
        let rl = size(Scheme::Rl { dense: false }).unwrap();
        let pi = size(Scheme::Pi { dense: false }).unwrap();
        assert!(rl < bl, "RL {rl} should beat BL {bl} on a sparse array");
        assert!(pi < bl, "PI {pi} should beat BL {bl} on a sparse array");
    }

    #[test]
    fn dense_arrays_prefer_dense_variants() {
        // 30 ones with two zeros.
        let mut bits = vec![true; 32];
        bits[5] = false;
        bits[20] = false;
        let mut w = BitWriter::new();
        let winner = encode_best(&PackedBits::from_bools(&bits), 32, &mut w);
        assert!(
            matches!(
                winner,
                Scheme::Pi { dense: true }
                    | Scheme::Rl { dense: true }
                    | Scheme::Pc { dense: true }
            ),
            "expected a dense variant, got {winner:?}"
        );
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert_eq!(decode_node(&mut r, 32).unwrap().to_bools(), bits);
    }

    #[test]
    fn best_encoding_round_trips_exhaustively() {
        // All 2^10 arrays of length 10 with m = 16.
        for mask in 0u32..1024 {
            let bits: Vec<bool> = (0..10).map(|i| mask >> i & 1 == 1).collect();
            let mut w = BitWriter::new();
            encode_best(&PackedBits::from_bools(&bits), 16, &mut w);
            let mut r = BitReader::new(w.as_bytes(), w.len());
            assert_eq!(decode_node(&mut r, 16).unwrap().to_bools(), bits, "mask {mask}");
        }
    }

    #[test]
    fn concatenated_nodes_decode_in_sequence() {
        let arrays = [vec![true, false, true], vec![false, false, false, true], vec![true; 7]];
        let mut w = BitWriter::new();
        for a in &arrays {
            encode_best(&PackedBits::from_bools(a), 8, &mut w);
        }
        let mut r = BitReader::new(w.as_bytes(), w.len());
        for a in &arrays {
            assert_eq!(decode_node(&mut r, 8).unwrap().to_bools(), *a);
        }
    }

    #[test]
    fn skip_node_matches_decode_consumption() {
        let arrays = [vec![true, false, true], vec![false; 6], vec![true; 7], vec![false, true]];
        let mut w = BitWriter::new();
        for a in &arrays {
            encode_best(&PackedBits::from_bools(a), 8, &mut w);
        }
        let mut skipper = BitReader::new(w.as_bytes(), w.len());
        let mut decoder = BitReader::new(w.as_bytes(), w.len());
        for a in &arrays {
            let before = decoder.position();
            let node = decode_node(&mut decoder, 8).unwrap();
            assert_eq!(node.to_bools(), *a);
            let skipped = skip_node(&mut skipper, 8).unwrap();
            assert_eq!(skipped, decoder.position() - before, "skip width diverges from decode");
            assert_eq!(skipper.position(), decoder.position());
        }
        assert!(skip_node(&mut skipper, 8).is_none(), "end of stream");
    }

    #[test]
    fn corrupt_codings_return_none_not_panic() {
        // Unknown CS value 0b001.
        let mut w = BitWriter::new();
        w.push_bits(0b001, 3);
        w.push_bits(20, len_width(16));
        w.push_repeat(true, 21);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert!(decode_node(&mut r, 16).is_none());

        // Truncated region: header promises more bits than the stream has.
        let mut w = BitWriter::new();
        w.push_bits(0b000, 3);
        w.push_bits(60, len_width(16));
        w.push_repeat(false, 4); // far fewer than the 61 promised
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert!(decode_node(&mut r, 16).is_none());

        // RL run code with a 64-bit unary prefix: must be rejected, not
        // panic in BitReader::read_bits(65).
        let mut w = BitWriter::new();
        w.push_bits(0b100, 3); // RL sparse
        let region_len = w_of(16) + 64 + 1 + 8;
        w.push_bits((region_len - 1) as u64, len_width(16));
        w.push_bits(9, w_of(16)); // len = 10
        w.push_repeat(true, 64); // unary prefix longer than any valid run
        w.push(false);
        w.push_repeat(false, 8);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert!(decode_node(&mut r, 16).is_none());

        // PI position past the recorded array length.
        let mut w = BitWriter::new();
        w.push_bits(0b010, 3);
        let region = {
            let mut reg = BitWriter::new();
            reg.push_bits(1, w_of(16)); // len = 2
            reg.push_bits(9, w_of(16)); // position 9 ≥ len
            reg
        };
        w.push_bits((region.len() - 1) as u64, len_width(16));
        w.extend(&region);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert!(decode_node(&mut r, 16).is_none());

        // Exhaustive garbage: random byte soup must never panic — including
        // degenerate fanouts (w_of(m) bottoms out at 1, so the PI/PC field
        // arithmetic stays well-defined even for m ∈ {0, 1}).
        let mut state = 0x9e3779b97f4a7c15u64;
        for m in [0usize, 1, 2, 32] {
            for _ in 0..2_000 {
                let bytes: Vec<u8> = (0..16)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as u8
                    })
                    .collect();
                let mut r = BitReader::new(&bytes, bytes.len() * 8);
                let _ = decode_node(&mut r, m); // may be Some or None, never panic
            }
        }
    }

    #[test]
    fn run_code_matches_paper_example() {
        // i = 1 encodes as "01" (Section 4.2.2).
        let mut w = BitWriter::new();
        push_run(&mut w, 1);
        assert_eq!(w.len(), 2);
        let mut r = BitReader::new(w.as_bytes(), w.len());
        assert_eq!(r.read_bits(2), Some(0b01));
        // Round trip a spread of run lengths.
        for i in [0u64, 1, 2, 3, 4, 7, 8, 100, 1023] {
            let mut w = BitWriter::new();
            push_run(&mut w, i);
            let mut r = BitReader::new(w.as_bytes(), w.len());
            assert_eq!(read_run(&mut r), Some(i), "run {i}");
        }
    }

    #[test]
    fn single_bit_arrays_work() {
        for bit in [true, false] {
            let bits = vec![bit];
            let mut w = BitWriter::new();
            encode_best(&PackedBits::from_bools(&bits), 4, &mut w);
            let mut r = BitReader::new(w.as_bytes(), w.len());
            assert_eq!(decode_node(&mut r, 4).unwrap().to_bools(), bits);
        }
    }

    #[test]
    fn large_fanout_round_trips() {
        // Thesis-scale fanout M = 204.
        let mut bits = vec![false; 204];
        for i in [0usize, 7, 63, 128, 203] {
            bits[i] = true;
        }
        for scheme in Scheme::all() {
            if let Some(got) = round_trip(scheme, &bits, 204) {
                assert_eq!(got, bits, "scheme {scheme:?}");
            }
        }
    }

    /// The encode-all-seven-and-compare reference `encode_best` replaced:
    /// materializes every applicable region and keeps the first smallest.
    fn encode_best_exhaustive(bits: &PackedBits, m: usize, out: &mut BitWriter) -> Scheme {
        let mut best: Option<(Scheme, BitWriter)> = None;
        for scheme in Scheme::all() {
            if let Some(region) = encode_region(scheme, bits, m) {
                if best.as_ref().is_none_or(|(_, b)| region.len() < b.len()) {
                    best = Some((scheme, region));
                }
            }
        }
        let (scheme, region) = best.expect("BL always applies");
        out.push_bits(scheme.cs_bits(), 3);
        out.push_bits((region.len().max(1) - 1) as u64, len_width(m));
        out.extend(&region);
        scheme
    }

    /// Asserts size-first ≡ exhaustive (scheme and emitted bits, at an
    /// unaligned start) and that the coding decodes back to `bools`.
    fn assert_matches_exhaustive(bools: &[bool], m: usize) {
        let bits = PackedBits::from_bools(bools);
        let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
        fast.push_bits(0b101, 3);
        slow.push_bits(0b101, 3);
        let got = encode_best(&bits, m, &mut fast);
        let want = encode_best_exhaustive(&bits, m, &mut slow);
        assert_eq!(got, want, "winner diverged: m {m}, node {bools:?}");
        assert_eq!(fast.len(), slow.len(), "m {m}, node {bools:?}");
        assert_eq!(fast.as_bytes(), slow.as_bytes(), "m {m}, node {bools:?}");
        let mut r = BitReader::new(fast.as_bytes(), fast.len());
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(decode_node(&mut r, m).expect("own coding").to_bools(), bools);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn size_first_encoding_is_bit_identical_to_the_exhaustive_encoder() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for m in 1..=256usize {
            // Full-width and truncated arrays: empty, full, a lone bit at
            // either end, and random fills from sparse to dense.
            for len in [m, m.div_ceil(2), 1] {
                let mut nodes = vec![vec![false; len], vec![true; len]];
                for edge in [0, len - 1] {
                    let mut sparse = vec![false; len];
                    sparse[edge] = true;
                    nodes.push(sparse.iter().map(|&b| !b).collect());
                    nodes.push(sparse);
                }
                for one_in in [16u64, 4, 2] {
                    let sparse: Vec<bool> = (0..len).map(|_| next() % one_in == 0).collect();
                    nodes.push(sparse.iter().map(|&b| !b).collect());
                    nodes.push(sparse);
                }
                for node in &nodes {
                    assert_matches_exhaustive(node, m);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn proptest_size_first_matches_exhaustive(
            raw in proptest::collection::vec(proptest::bool::ANY, 1..200),
            slack in 0usize..57,
        ) {
            assert_matches_exhaustive(&raw, raw.len() + slack);
        }

        #[test]
        fn proptest_best_roundtrip(raw in proptest::collection::vec(proptest::bool::ANY, 1..64)) {
            let m = 64;
            let mut w = BitWriter::new();
            encode_best(&PackedBits::from_bools(&raw), m, &mut w);
            let mut r = BitReader::new(w.as_bytes(), w.len());
            let got = decode_node(&mut r, m).unwrap();
            proptest::prop_assert_eq!(got.to_bools(), raw);
        }

        #[test]
        fn proptest_every_scheme_roundtrip(raw in proptest::collection::vec(proptest::bool::ANY, 1..32)) {
            let m = 32;
            for scheme in Scheme::all() {
                if let Some(got) = round_trip(scheme, &raw, m) {
                    proptest::prop_assert_eq!(&got, &raw, "scheme {:?}", scheme);
                }
            }
        }
    }
}
