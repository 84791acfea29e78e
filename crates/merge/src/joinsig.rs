//! Join-signatures: materialized empty-state pruning (Section 5.3).
//!
//! For every non-leaf, non-empty joint state `S`, the join-signature stores
//! which child combinations are non-empty. Small states keep an exact set;
//! states whose combination space exceeds a page use a bloom filter
//! (false positives are corrected one level down, Lemma 8). Signatures are
//! computed tuple-orientedly from per-index node paths (Section 5.3.2).
//!
//! State signatures are *serialized into their pages* and probed zero-copy:
//! the exact form is a sorted `u64` combo posting list binary-searched
//! straight off the stored bytes, the bloom form a [`BloomView`] over the
//! stored bit bytes. A [`JoinSigCursor`] caches the shared page handles it
//! fetched (charging I/O once per state) — nothing is deserialized into
//! side structures, mirroring the lazy signature read path of
//! `rcube_core::sigcube`.

use std::collections::HashMap;
use std::sync::Arc;

use rcube_index::HierIndex;
use rcube_storage::{DiskSim, PageId, PageStore, StorageError};
use rcube_table::Tid;

use crate::bloom::{BloomFilter, BloomView};

/// Sentinel child position meaning "the (leaf) node itself".
pub const SELF_POS: u16 = u16::MAX;

/// Payload tag: sorted exact combo list.
const TAG_EXACT: u8 = 0;
/// Payload tag: bloom filter.
const TAG_BLOOM: u8 = 1;

/// Serializes a state's combo set: `[tag][count: u32][combos: u64...]` for
/// the exact form, `[tag][k: u32][num_bits: u64][bit bytes]` for bloom.
/// Returns `(payload, metric_bytes)` where `metric_bytes` is Figure
/// 5.22's space accounting: the conceptual `card(S)`-bit array for exact
/// states, the filter size for bloom states.
fn encode_state_sig(combos: &[u64], card: u64, page_bits: usize) -> (Vec<u8>, usize) {
    if card as usize > page_bits {
        let mut bloom = BloomFilter::new(combos.len(), page_bits);
        for &c in combos {
            bloom.insert(c);
        }
        let bits = bloom.to_bytes();
        let mut out = Vec::with_capacity(13 + bits.len());
        out.push(TAG_BLOOM);
        out.extend_from_slice(&bloom.num_hashes().to_le_bytes());
        out.extend_from_slice(&(bloom.num_bits() as u64).to_le_bytes());
        out.extend_from_slice(&bits);
        (out, bloom.byte_size())
    } else {
        let mut sorted: Vec<u64> = combos.to_vec();
        sorted.sort_unstable();
        let mut out = Vec::with_capacity(5 + sorted.len() * 8);
        out.push(TAG_EXACT);
        out.extend_from_slice(&(sorted.len() as u32).to_le_bytes());
        for c in sorted {
            out.extend_from_slice(&c.to_le_bytes());
        }
        (out, (card as usize).div_ceil(8))
    }
}

/// Probes a serialized state signature without deserializing it: binary
/// search over the stored LE `u64` list, or a [`BloomView`] probe.
fn state_sig_contains(bytes: &[u8], combo: u64) -> bool {
    let read_u64 = |off: usize| {
        u64::from_le_bytes(bytes[off..off + 8].try_into().expect("bounded by length checks"))
    };
    match bytes.first() {
        Some(&TAG_EXACT) => {
            if bytes.len() < 5 {
                return false;
            }
            let count = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
            if bytes.len() < 5 + count * 8 {
                return false;
            }
            // Binary search directly over the stored posting list.
            let (mut lo, mut hi) = (0usize, count);
            while lo < hi {
                let mid = (lo + hi) / 2;
                match read_u64(5 + mid * 8).cmp(&combo) {
                    std::cmp::Ordering::Equal => return true,
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            false
        }
        Some(&TAG_BLOOM) => {
            if bytes.len() < 13 {
                return false;
            }
            let k = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
            let num_bits = read_u64(5) as usize;
            if bytes.len() < 13 + num_bits.div_ceil(8) {
                return false;
            }
            BloomView::new(&bytes[13..], num_bits, k).contains(combo)
        }
        _ => false,
    }
}

/// A state key: the concatenated node paths of the joint state.
pub type StateKey = Vec<Vec<u16>>;

/// The join-signature over `m` indices (or a pair, in pairwise mode).
#[derive(Debug)]
pub struct JoinSignature {
    /// Which original indices this signature covers (identity for full
    /// signatures; the pair for pairwise ones).
    members: Vec<usize>,
    /// Per-index combination base (`Mi + 2`, reserving the SELF sentinel).
    bases: Vec<u64>,
    /// State catalog: key → the page its serialized signature lives on.
    /// The signature *data* lives only in the store.
    pages: HashMap<StateKey, PageId>,
    store: PageStore,
    total_bytes: usize,
}

impl JoinSignature {
    /// Builds the full `m`-way join-signature from per-index tuple paths
    /// (`tuple_paths[i]` maps tid → node path in index `i`, *without* the
    /// leaf slot).
    pub fn build(
        indices: &[&dyn HierIndex],
        tuple_paths: &[HashMap<Tid, Vec<u16>>],
        disk: &DiskSim,
    ) -> Self {
        let members = (0..indices.len()).collect();
        Self::build_over(indices, tuple_paths, members, disk)
    }

    /// Builds a pairwise join-signature for indices `(a, b)`.
    pub fn build_pair(
        indices: &[&dyn HierIndex],
        tuple_paths: &[HashMap<Tid, Vec<u16>>],
        a: usize,
        b: usize,
        disk: &DiskSim,
    ) -> Self {
        Self::build_over(indices, tuple_paths, vec![a, b], disk)
    }

    fn build_over(
        indices: &[&dyn HierIndex],
        tuple_paths: &[HashMap<Tid, Vec<u16>>],
        members: Vec<usize>,
        disk: &DiskSim,
    ) -> Self {
        let bases: Vec<u64> = members.iter().map(|&i| indices[i].max_fanout() as u64 + 2).collect();
        let max_depth =
            members.iter().map(|&i| indices[i].height().saturating_sub(1)).max().unwrap_or(0);

        // Recursive-sort equivalent: group tuples by state key per level
        // and record child combinations.
        let mut combos: HashMap<StateKey, std::collections::HashSet<u64>> = HashMap::new();
        let some_member = members[0];
        for tid in tuple_paths[some_member].keys() {
            let paths: Vec<&Vec<u16>> = members.iter().map(|&i| &tuple_paths[i][tid]).collect();
            for level in 0..max_depth {
                // Skip levels where every member is already at its leaf.
                if paths.iter().all(|p| level >= p.len()) {
                    break;
                }
                let key: StateKey =
                    paths.iter().map(|p| p[..level.min(p.len())].to_vec()).collect();
                let combo = encode_combo(
                    &bases,
                    &paths
                        .iter()
                        .map(|p| p.get(level).copied().unwrap_or(SELF_POS))
                        .collect::<Vec<u16>>(),
                );
                combos.entry(key).or_default().insert(combo);
            }
        }

        // Materialize: exact set or bloom filter, serialized into pages
        // (lookups probe the stored bytes zero-copy and charge a read).
        let store = PageStore::new();
        let mut pages = HashMap::with_capacity(combos.len());
        let mut total_bytes = 0usize;
        let page_bits = disk.page_size() * 8;
        let card: u64 = bases.iter().product();
        for (key, set) in combos {
            let list: Vec<u64> = set.into_iter().collect();
            let (payload, metric_bytes) = encode_state_sig(&list, card, page_bits);
            total_bytes += metric_bytes;
            pages.insert(key, store.put(disk, payload));
        }
        Self { members, bases, pages, store, total_bytes }
    }

    /// Indices covered by this signature.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Total signature bytes (Figure 5.22 metric).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Number of materialized state signatures.
    pub fn num_states(&self) -> usize {
        self.pages.len()
    }

    fn page_of(&self, key: &StateKey) -> Option<PageId> {
        self.pages.get(key).copied()
    }
}

fn encode_combo(bases: &[u64], combo: &[u16]) -> u64 {
    debug_assert_eq!(bases.len(), combo.len());
    combo.iter().zip(bases).fold(0u64, |acc, (&c, &b)| {
        let v = if c == SELF_POS { 0 } else { c as u64 + 1 };
        acc * b + v
    })
}

/// Per-query cursor over one or more join-signatures: caches the shared
/// page handles of touched state signatures (charging I/O once per state)
/// and probes the stored bytes zero-copy.
///
/// The cursor captures its metering device at construction — the probe
/// API unified with `rcube_core::sigcube::Pruner`: callers probe with
/// `check_child(key, combo)` / `check_state(key)` and never thread
/// `&DiskSim` through the search.
#[derive(Debug)]
pub struct JoinSigCursor<'a> {
    sigs: Vec<&'a JoinSignature>,
    disk: &'a DiskSim,
    /// `(signature, state key)` → shared payload view (`None` = state
    /// absent, i.e. provably empty).
    views: HashMap<(usize, StateKey), Option<Arc<[u8]>>>,
    /// Signature page loads performed (the `PE+SIG(SIG)` bar of Fig 5.10).
    pub loads: u64,
    /// Payload bytes fetched (each counted once per cursor).
    pub bytes_loaded: u64,
}

impl<'a> JoinSigCursor<'a> {
    pub fn new(sigs: Vec<&'a JoinSignature>, disk: &'a DiskSim) -> Self {
        Self { sigs, disk, views: HashMap::new(), loads: 0, bytes_loaded: 0 }
    }

    /// True when the child `combo` of the state `key` (full, over all `m`
    /// indices) may be non-empty according to every signature.
    pub fn check_child(&mut self, key: &StateKey, combo: &[u16]) -> Result<bool, StorageError> {
        for si in 0..self.sigs.len() {
            let sig = self.sigs[si];
            let sub_key: StateKey = sig.members.iter().map(|&i| key[i].clone()).collect();
            let sub_combo: Vec<u16> = sig.members.iter().map(|&i| combo[i]).collect();
            let code = encode_combo(&sig.bases, &sub_combo);
            match self.view(si, sub_key)? {
                Some(bytes) if state_sig_contains(&bytes, code) => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// True when the state itself exists in every signature (corrects bloom
    /// false positives one level down, Section 5.3.3).
    pub fn check_state(&mut self, key: &StateKey) -> Result<bool, StorageError> {
        for si in 0..self.sigs.len() {
            let sig = self.sigs[si];
            let sub_key: StateKey = sig.members.iter().map(|&i| key[i].clone()).collect();
            if sub_key.iter().all(|p| p.is_empty()) {
                continue; // root always exists
            }
            if self.view(si, sub_key)?.is_none() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The cached payload view of a state signature, fetching (and
    /// charging) it on first access; a page that does not read back is a
    /// typed error.
    fn view(&mut self, si: usize, key: StateKey) -> Result<Option<Arc<[u8]>>, StorageError> {
        if let Some(v) = self.views.get(&(si, key.clone())) {
            return Ok(v.clone());
        }
        let sig = self.sigs[si];
        let fetched = match sig.page_of(&key) {
            Some(page) => {
                let bytes = sig.store.try_get_bytes(self.disk, page)?;
                self.loads += 1;
                self.bytes_loaded += bytes.len() as u64;
                Some(bytes)
            }
            None => None,
        };
        self.views.insert((si, key), fetched.clone());
        Ok(fetched)
    }

    /// True when no signatures are attached (pruning disabled).
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

/// Collects per-index tuple node paths (leaf slot stripped for R-trees).
pub fn collect_tuple_paths(indices: &[&dyn HierIndex]) -> Vec<HashMap<Tid, Vec<u16>>> {
    indices
        .iter()
        .map(|idx| {
            let mut map = HashMap::new();
            collect_rec(*idx, idx.root(), &mut Vec::new(), &mut map);
            map
        })
        .collect()
}

fn collect_rec(
    idx: &dyn HierIndex,
    node: rcube_index::NodeHandle,
    path: &mut Vec<u16>,
    out: &mut HashMap<Tid, Vec<u16>>,
) {
    if idx.is_leaf(node) {
        for (tid, _) in idx.leaf_entries(node) {
            out.insert(tid, path.clone());
        }
    } else {
        for (i, c) in idx.children(node).into_iter().enumerate() {
            path.push(i as u16);
            collect_rec(idx, c, path, out);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_index::BPlusTree;
    use std::collections::HashSet;

    /// Table 5.2's sample relation over indices of Figure 5.1.
    fn setup() -> (DiskSim, BPlusTree, BPlusTree) {
        let disk = DiskSim::with_defaults();
        let a = [10.0, 20.0, 30.0, 50.0, 54.0, 72.0, 75.0, 85.0];
        let b = [40.0, 60.0, 65.0, 45.0, 10.0, 30.0, 36.0, 62.0];
        let ta = BPlusTree::bulk_load_with_fanout(
            &disk,
            a.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
            3,
        );
        let tb = BPlusTree::bulk_load_with_fanout(
            &disk,
            b.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
            3,
        );
        (disk, ta, tb)
    }

    #[test]
    fn root_signature_marks_exactly_nonempty_combos() {
        let (disk, ta, tb) = setup();
        let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
        let paths = collect_tuple_paths(&idx);
        let sig = JoinSignature::build(&idx, &paths, &disk);
        let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
        let root_key: StateKey = vec![vec![], vec![]];
        // Compute the ground truth: combos of (leaf-in-A, leaf-in-B).
        let mut truth = HashSet::new();
        for t in 0..8u32 {
            truth.insert((paths[0][&t][0], paths[1][&t][0]));
        }
        for a in 0..3u16 {
            for b in 0..3u16 {
                assert_eq!(
                    cursor.check_child(&root_key, &[a, b]).unwrap(),
                    truth.contains(&(a, b)),
                    "combo ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn matches_figure_5_6_emptiness() {
        // Figure 5.2: (a1, b1) is empty, (a2, b2) is non-empty for the
        // sample data — a1 covers A∈[10,30] (t1..t3), b1 covers B∈[10,36]
        // (t5..t7): no common tuple.
        let (disk, ta, tb) = setup();
        let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
        let paths = collect_tuple_paths(&idx);
        let sig = JoinSignature::build(&idx, &paths, &disk);
        let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
        let root_key: StateKey = vec![vec![], vec![]];
        assert!(!cursor.check_child(&root_key, &[0, 0]).unwrap(), "(a1,b1) must be empty");
        // t4 (A=50 in a2, B=45 in b2) makes (a2,b2) non-empty.
        assert!(cursor.check_child(&root_key, &[1, 1]).unwrap(), "(a2,b2) must be non-empty");
    }

    #[test]
    fn pairwise_signatures_cover_three_way_merge() {
        let disk = DiskSim::with_defaults();
        let cols: Vec<Vec<f64>> =
            (0..3).map(|d| (0..30).map(|i| ((i * (d + 7)) % 30) as f64 / 30.0).collect()).collect();
        let trees: Vec<BPlusTree> = cols
            .iter()
            .map(|c| {
                BPlusTree::bulk_load_with_fanout(
                    &disk,
                    c.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                    3,
                )
            })
            .collect();
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let paths = collect_tuple_paths(&idx);
        let pairs = [
            JoinSignature::build_pair(&idx, &paths, 0, 1, &disk),
            JoinSignature::build_pair(&idx, &paths, 0, 2, &disk),
            JoinSignature::build_pair(&idx, &paths, 1, 2, &disk),
        ];
        let full = JoinSignature::build(&idx, &paths, &disk);
        let mut pc = JoinSigCursor::new(pairs.iter().collect(), &disk);
        let mut fc = JoinSigCursor::new(vec![&full], &disk);
        // Pairwise pruning is a relaxation: everything the full signature
        // keeps, the pairwise one must keep too.
        let root_key: StateKey = vec![vec![], vec![], vec![]];
        let n0 = idx[0].children(idx[0].root()).len() as u16;
        for a in 0..n0.min(4) {
            for b in 0..n0.min(4) {
                for c in 0..n0.min(4) {
                    let combo = [a, b, c];
                    if fc.check_child(&root_key, &combo).unwrap() {
                        assert!(pc.check_child(&root_key, &combo).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn serialized_state_sigs_probe_like_sets() {
        // Exact form: binary search over the stored LE posting list.
        let combos = vec![3u64, 17, 42, 999, 12_345];
        let (payload, _) = encode_state_sig(&combos, 20_000, 1 << 20);
        assert_eq!(payload[0], TAG_EXACT);
        for c in 0..13_000u64 {
            assert_eq!(state_sig_contains(&payload, c), combos.contains(&c), "combo {c}");
        }
        // Bloom form: card exceeds the page, no false negatives.
        let many: Vec<u64> = (0..400u64).map(|i| i * 7919).collect();
        let (payload, _) = encode_state_sig(&many, u64::MAX, 4096 * 8);
        assert_eq!(payload[0], TAG_BLOOM);
        for &c in &many {
            assert!(state_sig_contains(&payload, c), "no false negatives ({c})");
        }
        // Truncated / garbage payloads answer false, never panic.
        assert!(!state_sig_contains(&[], 1));
        assert!(!state_sig_contains(&[TAG_EXACT, 9, 0, 0, 0], 1));
        assert!(!state_sig_contains(&[TAG_BLOOM, 1, 0], 1));
        assert!(!state_sig_contains(&[7, 7, 7], 1));
    }

    #[test]
    fn lookups_charge_io_once_per_state() {
        let (disk, ta, tb) = setup();
        let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
        let paths = collect_tuple_paths(&idx);
        let sig = JoinSignature::build(&idx, &paths, &disk);
        disk.reset_stats();
        let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
        let root_key: StateKey = vec![vec![], vec![]];
        cursor.check_child(&root_key, &[0, 0]).unwrap();
        cursor.check_child(&root_key, &[1, 1]).unwrap();
        cursor.check_child(&root_key, &[2, 2]).unwrap();
        assert_eq!(cursor.loads, 1, "same state signature loads once");
    }

    #[test]
    fn missing_state_means_empty() {
        let (disk, ta, tb) = setup();
        let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
        let paths = collect_tuple_paths(&idx);
        let sig = JoinSignature::build(&idx, &paths, &disk);
        let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
        // (a1, b1) is empty, so its state key is absent.
        let key: StateKey = vec![vec![0], vec![0]];
        assert!(!cursor.check_state(&key).unwrap());
        // Root key always passes.
        assert!(cursor.check_state(&vec![vec![], vec![]]).unwrap());
    }

    /// A state signature whose page no longer reads back is the store's
    /// typed error, not a panic and not a verdict.
    #[test]
    fn an_unreadable_state_page_is_a_typed_error() {
        let (disk, ta, tb) = setup();
        let idx: Vec<&dyn HierIndex> = vec![&ta, &tb];
        let paths = collect_tuple_paths(&idx);
        let sig = JoinSignature::build(&idx, &paths, &disk);
        let root_key: StateKey = vec![vec![], vec![]];
        let page = sig.page_of(&root_key).expect("the root state is stored");
        sig.store.retire(page).unwrap();
        let mut cursor = JoinSigCursor::new(vec![&sig], &disk);
        assert!(matches!(
            cursor.check_child(&root_key, &[1, 1]),
            Err(StorageError::MissingObject(p)) if p == page
        ));
    }
}
