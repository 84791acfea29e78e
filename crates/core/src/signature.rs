//! The signature measure (Section 4.2.1).
//!
//! A *signature* mirrors the hierarchical partition (R-tree) as a tree of
//! bit arrays: one bit per node entry, set iff the subtree under that entry
//! contains a tuple of the cell (e.g. `A = a1`). Node bit arrays are packed
//! `u64` words ([`PackedBits`]), so union/intersection/containment run
//! word-parallel (bitwise OR/AND + `count_ones`) instead of bit-by-bit —
//! the same treatment the posting-list engine gives tid bitmaps.
//! Signatures support
//!
//! * construction from tuple paths (the tuple-oriented cubing of Fig 4.3),
//! * membership tests for node/tuple paths (the Boolean pruning primitive),
//! * **union** and **intersection** (Section 4.3.3, Fig 4.7) for assembling
//!   arbitrary Boolean predicates from atomic cuboids, and
//! * bit-level edits (`set_path` / `clear_path`) for incremental
//!   maintenance (Algorithm 2).

use rcube_storage::PackedBits;

/// A signature node: a bit array plus sub-signatures for set bits that lead
/// to deeper levels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SigNode {
    /// One bit per entry of the mirrored partition node, packed into `u64`
    /// words. Trailing zeros may be truncated (the codings re-pad from the
    /// recorded length).
    pub bits: PackedBits,
    /// `(entry position, child signature)` pairs, sorted by position.
    /// Leaf-level nodes have no children.
    pub children: Vec<(u16, SigNode)>,
}

impl SigNode {
    fn set_bit(&mut self, pos: u16) {
        self.bits.set(pos as usize);
    }

    fn bit(&self, pos: u16) -> bool {
        self.bits.get(pos as usize)
    }

    fn child(&self, pos: u16) -> Option<&SigNode> {
        self.children.binary_search_by_key(&pos, |&(p, _)| p).ok().map(|i| &self.children[i].1)
    }

    fn child_mut(&mut self, pos: u16) -> &mut SigNode {
        match self.children.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => &mut self.children[i].1,
            Err(i) => {
                self.children.insert(i, (pos, SigNode::default()));
                &mut self.children[i].1
            }
        }
    }

    fn is_empty(&self) -> bool {
        !self.bits.any()
    }

    fn count_nodes(&self) -> usize {
        1 + self.children.iter().map(|(_, c)| c.count_nodes()).sum::<usize>()
    }
}

/// A per-cell signature over a hierarchical partition with fanout `m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Maximum fanout `M` of the mirrored partition (bit arrays are at most
    /// this long; also the base of SID arithmetic).
    m: usize,
    root: Option<SigNode>,
}

impl Signature {
    /// An empty signature for a partition with fanout `m`.
    pub fn empty(m: usize) -> Self {
        Self { m, root: None }
    }

    /// Builds from tuple paths (each `⟨p0, …, slot⟩`), the recursive-sort
    /// construction of Section 4.2.1 — order-insensitive, so a plain fold.
    pub fn from_paths<'a, I: IntoIterator<Item = &'a [u16]>>(m: usize, paths: I) -> Self {
        let mut sig = Self::empty(m);
        for p in paths {
            sig.set_path(p);
        }
        sig
    }

    /// Wraps an existing root node (used when rebuilding from storage).
    pub fn from_node(m: usize, root: SigNode) -> Self {
        if root.is_empty() {
            Self { m, root: None }
        } else {
            Self { m, root: Some(root) }
        }
    }

    /// Fanout `M`.
    pub fn fanout(&self) -> usize {
        self.m
    }

    /// True when no path is present.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Root node, if any.
    pub fn root(&self) -> Option<&SigNode> {
        self.root.as_ref()
    }

    /// Number of signature nodes (size accounting).
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, SigNode::count_nodes)
    }

    /// Number of node levels (root = 1). Mirrored partitions are balanced,
    /// so every tuple path has exactly this many components; 0 when empty.
    pub fn depth(&self) -> u16 {
        let mut d = 0u16;
        let mut node = self.root.as_ref();
        while let Some(n) = node {
            d += 1;
            node = n.children.first().map(|(_, c)| c);
        }
        d
    }

    /// Sets every bit along `path`, creating nodes as needed.
    pub fn set_path(&mut self, path: &[u16]) {
        assert!(!path.is_empty(), "cannot set an empty path");
        let mut node = self.root.get_or_insert_with(SigNode::default);
        for (i, &p) in path.iter().enumerate() {
            assert!((p as usize) < self.m, "path component {p} exceeds fanout {}", self.m);
            node.set_bit(p);
            if i + 1 < path.len() {
                node = node.child_mut(p);
            }
        }
    }

    /// Clears the leaf bit of `path`, cascading: a node whose bits become
    /// all-zero is removed and its bit in the parent cleared (Algorithm 2,
    /// lines 6–7).
    pub fn clear_path(&mut self, path: &[u16]) {
        fn rec(node: &mut SigNode, path: &[u16]) -> bool {
            let p = path[0];
            if path.len() == 1 {
                node.bits.clear(p as usize);
            } else if let Ok(i) = node.children.binary_search_by_key(&p, |&(q, _)| q) {
                if rec(&mut node.children[i].1, &path[1..]) {
                    node.children.remove(i);
                    node.bits.clear(p as usize);
                }
            }
            node.is_empty()
        }
        if path.is_empty() {
            return;
        }
        if let Some(root) = self.root.as_mut() {
            if rec(root, path) {
                self.root = None;
            }
        }
    }

    /// True when every bit along `path` is set — works for node paths
    /// (prefixes) and full tuple paths alike.
    pub fn contains_path(&self, path: &[u16]) -> bool {
        let Some(mut node) = self.root.as_ref() else {
            return false;
        };
        for (i, &p) in path.iter().enumerate() {
            if !node.bit(p) {
                return false;
            }
            if i + 1 < path.len() {
                match node.child(p) {
                    Some(c) => node = c,
                    None => return false,
                }
            }
        }
        true
    }

    /// All full paths present (leaf-level set bits), for round-trip tests.
    pub fn paths(&self) -> Vec<Vec<u16>> {
        fn rec(node: &SigNode, prefix: &mut Vec<u16>, out: &mut Vec<Vec<u16>>) {
            for pos in node.bits.iter_ones() {
                let pos = pos as u16;
                match node.child(pos) {
                    Some(c) => {
                        prefix.push(pos);
                        rec(c, prefix, out);
                        prefix.pop();
                    }
                    None => {
                        let mut p = prefix.clone();
                        p.push(pos);
                        out.push(p);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if let Some(r) = &self.root {
            rec(r, &mut Vec::new(), &mut out);
        }
        out
    }

    /// Signature union (word-parallel bit-or), per Section 4.3.3: any bit
    /// set in either operand is set in the result.
    pub fn union(&self, other: &Signature) -> Signature {
        fn rec(a: &SigNode, b: &SigNode) -> SigNode {
            let bits = a.bits.or(&b.bits);
            let mut children = Vec::new();
            let positions: std::collections::BTreeSet<u16> = a
                .children
                .iter()
                .map(|&(p, _)| p)
                .chain(b.children.iter().map(|&(p, _)| p))
                .collect();
            for p in positions {
                let c = match (a.child(p), b.child(p)) {
                    (Some(x), Some(y)) => rec(x, y),
                    (Some(x), None) => x.clone(),
                    (None, Some(y)) => y.clone(),
                    (None, None) => unreachable!(),
                };
                children.push((p, c));
            }
            SigNode { bits, children }
        }
        assert_eq!(self.m, other.m, "signatures must mirror the same partition");
        let root = match (&self.root, &other.root) {
            (Some(a), Some(b)) => Some(rec(a, b)),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        Signature { m: self.m, root }
    }

    /// Signature intersection (recursive bit-and), per Section 4.3.3: the
    /// candidate bits come from one word-parallel AND per node pair; a
    /// candidate survives only if its child intersection is non-empty.
    pub fn intersect(&self, other: &Signature) -> Signature {
        fn rec(a: &SigNode, b: &SigNode) -> Option<SigNode> {
            let both = a.bits.and(&b.bits);
            let mut bits = PackedBits::zeros(both.len());
            let mut children = Vec::new();
            for i in both.iter_ones() {
                let p = i as u16;
                match (a.child(p), b.child(p)) {
                    (Some(x), Some(y)) => {
                        // Internal entry: survives only with a non-empty
                        // child intersection.
                        if let Some(c) = rec(x, y) {
                            bits.set(i);
                            children.push((p, c));
                        }
                    }
                    (None, None) => bits.set(i), // leaf-level entry
                    // One side treats this as a leaf, the other as internal:
                    // mirrored partitions make this impossible.
                    _ => unreachable!("signatures mirror the same partition"),
                }
            }
            let node = SigNode { bits, children };
            if node.is_empty() {
                None
            } else {
                Some(node)
            }
        }
        assert_eq!(self.m, other.m, "signatures must mirror the same partition");
        let root = match (&self.root, &other.root) {
            (Some(a), Some(b)) => rec(a, b),
            _ => None,
        };
        Signature { m: self.m, root }
    }

    /// SID of a node path: the positional encoding of Section 4.2.1,
    /// `fold(acc · (M+1) + p + 1)` with the root at 0.
    pub fn sid_of(m: usize, path: &[u16]) -> u64 {
        path.iter().fold(0u64, |acc, &p| acc * (m as u64 + 1) + p as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thesis' running example (Table 4.1 / Figure 4.3): tuples t1, t3
    /// of cell A=a1 with paths ⟨1,1,1⟩ and ⟨1,2,1⟩ (1-based in the text;
    /// 0-based here: ⟨0,0,0⟩ and ⟨0,1,0⟩).
    fn a1_signature() -> Signature {
        Signature::from_paths(2, [vec![0u16, 0, 0].as_slice(), vec![0u16, 1, 0].as_slice()])
    }

    #[test]
    fn figure_4_3_structure() {
        let sig = a1_signature();
        // Root: bits 10 (only first child populated).
        let root = sig.root().unwrap();
        assert_eq!(root.bits.to_bools(), vec![true]);
        // Level-2 node under position 0: bits 11.
        let n1 = root.child(0).unwrap();
        assert_eq!(n1.bits.to_bools(), vec![true, true]);
        // Two leaf nodes each with bits 1 (first slot).
        assert_eq!(n1.child(0).unwrap().bits.to_bools(), vec![true]);
        assert_eq!(n1.child(1).unwrap().bits.to_bools(), vec![true]);
        assert_eq!(sig.node_count(), 4);
        assert_eq!(sig.depth(), 3);
    }

    #[test]
    fn contains_checks_prefixes_and_tuples() {
        let sig = a1_signature();
        assert!(sig.contains_path(&[0]));
        assert!(sig.contains_path(&[0, 1]));
        assert!(sig.contains_path(&[0, 0, 0]));
        assert!(!sig.contains_path(&[1]));
        assert!(!sig.contains_path(&[0, 0, 1]));
    }

    #[test]
    fn paths_round_trip() {
        let paths: Vec<Vec<u16>> = vec![vec![0, 0, 0], vec![0, 1, 0], vec![1, 0, 1]];
        let sig = Signature::from_paths(3, paths.iter().map(|p| p.as_slice()));
        let mut got = sig.paths();
        got.sort();
        assert_eq!(got, paths);
    }

    #[test]
    fn clear_path_cascades_empties() {
        let mut sig = a1_signature();
        sig.clear_path(&[0, 0, 0]);
        assert!(!sig.contains_path(&[0, 0, 0]));
        assert!(!sig.contains_path(&[0, 0]), "emptied node must clear its parent bit");
        assert!(sig.contains_path(&[0, 1, 0]));
        sig.clear_path(&[0, 1, 0]);
        assert!(sig.is_empty());
        assert_eq!(sig.depth(), 0);
    }

    #[test]
    fn union_matches_figure_4_7() {
        // (A=a2) paths: t2 ⟨0,0,1⟩ wait — use simple disjoint cells.
        let a =
            Signature::from_paths(2, [vec![0u16, 0, 1].as_slice(), vec![1u16, 0, 1].as_slice()]);
        let b = Signature::from_paths(2, [vec![1u16, 1, 0].as_slice()]);
        let u = a.union(&b);
        assert!(u.contains_path(&[0, 0, 1]));
        assert!(u.contains_path(&[1, 0, 1]));
        assert!(u.contains_path(&[1, 1, 0]));
        assert_eq!(u.paths().len(), 3);
    }

    #[test]
    fn intersect_prunes_empty_subtrees() {
        // Both signatures set root bit 0, but under different subtrees:
        // the intersection must clear the entire structure.
        let a = Signature::from_paths(2, [vec![0u16, 0, 0].as_slice()]);
        let b = Signature::from_paths(2, [vec![0u16, 1, 0].as_slice()]);
        let i = a.intersect(&b);
        assert!(i.is_empty(), "no common tuple slot: intersection must be empty");
        // Shared tuple slot survives.
        let c =
            Signature::from_paths(2, [vec![0u16, 0, 0].as_slice(), vec![1u16, 0, 0].as_slice()]);
        let d = Signature::from_paths(2, [vec![0u16, 0, 0].as_slice()]);
        let j = c.intersect(&d);
        assert_eq!(j.paths(), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn union_intersect_are_set_ops_on_paths() {
        let mk = |paths: &[Vec<u16>]| Signature::from_paths(4, paths.iter().map(|p| p.as_slice()));
        let a = mk(&[vec![0, 1], vec![2, 3], vec![1, 0]]);
        let b = mk(&[vec![2, 3], vec![1, 0], vec![3, 3]]);
        let mut u = a.union(&b).paths();
        u.sort();
        assert_eq!(u, vec![vec![0, 1], vec![1, 0], vec![2, 3], vec![3, 3]]);
        let mut i = a.intersect(&b).paths();
        i.sort();
        assert_eq!(i, vec![vec![1, 0], vec![2, 3]]);
    }

    #[test]
    fn sid_is_injective_over_short_paths() {
        let m = 4;
        let mut seen = std::collections::HashSet::new();
        // Enumerate all paths of length ≤ 3.
        for a in 0..m as u16 {
            assert!(seen.insert(Signature::sid_of(m, &[a])));
            for b in 0..m as u16 {
                assert!(seen.insert(Signature::sid_of(m, &[a, b])));
                for c in 0..m as u16 {
                    assert!(seen.insert(Signature::sid_of(m, &[a, b, c])));
                }
            }
        }
        assert!(seen.insert(Signature::sid_of(m, &[]))); // root = 0
        assert!(seen.contains(&0));
    }

    #[test]
    #[should_panic(expected = "exceeds fanout")]
    fn fanout_violation_panics() {
        let mut s = Signature::empty(2);
        s.set_path(&[5]);
    }
}
