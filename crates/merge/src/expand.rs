//! Progressive child-state generation — `S.get_next` (Section 5.2).
//!
//! Two strategies:
//!
//! * [`ThresholdMachine`] — the general sort-merge expansion of
//!   Section 5.2.3: per-index entries sorted by `f'`, threshold positions,
//!   Cartesian slices generated on demand. Instance-optimal within factor
//!   `2^m` (Lemma 7).
//! * [`NeighborhoodMachine`] — the expansion of Section 5.2.2 for monotone
//!   and semi-monotone functions over totally-ordered (1-d) indices:
//!   start from the analytically best combination and expand position-wise
//!   neighbors.
//!
//! Both integrate join-signature pruning: the threshold machine drops empty
//! children at generation; the neighborhood machine keeps them in its local
//! heap (they may be the only route to non-empty neighbors) but never
//! returns them (Section 5.3.3).

use std::collections::{BinaryHeap, HashSet};

use rcube_func::{RankFn, Rect};
use rcube_index::{HierIndex, NodeHandle};
use rcube_storage::StorageError;

use crate::joinsig::{JoinSigCursor, StateKey, SELF_POS};
use crate::state::{JointState, StateItem};

/// Shared expansion counters.
#[derive(Debug, Default)]
pub struct ExpandCounters {
    /// Candidate states generated across all machines.
    pub states_generated: u64,
    /// Entries currently sitting in local heaps.
    pub local_items: i64,
}

/// A per-index child entry: handle, `f'` bound, original child position.
#[derive(Debug, Clone, Copy)]
struct SortedEntry {
    node: NodeHandle,
    fprime: f64,
    pos: u16,
}

/// Builds per-index sorted entry lists for a parent state: entry `e` of
/// index `i` gets `f'(e) = lb of f` over the joint region with index `i`'s
/// dimensions narrowed to `e` (Section 5.2.3).
fn sorted_entries(
    indices: &[&dyn HierIndex],
    parent: &JointState,
    f: &dyn RankFn,
) -> Vec<Vec<SortedEntry>> {
    let regions: Vec<Rect> =
        parent.nodes.iter().zip(indices).map(|(&n, idx)| idx.region(n)).collect();
    let mut out = Vec::with_capacity(indices.len());
    for (i, idx) in indices.iter().enumerate() {
        let node = parent.nodes[i];
        let children: Vec<(NodeHandle, u16)> = if idx.is_leaf(node) {
            vec![(node, SELF_POS)]
        } else {
            idx.children(node).into_iter().enumerate().map(|(p, c)| (c, p as u16)).collect()
        };
        let mut entries: Vec<SortedEntry> = children
            .into_iter()
            .map(|(c, pos)| {
                let mut region = indices[0].region(parent.nodes[0]);
                if i == 0 {
                    region = idx.region(c);
                }
                for (j, r) in regions.iter().enumerate().skip(1) {
                    let part = if j == i { idx.region(c) } else { r.clone() };
                    region = region.concat(&part);
                }
                SortedEntry { node: c, fprime: f.lower_bound(&region), pos }
            })
            .collect();
        entries.sort_by(|a, b| a.fprime.total_cmp(&b.fprime));
        out.push(entries);
    }
    out
}

fn combo_of(entries: &[Vec<SortedEntry>], picks: &[usize]) -> (JointState, Vec<u16>) {
    let nodes = picks.iter().zip(entries).map(|(&p, e)| e[p].node).collect();
    let combo = picks.iter().zip(entries).map(|(&p, e)| e[p].pos).collect();
    (JointState { nodes }, combo)
}

/// The general threshold expansion (Algorithm 6, `threshold_expand`).
#[derive(Debug)]
pub struct ThresholdMachine {
    key: StateKey,
    entries: Vec<Vec<SortedEntry>>,
    thresholds: Vec<usize>,
    lheap: BinaryHeap<StateItem<JointState>>,
    seq: u64,
}

impl ThresholdMachine {
    pub fn new(
        indices: &[&dyn HierIndex],
        parent: &JointState,
        f: &dyn RankFn,
        sig: &mut JoinSigCursor<'_>,
        counters: &mut ExpandCounters,
    ) -> Result<Self, StorageError> {
        let key = parent.key(indices);
        let entries = sorted_entries(indices, parent, f);
        let mut machine = Self {
            key,
            thresholds: vec![1; entries.len()],
            entries,
            lheap: BinaryHeap::new(),
            seq: 0,
        };
        // Seed with the all-best combination.
        let picks: Vec<usize> = vec![0; machine.entries.len()];
        machine.offer(indices, f, &picks, sig, counters)?;
        Ok(machine)
    }

    fn offer(
        &mut self,
        indices: &[&dyn HierIndex],
        f: &dyn RankFn,
        picks: &[usize],
        sig: &mut JoinSigCursor<'_>,
        counters: &mut ExpandCounters,
    ) -> Result<(), StorageError> {
        let (state, combo) = combo_of(&self.entries, picks);
        counters.states_generated += 1;
        if !sig.is_empty() && !sig.check_child(&self.key, &combo)? {
            return Ok(()); // provably empty: prune at generation
        }
        let bound = state.lower_bound(indices, f);
        self.seq += 1;
        self.lheap.push(StateItem { bound, seq: self.seq, payload: state });
        counters.local_items += 1;
        Ok(())
    }

    /// Bound on every state this machine may still return.
    pub fn remaining_bound(&self) -> f64 {
        let heap_bound = self.lheap.peek().map_or(f64::INFINITY, |i| i.bound);
        heap_bound.min(self.threshold_bound())
    }

    fn threshold_bound(&self) -> f64 {
        self.entries
            .iter()
            .zip(&self.thresholds)
            .map(|(e, &t)| e.get(t).map_or(f64::INFINITY, |x| x.fprime))
            .fold(f64::INFINITY, f64::min)
    }

    /// Produces the next-best child state, or `None` when exhausted.
    pub fn get_next(
        &mut self,
        indices: &[&dyn HierIndex],
        f: &dyn RankFn,
        sig: &mut JoinSigCursor<'_>,
        counters: &mut ExpandCounters,
    ) -> Result<Option<JointState>, StorageError> {
        loop {
            let tb = self.threshold_bound();
            if let Some(top) = self.lheap.peek() {
                if top.bound <= tb {
                    counters.local_items -= 1;
                    return Ok(self.lheap.pop().map(|i| i.payload));
                }
            }
            if tb.is_infinite() {
                counters.local_items -= i64::from(self.lheap.peek().is_some());
                return Ok(self.lheap.pop().map(|i| i.payload));
            }
            // Advance the index holding the threshold minimum and generate
            // the Cartesian slice [<t_1] × … × {t_s} × … × [<t_m].
            let s = (0..self.entries.len())
                .filter(|&i| self.thresholds[i] < self.entries[i].len())
                .min_by(|&a, &b| {
                    self.entries[a][self.thresholds[a]]
                        .fprime
                        .total_cmp(&self.entries[b][self.thresholds[b]].fprime)
                })
                .expect("threshold bound finite implies an index can advance");
            let ts = self.thresholds[s];
            let mut picks = vec![0usize; self.entries.len()];
            picks[s] = ts;
            loop {
                self.offer(indices, f, &picks, sig, counters)?;
                // Odometer over the other indices' prefixes [0, t_j).
                let mut j = 0;
                loop {
                    if j == picks.len() {
                        break;
                    }
                    if j == s {
                        j += 1;
                        continue;
                    }
                    picks[j] += 1;
                    if picks[j] < self.thresholds[j] {
                        break;
                    }
                    picks[j] = 0;
                    j += 1;
                }
                if j == picks.len() {
                    break;
                }
            }
            self.thresholds[s] += 1;
        }
    }
}

/// The neighborhood expansion for monotone / semi-monotone functions over
/// totally-ordered indices.
#[derive(Debug)]
pub struct NeighborhoodMachine {
    key: StateKey,
    entries: Vec<Vec<SortedEntry>>,
    lheap: BinaryHeap<StateItem<Vec<usize>>>,
    seen: HashSet<Vec<usize>>,
    seq: u64,
}

impl NeighborhoodMachine {
    /// Applicable when every index is one-dimensional (total order) and the
    /// function is monotone or semi-monotone.
    pub fn applicable(indices: &[&dyn HierIndex], f: &dyn RankFn) -> bool {
        indices.iter().all(|i| i.dims() == 1) && !matches!(f.shape(), rcube_func::Shape::General)
    }

    pub fn new(
        indices: &[&dyn HierIndex],
        parent: &JointState,
        f: &dyn RankFn,
        counters: &mut ExpandCounters,
    ) -> Self {
        let key = parent.key(indices);
        let entries = sorted_entries(indices, parent, f);
        let mut machine =
            Self { key, entries, lheap: BinaryHeap::new(), seen: HashSet::new(), seq: 0 };
        // Initial state: the per-index best entries (position 0 in the
        // f'-sorted order, which realizes the analytic extreme point).
        let init = vec![0usize; machine.entries.len()];
        machine.push_positions(indices, f, init, counters);
        machine
    }

    fn push_positions(
        &mut self,
        indices: &[&dyn HierIndex],
        f: &dyn RankFn,
        picks: Vec<usize>,
        counters: &mut ExpandCounters,
    ) {
        if !self.seen.insert(picks.clone()) {
            return;
        }
        let (state, _) = combo_of(&self.entries, &picks);
        let bound = state.lower_bound(indices, f);
        self.seq += 1;
        self.lheap.push(StateItem { bound, seq: self.seq, payload: picks });
        counters.states_generated += 1;
        counters.local_items += 1;
    }

    /// Bound on every state this machine may still return.
    pub fn remaining_bound(&self) -> f64 {
        self.lheap.peek().map_or(f64::INFINITY, |i| i.bound)
    }

    /// Next-best child; empty states (per the join-signature) are expanded
    /// through but not returned.
    pub fn get_next(
        &mut self,
        indices: &[&dyn HierIndex],
        f: &dyn RankFn,
        sig: &mut JoinSigCursor<'_>,
        counters: &mut ExpandCounters,
    ) -> Result<Option<JointState>, StorageError> {
        while let Some(StateItem { payload: picks, .. }) = self.lheap.pop() {
            counters.local_items -= 1;
            // Expand neighbors (+1 in each dimension).
            for d in 0..picks.len() {
                if picks[d] + 1 < self.entries[d].len() {
                    let mut nb = picks.clone();
                    nb[d] += 1;
                    self.push_positions(indices, f, nb, counters);
                }
            }
            let (state, combo) = combo_of(&self.entries, &picks);
            if !sig.is_empty() && !sig.check_child(&self.key, &combo)? {
                continue; // empty: traversed but not returned
            }
            return Ok(Some(state));
        }
        Ok(None)
    }
}

/// Strategy wrapper chosen per state.
#[derive(Debug)]
pub enum Machine {
    Threshold(ThresholdMachine),
    Neighborhood(NeighborhoodMachine),
}

impl Machine {
    pub fn remaining_bound(&self) -> f64 {
        match self {
            Machine::Threshold(m) => m.remaining_bound(),
            Machine::Neighborhood(m) => m.remaining_bound(),
        }
    }

    pub fn get_next(
        &mut self,
        indices: &[&dyn HierIndex],
        f: &dyn RankFn,
        sig: &mut JoinSigCursor<'_>,
        counters: &mut ExpandCounters,
    ) -> Result<Option<JointState>, StorageError> {
        match self {
            Machine::Threshold(m) => m.get_next(indices, f, sig, counters),
            Machine::Neighborhood(m) => m.get_next(indices, f, sig, counters),
        }
    }
}
