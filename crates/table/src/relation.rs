//! Columnar relations.
//!
//! Storage is column-oriented: one `Vec<u32>` per selection dimension and
//! one `Vec<f64>` per ranking dimension. Tuple identity is the row index
//! (`tid`), matching the thesis' tid-list measures.

use crate::schema::Schema;

/// Tuple identifier (row index).
pub type Tid = u32;

/// An immutable columnar relation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    selection_cols: Vec<Vec<u32>>,
    ranking_cols: Vec<Vec<f64>>,
    rows: usize,
}

impl Relation {
    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples (`T`).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Value of selection dimension `dim` for tuple `tid`.
    #[inline]
    pub fn selection_value(&self, tid: Tid, dim: usize) -> u32 {
        self.selection_cols[dim][tid as usize]
    }

    /// Value of ranking dimension `dim` for tuple `tid`.
    #[inline]
    pub fn ranking_value(&self, tid: Tid, dim: usize) -> f64 {
        self.ranking_cols[dim][tid as usize]
    }

    /// All ranking-dimension values of `tid`, in schema order.
    pub fn ranking_point(&self, tid: Tid) -> Vec<f64> {
        (0..self.schema.num_ranking()).map(|d| self.ranking_value(tid, d)).collect()
    }

    /// Ranking values of `tid` projected onto `dims`.
    pub fn ranking_point_proj(&self, tid: Tid, dims: &[usize]) -> Vec<f64> {
        dims.iter().map(|&d| self.ranking_value(tid, d)).collect()
    }

    /// Entire column of a ranking dimension (used for index bulk-loads).
    pub fn ranking_column(&self, dim: usize) -> &[f64] {
        &self.ranking_cols[dim]
    }

    /// Entire column of a selection dimension.
    pub fn selection_column(&self, dim: usize) -> &[u32] {
        &self.selection_cols[dim]
    }

    /// Iterates over all tids.
    pub fn tids(&self) -> impl Iterator<Item = Tid> + '_ {
        0..self.rows as Tid
    }

    /// Rough in-memory footprint in bytes (space-usage experiments).
    pub fn byte_size(&self) -> usize {
        self.selection_cols.len() * self.rows * std::mem::size_of::<u32>()
            + self.ranking_cols.len() * self.rows * std::mem::size_of::<f64>()
    }

    /// Returns a new relation with the first `n` rows (prefix scaling for
    /// the `T` sweeps).
    pub fn prefix(&self, n: usize) -> Relation {
        let n = n.min(self.rows);
        Relation {
            schema: self.schema.clone(),
            selection_cols: self.selection_cols.iter().map(|c| c[..n].to_vec()).collect(),
            ranking_cols: self.ranking_cols.iter().map(|c| c[..n].to_vec()).collect(),
            rows: n,
        }
    }

    /// Returns the sub-relation holding rows `tids`, in that order (a
    /// shard's tuples): row `tids[i]` of `self` becomes local tid `i`.
    pub fn subset(&self, tids: &[Tid]) -> Relation {
        fn pick<T: Copy>(col: &[T], tids: &[Tid]) -> Vec<T> {
            tids.iter().map(|&t| col[t as usize]).collect()
        }
        Relation {
            schema: self.schema.clone(),
            selection_cols: self.selection_cols.iter().map(|c| pick(c, tids)).collect(),
            ranking_cols: self.ranking_cols.iter().map(|c| pick(c, tids)).collect(),
            rows: tids.len(),
        }
    }
}

/// Row-at-a-time builder for [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    selection_cols: Vec<Vec<u32>>,
    ranking_cols: Vec<Vec<f64>>,
    rows: usize,
}

impl RelationBuilder {
    pub fn new(schema: Schema) -> Self {
        let s = schema.num_selection();
        let r = schema.num_ranking();
        Self {
            schema,
            selection_cols: vec![Vec::new(); s],
            ranking_cols: vec![Vec::new(); r],
            rows: 0,
        }
    }

    /// Pre-allocates column capacity for `n` rows.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let mut b = Self::new(schema);
        for c in &mut b.selection_cols {
            c.reserve(n);
        }
        for c in &mut b.ranking_cols {
            c.reserve(n);
        }
        b
    }

    /// Appends one tuple; returns its tid. Panics when arities mismatch the
    /// schema or a categorical value exceeds its cardinality.
    pub fn push(&mut self, selection: &[u32], ranking: &[f64]) -> Tid {
        assert_eq!(selection.len(), self.schema.num_selection(), "selection arity mismatch");
        assert_eq!(ranking.len(), self.schema.num_ranking(), "ranking arity mismatch");
        for (d, &v) in selection.iter().enumerate() {
            assert!(
                v < self.schema.selection_dim(d).cardinality(),
                "value {v} out of domain for dimension {}",
                self.schema.selection_dim(d).name()
            );
            self.selection_cols[d].push(v);
        }
        for (d, &v) in ranking.iter().enumerate() {
            self.ranking_cols[d].push(v);
        }
        let tid = self.rows as Tid;
        self.rows += 1;
        tid
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalizes the relation.
    pub fn finish(self) -> Relation {
        Relation {
            schema: self.schema,
            selection_cols: self.selection_cols,
            ranking_cols: self.ranking_cols,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Dim, Schema};

    fn sample() -> Relation {
        // Table 3.1 of the thesis.
        let schema = Schema::new(vec![Dim::cat("A1", 2), Dim::cat("A2", 2)], vec!["N1", "N2"]);
        let mut b = RelationBuilder::new(schema);
        b.push(&[0, 0], &[0.05, 0.05]);
        b.push(&[0, 1], &[0.65, 0.70]);
        b.push(&[0, 0], &[0.05, 0.25]);
        b.push(&[0, 0], &[0.35, 0.15]);
        b.finish()
    }

    #[test]
    fn columnar_round_trip() {
        let r = sample();
        assert_eq!(r.len(), 4);
        assert_eq!(r.selection_value(1, 1), 1);
        assert_eq!(r.ranking_value(3, 0), 0.35);
        assert_eq!(r.ranking_point(2), vec![0.05, 0.25]);
    }

    #[test]
    fn projection_selects_dims() {
        let r = sample();
        assert_eq!(r.ranking_point_proj(1, &[1]), vec![0.70]);
        assert_eq!(r.ranking_point_proj(1, &[1, 0]), vec![0.70, 0.65]);
    }

    #[test]
    fn prefix_truncates() {
        let r = sample();
        let p = r.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.ranking_value(1, 1), 0.70);
        assert_eq!(r.prefix(100).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn domain_violation_panics() {
        let schema = Schema::new(vec![Dim::cat("A", 2)], vec!["N"]);
        let mut b = RelationBuilder::new(schema);
        b.push(&[2], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_violation_panics() {
        let schema = Schema::new(vec![Dim::cat("A", 2)], vec!["N"]);
        let mut b = RelationBuilder::new(schema);
        b.push(&[0, 1], &[0.0]);
    }

    #[test]
    fn byte_size_counts_columns() {
        let r = sample();
        assert_eq!(r.byte_size(), 2 * 4 * 4 + 2 * 4 * 8);
    }
}
