//! Random query workloads (Table 3.9).
//!
//! Each experiment reports the average over a batch of randomly issued
//! queries. A query draws `s` distinct selection dimensions with random
//! values, `r` ranking dimensions, and a linear ranking function whose
//! weight skewness is `u = max w / min w`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::relation::Relation;
use crate::selection::Selection;

/// Workload knobs (defaults = Table 3.9).
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Number of selection conditions `s`.
    pub num_conditions: usize,
    /// Number of ranking dimensions involved in the function `r`.
    pub num_ranking: usize,
    /// Number of requested results `k`.
    pub k: usize,
    /// Query skewness `u` (ratio of max to min weight).
    pub skewness: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self { num_conditions: 2, num_ranking: 2, k: 10, skewness: 1.0, seed: 7 }
    }
}

/// A generated query: Boolean part + linear ranking part.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The multi-dimensional selection.
    pub selection: Selection,
    /// Ranking dimensions used by the function (sorted).
    pub ranking_dims: Vec<usize>,
    /// Weights aligned with `ranking_dims`, all positive, spread over
    /// `[1, u]`.
    pub weights: Vec<f64>,
    /// Number of results requested.
    pub k: usize,
}

impl QuerySpec {
    /// Weights expanded to the relation's full ranking arity (zeros on
    /// unused dimensions) — convenient when an engine scores full points.
    pub fn full_weights(&self, total_ranking_dims: usize) -> Vec<f64> {
        let mut w = vec![0.0; total_ranking_dims];
        for (d, wt) in self.ranking_dims.iter().zip(&self.weights) {
            w[*d] = *wt;
        }
        w
    }
}

/// Deterministic query generator over a relation's schema.
#[derive(Debug)]
pub struct QueryGen {
    params: WorkloadParams,
    rng: StdRng,
}

impl QueryGen {
    pub fn new(params: WorkloadParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        Self { params, rng }
    }

    /// Draws the next query against `rel`'s schema.
    pub fn next_query(&mut self, rel: &Relation) -> QuerySpec {
        let schema = rel.schema();
        let s_total = schema.num_selection();
        let r_total = schema.num_ranking();
        let s = self.params.num_conditions.min(s_total);
        let r = self.params.num_ranking.min(r_total);

        let mut sel_dims: Vec<usize> = (0..s_total).collect();
        sel_dims.shuffle(&mut self.rng);
        sel_dims.truncate(s);
        let conds = sel_dims
            .into_iter()
            .map(|d| {
                let card = schema.selection_dim(d).cardinality();
                (d, self.rng.gen_range(0..card))
            })
            .collect();

        let mut rank_dims: Vec<usize> = (0..r_total).collect();
        rank_dims.shuffle(&mut self.rng);
        rank_dims.truncate(r);
        rank_dims.sort_unstable();

        // Weights spread over [1, u]: first weight 1, last weight u, rest
        // uniform in between — guarantees the requested skewness exactly.
        let u = self.params.skewness.max(1.0);
        let mut weights: Vec<f64> = (0..r)
            .map(|i| {
                if i == 0 {
                    1.0
                } else if i == r - 1 {
                    u
                } else {
                    self.rng.gen_range(1.0..=u)
                }
            })
            .collect();
        weights.shuffle(&mut self.rng);

        QuerySpec {
            selection: Selection::new(conds),
            ranking_dims: rank_dims,
            weights,
            k: self.params.k,
        }
    }

    /// A batch of `n` queries (the thesis averages over 20 per point).
    pub fn batch(&mut self, rel: &Relation, n: usize) -> Vec<QuerySpec> {
        (0..n).map(|_| self.next_query(rel)).collect()
    }
}

/// A Zipf(s) sampler over ranks `1..=n`: rank `r` is drawn with
/// probability proportional to `1 / r^s`. Deterministic given the RNG;
/// `s = 0` degenerates to uniform.
///
/// Implemented as a precomputed CDF + binary search — exact (no
/// rejection), O(n) setup, O(log n) per draw, plenty for workload
/// generation where `n` is a dimension cardinality.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws a 0-based rank (0 is the hottest).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf-skewed query generator: selection *values* are drawn from a
/// Zipf(`value_skew`) distribution over each dimension's domain instead
/// of uniformly, so a few hot cells receive most of the traffic — the
/// access pattern real serving workloads show. Everything else (dimension
/// choice, ranking weights) follows [`QueryGen`]'s rules. Seeded and
/// deterministic: two generators with equal params emit equal batches.
#[derive(Debug)]
pub struct ZipfQueryGen {
    params: WorkloadParams,
    value_skew: f64,
    rng: StdRng,
    /// One sampler per distinct cardinality seen, built lazily.
    samplers: std::collections::BTreeMap<usize, Zipf>,
}

impl ZipfQueryGen {
    /// `value_skew` is the Zipf exponent over each dimension's values
    /// (1.0 ≈ classic web-traffic skew; 0.0 = uniform).
    pub fn new(params: WorkloadParams, value_skew: f64) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        Self { params, value_skew, rng, samplers: std::collections::BTreeMap::new() }
    }

    /// Draws the next query against `rel`'s schema.
    pub fn next_query(&mut self, rel: &Relation) -> QuerySpec {
        let schema = rel.schema();
        let s_total = schema.num_selection();
        let r_total = schema.num_ranking();
        let s = self.params.num_conditions.min(s_total);
        let r = self.params.num_ranking.min(r_total);

        let mut sel_dims: Vec<usize> = (0..s_total).collect();
        sel_dims.shuffle(&mut self.rng);
        sel_dims.truncate(s);
        let skew = self.value_skew;
        let mut conds = Vec::with_capacity(s);
        for d in sel_dims {
            let card = schema.selection_dim(d).cardinality() as usize;
            let zipf = self.samplers.entry(card).or_insert_with(|| Zipf::new(card.max(1), skew));
            // Hot rank 0 maps to value 0, so skew is visible in the raw
            // condition values (and shard benches can count hot cells).
            conds.push((d, zipf.sample(&mut self.rng) as u32));
        }

        let mut rank_dims: Vec<usize> = (0..r_total).collect();
        rank_dims.shuffle(&mut self.rng);
        rank_dims.truncate(r);
        rank_dims.sort_unstable();

        let u = self.params.skewness.max(1.0);
        let mut weights: Vec<f64> = (0..r)
            .map(|i| {
                if i == 0 {
                    1.0
                } else if i == r - 1 {
                    u
                } else {
                    self.rng.gen_range(1.0..=u)
                }
            })
            .collect();
        weights.shuffle(&mut self.rng);

        QuerySpec {
            selection: Selection::new(conds),
            ranking_dims: rank_dims,
            weights,
            k: self.params.k,
        }
    }

    /// A batch of `n` Zipf-skewed queries.
    pub fn batch(&mut self, rel: &Relation, n: usize) -> Vec<QuerySpec> {
        (0..n).map(|_| self.next_query(rel)).collect()
    }
}

/// Knobs for a mixed read/write stream ([`MixedWorkloadGen`]).
#[derive(Debug, Clone)]
pub struct MixedWorkloadParams {
    /// Query-side knobs (conditions, ranking dims, k, weight skew, seed).
    pub query: WorkloadParams,
    /// Zipf exponent over selection values (queries *and* inserted
    /// tuples draw from the same skewed hot set, like per-user traffic).
    pub value_skew: f64,
    /// Fraction of ops that are inserts, in `[0, 1]`.
    pub insert_fraction: f64,
    /// Fraction of ops that are deletes, in `[0, 1]`
    /// (`insert_fraction + delete_fraction ≤ 1`; the rest are queries).
    pub delete_fraction: f64,
}

impl Default for MixedWorkloadParams {
    fn default() -> Self {
        Self {
            query: WorkloadParams::default(),
            value_skew: 1.0,
            insert_fraction: 0.2,
            delete_fraction: 0.05,
        }
    }
}

/// One operation in a mixed read/write stream.
#[derive(Debug, Clone)]
pub enum WorkloadOp {
    /// A top-k query (same shape [`ZipfQueryGen`] emits).
    Query(QuerySpec),
    /// Ingest one tuple: selection values (Zipf-hot) + ranking point.
    Insert { sel: Vec<u32>, point: Vec<f64> },
    /// Delete the `victim_rank`-th *most recently inserted* live tuple
    /// (0 = newest), Zipf-skewed toward recent inserts. The caller maps
    /// ranks to tids — the generator has no view of allocation — and
    /// skips the op while nothing has been inserted yet.
    Delete { victim_rank: usize },
}

/// Seeded mixed read/write generator: interleaves [`ZipfQueryGen`]
/// queries with Zipf-hot inserts and recency-skewed deletes, so delta
/// benches measure skewed ingest+query interleavings instead of uniform
/// batches. Deterministic: equal params ⇒ equal streams.
#[derive(Debug)]
pub struct MixedWorkloadGen {
    params: MixedWorkloadParams,
    queries: ZipfQueryGen,
    rng: StdRng,
    samplers: std::collections::BTreeMap<usize, Zipf>,
    /// Live inserted-tuple count, maintained so delete victims rank over
    /// a real population.
    live_inserts: usize,
}

impl MixedWorkloadGen {
    pub fn new(params: MixedWorkloadParams) -> Self {
        assert!(
            params.insert_fraction >= 0.0
                && params.delete_fraction >= 0.0
                && params.insert_fraction + params.delete_fraction <= 1.0,
            "op fractions must be non-negative and sum to at most 1"
        );
        // Offset the op-mix RNG from the query RNG so interleaving
        // decisions don't perturb query shapes between parameterizations.
        let rng = StdRng::seed_from_u64(params.query.seed.wrapping_add(0x9E37_79B9));
        let queries = ZipfQueryGen::new(params.query.clone(), params.value_skew);
        Self { params, queries, rng, samplers: std::collections::BTreeMap::new(), live_inserts: 0 }
    }

    /// Draws the next op against `rel`'s schema.
    pub fn next_op(&mut self, rel: &Relation) -> WorkloadOp {
        let schema = rel.schema();
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < self.params.insert_fraction {
            let skew = self.params.value_skew;
            let sel: Vec<u32> = (0..schema.num_selection())
                .map(|d| {
                    let card = schema.selection_dim(d).cardinality() as usize;
                    let zipf =
                        self.samplers.entry(card).or_insert_with(|| Zipf::new(card.max(1), skew));
                    zipf.sample(&mut self.rng) as u32
                })
                .collect();
            let point: Vec<f64> =
                (0..schema.num_ranking()).map(|_| self.rng.gen_range(0.0..1.0)).collect();
            self.live_inserts += 1;
            WorkloadOp::Insert { sel, point }
        } else if roll < self.params.insert_fraction + self.params.delete_fraction
            && self.live_inserts > 0
        {
            let zipf = Zipf::new(self.live_inserts, self.params.value_skew.max(0.5));
            let victim_rank = zipf.sample(&mut self.rng);
            self.live_inserts -= 1;
            WorkloadOp::Delete { victim_rank }
        } else {
            WorkloadOp::Query(self.queries.next_query(rel))
        }
    }

    /// A stream of `n` interleaved ops.
    pub fn stream(&mut self, rel: &Relation, n: usize) -> Vec<WorkloadOp> {
        (0..n).map(|_| self.next_op(rel)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SyntheticSpec;

    #[test]
    fn queries_respect_parameters() {
        let rel = SyntheticSpec { tuples: 100, ..Default::default() }.generate();
        let mut qg = QueryGen::new(WorkloadParams {
            num_conditions: 2,
            num_ranking: 2,
            k: 5,
            skewness: 3.0,
            seed: 1,
        });
        for q in qg.batch(&rel, 20) {
            assert_eq!(q.selection.len(), 2);
            assert_eq!(q.ranking_dims.len(), 2);
            assert_eq!(q.k, 5);
            let mx = q.weights.iter().cloned().fold(f64::MIN, f64::max);
            let mn = q.weights.iter().cloned().fold(f64::MAX, f64::min);
            assert!((mx / mn - 3.0).abs() < 1e-9);
            // Dimensions must be distinct and in-domain.
            let dims = q.selection.dims();
            assert!(dims.iter().all(|&d| d < 3));
        }
    }

    #[test]
    fn clamps_to_schema_arity() {
        let rel =
            SyntheticSpec { tuples: 10, selection_dims: 2, ranking_dims: 1, ..Default::default() }
                .generate();
        let mut qg = QueryGen::new(WorkloadParams {
            num_conditions: 5,
            num_ranking: 4,
            ..Default::default()
        });
        let q = qg.next_query(&rel);
        assert_eq!(q.selection.len(), 2);
        assert_eq!(q.ranking_dims.len(), 1);
    }

    #[test]
    fn full_weights_places_zeros() {
        let q = QuerySpec {
            selection: Selection::all(),
            ranking_dims: vec![0, 2],
            weights: vec![1.0, 2.0],
            k: 10,
        };
        assert_eq!(q.full_weights(4), vec![1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(20, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 20];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate the tail decisively under s = 1.2.
        assert!(counts[0] > counts[10] * 3, "head {} tail {}", counts[0], counts[10]);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 700, "uniform draw too skewed: {counts:?}");
        }
    }

    #[test]
    fn zipf_generator_is_deterministic_and_skewed() {
        let rel = SyntheticSpec { tuples: 200, ..Default::default() }.generate();
        let params = WorkloadParams { seed: 11, ..Default::default() };
        let mut a = ZipfQueryGen::new(params.clone(), 1.1);
        let mut b = ZipfQueryGen::new(params, 1.1);
        let qa = a.batch(&rel, 50);
        let qb = b.batch(&rel, 50);
        let mut zeros = 0usize;
        let mut total = 0usize;
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(x.selection, y.selection);
            assert_eq!(x.weights, y.weights);
            for (_, v) in x.selection.conds() {
                total += 1;
                if *v == 0 {
                    zeros += 1;
                }
            }
        }
        // Under Zipf(1.1) over cardinality-20 domains, value 0 should take
        // far more than the uniform 1/20 share.
        assert!(zeros * 5 > total, "value 0 drew {zeros}/{total}");
    }

    #[test]
    fn mixed_stream_is_deterministic_and_mixes_ops() {
        let rel = SyntheticSpec { tuples: 100, ..Default::default() }.generate();
        let params = MixedWorkloadParams {
            insert_fraction: 0.3,
            delete_fraction: 0.1,
            ..Default::default()
        };
        let sa = MixedWorkloadGen::new(params.clone()).stream(&rel, 300);
        let sb = MixedWorkloadGen::new(params).stream(&rel, 300);
        assert_eq!(sa.len(), sb.len());
        let (mut q, mut i, mut d) = (0usize, 0usize, 0usize);
        for (a, b) in sa.iter().zip(&sb) {
            match (a, b) {
                (WorkloadOp::Query(x), WorkloadOp::Query(y)) => {
                    assert_eq!(x.selection, y.selection);
                    assert_eq!(x.weights, y.weights);
                    q += 1;
                }
                (
                    WorkloadOp::Insert { sel: x, point: px },
                    WorkloadOp::Insert { sel: y, point: py },
                ) => {
                    assert_eq!(x, y);
                    assert_eq!(px, py);
                    assert_eq!(x.len(), rel.schema().num_selection());
                    assert_eq!(px.len(), rel.schema().num_ranking());
                    i += 1;
                }
                (WorkloadOp::Delete { victim_rank: x }, WorkloadOp::Delete { victim_rank: y }) => {
                    assert_eq!(x, y);
                    d += 1;
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
        assert!(q > 100 && i > 40 && d > 5, "mix off: q={q} i={i} d={d}");
    }

    #[test]
    fn mixed_stream_never_deletes_before_inserting() {
        let rel = SyntheticSpec { tuples: 50, ..Default::default() }.generate();
        let params = MixedWorkloadParams {
            insert_fraction: 0.05,
            delete_fraction: 0.9,
            ..Default::default()
        };
        let mut live = 0usize;
        for op in MixedWorkloadGen::new(params).stream(&rel, 200) {
            match op {
                WorkloadOp::Insert { .. } => live += 1,
                WorkloadOp::Delete { victim_rank } => {
                    assert!(live > 0, "delete emitted with no live inserts");
                    assert!(victim_rank < live, "victim rank out of range");
                    live -= 1;
                }
                WorkloadOp::Query(_) => {}
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let rel = SyntheticSpec { tuples: 50, ..Default::default() }.generate();
        let mut a = QueryGen::new(WorkloadParams::default());
        let mut b = QueryGen::new(WorkloadParams::default());
        for _ in 0..5 {
            let qa = a.next_query(&rel);
            let qb = b.next_query(&rel);
            assert_eq!(qa.selection, qb.selection);
            assert_eq!(qa.weights, qb.weights);
        }
    }
}
