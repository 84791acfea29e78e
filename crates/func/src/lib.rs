//! Ranking functions with box lower bounds.
//!
//! The thesis defines the admissible class as *lower-bound functions*
//! (Section 1.2.1): given `f(N'1..N'j)` and a domain region Ω, the lower
//! bound of `f` over Ω can be derived. All ranking-cube search algorithms
//! (neighborhood search, branch-and-bound, index-merge) only require this
//! single capability plus, for the specialised expansions of Chapter 5,
//! knowledge of monotonicity / semi-monotonicity.
//!
//! This crate provides:
//!
//! * [`Interval`] — closed-interval arithmetic for deriving bounds;
//! * [`Rect`] — axis-aligned boxes (the Ω regions: grid blocks, R-tree MBRs,
//!   joint states);
//! * [`RankFn`] — the trait every search algorithm consumes;
//! * closed-form families used throughout the evaluation: [`Linear`],
//!   [`SqDist`], [`L1Dist`], and the Chapter 5 controlled functions
//!   ([`GeneralSq`] for `(A − B²)²`-style forms, [`Constrained`] for
//!   `f_c = (A+B)/η(B)`);
//! * [`Expr`] — an ad-hoc expression AST with interval evaluation, covering
//!   the "ad hoc ranking functions" discussion of Section 3.6.1.

pub mod expr;
pub mod funcs;
pub mod interval;
pub mod rect;

pub use expr::Expr;
pub use funcs::{Constrained, GeneralSq, L1Dist, Linear, SqDist};
pub use interval::Interval;
pub use rect::Rect;

/// Monotonicity classification of a ranking function over a region, used by
/// the progressive-merge expansions of Chapter 5 to pick a strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// `f` is non-decreasing in every argument (TA-style).
    Monotone,
    /// `f(x) ≤ f(x')` whenever `|xi − oi| ≤ |x'i − oi|` for every `i`;
    /// carries the extreme point `o` (Section 5.2.2).
    SemiMonotone(Vec<f64>),
    /// No usable structure: only box lower bounds are available.
    General,
}

/// A ranking function admissible for ranking-cube processing.
///
/// Scores are minimised (the thesis assumes score-ascending top-k
/// throughout; a maximisation query negates the function).
///
/// `Send + Sync` is a supertrait so one plan can be scattered across
/// shard worker threads: every implementation is plain data (weights,
/// target points), so the bound costs nothing.
pub trait RankFn: Send + Sync {
    /// Exact score of a tuple's ranking-dimension values.
    fn score(&self, point: &[f64]) -> f64;

    /// A lower bound of the score over the box `region`. Must satisfy
    /// `lower_bound(Ω) ≤ min_{x ∈ Ω} score(x)`; tighter is faster.
    ///
    /// That soundness is all a correct answer needs. The grid search also
    /// bounds boxes of many blocks and descends into the best one first;
    /// it meets blocks in ascending bound order when the bound is
    /// *inclusion-monotone* — `Ω′ ⊆ Ω ⇒ lower_bound(Ω′) ≥ lower_bound(Ω)`,
    /// in floating point, not only over the reals. Every family in this
    /// crate is (exact box minima and interval arithmetic both are); a
    /// bound that is sound but not monotone still answers correctly and
    /// merely reads blocks in another order.
    fn lower_bound(&self, region: &Rect) -> f64;

    /// Structural shape used to select an expansion strategy.
    fn shape(&self) -> Shape {
        Shape::General
    }

    /// Number of ranking dimensions the function reads.
    fn arity(&self) -> usize;

    /// For linear functions, the weight vector — lets engines whose plans
    /// require linearity (the rank-mapping baseline's bound oracle) accept
    /// a type-erased plan function. `None` for every other family.
    fn linear_weights(&self) -> Option<&[f64]> {
        None
    }
}

impl<F: RankFn + ?Sized> RankFn for &F {
    fn score(&self, point: &[f64]) -> f64 {
        (**self).score(point)
    }
    fn lower_bound(&self, region: &Rect) -> f64 {
        (**self).lower_bound(region)
    }
    fn shape(&self) -> Shape {
        (**self).shape()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn linear_weights(&self) -> Option<&[f64]> {
        (**self).linear_weights()
    }
}

impl RankFn for Box<dyn RankFn> {
    fn score(&self, point: &[f64]) -> f64 {
        (**self).score(point)
    }
    fn lower_bound(&self, region: &Rect) -> f64 {
        (**self).lower_bound(region)
    }
    fn shape(&self) -> Shape {
        (**self).shape()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect(dims: usize) -> impl Strategy<Value = Rect> {
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), dims).prop_map(|bounds| {
            let lo: Vec<f64> = bounds.iter().map(|(a, b)| a.min(*b)).collect();
            let hi: Vec<f64> = bounds.iter().map(|(a, b)| a.max(*b)).collect();
            Rect::new(lo, hi)
        })
    }

    fn sample_points(r: &Rect, n: usize) -> Vec<Vec<f64>> {
        // Deterministic lattice of points inside the rect, including corners.
        let d = r.dims();
        let mut pts = Vec::new();
        for i in 0..n {
            let t = i as f64 / (n.max(2) - 1) as f64;
            pts.push((0..d).map(|j| r.lo(j) + t * (r.hi(j) - r.lo(j))).collect());
        }
        // All corners for small d.
        if d <= 4 {
            for mask in 0..(1usize << d) {
                pts.push(
                    (0..d).map(|j| if mask >> j & 1 == 1 { r.hi(j) } else { r.lo(j) }).collect(),
                );
            }
        }
        pts
    }

    /// Every closed-form family must produce true lower bounds.
    macro_rules! lb_soundness {
        ($name:ident, $dims:expr, $make:expr) => {
            proptest! {
                #[test]
                fn $name(r in arb_rect($dims), params in proptest::collection::vec(-3.0f64..3.0, $dims)) {
                    let f = $make(&params);
                    let lb = f.lower_bound(&r);
                    for p in sample_points(&r, 9) {
                        prop_assert!(
                            f.score(&p) >= lb - 1e-9,
                            "score {} below bound {} at {:?}",
                            f.score(&p), lb, p
                        );
                    }
                }
            }
        };
    }

    lb_soundness!(linear_lb_sound, 3, |w: &[f64]| Linear::new(w.to_vec()));
    lb_soundness!(sqdist_lb_sound, 3, |w: &[f64]| SqDist::new(w.to_vec()));
    lb_soundness!(l1_lb_sound, 3, |w: &[f64]| L1Dist::new(w.to_vec()));
    lb_soundness!(generalsq_lb_sound, 2, |w: &[f64]| GeneralSq::new(
        vec![(0, w[0].abs() + 0.1)],
        vec![(1, 2.0)]
    ));
}
