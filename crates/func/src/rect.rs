//! Axis-aligned boxes — the Ω regions of the thesis.
//!
//! Grid base blocks (Chapter 3), R-tree MBRs (Chapter 4), and joint states
//! over merged indices (Chapter 5) are all `Rect`s; every search algorithm
//! scores them through [`crate::RankFn::lower_bound`].

use crate::Interval;

/// An axis-aligned box `[lo(0), hi(0)] × … × [lo(d−1), hi(d−1)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rect from per-dimension bounds. Panics if lengths differ or
    /// any `lo > hi` (an index-construction invariant, not a user input).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "Rect bounds must have equal arity");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "Rect lower bound {l} exceeds upper bound {h}");
        }
        Self { lo, hi }
    }

    /// A degenerate rect covering the single point `p`.
    pub fn point(p: &[f64]) -> Self {
        Self { lo: p.to_vec(), hi: p.to_vec() }
    }

    /// The unit hyper-cube `[0,1]^d` (default ranking-dimension domain).
    pub fn unit(dims: usize) -> Self {
        Self { lo: vec![0.0; dims], hi: vec![1.0; dims] }
    }

    /// An empty accumulator rect suitable for [`Rect::expand`].
    pub fn empty(dims: usize) -> Self {
        Self { lo: vec![f64::INFINITY; dims], hi: vec![f64::NEG_INFINITY; dims] }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound on dimension `d`.
    #[inline]
    pub fn lo(&self, d: usize) -> f64 {
        self.lo[d]
    }

    /// Upper bound on dimension `d`.
    #[inline]
    pub fn hi(&self, d: usize) -> f64 {
        self.hi[d]
    }

    /// The interval covered on dimension `d`.
    pub fn interval(&self, d: usize) -> Interval {
        Interval::new(self.lo[d], self.hi[d])
    }

    /// Replaces the bounds on dimension `d` in place — a search bounding
    /// one region after another keeps a single scratch rect. Panics if
    /// `lo > hi`, like [`Rect::new`].
    #[inline]
    pub fn set(&mut self, d: usize, lo: f64, hi: f64) {
        assert!(lo <= hi, "Rect lower bound {lo} exceeds upper bound {hi}");
        self.lo[d] = lo;
        self.hi[d] = hi;
    }

    /// Grows the rect to cover `p` (MBR maintenance).
    pub fn expand(&mut self, p: &[f64]) {
        for ((lo, hi), &v) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }

    /// Grows the rect to cover `other`.
    pub fn expand_rect(&mut self, other: &Rect) {
        for d in 0..self.dims() {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// True when `p` lies inside (closed) the rect.
    pub fn contains(&self, p: &[f64]) -> bool {
        (0..self.dims()).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// True when the rects overlap.
    pub fn intersects(&self, other: &Rect) -> bool {
        (0..self.dims()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// True when `other` lies fully inside `self`.
    pub fn covers(&self, other: &Rect) -> bool {
        (0..self.dims()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Hyper-volume (0 for degenerate rects). Used by the R-tree's quadratic
    /// split heuristic.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.hi[d] - self.lo[d]).product()
    }

    /// Volume of the minimum rect enclosing `self` and `other`.
    pub fn union_volume(&self, other: &Rect) -> f64 {
        (0..self.dims())
            .map(|d| self.hi[d].max(other.hi[d]) - self.lo[d].min(other.lo[d]))
            .product()
    }

    /// Sum of side half-perimeters (R*-tree margin metric).
    pub fn margin(&self) -> f64 {
        (0..self.dims()).map(|d| self.hi[d] - self.lo[d]).sum()
    }

    /// Concatenates two rects over disjoint dimension sets — the joint state
    /// region of Chapter 5 (`Ω(S) = Ω(n1) × Ω(n2)`).
    pub fn concat(&self, other: &Rect) -> Rect {
        let mut lo = self.lo.clone();
        let mut hi = self.hi.clone();
        lo.extend_from_slice(&other.lo);
        hi.extend_from_slice(&other.hi);
        Rect { lo, hi }
    }

    /// Projects the rect onto a subset of dimensions.
    pub fn project(&self, dims: &[usize]) -> Rect {
        Rect {
            lo: dims.iter().map(|&d| self.lo[d]).collect(),
            hi: dims.iter().map(|&d| self.hi[d]).collect(),
        }
    }

    /// [`Self::project`] into a caller-owned rect, reusing its buffers — a
    /// search projecting one region per child keeps a single scratch rect.
    pub fn project_into(&self, dims: &[usize], out: &mut Rect) {
        out.lo.clear();
        out.lo.extend(dims.iter().map(|&d| self.lo[d]));
        out.hi.clear();
        out.hi.extend(dims.iter().map(|&d| self.hi[d]));
    }

    /// The point of the rect closest to `q` (per-dimension clamp); the
    /// geometric core of `SqDist`/`L1Dist` lower bounds and of BBS `mindist`.
    pub fn closest_point(&self, q: &[f64]) -> Vec<f64> {
        (0..self.dims()).map(|d| q[d].clamp(self.lo[d], self.hi[d])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_intersects() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        assert!(r.contains(&[0.5, 1.0]));
        assert!(r.contains(&[1.0, 2.0])); // closed boundary
        assert!(!r.contains(&[1.1, 0.0]));
        let s = Rect::new(vec![0.9, 1.9], vec![3.0, 3.0]);
        assert!(r.intersects(&s));
        let t = Rect::new(vec![2.0, 0.0], vec![3.0, 1.0]);
        assert!(!r.intersects(&t));
    }

    #[test]
    fn expand_covers_all_points() {
        let mut r = Rect::empty(2);
        r.expand(&[1.0, -1.0]);
        r.expand(&[-2.0, 3.0]);
        assert_eq!(r, Rect::new(vec![-2.0, -1.0], vec![1.0, 3.0]));
    }

    #[test]
    fn volume_and_margin() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(r.volume(), 6.0);
        assert_eq!(r.margin(), 5.0);
        let s = Rect::new(vec![1.0, 1.0], vec![4.0, 4.0]);
        assert_eq!(r.union_volume(&s), 16.0);
    }

    #[test]
    fn concat_builds_joint_region() {
        let a = Rect::new(vec![0.0], vec![1.0]);
        let b = Rect::new(vec![2.0, 3.0], vec![4.0, 5.0]);
        let j = a.concat(&b);
        assert_eq!(j.dims(), 3);
        assert_eq!(j.lo(1), 2.0);
        assert_eq!(j.hi(2), 5.0);
    }

    #[test]
    fn project_selects_dims() {
        let r = Rect::new(vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]);
        let p = r.project(&[2, 0]);
        assert_eq!(p, Rect::new(vec![2.0, 0.0], vec![5.0, 3.0]));
        // Into a scratch of another arity: same rect, buffers reused.
        let mut scratch = Rect::unit(3);
        r.project_into(&[2, 0], &mut scratch);
        assert_eq!(scratch, p);
    }

    #[test]
    fn set_replaces_one_dimension() {
        let mut r = Rect::unit(2);
        r.set(1, 0.25, 0.5);
        assert_eq!(r, Rect::new(vec![0.0, 0.25], vec![1.0, 0.5]));
    }

    #[test]
    fn closest_point_clamps() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(r.closest_point(&[2.0, -1.0]), vec![1.0, 0.0]);
        assert_eq!(r.closest_point(&[0.5, 0.5]), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_panic() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn covers_is_containment() {
        let outer = Rect::new(vec![0.0, 0.0], vec![4.0, 4.0]);
        let inner = Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]);
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert!(outer.covers(&outer));
    }
}
