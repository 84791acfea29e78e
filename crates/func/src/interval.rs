//! Closed-interval arithmetic.
//!
//! Interval evaluation is how the reproduction derives the thesis'
//! "lower bound of f over Ω" for ad-hoc expressions: evaluate the expression
//! with every variable replaced by its range inside the box, and take the
//! interval's lower end. The operations below are the standard outward
//! (conservative) rules; the result always encloses the true image.

/// A closed real interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/neg are interval ops, deliberately method-form
impl Interval {
    /// Creates `[lo, hi]`, normalising inverted endpoints.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self { lo: v, hi: v }
    }

    /// True when `v ∈ [lo, hi]`.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Pointwise sum.
    pub fn add(self, rhs: Self) -> Self {
        Self { lo: self.lo + rhs.lo, hi: self.hi + rhs.hi }
    }

    /// Pointwise difference.
    pub fn sub(self, rhs: Self) -> Self {
        Self { lo: self.lo - rhs.hi, hi: self.hi - rhs.lo }
    }

    /// Pointwise product (min/max over the four endpoint products).
    pub fn mul(self, rhs: Self) -> Self {
        let c = [self.lo * rhs.lo, self.lo * rhs.hi, self.hi * rhs.lo, self.hi * rhs.hi];
        Self {
            lo: c.iter().cloned().fold(f64::INFINITY, f64::min),
            hi: c.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Scaling by a constant.
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.lo * k, self.hi * k)
    }

    /// Negation.
    pub fn neg(self) -> Self {
        Self { lo: -self.hi, hi: -self.lo }
    }

    /// Squaring — the image of `x²`, which is `[0, max²]` when the interval
    /// crosses zero (the zero-crossing rule that makes `(A − B²)²` bounds
    /// tight enough to prune).
    pub fn square(self) -> Self {
        if self.contains(0.0) {
            let m = self.lo.abs().max(self.hi.abs());
            Self { lo: 0.0, hi: m * m }
        } else {
            let a = self.lo * self.lo;
            let b = self.hi * self.hi;
            Self::new(a.min(b), a.max(b))
        }
    }

    /// Absolute value image.
    pub fn abs(self) -> Self {
        if self.contains(0.0) {
            Self { lo: 0.0, hi: self.lo.abs().max(self.hi.abs()) }
        } else {
            let a = self.lo.abs();
            let b = self.hi.abs();
            Self::new(a.min(b), a.max(b))
        }
    }

    /// Interval hull of two intervals.
    pub fn hull(self, rhs: Self) -> Self {
        Self { lo: self.lo.min(rhs.lo), hi: self.hi.max(rhs.hi) }
    }

    /// True when the two intervals overlap.
    pub fn intersects(&self, rhs: &Self) -> bool {
        self.lo <= rhs.hi && rhs.lo <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalises() {
        let i = Interval::new(2.0, -1.0);
        assert_eq!(i.lo, -1.0);
        assert_eq!(i.hi, 2.0);
    }

    #[test]
    fn add_sub() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a.add(b), Interval::new(0.0, 5.0));
        assert_eq!(a.sub(b), Interval::new(-2.0, 3.0));
    }

    #[test]
    fn mul_handles_signs() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-1.0, 4.0);
        let m = a.mul(b);
        assert_eq!(m.lo, -8.0);
        assert_eq!(m.hi, 12.0);
    }

    #[test]
    fn square_zero_crossing() {
        assert_eq!(Interval::new(-2.0, 1.0).square(), Interval::new(0.0, 4.0));
        assert_eq!(Interval::new(1.0, 3.0).square(), Interval::new(1.0, 9.0));
        assert_eq!(Interval::new(-3.0, -1.0).square(), Interval::new(1.0, 9.0));
    }

    #[test]
    fn abs_zero_crossing() {
        assert_eq!(Interval::new(-2.0, 1.0).abs(), Interval::new(0.0, 2.0));
        assert_eq!(Interval::new(-3.0, -1.0).abs(), Interval::new(1.0, 3.0));
    }

    #[test]
    fn hull_and_intersects() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.hull(b), Interval::new(0.0, 3.0));
        assert!(a.hull(b).intersects(&b));
    }

    #[test]
    fn enclosure_under_composition() {
        // ((x - y)^2 + x) over x in [0,1], y in [0,2] must enclose samples.
        let x = Interval::new(0.0, 1.0);
        let y = Interval::new(0.0, 2.0);
        let img = x.sub(y).square().add(x);
        for i in 0..=10 {
            for j in 0..=10 {
                let xv = i as f64 / 10.0;
                let yv = j as f64 / 5.0;
                let v = (xv - yv) * (xv - yv) + xv;
                assert!(img.contains(v), "{v} not in {img:?}");
            }
        }
    }
}
