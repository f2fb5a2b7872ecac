//! Points in the Euclidean plane.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point in the Euclidean plane.
///
/// The highway model (one-dimensional node distributions) is represented by
/// points with `y == 0.0`; see [`Point::on_line`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Creates a point on the highway (the x-axis).
    #[inline]
    pub const fn on_line(x: f64) -> Self {
        Point { x, y: 0.0 }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::dist`] in hot paths: it avoids the square
    /// root and is exact whenever the coordinates and their differences are.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared length of the vector from the origin to this point.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Length of the vector from the origin to this point.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Cross product `(b - a) × (c - a)`; positive for a left turn.
    #[inline]
    pub fn cross(a: &Point, b: &Point, c: &Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }

    /// Dot product `(b - a) · (c - a)`.
    #[inline]
    pub fn dot(a: &Point, b: &Point, c: &Point) -> f64 {
        (b.x - a.x) * (c.x - a.x) + (b.y - a.y) * (c.y - a.y)
    }

    /// Angle of the vector `other - self` in radians, in `(-π, π]`.
    #[inline]
    pub fn angle_to(&self, other: &Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Total order on points: by `x`, then by `y` (using `f64::total_cmp`).
    ///
    /// Used wherever a deterministic ordering of point sets is required
    /// (hull construction, scan-line algorithms).
    #[inline]
    pub fn lex_cmp(&self, other: &Point) -> std::cmp::Ordering {
        self.x
            .total_cmp(&other.x)
            .then_with(|| self.y.total_cmp(&other.y))
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basic() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.dist(&a), 5.0);
    }

    #[test]
    fn distance_is_zero_iff_equal() {
        let a = Point::new(1.5, -2.25);
        assert_eq!(a.dist_sq(&a), 0.0);
        // Smallest representable perturbation of the y coordinate.
        let b = Point::new(1.5, f64::from_bits((-2.25f64).to_bits() + 1));
        assert!(a.dist_sq(&b) > 0.0);
    }

    #[test]
    fn on_line_has_zero_y() {
        let p = Point::on_line(7.5);
        assert_eq!(p.y, 0.0);
        assert_eq!(p.x, 7.5);
    }

    #[test]
    fn cross_sign_detects_turns() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let left = Point::new(1.0, 1.0);
        let right = Point::new(1.0, -1.0);
        assert!(Point::cross(&a, &b, &left) > 0.0);
        assert!(Point::cross(&a, &b, &right) < 0.0);
        assert_eq!(Point::cross(&a, &b, &Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn lex_cmp_total_order() {
        let a = Point::new(0.0, 1.0);
        let b = Point::new(0.0, 2.0);
        let c = Point::new(1.0, 0.0);
        assert!(a.lex_cmp(&b).is_lt());
        assert!(b.lex_cmp(&c).is_lt());
        assert!(a.lex_cmp(&a).is_eq());
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
    }

    #[test]
    fn angle_to_cardinal_directions() {
        let o = Point::ORIGIN;
        assert_eq!(o.angle_to(&Point::new(1.0, 0.0)), 0.0);
        assert!((o.angle_to(&Point::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.angle_to(&Point::new(-1.0, 0.0)) - std::f64::consts::PI).abs() < 1e-12);
    }
}
