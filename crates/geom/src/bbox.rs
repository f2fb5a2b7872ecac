//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding box (closed on all sides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Corner with minimal coordinates.
    pub min: Point,
    /// Corner with maximal coordinates.
    pub max: Point,
}

impl Aabb {
    /// An "empty" box that contains nothing and is the identity for
    /// [`Aabb::expand`].
    pub const EMPTY: Aabb = Aabb {
        min: Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Smallest box containing all `points`; [`Aabb::EMPTY`] if none.
    pub fn of_points(points: &[Point]) -> Self {
        points.iter().fold(Aabb::EMPTY, |b, p| b.expand(*p))
    }

    /// Returns the box grown to also contain `p`.
    #[must_use]
    pub fn expand(&self, p: Point) -> Self {
        Aabb {
            min: Point::new(self.min.x.min(p.x), self.min.y.min(p.y)),
            max: Point::new(self.max.x.max(p.x), self.max.y.max(p.y)),
        }
    }

    /// Returns `true` if the box contains `p` (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if the box is empty (contains no point).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width of the box (0 for empty boxes).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height of the box (0 for empty boxes).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_points_bounds_everything() {
        let pts = [
            Point::new(1.0, 2.0),
            Point::new(-3.0, 0.5),
            Point::new(0.0, 7.0),
        ];
        let b = Aabb::of_points(&pts);
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point::new(-3.0, 0.5));
        assert_eq!(b.max, Point::new(1.0, 7.0));
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::EMPTY;
        assert!(e.is_empty());
        assert!(!e.contains(&Point::ORIGIN));
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.height(), 0.0);
        let b = e.expand(Point::new(1.0, 1.0));
        assert!(!b.is_empty());
        assert!(b.contains(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn new_normalizes_corner_order() {
        let b = Aabb::new(Point::new(2.0, -1.0), Point::new(-2.0, 1.0));
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(2.0, 1.0));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 2.0);
    }
}
