//! Structure-of-arrays point storage for million-node kernels.
//!
//! The array-of-structs [`Point`] layout is right for the algorithmic
//! code in this workspace, but the batch interference kernels at 10^6+
//! nodes are bound by memory traffic: a disk-query inner loop that
//! touches `{x, y}` pairs through an index indirection wastes half of
//! every cache line on the coordinate it is not currently comparing and
//! defeats hardware prefetch. [`SoaPoints`] stores the coordinates as
//! two parallel `Vec<f64>` columns so scans stream contiguously; the
//! [`crate::SoaGrid`] built over it additionally *permutes* the columns
//! into bucket order, making every bucket scan a pure sequential read.
//!
//! Coordinates are plain `f64`s with the same finiteness expectations as
//! [`Point`]; conversion helpers are exact in both directions.

use crate::bbox::Aabb;
use crate::grid::{try_reserve_points, GridCapacityError};
use crate::point::Point;

/// A set of points stored as two parallel coordinate columns.
///
/// Indices are stable: `get(i)` of a store built with
/// [`SoaPoints::from_points`] equals `points[i]` bit for bit. The store
/// is append-only ([`SoaPoints::push`]) so streaming generators can fill
/// it without materializing an intermediate `Vec<Point>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaPoints {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SoaPoints {
    /// An empty store.
    pub fn new() -> Self {
        SoaPoints::default()
    }

    /// An empty store with room for `n` points per column.
    pub fn with_capacity(n: usize) -> Self {
        SoaPoints {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// [`SoaPoints::with_capacity`], reserved with `try_reserve_exact`:
    /// errors, naming `n` and the bytes of the column that did not fit,
    /// when memory runs out.
    pub fn try_with_capacity(n: usize) -> Result<Self, GridCapacityError> {
        let mut soa = SoaPoints::new();
        try_reserve_points(&mut soa.xs, n, n)?;
        try_reserve_points(&mut soa.ys, n, n)?;
        Ok(soa)
    }

    /// Columnar copy of an existing point slice.
    pub fn from_points(points: &[Point]) -> Self {
        SoaPoints {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
        }
    }

    /// Appends one point; its index is `len() - 1` afterwards.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Point `i` as a [`Point`] (exact: the coordinates round-trip).
    #[inline]
    // rim-lint: allow(panic-freedom) — indices are caller-validated against len()
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// The x-coordinate column.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-coordinate column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The two columns, `(xs, ys)`, handed over without a copy.
    pub fn into_columns(self) -> (Vec<f64>, Vec<f64>) {
        (self.xs, self.ys)
    }

    /// Bounding box of the stored points (empty box for an empty store).
    pub fn bbox(&self) -> Aabb {
        let mut bbox = Aabb::EMPTY;
        for i in 0..self.len() {
            bbox = bbox.expand(self.get(i));
        }
        bbox
    }
}

impl From<&[Point]> for SoaPoints {
    fn from(points: &[Point]) -> Self {
        SoaPoints::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let pts = [Point::new(0.1, -2.5), Point::new(3.7, 0.0), Point::ORIGIN];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 3);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(soa.get(i), *p);
        }
    }

    #[test]
    fn push_matches_from_points() {
        let mut soa = SoaPoints::with_capacity(2);
        assert!(soa.is_empty());
        soa.push(1.0, 2.0);
        soa.push(-0.5, 0.25);
        let built = SoaPoints::from_points(&[Point::new(1.0, 2.0), Point::new(-0.5, 0.25)]);
        assert_eq!(soa, built);
        assert_eq!(soa.xs(), &[1.0, -0.5]);
        assert_eq!(soa.ys(), &[2.0, 0.25]);
    }

    #[test]
    fn bbox_matches_aabb_of_points() {
        let pts = [Point::new(-1.0, 4.0), Point::new(2.0, -3.0)];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.bbox(), Aabb::of_points(&pts));
        assert!(SoaPoints::new().bbox().is_empty());
    }
}
