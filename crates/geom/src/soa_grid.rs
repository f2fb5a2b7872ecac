//! Structure-of-arrays bucket grid — the workspace's one spatial grid.
//!
//! A grid that stores point ids per bucket answers a disk query by
//! dereferencing each candidate id into a `Vec<Point>`: one indirection
//! (and usually one cache miss) per candidate. At 10^6–10^7 points that
//! indirection *is* the kernel's running time. [`SoaGrid`] removes it:
//! at build time the coordinate columns are permuted into bucket-major
//! order, so a bucket scan reads `sxs[lo..hi]` / `sys[lo..hi]`
//! sequentially and only touches the id column for actual hits. The
//! layout — cell shape, cell coordinates and the cache-blocked bucket
//! fill — comes from [`crate::grid`].
//!
//! The same structure backs [`crate::SpatialIndex::Grid`] for the
//! `Point`-slice callers (UDG construction, topology control, the batch
//! engines) and the million-node streaming kernels. Query semantics are
//! the *closed* distance-level predicate `dist(p, c) <= r` (see the
//! crate-level floating-point policy), so results are bit-compatible
//! with the kd-tree and the naive scans.

use crate::bbox::Aabb;
use crate::grid::{bucket_scatter, fits_u32_index, GridCapacityError, GridShape};
use crate::point::Point;
use crate::soa::SoaPoints;

/// A uniform bucket grid with bucket-major coordinate columns for
/// sequential scans.
///
/// Indices reported by queries refer to the original point order of the
/// store (or slice) the grid was built from.
///
/// ```
/// use rim_geom::{Point, SoaGrid, SoaPoints};
///
/// let pts = SoaPoints::from_points(&[
///     Point::new(0.0, 0.0),
///     Point::new(0.5, 0.0),
///     Point::new(2.0, 2.0),
/// ]);
/// let grid = SoaGrid::build(&pts, 0.5);
/// assert_eq!(grid.query_disk(Point::new(0.1, 0.0), 0.5), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SoaGrid {
    pub(crate) shape: GridShape,
    pub(crate) starts: Vec<u32>,
    /// Original point ids, bucket-major, insertion-stable per bucket.
    pub(crate) items: Vec<u32>,
    /// X-coordinates permuted into the `items` order.
    pub(crate) sxs: Vec<f64>,
    /// Y-coordinates permuted into the `items` order.
    pub(crate) sys: Vec<f64>,
}

impl SoaGrid {
    /// Builds a grid over `points` with the given `cell` size hint. The
    /// hint is sanitized and budget-clamped (see [`crate::grid`]):
    /// degenerate hints fall back to the bounding-box diagonal, and cell
    /// counts stay `O(n)`.
    ///
    /// Panics if the store exceeds the `u32` item capacity; use
    /// [`SoaGrid::try_build`] to handle that case as an error.
    // rim-lint: allow(panic-freedom) — the capacity assert replaces silent `as u32` id truncation
    pub fn build(points: &SoaPoints, cell: f64) -> Self {
        match Self::try_build(points, cell) {
            Ok(grid) => grid,
            // rim-lint: allow(no-unwrap-in-lib) — intentional capacity assert, fallible twin is try_build
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`SoaGrid::build`]: errors when `points` has
    /// more entries than `u32` bucket item ids can address.
    // rim-lint: allow(panic-freedom) — `i < len()` for both columns
    pub fn try_build(points: &SoaPoints, cell: f64) -> Result<Self, GridCapacityError> {
        let (xs, ys) = (points.xs(), points.ys());
        let grid = Self::try_build_with(points.len(), &points.bbox(), cell, |i| xs[i], |i| ys[i])?;
        rim_obs::counter_add("geom.index.soa_builds", 1);
        Ok(grid)
    }

    /// [`SoaGrid::try_build`] over a `Point` slice, without an
    /// intermediate [`SoaPoints`] copy.
    // rim-lint: allow(panic-freedom) — `i < points.len()`
    pub fn try_build_from_points(points: &[Point], cell: f64) -> Result<Self, GridCapacityError> {
        let bbox = Aabb::of_points(points);
        Self::try_build_with(points.len(), &bbox, cell, |i| points[i].x, |i| points[i].y)
    }

    /// The build behind both entry points: `(x(i), y(i))` for `i < n` are
    /// the points, `bbox` their bounding box.
    fn try_build_with(
        n: usize,
        bbox: &Aabb,
        cell: f64,
        x: impl Fn(usize) -> f64,
        y: impl Fn(usize) -> f64,
    ) -> Result<Self, GridCapacityError> {
        if !fits_u32_index(n) {
            return Err(GridCapacityError { points: n });
        }
        let shape = GridShape::new(bbox, n, cell);
        let cells: Vec<u32> = (0..n)
            .map(|i| (shape.row(y(i)) * shape.nx + shape.col(x(i))) as u32)
            .collect();
        let (starts, items) = bucket_scatter(&cells, shape.ncells());
        // Gather the coordinate columns into bucket order: after this,
        // every bucket scan is a sequential read of both columns.
        let sxs: Vec<f64> = items.iter().map(|&i| x(i as usize)).collect();
        let sys: Vec<f64> = items.iter().map(|&i| y(i as usize)).collect();
        Ok(SoaGrid {
            shape,
            starts,
            items,
            sxs,
            sys,
        })
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the grid indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Original point id stored at bucket-order position `k`.
    #[inline]
    // rim-lint: allow(panic-freedom) — positions are caller-validated against len()
    pub fn item(&self, k: usize) -> usize {
        self.items[k] as usize
    }

    /// Coordinates stored at bucket-order position `k` (exact copy of
    /// the original point `self.item(k)`).
    #[inline]
    // rim-lint: allow(panic-freedom) — positions are caller-validated against len()
    pub fn point_at(&self, k: usize) -> Point {
        Point::new(self.sxs[k], self.sys[k])
    }

    /// Calls `f(k)` with the *bucket-order position* of every point with
    /// `dist(points[k], c) <= r`. Positions index [`SoaGrid::item`] /
    /// [`SoaGrid::point_at`]; kernels that iterate the whole store in
    /// bucket order use this variant so neighbor coordinates never go
    /// through the id indirection.
    ///
    /// The scanned cell range is `col/row(c ± reach)`, where `reach`
    /// exceeds `r` only by a rounding slack, not by a whole cell. The
    /// range is complete because bucketing and the range bounds go
    /// through the same monotone cell coordinate of [`crate::grid`] (floor of
    /// `(v − o)/cell`, clamped to the grid): if a hit `p` satisfies
    /// `c.x − reach ≤ p.x ≤ c.x + reach` in exact arithmetic, rounding
    /// is monotone and `p.x` is representable, so
    /// `fl(c.x − reach) ≤ p.x ≤ fl(c.x + reach)` and its bucket lies
    /// between the two bounds. So `reach` only has to bound the true
    /// offset `|p.x − c.x|` of a point whose *computed* distance is at
    /// most `r`: that offset is at most `r·(1 + 2.6u)` (`u = 2⁻⁵³`: the
    /// difference, its square and the root each round once) while the
    /// square is normal, and below `2⁻⁵¹¹` the square may underflow, so
    /// `reach = r·(1 + 2⁻⁴⁰) + 2⁻⁵⁰⁰` covers both with room to spare.
    pub fn for_each_pos_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, f: F) {
        self.scan_disk(c, r, f);
    }

    /// Calls `f(i)` for every *original point index* `i` with
    /// `dist(points[i], c) <= r` (closed disk, distance level — the
    /// workspace's exactness policy). Visit order is deterministic:
    /// bucket-major, insertion order within buckets.
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, f: F) {
        self.for_each_in_disk_counting(c, r, f);
    }

    /// Like [`Self::for_each_in_disk`], additionally returning the number
    /// of candidate points scanned (the row-run lengths: points tested
    /// against the distance predicate, whether or not they passed) — the
    /// output-sensitivity signal the observability layer reports per
    /// query.
    // rim-lint: allow(panic-freedom) — scan positions are below len()
    pub fn for_each_in_disk_counting<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        self.scan_disk(c, r, |k| f(self.items[k] as usize))
    }

    /// The disk scan behind every query: calls `f(k)` for each hit
    /// position and returns the number of candidates scanned (see
    /// [`SoaGrid::for_each_pos_in_disk`] for the cell range).
    #[inline]
    // rim-lint: allow(panic-freedom) — cell coordinates are clamped to the grid; `starts` has `ncells + 1` entries and bounds the column slices
    fn scan_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        debug_assert!(r >= 0.0);
        let s = &self.shape;
        let reach = r + r * QUERY_SLACK + UNDERFLOW_SLACK;
        let cx0 = s.col(c.x - reach);
        let cx1 = s.col(c.x + reach);
        let cy0 = s.row(c.y - reach);
        let cy1 = s.row(c.y + reach);
        let mut candidates = 0;
        if cx1 < cx0 || cy1 < cy0 {
            return candidates; // negative radius
        }
        for cy in cy0..=cy1 {
            // Contiguous run of cells within the row: one slice scan per
            // row instead of one per cell keeps the loop tight.
            let row = cy * s.nx;
            let lo = self.starts[row + cx0] as usize;
            let hi = self.starts[row + cx1 + 1] as usize;
            candidates += hi - lo;
            for (i, (&x, &y)) in self.sxs[lo..hi].iter().zip(&self.sys[lo..hi]).enumerate() {
                // Same formula as Point::dist — sqrt of dx² + dy², then a
                // distance-level closed comparison — so hits agree with
                // the naive scan bit for bit.
                if Point::new(x, y).dist(&c) <= r {
                    f(lo + i);
                }
            }
        }
        candidates
    }

    /// Occupancy of every non-empty bucket, in cell order — the cell
    /// occupancy distribution the observability layer histograms at build
    /// time.
    pub fn nonempty_bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .filter(|&occ| occ > 0)
    }

    /// Collects the indices of all points within distance `r` of `c`, in
    /// deterministic bucket-major order.
    pub fn query_disk(&self, c: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(c, r, |i| out.push(i));
        out
    }

    /// Counts the points within distance `r` of `c`.
    pub fn count_in_disk(&self, c: Point, r: f64) -> usize {
        let mut count = 0;
        self.for_each_in_disk(c, r, |_| count += 1);
        count
    }

    /// Distance from the point at *bucket-order position* `k` to its
    /// nearest other indexed point — the streaming nearest-neighbor
    /// radius assignment. Returns `None` for a store with fewer than two
    /// points or an out-of-range position.
    ///
    /// The value is `sqrt(min dist_sq)` over all other points, bit-equal
    /// to [`Point::dist`] of the closest pair. The search reads the 3×3
    /// block of cells around the point's own cell, then widens by one
    /// Chebyshev ring at a time, keeping the minimum `dist_sq`; no square
    /// root is taken until the end. After ring `R` it stops once
    /// `best_sq ≤ (R·cell·(1 − 2⁻²⁰))²`. If the block covers the whole
    /// grid, or more rings would cost more than a scan of every point,
    /// it falls back to a full scan.
    ///
    /// Why the stop is exact: every point is bucketed by its cell coordinate,
    /// i.e. `floor(a)` with `a = fl(fl(x − o)/cell)`, clamped to `nx − 1`.
    /// Take a point `p` whose column is at least `R + 1` away from the
    /// column of `c`. Clamping only lowers a column, so `c`'s column is
    /// `floor(a_c)` if `p` lies to its right and at most `floor(a_c)` if
    /// `p` lies to its left; either way `|a_p − a_c| > R`. Each `a` is
    /// within `2.0001u·nx` of the true `(x − o)/cell` (`u = 2⁻⁵³`: two
    /// roundings relative to `a < nx·(1 + 2u)`), and the grid caps
    /// `nx, ny ≤ 2³⁰`, so the true offset exceeds
    /// `(R − 2⁻²¹·1.0001)·cell ≥ R·cell·(1 − 2⁻²¹·1.0001)`. The stop
    /// factor keeps almost another `2⁻²¹` in reserve, far more than the
    /// few ulps by which the computed `R·cell·(1 − 2⁻²⁰)` can exceed its
    /// exact value, so it stays below `|p.x − c.x|`. Rounding is
    /// monotone, so `p`'s computed `dx²`, and with it its `dist_sq`, is at
    /// least the threshold and cannot undercut `best_sq`, even where
    /// squares underflow. Rows follow the same argument.
    // rim-lint: allow(panic-freedom) — `k` is range-checked; ring cells are clamped to the grid
    pub fn nearest_dist_at(&self, k: usize) -> Option<f64> {
        if self.len() < 2 || k >= self.len() {
            return None;
        }
        let c = Point::new(self.sxs[k], self.sys[k]);
        let s = &self.shape;
        let (ix, iy) = (s.col(c.x), s.row(c.y));
        let (last_x, last_y) = (s.nx - 1, s.ny - 1);
        let mut best_sq = f64::INFINITY;
        // Own cell and ring 1, as three contiguous row runs.
        let (x0, x1) = (ix.saturating_sub(1), (ix + 1).min(last_x));
        for y in iy.saturating_sub(1)..=(iy + 1).min(last_y) {
            self.min_sq_in_cells(y, x0, x1, c, k, &mut best_sq);
        }
        let mut ring = 1;
        loop {
            let stop = ring as f64 * s.cell * RING_SHRINK;
            if best_sq <= stop * stop {
                break;
            }
            let covers = ix <= ring && iy <= ring && ix + ring >= last_x && iy + ring >= last_y;
            if covers || ring * ring > self.len() {
                best_sq = f64::INFINITY;
                self.min_sq_in_range(0, self.len(), c, k, &mut best_sq);
                break;
            }
            ring += 1;
            // Ring `ring`: its top and bottom rows as runs, then the
            // single cells of its left and right columns in between.
            let (x0, x1) = (ix.saturating_sub(ring), (ix + ring).min(last_x));
            if let Some(y) = iy.checked_sub(ring) {
                self.min_sq_in_cells(y, x0, x1, c, k, &mut best_sq);
            }
            if iy + ring <= last_y {
                self.min_sq_in_cells(iy + ring, x0, x1, c, k, &mut best_sq);
            }
            let left = ix.checked_sub(ring);
            let right = (ix + ring <= last_x).then_some(ix + ring);
            if left.is_some() || right.is_some() {
                for y in iy.saturating_sub(ring - 1)..=(iy + ring - 1).min(last_y) {
                    for x in left.into_iter().chain(right) {
                        self.min_sq_in_cells(y, x, x, c, k, &mut best_sq);
                    }
                }
            }
        }
        Some(best_sq.sqrt())
    }

    /// Lowers `best_sq` to the smallest `dist_sq` from `c` over the
    /// points in cells `x0..=x1` of row `y`, skipping position `skip`.
    #[inline]
    // rim-lint: allow(panic-freedom) — callers clamp `y <= ny - 1` and `x0 <= x1 <= nx - 1`; `starts` has `ncells + 1` entries
    fn min_sq_in_cells(
        &self,
        y: usize,
        x0: usize,
        x1: usize,
        c: Point,
        skip: usize,
        best_sq: &mut f64,
    ) {
        let row = y * self.shape.nx;
        let lo = self.starts[row + x0] as usize;
        let hi = self.starts[row + x1 + 1] as usize;
        self.min_sq_in_range(lo, hi, c, skip, best_sq);
    }

    /// Lowers `best_sq` to the smallest `dist_sq` from `c` over positions
    /// `lo..hi`, skipping position `skip`.
    #[inline]
    // rim-lint: allow(panic-freedom) — `lo <= hi <= len()` comes from `starts` or the caller
    fn min_sq_in_range(&self, lo: usize, hi: usize, c: Point, skip: usize, best_sq: &mut f64) {
        for (i, (&x, &y)) in self.sxs[lo..hi].iter().zip(&self.sys[lo..hi]).enumerate() {
            let d_sq = Point::new(x, y).dist_sq(&c);
            if d_sq < *best_sq && lo + i != skip {
                *best_sq = d_sq;
            }
        }
    }
}

/// Relative slack of a disk query's cell range (see
/// [`SoaGrid::for_each_pos_in_disk`]).
pub(crate) const QUERY_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Absolute slack of a disk query's cell range, `2⁻⁵⁰⁰`: covers offsets
/// whose squares underflow.
pub(crate) const UNDERFLOW_SLACK: f64 = f64::from_bits((1023 - 500) << 52);

/// Stop factor of the ring search, `1 − 2⁻²⁰` (see
/// [`SoaGrid::nearest_dist_at`]).
pub(crate) const RING_SHRINK: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_INDEXED_POINTS;

    fn lcg_points(n: usize, side: f64) -> Vec<Point> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * side, next() * side)).collect()
    }

    #[test]
    fn queries_match_brute_force() {
        let pts = lcg_points(600, 10.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::build(&soa, 0.7);
        let from_slice = SoaGrid::try_build_from_points(&pts, 0.7).expect("fits u32");
        for (qi, q) in pts.iter().enumerate().step_by(17) {
            for r in [0.0, 0.35, 0.7, 1.4, 3.0] {
                let want: Vec<usize> = (0..pts.len()).filter(|&j| pts[j].dist(q) <= r).collect();
                let got = grid.query_disk(*q, r);
                // Both entry points build the same grid, visit order included.
                assert_eq!(from_slice.query_disk(*q, r), got, "query {qi} r={r}");
                let mut got = got;
                got.sort_unstable();
                assert_eq!(got, want, "query {qi} r={r}");
            }
        }
        assert_eq!(grid.len(), pts.len());
        assert!(!grid.is_empty());
    }

    #[test]
    fn positions_expose_exact_coordinates() {
        let pts = lcg_points(128, 4.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::build(&soa, 0.5);
        let mut seen = vec![false; pts.len()];
        for k in 0..grid.len() {
            let i = grid.item(k);
            assert_eq!(grid.point_at(k), pts[i]);
            assert!(!seen[i], "id {i} appears twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Position and id query variants agree.
        let q = pts[3];
        let mut by_pos: Vec<usize> = Vec::new();
        grid.for_each_pos_in_disk(q, 1.0, |k| by_pos.push(grid.item(k)));
        assert_eq!(by_pos, grid.query_disk(q, 1.0));
        assert_eq!(grid.count_in_disk(q, 1.0), by_pos.len());
    }

    #[test]
    fn nearest_dist_matches_naive() {
        let pts = lcg_points(300, 6.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::build(&soa, 0.4);
        for k in 0..grid.len() {
            let c = grid.point_at(k);
            let want = (0..pts.len())
                .filter(|&j| j != grid.item(k))
                .map(|j| pts[j].dist_sq(&c))
                .fold(f64::INFINITY, f64::min)
                .sqrt();
            let got = grid.nearest_dist_at(k).expect("n >= 2");
            assert_eq!(got.to_bits(), want.to_bits(), "position {k}");
        }
    }

    #[test]
    fn nearest_dist_handles_duplicates_and_small_stores() {
        let empty = SoaGrid::build(&SoaPoints::new(), 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.nearest_dist_at(0), None);
        let one = SoaGrid::build(&SoaPoints::from_points(&[Point::new(1.0, 1.0)]), 1.0);
        assert_eq!(one.nearest_dist_at(0), None);
        // Coincident points: nearest distance is exactly zero.
        let dup = SoaGrid::build(
            &SoaPoints::from_points(&[Point::new(2.0, 2.0), Point::new(2.0, 2.0)]),
            1.0,
        );
        assert_eq!(dup.nearest_dist_at(0), Some(0.0));
        assert_eq!(dup.nearest_dist_at(1), Some(0.0));
        assert_eq!(dup.nearest_dist_at(2), None);
    }

    #[test]
    fn underflowing_offsets_stay_in_range() {
        // Squares below 2⁻¹⁰⁷⁴ underflow to 0, so every point is at
        // computed distance 0 from (1e-170, 0), though they lie in other
        // cells.
        let pts = [Point::ORIGIN, Point::new(1e-170, 0.0), Point::new(1e-167, 0.0)];
        let grid = SoaGrid::build(&SoaPoints::from_points(&pts), 1e-167 / 1040.0);
        let mut got = grid.query_disk(pts[1], 0.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        let k = (0..grid.len()).find(|&k| grid.item(k) == 1).expect("point 1 is indexed");
        assert_eq!(grid.nearest_dist_at(k), Some(0.0));
    }

    #[test]
    fn try_build_reports_capacity() {
        let soa = SoaPoints::from_points(&lcg_points(4, 1.0));
        assert!(SoaGrid::try_build(&soa, 0.5).is_ok());
        assert!(fits_u32_index(MAX_INDEXED_POINTS));
        assert!(!fits_u32_index(MAX_INDEXED_POINTS + 1));
    }

    #[test]
    fn degenerate_hints_fall_back() {
        let pts = lcg_points(50, 3.0);
        let soa = SoaPoints::from_points(&pts);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let grid = SoaGrid::build(&soa, bad);
            assert_eq!(grid.count_in_disk(pts[0], 0.0), 1);
        }
    }
}
