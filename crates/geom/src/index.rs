//! Adaptive spatial index: the SoA bucket grid with a kd-tree fallback.
//!
//! The interference engine scatters one disk query per transmitter. On
//! uniformly dense instances the [`SoaGrid`] wins by a wide constant
//! factor, but degenerate aspect ratios — the exponential node chain packs
//! half its points into a sliver 2^-n of the span wide — defeat any single
//! cell size: the grid's memory budget inflates the cell until most of the
//! point set lands in one bucket and queries degrade to linear scans. The
//! [`KdTree`] has no cell size to tune and stays logarithmic there.
//!
//! [`SpatialIndex::build`] picks the structure from the data: it measures
//! how badly the grid's budget clamp would distort the requested cell and
//! falls back to the kd-tree past a fixed distortion threshold. Both
//! structures answer disk queries with the identical *closed*
//! distance-level predicate `dist(p, c) <= r` (see the crate-level
//! floating-point policy), so the choice never changes results — only
//! speed.

use crate::bbox::Aabb;
use crate::grid::{cell_budget, cells_for};
use crate::kdtree::KdTree;
use crate::point::Point;
use crate::soa_grid::SoaGrid;

/// How many times over the grid's cell budget the requested cell may go
/// before the build switches to a kd-tree. At 64x the clamp would enlarge
/// the cell by at least 8x per axis, putting ~64 query radii into every
/// bucket — the point where bucket scans stop being output-sensitive.
const GRID_DISTORTION_LIMIT: f64 = 64.0;

/// A spatial index over a fixed set of points, backed by either a
/// [`SoaGrid`] or a [`KdTree`] — chosen at build time from the spread
/// of the data. Point indices are preserved, and disk queries use the
/// closed distance-level predicate of both backends.
#[derive(Debug, Clone)]
pub enum SpatialIndex {
    /// SoA bucket grid (dense, well-conditioned instances).
    Grid(SoaGrid),
    /// Balanced kd-tree (degenerate spreads, e.g. exponential chains).
    Kd(KdTree),
}

impl SpatialIndex {
    /// Builds an index over `points`, using `cell_hint` (typically the
    /// dominant query radius) to size grid buckets. Falls back to a
    /// kd-tree when honouring the hint would blow the grid's linear
    /// memory budget by more than a fixed factor — the signature of a
    /// spread-out instance with tiny typical radii, where a clamped grid
    /// would scan most points per query anyway.
    ///
    /// Degenerate hints (non-positive, non-finite) are fine; they are
    /// sanitized as for [`SoaGrid::build`].
    ///
    /// Panics if `points` exceeds [`crate::MAX_INDEXED_POINTS`], the `u32`
    /// id capacity both backends share.
    // rim-lint: allow(panic-freedom) — the capacity assert replaces silent `as u32` id truncation; instances this large cannot be addressed by any caller in the workspace
    pub fn build(points: &[Point], cell_hint: f64) -> Self {
        let bbox = Aabb::of_points(points);
        if !bbox.is_empty()
            && cell_hint > 0.0
            && cell_hint.is_finite()
            && cells_for(&bbox, cell_hint) > cell_budget(points.len()) * GRID_DISTORTION_LIMIT
        {
            rim_obs::counter_add("geom.index.kd_builds", 1);
            return SpatialIndex::Kd(KdTree::build(points));
        }
        rim_obs::counter_add("geom.index.grid_builds", 1);
        let grid = match SoaGrid::try_build_from_points(points, cell_hint) {
            Ok(grid) => grid,
            // rim-lint: allow(no-unwrap-in-lib) — intentional capacity assert, as in SoaGrid::build
            Err(e) => panic!("{e}"),
        };
        if rim_obs::active() {
            for occ in grid.nonempty_bucket_sizes() {
                rim_obs::record("geom.grid.cell_occupancy", occ as u64);
            }
        }
        SpatialIndex::Grid(grid)
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SpatialIndex::Grid(g) => g.len(),
            SpatialIndex::Kd(t) => t.len(),
        }
    }

    /// Returns `true` if the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f(i)` for every point index `i` with `dist(points[i], c) <= r`
    /// (closed disk, distance-level comparison). Visit order depends on the
    /// backend; callers needing determinism must sort.
    ///
    /// When an observability sink is active, each query records its hit
    /// count (and, on the grid backend, the candidate count — occupants
    /// scanned before the distance predicate) as histograms; the enabled
    /// check is a single atomic load, so the disabled path stays on the
    /// plain dispatch below.
    #[inline]
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) {
        if rim_obs::active() {
            let mut hits = 0u64;
            match self {
                SpatialIndex::Grid(g) => {
                    let candidates = g.for_each_in_disk_counting(c, r, |i| {
                        hits += 1;
                        f(i);
                    });
                    rim_obs::record("geom.index.query_candidates", candidates as u64);
                }
                SpatialIndex::Kd(t) => t.for_each_in_disk(c, r, |i| {
                    hits += 1;
                    f(i);
                }),
            }
            rim_obs::record("geom.index.query_hits", hits);
            return;
        }
        match self {
            SpatialIndex::Grid(g) => g.for_each_in_disk(c, r, f),
            SpatialIndex::Kd(t) => t.for_each_in_disk(c, r, f),
        }
    }

    /// Collects the indices of all points within distance `r` of `c`,
    /// sorted ascending.
    pub fn query_disk(&self, c: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(c, r, |i| out.push(i));
        out.sort_unstable();
        out
    }

    /// Counts the points within distance `r` of `c`.
    pub fn count_in_disk(&self, c: Point, r: f64) -> usize {
        let mut n = 0;
        self.for_each_in_disk(c, r, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_disk(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].dist(&c) <= r)
            .collect()
    }

    #[test]
    fn uniform_instances_pick_the_grid() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let idx = SpatialIndex::build(&pts, 1.0);
        assert!(matches!(idx, SpatialIndex::Grid(_)));
        assert_eq!(
            idx.query_disk(Point::new(5.0, 5.0), 1.5),
            brute_disk(&pts, Point::new(5.0, 5.0), 1.5)
        );
    }

    #[test]
    fn exponential_spreads_pick_the_kdtree() {
        // Exponential chain over a unit span: the natural cell hint is the
        // smallest gap, 2^-47 of the span — hopeless for a grid.
        let pts: Vec<Point> = (0..48)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(48)))
            .collect();
        let hint = pts[1].x - pts[0].x;
        let idx = SpatialIndex::build(&pts, hint);
        assert!(matches!(idx, SpatialIndex::Kd(_)));
        for q in [0usize, 5, 47] {
            assert_eq!(
                idx.query_disk(pts[q], 0.25),
                brute_disk(&pts, pts[q], 0.25),
                "q={q}"
            );
        }
    }

    #[test]
    fn degenerate_hints_build_a_working_index() {
        let pts = [Point::ORIGIN, Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        for hint in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let idx = SpatialIndex::build(&pts, hint);
            assert_eq!(idx.len(), 3);
            assert_eq!(idx.query_disk(Point::new(1.0, 1.0), 0.0), vec![1, 2]);
            assert_eq!(idx.count_in_disk(Point::ORIGIN, 2.0), 3);
        }
        let empty = SpatialIndex::build(&[], 1.0);
        assert!(empty.is_empty());
        assert!(empty.query_disk(Point::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn both_backends_share_closed_disk_semantics() {
        let a = Point::new(0.3, 0.4);
        let b = Point::new(1.1, 2.2);
        let r = a.dist(&b);
        let pts = [a, b];
        let grid = SpatialIndex::Grid(SoaGrid::try_build_from_points(&pts, r).unwrap());
        let kd = SpatialIndex::Kd(KdTree::build(&pts));
        for idx in [&grid, &kd] {
            assert_eq!(idx.query_disk(a, r), vec![0, 1]);
            let below = f64::from_bits(r.to_bits() - 1);
            assert_eq!(idx.query_disk(a, below), vec![0]);
        }
    }
}
