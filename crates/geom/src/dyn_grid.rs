//! The dynamic engine's grid: a [`SoaGrid`] over a merged prefix of the
//! points, plus an overlay of later arrivals bucketed into the same cells.
//!
//! A [`SoaGrid`] is static: its coordinate columns are permuted into
//! bucket-major order once, at build time. An incremental structure
//! (`rim_core::DynamicInterference`) appends points one at a time and
//! merges them into a rebuilt grid only once they outnumber a fraction of
//! the merged set. Until then each arrival sits in the overlay: one
//! per-cell head array and one per-entry next array chain the arrivals of
//! every cell, newest first. An entry's cell comes from the same clamped,
//! monotone cell coordinate the build buckets with — arrivals outside the
//! merged bounding box land in the border cells — so a query that scans a
//! cell range reads that range's overlay entries and nothing else, and
//! the completeness argument of [`SoaGrid::for_each_pos_in_disk`] covers
//! both halves unchanged.
//!
//! Ids follow the append order: `0..merged_len()` are the merged points in
//! their original order, `merged_len()..len()` the overlay in arrival
//! order.

use crate::point::Point;
use crate::soa_grid::{SoaGrid, QUERY_SLACK, RING_SHRINK, UNDERFLOW_SLACK};

/// End of an overlay chain.
const NIL: u32 = u32::MAX;

/// A [`SoaGrid`] over the merged points plus a bucketed arrival overlay
/// (see the module docs).
///
/// ```
/// use rim_geom::{DynGrid, Point};
///
/// let mut grid = DynGrid::build(&[Point::new(0.0, 0.0), Point::new(2.0, 0.0)], 1.0);
/// assert_eq!(grid.push_overlay(Point::new(0.5, 0.0)), 2);
/// let mut hits = Vec::new();
/// grid.for_each_within(Point::new(0.0, 0.0), 1.0, |id, _| hits.push(id));
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct DynGrid {
    base: SoaGrid,
    /// Per cell, the newest overlay entry bucketed there, or [`NIL`].
    heads: Vec<u32>,
    /// Per overlay entry, the next-older entry of its cell, or [`NIL`].
    next: Vec<u32>,
    /// Overlay positions, in arrival order.
    pending: Vec<Point>,
}

impl DynGrid {
    /// Builds the grid over `points`, all merged, with an empty overlay.
    /// The cell hint is sanitized and budget-clamped as for
    /// [`SoaGrid::build`].
    ///
    /// Panics if `points` exceeds [`crate::MAX_INDEXED_POINTS`], the `u32`
    /// id capacity.
    // rim-lint: allow(panic-freedom) — the capacity assert replaces silent `as u32` id truncation, as in SpatialIndex::build
    pub fn build(points: &[Point], cell_hint: f64) -> Self {
        let base = match SoaGrid::try_build_from_points(points, cell_hint) {
            Ok(grid) => grid,
            // rim-lint: allow(no-unwrap-in-lib) — intentional capacity assert, as in SpatialIndex::build
            Err(e) => panic!("{e}"),
        };
        rim_obs::counter_add("geom.index.grid_builds", 1);
        DynGrid {
            heads: vec![NIL; base.shape.ncells()],
            base,
            next: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Number of points, merged and pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len() + self.pending.len()
    }

    /// Returns `true` if the grid holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of merged points; ids from here on are overlay entries.
    #[inline]
    pub fn merged_len(&self) -> usize {
        self.base.len()
    }

    /// Appends `p` to the overlay, chained into the cell the build would
    /// have bucketed it in, and returns its id ([`DynGrid::len`] before
    /// the call). `O(1)`.
    // rim-lint: allow(panic-freedom) — the cell coordinate is clamped to the grid, so the head index is below ncells
    pub fn push_overlay(&mut self, p: Point) -> usize {
        let s = &self.base.shape;
        let cell = s.row(p.y) * s.nx + s.col(p.x);
        self.next.push(self.heads[cell]);
        self.heads[cell] = self.pending.len() as u32;
        self.pending.push(p);
        self.len() - 1
    }

    /// Calls `f(id, dist(p_id, c))` for every point, merged or pending,
    /// with `dist(p_id, c) <= r` — the closed, distance-level predicate of
    /// every disk query in the workspace. The scanned cell range is
    /// [`SoaGrid::for_each_pos_in_disk`]'s; visit order is deterministic.
    ///
    /// With an observability sink active, the query records its hit and
    /// candidate counts under the same histograms as
    /// [`crate::SpatialIndex::for_each_in_disk`].
    pub fn for_each_within<F: FnMut(usize, f64)>(&self, c: Point, r: f64, mut f: F) {
        debug_assert!(r >= 0.0);
        let s = &self.base.shape;
        let reach = r + r * QUERY_SLACK + UNDERFLOW_SLACK;
        let (x0, x1) = (s.col(c.x - reach), s.col(c.x + reach));
        let (y0, y1) = (s.row(c.y - reach), s.row(c.y + reach));
        if x1 < x0 || y1 < y0 {
            return; // negative radius
        }
        let mut hits = 0u64;
        let mut visit = |id: usize, d: f64| {
            hits += 1;
            f(id, d);
            r
        };
        let mut candidates = 0;
        for y in y0..=y1 {
            candidates += self.scan_cells(y, x0, x1, c, r, &mut visit).0;
        }
        if rim_obs::active() {
            rim_obs::record("geom.index.query_candidates", candidates as u64);
            rim_obs::record("geom.index.query_hits", hits);
        }
    }

    /// Writes to `out` (cleared first) the `k` points nearest to `c` among
    /// those `keep` accepts, ascending by `(dist, id)` with `dist` the
    /// [`Point::dist`] value — a total order, so the answer does not
    /// depend on bucket layout or arrival order. Fewer than `k` entries
    /// come back if fewer points are kept. `keep` runs only for points
    /// that would enter the list.
    ///
    /// The search scans `c`'s own cell, then one Chebyshev ring of cells
    /// at a time, holding the best `k` in `out`. After ring `R` it stops
    /// once the list is full and its last distance is strictly below
    /// `R·cell·(1 − 2⁻²⁰)`: by the argument of
    /// [`SoaGrid::nearest_dist_at`], every unscanned point then lies at a
    /// computed distance of at least that bound, so none can tie or beat
    /// the last entry. (The bound is only trusted from `2⁻⁵⁰⁰` up, where
    /// its square cannot underflow.) Otherwise the search ends once the
    /// rings cover the grid.
    pub fn nearest_k_where<F: Fn(usize) -> bool>(
        &self,
        c: Point,
        k: usize,
        keep: F,
        out: &mut Vec<(f64, usize)>,
    ) {
        out.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        let s = &self.base.shape;
        let (ix, iy) = (s.col(c.x), s.row(c.y));
        let (last_x, last_y) = (s.nx - 1, s.ny - 1);
        // Only points at or below the last distance of a full list can
        // enter it; `bound` tracks that distance so scans skip the rest.
        let mut bound = f64::INFINITY;
        let mut scan = |out: &mut Vec<(f64, usize)>, y: usize, x0: usize, x1: usize| {
            let mut offer = |id, d| offer_bounded(out, k, &keep, id, d);
            bound = self.scan_cells(y, x0, x1, c, bound, &mut offer).1;
        };
        scan(out, iy, ix, ix);
        let mut ring = 0;
        loop {
            let stop = ring as f64 * s.cell * RING_SHRINK;
            let full = out.len() == k;
            if full && stop >= UNDERFLOW_SLACK && out.last().is_some_and(|&(d, _)| d < stop) {
                return;
            }
            if ix <= ring && iy <= ring && ix + ring >= last_x && iy + ring >= last_y {
                return; // the rings cover the grid
            }
            ring += 1;
            // Ring `ring`: its top and bottom rows as runs, then the
            // single cells of its left and right columns in between.
            let (x0, x1) = (ix.saturating_sub(ring), (ix + ring).min(last_x));
            if let Some(y) = iy.checked_sub(ring) {
                scan(out, y, x0, x1);
            }
            if iy + ring <= last_y {
                scan(out, iy + ring, x0, x1);
            }
            let left = ix.checked_sub(ring);
            let right = (ix + ring <= last_x).then_some(ix + ring);
            for y in iy.saturating_sub(ring - 1)..=(iy + ring - 1).min(last_y) {
                for x in left.into_iter().chain(right) {
                    scan(out, y, x, x);
                }
            }
        }
    }

    /// Calls `f(id, d)` for each point bucketed in cells `x0..=x1` of row
    /// `y` — the merged run, then each cell's overlay chain — whose
    /// distance `d = dist(p_id, c)` is at most `bound`; `f` returns the
    /// bound for the rest of the scan. Returns how many points it visited
    /// and the final bound. Testing the bound in the loop keeps the
    /// per-candidate work to one distance and one comparison however
    /// large `f` is. Distances are `Point::dist`, as in every disk scan,
    /// so hits agree with the naive scan bit for bit.
    #[inline]
    // rim-lint: allow(panic-freedom) — callers clamp `y <= ny - 1` and `x0 <= x1 <= nx - 1`; `starts` has `ncells + 1` entries and bounds the column slices; `heads` has one entry per cell
    fn scan_cells<F: FnMut(usize, f64) -> f64>(
        &self,
        y: usize,
        x0: usize,
        x1: usize,
        c: Point,
        mut bound: f64,
        f: &mut F,
    ) -> (usize, f64) {
        let g = &self.base;
        let row = y * g.shape.nx;
        let (lo, hi) = (g.starts[row + x0] as usize, g.starts[row + x1 + 1] as usize);
        let run = g.sxs[lo..hi].iter().zip(&g.sys[lo..hi]).zip(&g.items[lo..hi]);
        for ((&px, &py), &id) in run {
            let d = Point::new(px, py).dist(&c);
            if d <= bound {
                bound = f(id as usize, d);
            }
        }
        let mut visited = hi - lo;
        if !self.pending.is_empty() {
            for &head in &self.heads[row + x0..=row + x1] {
                // A chain ends at NIL, which indexes no entry.
                let mut j = head as usize;
                while let Some(p) = self.pending.get(j) {
                    let d = p.dist(&c);
                    if d <= bound {
                        bound = f(g.len() + j, d);
                    }
                    visited += 1;
                    j = self.next.get(j).map_or(usize::MAX, |&n| n as usize);
                }
            }
        }
        (visited, bound)
    }
}

/// Offers `(d, id)` to `out`, kept ascending by `(d, id)` and at most `k`
/// long; `keep` vets only candidates that would enter. Returns the
/// largest distance that can still enter: the last one once `out` is
/// full (a tie enters with a smaller id), infinity before.
#[inline]
fn offer_bounded<F: Fn(usize) -> bool>(
    out: &mut Vec<(f64, usize)>,
    k: usize,
    keep: &F,
    id: usize,
    d: f64,
) -> f64 {
    let precedes = |&(bd, bi): &(f64, usize)| d.total_cmp(&bd).then(id.cmp(&bi)).is_lt();
    let full = out.len() >= k;
    if (!full || out.last().is_some_and(precedes)) && keep(id) {
        if full {
            out.pop();
        }
        let at = out.iter().position(precedes).unwrap_or(out.len());
        out.insert(at, (d, id));
    }
    match out.last() {
        Some(&(last, _)) if out.len() >= k => last,
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A grid over `merged` with `pending` pushed into the overlay.
    fn grid(merged: &[Point], pending: &[Point]) -> DynGrid {
        let mut g = DynGrid::build(merged, 0.3);
        for &p in pending {
            g.push_overlay(p);
        }
        g
    }

    /// A nearest-k answer: `(dist, id)` pairs.
    type Knn = Vec<(f64, usize)>;

    fn disk(g: &DynGrid, c: Point, r: f64) -> Vec<usize> {
        let mut got = Vec::new();
        g.for_each_within(c, r, |id, _| got.push(id));
        got.sort_unstable();
        got
    }

    fn brute_knn(all: &[Point], c: Point, k: usize, keep: impl Fn(usize) -> bool) -> Knn {
        let mut v: Vec<(f64, usize)> = (0..all.len())
            .filter(|&i| keep(i))
            .map(|i| (all[i].dist(&c), i))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v
    }

    #[test]
    fn overlay_entries_are_found_by_disk_queries() {
        let mut rnd = lcg(3);
        let merged: Vec<Point> = (0..200).map(|_| Point::new(rnd() * 4.0, rnd() * 4.0)).collect();
        // Half the arrivals fall outside the merged bounding box and
        // land in clamped border cells.
        let pending: Vec<Point> = (0..120)
            .map(|_| Point::new(rnd() * 8.0 - 2.0, rnd() * 8.0 - 2.0))
            .collect();
        let g = grid(&merged, &pending);
        let all: Vec<Point> = merged.iter().chain(&pending).copied().collect();
        assert_eq!(g.len(), all.len());
        assert_eq!(g.merged_len(), merged.len());
        for (qi, &q) in all.iter().enumerate().step_by(7) {
            // Radii equal to exact pairwise distances put the boundary
            // point on the closed disk's rim.
            let exact = all[(qi * 31 + 5) % all.len()].dist(&q);
            for r in [0.0, 0.25, 0.9, exact, 5.0] {
                let want: Vec<usize> = (0..all.len()).filter(|&j| all[j].dist(&q) <= r).collect();
                assert_eq!(disk(&g, q, r), want, "query {qi} r={r}");
            }
        }
        // Distances are handed over as computed.
        g.for_each_within(all[3], 1.0, |id, d| {
            assert_eq!(d.to_bits(), all[id].dist(&all[3]).to_bits());
        });
    }

    #[test]
    fn an_empty_merge_chains_every_arrival_into_one_cell() {
        let pending = [Point::new(5.0, -3.0), Point::new(5.0, -3.0), Point::new(9.0, 1.0)];
        let g = grid(&[], &pending);
        assert_eq!(disk(&g, Point::new(5.0, -3.0), 0.0), vec![0, 1]);
        assert_eq!(disk(&g, Point::ORIGIN, 100.0), vec![0, 1, 2]);
        let mut out = Vec::new();
        g.nearest_k_where(Point::new(8.0, 0.0), 2, |_| true, &mut out);
        assert_eq!(out.iter().map(|e| e.1).collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn nearest_k_matches_brute_force() {
        let mut rnd = lcg(11);
        let merged: Vec<Point> = (0..300).map(|_| Point::new(rnd() * 5.0, rnd() * 5.0)).collect();
        let pending: Vec<Point> =
            (0..90).map(|_| Point::new(rnd() * 7.0 - 1.0, rnd() * 5.0)).collect();
        let g = grid(&merged, &pending);
        let all: Vec<Point> = merged.iter().chain(&pending).copied().collect();
        let keep = |i: usize| i % 3 != 0;
        let mut out = Vec::new();
        for (qi, &q) in all.iter().enumerate().step_by(5) {
            for k in [1, 2, 4, 9] {
                g.nearest_k_where(q, k, keep, &mut out);
                assert_eq!(out, brute_knn(&all, q, k, keep), "query {qi} k={k}");
            }
        }
        // A query far outside the grid, and one keeping almost nothing.
        let far = Point::new(-40.0, 90.0);
        g.nearest_k_where(far, 3, keep, &mut out);
        assert_eq!(out, brute_knn(&all, far, 3, keep));
        g.nearest_k_where(all[0], 4, |i| i == 350, &mut out);
        assert_eq!(out, brute_knn(&all, all[0], 4, |i| i == 350));
    }

    #[test]
    fn nearest_k_breaks_ties_by_id() {
        let p = Point::new(1.0, 1.0);
        let g = grid(&[p, Point::new(3.0, 3.0), p], &[p, Point::new(1.0, 2.0)]);
        let mut out = Vec::new();
        g.nearest_k_where(p, 3, |i| i != 2, &mut out);
        assert_eq!(out, vec![(0.0, 0), (0.0, 3), (1.0, 4)]);
        g.nearest_k_where(p, 0, |_| true, &mut out);
        assert!(out.is_empty());
    }
}
