//! The dynamic engine's grid: a [`SoaGrid`] over a merged prefix of the
//! points, plus an overlay of later arrivals bucketed into the same cells
//! and a radius bound per cell.
//!
//! A [`SoaGrid`] is static: its coordinate columns are permuted into
//! bucket-major order once, at build time. An incremental structure
//! (`rim_core::DynamicInterference`) appends points one at a time and
//! merges them into a rebuilt grid only once they outnumber a fraction of
//! the merged set. Until then each arrival sits in the overlay: one
//! per-cell head array and one per-entry next array chain the arrivals of
//! every leaf cell, newest first. An entry's leaf comes from the same
//! clamped, monotone cell coordinates the build buckets with, level by
//! level down the split cells — arrivals outside a level's bounding box
//! land in its border cells — so a query that scans a cell range reads
//! that range's overlay entries and nothing else, and the completeness
//! argument of [`SoaGrid::for_each_pos_in_disk`] covers both halves
//! unchanged.
//!
//! **Radius bounds.** [`DynGrid::raise_bound`] raises the bound of a
//! point's leaf cell and of every cell above it, so a split cell's bound
//! covers its nested cells; bounds only grow until the next build.
//! [`DynGrid::fill_bounds`] leaves the same bounds for every merged point
//! at once, in one pass over the id column. The arrival-coverage query
//! ([`DynGrid::for_each_reaching`]) scans a cell only if a disk query of
//! the cell's bound around the newcomer `c` would scan it (same `reach`
//! slack, same cell coordinate). It misses no transmitter `u` with
//! `dist(u, c) <= r_u`: each cell above `u` has a bound `b >= r_u`, so
//! `u` is a hit of the disk query of radius `b`, whose completeness puts
//! the cell in its range.
//!
//! Ids follow the append order: `0..merged_len()` are the merged points in
//! their original order, `merged_len()..len()` the overlay in arrival
//! order.

use crate::point::Point;
use crate::soa_grid::{reach, reach_box, record_query, Level, SoaGrid};
use std::cmp::Ordering;

/// End of an overlay chain.
const NIL: u32 = u32::MAX;

/// A [`SoaGrid`] over the merged points plus a bucketed arrival overlay
/// and per-cell radius bounds (see the module docs).
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
    /// Per cell id, the newest overlay entry chained into that leaf
    /// cell, or [`NIL`].
    heads: Vec<u32>,
    /// Per overlay entry, the next-older entry of its cell, or [`NIL`].
    next: Vec<u32>,
    /// Overlay positions, in arrival order.
    pending: Vec<Point>,
    /// Per cell id, the largest radius raised for a point in the cell or
    /// in a cell nested in it, or −∞ if none was.
    bounds: Vec<f64>,
}

impl DynGrid {
    /// Builds the grid over `points`, all merged, with an empty overlay
    /// and no radius raised. The cell hint is sanitized and
    /// budget-clamped as for [`SoaGrid::from_points`], and overloaded cells
    /// split.
    ///
    /// Panics if `points` exceeds [`crate::MAX_INDEXED_POINTS`], the `u32`
    /// id capacity, as [`SoaGrid::from_points`] does.
    pub fn build(points: &[Point], cell_hint: f64) -> Self {
        let base = SoaGrid::from_points(points, cell_hint);
        DynGrid {
            heads: vec![NIL; base.starts.len()],
            bounds: vec![f64::NEG_INFINITY; base.starts.len()],
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

    /// Appends `p` to the overlay, chained into the leaf cell the build
    /// would have bucketed it in, and returns its id ([`DynGrid::len`]
    /// before the call). `O(split depth)`.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — `descend` returns a cell id, and `heads` has one entry per cell id
    pub fn push_overlay(&mut self, p: Point) -> usize {
        let (leaf, _) = self.base.descend(p, |_| {});
        self.next.push(self.heads[leaf]);
        self.heads[leaf] = self.pending.len() as u32;
        self.pending.push(p);
        self.len() - 1
    }

    /// Raises to at least `r` the radius bound of the leaf cell a point
    /// at `p` falls in and of every cell on the way down to it.
    /// `O(split depth)`.
    // rim-lint: root
    pub fn raise_bound(&mut self, p: Point, r: f64) {
        let bounds = &mut self.bounds;
        self.base.descend(p, |g| {
            if let Some(b) = bounds.get_mut(g) {
                *b = b.max(r);
            }
        });
    }

    /// Raises the bound of every cell to the largest `radius(id)` over the
    /// merged points bucketed in it or in a cell nested in it, in one
    /// pass: the bounds [`DynGrid::raise_bound`] on each merged point
    /// would leave, bit for bit. A leaf cell reads its run of the id
    /// column; a split cell takes the largest bound of its nested grid.
    /// Levels are filled last to first, and a nested grid follows the
    /// level of the cell it splits, so it is complete when that cell
    /// reads it. `radius` returns −∞ for a point that raises nothing.
    /// Overlay entries are not read: each needs its own `raise_bound`.
    /// `O(merged points + cells)`.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — a level's cell ids are followed by its end offset in `starts`, which bounds the id column; `bounds` has one entry per cell id
    pub fn fill_bounds(&mut self, radius: impl Fn(usize) -> f64) {
        let (g, bounds) = (&self.base, &mut self.bounds);
        for lv in g.levels().rev() {
            for cell in lv.first..lv.first + lv.shape.ncells() {
                let b = match g.split_of(cell) {
                    Some(sub) => bounds[sub.first..sub.first + sub.shape.ncells()]
                        .iter()
                        .fold(f64::NEG_INFINITY, |b, &r| b.max(r)),
                    None => g.items[g.starts[cell] as usize..g.starts[cell + 1] as usize]
                        .iter()
                        .fold(f64::NEG_INFINITY, |b, &id| b.max(radius(id as usize))),
                };
                bounds[cell] = bounds[cell].max(b);
            }
        }
    }

    /// Calls `f(id, dist(p_id, c))` for every point, merged or pending,
    /// with `dist(p_id, c) <= r` — the closed, distance-level predicate of
    /// every disk query in the workspace — and returns the number of
    /// candidate points scanned, as [`SoaGrid::for_each_in_disk_counting`]
    /// does. The scanned cells are [`SoaGrid::for_each_pos_in_disk`]'s;
    /// visit order is deterministic.
    ///
    /// With an observability sink active, the query records its hit and
    /// candidate counts as [`SoaGrid::for_each_in_disk`] does.
    pub fn for_each_within<F: FnMut(usize, f64)>(&self, c: Point, r: f64, mut f: F) -> usize {
        debug_assert!(r >= 0.0);
        let (mut hits, mut candidates) = (0, 0);
        let mut visit = |id, d| {
            hits += 1;
            f(id, d);
            r
        };
        self.base.walk_cells(self.base.top(), &reach_box(c, c, r), &mut |g0, g1| {
            candidates += self.scan_run(g0, g1, c, r, &mut visit).0;
        });
        record_query(candidates, hits);
        candidates
    }

    /// The arrival-coverage query: calls `f(id, d)` for every point whose
    /// distance `d = dist(p_id, c)` is at most its cell's radius bound,
    /// scanning only the cells whose bound could reach `c` (see the module
    /// docs) within the top-level range of radius `r`, which must bound
    /// every raised radius. Returns and records counts as
    /// [`DynGrid::for_each_within`] does.
    // rim-lint: root
    pub fn for_each_reaching<F: FnMut(usize, f64)>(&self, c: Point, r: f64, mut f: F) -> usize {
        let (mut hits, mut candidates) = (0, 0);
        self.reaching(self.base.top(), c, r, &mut |g, b| {
            candidates += self.scan_run(g, g, c, b, &mut |id, d| {
                hits += 1;
                f(id, d);
                b
            })
            .0;
        });
        record_query(candidates, hits);
        candidates
    }

    /// Calls `leaf(g, b)` for every leaf cell `g` at or below level `lv`
    /// whose bound `b` passes the test, within `lv`'s range of radius
    /// `outer`; a passing split cell is searched with its bound as `outer`.
    // rim-lint: allow(panic-freedom) — cell coordinates are clamped to the level, so ids are below its end, and `bounds` has one entry per cell id
    fn reaching<F: FnMut(usize, f64)>(&self, lv: Level, c: Point, outer: f64, leaf: &mut F) {
        let s = &lv.shape;
        let Some((x0, x1, y0, y1)) = s.span(&reach_box(c, c, outer)) else {
            return;
        };
        let (cx, cy) = (s.col(c.x), s.row(c.y));
        for y in y0..=y1 {
            for x in x0..=x1 {
                let g = lv.first + y * s.nx + x;
                let b = self.bounds[g];
                // −∞, never raised: the cell holds no transmitter. The
                // range test is the span of the disk box of radius `b`:
                // `col` is monotone, so only the bound facing the cell can
                // exclude it.
                let rb = reach(b);
                let scanned = b >= 0.0
                    && match x.cmp(&cx) {
                        Ordering::Less => s.col(c.x - rb) <= x,
                        Ordering::Equal => true,
                        Ordering::Greater => x <= s.col(c.x + rb),
                    }
                    && match y.cmp(&cy) {
                        Ordering::Less => s.row(c.y - rb) <= y,
                        Ordering::Equal => true,
                        Ordering::Greater => y <= s.row(c.y + rb),
                    };
                if scanned {
                    match self.base.split_of(g) {
                        Some(sub) => self.reaching(sub, c, b, leaf),
                        None => leaf(g, b),
                    }
                }
            }
        }
    }

    /// Writes to `out` (cleared first) the `k` points nearest to `c` among
    /// those `keep` accepts, ascending by `(dist, id)` with `dist` the
    /// [`Point::dist`] value — a total order, so the answer does not
    /// depend on bucket layout or arrival order. Fewer than `k` entries
    /// come back if fewer points are kept. `keep` runs only for points
    /// that would enter the list.
    ///
    /// The search runs closed-disk queries of doubling radius `R` from the
    /// size of `c`'s leaf cell; each round offers the points with
    /// `R/2 < dist <= R`. It stops once the list is full and its last
    /// distance is at most `R`: no unoffered point can tie or beat it. Once
    /// a round spans the whole grid, a last round of infinite `R` offers
    /// every point. Returns the candidates scanned over all rounds.
    pub fn k_nearest_where<F: Fn(usize) -> bool>(
        &self,
        c: Point,
        k: usize,
        keep: F,
        out: &mut Vec<(f64, usize)>,
    ) -> usize {
        out.clear();
        if k == 0 || self.is_empty() {
            return 0;
        }
        let mut r = self.base.first_radius(c);
        // Every point at distance `inner` or less has been offered; only
        // points at or under the list's entry bound `entry` can enter it.
        let (mut inner, mut entry) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut candidates = 0;
        loop {
            let mut bound = entry.min(r);
            let mut offer = |id, d| {
                if d > inner {
                    entry = offer_bounded(out, k, &keep, id, d);
                }
                entry.min(r)
            };
            self.base.walk_cells(self.base.top(), &reach_box(c, c, r), &mut |g0, g1| {
                let (visited, b) = self.scan_run(g0, g1, c, bound, &mut offer);
                (candidates, bound) = (candidates + visited, b);
            });
            let settled = out.len() == k && out.last().is_some_and(|&(d, _)| d <= r);
            if settled || r.is_infinite() {
                return candidates;
            }
            inner = r;
            r = self.base.next_radius(c, r);
        }
    }

    /// Calls `f(id, d)` for each point bucketed in the leaf cells
    /// `g0..=g1` — their merged run, then each cell's overlay chain —
    /// whose distance `d = dist(p_id, c)` is at most `bound`; `f` returns
    /// the bound for the rest of the scan. Returns how many points it
    /// visited and the final bound. Testing the bound in the loop keeps
    /// the per-candidate work to one distance and one comparison however
    /// large `f` is. Distances are `Point::dist`, as in every disk scan,
    /// so hits agree with the naive scan bit for bit.
    #[inline]
    // rim-lint: allow(panic-freedom) — walked cell ids are followed by their end offset in `starts`, which bounds the column slices; `heads` has one entry per cell id
    fn scan_run<F: FnMut(usize, f64) -> f64>(
        &self,
        g0: usize,
        g1: usize,
        c: Point,
        mut bound: f64,
        f: &mut F,
    ) -> (usize, f64) {
        let g = &self.base;
        let (lo, hi) = (g.starts[g0] as usize, g.starts[g1 + 1] as usize);
        let run = g.sxs[lo..hi].iter().zip(&g.sys[lo..hi]).zip(&g.items[lo..hi]);
        for ((&px, &py), &id) in run {
            let d = Point::new(px, py).dist(&c);
            if d <= bound {
                bound = f(id as usize, d);
            }
        }
        let mut visited = hi - lo;
        if !self.pending.is_empty() {
            for &head in &self.heads[g0..=g1] {
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
        g.k_nearest_where(Point::new(8.0, 0.0), 2, |_| true, &mut out);
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
                g.k_nearest_where(q, k, keep, &mut out);
                assert_eq!(out, brute_knn(&all, q, k, keep), "query {qi} k={k}");
            }
        }
        // A query far outside the grid, and one keeping almost nothing.
        let far = Point::new(-40.0, 90.0);
        g.k_nearest_where(far, 3, keep, &mut out);
        assert_eq!(out, brute_knn(&all, far, 3, keep));
        g.k_nearest_where(all[0], 4, |i| i == 350, &mut out);
        assert_eq!(out, brute_knn(&all, all[0], 4, |i| i == 350));
    }

    #[test]
    fn nearest_k_matches_brute_force_on_split_cells() {
        // 257 points, half of them packed into a 10⁻⁵ square whose cell
        // splits, and every point queried for its nearest other point.
        let mut rnd = lcg(42);
        let pts: Vec<Point> = (0..257)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { 1e-5 };
                Point::new(0.5 + rnd() * s, 0.5 + rnd() * s)
            })
            .collect();
        assert!(SoaGrid::from_points(&pts[..200], 0.3).split_cells() > 0);
        let g = grid(&pts[..200], &pts[200..]);
        let mut out = Vec::new();
        for q in 0..pts.len() {
            g.k_nearest_where(pts[q], 1, |i| i != q, &mut out);
            assert_eq!(out, brute_knn(&pts, pts[q], 1, |i| i != q), "q={q}");
        }
    }

    #[test]
    fn exponential_chain_nearest_is_the_predecessor() {
        // Spacing varies by 2^30: the nearest neighbour of v_i is v_{i-1}.
        let pts: Vec<Point> = (0..31)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(31)))
            .collect();
        let g = DynGrid::build(&pts, 2f64.powi(-31));
        let mut out = Vec::new();
        for q in 1..pts.len() {
            g.k_nearest_where(pts[q], 1, |i| i != q, &mut out);
            assert_eq!(out.first().map(|e| e.1), Some(q - 1), "q={q}");
        }
        g.k_nearest_where(pts[0], 1, |i| i != 0, &mut out);
        assert_eq!(out.first().map(|e| e.1), Some(1));
    }

    #[test]
    fn arrival_query_scans_only_reaching_cells() {
        let mut rnd = lcg(5);
        let pts: Vec<Point> = (0..400).map(|_| Point::new(rnd() * 20.0, rnd() * 20.0)).collect();
        let mut g = grid(&pts[..300], &pts[300..]);
        // Small radii everywhere, one long one: the bound of the long
        // one's cell reaches far, every other cell's only its neighbours.
        let radii: Vec<f64> = (0..pts.len()).map(|i| if i == 7 { 15.0 } else { 0.4 }).collect();
        for (p, &r) in pts.iter().zip(&radii) {
            g.raise_bound(*p, r);
        }
        for (qi, &q) in pts.iter().enumerate().step_by(11) {
            let want: Vec<usize> =
                (0..pts.len()).filter(|&u| pts[u].dist(&q) <= radii[u]).collect();
            let mut got = Vec::new();
            let scanned = g.for_each_reaching(q, 15.0, |u, d| {
                if d <= radii[u] {
                    got.push(u);
                }
            });
            got.sort_unstable();
            assert_eq!(got, want, "query {qi}");
            assert!(scanned < pts.len() / 4, "query {qi} scanned {scanned}");
        }
        // A cell never raised holds no transmitter and is never scanned.
        let fresh = grid(&pts[..300], &[]);
        assert_eq!(fresh.for_each_reaching(pts[0], 15.0, |_, _| {}), 0);
    }

    #[test]
    fn one_pass_bounds_equal_per_point_raises() {
        let mut rnd = lcg(17);
        let uniform: Vec<Point> =
            (0..400).map(|_| Point::new(rnd() * 20.0, rnd() * 20.0)).collect();
        let chain: Vec<Point> =
            (0..300).map(|_| Point::on_line(64.0 * (-24.0 * rnd()).exp2())).collect();
        let cluster: Vec<Point> = (0..300)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { 1e-5 };
                Point::new(0.5 + rnd() * s, 0.5 + rnd() * s)
            })
            .collect();
        let sites: Vec<Point> = (0..5).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        // Stacks of 59 coincident points, each beside one other point:
        // the site's cell splits and the stack stays one leaf.
        let stacked: Vec<Point> = (0..300)
            .map(|i| sites[i % sites.len()] + Point::new(if i < 5 { 0.01 } else { 0.0 }, 0.0))
            .collect();
        for (name, pts, splits) in [
            ("uniform", uniform, false),
            ("exp-chain", chain, true),
            ("cluster", cluster, true),
            ("coincident", stacked, true),
        ] {
            // Every third point is silent (−∞), every seventh transmits
            // at radius 0, as a zero-length link does.
            let radius: Vec<f64> = (0..pts.len())
                .map(|i| match (i % 3, i % 7) {
                    (0, _) => f64::NEG_INFINITY,
                    (_, 0) => 0.0,
                    _ => rnd() * 0.5,
                })
                .collect();
            // All merged, then a fifth of the points in the overlay.
            for merged in [pts.len(), pts.len() * 4 / 5] {
                let (base, overlay) = pts.split_at(merged);
                let mut raised = grid(base, overlay);
                let mut filled = grid(base, overlay);
                assert_eq!(raised.base.split_cells() > 0, splits, "{name}");
                for (i, &p) in pts.iter().enumerate() {
                    raised.raise_bound(p, radius[i]);
                }
                filled.fill_bounds(|id| radius[id]);
                for (i, &p) in pts.iter().enumerate().skip(merged) {
                    filled.raise_bound(p, radius[i]);
                }
                let bits = |g: &DynGrid| g.bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&filled), bits(&raised), "{name}: {merged} merged");
            }
        }
    }

    #[test]
    fn nearest_k_breaks_ties_by_id() {
        let p = Point::new(1.0, 1.0);
        let g = grid(&[p, Point::new(3.0, 3.0), p], &[p, Point::new(1.0, 2.0)]);
        let mut out = Vec::new();
        g.k_nearest_where(p, 3, |i| i != 2, &mut out);
        assert_eq!(out, vec![(0.0, 0), (0.0, 3), (1.0, 4)]);
        g.k_nearest_where(p, 0, |_| true, &mut out);
        assert!(out.is_empty());
    }
}
