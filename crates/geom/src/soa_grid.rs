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
//! The same structure serves the `Point`-slice callers (UDG
//! construction, the simulator's coverage lists, the SINR kernels), the
//! million-node streaming kernels and, under [`crate::DynGrid`], the
//! incremental engine. Query semantics are the *closed* distance-level
//! predicate `dist(p, c) <= r` (see the crate-level floating-point
//! policy), so results are bit-compatible with the naive scans.
//!
//! # Split cells
//!
//! A cell holding more than `SPLIT_BUDGET` (32) points that do not all
//! coincide (most of an exponential chain lands in one cell) gets a
//! nested grid over their bounding box (`GridShape::nested`), and so on
//! down to `MAX_SPLIT_DEPTH` levels. The bucket scatter's largest count
//! tells the build whether any cell is overloaded, so a grid without one
//! pays nothing. Splitting terminates: a nested shape of two or more
//! cells separates the points of least and greatest coordinate, so each
//! nested cell holds fewer points, and a one-cell shape is not split. The
//! nested buckets re-permute the parent cell's run of the columns in
//! place, stably. Disk queries descend, scanning at every level the
//! range of the same slackened radius through that level's monotone cell
//! coordinate, and the nearest-neighbour search ([`SoaGrid::nearest_at`])
//! is a sequence of disk queries' scans. The streaming radius pass
//! ([`SoaGrid::for_each_nearest`]) reads each cell's 3×3 block once for
//! all of the cell's points and runs that search only for the points the
//! block cannot settle. A cell's index into the shared
//! `starts` vector is its *cell id*, the key of [`crate::DynGrid`]'s
//! per-cell tables.

use crate::bbox::Aabb;
use crate::grid::{
    bucket_scatter, fits_u32_index, try_filled, GridCapacityError, GridShape, MAX_CELLS,
    MAX_SPLIT_DEPTH, PAR_BUILD_MIN, SPLIT_BUDGET,
};
use crate::point::Point;
use crate::soa::SoaPoints;
use rim_par::par_fill_chunks;
use std::ops::Range;

/// A bucket grid with bucket-major coordinate columns for sequential
/// scans, whose overloaded cells split into nested grids (see the
/// module docs).
///
/// Indices reported by queries refer to the original point order of the
/// store (or slice) the grid was built from.
///
/// ```
/// use rim_geom::{Point, SoaGrid};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(2.0, 2.0)];
/// let grid = SoaGrid::from_points(&pts, 0.5);
/// assert_eq!(grid.query_disk(Point::new(0.1, 0.0), 0.5), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SoaGrid {
    /// Shape of the top level, whose cell `k` has id `k`.
    pub(crate) shape: GridShape,
    /// CSR offsets into the columns, per cell id: the top level's
    /// `ncells + 1` entries, then each nested level's.
    pub(crate) starts: Vec<u32>,
    /// Original point ids, bucket-major, insertion-stable per bucket.
    pub(crate) items: Vec<u32>,
    /// X-coordinates permuted into the `items` order.
    pub(crate) sxs: Vec<f64>,
    /// Y-coordinates permuted into the `items` order.
    pub(crate) sys: Vec<f64>,
    /// The nested grids of the split cells, in build order.
    subs: Vec<Level>,
    /// Per cell id, `1 +` the index in `subs` of the grid that splits
    /// the cell, or 0 for a leaf. Empty when no cell is split.
    split: Vec<u32>,
}

/// One level of a [`SoaGrid`]: the top grid or a nested one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    pub shape: GridShape,
    /// Id of the level's cell 0.
    pub first: usize,
    /// Nesting depth: 0 for the top level.
    pub depth: usize,
    /// Whether any cell of the level is split; scans of a level without
    /// split cells read whole row runs.
    pub splits: bool,
}

impl SoaGrid {
    /// Builds a grid over `points` with the given `cell` size hint, or
    /// errors when `points` has more entries than `u32` bucket item ids
    /// can address or a point-sized column of the build cannot be
    /// allocated. The hint is sanitized and budget-clamped (see
    /// [`crate::grid`]): degenerate hints fall back to the bounding-box
    /// diagonal, and cell counts stay `O(n)`. From the build gate of
    /// [`crate::grid`] on, the build runs on [`rim_par::num_threads`]
    /// workers.
    pub fn try_build(points: &SoaPoints, cell: f64) -> Result<Self, GridCapacityError> {
        let shape = GridShape::new(&points.bbox(), points.len(), cell);
        Ok(Self::try_build_with(points, shape, rim_par::num_threads())?.0)
    }

    /// Builds a grid over `points` with about one point per cell (see
    /// [`crate::grid`]), the shape of the streaming nearest-neighbour
    /// kernels, on `threads` workers from the build gate on, and hands
    /// back the store's y column. The build consumes the store: it
    /// gathers the bucket-ordered y column into the store's x column once
    /// the x column is gathered, so the y column is a point-sized buffer
    /// nothing reads any more (the streaming kernel's radius column). The
    /// bounding box is scanned once. Errors like [`SoaGrid::try_build`].
    pub fn try_build_unit_density(
        points: SoaPoints,
        threads: usize,
    ) -> Result<(Self, Vec<f64>), GridCapacityError> {
        let shape = GridShape::unit_density(&points.bbox(), points.len());
        let (grid, points) = Self::try_build_with(points, shape, threads)?;
        Ok((grid, points.into_columns().1))
    }

    /// The index build of the `Point`-slice callers, with `cell_hint`
    /// (typically the dominant query radius) sizing the top-level cells.
    /// With an observability sink active, records the top-level cell
    /// occupancy. Panics past [`crate::MAX_INDEXED_POINTS`], which no
    /// caller can address.
    pub fn from_points(points: &[Point], cell_hint: f64) -> Self {
        Self::from_points_threads(points, cell_hint, rim_par::num_threads())
    }

    /// [`SoaGrid::from_points`] on `threads` workers from the build gate
    /// on; the grid is the same for every `threads`.
    // rim-lint: allow(panic-freedom) — the capacity assert replaces silent `as u32` id truncation
    pub(crate) fn from_points_threads(points: &[Point], cell_hint: f64, threads: usize) -> Self {
        let shape = GridShape::new(&Aabb::of_points(points), points.len(), cell_hint);
        let grid = match Self::try_build_with(points, shape, threads) {
            Ok((grid, _)) => grid,
            // rim-lint: allow(no-unwrap-in-lib) — intentional capacity assert, fallible twin is try_build
            Err(e) => panic!("{e}"),
        };
        if rim_obs::active() {
            for occ in grid.nonempty_bucket_sizes() {
                rim_obs::record("geom.grid.cell_occupancy", occ as u64);
            }
        }
        grid
    }

    /// The build behind every entry point: `points` are the points,
    /// `shape` the top level's shape, and the input comes back with the
    /// grid (see [`BuildInput`] for what a consumed store keeps). Below
    /// [`PAR_BUILD_MIN`] points the build runs on the calling thread,
    /// from it on `threads` workers compute the cell ids, scatter the
    /// buckets and gather the columns; the grid is the same either way.
    /// Counts `geom.index.grid_builds`. With an observability sink active
    /// it records `geom.grid.build_threads`, opens the stage spans
    /// `geom/grid_cells`, `geom/grid_scatter` and `geom/grid_gather`,
    /// and a build that splits records `geom.grid.split_cells` and
    /// `geom.grid.split_depth`. Every point-sized buffer is allocated
    /// with [`try_filled`], so running out of memory is an error.
    fn try_build_with<P: BuildInput>(
        mut points: P,
        shape: GridShape,
        threads: usize,
    ) -> Result<(Self, P), GridCapacityError> {
        let n = points.len();
        if !fits_u32_index(n) {
            return Err(GridCapacityError { points: n, bytes: None });
        }
        let threads = if n >= PAR_BUILD_MIN { threads.max(1) } else { 1 };
        rim_obs::counter_add("geom.index.grid_builds", 1);
        if rim_obs::active() {
            rim_obs::record("geom.grid.build_threads", threads as u64);
        }
        let cells = {
            let _span = rim_obs::span("geom/grid_cells");
            let mut cells = try_filled(n, n, 0u32)?;
            par_fill_chunks(&mut cells, threads, |first, window| {
                for (i, c) in (first..).zip(window.iter_mut()) {
                    *c = (shape.row(points.y(i)) * shape.nx + shape.col(points.x(i))) as u32;
                }
            });
            cells
        };
        let (starts, items, largest) = {
            let _span = rim_obs::span("geom/grid_scatter");
            bucket_scatter(cells, shape.ncells(), threads)?
        };
        // Gather the coordinate columns into bucket order: after this,
        // every bucket scan is a sequential read of both columns.
        let (sxs, sys) = {
            let _span = rim_obs::span("geom/grid_gather");
            let sxs = gather_column(&items, |i| points.x(i), Vec::new(), threads)?;
            let spent = points.spent_x();
            (sxs, gather_column(&items, |i| points.y(i), spent, threads)?)
        };
        let mut grid = SoaGrid {
            shape,
            starts,
            items,
            sxs,
            sys,
            subs: Vec::new(),
            split: Vec::new(),
        };
        if largest > SPLIT_BUDGET {
            grid.split_overloaded()?;
        }
        if rim_obs::active() && grid.split_cells() > 0 {
            rim_obs::counter_add("geom.grid.split_cells", grid.split_cells() as u64);
            rim_obs::record("geom.grid.split_depth", grid.split_depth() as u64);
        }
        Ok((grid, points))
    }

    /// Splits every overloaded cell (see the module docs), level by
    /// level: the top level's cells, then each nested grid's as the loop
    /// reaches it, so the cell ids of a level are contiguous.
    // rim-lint: allow(panic-freedom) — a level's cell ids are followed by its end offset in `starts`
    fn split_overloaded(&mut self) -> Result<(), GridCapacityError> {
        // Zeroed lazily: only split cells write their entry.
        self.split = vec![0; self.starts.len()];
        // `at` is the level's index in `subs`, `None` for the top level.
        let (mut level, mut at): (_, Option<usize>) = (Some(self.top()), None);
        while let Some(lv) = level {
            if lv.depth < MAX_SPLIT_DEPTH {
                for g in lv.first..lv.first + lv.shape.ncells() {
                    let (lo, hi) = (self.starts[g] as usize, self.starts[g + 1] as usize);
                    if hi - lo > SPLIT_BUDGET {
                        if let Some(sub) = self.split_cell(lo, hi, lv.depth + 1)? {
                            self.subs.push(sub);
                            self.split[g] = self.subs.len() as u32;
                            if let Some(parent) = at.and_then(|i| self.subs.get_mut(i)) {
                                parent.splits = true;
                            }
                        }
                    }
                }
            }
            let next = at.map_or(0, |i| i + 1);
            (level, at) = (self.subs.get(next).copied(), Some(next));
        }
        Ok(())
    }

    /// Re-buckets positions `lo..hi`, one overloaded cell's run, into a
    /// nested grid over their bounding box, and appends its offsets to
    /// `starts`. Returns `None`, leaving the run as it is, when the
    /// nested shape has a single cell.
    // rim-lint: allow(panic-freedom) — `lo <= hi <= len()` come from `starts`; scatter positions are below `hi - lo`
    fn split_cell(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> Result<Option<Level>, GridCapacityError> {
        let (xs, ys) = (&self.sxs[lo..hi], &self.sys[lo..hi]);
        let bbox = xs.iter().zip(ys).fold(Aabb::EMPTY, |b, (&x, &y)| b.expand(Point::new(x, y)));
        let shape = GridShape::nested(&bbox, hi - lo);
        if shape.ncells() < 2 {
            return Ok(None);
        }
        let cells: Vec<u32> = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (shape.row(y) * shape.nx + shape.col(x)) as u32)
            .collect();
        let (starts, order, _) = bucket_scatter(cells, shape.ncells(), 1)?;
        let items: Vec<u32> = order.iter().map(|&o| self.items[lo + o as usize]).collect();
        let sxs: Vec<f64> = order.iter().map(|&o| self.sxs[lo + o as usize]).collect();
        let sys: Vec<f64> = order.iter().map(|&o| self.sys[lo + o as usize]).collect();
        self.items[lo..hi].copy_from_slice(&items);
        self.sxs[lo..hi].copy_from_slice(&sxs);
        self.sys[lo..hi].copy_from_slice(&sys);
        let first = self.starts.len();
        self.starts.extend(starts.iter().map(|&s| s + lo as u32));
        self.split.resize(self.starts.len(), 0);
        Ok(Some(Level { shape, first, depth, splits: false }))
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

    /// Number of split cells, at every level.
    pub fn split_cells(&self) -> usize {
        self.subs.len()
    }

    /// Deepest nesting of split cells: 0 for a grid without them.
    pub fn split_depth(&self) -> usize {
        self.subs.iter().map(|lv| lv.depth).max().unwrap_or(0)
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
    /// `dist(points[k], c) <= r`, and returns the number of candidates
    /// scanned (the run lengths: points tested against the distance
    /// predicate, whether or not they passed). Positions index
    /// [`SoaGrid::item`] / [`SoaGrid::point_at`]; kernels that iterate the
    /// whole store in bucket order use this variant so neighbor
    /// coordinates never go through the id indirection.
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
    /// Split cells are descended into with the same rule at every level.
    /// Each run is filtered without a branch per candidate (a stack
    /// buffer of hit offsets, see `filter_run`); hits and their order are
    /// those of a plain `if` over the run.
    #[inline]
    pub fn for_each_pos_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        debug_assert!(r >= 0.0);
        let mut candidates = 0;
        self.for_each_disk_run(c, r, |lo, hi| candidates += self.filter_run(lo, hi, c, r, &mut f));
        candidates
    }

    /// Calls `run(lo, hi)` for every run `lo..hi` of positions that the
    /// disk query of radius `r` around `c` scans: one per row of the top
    /// level's cell range on a grid without split cells (a contiguous
    /// run of cells, so one slice scan per row keeps the loop tight), and
    /// the runs of [`SoaGrid::walk_cells`] on a grid with them.
    // rim-lint: root
    #[inline]
    // rim-lint: allow(panic-freedom) — cell coordinates are clamped to the grid, and every cell id is followed by its end offset in `starts`, which bounds the columns
    fn for_each_disk_run(&self, c: Point, r: f64, mut run: impl FnMut(usize, usize)) {
        let (b, s) = (reach_box(c, c, r), &self.shape);
        if !self.subs.is_empty() {
            self.walk_cells(self.top(), &b, &mut |g0, g1| {
                run(self.starts[g0] as usize, self.starts[g1 + 1] as usize);
            });
        } else if let Some((x0, x1, y0, y1)) = s.span(&b) {
            for y in y0..=y1 {
                let row = y * s.nx;
                run(self.starts[row + x0] as usize, self.starts[row + x1 + 1] as usize);
            }
        }
    }

    /// Calls `f(k)` for every position `k` in `lo..hi` whose point has
    /// `dist(p, c) <= r`, in position order, and returns `hi − lo`, the
    /// candidates scanned.
    ///
    /// The run is read in blocks of [`SCAN_BLOCK`] positions. Every
    /// candidate's offset is written to a stack buffer whose cursor then
    /// advances by the predicate's 0 or 1, so the loop takes no branch
    /// per candidate (about a third of a unit-disk query's candidates are
    /// hits, in no order a predictor can learn); `f` then runs on the
    /// block's hits. The predicate is `Point::dist`'s — sqrt of `dx² +
    /// dy²`, then a closed comparison at distance level (crate docs) — so
    /// hits agree with the naive scan bit for bit.
    #[inline]
    // rim-lint: allow(panic-freedom) — `lo <= hi <= len()` come from `starts`; the cursor is at most the offset being written, below SCAN_BLOCK
    fn filter_run<F: FnMut(usize)>(
        &self,
        lo: usize,
        hi: usize,
        c: Point,
        r: f64,
        f: &mut F,
    ) -> usize {
        let (xs, ys) = (&self.sxs[lo..hi], &self.sys[lo..hi]);
        let mut hits = [0u8; SCAN_BLOCK];
        for (first, (bx, by)) in
            (lo..).step_by(SCAN_BLOCK).zip(xs.chunks(SCAN_BLOCK).zip(ys.chunks(SCAN_BLOCK)))
        {
            let mut m = 0;
            for (i, (&x, &y)) in bx.iter().zip(by).enumerate() {
                // `m <= i < SCAN_BLOCK`: the `%` changes nothing but
                // spares a bounds check.
                hits[m % SCAN_BLOCK] = i as u8;
                m += usize::from(Point::new(x, y).dist(&c) <= r);
            }
            for &i in hits.iter().take(m) {
                f(first + usize::from(i));
            }
        }
        hi - lo
    }

    /// Calls `run(xs, ys)` with the coordinate columns of every run of
    /// leaf cells that the disk queries of radius `r` around `a` and
    /// around `b` scan, walked once: the runs of the box
    /// `[min(a.x, b.x) − reach, max(a.x, b.x) + reach] × [min(a.y, b.y) −
    /// reach, max(a.y, b.y) + reach]`, with `reach` the disk query's
    /// slackened radius. Every indexed point lies in at most one run, and
    /// every point with `dist(p, a) <= r` or `dist(p, b) <= r` lies in
    /// one; the runs also hold points of the box's corners that neither
    /// disk covers, so the caller decides membership.
    ///
    /// Why the box holds both disks' cell ranges: rounding is monotone,
    /// so `fl(min(a.x, b.x) − reach) ≤ fl(a.x − reach)` and
    /// `fl(max(a.x, b.x) + reach) ≥ fl(a.x + reach)` (the `min` and `max`
    /// are exact), and the cell coordinate is monotone, so the box's cell
    /// range contains the range of `a`'s disk query, which holds every
    /// point at computed distance at most `r` from `a`
    /// ([`SoaGrid::for_each_pos_in_disk`]); likewise for `b` and for the
    /// rows, at every level of split cells.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — walked cell ids are followed by their end offset in `starts`, which bounds the column slices
    pub fn for_each_link_run<F: FnMut(&[f64], &[f64])>(
        &self,
        a: Point,
        b: Point,
        r: f64,
        mut run: F,
    ) {
        self.walk_cells(self.top(), &reach_box(a, b, r), &mut |g0, g1| {
            let (lo, hi) = (self.starts[g0] as usize, self.starts[g1 + 1] as usize);
            run(&self.sxs[lo..hi], &self.sys[lo..hi]);
        });
    }

    /// Calls `f(i)` for every *original point index* `i` with
    /// `dist(points[i], c) <= r` (closed disk, distance level — the
    /// workspace's exactness policy). Visit order is deterministic:
    /// bucket-major, insertion order within buckets.
    ///
    /// With an observability sink active, each query records its hit and
    /// candidate counts as the histograms `geom.index.query_hits` and
    /// `geom.index.query_candidates`.
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) {
        let mut hits = 0;
        let candidates = self.for_each_in_disk_counting(c, r, |i| {
            hits += 1;
            f(i);
        });
        record_query(candidates, hits);
    }

    /// Like [`Self::for_each_in_disk`], additionally returning the number
    /// of candidate points scanned — the output-sensitivity signal the
    /// observability layer reports per query.
    // rim-lint: allow(panic-freedom) — scan positions are below len()
    pub fn for_each_in_disk_counting<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        self.for_each_pos_in_disk(c, r, |k| f(self.items[k] as usize))
    }

    /// Calls `run(g0, g1)` for every run `g0..=g1` of consecutive leaf
    /// cells, within one row of one level, that a scan of the coordinate
    /// box `b` reads, starting at level `lv` and descending into split
    /// cells. Visit order is deterministic.
    pub(crate) fn walk_cells<F: FnMut(usize, usize)>(&self, lv: Level, b: &Aabb, run: &mut F) {
        let Some((x0, x1, y0, y1)) = lv.shape.span(b) else {
            return; // negative radius
        };
        for y in y0..=y1 {
            let row = lv.first + y * lv.shape.nx;
            if !lv.splits {
                run(row + x0, row + x1);
                continue;
            }
            let mut from = row + x0;
            for g in row + x0..=row + x1 {
                if let Some(sub) = self.split_of(g) {
                    if from < g {
                        run(from, g - 1);
                    }
                    self.walk_cells(sub, b, run);
                    from = g + 1;
                }
            }
            if from <= row + x1 {
                run(from, row + x1);
            }
        }
    }

    /// The top level.
    #[inline]
    pub(crate) fn top(&self) -> Level {
        // Nested levels only exist under split top-level cells.
        Level { shape: self.shape, first: 0, depth: 0, splits: !self.subs.is_empty() }
    }

    /// Every level: the top one, then the nested grids in build order, in
    /// which a split cell's nested grid comes after the level holding the
    /// cell.
    pub(crate) fn levels(&self) -> impl DoubleEndedIterator<Item = Level> + '_ {
        std::iter::once(self.top()).chain(self.subs.iter().copied())
    }

    /// The nested grid that splits cell `g`, if any.
    #[inline]
    pub(crate) fn split_of(&self, g: usize) -> Option<Level> {
        let s = *self.split.get(g)? as usize;
        self.subs.get(s.checked_sub(1)?).copied()
    }

    /// The leaf cell a point at `p` falls in — the cell the build would
    /// bucket it in, through the clamped cell coordinate of every level
    /// on the way down — and that cell's size. Calls `on_path(g)` for
    /// every cell passed, the leaf included.
    pub(crate) fn descend(&self, p: Point, mut on_path: impl FnMut(usize)) -> (usize, f64) {
        let mut lv = self.top();
        loop {
            let s = &lv.shape;
            let g = lv.first + s.row(p.y) * s.nx + s.col(p.x);
            on_path(g);
            match self.split_of(g) {
                Some(sub) => lv = sub,
                None => return (g, s.cell),
            }
        }
    }

    /// The radius of the first round of a nearest-neighbour search around
    /// `c` ([`SoaGrid::nearest_at`], [`crate::DynGrid::k_nearest_where`]):
    /// the size of the leaf cell `c` falls in, which a grid without split
    /// cells knows without computing `c`'s cell.
    pub(crate) fn first_radius(&self, c: Point) -> f64 {
        if self.subs.is_empty() {
            return self.shape.cell;
        }
        self.descend(c, |_| {}).1
    }

    /// The radius of the round after one of radius `r` around `c`: `2r`,
    /// or, once the disk query's box spans the whole top level, infinity,
    /// whose round scans every point.
    pub(crate) fn next_radius(&self, c: Point, r: f64) -> f64 {
        let s = &self.shape;
        if s.span(&reach_box(c, c, r)) == Some((0, s.nx - 1, 0, s.ny - 1)) {
            f64::INFINITY
        } else {
            2.0 * r
        }
    }

    /// Occupancy of every non-empty top-level bucket, in cell order — the
    /// cell occupancy distribution the observability layer histograms at
    /// build time.
    pub fn nonempty_bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        let top = self.starts.get(..=self.shape.ncells()).unwrap_or(&[]);
        top.windows(2)
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

    /// The nearest other indexed point of the point at *bucket-order
    /// position* `k` — the general nearest-neighbour search behind the
    /// streaming radius pass ([`SoaGrid::for_each_nearest`]). Returns
    /// `None` for a store with fewer than two points or an out-of-range
    /// position.
    ///
    /// [`Nearest::dist`] is `sqrt(min dist_sq)` over all other points,
    /// bit-equal to [`Point::dist`] of the closest pair. The search runs
    /// the closed-disk rounds of [`crate::DynGrid::k_nearest_where`]: a
    /// round of radius `R` scans the runs of the disk query of radius `R`
    /// around the point ([`SoaGrid::for_each_pos_in_disk`]), keeping the
    /// two smallest `dist_sq` and the first position of the smallest with
    /// no square root in the loop, and the search stops once `dist =
    /// sqrt(best_sq) <= R`. The first `R` is the size of the point's leaf
    /// cell; every other round starts afresh at twice the last `R`, or,
    /// once a round's box has spanned the top level, at an infinite one,
    /// which scans every point.
    ///
    /// Why the answer is exact: the disk query's runs hold every point at
    /// distance at most `R`. A point left out has `sqrt(dist_sq) > R >=
    /// dist`, so, `sqrt` being monotone, its `dist_sq > best_sq`: it can
    /// neither undercut nor tie the minimum. The same argument makes
    /// [`Nearest::unique`], `sqrt(second) > dist`, exact: every point of
    /// the closed disk `D(c, dist)` was scanned, and each scanned point
    /// other than `pos` has `dist_sq >= second`. Only an infinite `dist`
    /// leaves `unique` false whatever the disk holds.
    // rim-lint: root
    pub fn nearest_at(&self, k: usize) -> Option<Nearest> {
        if self.len() < 2 || k >= self.len() {
            return None;
        }
        let c = self.point_at(k);
        Some(self.nearest_from(k, c, self.first_radius(c)))
    }

    /// The rounds of [`SoaGrid::nearest_at`] around the point `c` at
    /// position `k`, from a round of radius `r` on. The answer is the same
    /// for every `r > 0`: each round that stops is exact on its own.
    fn nearest_from(&self, k: usize, c: Point, mut r: f64) -> Nearest {
        loop {
            let mut two = TwoNearest::new(k);
            self.for_each_disk_run(c, r, |lo, hi| two = two.scan(lo, self.run(lo, hi), c));
            if let Some(near) = two.settled(r) {
                return near;
            }
            r = self.next_radius(c, r);
        }
    }

    /// Calls `f(self.nearest_at(k))` for every position `k` in
    /// `positions`, in order: the streaming radius pass, cell by cell.
    ///
    /// For each top-level cell it reads the row runs of the cell's 3×3
    /// block of cells (clamped to the grid) once, and for each of the
    /// cell's points scans them as a round of [`SoaGrid::nearest_at`]
    /// does, in increasing position order. The point is *settled*, its
    /// answer taken from that round, when `dist = sqrt(best_sq) <= cert`:
    /// `cert` is its distance to the block's outer boundary, a side on
    /// the grid's edge counting as infinitely far, less a margin of
    /// `2⁻²⁰·cell`. Every other point goes on with `nearest_at`'s rounds
    /// from the second on: the block scanned about what the first, of
    /// radius one cell, would, and a round that stops is exact whatever
    /// its radius. Every point of a grid with split cells, with cells
    /// below `2⁻⁴⁷⁰` or with block edges that overflow runs `nearest_at`.
    /// Counts the points that ran `nearest_at`'s rounds as
    /// `geom.nn.block_misses`, once per call. Each answer is a pure
    /// function of its position, so any cut of the positions into calls
    /// gives the same answers.
    ///
    /// Why a settled answer is `nearest_at`'s: every point at computed
    /// distance at most `cert` from `c` lies in the block (below). So no
    /// point outside it undercuts or ties `best_sq`, and every point of
    /// the closed disk `D(c, dist)` was scanned: `dist`, `unique` and
    /// `pos`, the least position at the smallest `dist_sq` (see
    /// [`Nearest::pos`]), follow as they do for `nearest_at`'s rounds.
    ///
    /// Why the block holds them: take the left side, `cx >= 2` for the
    /// cell's column `cx` (the other sides are alike), and a point `q`
    /// bucketed left of the block, `col(q.x) <= cx − 2`. Let `u = 2⁻⁵³`,
    /// `o` the origin, `λ = (cx − 1)·cell` and `t = fl(q.x − o) >= 0`.
    ///
    /// * The bucketing `floor(fl(t/cell)) <= cx − 2` gives
    ///   `fl(t/cell) < cx − 1`, so `t/cell < cx − 1` (rounding is
    ///   monotone and `cx − 1` is representable), so `t < λ` and
    ///   `q.x − o < λ/(1 − u)`.
    /// * With `s = fl(c.x − o)` and the computed side distance
    ///   `d = fl(s − fl(λ))` follows `c.x − q.x > d − u·(d + s + 2.01λ)`.
    /// * On the right side `fl(t/cell) >= m` only gives
    ///   `t/cell >= m/(1 + u)`, one rounding more, and there
    ///   `q.x − c.x > d − u·(d + 3ρ + 1.01s)` with `ρ = (cx + 2)·cell`.
    /// * The offsets `s`, `λ` and `ρ` of a side that is not on the
    ///   grid's edge are below `nx·cell`, and `nx <= 2³⁰`, as a grid has
    ///   at most `MAX_CELLS = 2³⁰` cells, while `d <= 2.01·cell`. So in
    ///   exact arithmetic every point outside the block is farther than
    ///   `d − 4.02·2³⁰·u·cell = d − 2^−20.99·cell` from `c` along one
    ///   axis.
    /// * A point at computed distance at most `cert` is at most
    ///   `cert·(1 + 2⁻⁴⁰) + 2⁻⁵⁰⁰` from `c` along each axis
    ///   ([`SoaGrid::for_each_pos_in_disk`]). With
    ///   `cert = fl(d − 2⁻²⁰·cell)` that stays below
    ///   `d − 2^−20.99·cell` once `cell >= 2⁻⁴⁷⁰`: the `2⁻²⁰` leaves
    ///   `3.98·2⁻²³·cell` for the `2⁻⁴⁰` term and the `2⁻⁵⁰⁰`. So the
    ///   point lies in the block.
    ///
    /// Every error is relative to an offset from `o`, never to `|o|`, so
    /// coordinates far from the origin (squares offset by 2⁵⁰,
    /// `--side 2⁵¹¹`) keep the bound.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — `g` is the cell holding position `k < len()`, so `g < ncells`; block cells are clamped to the grid, and `starts` has `ncells + 1` top-level entries
    pub fn for_each_nearest(&self, positions: Range<usize>, mut f: impl FnMut(Option<Nearest>)) {
        let s = &self.shape;
        let end = positions.end.min(self.len());
        let mut k = positions.start;
        let mut misses = 0u64;
        if self.len() >= 2 && self.subs.is_empty() && settles(s) {
            let top = &self.starts[..=s.ncells()];
            let margin = s.cell * SETTLE_MARGIN;
            // The cell holding position `k`: the last with `starts[g] <= k`.
            let mut g = top.partition_point(|&st| st as usize <= k).saturating_sub(1);
            while k < end {
                let cell_end = top[g + 1] as usize;
                if cell_end <= k {
                    g += 1;
                    continue;
                }
                let (cx, cy) = (g % s.nx, g / s.nx);
                let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(s.nx - 1));
                let mut runs = [(0, self.run(0, 0)); 3];
                for (run, y) in runs.iter_mut().zip(cy.saturating_sub(1)..=(cy + 1).min(s.ny - 1)) {
                    let (lo, hi) = (top[y * s.nx + x0] as usize, top[y * s.nx + x1 + 1] as usize);
                    *run = (lo, self.run(lo, hi));
                }
                let (lo_x, hi_x) = block_edges(cx, s.nx, s.cell);
                let (lo_y, hi_y) = block_edges(cy, s.ny, s.cell);
                for k in k..cell_end.min(end) {
                    let c = self.point_at(k);
                    let two =
                        runs.iter().fold(TwoNearest::new(k), |two, &(lo, run)| two.scan(lo, run, c));
                    let (dx, dy) = (c.x - s.origin.x, c.y - s.origin.y);
                    let room = (dx - lo_x).min(hi_x - dx).min(dy - lo_y).min(hi_y - dy);
                    f(Some(two.settled(room - margin).unwrap_or_else(|| {
                        misses += 1;
                        self.nearest_from(k, c, self.next_radius(c, s.cell))
                    })));
                }
                (k, g) = (cell_end.min(end), g + 1);
            }
        }
        for k in k..positions.end {
            let near = self.nearest_at(k);
            misses += u64::from(near.is_some());
            f(near);
        }
        rim_obs::counter_add("geom.nn.block_misses", misses);
    }

    /// The coordinate columns of positions `lo..hi`.
    #[inline]
    // rim-lint: allow(panic-freedom) — `lo <= hi <= len()` comes from `starts`
    fn run(&self, lo: usize, hi: usize) -> (&[f64], &[f64]) {
        (&self.sxs[lo..hi], &self.sys[lo..hi])
    }
}

/// The nearest other indexed point of a point, as
/// [`SoaGrid::nearest_at`] finds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nearest {
    /// Distance to the nearest other point, `sqrt(min dist_sq)`:
    /// bit-equal to [`Point::dist`] of the closest pair.
    pub dist: f64,
    /// Bucket-order position of a point at that distance: the least
    /// position among the points at the smallest `dist_sq`. Every round
    /// of [`SoaGrid::nearest_at`], and the block round of
    /// [`SoaGrid::for_each_nearest`], scans its runs in increasing
    /// position order, keeps the first minimum and scans every point
    /// tied at it, so the two report the same position.
    pub pos: usize,
    /// Whether `pos` is the only other point `q` with `dist(q, c) <=
    /// dist` (see [`SoaGrid::nearest_at`]): `false` for distance ties,
    /// and for an infinite `dist`, where squared distances overflow.
    pub unique: bool,
}

/// The two smallest `dist_sq` a round of [`SoaGrid::nearest_at`] has
/// seen, and the first position of the smallest.
#[derive(Clone, Copy)]
struct TwoNearest {
    best_sq: f64,
    second_sq: f64,
    pos: usize,
    /// The query point's own position, which is never a candidate.
    skip: usize,
}

impl TwoNearest {
    /// Nothing seen yet, around the point at position `skip` of a store
    /// of at least two points. `pos` starts at another position, so it is
    /// an argmin even when every squared distance overflows.
    fn new(skip: usize) -> Self {
        TwoNearest {
            best_sq: f64::INFINITY,
            second_sq: f64::INFINITY,
            pos: usize::from(skip == 0),
            skip,
        }
    }

    /// Fed the run of positions from `lo` on whose coordinate columns are
    /// `(xs, ys)`, by their `dist_sq` from `c`. The tracker is taken and
    /// handed back by value, so its fields are locals for the loop and the
    /// updates are selects, not branches: through a reference the
    /// compiler would store the minimum and its position behind a branch
    /// at every new minimum, since it may not turn a conditional store
    /// into a select.
    #[inline]
    fn scan(self, lo: usize, (xs, ys): (&[f64], &[f64]), c: Point) -> Self {
        let TwoNearest { mut best_sq, mut second_sq, mut pos, skip } = self;
        for (p, (&x, &y)) in (lo..).zip(xs.iter().zip(ys)) {
            let d_sq = if p == skip { f64::INFINITY } else { Point::new(x, y).dist_sq(&c) };
            // The larger of the old minimum and `d_sq` may be the new
            // second; the smaller is the new minimum.
            let above = if d_sq > best_sq { d_sq } else { best_sq };
            second_sq = if above < second_sq { above } else { second_sq };
            if d_sq < best_sq {
                best_sq = d_sq;
                pos = p;
            }
        }
        TwoNearest { best_sq, second_sq, pos, skip }
    }

    /// The answer of a round that scanned every point at computed
    /// distance at most `r`, when `dist <= r`.
    fn settled(self, r: f64) -> Option<Nearest> {
        let dist = self.best_sq.sqrt();
        (dist <= r).then(|| Nearest { dist, pos: self.pos, unique: self.second_sq.sqrt() > dist })
    }
}

/// Whether [`SoaGrid::for_each_nearest`] may settle points on a top level
/// of shape `s`: its cells are at least [`MIN_SETTLE_CELL`], and `(n +
/// 1)·cell`, above every block edge on an axis of `n` cells, is finite.
fn settles(s: &GridShape) -> bool {
    s.cell >= MIN_SETTLE_CELL && (s.cell * (s.nx.max(s.ny) + 1) as f64).is_finite()
}

/// The offsets from the origin of the outer edges of the 3×3 block around
/// cell coordinate `c` on an axis of `n` cells of size `cell`, `(c −
/// 1)·cell` and `(c + 2)·cell`; an edge with no cell beyond it is
/// infinitely far.
fn block_edges(c: usize, n: usize, cell: f64) -> (f64, f64) {
    let lo = if c >= 2 { (c - 1) as f64 * cell } else { f64::NEG_INFINITY };
    let hi = if c + 2 < n { (c + 2) as f64 * cell } else { f64::INFINITY };
    (lo, hi)
}

/// The points a grid build reads, by original index `i < len()`: a
/// borrowed `Point` slice or [`SoaPoints`] store, or a store the build
/// consumes.
trait BuildInput: Sync {
    fn len(&self) -> usize;
    fn x(&self, i: usize) -> f64;
    fn y(&self, i: usize) -> f64;
    /// A point-sized buffer for the y gather, taken once the x gather is
    /// done: a consumed store's x column, which nothing reads any more,
    /// or none, so the gather allocates one.
    fn spent_x(&mut self) -> Vec<f64> {
        Vec::new()
    }
}

impl BuildInput for &[Point] {
    fn len(&self) -> usize {
        <[Point]>::len(self)
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`
    fn x(&self, i: usize) -> f64 {
        self[i].x
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`
    fn y(&self, i: usize) -> f64 {
        self[i].y
    }
}

impl BuildInput for &SoaPoints {
    fn len(&self) -> usize {
        SoaPoints::len(self)
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`
    fn x(&self, i: usize) -> f64 {
        self.xs()[i]
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`
    fn y(&self, i: usize) -> f64 {
        self.ys()[i]
    }
}

impl BuildInput for SoaPoints {
    fn len(&self) -> usize {
        SoaPoints::len(self)
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`, and x only before `spent_x`
    fn x(&self, i: usize) -> f64 {
        self.xs()[i]
    }
    // rim-lint: allow(panic-freedom) — the build reads `i < len()`
    fn y(&self, i: usize) -> f64 {
        self.ys()[i]
    }
    fn spent_x(&mut self) -> Vec<f64> {
        self.take_xs()
    }
}

/// Column `v` in bucket order, `out[k] = v(items[k])`, gathered by
/// `threads` workers over contiguous position windows into `out` when it
/// is point-sized, else into a new column.
// rim-lint: root
fn gather_column(
    items: &[u32],
    v: impl Fn(usize) -> f64 + Sync,
    out: Vec<f64>,
    threads: usize,
) -> Result<Vec<f64>, GridCapacityError> {
    let mut out = if out.len() == items.len() {
        out
    } else {
        try_filled(items.len(), items.len(), 0.0)?
    };
    par_fill_chunks(&mut out, threads, |first, window| {
        for (slot, &i) in window.iter_mut().zip(items.get(first..).unwrap_or_default()) {
            *slot = v(i as usize);
        }
    });
    Ok(out)
}

/// Records a disk query's candidate and hit counts as the histograms
/// `geom.index.query_candidates` and `geom.index.query_hits`, when an
/// observability sink is active (one atomic load otherwise).
#[inline]
pub(crate) fn record_query(candidates: usize, hits: usize) {
    if rim_obs::active() {
        rim_obs::record("geom.index.query_candidates", candidates as u64);
        rim_obs::record("geom.index.query_hits", hits as u64);
    }
}

/// The slackened radius whose cell range a disk query of radius `r`
/// scans (see [`SoaGrid::for_each_pos_in_disk`]).
#[inline]
pub(crate) fn reach(r: f64) -> f64 {
    r + r * QUERY_SLACK + UNDERFLOW_SLACK
}

/// The coordinate box that disk queries of radius `r` around `a` and `b`
/// scan together (see [`SoaGrid::for_each_link_run`]); `a = b` gives one
/// disk query's box `c ± reach(r)`, computed as `c.x − reach` and so on.
/// A negative radius may give an empty box.
#[inline]
pub(crate) fn reach_box(a: Point, b: Point, r: f64) -> Aabb {
    let reach = reach(r);
    Aabb {
        min: Point::new(a.x.min(b.x) - reach, a.y.min(b.y) - reach),
        max: Point::new(a.x.max(b.x) + reach, a.y.max(b.y) + reach),
    }
}

/// Positions per block of [`SoaGrid::filter_run`], the length of its
/// stack buffer of hit offsets; offsets fit a `u8`.
const SCAN_BLOCK: usize = 128;

/// Margin, in cells, between a point's distance to its block's boundary
/// and the distances [`SoaGrid::for_each_nearest`] settles: `2⁻²⁰`, which
/// covers the rounding of cell coordinates on grids of up to
/// `MAX_CELLS = 2³⁰` cells (see there).
const SETTLE_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// Smallest cell on which [`SoaGrid::for_each_nearest`] settles points,
/// `2⁻⁴⁷⁰`: above it the margin also covers the disk query's absolute
/// slack of `2⁻⁵⁰⁰`. The CLI's smallest side, `2⁻⁴⁰⁵`, gives cells of at
/// least `2⁻⁴²¹`.
const MIN_SETTLE_CELL: f64 = f64::from_bits((1023 - 470) << 52);

const _: () = assert!(MAX_CELLS <= (1u64 << 30) as f64, "SETTLE_MARGIN covers 2^30 cells");

/// Relative slack of a disk query's cell range.
const QUERY_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Absolute slack of a disk query's cell range, `2⁻⁵⁰⁰`: covers offsets
/// whose squares underflow.
const UNDERFLOW_SLACK: f64 = f64::from_bits((1023 - 500) << 52);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_INDEXED_POINTS;
    use rim_rng::prop::check;
    use rim_rng::{prop_ensure, SmallRng};

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
        let grid = SoaGrid::try_build(&soa, 0.7).unwrap();
        let from_slice = SoaGrid::from_points(&pts, 0.7);
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
        let grid = SoaGrid::try_build(&soa, 0.5).unwrap();
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
        assert_eq!(grid.query_disk(q, 1.0).len(), by_pos.len());
    }

    #[test]
    fn nearest_dist_matches_naive() {
        let pts = lcg_points(300, 6.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::try_build(&soa, 0.4).unwrap();
        for k in 0..grid.len() {
            let c = grid.point_at(k);
            let min_sq = (0..pts.len())
                .filter(|&j| j != grid.item(k))
                .map(|j| pts[j].dist_sq(&c))
                .fold(f64::INFINITY, f64::min);
            let got = grid.nearest_at(k).expect("n >= 2");
            assert_eq!(got.dist.to_bits(), min_sq.sqrt().to_bits(), "position {k}");
            let at_pos = grid.point_at(got.pos).dist_sq(&c);
            assert_eq!(at_pos.to_bits(), min_sq.to_bits(), "position {k}");
            assert!(got.unique, "position {k}: random points have no ties");
        }
    }

    #[test]
    fn nearest_dist_handles_duplicates_and_small_stores() {
        let empty = SoaGrid::from_points(&[], 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.nearest_at(0), None);
        let one = SoaGrid::from_points(&[Point::new(1.0, 1.0)], 1.0);
        assert_eq!(one.nearest_at(0), None);
        // Coincident points: nearest distance is exactly zero, and each
        // of a coincident pair is alone in the other's disk of radius 0.
        let dup = SoaGrid::from_points(&[Point::new(2.0, 2.0), Point::new(2.0, 2.0)], 1.0);
        assert_eq!(dup.nearest_at(0), Some(Nearest { dist: 0.0, pos: 1, unique: true }));
        assert_eq!(dup.nearest_at(1), Some(Nearest { dist: 0.0, pos: 0, unique: true }));
        assert_eq!(dup.nearest_at(2), None);
        // Two points at one distance tie; one nearer point does not.
        let line = [Point::ORIGIN, Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
        let grid = SoaGrid::from_points(&line, 0.5);
        let at = |i: usize| (0..3).find(|&k| grid.item(k) == i).expect("indexed");
        let (mid, right) = (grid.nearest_at(at(0)).unwrap(), grid.nearest_at(at(1)).unwrap());
        assert_eq!((mid.dist, mid.unique), (1.0, false));
        assert_eq!((right.dist, right.pos, right.unique), (1.0, at(0), true));
    }

    #[test]
    fn underflowing_offsets_stay_in_range() {
        // Squares below 2⁻¹⁰⁷⁴ underflow to 0, so every point is at
        // computed distance 0 from (1e-170, 0), though they lie in other
        // cells.
        let pts = [Point::ORIGIN, Point::new(1e-170, 0.0), Point::new(1e-167, 0.0)];
        let grid = SoaGrid::from_points(&pts, 1e-167 / 1040.0);
        let mut got = grid.query_disk(pts[1], 0.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        let k = (0..grid.len()).find(|&k| grid.item(k) == 1).expect("point 1 is indexed");
        let near = grid.nearest_at(k).expect("three points");
        assert_eq!((near.dist, near.unique), (0.0, false));
    }

    #[test]
    fn try_build_reports_capacity() {
        let soa = SoaPoints::from_points(&lcg_points(4, 1.0));
        assert!(SoaGrid::try_build(&soa, 0.5).is_ok());
        assert!(fits_u32_index(MAX_INDEXED_POINTS));
        assert!(!fits_u32_index(MAX_INDEXED_POINTS + 1));
    }

    fn brute_disk(pts: &[Point], c: Point, r: f64) -> Vec<usize> {
        (0..pts.len()).filter(|&i| pts[i].dist(&c) <= r).collect()
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn uniform_grids_do_not_split() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let grid = SoaGrid::from_points(&pts, 1.0);
        assert_eq!(grid.split_cells(), 0);
        assert_eq!(grid.split_depth(), 0);
        let c = Point::new(5.0, 5.0);
        assert_eq!(sorted(grid.query_disk(c, 1.5)), brute_disk(&pts, c, 1.5));
    }

    #[test]
    fn exponential_spreads_split_cells() {
        // Exponential chain over a unit span: the natural cell hint is the
        // smallest gap, 2^-47 of the span; the budget clamp puts most of
        // the chain into one cell, which splits, level after level.
        let pts: Vec<Point> = (0..48)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(48)))
            .collect();
        let grid = SoaGrid::from_points(&pts, pts[1].x - pts[0].x);
        assert!(grid.split_cells() > 0);
        for q in [0usize, 5, 47] {
            for r in [0.0, 2f64.powi(-40), 0.25] {
                let want = brute_disk(&pts, pts[q], r);
                assert_eq!(sorted(grid.query_disk(pts[q], r)), want, "q={q}");
            }
        }
    }

    #[test]
    fn split_range_matches_brute_force() {
        // Half the points packed into a 10⁻⁶ square: its cell splits.
        let mut pts = lcg_points(100, 1.0);
        pts.extend(lcg_points(100, 1e-6).iter().map(|p| Point::new(p.x + 0.3, p.y + 0.3)));
        let grid = SoaGrid::from_points(&pts, 0.1);
        assert!(grid.split_cells() > 0);
        let queries = [(0.5, 0.5, 0.2), (0.0, 1.0, 0.6), (0.9, 0.9, 0.05), (0.3, 0.3, 5e-7)];
        for &(qx, qy, r) in &queries {
            let q = Point::new(qx, qy);
            assert_eq!(sorted(grid.query_disk(q, r)), brute_disk(&pts, q, r), "q={q:?} r={r}");
        }
    }

    #[test]
    fn split_grid_handles_empty_and_duplicates() {
        let empty = SoaGrid::from_points(&[], 1.0);
        assert!(empty.is_empty());
        assert!(empty.query_disk(Point::ORIGIN, 1.0).is_empty());
        // Forty coincident points and one more: the overloaded cell splits
        // once, and the coincident stack stays one leaf.
        let mut pts = vec![Point::ORIGIN; 40];
        pts.push(Point::new(1.0, 0.0));
        let grid = SoaGrid::from_points(&pts, 4.0);
        assert_eq!((grid.split_cells(), grid.split_depth()), (1, 1));
        assert_eq!(sorted(grid.query_disk(Point::ORIGIN, 0.0)), (0..40).collect::<Vec<_>>());
        assert_eq!(grid.query_disk(Point::new(1.0, 0.0), 1.0).len(), 41);
        assert_eq!(grid.nearest_at(0).map(|near| near.dist), Some(0.0));
    }

    #[test]
    fn split_and_flat_grids_share_closed_disk_semantics() {
        // The same two boundary points, alone and inside an overloaded
        // cell: a radius copied from their distance keeps both, one ulp
        // less drops the far one.
        let a = Point::new(0.3, 0.4);
        let b = Point::new(1.1, 2.2);
        let r = a.dist(&b);
        let below = f64::from_bits(r.to_bits() - 1);
        let mut crowded = vec![a, b];
        crowded.extend(lcg_points(60, 1e-3).iter().map(|p| Point::new(p.x + 0.7, p.y + 1.3)));
        for pts in [vec![a, b], crowded] {
            let grid = SoaGrid::from_points(&pts, r * 2.0);
            assert_eq!(grid.split_cells() > 0, pts.len() > 2);
            assert!(sorted(grid.query_disk(a, r)).starts_with(&[0, 1]));
            assert!(!grid.query_disk(a, below).contains(&1));
        }
    }

    #[test]
    fn degenerate_hints_build_a_working_grid() {
        let pts = [Point::ORIGIN, Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        for hint in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let grid = SoaGrid::from_points(&pts, hint);
            assert_eq!(grid.len(), 3);
            assert_eq!(sorted(grid.query_disk(Point::new(1.0, 1.0), 0.0)), vec![1, 2]);
            assert_eq!(grid.query_disk(Point::ORIGIN, 2.0).len(), 3);
        }
    }

    /// Five point families of `n` points: uniform, clustered, an
    /// exponential chain, collinear and coincident stacks.
    fn families(n: usize) -> Vec<(&'static str, Vec<Point>)> {
        let side = (n as f64).sqrt();
        let unit = lcg_points(n, 1.0);
        let uniform = unit.iter().map(|p| Point::new(p.x * side, p.y * side)).collect();
        let centers = lcg_points(40, side);
        let clustered = unit
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let c = centers[i % centers.len()];
                Point::new(c.x + p.x * 0.05, c.y + p.y * 0.05)
            })
            .collect();
        let chain = unit.iter().map(|p| Point::on_line(64.0 * (-24.0 * p.x).exp2())).collect();
        let collinear = unit.iter().map(|p| Point::on_line(p.y * side)).collect();
        let sites = lcg_points(n / 64 + 1, side);
        let stacked = (0..n).map(|i| sites[i % sites.len()]).collect();
        vec![
            ("uniform", uniform),
            ("clustered", clustered),
            ("exp-chain", chain),
            ("collinear", collinear),
            ("duplicates", stacked),
        ]
    }

    /// Everything a query can observe of a grid: shapes, offsets, ids,
    /// coordinate bits and split tables.
    type Layout = (String, Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>, String, Vec<u32>);

    fn layout(g: &SoaGrid) -> Layout {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            format!("{:?}", g.shape),
            g.starts.clone(),
            g.items.clone(),
            bits(&g.sxs),
            bits(&g.sys),
            format!("{:?}", g.subs),
            g.split.clone(),
        )
    }

    #[test]
    fn builds_are_thread_count_invariant_above_the_gate() {
        // Just above the gate, so 2..=8 workers run the parallel cell
        // ids, scatter and gather; the exp-chain and clustered grids
        // then run the split pass over a parallel top level.
        let n = PAR_BUILD_MIN + 1_001;
        for (name, pts) in families(n) {
            let hint = GridShape::unit_density(&Aabb::of_points(&pts), n).cell;
            let one = SoaGrid::from_points_threads(&pts, hint, 1);
            let want = layout(&one);
            assert_eq!(one.len(), n, "{name}");
            if matches!(name, "exp-chain" | "clustered") {
                assert!(one.split_cells() > 0, "{name} must split");
            }
            for threads in 2..=8 {
                let g = SoaGrid::from_points_threads(&pts, hint, threads);
                assert!(layout(&g) == want, "{name}: threads={threads}");
                for k in (0..n).step_by(4_099) {
                    let (c, near) = (g.point_at(k), g.nearest_at(k));
                    assert_eq!(near, one.nearest_at(k), "{name}: k={k}");
                    let d = near.map(|near| near.dist);
                    for r in [0.0, d.unwrap_or(0.0), 4.0 * d.unwrap_or(0.0)] {
                        assert_eq!(g.query_disk(c, r), one.query_disk(c, r), "{name}: k={k} r={r}");
                    }
                }
            }
        }
        // The columnar entry builds the same grid as the slice entry.
        let (_, pts) = families(n).swap_remove(0);
        let soa = SoaPoints::from_points(&pts);
        let hint = GridShape::unit_density(&soa.bbox(), n).cell;
        let by_slice = SoaGrid::from_points_threads(&pts, hint, 1);
        for threads in [1, 3] {
            let (by_soa, _) = SoaGrid::try_build_unit_density(soa.clone(), threads).unwrap();
            assert!(layout(&by_soa) == layout(&by_slice), "threads={threads}");
        }
    }

    /// The scalar disk scan that the branch-free filter replaced, with its
    /// own cell ranges: `col`/`row` of `c ± reach(r)` at every level, cell
    /// by cell, and an `if` per candidate. Pushes the hits' positions and
    /// returns the candidates scanned.
    fn scalar_scan(g: &SoaGrid, lv: Level, c: Point, r: f64, hits: &mut Vec<usize>) -> usize {
        let (s, slack) = (&lv.shape, reach(r));
        let (x0, x1) = (s.col(c.x - slack), s.col(c.x + slack));
        let (y0, y1) = (s.row(c.y - slack), s.row(c.y + slack));
        if x0 > x1 || y0 > y1 {
            return 0;
        }
        let mut candidates = 0;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let cell = lv.first + y * s.nx + x;
                if let Some(sub) = g.split_of(cell) {
                    candidates += scalar_scan(g, sub, c, r, hits);
                    continue;
                }
                for k in g.starts[cell] as usize..g.starts[cell + 1] as usize {
                    candidates += 1;
                    if g.point_at(k).dist(&c) <= r {
                        hits.push(k);
                    }
                }
            }
        }
        candidates
    }

    /// Asserts that `for_each_pos_in_disk` reports the scalar scan's hits,
    /// in its order, and its candidate count, for every query.
    fn assert_scans_agree(name: &str, g: &SoaGrid, queries: &[(Point, f64)]) {
        for &(c, r) in queries {
            let mut want = Vec::new();
            let want_candidates = scalar_scan(g, g.top(), c, r, &mut want);
            let mut got = Vec::new();
            let candidates = g.for_each_pos_in_disk(c, r, |k| got.push(k));
            assert_eq!(got, want, "{name}: c={c:?} r={r}");
            assert_eq!(candidates, want_candidates, "{name}: c={c:?} r={r}");
        }
    }

    #[test]
    fn branch_free_filter_matches_the_scalar_scan() {
        // Flat: 20 × 20 cells of 20 points each, so a row run of the wide
        // query spans 400 positions, more than two filter blocks.
        let lattice: Vec<Point> = (0..8000)
            .map(|i| Point::new((i % 400) as f64 * 0.0025 + 0.001, (i / 400) as f64 * 0.05 + 0.01))
            .collect();
        let flat = SoaGrid::from_points(&lattice, 0.05);
        assert_eq!(flat.split_cells(), 0);
        let (a, b) = (lattice[4321], lattice[777]);
        let on_rim = a.dist(&b);
        let below = f64::from_bits(on_rim.to_bits() - 1);
        let mut queries = vec![(a, 1.0), (a, 0.05), (a, on_rim), (a, below), (b, 0.0)];
        queries.extend(lcg_points(20, 1.2).iter().map(|&p| (p, 0.3)));
        assert_scans_agree("lattice", &flat, &queries);
        let mut boundary = Vec::new();
        flat.for_each_pos_in_disk(a, on_rim, |k| boundary.push(flat.item(k)));
        assert!(boundary.contains(&777), "a point at distance exactly r is a hit");

        // Split: an exponential chain and a crowded cluster.
        let chain: Vec<Point> =
            (0..48).map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(48))).collect();
        let g = SoaGrid::from_points(&chain, chain[1].x - chain[0].x);
        assert!(g.split_cells() > 0);
        let queries: Vec<(Point, f64)> = [0usize, 5, 30, 47]
            .iter()
            .flat_map(|&q| {
                [0.0, 2f64.powi(-40), chain[q].dist(&chain[q / 2]), 0.25].map(|r| (chain[q], r))
            })
            .collect();
        assert_scans_agree("exp-chain", &g, &queries);
        let mut crowded = lcg_points(100, 1.0);
        crowded.extend(lcg_points(200, 1e-6).iter().map(|p| Point::new(p.x + 0.3, p.y + 0.3)));
        let g = SoaGrid::from_points(&crowded, 0.1);
        assert!(g.split_cells() > 0);
        let queries = [(crowded[150], 5e-7), (crowded[3], 0.2), (Point::new(0.3, 0.3), 0.5)];
        assert_scans_agree("crowded", &g, &queries);

        // `r = 0` on a stack of 300 coincident points: one unsplit cell
        // whose run is all hits, over three blocks.
        let mut stack = vec![Point::new(0.5, 0.5); 300];
        stack.extend(lcg_points(50, 1.0));
        let g = SoaGrid::from_points(&stack, 0.25);
        assert_scans_agree("stack", &g, &[(stack[0], 0.0), (stack[0], 0.25), (stack[320], 0.0)]);
        assert_eq!(g.query_disk(stack[0], 0.0).len(), 300);

        // Offsets whose squares underflow: every point is at computed
        // distance 0 from the middle one, across cells.
        let tiny = [Point::ORIGIN, Point::new(1e-170, 0.0), Point::new(1e-167, 0.0)];
        let g = SoaGrid::from_points(&tiny, 1e-167 / 1040.0);
        assert_scans_agree("underflow", &g, &[(tiny[1], 0.0), (tiny[0], 0.0), (tiny[2], 1e-300)]);
        assert_eq!(g.query_disk(tiny[1], 0.0).len(), 3);

        // Coordinates near 2⁵⁰⁹, where squared offsets approach the top
        // of the `f64` range.
        let huge: Vec<Point> = lcg_points(400, 2.0)
            .iter()
            .map(|p| Point::new((p.x - 1.0) * 2f64.powi(509), (p.y - 1.0) * 2f64.powi(509)))
            .collect();
        let g = SoaGrid::from_points(&huge, 2f64.powi(506));
        let far = huge[0].dist(&huge[1]);
        let queries = [(huge[0], far), (huge[7], 2f64.powi(507)), (huge[9], 2f64.powi(510))];
        assert_scans_agree("huge", &g, &queries);
    }

    #[test]
    fn link_runs_hold_both_disks() {
        // The runs of a link's box hold every point within `r` of either
        // endpoint once, on flat and split grids.
        let mut pts = lcg_points(400, 4.0);
        pts.extend(lcg_points(100, 1e-5).iter().map(|p| Point::new(p.x + 1.0, p.y + 2.0)));
        for (n, hint) in [(400, 0.3), (500, 0.05)] {
            let pts = &pts[..n];
            let g = SoaGrid::from_points(pts, hint);
            assert_eq!(g.split_cells() > 0, n > 400);
            for (a, b) in [(0, 1), (17, 250), (3, 3), (399, n - 1), (420, 421)] {
                let (pa, pb) = (pts[a % n], pts[b % n]);
                for r in [0.0, pa.dist(&pb), 0.2] {
                    let covered = |p: Point| p.dist(&pa) <= r || p.dist(&pb) <= r;
                    let (mut scanned, mut hits) = (0, 0);
                    g.for_each_link_run(pa, pb, r, |xs, ys| {
                        scanned += xs.len();
                        for (&x, &y) in xs.iter().zip(ys) {
                            hits += usize::from(covered(Point::new(x, y)));
                        }
                    });
                    let want = pts.iter().filter(|&&p| covered(p)).count();
                    assert_eq!(hits, want, "n={n} link ({a}, {b}) r={r}");
                    assert!(scanned <= n);
                }
            }
        }
    }

    /// Lattice sites `(fl(i·s), fl(j·s))` for `i, j` in `0..m` less the
    /// origin, plus the corner `(m, m)`: `m²` points whose bounding box is
    /// `[0, fl(m·s)]²`, so their unit-density cell is `s` up to rounding.
    fn corner_lattice(m: usize, s: f64) -> Vec<Point> {
        let at = |i: usize| i as f64 * s;
        let mut pts: Vec<Point> =
            (1..m * m).map(|k| Point::new(at(k % m), at(k / m))).collect();
        pts.push(Point::new(at(m), at(m)));
        pts
    }

    /// A [`corner_lattice`] whose spacing, the first from `s` up, equals
    /// its unit-density cell, so every point lies on (or, rounded, just
    /// beside) a cell boundary; with `s` a power of two every coordinate
    /// is exact and inner points tie four ways.
    fn cell_lattice(m: usize, s: f64) -> Vec<Point> {
        let mut s = s;
        loop {
            let pts = corner_lattice(m, s);
            let cell = GridShape::unit_density(&Aabb::of_points(&pts), pts.len()).cell;
            // rim-lint: allow(float-eq) — comparing u64 bit patterns; the lattice needs the exact cell
            if cell.to_bits() == s.to_bits() {
                return pts;
            }
            s = f64::from_bits(s.to_bits() + 1);
        }
    }

    /// Inputs where the sweep's settling rule meets rounding: uniform
    /// squares offset by 2²⁰, 2⁴⁰ and 2⁵⁰ (coordinates there are
    /// multiples of up to ¼, so offsets to cell edges round and distances
    /// tie), lattices on the unit-density cell, points piled on the
    /// top and right edges of the bounding box, stores of 2 and 3 points,
    /// and squares of the CLI's extreme sides `2⁻⁴⁰⁵` and `2⁵¹¹`.
    fn arb_sweep_input(rng: &mut SmallRng) -> Vec<Point> {
        let (n, kind) = (rng.gen_range(2usize..2500), rng.gen_range(0..6u32));
        let mut unit =
            |side: f64| Point::new(rng.gen_range(0.0..1.0) * side, rng.gen_range(0.0..1.0) * side);
        match kind {
            0 => {
                let o = 2f64.powi([20, 40, 50][n % 3]);
                let side = (n as f64).sqrt();
                (0..n).map(|_| unit(side)).map(|p| Point::new(p.x + o, p.y + o)).collect()
            }
            1 => {
                let m = 3 + n % 40;
                // Power-of-two spacings give exact lattices, others rounded ones.
                let s = match n % 2 {
                    0 => 2f64.powi((n % 7) as i32 - 3),
                    _ => 0.3 + n as f64 * 1e-3,
                };
                cell_lattice(m, s)
            }
            2 => {
                let side = (n as f64).sqrt();
                let mut pts: Vec<Point> = (0..n).map(|_| unit(side)).collect();
                pts.push(Point::new(side, side));
                for (i, p) in pts.iter_mut().enumerate().take(n).filter(|(i, _)| i % 5 < 2) {
                    *p = if i % 5 == 0 { Point::new(side, p.y) } else { Point::new(p.x, side) };
                }
                pts
            }
            3 => {
                let pts: Vec<Point> = (0..2 + n % 2).map(|_| unit(4.0)).collect();
                if n % 3 == 0 {
                    vec![pts[0]; pts.len()]
                } else {
                    pts
                }
            }
            _ => {
                let side = if n % 2 == 0 { 2f64.powi(-405) } else { 2f64.powi(511) };
                (0..n).map(|_| unit(side)).collect()
            }
        }
    }

    /// The sweep reports `nearest_at`'s answer, its oracle, at every
    /// position: the radius bits, the position and `unique`, with the
    /// positions cut into windows at random, as the radius pass's workers
    /// cut them.
    #[test]
    fn sweep_matches_nearest_at_where_rounding_bites() {
        check("sweep_matches_nearest_at_where_rounding_bites", 96, arb_sweep_input, |pts| {
            let n = pts.len();
            let (grid, _) = SoaGrid::try_build_unit_density(SoaPoints::from_points(pts), 1)
                .map_err(|e| e.to_string())?;
            prop_ensure!(grid.split_cells() == 0, "the grid split");
            let mut cuts = vec![0, n];
            let mut state = n as u64;
            for _ in 0..n % 5 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                cuts.push((state >> 33) as usize % (n + 1));
            }
            cuts.sort_unstable();
            let mut swept = Vec::with_capacity(n);
            for w in cuts.windows(2) {
                grid.for_each_nearest(w[0]..w[1], |near| swept.push(near));
            }
            prop_ensure!(swept.len() == n, "{} answers for {n} positions", swept.len());
            let key =
                |near: Option<Nearest>| near.map(|near| (near.dist.to_bits(), near.pos, near.unique));
            for (k, &near) in swept.iter().enumerate() {
                let want = grid.nearest_at(k);
                prop_ensure!(
                    key(near) == key(want),
                    "position {k} of {n}: sweep {near:?}, nearest_at {want:?}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn degenerate_hints_fall_back() {
        let pts = lcg_points(50, 3.0);
        let soa = SoaPoints::from_points(&pts);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let grid = SoaGrid::try_build(&soa, bad).unwrap();
            assert_eq!(grid.query_disk(pts[0], 0.0).len(), 1);
        }
    }
}
