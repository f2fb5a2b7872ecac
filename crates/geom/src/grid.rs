//! Bucket-grid layout: how [`crate::SoaGrid`] cuts the plane into cells,
//! fills its buckets and splits the overloaded ones.
//!
//! Interference queries repeatedly ask "which points lie within distance
//! `r` of `p`?". For the point densities of ad-hoc network instances a
//! uniform grid with cell size matched to the typical query radius answers
//! this in output-sensitive time and with far better constants than a tree.
//! This module holds the layout half of that grid — the `u32` capacity
//! limit, the sanitized and budget-clamped cell shape, the cell coordinate
//! function shared by bucketing and queries, the split budget, and the
//! bucket scatter — and the grid's regression suite. The storage, the
//! split cells and the scans live in [`crate::soa_grid`].
//!
//! The bucket scatter is a stable counting sort of the points by cell id.
//! Small cell tables take one direct pass. Large ones sort by coarse cell
//! block first, so every pass works on a cache-resident cursor window,
//! and from [`PAR_BUILD_MIN`] points on that sort runs on
//! [`rim_par`] workers. Its output is the same stable sort for every
//! worker count (see `bucket_scatter`), so a grid is bit-identical
//! whether it was built on one core or many.

use crate::bbox::Aabb;
use crate::point::Point;
use rim_par::{par_fill_columns, par_map_ranges, AllocError};

/// Largest number of points a grid-backed index can hold: bucket items
/// are stored as `u32` ids, so any build beyond this would silently
/// truncate indices. [`crate::SoaGrid::try_build`] refuses larger inputs
/// instead.
pub const MAX_INDEXED_POINTS: usize = u32::MAX as usize;

/// Returns `true` if `n` points fit a `u32`-id bucket index — the
/// capacity predicate behind [`crate::SoaGrid::try_build`]. Exposed so
/// the boundary (`u32::MAX` fits, `u32::MAX + 1` does not) is
/// unit-testable without allocating four billion points.
#[inline]
pub fn fits_u32_index(n: usize) -> bool {
    n <= MAX_INDEXED_POINTS
}

/// Error returned when a grid, or a kernel over one, cannot hold its
/// points: their count would overflow the `u32` item ids, or one of its
/// point-sized buffers cannot be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCapacityError {
    /// Number of points the caller asked to index.
    pub points: usize,
    /// Size in bytes of the allocation that failed; `None` when the
    /// count itself overflows the item ids.
    pub bytes: Option<usize>,
}

impl std::fmt::Display for GridCapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.bytes {
            None => write!(
                f,
                "cannot index {} points: grid item ids are u32 (max {})",
                self.points, MAX_INDEXED_POINTS
            ),
            Some(bytes) => write!(
                f,
                "cannot hold {} points: allocating {bytes} bytes failed",
                self.points
            ),
        }
    }
}

impl std::error::Error for GridCapacityError {}

/// Reserves room for exactly `len` more items in `v` with
/// `try_reserve_exact`, so that running out of memory while holding
/// `points` points is an error naming the bytes asked for, not an abort.
pub(crate) fn try_reserve_points<T>(
    v: &mut Vec<T>,
    points: usize,
    len: usize,
) -> Result<(), GridCapacityError> {
    v.try_reserve_exact(len).map_err(|_| GridCapacityError {
        points,
        bytes: Some(len.saturating_mul(std::mem::size_of::<T>())),
    })
}

/// A vector of `len` copies of `value`, reserved with
/// `try_reserve_exact`, so that running out of memory while holding
/// `points` points is an error naming the bytes asked for: the fallible
/// allocation of every point-sized buffer of a grid build over `points`
/// points, and of the streaming kernels' columns over such a grid.
pub fn try_filled<T: Clone>(
    points: usize,
    len: usize,
    value: T,
) -> Result<Vec<T>, GridCapacityError> {
    let mut v = Vec::new();
    try_reserve_points(&mut v, points, len)?;
    v.resize(len, value);
    Ok(v)
}

/// Points from which a grid build runs its cell ids, bucket scatter and
/// column gather on [`rim_par`] workers: the measured crossover of a
/// uniform unit-density build on two cores, where one build on two
/// workers catches up with one on the calling thread (at 2¹⁶ points it
/// still takes 1.2 times as long, at 2¹⁸ 0.8 times). Below it the
/// working set fits the caches, and seven parallel passes pay more in
/// thread spawns and cross-core cache traffic than they save, so the
/// 20k-node pipeline instances and the churn engine's grids (a few
/// thousand live nodes) build on the calling thread.
pub const PAR_BUILD_MIN: usize = 1 << 17;

/// Most points a cell may hold before the build splits it into a nested
/// grid; uniform instances at a few points per cell stay far below it.
pub(crate) const SPLIT_BUDGET: usize = 32;

/// Deepest nesting of split grids: caps memory and scan recursion on
/// pathological spreads, whose deepest cells then stay overloaded.
pub(crate) const MAX_SPLIT_DEPTH: usize = 16;

/// Cap on the number of grid cells, which keeps cell ids in `u32`.
pub(crate) const MAX_CELLS: f64 = (1u64 << 30) as f64;

/// Origin, cell size and cell counts of a grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridShape {
    pub origin: Point,
    pub cell: f64,
    pub nx: usize,
    pub ny: usize,
}

impl GridShape {
    /// The shape of a grid over `n` points with bounding box `bbox`, from
    /// a cell size *hint*, adjusted in two ways:
    ///
    /// * A non-positive or non-finite hint (zero-spread instances —
    ///   all-coincident points, a single node — produce exactly these when
    ///   callers derive the cell from pairwise distances) is replaced by
    ///   the bounding-box diagonal, or `1.0` when that is also zero. The
    ///   grid then degenerates to a handful of buckets, which is the right
    ///   shape for such inputs anyway.
    /// * If the hint would create more than `8n + 1024` buckets over
    ///   the bounding box (think a nanometer cell over a kilometer span —
    ///   exponential node chains do this), the cell is enlarged to keep
    ///   memory linear in `n`, and never past [`MAX_CELLS`].
    ///
    /// Queries stay correct under both adjustments; only their constant
    /// factor changes.
    pub fn new(bbox: &Aabb, n: usize, hint: f64) -> Self {
        let cell = if hint > 0.0 && hint.is_finite() {
            hint
        } else {
            let diag = if bbox.is_empty() {
                0.0
            } else {
                Point::new(bbox.width(), bbox.height()).norm()
            };
            if diag > 0.0 && diag.is_finite() {
                diag
            } else {
                1.0
            }
        };
        if bbox.is_empty() {
            return GridShape { origin: Point::ORIGIN, cell, nx: 1, ny: 1 };
        }
        // `O(n)` cells keep the bucket table linear in the input.
        let budget = ((8 * n + 1024) as f64).min(MAX_CELLS);
        let cells_for =
            |cell: f64| ((bbox.width() / cell).floor() + 1.0) * ((bbox.height() / cell).floor() + 1.0);
        let mut cell = cell;
        if cells_for(cell) > budget {
            cell *= (cells_for(cell) / budget).sqrt().max(2.0);
            while cells_for(cell) > budget {
                cell *= 2.0;
            }
        }
        GridShape {
            origin: bbox.min,
            cell,
            nx: (bbox.width() / cell).floor() as usize + 1,
            ny: (bbox.height() / cell).floor() as usize + 1,
        }
    }

    /// The shape of a grid over `n` points with bounding box `bbox` and
    /// about one point per cell, so nearest-neighbour searches and
    /// nearest-neighbour disks touch `O(1)` cells on uniform input. A box
    /// without area (collinear points) gets a tiny hint, which the cell
    /// budget of [`GridShape::new`] enlarges.
    pub fn unit_density(bbox: &Aabb, n: usize) -> Self {
        let hint = if bbox.is_empty() {
            1.0
        } else {
            let area = (bbox.width() * bbox.height()).max(f64::MIN_POSITIVE);
            let h = (area / n.max(1) as f64).sqrt();
            if h > 0.0 && h.is_finite() {
                h
            } else {
                1.0
            }
        };
        GridShape::new(bbox, n, hint)
    }

    /// The shape of the nested grid that splits an overloaded cell of `m`
    /// points with bounding box `bbox`: about `m/2` square cells cover
    /// the box, whether the points spread over an area or along a line.
    pub fn nested(bbox: &Aabb, m: usize) -> Self {
        let (w, h, k) = (bbox.width(), bbox.height(), m as f64 / 2.0);
        let hint = (w * h / k).sqrt().max(w.max(h) / k);
        GridShape::new(bbox, m, hint)
    }

    /// Number of cells.
    #[inline]
    pub fn ncells(&self) -> usize {
        self.nx * self.ny
    }

    /// The cell range `(x0, x1, y0, y1)` that a scan of the coordinate
    /// box `b` reads: the clamped cell coordinates of its corners, so it
    /// holds the cell of every point inside `b`. `None` when it is empty
    /// (a disk query of negative radius). A disk query scans the box
    /// `c ± reach` (see [`crate::SoaGrid::for_each_pos_in_disk`]).
    #[inline]
    pub fn span(&self, b: &Aabb) -> Option<(usize, usize, usize, usize)> {
        let (x0, x1) = (self.col(b.min.x), self.col(b.max.x));
        let (y0, y1) = (self.row(b.min.y), self.row(b.max.y));
        (x0 <= x1 && y0 <= y1).then_some((x0, x1, y0, y1))
    }

    /// Column of x-coordinate `x`, clamped to the grid.
    #[inline]
    pub fn col(&self, x: f64) -> usize {
        cell_coord(x, self.origin.x, self.cell, self.nx - 1)
    }

    /// Row of y-coordinate `y`, clamped to the grid.
    #[inline]
    pub fn row(&self, y: f64) -> usize {
        cell_coord(y, self.origin.y, self.cell, self.ny - 1)
    }
}

/// Cell coordinate of `v` on an axis that starts at `o` and has
/// `last + 1` cells of size `cell`: the floor of `(v − o)/cell`, clamped.
/// The build buckets points through this function and every query bounds
/// its cell range through it, so the two agree bit for bit; it is
/// monotone in `v`. `as usize` truncates toward zero and saturates, so it
/// floors every non-negative quotient and maps negative and NaN ones to
/// 0, as `floor` would — without `floor`'s library call on targets that
/// lack a rounding instruction.
#[inline]
fn cell_coord(v: f64, o: f64, cell: f64, last: usize) -> usize {
    (((v - o) / cell) as usize).min(last)
}

/// The sorted buckets of [`bucket_scatter`]: CSR `starts`, the
/// bucket-major permutation and the largest bucket size.
pub(crate) type Buckets = (Vec<u32>, Vec<u32>, usize);

/// Bucket scatter of the grid build: given each point's cell id,
/// produces the CSR `starts` array (length `ncells + 1`), the
/// bucket-major point permutation (`order[k]` = original point id),
/// insertion-stable within every bucket, and the largest bucket size.
/// The output is the stable sort of the points by cell id, the same for
/// every `threads`. Errors when a point-sized buffer or one of the
/// blocked sort's tables cannot be allocated ([`try_filled`]).
///
/// Small tables scatter directly, on one core. Past
/// [`DIRECT_SCATTER_CELLS`] the cursor and destination arrays no longer
/// fit the fast caches and the classic one-pass counting sort degrades
/// to one cache miss per point; the scatter then runs
/// [`par_block_scatter`], a stable counting sort by coarse cell block on
/// up to `threads` workers, whose every pass works on a cursor window
/// small enough to stay cache-resident. The cell ids are consumed: that
/// path writes the permutation over them once it no longer reads them.
pub(crate) fn bucket_scatter(
    cells: Vec<u32>,
    ncells: usize,
    threads: usize,
) -> Result<Buckets, GridCapacityError> {
    if ncells <= DIRECT_SCATTER_CELLS {
        direct_scatter(&cells, ncells)
    } else {
        par_block_scatter(cells, ncells, threads)
    }
}

/// The one-pass counting sort of small cell tables.
// rim-lint: allow(panic-freedom) — cell ids are < ncells by construction; prefix sums cover ncells + 1 slots
fn direct_scatter(cells: &[u32], ncells: usize) -> Result<Buckets, GridCapacityError> {
    let mut counts = vec![0u32; ncells + 1];
    for &c in cells {
        counts[c as usize + 1] += 1;
    }
    let mut largest = 0;
    for i in 1..=ncells {
        largest = largest.max(counts[i]);
        counts[i] += counts[i - 1];
    }
    let starts = counts.clone();
    let mut order = try_filled(cells.len(), cells.len(), 0u32)?;
    let mut cursor = counts;
    for (i, &c) in cells.iter().enumerate() {
        order[cursor[c as usize] as usize] = i as u32;
        cursor[c as usize] += 1;
    }
    Ok((starts, order, largest as usize))
}

/// The stable counting sort of large cell tables, on up to `threads`
/// workers. Cell ids fall into at most [`COARSE_BLOCKS`] coarse blocks
/// (`id >> shift`, each a contiguous id range), and the sort runs in
/// three steps:
///
/// 1. Each worker counts the blocks of its contiguous range of points.
/// 2. The points move into disjoint `(block, worker)` slices, laid out
///    block by block and in worker order within each block
///    ([`partition_by_block`]).
/// 3. Each worker takes a contiguous run of blocks holding about
///    `n / workers` points and, block by block, counts the cells into
///    `starts` and then scatters the block's entries into its cells.
///    Both passes touch only the block's cursor window, and the scatter
///    keeps the block's order within every cell.
///
/// Every block lists its points in index order (see step 2), so every
/// cell does, and the blocks follow each other in id order: the output
/// is the stable sort by cell id, whatever the worker count. One worker
/// runs the same three steps. Step 3 writes the permutation over the
/// cell ids, which steps 1 and 2 have consumed, so the sort allocates no
/// second `u32` column.
// rim-lint: root
// rim-lint: allow(panic-freedom) — block cells are < ncells and block entries < n; group indices are < workers and a group's blocks lie in its windows, which its cursors never leave
fn par_block_scatter(
    cells: Vec<u32>,
    ncells: usize,
    threads: usize,
) -> Result<Buckets, GridCapacityError> {
    let n = cells.len();
    let mut shift = 0u32;
    while (ncells - 1) >> shift >= COARSE_BLOCKS {
        shift += 1;
    }
    let nblocks = ((ncells - 1) >> shift) + 1;
    // Cells `[b << shift, min((b + 1) << shift, ncells))` form block `b`.
    let block_cells = |b: usize| (b << shift).min(ncells)..((b + 1) << shift).min(ncells);
    let (by_block, block_lo, workers) = partition_by_block(&cells, shift, nblocks, threads)?;
    // Step 3: contiguous block groups of about n / workers points.
    let mut groups = try_filled(n, workers + 1, nblocks)?;
    for (g, first) in groups.iter_mut().enumerate().take(workers) {
        *first = block_lo[..nblocks].partition_point(|&lo| lo < g * n / workers);
    }
    let mut group_cells = Vec::new();
    try_reserve_points(&mut group_cells, n, workers)?;
    group_cells
        .extend(groups.windows(2).map(|g| block_cells(g[1]).start - block_cells(g[0]).start));
    let mut starts = try_filled(n, ncells + 1, 0u32)?;
    let largest = par_fill_columns(&mut starts, workers, &group_cells, |g, pieces| {
        let (Some(window), first) = (pieces.first_mut(), block_cells(groups[g]).start) else {
            return 0;
        };
        let mut largest = 0;
        for b in groups[g]..groups[g + 1] {
            let cells = block_cells(b);
            let counts = &mut window[cells.start - first..cells.end - first];
            for &e in &by_block[block_lo[b]..block_lo[b + 1]] {
                counts[(e >> 32) as usize - cells.start] += 1;
            }
            let mut at = block_lo[b] as u32;
            for slot in counts.iter_mut() {
                let count = *slot;
                largest = largest.max(count);
                *slot = at;
                at += count;
            }
        }
        largest
    })
    .map_err(|e| piece_lists_failed(n, e))?
    .into_iter()
    .max()
    .unwrap_or(0);
    starts[ncells] = n as u32;
    let mut group_points = Vec::new();
    try_reserve_points(&mut group_points, n, workers)?;
    group_points.extend(groups.windows(2).map(|g| block_lo[g[1]] - block_lo[g[0]]));
    // Every position receives exactly one point id below.
    let mut order = cells;
    par_fill_columns(&mut order, workers, &group_points, |g, pieces| {
        let (Some(window), first) = (pieces.first_mut(), block_lo[groups[g]]) else {
            return;
        };
        let mut cursor = Vec::new();
        for b in groups[g]..groups[g + 1] {
            let cells = block_cells(b);
            cursor.clear();
            cursor.extend(starts[cells.clone()].iter().map(|&s| s as usize - first));
            for &e in &by_block[block_lo[b]..block_lo[b + 1]] {
                let k = &mut cursor[(e >> 32) as usize - cells.start];
                window[*k] = e as u32;
                *k += 1;
            }
        }
    })
    .map_err(|e| piece_lists_failed(n, e))?;
    Ok((starts, order, largest as usize))
}

/// Steps 1 and 2 of [`par_block_scatter`]: the points, each packed with
/// its cell id as `cell << 32 | id`, stably partitioned by block
/// `cell >> shift` on up to `threads` workers; each block's first
/// position (`nblocks + 1` entries); and the worker count used. Each
/// worker counts, then fills, its own `(block, worker)` slices
/// ([`rim_par::par_fill_columns`]), visiting its contiguous range in
/// index order, so each block lists its points in index order.
// rim-lint: allow(panic-freedom) — cell ids are < ncells, so blocks are < nblocks; worker indices are < workers; a worker's slice of a block holds exactly its points in that block
fn partition_by_block(
    cells: &[u32],
    shift: u32,
    nblocks: usize,
    threads: usize,
) -> Result<(Vec<u64>, Vec<usize>, usize), GridCapacityError> {
    let hists = par_map_ranges(cells.len(), threads, |range| {
        let mut hist = try_filled(cells.len(), nblocks, 0usize)?;
        for &c in &cells[range.clone()] {
            hist[(c >> shift) as usize] += 1;
        }
        Ok((range, hist))
    })
    .into_iter()
    .collect::<Result<Vec<_>, GridCapacityError>>()?;
    let workers = hists.len();
    let mut lens = Vec::new();
    try_reserve_points(&mut lens, cells.len(), nblocks * workers)?;
    let mut block_lo = try_filled(cells.len(), nblocks + 1, 0usize)?;
    for b in 0..nblocks {
        let mut lo = block_lo[b];
        for (_, hist) in &hists {
            lens.push(hist[b]);
            lo += hist[b];
        }
        block_lo[b + 1] = lo;
    }
    let mut by_block = try_filled(cells.len(), cells.len(), 0u64)?;
    par_fill_columns(&mut by_block, workers, &lens, |w, slices| {
        for i in hists[w].0.clone() {
            let c = cells[i];
            // Each block's slice shrinks to its part not yet written.
            let Some(slice) = slices.get_mut((c >> shift) as usize) else { continue };
            if let Some((slot, rest)) = std::mem::take(slice).split_first_mut() {
                *slot = u64::from(c) << 32 | i as u64;
                *slice = rest;
            }
        }
    })
    .map_err(|e| piece_lists_failed(cells.len(), e))?;
    Ok((by_block, block_lo, workers))
}

/// The capacity error of a build over `points` points whose workers'
/// piece lists could not be allocated.
fn piece_lists_failed(points: usize, e: AllocError) -> GridCapacityError {
    GridCapacityError { points, bytes: Some(e.bytes) }
}

/// Cell-table size up to which the one-pass scatter stays cache-friendly.
const DIRECT_SCATTER_CELLS: usize = 1 << 15;
/// Maximum number of coarse blocks in the blocked scatter.
const COARSE_BLOCKS: usize = 1 << 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SoaGrid, SoaPoints};

    fn grid(points: &[Point], cell: f64) -> SoaGrid {
        SoaGrid::from_points(points, cell)
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    fn brute_disk(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].dist(&c) <= r)
            .collect()
    }

    /// Nearest-neighbour distance of point `i` via the grid's search.
    fn nearest_dist(g: &SoaGrid, i: usize) -> Option<f64> {
        (0..g.len()).find(|&k| g.item(k) == i).and_then(|k| g.nearest_at(k)).map(|near| near.dist)
    }

    #[test]
    fn query_matches_brute_force_on_lattice() {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(i as f64 * 0.1, j as f64 * 0.1));
            }
        }
        let g = grid(&pts, 0.25);
        let idx = SoaGrid::from_points(&pts, 0.25);
        for &(cx, cy, r) in &[(0.5, 0.5, 0.3), (0.0, 0.0, 0.15), (0.95, 0.1, 0.5)] {
            let c = Point::new(cx, cy);
            assert_eq!(sorted(g.query_disk(c, r)), brute_disk(&pts, c, r));
            assert_eq!(sorted(idx.query_disk(c, r)), brute_disk(&pts, c, r));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let g = grid(&[], 1.0);
        assert!(g.is_empty());
        assert_eq!(g.query_disk(Point::ORIGIN, 10.0), Vec::<usize>::new());
        assert_eq!(g.nearest_at(0), None);
        assert!(SoaGrid::from_points(&[], 1.0).query_disk(Point::ORIGIN, 10.0).is_empty());

        let g = grid(&[Point::new(3.0, 4.0)], 1.0);
        assert_eq!(g.query_disk(Point::ORIGIN, 5.0), vec![0]);
        assert_eq!(g.query_disk(Point::ORIGIN, 4.9), Vec::<usize>::new());
        assert_eq!(g.nearest_at(0), None);
    }

    #[test]
    fn nearest_matches_brute_force() {
        // Deterministic pseudo-random points via a simple LCG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..200).map(|_| Point::new(rnd(), rnd())).collect();
        let g = grid(&pts, 0.05);
        for q in 0..pts.len() {
            let want = (0..pts.len())
                .filter(|&i| i != q)
                .map(|i| pts[i].dist_sq(&pts[q]))
                .fold(f64::INFINITY, f64::min)
                .sqrt();
            assert_eq!(nearest_dist(&g, q), Some(want), "q={q}");
        }
    }

    #[test]
    fn boundary_points_are_included() {
        // A point exactly at distance r must be reported (closed disk).
        let pts = [Point::ORIGIN, Point::new(1.0, 0.0)];
        assert_eq!(grid(&pts, 0.3).query_disk(Point::ORIGIN, 1.0), vec![0, 1]);
        assert_eq!(SoaGrid::from_points(&pts, 0.3).query_disk(Point::ORIGIN, 1.0), vec![0, 1]);
    }

    #[test]
    fn pathological_cell_sizes_stay_bounded() {
        // A nanometer cell over a unit span must not allocate a huge
        // bucket table (regression: exponential-chain radii as cells).
        let pts: Vec<Point> = (0..32)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(32)))
            .collect();
        let g = grid(&pts, 2f64.powi(-32));
        let c = Point::on_line(0.0);
        assert_eq!(sorted(g.query_disk(c, 0.5)), brute_disk(&pts, c, 0.5));
        assert_eq!(nearest_dist(&g, 5), Some(pts[5].dist(&pts[4])));
    }

    #[test]
    fn degenerate_cell_sizes_are_sanitized() {
        // Cell hints of 0, negative, NaN and infinity arise naturally when
        // callers derive the cell from pairwise distances on degenerate
        // inputs (all-coincident points, a single node). All must build a
        // working grid rather than panic.
        let pts = [Point::new(1.0, 2.0), Point::new(4.0, 6.0)];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = grid(&pts, bad);
            assert_eq!(sorted(g.query_disk(Point::new(1.0, 2.0), 5.0)), vec![0, 1], "cell={bad}");
            assert_eq!(nearest_dist(&g, 1), Some(5.0), "cell={bad}");
            let idx = SoaGrid::from_points(&pts, bad);
            assert_eq!(sorted(idx.query_disk(Point::new(4.0, 6.0), 5.0)), vec![0, 1], "cell={bad}");
        }
    }

    #[test]
    fn all_coincident_points() {
        // Zero spread: the bounding box is a single point, so any cell hint
        // (including a degenerate one) must collapse to one bucket.
        let pts = vec![Point::new(2.5, -1.5); 9];
        for cell in [0.0, 1.0, f64::NAN] {
            let g = grid(&pts, cell);
            assert_eq!(g.len(), 9);
            assert_eq!(g.nonempty_bucket_sizes().collect::<Vec<_>>(), vec![9]);
            assert_eq!(
                g.query_disk(Point::new(2.5, -1.5), 0.0),
                (0..9).collect::<Vec<_>>(),
                "cell={cell}"
            );
            assert_eq!(g.query_disk(Point::new(2.5, -1.5), 0.0).len(), 9);
            assert!(g.query_disk(Point::ORIGIN, 1.0).is_empty());
            assert_eq!(g.nearest_at(4).map(|near| near.dist), Some(0.0));
            // Nine coincident points stay below the split budget; the
            // split tests cover overloaded coincident cells.
            assert_eq!(g.split_cells(), 0);
        }
    }

    #[test]
    fn single_node() {
        let pts = [Point::new(7.0, 7.0)];
        for cell in [0.0, 0.5, f64::INFINITY] {
            let g = grid(&pts, cell);
            assert_eq!(g.query_disk(Point::new(7.0, 7.0), 0.0), vec![0]);
            assert_eq!(g.nearest_at(0), None);
            let idx = SoaGrid::from_points(&pts, cell);
            assert_eq!(idx.query_disk(Point::new(7.0, 7.0), 0.0), vec![0]);
        }
    }

    #[test]
    fn boundary_point_survives_downward_rounding_of_cell_range() {
        // Regression: with c.x = 0.2 and r = dist(0.2, 0.9) the sum
        // `c.x + r` rounds *below* 0.9, so a cell range bounded by the
        // unslacked `c.x + r` can miss the bucket holding the boundary
        // point even though the closed-disk predicate includes it.
        let pts = [
            Point::on_line(0.0),
            Point::on_line(0.2),
            Point::on_line(0.5),
            Point::on_line(0.9),
        ];
        let r = pts[1].dist(&pts[3]);
        for cell in [0.45, 0.7, 0.9] {
            let got = sorted(grid(&pts, cell).query_disk(pts[1], r));
            assert_eq!(got, vec![0, 1, 2, 3], "cell={cell}");
            let idx = SoaGrid::from_points(&pts, cell);
            assert_eq!(sorted(idx.query_disk(pts[1], r)), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn closed_disk_boundary_semantics() {
        // Disk queries must use the *closed* distance-level predicate
        // `dist(p, c) <= r`: a radius copied from a `Point::dist` result
        // keeps the boundary point inside, bit for bit. This is the exact
        // comparison `interference_at` uses, so the two must agree.
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.7, 0.9);
        let r = a.dist(&b); // irrational; only bit-identical compare passes
        let pts = [a, b];
        // The open side: anything strictly below the distance excludes b.
        let below = f64::from_bits(r.to_bits() - 1);
        for cell in [r / 3.0, r, 0.6, 0.7] {
            let g = grid(&pts, cell);
            assert_eq!(sorted(g.query_disk(a, r)), vec![0, 1], "cell={cell}");
            assert_eq!(sorted(g.query_disk(b, r)), vec![0, 1], "cell={cell}");
            assert_eq!(g.query_disk(a, below), vec![0], "cell={cell}");
        }
    }

    #[test]
    fn collinear_highway_points() {
        let pts: Vec<Point> = (0..50).map(|i| Point::on_line(i as f64 * 0.02)).collect();
        let g = grid(&pts, 0.1);
        let idx = SoaGrid::from_points(&pts, 0.1);
        for (c, r) in [(0.5, 0.1), (0.0, 0.02), (0.98, 0.3)] {
            let c = Point::on_line(c);
            assert_eq!(sorted(g.query_disk(c, r)), brute_disk(&pts, c, r));
            assert_eq!(sorted(idx.query_disk(c, r)), brute_disk(&pts, c, r));
        }
    }

    #[test]
    fn u32_capacity_boundary_is_pinned() {
        // The boundary itself cannot be allocated in a test, so the
        // predicate behind `try_build` pins it: exactly u32::MAX points
        // fit, one more does not (an unchecked build would truncate ids
        // silently).
        assert!(fits_u32_index(0));
        assert!(fits_u32_index(MAX_INDEXED_POINTS));
        assert!(!fits_u32_index(MAX_INDEXED_POINTS + 1));
        let err = GridCapacityError { points: MAX_INDEXED_POINTS + 1, bytes: None };
        assert!(err.to_string().contains("4294967295"), "{err}");
        // A failed allocation names the count and the bytes asked for.
        let huge = try_filled::<u64>(7, 1 << 60, 0).unwrap_err();
        assert_eq!(huge, GridCapacityError { points: 7, bytes: Some(1 << 63) });
        assert!(huge.to_string().contains("7 points"), "{huge}");
        assert!(huge.to_string().contains(&format!("{} bytes", 1usize << 63)), "{huge}");
        // In-capacity builds succeed through the fallible path.
        let g = SoaGrid::try_build(&SoaPoints::from_points(&[Point::ORIGIN]), 1.0).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(SoaGrid::from_points(&[Point::ORIGIN], 1.0).len(), 1);
    }

    /// The stable sort by cell id that every scatter must produce: its
    /// CSR offsets, its permutation and its largest bucket.
    fn stable_sort(cells: &[u32], ncells: usize) -> (Vec<u32>, Vec<u32>, usize) {
        let mut order: Vec<u32> = (0..cells.len() as u32).collect();
        order.sort_by_key(|&i| cells[i as usize]); // stable
        let mut counts = vec![0u32; ncells];
        for &c in cells {
            counts[c as usize] += 1;
        }
        let starts = std::iter::once(0)
            .chain(counts.iter().scan(0, |acc, &c| {
                *acc += c;
                Some(*acc)
            }))
            .collect();
        (starts, order, counts.into_iter().max().unwrap_or(0) as usize)
    }

    #[test]
    fn blocked_scatter_matches_direct_scatter() {
        // Synthetic cell ids over tables large enough to force the
        // blocked path; on every worker count the result must equal a
        // reference stable sort (which is also what the direct path
        // computes).
        let ncells = DIRECT_SCATTER_CELLS * 4; // block width 32
        let mut state = 1u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % m) as u32
        };
        let random: Vec<u32> = (0..10_000).map(|_| next(ncells)).collect();
        // Every point in one coarse block, most cells shared by points of
        // several workers.
        let one_block: Vec<u32> = (0..10_000).map(|_| 32 * 7 + next(32)).collect();
        // A single non-empty bucket.
        let one_cell = vec![ncells as u32 - 1; 3_000];
        // A last block narrower than the others, and its last cell used.
        let ragged = ncells + 13;
        let mut tail: Vec<u32> = (0..10_000).map(|_| next(ragged)).collect();
        tail.extend([ragged as u32 - 1, ragged as u32 - 20, 0]);
        // Fewer points than workers.
        let few = vec![5u32, ncells as u32 - 1, 5];
        let cases = [
            ("random", random, ncells),
            ("one block", one_block, ncells),
            ("one cell", one_cell, ncells),
            ("ragged last block", tail, ragged),
            ("fewer points than workers", few, ncells),
            ("no points", Vec::new(), ncells),
        ];
        for (name, cells, ncells) in cases {
            let want = stable_sort(&cells, ncells);
            assert_eq!(direct_scatter(&cells, ncells), Ok(want.clone()), "{name}: direct");
            for threads in 1..=8 {
                let got = bucket_scatter(cells.clone(), ncells, threads);
                assert_eq!(got, Ok(want.clone()), "{name}: threads={threads}");
            }
        }
    }

    #[test]
    fn candidate_count_bounds_the_hits() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1))
            .collect();
        let g = grid(&pts, 0.2);
        let mut hits = 0usize;
        let candidates = g.for_each_in_disk_counting(Point::new(0.5, 0.5), 0.25, |_| hits += 1);
        assert!(hits > 0);
        assert!(candidates >= hits, "candidates={candidates} hits={hits}");
        // The tight cell range scans about a 3×3 block of 0.2-cells, not
        // a ±1-cell margin, which would cover all 5×5 cells here.
        assert!(candidates < pts.len() / 2, "candidates={candidates}");
        // Bucket occupancies partition the point set.
        assert_eq!(g.nonempty_bucket_sizes().sum::<usize>(), pts.len());
        assert!(g.nonempty_bucket_sizes().all(|occ| occ > 0));
    }
}
