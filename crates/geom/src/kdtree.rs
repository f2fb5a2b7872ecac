//! A static 2-d tree for nearest-neighbor and range queries.
//!
//! The [`crate::SoaGrid`] is faster for uniformly dense instances, but
//! degenerate constructions such as the exponential node chain have point
//! densities varying over many orders of magnitude; a kd-tree answers
//! nearest-neighbor and disk queries on those without tuning a cell size,
//! which is why [`crate::SpatialIndex`] falls back to it there.

use crate::point::Point;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index into the original point slice.
    idx: u32,
    /// Split axis at this node: 0 = x, 1 = y.
    axis: u8,
}

/// A static kd-tree over a fixed set of points (indices preserved).
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Implicit balanced tree in heap layout; `nodes[0]` is the root.
    nodes: Vec<Node>,
    points: Vec<Point>,
}

impl KdTree {
    /// Builds a balanced kd-tree over `points`.
    pub fn build(points: &[Point]) -> Self {
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        let mut nodes = vec![
            Node {
                idx: u32::MAX,
                axis: 0
            };
            points.len()
        ];
        if !points.is_empty() {
            Self::build_rec(points, &mut order, 0, &mut nodes, 0);
        }
        KdTree {
            nodes,
            points: points.to_vec(),
        }
    }

    // rim-lint: allow(panic-freedom) — `order` holds indices into `points`; heap slots are pre-sized
    fn build_rec(points: &[Point], order: &mut [u32], axis: u8, nodes: &mut [Node], at: usize) {
        if order.is_empty() {
            return;
        }
        // Left-complete sizing keeps the implicit heap layout dense.
        let n = order.len();
        let mid = left_subtree_size(n);
        let key = |i: u32| -> f64 {
            let p = points[i as usize];
            if axis == 0 {
                p.x
            } else {
                p.y
            }
        };
        order.select_nth_unstable_by(mid, |&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
        nodes[at] = Node {
            idx: order[mid],
            axis,
        };
        let (left, rest) = order.split_at_mut(mid);
        let right = &mut rest[1..];
        Self::build_rec(points, left, 1 - axis, nodes, 2 * at + 1);
        Self::build_rec(points, right, 1 - axis, nodes, 2 * at + 2);
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the tree indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Index of the nearest indexed point to `q`, skipping `exclude`
    /// (pass `usize::MAX` to exclude nothing). Ties break towards the
    /// smaller index. Returns `None` if no eligible point exists.
    pub fn nearest(&self, q: Point, exclude: usize) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        self.nearest_rec(0, q, exclude, &mut best);
        best.map(|(_, i)| i)
    }

    fn nearest_rec(&self, at: usize, q: Point, exclude: usize, best: &mut Option<(f64, usize)>) {
        if at >= self.nodes.len() || self.nodes[at].idx == u32::MAX {
            return;
        }
        let node = self.nodes[at];
        let p = self.points[node.idx as usize];
        let d = p.dist_sq(&q);
        let i = node.idx as usize;
        if i != exclude {
            match *best {
                Some((bd, bi)) if (d, i) >= (bd, bi) => {}
                _ => *best = Some((d, i)),
            }
        }
        let delta = if node.axis == 0 { q.x - p.x } else { q.y - p.y };
        let (near, far) = if delta <= 0.0 {
            (2 * at + 1, 2 * at + 2)
        } else {
            (2 * at + 2, 2 * at + 1)
        };
        self.nearest_rec(near, q, exclude, best);
        // Visit the far side only if the splitting plane is closer than the
        // current best (<= keeps boundary ties deterministic).
        if best.is_none_or(|(bd, _)| delta * delta <= bd) {
            self.nearest_rec(far, q, exclude, best);
        }
    }

    /// Calls `f(i)` for every point index `i` with `|points[i] - q| <= r`
    /// (distance-level predicate — see the crate's exactness policy).
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, q: Point, r: f64, mut f: F) {
        if self.points.is_empty() {
            return;
        }
        self.range_rec(0, q, r, &mut f);
    }

    // rim-lint: allow(panic-freedom) — `at` is bounds-checked before every node access
    fn range_rec<F: FnMut(usize)>(&self, at: usize, q: Point, r: f64, f: &mut F) {
        if at >= self.nodes.len() || self.nodes[at].idx == u32::MAX {
            return;
        }
        let node = self.nodes[at];
        let p = self.points[node.idx as usize];
        if p.dist(&q) <= r {
            f(node.idx as usize);
        }
        let delta = if node.axis == 0 { q.x - p.x } else { q.y - p.y };
        if delta <= r {
            self.range_rec(2 * at + 1, q, r, f);
        }
        if -delta <= r {
            self.range_rec(2 * at + 2, q, r, f);
        }
    }

    /// Collects the indices of all points within distance `r` of `q`,
    /// sorted ascending.
    pub fn query_disk(&self, q: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(q, r, |i| out.push(i));
        out.sort_unstable();
        out
    }
}

/// Size of the left subtree of a left-complete binary tree with `n` nodes.
fn left_subtree_size(n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    // Height of a complete tree with n nodes.
    let h = usize::BITS - n.leading_zeros() - 1;
    let full_below = (1usize << h) - 1; // nodes in a full tree of height h-1
    let last_row = n - full_below; // nodes in the bottom row
    let half_below = full_below / 2;
    half_below + last_row.min(full_below.div_ceil(2)).min(1 << (h.saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(rnd(), rnd())).collect()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = pseudo_points(257, 42);
        let tree = KdTree::build(&pts);
        for q in 0..pts.len() {
            let got = tree.nearest(pts[q], q).unwrap();
            let want_d = (0..pts.len())
                .filter(|&i| i != q)
                .map(|i| pts[i].dist_sq(&pts[q]))
                .min_by(f64::total_cmp)
                .unwrap();
            assert_eq!(pts[got].dist_sq(&pts[q]), want_d, "q={q}");
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = pseudo_points(100, 7);
        let tree = KdTree::build(&pts);
        for &(qx, qy, r) in &[(0.5, 0.5, 0.2), (0.0, 1.0, 0.6), (0.9, 0.9, 0.05)] {
            let q = Point::new(qx, qy);
            let got = tree.query_disk(q, r);
            let want: Vec<usize> = (0..pts.len())
                .filter(|&i| pts[i].dist(&q) <= r)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn exponential_chain_densities() {
        // Nearest-neighbor must be correct when spacing varies by 2^30.
        let pts: Vec<Point> = (0..31)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(31)))
            .collect();
        let tree = KdTree::build(&pts);
        for q in 1..pts.len() - 1 {
            // In an exponential chain the nearest neighbor of v_i is v_{i-1}.
            assert_eq!(tree.nearest(pts[q], q), Some(q - 1), "q={q}");
        }
        assert_eq!(tree.nearest(pts[0], 0), Some(1));
    }

    #[test]
    fn empty_and_duplicates() {
        let tree = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.nearest(Point::ORIGIN, usize::MAX), None);

        let pts = [Point::ORIGIN, Point::ORIGIN, Point::new(1.0, 0.0)];
        let tree = KdTree::build(&pts);
        // Duplicate points: nearest neighbor of point 0 (excluding itself)
        // is its duplicate at distance 0.
        let n = tree.nearest(pts[0], 0).unwrap();
        assert_eq!(pts[n].dist_sq(&pts[0]), 0.0);
        assert_eq!(tree.query_disk(Point::ORIGIN, 0.0), vec![0, 1]);
    }

    #[test]
    fn left_subtree_sizes_are_consistent() {
        // The split index must always be a valid median position.
        for n in 1..200 {
            let m = left_subtree_size(n);
            assert!(m < n, "n={n} m={m}");
        }
        assert_eq!(left_subtree_size(1), 0);
        assert_eq!(left_subtree_size(2), 1);
        assert_eq!(left_subtree_size(3), 1);
    }
}
