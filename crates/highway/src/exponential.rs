//! The exponential node chain (Figure 6) and the two-chain witness of
//! Theorem 4.1 (Figures 3–5).

use crate::instance::HighwayInstance;
use rim_geom::Point;
use rim_udg::{NodeSet, Topology};

/// The most nodes [`exponential_chain`] builds. The limit is set by
/// distance *squaring*, not representability: the smallest gap is
/// `2^{-(n-1)}`, and `Point::dist` squares it, so past 512 nodes the
/// square drops below the smallest normal f64 and nearby nodes collapse
/// to distance zero.
pub const MAX_CHAIN_NODES: usize = 512;

/// Builds the exponential node chain with `n` nodes, scaled so the whole
/// chain spans less than 1 (the paper's assumption: every node can reach
/// every other, hence `Δ = n − 1`).
///
/// Unscaled, node `i` sits at `2^i − 1`, so the gap between nodes `i` and
/// `i+1` is `2^i`; the scale factor `2^{-(n-1)}` is a power of two, so
/// every coordinate and every gap stays exactly representable.
pub fn exponential_chain(n: usize) -> HighwayInstance {
    assert!(n >= 1, "chain needs at least one node");
    assert!(n <= MAX_CHAIN_NODES, "chain too long for f64 dynamic range");
    let scale = 2f64.powi(-(n as i32 - 1));
    HighwayInstance::new(
        (0..n)
            .map(|i| (2f64.powi(i as i32) - 1.0) * scale)
            .collect(),
    )
}

/// The two-exponential-chains construction of Theorem 4.1 with `k`
/// horizontal nodes (total `n = 3k − 1` nodes: `k` horizontal, `k`
/// diagonal, `k − 1` helpers).
///
/// * `h_i` (`i = 0..k`) sits at `x_i = 2^i − 1` on the axis — gaps grow
///   exponentially, so every `h_{i+1}` has `h_i` as nearest neighbor and
///   the Nearest Neighbor Forest links the whole horizontal chain,
///   covering `h_0` with `Ω(n)` disks (Figure 4).
/// * `v_i` hovers above `h_i` at height `d_i` slightly larger than
///   `h_i`'s gap to its left neighbor (`d_i = 1.05 · 2^{i-1}`, and
///   `d_0 = 0.6`), so it never becomes `h_i`'s nearest neighbor.
/// * `t_i` (`i = 1..k`) sits between `v_{i-1}` and `v_i`, at 10% of the
///   way — close enough to `v_{i-1}` that `|h_i t_i| > |h_i v_i|` (with
///   heights `c = 1.05` this requires `4(1−λ) > c²(3+λ)`, satisfied at
///   `λ = 0.1`), so helpers never become nearest neighbors of the
///   horizontal chain.
///
/// Everything is scaled by `2^{-(k+1)}` so the whole instance fits within
/// unit diameter and the UDG (range 1) is complete.
///
/// Returns the node set together with the index ranges
/// `(horizontal, diagonal, helpers)`.
pub struct TwoChains {
    /// All nodes: first the `k` horizontal, then `k` diagonal, then the
    /// `k − 1` helpers.
    pub nodes: NodeSet,
    /// Number of horizontal chain nodes `k`.
    pub k: usize,
}

impl TwoChains {
    /// Index of horizontal node `h_i`.
    pub fn h(&self, i: usize) -> usize {
        assert!(i < self.k);
        i
    }

    /// Index of diagonal node `v_i`.
    pub fn v(&self, i: usize) -> usize {
        assert!(i < self.k);
        self.k + i
    }

    /// Index of helper node `t_i` (`1 <= i < k`).
    pub fn t(&self, i: usize) -> usize {
        assert!(i >= 1 && i < self.k);
        2 * self.k + (i - 1)
    }

    /// Total number of nodes (`3k − 1`).
    pub fn len(&self) -> usize {
        3 * self.k - 1
    }

    /// Returns `true` if the construction is empty (never, `k >= 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The explicit low-interference witness topology of Figure 5: each
    /// `h_i` hangs off `v_i`, and the diagonal chain is connected through
    /// the helpers (`v_{i-1} — t_i — v_i`). Its interference is a small
    /// constant independent of `k`.
    pub fn witness_topology(&self) -> Topology {
        let mut pairs = Vec::with_capacity(3 * self.k);
        for i in 0..self.k {
            pairs.push((self.h(i), self.v(i)));
        }
        for i in 1..self.k {
            pairs.push((self.v(i - 1), self.t(i)));
            pairs.push((self.t(i), self.v(i)));
        }
        Topology::from_pairs(self.nodes.clone(), &pairs)
    }
}

/// Builds the two-chain construction; see [`TwoChains`].
pub fn two_chains(k: usize) -> TwoChains {
    assert!(k >= 2, "need at least two horizontal nodes");
    assert!(k <= 500, "construction too large for f64 dynamic range");
    let scale = 2f64.powi(-(k as i32 + 1));
    let hx = |i: usize| (2f64.powi(i as i32) - 1.0) * scale;
    let d = |i: usize| {
        if i == 0 {
            0.6 * scale
        } else {
            1.05 * 2f64.powi(i as i32 - 1) * scale
        }
    };
    let mut pts: Vec<Point> = Vec::with_capacity(3 * k - 1);
    for i in 0..k {
        pts.push(Point::new(hx(i), 0.0));
    }
    for i in 0..k {
        pts.push(Point::new(hx(i), d(i)));
    }
    for i in 1..k {
        let a = Point::new(hx(i - 1), d(i - 1));
        let b = Point::new(hx(i), d(i));
        pts.push(a + (b - a) * 0.1);
    }
    TwoChains {
        nodes: NodeSet::new(pts),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_core::receiver::{graph_interference, interference_at};
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn chain_gaps_double_exactly() {
        let c = exponential_chain(10);
        for i in 1..9 {
            assert_eq!(c.gap(i), 2.0 * c.gap(i - 1), "gap {i}");
        }
        assert!(c.span() < 1.0);
        assert_eq!(c.max_degree(), 9, "UDG is complete");
    }

    #[test]
    fn linear_chain_interference_is_n_minus_2() {
        // Figure 7: the leftmost node is covered by every node except the
        // rightmost, so I(G_lin) = n − 2.
        for n in [4usize, 8, 16, 32] {
            let c = exponential_chain(n);
            let t = c.linear_topology();
            assert_eq!(interference_at(&t, 0), n - 2, "n={n}");
            assert_eq!(graph_interference(&t), n - 2, "n={n}");
        }
    }

    #[test]
    fn two_chains_nearest_neighbors_follow_the_figure() {
        let tc = two_chains(8);
        let udg = unit_disk_graph(&tc.nodes);
        // h_{i+1}'s nearest neighbor is h_i, forcing the horizontal chain
        // into the NNF.
        for i in 1..tc.k {
            let nn =
                rim_graph::AdjacencyList::neighbors(&udg, tc.h(i)).min_by(|&a, &b| {
                    tc.nodes
                        .dist_sq(tc.h(i), a)
                        .total_cmp(&tc.nodes.dist_sq(tc.h(i), b))
                });
            assert_eq!(nn, Some(tc.h(i - 1)), "NN of h_{i}");
        }
        // Every diagonal and helper node has its nearest neighbor inside
        // the diagonal/helper cluster — never a horizontal node — so the
        // NNF keeps the two chains separate as in Figure 4.
        let is_upper = |idx: usize| idx >= tc.k;
        for idx in tc.k..tc.len() {
            let nn = rim_graph::AdjacencyList::neighbors(&udg, idx)
                .min_by(|&a, &b| {
                    tc.nodes
                        .dist_sq(idx, a)
                        .total_cmp(&tc.nodes.dist_sq(idx, b))
                })
                .unwrap();
            assert!(is_upper(nn), "NN of upper node {idx} is horizontal node {nn}");
        }
    }

    #[test]
    fn witness_topology_has_constant_interference() {
        for k in [4usize, 8, 16] {
            let tc = two_chains(k);
            let w = tc.witness_topology();
            assert!(w.preserves_connectivity_of(&unit_disk_graph(&tc.nodes)));
            assert!(w.is_forest());
            let i = graph_interference(&w);
            assert!(i <= 8, "witness interference {i} grew with k={k}");
        }
    }

    #[test]
    fn helper_is_farther_from_h_than_v() {
        // The defining condition |h_i t_i| > |h_i v_i| of the construction.
        let tc = two_chains(10);
        for i in 1..tc.k {
            assert!(
                tc.nodes.dist(tc.h(i), tc.t(i)) > tc.nodes.dist(tc.h(i), tc.v(i)),
                "i={i}"
            );
        }
    }

    #[test]
    fn index_helpers_are_disjoint_and_total() {
        let tc = two_chains(5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            assert!(seen.insert(tc.h(i)));
            assert!(seen.insert(tc.v(i)));
        }
        for i in 1..5 {
            assert!(seen.insert(tc.t(i)));
        }
        assert_eq!(seen.len(), tc.len());
        assert_eq!(tc.len(), tc.nodes.len());
    }
}
