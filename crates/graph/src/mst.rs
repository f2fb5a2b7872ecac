//! Minimum spanning trees and forests.
//!
//! The Euclidean MST is one of the classic topology-control baselines the
//! paper measures against (it contains the Nearest Neighbor Forest, so
//! Theorem 4.1 applies to it). Kruskal over a deterministic edge order is
//! the reference implementation; Prim is provided for dense graphs.

use crate::adjacency::AdjacencyList;
use crate::edge::Edge;
use crate::union_find::UnionFind;

/// Computes a minimum spanning forest of the given edge set over `n`
/// vertices (Kruskal). Returns the chosen edges sorted by weight.
///
/// Ties are broken by the deterministic [`Edge`] order, so the result is a
/// function of the input set only.
pub fn kruskal(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut sorted: Vec<Edge> = edges.to_vec();
    sorted.sort_unstable();
    let mut uf = UnionFind::new(n);
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    for e in sorted {
        if uf.union(e.u, e.v) {
            out.push(e);
            if out.len() + 1 == n {
                break;
            }
        }
    }
    out
}

/// The minimum spanning forest of `g`: the same edges, in the same
/// order, as [`kruskal`] over `g.edges()`, the retained oracle.
///
/// Kruskal runs on 16-byte keys read straight off the neighbour lists
/// instead of on a copied [`Edge`] list: `(order(weight), u, v)` with
/// `u < v`, packed into a `u128`. `order` maps the weight bits to an
/// unsigned integer whose order is `f64::total_cmp`'s, so the keys sort
/// in the strict [`Edge::cmp_by_weight`] order and the forest is
/// Kruskal's. On the non-negative weights of a distance graph `order`
/// only sets the sign bit.
pub fn minimum_spanning_forest(g: &AdjacencyList) -> Vec<Edge> {
    let n = g.num_vertices();
    let mut keys: Vec<u128> = Vec::with_capacity(g.num_edges());
    for u in 0..n {
        for (v, weight) in g.neighbors_weighted(u).filter(|&(v, _)| v > u) {
            keys.push(u128::from(total_order_bits(weight)) << 64 | (u as u128) << 32 | v as u128);
        }
    }
    keys.sort_unstable();
    let mut uf = UnionFind::new(n);
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    for key in keys {
        let (u, v) = ((key >> 32) as u32 as usize, key as u32 as usize);
        if uf.union(u, v) {
            out.push(Edge { u, v, weight: weight_of_order_bits((key >> 64) as u64) });
            if out.len() + 1 == n {
                break;
            }
        }
    }
    out
}

/// The bits of `w` as an unsigned integer in `f64::total_cmp` order:
/// negative weights have every bit flipped, the others the sign bit.
fn total_order_bits(w: f64) -> u64 {
    let bits = w.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_bits`].
fn weight_of_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Computes a minimum spanning forest of an adjacency-list graph (Prim,
/// run from every unvisited vertex). Returns the chosen edges.
pub fn prim(g: &AdjacencyList) -> Vec<Edge> {
    let n = g.num_vertices();
    let mut in_tree = vec![false; n];
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<Edge>> =
        std::collections::BinaryHeap::new();
    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        in_tree[start] = true;
        for (v, w) in g.neighbors_weighted(start) {
            heap.push(std::cmp::Reverse(Edge::new(start, v, w)));
        }
        while let Some(std::cmp::Reverse(e)) = heap.pop() {
            let next = if !in_tree[e.u] {
                e.u
            } else if !in_tree[e.v] {
                e.v
            } else {
                continue;
            };
            in_tree[next] = true;
            out.push(e);
            for (v, w) in g.neighbors_weighted(next) {
                if !in_tree[v] {
                    heap.push(std::cmp::Reverse(Edge::new(next, v, w)));
                }
            }
        }
    }
    out
}

/// Total weight of an edge set.
pub fn total_weight(edges: &[Edge]) -> f64 {
    edges.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    fn complete_graph(weights: &[(usize, usize, f64)], n: usize) -> (Vec<Edge>, AdjacencyList) {
        let edges: Vec<Edge> = weights.iter().map(|&(u, v, w)| Edge::new(u, v, w)).collect();
        let g = AdjacencyList::from_edges(n, &edges);
        (edges, g)
    }

    #[test]
    fn kruskal_small_known_mst() {
        let (edges, _) = complete_graph(
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 2.5),
                (2, 3, 0.5),
                (1, 3, 3.0),
            ],
            4,
        );
        let mst = kruskal(4, &edges);
        assert_eq!(mst.len(), 3);
        assert_eq!(total_weight(&mst), 3.5);
    }

    #[test]
    fn prim_matches_kruskal_weight() {
        // Pseudo-random dense graph.
        let mut state = 123u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 30;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push(Edge::new(u, v, rnd()));
            }
        }
        let g = AdjacencyList::from_edges(n, &edges);
        let k = kruskal(n, &edges);
        let p = prim(&g);
        assert_eq!(k.len(), n - 1);
        assert_eq!(p.len(), n - 1);
        assert!((total_weight(&k) - total_weight(&p)).abs() < 1e-12);
        let kg = AdjacencyList::from_edges(n, &k);
        assert!(is_connected(&kg));
    }

    #[test]
    fn forest_on_disconnected_input() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)];
        let mst = kruskal(4, &edges);
        assert_eq!(mst.len(), 2);
        let g = AdjacencyList::from_edges(4, &edges);
        assert_eq!(prim(&g).len(), 2);
    }

    #[test]
    fn forest_of_packed_keys_is_kruskals_on_ties_and_signed_weights() {
        // Many equal weights (ties decided by the endpoints), both zeros,
        // negative and subnormal weights: the key order must be the
        // `Edge` order throughout.
        let mut state = 99u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let pool = [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, f64::MIN_POSITIVE / 4.0, 1e300, -1e-300];
        for trial in 0..40 {
            let n = 2 + trial % 17;
            let mut g = AdjacencyList::new(n);
            for _ in 0..3 * n {
                let (a, b) = (rnd() % n, rnd() % n);
                if a != b {
                    g.add_edge(a, b, pool[rnd() % pool.len()]);
                }
            }
            let want = kruskal(n, &g.edges());
            let got = minimum_spanning_forest(&g);
            let bits = |f: &[Edge]| -> Vec<(usize, usize, u64)> {
                f.iter().map(|e| (e.u, e.v, e.weight.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "trial {trial}");
        }
        for w in [0.0, -0.0, 1.5, -1.5, f64::MAX, -f64::MAX, 5e-324] {
            assert_eq!(weight_of_order_bits(total_order_bits(w)).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(kruskal(0, &[]).is_empty());
        assert!(kruskal(5, &[]).is_empty());
        assert!(prim(&AdjacencyList::new(3)).is_empty());
        assert!(minimum_spanning_forest(&AdjacencyList::new(0)).is_empty());
        assert!(minimum_spanning_forest(&AdjacencyList::new(3)).is_empty());
    }
}
