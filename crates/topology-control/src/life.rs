//! LIFE (Low-Interference Forest Establisher) — the interference-aware
//! construction of Burkhart et al. (MobiHoc 2004), reference \[2\] of the
//! paper.
//!
//! It is the noted exception in Section 4: it does **not** necessarily
//! contain the Nearest Neighbor Forest, because it greedily minimizes the
//! *sender-centric* link-coverage measure instead of link length. The
//! paper remarks that such constructions nevertheless "perform badly for
//! our (receiver-centric) model" — a claim the benchmark harness
//! reproduces. LIFE is Kruskal over UDG edges ordered by coverage; the
//! result is a spanning forest whose maximum link coverage is minimal
//! among all spanning forests.

use rim_core::sender::coverage_vector;
use rim_graph::{AdjacencyList, Edge, UnionFind};
use rim_udg::{NodeSet, Topology};

/// UDG edges sorted by sender-centric coverage (then by the deterministic
/// edge order).
fn edges_by_coverage(nodes: &NodeSet, udg: &AdjacencyList) -> Vec<(usize, Edge)> {
    // Coverage is defined on the *node positions* only (disks of radius
    // |uv|), so it can be computed before any topology exists. Wrapping
    // the UDG edge set in a throwaway topology lets the batched,
    // index-accelerated kernel price all edges in one pass — O(n + Σ_e
    // Cov(e)) instead of O(n·m) — and `coverage_vector` follows the
    // `edges()` order, so the zip below lines up.
    let full = Topology::from_graph(nodes.clone(), udg.clone());
    let mut out: Vec<(usize, Edge)> = coverage_vector(&full)
        .into_iter()
        .zip(full.edges())
        .collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    out
}

/// Builds the LIFE forest: spanning forest of the UDG minimizing the
/// maximum sender-centric link coverage (greedy exchange argument — same
/// as Kruskal's optimality for bottleneck spanning trees).
pub fn life(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    let mut uf = UnionFind::new(nodes.len());
    let forest: Vec<Edge> = edges_by_coverage(nodes, udg)
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| uf.union(e.u, e.v))
        .collect();
    Topology::from_graph(nodes.clone(), AdjacencyList::from_edges(nodes.len(), &forest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_core::sender::sender_graph_interference;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    /// The Figure 1 style instance: a dense cluster plus one outlier just
    /// in range of the cluster's rightmost node.
    fn cluster_plus_outlier() -> NodeSet {
        let mut xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.02).collect();
        xs.push(1.1); // outlier, reachable only from the right end
        NodeSet::on_line(&xs)
    }

    #[test]
    fn life_preserves_connectivity() {
        let ns = cluster_plus_outlier();
        let udg = unit_disk_graph(&ns);
        let t = life(&ns, &udg);
        assert!(t.preserves_connectivity_of(&udg));
        assert!(t.is_forest());
    }

    #[test]
    fn life_minimizes_bottleneck_coverage() {
        let ns = cluster_plus_outlier();
        let udg = unit_disk_graph(&ns);
        let t = life(&ns, &udg);
        // Exhaustive bottleneck check on this small instance: no spanning
        // forest can avoid the outlier link (every spanning forest must
        // include some edge to the outlier, all of which have the same
        // coverage), so LIFE's bottleneck equals that unavoidable value.
        let full = Topology::empty(ns.clone());
        let unavoidable = udg
            .neighbors(8)
            .map(|v| rim_core::sender::edge_coverage(&full, 8, v))
            .min()
            .unwrap();
        assert_eq!(sender_graph_interference(&t), unavoidable);
    }

    #[test]
    fn life_need_not_contain_the_nnf() {
        // Section 4 notes LIFE as the exception that may omit
        // nearest-neighbor links. Explicit witness: u's nearest neighbor
        // is v, but the link {u, v} has high coverage because a cluster
        // sits right behind v — while a chain of short, low-coverage hops
        // connects u to the cluster the long way around. Kruskal-by-
        // coverage completes u–v connectivity through the detour before
        // ever considering {u, v}.
        let u = Point::new(0.0, 0.0);
        let v = Point::new(0.5, 0.0); // u's unique nearest neighbor
        let cluster: Vec<Point> = (0..5).map(|i| Point::new(0.76 + 0.03 * i as f64, 0.0)).collect();
        let detour = [
            Point::new(0.0, -0.55),
            Point::new(0.3, -0.62),
            Point::new(0.6, -0.62),
            Point::new(0.85, -0.55),
            Point::new(0.88, -0.3),
        ];
        let mut pts = vec![u, v];
        pts.extend(cluster);
        pts.extend(detour);
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        // Sanity: v really is u's nearest neighbor.
        assert_eq!(crate::nnf::nearest_neighbor(&ns, &udg, 0), Some(1));
        let t = life(&ns, &udg);
        assert!(
            !t.graph().has_edge(0, 1),
            "LIFE took the high-coverage nearest-neighbor link"
        );
        assert!(!crate::nnf::contains_nnf(&t, &udg));
        assert!(t.preserves_connectivity_of(&udg));
    }
}
