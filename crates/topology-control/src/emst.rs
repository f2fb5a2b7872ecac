//! Euclidean minimum spanning tree of the UDG.
//!
//! The canonical energy-motivated topology: a minimum spanning forest of
//! the UDG under Euclidean edge lengths. It contains the Nearest Neighbor
//! Forest (the lightest edge at every vertex is in every MST under our
//! deterministic tie-breaking), so Theorem 4.1 applies to it.

use rim_graph::mst::minimum_spanning_forest;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Builds the Euclidean minimum spanning forest of the UDG: Kruskal on
/// packed keys read off the UDG's lists
/// ([`minimum_spanning_forest`]), the forest of
/// [`rim_graph::mst::kruskal`] over `udg.edges()`.
pub fn euclidean_mst(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    let forest = minimum_spanning_forest(udg);
    Topology::from_graph(nodes.clone(), AdjacencyList::from_edges(nodes.len(), &forest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn spans_each_component() {
        let ns = NodeSet::on_line(&[0.0, 0.4, 0.8, 3.0, 3.5]);
        let udg = unit_disk_graph(&ns);
        let t = euclidean_mst(&ns, &udg);
        assert!(t.preserves_connectivity_of(&udg));
        assert!(t.is_forest());
        assert_eq!(t.num_edges(), 3);
    }

    #[test]
    fn contains_the_nnf() {
        let mut state = 5u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<rim_geom::Point> = (0..60)
            .map(|_| rim_geom::Point::new(rnd() * 2.0, rnd() * 2.0))
            .collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let t = euclidean_mst(&ns, &udg);
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn chain_mst_is_the_chain() {
        let ns = NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]);
        let udg = unit_disk_graph(&ns);
        let t = euclidean_mst(&ns, &udg);
        assert!(t.graph().has_edge(0, 1));
        assert!(t.graph().has_edge(1, 2));
        assert!(t.graph().has_edge(2, 3));
    }
}
