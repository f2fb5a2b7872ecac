//! The Nearest Neighbor Forest.
//!
//! Every node creates a (symmetric) link to its nearest UDG neighbor; the
//! union of these links is a forest on each UDG component. The paper's
//! Theorem 4.1 shows that any algorithm whose output *contains* this
//! forest is `Ω(n)` worse than optimal in the worst case.

use rim_graph::edge::pair_key;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Index of the nearest UDG neighbor of `u` (ties towards the smaller
/// index), or `None` if `u` is isolated in the UDG.
pub fn nearest_neighbor(nodes: &NodeSet, udg: &AdjacencyList, u: usize) -> Option<usize> {
    udg.neighbors(u).min_by(|&a, &b| {
        nodes
            .dist_sq(u, a)
            .total_cmp(&nodes.dist_sq(u, b))
            .then(a.cmp(&b))
    })
}

/// Builds the Nearest Neighbor Forest: the union over all nodes of the
/// link to their nearest UDG neighbor (mutual pairs yield one edge).
pub fn nearest_neighbor_forest(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    let keys = (0..nodes.len())
        .filter_map(|u| nearest_neighbor(nodes, udg, u).map(|v| pair_key(u, v)))
        .collect();
    Topology::from_pair_keys(nodes.clone(), keys)
}

/// Returns `true` if `t` contains the Nearest Neighbor Forest of the UDG —
/// the structural property Theorem 4.1 punishes.
pub fn contains_nnf(t: &Topology, udg: &AdjacencyList) -> bool {
    let nodes = t.nodes();
    (0..nodes.len()).all(|u| match nearest_neighbor(nodes, udg, u) {
        Some(v) => t.graph().has_edge(u, v),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn mutual_nearest_neighbors_share_one_edge() {
        let ns = NodeSet::on_line(&[0.0, 0.1, 0.9]);
        let udg = unit_disk_graph(&ns);
        let t = nearest_neighbor_forest(&ns, &udg);
        // 0 and 1 are mutual nearest; 2's nearest is 1.
        assert_eq!(t.num_edges(), 2);
        assert!(t.graph().has_edge(0, 1));
        assert!(t.graph().has_edge(1, 2));
        assert!(t.is_forest());
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn nnf_can_split_a_udg_component() {
        // Two tight pairs, bridgeable by a 0.9 link the NNF never takes.
        let ns = NodeSet::on_line(&[0.0, 0.1, 1.0, 1.1]);
        let udg = unit_disk_graph(&ns);
        assert!(rim_graph::traversal::is_connected(&udg));
        let t = nearest_neighbor_forest(&ns, &udg);
        assert_eq!(t.num_edges(), 2);
        assert!(!t.preserves_connectivity_of(&udg));
    }

    #[test]
    fn isolated_nodes_stay_isolated() {
        let ns = NodeSet::on_line(&[0.0, 5.0]);
        let udg = unit_disk_graph(&ns);
        let t = nearest_neighbor_forest(&ns, &udg);
        assert_eq!(t.num_edges(), 0);
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn ties_break_to_smaller_index() {
        let ns = NodeSet::on_line(&[0.5, 0.0, 1.0]); // node 0 equidistant to 1 and 2
        let udg = unit_disk_graph(&ns);
        assert_eq!(nearest_neighbor(&ns, &udg, 0), Some(1));
    }

    #[test]
    fn contains_nnf_detects_missing_edge() {
        let ns = NodeSet::on_line(&[0.0, 0.2, 0.4]);
        let udg = unit_disk_graph(&ns);
        // Chain topology 0-2? Not a UDG subgraph violation, but drop 1's
        // nearest link: topology {0-2} misses 1's nearest edge {1,0/2}.
        let t = Topology::from_pairs(ns.clone(), &[(0, 2)]);
        assert!(!contains_nnf(&t, &udg));
    }
}
