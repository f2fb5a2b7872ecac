//! KNeigh — k-nearest-neighbors topology control (Blough, Leoncini,
//! Resta, Santi; MobiHoc 2003 lineage).
//!
//! Every node lists its `k` nearest UDG neighbors; the symmetric output
//! keeps an edge iff **both** endpoints listed each other (the protocol's
//! "symmetric sub-graph" step). KNeigh preserves connectivity only with
//! high probability on random instances — not always — which is why it is
//! evaluated separately from the always-connected constructions. It
//! contains the NNF for `k >= 1` *in the union sense* but, due to the
//! intersection step, a node's nearest-neighbor edge survives only if it
//! is reciprocated in the other endpoint's top-`k`; with the customary
//! `k = 9` that is essentially always the case on uniform fields.

use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// The `k` nearest UDG neighbors of `u` (ties towards smaller indices).
pub fn k_nearest(nodes: &NodeSet, udg: &AdjacencyList, u: usize, k: usize) -> Vec<usize> {
    let mut ns: Vec<usize> = udg.neighbors(u).collect();
    ns.sort_unstable_by(|&a, &b| {
        nodes
            .dist_sq(u, a)
            .total_cmp(&nodes.dist_sq(u, b))
            .then(a.cmp(&b))
    });
    ns.truncate(k);
    ns
}

/// Builds the symmetric KNeigh topology (intersection of top-`k` lists).
pub fn kneigh(nodes: &NodeSet, udg: &AdjacencyList, k: usize) -> Topology {
    assert!(k >= 1);
    let n = nodes.len();
    let lists: Vec<Vec<usize>> = (0..n).map(|u| k_nearest(nodes, udg, u, k)).collect();
    let edges = udg.edges();
    let mutual = edges
        .iter()
        .filter(|e| lists[e.u].contains(&e.v) && lists[e.v].contains(&e.u));
    Topology::from_graph(nodes.clone(), AdjacencyList::from_edges(n, mutual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    fn random_field(n: usize, side: f64, seed: u64) -> NodeSet {
        let mut state = seed;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        NodeSet::new((0..n).map(|_| Point::new(rnd() * side, rnd() * side)).collect())
    }

    #[test]
    fn degree_is_bounded_by_k() {
        let ns = random_field(100, 1.5, 2);
        let udg = unit_disk_graph(&ns);
        for k in [1usize, 3, 9] {
            let t = kneigh(&ns, &udg, k);
            assert!(t.graph().max_degree() <= k, "k={k}");
        }
    }

    #[test]
    fn k9_usually_preserves_connectivity_on_uniform_fields() {
        let mut preserved = 0;
        for seed in 1..6u64 {
            let ns = random_field(90, 2.0, seed);
            let udg = unit_disk_graph(&ns);
            let t = kneigh(&ns, &udg, 9);
            if t.preserves_connectivity_of(&udg) {
                preserved += 1;
            }
        }
        assert!(preserved >= 4, "only {preserved}/5 preserved connectivity");
    }

    #[test]
    fn k1_is_mutual_nearest_neighbor_matching() {
        // With k = 1 only mutually-nearest pairs survive.
        let ns = NodeSet::on_line(&[0.0, 0.1, 0.5, 0.9, 1.0]);
        let udg = unit_disk_graph(&ns);
        let t = kneigh(&ns, &udg, 1);
        // (0,1) mutual nearest; (3,4) mutual nearest; node 2 unpaired.
        assert!(t.graph().has_edge(0, 1));
        assert!(t.graph().has_edge(3, 4));
        assert_eq!(t.graph().degree(2), 0);
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn can_break_connectivity_on_adversarial_instances() {
        // Two k-cliques joined by one long link: with k = 2 the bridge is
        // not in either endpoint's top-2.
        let ns = NodeSet::on_line(&[0.0, 0.01, 0.02, 0.99, 1.0, 1.01]);
        let udg = unit_disk_graph(&ns);
        assert!(rim_graph::traversal::is_connected(&udg));
        let t = kneigh(&ns, &udg, 2);
        assert!(!t.preserves_connectivity_of(&udg));
    }

    #[test]
    fn large_k_reduces_to_udg() {
        let ns = random_field(20, 1.0, 7);
        let udg = unit_disk_graph(&ns);
        let t = kneigh(&ns, &udg, 50);
        assert_eq!(t.num_edges(), udg.num_edges());
    }
}
