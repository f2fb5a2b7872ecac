//! Resulting topologies: symmetric edge sets plus the radii they induce.

use crate::node_set::NodeSet;
use rim_graph::edge::key_pair;
use rim_graph::traversal::preserves_connectivity;
use rim_graph::{AdjacencyList, Edge};

/// A *resulting topology* in the sense of the paper: a set of symmetric
/// (undirected) communication links over a [`NodeSet`], together with the
/// transmission radii those links force upon the nodes.
///
/// The radius of node `u` is `r_u = max_{v ∈ N_u} |uv|` — a node must
/// reach its farthest neighbor — and `r_u = 0` for isolated nodes. All
/// interference analysis in `rim-core` is a function of this type.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: NodeSet,
    graph: AdjacencyList,
    radii: Vec<f64>,
}

impl Topology {
    /// Builds a topology from node-index pairs; edge weights are the
    /// Euclidean distances between the endpoints.
    ///
    /// Panics on duplicate pairs or out-of-range indices.
    ///
    /// ```
    /// use rim_udg::{NodeSet, Topology};
    ///
    /// let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.25, 0.75]), &[(0, 1), (1, 2)]);
    /// // The middle node must reach its farthest neighbor:
    /// assert_eq!(t.radius(1), 0.5);
    /// assert!(t.is_forest());
    /// ```
    pub fn from_pairs(nodes: NodeSet, pairs: &[(usize, usize)]) -> Self {
        let edges = pairs.iter().map(|&(u, v)| Edge::new(u, v, nodes.dist(u, v)));
        let graph = AdjacencyList::from_edges(nodes.len(), edges);
        Self::from_graph(nodes, graph)
    }

    /// Builds a topology from pairs packed by [`rim_graph::edge::pair_key`],
    /// in any order and with repeats: the keys are sorted and deduplicated,
    /// and each distinct pair becomes one link weighted by the distance
    /// between its endpoints.
    ///
    /// Panics on a self-loop or an out-of-range index.
    pub fn from_pair_keys(nodes: NodeSet, mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let graph = AdjacencyList::from_edges(nodes.len(), key_edges(&nodes, &keys));
        Self::from_graph(nodes, graph)
    }

    /// Builds a topology from an existing adjacency structure whose edge
    /// weights must equal the Euclidean distances.
    pub fn from_graph(nodes: NodeSet, graph: AdjacencyList) -> Self {
        assert_eq!(nodes.len(), graph.num_vertices());
        debug_assert!(graph.edges().iter().all(|e| {
            // rim-lint: allow(float-eq) — exact invariant: weights are dist() outputs, bit-identical
            e.weight == nodes.dist(e.u, e.v)
        }), "edge weight differs from Euclidean distance");
        let radii = (0..nodes.len())
            .map(|u| graph.max_incident_weight(u).unwrap_or(0.0))
            .collect();
        Topology { nodes, graph, radii }
    }

    /// The empty topology (no links; all radii zero).
    pub fn empty(nodes: NodeSet) -> Self {
        let n = nodes.len();
        Topology {
            nodes,
            graph: AdjacencyList::new(n),
            radii: vec![0.0; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The node positions.
    #[inline]
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// The link structure.
    #[inline]
    pub fn graph(&self) -> &AdjacencyList {
        &self.graph
    }

    /// Transmission radius of node `u` (distance to its farthest
    /// neighbor; 0 if isolated).
    #[inline]
    // rim-lint: allow(panic-freedom) — node ids are caller-validated; radii cover every node
    pub fn radius(&self, u: usize) -> f64 {
        self.radii[u]
    }

    /// All transmission radii.
    #[inline]
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// All links as normalized, distance-weighted edges.
    pub fn edges(&self) -> Vec<Edge> {
        self.graph.edges()
    }

    /// Returns `true` if every link is no longer than `max_range` — i.e.
    /// the topology is a subgraph of the UDG with that range.
    pub fn respects_range(&self, max_range: f64) -> bool {
        self.radii.iter().all(|&r| r <= max_range)
    }

    /// Returns `true` if this topology connects exactly the pairs the
    /// given reference graph (typically the UDG) connects — the paper's
    /// connectivity-preservation requirement.
    pub fn preserves_connectivity_of(&self, reference: &AdjacencyList) -> bool {
        preserves_connectivity(reference, &self.graph)
    }

    /// Returns `true` if the topology is a forest. The paper restricts
    /// attention to forests, as extra edges can only increase interference.
    pub fn is_forest(&self) -> bool {
        rim_graph::tree::is_forest(&self.graph)
    }

    /// Total transmission energy `Σ_u r_u^alpha` for a path-loss exponent
    /// `alpha` (commonly 2..4) — the classic energy proxy that motivates
    /// topology control.
    pub fn energy(&self, alpha: f64) -> f64 {
        self.radii.iter().map(|&r| r.powf(alpha)).sum()
    }
}

/// The links of the pair keys `keys`, each weighted by the distance
/// between its endpoints. Sorted keys give the edges in `(u, v)` order,
/// so the bulk builder's lists come out sorted.
pub(crate) fn key_edges<'a>(
    nodes: &'a NodeSet,
    keys: &'a [u64],
) -> impl Iterator<Item = Edge> + Clone + 'a {
    keys.iter().map(|&key| {
        let (u, v) = key_pair(key);
        Edge { u, v, weight: nodes.dist(u, v) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udg::unit_disk_graph;
    use rim_geom::Point;

    fn line5() -> NodeSet {
        NodeSet::on_line(&[0.0, 0.1, 0.3, 0.6, 1.0])
    }

    #[test]
    fn radii_are_farthest_neighbor_distances() {
        let t = Topology::from_pairs(line5(), &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r: Vec<f64> = t.radii().to_vec();
        // Node 1 is linked to 0 (0.1) and 2 (0.2): radius 0.2.
        assert!((r[0] - 0.1).abs() < 1e-15);
        assert!((r[1] - 0.2).abs() < 1e-15);
        assert!((r[2] - 0.3).abs() < 1e-15);
        assert!((r[3] - 0.4).abs() < 1e-15);
        assert!((r[4] - 0.4).abs() < 1e-15);
    }

    #[test]
    fn isolated_nodes_have_zero_radius() {
        let t = Topology::from_pairs(line5(), &[(0, 1)]);
        assert_eq!(t.radius(3), 0.0);
        assert_eq!(t.radius(4), 0.0);
        assert!(t.radius(0) > 0.0);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::empty(line5());
        assert_eq!(t.num_edges(), 0);
        // rim-lint: allow(float-eq) — radii are exactly 0.0 by construction
        assert!(t.radii().iter().all(|&r| r == 0.0));
        assert!(t.is_forest());
    }

    #[test]
    fn connectivity_preservation_against_udg() {
        let ns = line5();
        let udg = unit_disk_graph(&ns); // complete: span is 1.0
        let chain = Topology::from_pairs(ns.clone(), &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(chain.preserves_connectivity_of(&udg));
        let broken = Topology::from_pairs(ns, &[(0, 1), (1, 2)]);
        assert!(!broken.preserves_connectivity_of(&udg));
    }

    #[test]
    fn forest_detection_and_energy() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        let tree = Topology::from_pairs(ns.clone(), &[(0, 1), (0, 2)]);
        assert!(tree.is_forest());
        // Energy with alpha=2: r0=1, r1=1, r2=1.
        assert!((tree.energy(2.0) - 3.0).abs() < 1e-12);

        let cycle = Topology::from_pairs(ns, &[(0, 1), (0, 2), (1, 2)]);
        assert!(!cycle.is_forest());
    }

    #[test]
    fn respects_range() {
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 2.0]), &[(0, 1)]);
        assert!(t.respects_range(2.0));
        assert!(!t.respects_range(1.0));
    }

    #[test]
    fn pair_keys_build_the_topology_of_their_distinct_pairs() {
        use rim_graph::edge::pair_key;
        let keys = vec![pair_key(3, 2), pair_key(0, 1), pair_key(2, 3), pair_key(4, 1)];
        let t = Topology::from_pair_keys(line5(), keys);
        let want = Topology::from_pairs(line5(), &[(0, 1), (1, 4), (2, 3)]);
        assert_eq!(t.edges(), want.edges());
        assert_eq!(t.radii(), want.radii());
    }

    #[test]
    #[should_panic]
    fn duplicate_pairs_rejected() {
        Topology::from_pairs(line5(), &[(0, 1), (1, 0)]);
    }
}
