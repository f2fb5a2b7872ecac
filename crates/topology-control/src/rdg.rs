//! RDG — the Restricted Delaunay Graph, the planar-spanner family of
//! Li, Calinescu and Wan (INFOCOM 2002), reference \[10\] of the paper.
//!
//! The global Delaunay triangulation intersected with the UDG: a planar
//! constant-stretch spanner that contains the Gabriel graph (and hence
//! the MST and the Nearest Neighbor Forest — Theorem 4.1 applies).
//! The distributed protocol of \[10\] computes a local approximation of
//! exactly this structure; we compute it centrally.
//!
//! The triangulation is over the distinct positions. Coincident nodes
//! share their position's Delaunay edges and are linked to each other,
//! so the graph contains the Gabriel graph on duplicates too.

use rim_geom::delaunay::delaunay;
use rim_geom::Point;
use rim_graph::edge::{key_pair, pair_key};
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};
use std::collections::HashMap;

/// Builds the Restricted Delaunay Graph (Delaunay ∩ UDG).
pub fn restricted_delaunay(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    // Group nodes by position, in order of first appearance. `+ 0.0`
    // maps -0.0 to 0.0, so the key is equality of coordinates.
    let key = |p: Point| ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits());
    let mut site_of: HashMap<(u64, u64), usize> = HashMap::new();
    let mut sites: Vec<Point> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (u, &p) in nodes.points().iter().enumerate() {
        let s = *site_of.entry(key(p)).or_insert_with(|| {
            sites.push(p);
            members.push(Vec::new());
            sites.len() - 1
        });
        members[s].push(u);
    }
    let mut keys: Vec<u64> = Vec::new();
    for group in &members {
        for (i, &u) in group.iter().enumerate() {
            keys.extend(group[i + 1..].iter().map(|&v| pair_key(u, v)));
        }
    }
    for (a, b) in delaunay(&sites).edges {
        for &u in &members[a] {
            keys.extend(members[b].iter().map(|&v| pair_key(u, v)));
        }
    }
    keys.retain(|&key| {
        let (u, v) = key_pair(key);
        udg.has_edge(u, v)
    });
    Topology::from_pair_keys(nodes.clone(), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gabriel::gabriel_graph;
    use crate::nnf::contains_nnf;
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
    fn contains_the_gabriel_graph() {
        let ns = random_field(70, 2.0, 21);
        let udg = unit_disk_graph(&ns);
        let rdg = restricted_delaunay(&ns, &udg);
        let gg = gabriel_graph(&ns, &udg);
        for e in gg.edges() {
            assert!(
                rdg.graph().has_edge(e.u, e.v),
                "Gabriel edge ({}, {}) missing from RDG",
                e.u,
                e.v
            );
        }
    }

    #[test]
    fn preserves_connectivity_and_contains_nnf() {
        for seed in 1..4u64 {
            let ns = random_field(60, 2.0, seed);
            let udg = unit_disk_graph(&ns);
            let t = restricted_delaunay(&ns, &udg);
            assert!(t.preserves_connectivity_of(&udg), "seed={seed}");
            assert!(contains_nnf(&t, &udg), "seed={seed}");
        }
    }

    #[test]
    fn planarity_via_euler_bound() {
        // A planar graph has at most 3n − 6 edges.
        let ns = random_field(100, 1.2, 5);
        let udg = unit_disk_graph(&ns);
        let t = restricted_delaunay(&ns, &udg);
        assert!(t.num_edges() <= 3 * ns.len().saturating_sub(2));
        // …and is much sparser than the dense UDG it came from.
        assert!(t.num_edges() < udg.num_edges());
    }

    #[test]
    fn coincident_nodes_are_linked_and_keep_their_position_s_edges() {
        let three = NodeSet::new(vec![Point::ORIGIN; 3]);
        let t = restricted_delaunay(&three, &unit_disk_graph(&three));
        assert_eq!(t.num_edges(), 3);
        // Two nodes at the origin and one at (0.5, 0): both copies link
        // to the third node and to each other.
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN, Point::new(0.5, 0.0)]);
        let udg = unit_disk_graph(&ns);
        let t = restricted_delaunay(&ns, &udg);
        assert_eq!(t.num_edges(), 3);
        assert!(t.preserves_connectivity_of(&udg));
        for e in gabriel_graph(&ns, &udg).edges() {
            assert!(t.graph().has_edge(e.u, e.v), "GG edge {{{}, {}}}", e.u, e.v);
        }
    }

    #[test]
    fn chain_input() {
        let ns = NodeSet::on_line(&[0.0, 0.4, 0.8, 1.2]);
        let udg = unit_disk_graph(&ns);
        let t = restricted_delaunay(&ns, &udg);
        assert_eq!(t.num_edges(), 3);
        assert!(t.preserves_connectivity_of(&udg));
    }
}
