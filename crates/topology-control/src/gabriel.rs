//! The Gabriel graph, intersected with the UDG.
//!
//! Edge `{u, v}` survives iff no node at positive distance from both
//! endpoints lies in the closed disk whose diameter is the segment `uv`
//! — the classic planar structure used by geographic routing (GPSR et
//! al.). A node coincident with an endpoint never blocks, so coincident
//! nodes stay linked to each other and to everything their position
//! links to. It is connected on each UDG component (it contains the MST)
//! and contains the Nearest Neighbor Forest.
//!
//! Two witness predicates compute the same answer: the brute-force
//! [`is_gabriel_edge_naive`] scans all `n` nodes (the **permanent
//! oracle** the differential suites test against), while
//! [`is_gabriel_edge`] scans only `u`'s UDG neighbour list and stops at
//! the first blocker. `udg` must be the unit disk graph of `nodes` at
//! some range: a witness `w` has `d_uw <= fl(d_uw + d_wv) <= d_uv` in
//! squared distances (rounding is monotone), hence `|uw| <= |uv| <=
//! range` and `w ∈ N(u)` (see [`crate::pipeline`]), so the list never
//! misses one.

use crate::pipeline;
use rim_core::receiver::Engine;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Whether `w` blocks the Gabriel edge `{u, v}`: it lies in the closed
/// disk with diameter `uv` (`|uw|² + |wv|² <= |uv|²`; a node *on* the
/// diameter circle blocks) at positive distance from both endpoints.
/// The distance tests also exclude `w == u` and `w == v`. Without them
/// a node coincident with `u` would block every edge at `u` (`0 + |uv|²
/// <= |uv|²`), and three coincident nodes would remove all of each
/// other's links.
fn blocks(nodes: &NodeSet, u: usize, v: usize, w: usize) -> bool {
    let (d_uw, d_wv) = (nodes.dist_sq(u, w), nodes.dist_sq(w, v));
    d_uw > 0.0 && d_wv > 0.0 && d_uw + d_wv <= nodes.dist_sq(u, v)
}

/// Returns `true` if the UDG edge `{u, v}` is a Gabriel edge: no node
/// blocks it (see the module docs). Brute-force `O(n)` scan — the
/// retained witness oracle.
pub fn is_gabriel_edge_naive(nodes: &NodeSet, u: usize, v: usize) -> bool {
    (0..nodes.len()).all(|w| !blocks(nodes, u, v, w))
}

/// Neighbour-list witness test, exactly equal to
/// [`is_gabriel_edge_naive`] for a UDG edge `{u, v}` of the unit disk
/// graph `udg` of `nodes`: every witness lies in `N(u)` (see the module
/// docs), so the identical predicate runs over `u`'s list only and stops
/// at the first blocker.
// rim-lint: root
pub fn is_gabriel_edge(nodes: &NodeSet, udg: &AdjacencyList, u: usize, v: usize) -> bool {
    udg.neighbors(u).all(|w| !blocks(nodes, u, v, w))
}

/// Builds the Gabriel graph restricted to UDG edges with an explicit
/// [`Engine`]: `Naive` runs the all-node witness scan per edge
/// (`O(n·m)`), `Auto` scans `u`'s neighbour list per edge on
/// [`rim_par::auto_threads`] workers. Both return the same topology.
/// `udg` must be the unit disk graph of `nodes` at some range.
// rim-lint: root
pub fn gabriel_graph_with(nodes: &NodeSet, udg: &AdjacencyList, engine: Engine) -> Topology {
    match engine {
        Engine::Naive => {
            let mut g = AdjacencyList::new(nodes.len());
            for e in udg.edges() {
                if is_gabriel_edge_naive(nodes, e.u, e.v) {
                    g.add_edge(e.u, e.v, e.weight);
                }
            }
            Topology::from_graph(nodes.clone(), g)
        }
        Engine::Auto => gabriel_graph_parallel(nodes, udg, rim_par::auto_threads(nodes.len())),
    }
}

/// Neighbour-list construction across an explicit number of worker
/// threads (`1` = inline). The edge set is independent of `threads` by
/// construction.
pub fn gabriel_graph_parallel(nodes: &NodeSet, udg: &AdjacencyList, threads: usize) -> Topology {
    let g = pipeline::filter_edges(udg, threads, |u, v| is_gabriel_edge(nodes, udg, u, v));
    Topology::from_graph(nodes.clone(), g)
}

/// Builds the Gabriel graph restricted to UDG edges
/// ([`Engine::Auto`]) — the default entry point.
pub fn gabriel_graph(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    gabriel_graph_with(nodes, udg, Engine::Auto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn midpoint_node_blocks_edge() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0]);
        let udg = unit_disk_graph(&ns);
        let t = gabriel_graph(&ns, &udg);
        assert!(t.graph().has_edge(0, 1));
        assert!(t.graph().has_edge(1, 2));
        assert!(!t.graph().has_edge(0, 2), "node 1 sits inside the diameter disk");
    }

    #[test]
    fn node_outside_diameter_disk_does_not_block() {
        // w at distance such that the angle uwv is acute.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 0.9), // well above the diameter circle (radius 0.5)
        ]);
        let udg = unit_disk_graph(&ns);
        let t = gabriel_graph(&ns, &udg);
        assert!(t.graph().has_edge(0, 1));
    }

    #[test]
    fn preserves_connectivity_and_contains_nnf() {
        let mut state = 77u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..50).map(|_| Point::new(rnd() * 1.6, rnd() * 1.6)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let t = gabriel_graph(&ns, &udg);
        assert!(t.preserves_connectivity_of(&udg));
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn boundary_node_blocks_under_closed_convention() {
        // w on the diameter circle: right angle at w → blocks.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 0.5),
        ]);
        assert!(!is_gabriel_edge_naive(&ns, 0, 1));
        let udg = unit_disk_graph(&ns);
        assert!(!is_gabriel_edge(&ns, &udg, 0, 1), "neighbour-list witness must agree");
    }

    #[test]
    fn three_coincident_nodes_keep_all_their_links() {
        let ns = NodeSet::new(vec![Point::ORIGIN; 3]);
        let udg = unit_disk_graph(&ns);
        for e in [Engine::Naive, Engine::Auto] {
            let t = gabriel_graph_with(&ns, &udg, e);
            assert_eq!(t.num_edges(), 3, "engine {}", e.name());
            assert!(t.preserves_connectivity_of(&udg));
        }
    }

    #[test]
    fn a_coincident_pair_links_to_its_neighbour() {
        // Two nodes at the origin and one at (0.5, 0): each copy at the
        // origin sits at distance 0 from an endpoint of the other's link
        // to (0.5, 0), so neither blocks it.
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN, Point::new(0.5, 0.0)]);
        let udg = unit_disk_graph(&ns);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            assert!(is_gabriel_edge_naive(&ns, u, v), "naive {{{u}, {v}}}");
            assert!(is_gabriel_edge(&ns, &udg, u, v), "neighbour list {{{u}, {v}}}");
        }
        for e in [Engine::Naive, Engine::Auto] {
            assert_eq!(gabriel_graph_with(&ns, &udg, e).num_edges(), 3, "engine {}", e.name());
        }
    }

    #[test]
    fn every_engine_builds_the_same_graph() {
        let mut state = 5u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..70).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let oracle = gabriel_graph_with(&ns, &udg, Engine::Naive);
        for e in Engine::ALL {
            let t = gabriel_graph_with(&ns, &udg, e);
            assert_eq!(oracle.edges(), t.edges(), "engine {}", e.name());
        }
    }
}
