//! The Relative Neighborhood Graph, intersected with the UDG.
//!
//! Edge `{u, v}` survives iff no third node `w` is simultaneously closer
//! to both endpoints than they are to each other (the "lune" is empty).
//! RNG ⊆ Gabriel graph, and RNG still contains the MST and therefore the
//! Nearest Neighbor Forest.
//!
//! As for the Gabriel graph, two witness predicates agree exactly: the
//! brute-force [`is_rng_edge_naive`] oracle scans all `n` nodes, while
//! [`is_rng_edge`] scans only `u`'s UDG neighbour list and stops at the
//! first witness. `udg` must be the unit disk graph of `nodes` at some
//! range: a lune witness has `d_uw < d_uv`, hence `|uw| <= |uv| <=
//! range` and `w ∈ N(u)` (see [`crate::pipeline`]).

use crate::pipeline;
use rim_core::receiver::Engine;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Returns `true` if `{u, v}` is an RNG edge: there is no `w` with
/// `max(|uw|, |wv|) < |uv|` (strict lune; a node exactly at distance
/// `|uv|` from one endpoint does not block). Brute-force `O(n)` scan —
/// the retained witness oracle.
pub fn is_rng_edge_naive(nodes: &NodeSet, u: usize, v: usize) -> bool {
    let d_uv = nodes.dist_sq(u, v);
    (0..nodes.len()).all(|w| {
        w == u || w == v || nodes.dist_sq(u, w).max(nodes.dist_sq(w, v)) >= d_uv
    })
}

/// Neighbour-list lune test, exactly equal to [`is_rng_edge_naive`] for
/// a UDG edge `{u, v}` of the unit disk graph `udg` of `nodes`: every
/// lune witness lies in `N(u)` (see the module docs), so the identical
/// squared-distance predicate runs over `u`'s list only and stops at the
/// first witness.
// rim-lint: root
pub fn is_rng_edge(nodes: &NodeSet, udg: &AdjacencyList, u: usize, v: usize) -> bool {
    let d_uv = nodes.dist_sq(u, v);
    udg.neighbors(u)
        .all(|w| w == v || nodes.dist_sq(u, w).max(nodes.dist_sq(w, v)) >= d_uv)
}

/// Builds the RNG restricted to UDG edges with an explicit [`Engine`]:
/// `Naive` scans all nodes per edge (`O(n·m)`), `Auto` scans `u`'s
/// neighbour list per edge on [`rim_par::auto_threads`] workers. Both
/// return the same topology. `udg` must be the unit disk graph of
/// `nodes` at some range.
pub fn relative_neighborhood_graph_with(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    engine: Engine,
) -> Topology {
    match engine {
        Engine::Naive => {
            let mut g = AdjacencyList::new(nodes.len());
            for e in udg.edges() {
                if is_rng_edge_naive(nodes, e.u, e.v) {
                    g.add_edge(e.u, e.v, e.weight);
                }
            }
            Topology::from_graph(nodes.clone(), g)
        }
        Engine::Auto => {
            relative_neighborhood_graph_parallel(nodes, udg, rim_par::auto_threads(nodes.len()))
        }
    }
}

/// Neighbour-list construction across an explicit number of worker
/// threads (`1` = inline). The edge set is independent of `threads` by
/// construction.
pub fn relative_neighborhood_graph_parallel(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    threads: usize,
) -> Topology {
    let g = pipeline::filter_edges(udg, threads, |u, v| is_rng_edge(nodes, udg, u, v));
    Topology::from_graph(nodes.clone(), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gabriel::gabriel_graph;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn lune_node_blocks_edge() {
        // Equilateral-ish: w close to both u and v.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 0.3),
        ]);
        assert!(!is_rng_edge_naive(&ns, 0, 1));
        assert!(is_rng_edge_naive(&ns, 0, 2));
        assert!(is_rng_edge_naive(&ns, 1, 2));
        let udg = unit_disk_graph(&ns);
        assert!(!is_rng_edge(&ns, &udg, 0, 1), "neighbour-list lune test must agree");
        assert!(is_rng_edge(&ns, &udg, 0, 2));
    }

    #[test]
    fn rng_is_subgraph_of_gabriel() {
        let mut state = 31u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..60).map(|_| Point::new(rnd() * 1.8, rnd() * 1.8)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let r = relative_neighborhood_graph_with(&ns, &udg, Engine::Auto);
        let g = gabriel_graph(&ns, &udg);
        for e in r.edges() {
            assert!(g.graph().has_edge(e.u, e.v), "RNG edge missing from GG");
        }
        assert!(r.preserves_connectivity_of(&udg));
        assert!(contains_nnf(&r, &udg));
    }

    #[test]
    fn collinear_chain_keeps_consecutive_edges_only() {
        let ns = NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]);
        let udg = unit_disk_graph(&ns);
        let t = relative_neighborhood_graph_with(&ns, &udg, Engine::Auto);
        assert_eq!(t.num_edges(), 3);
        assert!(t.graph().has_edge(0, 1) && t.graph().has_edge(1, 2) && t.graph().has_edge(2, 3));
    }

    #[test]
    fn every_engine_builds_the_same_graph() {
        let mut state = 91u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..70).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let oracle = relative_neighborhood_graph_with(&ns, &udg, Engine::Naive);
        for e in Engine::ALL {
            let t = relative_neighborhood_graph_with(&ns, &udg, e);
            assert_eq!(oracle.edges(), t.edges(), "engine {}", e.name());
        }
    }
}
