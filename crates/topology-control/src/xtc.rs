//! XTC — Wattenhofer & Zollinger's practical topology control (WMAN 2004),
//! reference \[19\] of the paper.
//!
//! Each node ranks its UDG neighbors by link quality — here Euclidean
//! distance with index tie-breaking, the standard instantiation — and
//! drops the link to neighbor `v` iff some third node `w` ranks better
//! than `v` from *both* sides:
//!
//! ```text
//! drop {u, v}  ⟺  ∃ w : w ≺_u v  and  w ≺_v u
//! ```
//!
//! With distance ranking this coincides with the Relative Neighborhood
//! Graph up to tie-breaking, preserves connectivity, and has degree at
//! most 6 in general position. XTC needs no position information — only
//! the neighbor rankings — which is why the paper lists it among the
//! "minimal assumptions" algorithms.
//!
//! A blocking `w` is a common UDG neighbour of `u` and `v`. The retained
//! [`keeps_edge`] oracle (`Naive`, serial) scans `N(u)` and binary-searches
//! each candidate in `v`'s list; the fast [`keeps_edge_one_list`]
//! (`Auto`, fanned out over the shared executor) scans `N(u)` with both
//! ranking tests and no search of `v`'s list, and stops at the first
//! blocker. `udg` must be the unit disk graph of `nodes` at some range:
//! then `w ≺_v u` already puts `w` in `N(v)`, since `dist_sq(v, w) <=
//! dist_sq(v, u)` and `sqrt` is monotone, so `dist(v, w) <= |uv| <=
//! range`. The ranking tests alone find exactly the blockers the
//! oracle's adjacency probe admits, as in RNG's lune scan.

use crate::pipeline;
use rim_core::receiver::Engine;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// The total-order ranking `w ≺_u v`: distance from `u`, then index.
#[inline]
fn ranks_better(nodes: &NodeSet, u: usize, w: usize, v: usize) -> bool {
    let dw = nodes.dist_sq(u, w);
    let dv = nodes.dist_sq(u, v);
    dw < dv || (dw == dv && w < v)
}

/// Returns `true` if XTC keeps the UDG edge `{u, v}`.
pub fn keeps_edge(nodes: &NodeSet, udg: &AdjacencyList, u: usize, v: usize) -> bool {
    // A blocking w must be a common UDG neighbor ranked better from both
    // sides; it suffices to scan u's neighbor list.
    !udg.neighbors(u).any(|w| {
        w != v
            && udg.has_edge(w, v)
            && ranks_better(nodes, u, w, v)
            && ranks_better(nodes, v, w, u)
    })
}

/// [`keeps_edge`] for a UDG edge `{u, v}` of the unit disk graph `udg`
/// of `nodes`, without probing `v`'s list: a `w ∈ N(u)` with `w ≺_v u`
/// lies in `N(v)` (see the module docs), so the oracle's ranking tests,
/// with `dist_sq(u, v)` computed once, find exactly its blockers. `w =
/// v` ranks behind itself from `u`, so it never blocks.
pub fn keeps_edge_one_list(nodes: &NodeSet, udg: &AdjacencyList, u: usize, v: usize) -> bool {
    let d_uv = nodes.dist_sq(u, v);
    udg.neighbors(u).all(|w| {
        let d_uw = nodes.dist_sq(u, w);
        if !(d_uw < d_uv || (d_uw == d_uv && w < v)) {
            return true;
        }
        let d_vw = nodes.dist_sq(v, w);
        !(d_vw < d_uv || (d_vw == d_uv && w < u))
    })
}

/// Builds the XTC topology over the UDG with an explicit [`Engine`]:
/// `Naive` runs [`keeps_edge`] serially, `Auto` runs
/// [`keeps_edge_one_list`] on [`rim_par::auto_threads`] workers. Both
/// return the same topology.
pub fn xtc_with(nodes: &NodeSet, udg: &AdjacencyList, engine: Engine) -> Topology {
    match engine {
        Engine::Naive => {
            let g = pipeline::filter_edges(udg, 1, |u, v| keeps_edge(nodes, udg, u, v));
            Topology::from_graph(nodes.clone(), g)
        }
        Engine::Auto => xtc_parallel(nodes, udg, rim_par::auto_threads(nodes.len())),
    }
}

/// Fast XTC across an explicit number of worker threads (`1` = inline).
/// The edge set is independent of `threads` by construction.
pub fn xtc_parallel(nodes: &NodeSet, udg: &AdjacencyList, threads: usize) -> Topology {
    let g = pipeline::filter_edges(udg, threads, |u, v| keeps_edge_one_list(nodes, udg, u, v));
    Topology::from_graph(nodes.clone(), g)
}

/// Builds the XTC topology over the UDG ([`Engine::Auto`]) — the
/// default entry point.
pub fn xtc(nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
    xtc_with(nodes, udg, Engine::Auto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn drops_the_long_side_of_a_triangle() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(0.45, 0.2),
        ]);
        let udg = unit_disk_graph(&ns);
        let t = xtc(&ns, &udg);
        assert!(!t.graph().has_edge(0, 1), "node 2 ranks better from both");
        assert!(t.graph().has_edge(0, 2));
        assert!(t.graph().has_edge(1, 2));
        assert!(t.preserves_connectivity_of(&udg));
    }

    #[test]
    fn preserves_connectivity_and_contains_nnf_on_random_instances() {
        let mut state = 2024u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..5 {
            let pts: Vec<Point> = (0..60).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
            let ns = NodeSet::new(pts);
            let udg = unit_disk_graph(&ns);
            let t = xtc(&ns, &udg);
            assert!(t.preserves_connectivity_of(&udg));
            assert!(contains_nnf(&t, &udg));
        }
    }

    #[test]
    fn equidistant_ties_resolved_by_index() {
        // u between two equidistant neighbors that are also in range of
        // each other: exactly one of the symmetric edges is dropped,
        // deterministically.
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0]);
        let udg = unit_disk_graph(&ns);
        let t = xtc(&ns, &udg);
        assert!(t.graph().has_edge(0, 1));
        assert!(t.graph().has_edge(1, 2));
        assert!(!t.graph().has_edge(0, 2));
        assert!(t.preserves_connectivity_of(&udg));
    }

    #[test]
    fn every_engine_builds_the_same_graph() {
        let mut state = 40u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..80).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let oracle = xtc_with(&ns, &udg, Engine::Naive);
        for e in Engine::ALL {
            let t = xtc_with(&ns, &udg, e);
            assert_eq!(oracle.edges(), t.edges(), "engine {}", e.name());
        }
    }
}
