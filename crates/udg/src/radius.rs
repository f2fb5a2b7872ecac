//! Radius assignments and the symmetric graphs they induce.
//!
//! A topology determines radii (`r_u` = farthest neighbor); conversely a
//! radius assignment `r : V → ℝ≥0` induces the symmetric graph with edge
//! `{u, v}` iff `|uv| <= min(r_u, r_v)` — both endpoints must reach each
//! other, the symmetric-link requirement of Section 3. The exact optimum
//! solver searches over radius assignments, so this is its state space.

use crate::node_set::NodeSet;
use crate::topology::Topology;
use rim_graph::{AdjacencyList, Edge};

/// Builds the symmetric graph induced by a radius assignment:
/// edge `{u, v}` iff `|uv| <= min(r_u, r_v)`.
pub fn induced_graph(nodes: &NodeSet, radii: &[f64]) -> AdjacencyList {
    assert_eq!(nodes.len(), radii.len());
    let mut edges = Vec::new();
    for u in 0..nodes.len() {
        for v in (u + 1)..nodes.len() {
            let d = nodes.dist(u, v);
            if d <= radii[u] && d <= radii[v] {
                edges.push(Edge::new(u, v, d));
            }
        }
    }
    AdjacencyList::from_edges(nodes.len(), &edges)
}

/// Builds the [`Topology`] induced by a radius assignment.
///
/// Note that the topology's *recomputed* radii can be smaller than the
/// assignment (a node assigned a huge radius but whose neighbors all
/// refuse long links does not actually need that radius); the recomputed
/// radii are the ones that matter for interference.
pub fn induced_topology(nodes: &NodeSet, radii: &[f64]) -> Topology {
    let g = induced_graph(nodes, radii);
    Topology::from_graph(nodes.clone(), g)
}

/// The candidate radii of node `u`: `0` plus its distances to every other
/// node, sorted ascending and deduplicated.
///
/// Some radius assignment over these candidates realizes every
/// minimum-interference topology: shrinking any `r_u` down to the largest
/// pairwise distance it still covers changes neither the induced edge set
/// nor any coverage predicate.
pub fn candidate_radii(nodes: &NodeSet, u: usize) -> Vec<f64> {
    let mut out: Vec<f64> = std::iter::once(0.0)
        .chain((0..nodes.len()).filter(|&v| v != u).map(|v| nodes.dist(u, v)))
        .collect();
    out.sort_unstable_by(f64::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_rule_requires_both_endpoints() {
        let ns = NodeSet::on_line(&[0.0, 1.0, 3.0]);
        // Node 0 reaches node 1 but node 1 gets radius too small: no edge.
        let g = induced_graph(&ns, &[1.0, 0.5, 0.0]);
        assert_eq!(g.num_edges(), 0);
        // Raise node 1's radius: edge appears.
        let g = induced_graph(&ns, &[1.0, 1.0, 0.0]);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn boundary_distance_included() {
        let ns = NodeSet::on_line(&[0.0, 0.75]);
        let g = induced_graph(&ns, &[0.75, 0.75]);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn induced_topology_shrinks_wasted_radii() {
        let ns = NodeSet::on_line(&[0.0, 0.25, 1.0]);
        // Node 0 is assigned radius 1.0 (reaches node 2), but node 2 has
        // radius 0, so node 0's only realized link is to node 1.
        let t = induced_topology(&ns, &[1.0, 0.25, 0.0]);
        assert_eq!(t.num_edges(), 1);
        assert!((t.radius(0) - 0.25).abs() < 1e-15);
        assert_eq!(t.radius(2), 0.0);
    }

    #[test]
    fn candidate_radii_are_sorted_distances() {
        let ns = NodeSet::on_line(&[0.0, 0.25, 1.0, 0.25]);
        let c = candidate_radii(&ns, 0);
        assert_eq!(c, vec![0.0, 0.25, 1.0]); // deduplicated
        let c2 = candidate_radii(&ns, 2);
        assert_eq!(c2, vec![0.0, 0.75, 1.0]);
    }

    #[test]
    fn full_radii_give_complete_graph_within_range() {
        let ns = NodeSet::on_line(&[0.0, 0.4, 0.9]);
        let g = induced_graph(&ns, &[1.0, 1.0, 1.0]);
        assert_eq!(g.num_edges(), 3);
    }
}
