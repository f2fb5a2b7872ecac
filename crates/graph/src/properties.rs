//! Structural graph measures used across the experiments.
//!
//! The paper's related-work section contrasts *implicit* interference
//! proxies — sparseness, low degree, the spanner property — with the
//! explicit interference measure. [`stretch_factor`] measures the spanner
//! property so the experiments can report it beside interference.

use crate::adjacency::AdjacencyList;
use crate::shortest_path::dijkstra;

/// The (weighted) stretch factor of `sub` relative to `reference`:
/// the maximum over connected pairs of `dist_sub(u,v) / dist_ref(u,v)`.
///
/// Returns 1.0 when there are no connected pairs. Pairs connected in
/// `reference` but not in `sub` yield `f64::INFINITY` (connectivity was
/// not preserved).
///
/// This is `O(n · (m log n))`; intended for analysis, not hot paths.
pub fn stretch_factor(reference: &AdjacencyList, sub: &AdjacencyList) -> f64 {
    assert_eq!(reference.num_vertices(), sub.num_vertices());
    let n = reference.num_vertices();
    let mut worst = 1.0f64;
    for s in 0..n {
        let dr = dijkstra(reference, s);
        let ds = dijkstra(sub, s);
        for t in (s + 1)..n {
            if dr.dist[t].is_infinite() {
                continue;
            }
            if ds.dist[t].is_infinite() {
                return f64::INFINITY;
            }
            if dr.dist[t] > 0.0 {
                worst = worst.max(ds.dist[t] / dr.dist[t]);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    #[test]
    fn stretch_of_subgraph() {
        // Triangle with unit edges; dropping one edge makes the detour 2x.
        let reference = AdjacencyList::from_edges(
            3,
            [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(0, 2, 1.0)],
        );
        let sub = AdjacencyList::from_edges(3, [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)]);
        assert!((stretch_factor(&reference, &sub) - 2.0).abs() < 1e-12);
        assert_eq!(stretch_factor(&reference, &reference), 1.0);
    }

    #[test]
    fn stretch_detects_broken_connectivity() {
        let reference = AdjacencyList::from_edges(2, [Edge::new(0, 1, 1.0)]);
        let sub = AdjacencyList::new(2);
        assert!(stretch_factor(&reference, &sub).is_infinite());
    }
}
