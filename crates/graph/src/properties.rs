//! Structural graph measures used across the experiments.
//!
//! The paper's related-work section contrasts *implicit* interference
//! proxies — sparseness, low degree, the spanner property — with the
//! explicit interference measure. These helpers compute the proxies so
//! the experiments can report them side by side.

use crate::adjacency::AdjacencyList;
use crate::shortest_path::dijkstra;

/// Degree statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree (0 for the empty graph).
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Computes min/max/mean degree.
pub fn degree_stats(g: &AdjacencyList) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0;
    for u in 0..n {
        let d = g.degree(u);
        min = min.min(d);
        max = max.max(d);
    }
    DegreeStats {
        min,
        max,
        mean: 2.0 * g.num_edges() as f64 / n as f64,
    }
}

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

/// Sparseness: edges per vertex (`m / n`); 0 for the empty graph.
pub fn sparseness(g: &AdjacencyList) -> f64 {
    if g.num_vertices() == 0 {
        0.0
    } else {
        g.num_edges() as f64 / g.num_vertices() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    #[test]
    fn degree_stats_on_star() {
        let g = AdjacencyList::from_edges(
            4,
            [Edge::new(0, 1, 1.0), Edge::new(0, 2, 1.0), Edge::new(0, 3, 1.0)],
        );
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert!((s.mean - 1.5).abs() < 1e-12);
    }

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

    #[test]
    fn sparseness_basics() {
        assert_eq!(sparseness(&AdjacencyList::new(0)), 0.0);
        let g = AdjacencyList::from_edges(4, [Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        assert_eq!(sparseness(&g), 0.5);
    }
}
