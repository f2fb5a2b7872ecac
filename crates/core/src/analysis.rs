//! Interference summaries for experiment reporting.

use crate::receiver::{interference_vector_with, Engine};
use rim_udg::Topology;

/// Summary statistics of a topology's interference distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceSummary {
    /// Per-node interference `I(v)`.
    pub per_node: Vec<usize>,
    /// `I(G') = max_v I(v)`.
    pub max: usize,
    /// Mean node interference.
    pub mean: f64,
    /// `histogram[i]` = number of nodes with `I(v) = i`.
    pub histogram: Vec<usize>,
}

impl InterferenceSummary {
    /// Computes the summary for a topology with the fast kernel
    /// ([`Engine::Auto`]).
    pub fn of(t: &Topology) -> Self {
        Self::with_engine(t, Engine::Auto)
    }

    /// Computes the summary through an explicitly chosen interference
    /// [`Engine`] — the hook the CLI's `--engine` flag uses. All engines
    /// produce identical summaries; see [`crate::receiver`].
    pub fn with_engine(t: &Topology, engine: Engine) -> Self {
        let per_node = interference_vector_with(t, engine);
        let max = per_node.iter().copied().max().unwrap_or(0);
        let mean = if per_node.is_empty() {
            0.0
        } else {
            per_node.iter().sum::<usize>() as f64 / per_node.len() as f64
        };
        let mut histogram = vec![0usize; max + 1];
        for &i in &per_node {
            histogram[i] += 1;
        }
        InterferenceSummary {
            per_node,
            max,
            mean,
            histogram,
        }
    }

    /// Index of a node attaining the maximum interference (`None` for
    /// empty topologies).
    pub fn argmax(&self) -> Option<usize> {
        (0..self.per_node.len()).max_by_key(|&v| (self.per_node[v], usize::MAX - v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::interference_vector;
    use rim_graph::AdjacencyList;
    use rim_udg::udg::unit_disk_graph;
    use rim_udg::NodeSet;

    /// Checks the structural sandwich of Section 3: for every node,
    /// `deg_topology(v) <= I(v)`, and `I(v) <= Δ(UDG)` (each node is covered
    /// at least by its topology neighbors, and at most by its UDG neighbors).
    ///
    /// Returns the first violating node, or `None` if the bounds hold —
    /// they always must; a violation indicates an implementation bug.
    fn check_interference_bounds(t: &Topology, udg: &AdjacencyList) -> Option<usize> {
        let iv = interference_vector(t);
        let delta = udg.max_degree();
        (0..t.num_nodes()).find(|&v| iv[v] < t.graph().degree(v) || iv[v] > delta)
    }

    fn chain() -> Topology {
        Topology::from_pairs(NodeSet::on_line(&[0.0, 0.2, 0.4, 0.6]), &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn summary_statistics() {
        let s = InterferenceSummary::of(&chain());
        assert_eq!(s.per_node.len(), 4);
        assert_eq!(s.max, *s.per_node.iter().max().unwrap());
        let total: usize = s.histogram.iter().sum();
        assert_eq!(total, 4);
        assert!((s.mean - s.per_node.iter().sum::<usize>() as f64 / 4.0).abs() < 1e-12);
        let am = s.argmax().unwrap();
        assert_eq!(s.per_node[am], s.max);
    }

    #[test]
    fn all_engines_summarize_identically() {
        let t = chain();
        let auto = InterferenceSummary::of(&t);
        for e in Engine::ALL {
            assert_eq!(InterferenceSummary::with_engine(&t, e), auto, "{}", e.name());
        }
    }

    #[test]
    fn empty_summary() {
        let s = InterferenceSummary::of(&Topology::empty(NodeSet::new(vec![])));
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.argmax(), None);
        assert_eq!(s.histogram, vec![0]);
    }

    #[test]
    fn bounds_hold_on_chain() {
        let t = chain();
        let udg = unit_disk_graph(t.nodes());
        assert_eq!(check_interference_bounds(&t, &udg), None);
    }

    #[test]
    fn argmax_prefers_smallest_index_on_ties() {
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.5]), &[(0, 1)]);
        let s = InterferenceSummary::of(&t);
        assert_eq!(s.argmax(), Some(0)); // both nodes have I = 1
    }
}
