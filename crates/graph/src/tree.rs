//! Tree predicates.
//!
//! The paper restricts attention to topologies that are forests ("a tree
//! for each connected component ... since additional edges might
//! unnecessarily increase interference", Section 3).

use crate::adjacency::AdjacencyList;
use crate::traversal::num_components;

/// Returns `true` if the graph is a forest (acyclic).
pub fn is_forest(g: &AdjacencyList) -> bool {
    // A graph is acyclic iff |E| = |V| - (#components).
    g.num_edges() + num_components(g) == g.num_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    fn path_graph(n: usize, w: f64) -> AdjacencyList {
        let edges: Vec<Edge> = (1..n).map(|i| Edge::new(i - 1, i, w)).collect();
        AdjacencyList::from_edges(n, &edges)
    }

    #[test]
    fn forest_and_tree_predicates() {
        assert!(is_forest(&path_graph(5, 1.0)));

        let mut cyclic = path_graph(4, 1.0);
        cyclic.add_edge(0, 3, 1.0);
        assert!(!is_forest(&cyclic));

        let mut forest = path_graph(5, 1.0);
        forest.remove_edge(2, 3); // two components
        assert!(is_forest(&forest));

        assert!(is_forest(&AdjacencyList::new(0)));
        assert!(is_forest(&AdjacencyList::new(1)));
    }
}
