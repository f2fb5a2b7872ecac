//! Tree predicates and measures.
//!
//! The paper restricts attention to topologies that are forests ("a tree
//! for each connected component ... since additional edges might
//! unnecessarily increase interference", Section 3).

use crate::adjacency::AdjacencyList;
use crate::traversal::{components, num_components};

/// Returns `true` if the graph is a forest (acyclic).
pub fn is_forest(g: &AdjacencyList) -> bool {
    // A graph is acyclic iff |E| = |V| - (#components).
    g.num_edges() + num_components(g) == g.num_vertices()
}

/// Returns `true` if the graph is a single tree spanning all vertices.
pub fn is_spanning_tree(g: &AdjacencyList) -> bool {
    g.num_vertices() > 0 && num_components(g) == 1 && g.num_edges() == g.num_vertices() - 1
}

/// The unique path between `u` and `v` in a forest, or `None` if they are
/// in different components. Panics if the graph is not a forest.
pub fn tree_path(g: &AdjacencyList, u: usize, v: usize) -> Option<Vec<usize>> {
    assert!(is_forest(g), "tree_path requires a forest");
    if u == v {
        return Some(vec![u]);
    }
    let n = g.num_vertices();
    let mut parent = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[u] = true;
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        if x == v {
            break;
        }
        for y in g.neighbors(x) {
            if !seen[y] {
                seen[y] = true;
                parent[y] = x;
                queue.push_back(y);
            }
        }
    }
    if !seen[v] {
        return None;
    }
    let mut path = vec![v];
    let mut cur = v;
    while cur != u {
        cur = parent[cur];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Weighted diameter of a forest: the maximum over components of the
/// longest weighted path. Returns 0.0 for edgeless graphs.
pub fn weighted_diameter(g: &AdjacencyList) -> f64 {
    assert!(is_forest(g), "weighted_diameter requires a forest");
    // Double sweep per component: the farthest vertex from any start is an
    // endpoint of a longest path in a tree.
    let labels = components(g);
    let k = labels.iter().max().map_or(0, |m| m + 1);
    let mut best = 0.0f64;
    let mut done = vec![false; k];
    for s in 0..g.num_vertices() {
        let c = labels[s];
        if done[c] {
            continue;
        }
        done[c] = true;
        let (far, _) = farthest(g, s);
        let (_, d) = farthest(g, far);
        best = best.max(d);
    }
    best
}

fn farthest(g: &AdjacencyList, start: usize) -> (usize, f64) {
    let n = g.num_vertices();
    let mut dist = vec![f64::NEG_INFINITY; n];
    let mut stack = vec![start];
    dist[start] = 0.0;
    let mut best = (start, 0.0f64);
    while let Some(u) = stack.pop() {
        for (v, w) in g.neighbors_weighted(u) {
            // rim-lint: allow(float-eq) — NEG_INFINITY is an exact init sentinel
            if dist[v] == f64::NEG_INFINITY {
                dist[v] = dist[u] + w;
                if dist[v] > best.1 {
                    best = (v, dist[v]);
                }
                stack.push(v);
            }
        }
    }
    best
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
        let p = path_graph(5, 1.0);
        assert!(is_forest(&p));
        assert!(is_spanning_tree(&p));

        let mut cyclic = path_graph(4, 1.0);
        cyclic.add_edge(0, 3, 1.0);
        assert!(!is_forest(&cyclic));
        assert!(!is_spanning_tree(&cyclic));

        let mut forest = path_graph(5, 1.0);
        forest.remove_edge(2, 3); // two components
        assert!(is_forest(&forest));
        assert!(!is_spanning_tree(&forest));

        assert!(is_forest(&AdjacencyList::new(0)));
        assert!(!is_spanning_tree(&AdjacencyList::new(0)));
        assert!(is_spanning_tree(&AdjacencyList::new(1)));
    }

    #[test]
    fn tree_path_endpoints_and_order() {
        let p = path_graph(6, 1.0);
        assert_eq!(tree_path(&p, 1, 4), Some(vec![1, 2, 3, 4]));
        assert_eq!(tree_path(&p, 4, 1), Some(vec![4, 3, 2, 1]));
        assert_eq!(tree_path(&p, 3, 3), Some(vec![3]));
    }

    #[test]
    fn tree_path_across_components_is_none() {
        let mut g = path_graph(4, 1.0);
        g.remove_edge(1, 2);
        assert_eq!(tree_path(&g, 0, 3), None);
    }

    #[test]
    fn diameter_of_path_and_star() {
        let p = path_graph(5, 2.0);
        assert_eq!(weighted_diameter(&p), 8.0);

        let star = AdjacencyList::from_edges(
            4,
            [Edge::new(0, 1, 1.0), Edge::new(0, 2, 3.0), Edge::new(0, 3, 5.0)],
        );
        assert_eq!(weighted_diameter(&star), 8.0); // 2 -> 0 -> 3

        assert_eq!(weighted_diameter(&AdjacencyList::new(3)), 0.0);
    }

    #[test]
    fn diameter_takes_max_over_components() {
        let mut g = AdjacencyList::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 10.0);
        g.add_edge(3, 4, 10.0);
        assert_eq!(weighted_diameter(&g), 20.0);
    }
}
