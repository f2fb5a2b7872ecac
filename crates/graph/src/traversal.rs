//! Connected components and connectivity.

use crate::adjacency::AdjacencyList;

/// Component label for every vertex; labels are `0..k` in order of first
/// appearance (vertex 0 is always in component 0 when `n > 0`).
// rim-lint: allow(panic-freedom) — `label` has one slot per vertex, and the adjacency lists hold vertex ids only
pub fn components(g: &AdjacencyList) -> Vec<usize> {
    let n = g.num_vertices();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components (0 for the empty graph).
pub fn num_components(g: &AdjacencyList) -> usize {
    components(g).iter().max().map_or(0, |m| m + 1)
}

/// Returns `true` if the graph is connected. The empty graph and the
/// single-vertex graph are connected by convention.
pub fn is_connected(g: &AdjacencyList) -> bool {
    num_components(g) <= 1
}

/// Returns `true` if the subgraph `sub` connects exactly what `reference`
/// connects: two vertices are in the same `sub`-component iff they are in
/// the same `reference`-component.
///
/// This is the *connectivity preservation* requirement of the paper: a
/// topology-control output must keep every connected component of the UDG
/// connected (it cannot create new connections since it is a subgraph, but
/// we verify both directions to catch constructor bugs).
///
/// Only `sub`'s components are labelled. When every edge of `sub` is an
/// edge of `reference`, `reference`'s partition is `sub`'s merged along
/// the `reference` edges that cross it, so the two agree exactly when
/// one scan of `reference`'s lists finds no such edge. Otherwise (a
/// constructor bug, or a topology with a link the reference lacks) the
/// answer compares `reference`'s own components.
// rim-lint: root
pub fn preserves_connectivity(reference: &AdjacencyList, sub: &AdjacencyList) -> bool {
    assert_eq!(reference.num_vertices(), sub.num_vertices());
    let n = sub.num_vertices();
    let labels = components(sub);
    let nested = (0..n).all(|u| sub.neighbors(u).all(|v| v < u || reference.has_edge(u, v)));
    if !nested {
        return same_partition(&components(reference), &labels);
    }
    (0..n).all(|u| reference.neighbors(u).all(|v| labels[v] == labels[u]))
}

/// Returns `true` if the labelings `a` and `b` put the same vertices
/// together: `a[i] == a[j]` iff `b[i] == b[j]`. Labels are component
/// labels as [`components`] returns them, each below the vertex count.
// rim-lint: allow(panic-freedom) — labels are below the vertex count, the documented contract, and size both maps
pub fn same_partition(a: &[usize], b: &[usize]) -> bool {
    assert_eq!(a.len(), b.len());
    // Same label in `a` must imply same label in `b` and vice versa: the
    // label maps must be bijective.
    let n = a.len();
    let mut map_ab = vec![usize::MAX; n];
    let mut map_ba = vec![usize::MAX; n];
    for (&x, &y) in a.iter().zip(b) {
        if map_ab[x] == usize::MAX {
            map_ab[x] = y;
        } else if map_ab[x] != y {
            return false;
        }
        if map_ba[y] == usize::MAX {
            map_ba[y] = x;
        } else if map_ba[y] != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    fn path(n: usize) -> AdjacencyList {
        let edges: Vec<Edge> = (1..n).map(|i| Edge::new(i - 1, i, 1.0)).collect();
        AdjacencyList::from_edges(n, &edges)
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = path(4); // 0-1-2-3
        assert!(is_connected(&g));
        assert_eq!(num_components(&g), 1);
        g.remove_edge(1, 2);
        assert!(!is_connected(&g));
        assert_eq!(components(&g), vec![0, 0, 1, 1]);
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(is_connected(&AdjacencyList::new(0)));
        assert!(is_connected(&AdjacencyList::new(1)));
        assert!(!is_connected(&AdjacencyList::new(2)));
    }

    #[test]
    fn partitions_compare_groupings_not_label_values() {
        assert!(same_partition(&[0, 0, 1], &[1, 1, 0]));
        assert!(same_partition(&[], &[]));
        // `b` groups other vertices, merges `a`'s groups, or splits one.
        assert!(!same_partition(&[0, 0, 1], &[0, 1, 1]));
        assert!(!same_partition(&[0, 1], &[0, 0]));
        assert!(!same_partition(&[0, 0], &[0, 1]));
    }

    #[test]
    fn connectivity_preservation() {
        // Reference: two components {0,1,2} and {3,4}.
        let reference = AdjacencyList::from_edges(
            5,
            [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(0, 2, 1.0), Edge::new(3, 4, 1.0)],
        );
        // Spanning forest of the same components.
        let good = AdjacencyList::from_edges(5, [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(3, 4, 1.0)]);
        assert!(preserves_connectivity(&reference, &good));
        // Dropping an edge splits {0,1,2}.
        let bad = AdjacencyList::from_edges(5, [Edge::new(0, 1, 1.0), Edge::new(3, 4, 1.0)]);
        assert!(!preserves_connectivity(&reference, &bad));
        // Connecting the two reference components is also a violation.
        let merged = AdjacencyList::from_edges(
            5,
            [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0), Edge::new(3, 4, 1.0)],
        );
        assert!(!preserves_connectivity(&reference, &merged));
    }
}
