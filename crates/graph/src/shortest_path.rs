//! Shortest paths: Dijkstra, hop counts, and routing tables.
//!
//! The simulator routes packets over a controlled topology using
//! shortest-path next-hop tables; the spanner analyses compare weighted
//! path lengths between the UDG and a topology.

use crate::adjacency::AdjacencyList;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// `dist[v]` is the weighted distance from the source, `f64::INFINITY`
    /// if unreachable.
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor on a shortest path, `usize::MAX` for
    /// the source and unreachable vertices.
    pub parent: Vec<usize>,
}

impl ShortestPaths {
    /// Reconstructs the path from the source to `t` (inclusive), or `None`
    /// if `t` is unreachable.
    pub fn path_to(&self, t: usize) -> Option<Vec<usize>> {
        if self.dist[t].is_infinite() {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while self.parent[cur] != usize::MAX {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Dijkstra from `source` over non-negative edge weights.
///
/// Parents record the first relaxation achieving the minimum distance,
/// which is deterministic for a fixed graph (neighbor iteration order and
/// heap behavior are both deterministic).
pub fn dijkstra(g: &AdjacencyList, source: usize) -> ShortestPaths {
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(Reverse((OrdF64(0.0), source)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (v, w) in g.neighbors_weighted(u) {
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    ShortestPaths { dist, parent }
}

/// BFS hop distances from `source` (`usize::MAX` if unreachable).
pub fn hop_distances(g: &AdjacencyList, source: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs next-hop routing table computed by one Dijkstra per vertex.
///
/// `table[s][t]` is the neighbor of `s` on a shortest `s → t` path
/// (`usize::MAX` when `t` is `s` itself or unreachable).
pub fn routing_table(g: &AdjacencyList) -> Vec<Vec<usize>> {
    let n = g.num_vertices();
    let mut table = vec![vec![usize::MAX; n]; n];
    for s in 0..n {
        let sp = dijkstra(g, s);
        for t in 0..n {
            if t == s || sp.dist[t].is_infinite() {
                continue;
            }
            // Walk back from t until the vertex whose parent is s.
            let mut cur = t;
            while sp.parent[cur] != s {
                cur = sp.parent[cur];
            }
            table[s][t] = cur;
        }
    }
    table
}

/// `f64` wrapper ordered by `total_cmp`, for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    fn sample_graph() -> AdjacencyList {
        //   0 --1.0-- 1 --1.0-- 2
        //    \__3.0_____________/     and isolated vertex 3
        AdjacencyList::from_edges(
            4,
            [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(0, 2, 3.0)],
        )
    }

    #[test]
    fn dijkstra_prefers_two_hop_path() {
        let g = sample_graph();
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
        assert!(sp.dist[3].is_infinite());
        assert_eq!(sp.path_to(3), None);
    }

    #[test]
    fn hop_distance_ignores_weights() {
        let g = sample_graph();
        let hops = hop_distances(&g, 0);
        assert_eq!(hops[0], 0);
        assert_eq!(hops[1], 1);
        assert_eq!(hops[2], 1); // the direct heavy edge is 1 hop
        assert_eq!(hops[3], usize::MAX);
    }

    #[test]
    fn routing_table_next_hops() {
        let g = sample_graph();
        let table = routing_table(&g);
        assert_eq!(table[0][2], 1, "route 0→2 via 1");
        assert_eq!(table[2][0], 1);
        assert_eq!(table[0][1], 1);
        assert_eq!(table[0][3], usize::MAX);
        assert_eq!(table[0][0], usize::MAX);
    }

    #[test]
    fn dijkstra_on_path_graph_distances_accumulate() {
        let n = 10;
        let edges: Vec<Edge> = (1..n).map(|i| Edge::new(i - 1, i, 0.5)).collect();
        let g = AdjacencyList::from_edges(n, &edges);
        let sp = dijkstra(&g, 0);
        for v in 0..n {
            assert!((sp.dist[v] - 0.5 * v as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let g = AdjacencyList::from_edges(3, [Edge::new(0, 1, 0.0), Edge::new(1, 2, 0.0)]);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 0.0);
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
    }
}
