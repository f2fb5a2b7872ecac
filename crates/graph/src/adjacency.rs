//! A compact undirected graph over vertices `0..n`.

use crate::edge::{key_pair, pair_key, Edge};
use std::borrow::Borrow;
use std::fmt;

/// An undirected graph with weighted edges, stored as per-vertex
/// neighbor lists.
///
/// Vertices are `0..n`. Parallel edges are rejected, self-loops are
/// forbidden. Neighbor lists are kept sorted by neighbor index, which makes
/// iteration deterministic and membership queries `O(log deg)`.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyList {
    /// `adj[u]` is sorted by neighbor index.
    adj: Vec<Vec<(u32, f64)>>,
    num_edges: usize,
}

/// Why [`AdjacencyList::try_from_edges`] refused an edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeListError {
    /// Edge `index` (0-based, in input order) is a self-loop or names a
    /// vertex outside `0..n`: the first such edge.
    Invalid {
        /// Position of the edge in the input.
        index: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Edge `index` repeats the pair of an earlier edge, in either
    /// orientation: the first edge in input order to do so. Only a list
    /// free of invalid edges fails this way.
    Duplicate {
        /// Position of the repeating edge in the input.
        index: usize,
        /// Smaller endpoint.
        u: usize,
        /// Larger endpoint.
        v: usize,
    },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EdgeListError::Invalid { index, u, v } => {
                write!(f, "edge {index} ({u}, {v}) is a self-loop or leaves the vertex range")
            }
            EdgeListError::Duplicate { u, v, .. } => write!(f, "duplicate edge ({u}, {v})"),
        }
    }
}

impl std::error::Error for EdgeListError {}

impl AdjacencyList {
    /// Creates an empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many vertices");
        AdjacencyList {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list, in any order: the bulk
    /// constructor (see [`AdjacencyList::try_from_edges`]). A self-loop,
    /// an out-of-range vertex or a duplicate edge is a bug in the
    /// topology constructor that produced the list, so it panics.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Edge>,
        I::IntoIter: Clone,
    {
        assert!(n <= u32::MAX as usize, "too many vertices");
        match Self::try_from_edges(n, edges) {
            Ok(g) => g,
            // rim-lint: allow(panic-freedom, no-unwrap-in-lib) — a refused list is a bug in the constructor that made it; untrusted input goes through `try_from_edges`
            Err(err) => panic!("{err}"),
        }
    }

    /// Builds a graph over `n <= u32::MAX` vertices from an edge list in
    /// any order, in bulk: one pass counts the degrees, each list is
    /// reserved at its exact size, a second pass pushes both copies of
    /// every edge, and each list is sorted by neighbour unless it already
    /// is (it is when the edges arrive in `(u, v)` order). The result
    /// equals [`AdjacencyList::add_edge`] called on each edge in turn,
    /// weights bit for bit.
    ///
    /// Fails, without panicking, on the first self-loop or out-of-range
    /// vertex in input order, and otherwise on the first edge that
    /// repeats an earlier pair. The edges are walked twice, through
    /// clones of one iterator.
    // rim-lint: allow(panic-freedom) — the counting pass checks every endpoint below `n = adj.len()`, and the push pass walks a clone of the same iterator
    pub fn try_from_edges<I>(n: usize, edges: I) -> Result<Self, EdgeListError>
    where
        I: IntoIterator,
        I::Item: Borrow<Edge>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut degree = vec![0usize; n];
        let mut num_edges = 0;
        for (index, e) in edges.clone().enumerate() {
            let &Edge { u, v, .. } = e.borrow();
            if u == v || u >= n || v >= n || u.max(v) > u32::MAX as usize {
                return Err(EdgeListError::Invalid { index, u, v });
            }
            degree[u] += 1;
            degree[v] += 1;
            num_edges += 1;
        }
        let mut adj: Vec<Vec<(u32, f64)>> = degree.into_iter().map(Vec::with_capacity).collect();
        for e in edges.clone() {
            let &Edge { u, v, weight } = e.borrow();
            adj[u].push((v as u32, weight));
            adj[v].push((u as u32, weight));
        }
        let mut repeated = false;
        for list in &mut adj {
            if !list.windows(2).all(|p| p[0].0 < p[1].0) {
                list.sort_unstable_by_key(|&(v, _)| v);
                repeated |= list.windows(2).any(|p| p[0].0 == p[1].0);
            }
        }
        match repeated.then(|| first_repeat(edges)).flatten() {
            Some(err) => Err(err),
            None => Ok(AdjacencyList { adj, num_edges }),
        }
    }

    /// Builds a graph from complete per-vertex neighbour lists: `lists[u]`
    /// holds `(v, weight)` for every neighbour `v` of `u`, strictly sorted
    /// by `v` and free of self-loops, and the lists are symmetric — `(v,
    /// w)` is in `lists[u]` exactly when `(u, w)` is in `lists[v]`, with
    /// the same weight bits. Bulk constructors that already hold each
    /// vertex's whole neighbourhood (the UDG build) hand it over here
    /// instead of making `m` [`AdjacencyList::add_edge`] calls, each with
    /// two binary-search `Vec::insert`s. Debug builds assert the contract.
    pub fn from_sorted_symmetric_lists(lists: Vec<Vec<(u32, f64)>>) -> Self {
        assert!(lists.len() <= u32::MAX as usize, "too many vertices");
        debug_assert_eq!(list_contract_violation(&lists), None);
        let degree_sum: usize = lists.iter().map(Vec::len).sum();
        AdjacencyList {
            adj: lists,
            num_edges: degree_sum / 2,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Appends a fresh isolated vertex and returns its index.
    ///
    /// Existing vertex indices are unaffected, so structures that maintain
    /// per-vertex state alongside the graph (interference counters, radii)
    /// can grow in lockstep.
    // rim-lint: allow(panic-freedom) — `adj` is non-empty right after the push
    pub fn add_vertex(&mut self) -> usize {
        assert!(self.adj.len() < u32::MAX as usize, "too many vertices");
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Inserts edge `{u, v}`; returns `false` if it already exists.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> bool {
        assert!(u != v, "self-loop at {u}");
        assert!(u < self.adj.len() && v < self.adj.len(), "vertex out of range");
        let pos_u = match self.adj[u].binary_search_by_key(&(v as u32), |&(w, _)| w) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.adj[u].insert(pos_u, (v as u32, weight));
        let pos_v = self.adj[v]
            .binary_search_by_key(&(u as u32), |&(w, _)| w)
            .unwrap_err();
        self.adj[v].insert(pos_v, (u as u32, weight));
        self.num_edges += 1;
        true
    }

    /// Removes edge `{u, v}`; returns `false` if it was absent.
    // rim-lint: root
    // rim-lint: allow(panic-freedom) — vertex ids are caller-validated; lists stay symmetric
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let Ok(pos_u) = self.adj[u].binary_search_by_key(&(v as u32), |&(w, _)| w) else {
            return false;
        };
        self.adj[u].remove(pos_u);
        let pos_v = self.adj[v]
            .binary_search_by_key(&(u as u32), |&(w, _)| w)
            // rim-lint: allow(no-unwrap-in-lib) — adjacency lists are kept symmetric
            .expect("asymmetric adjacency");
        self.adj[v].remove(pos_v);
        self.num_edges -= 1;
        true
    }

    /// Returns `true` if edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u]
            .binary_search_by_key(&(v as u32), |&(w, _)| w)
            .is_ok()
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj[u]
            .binary_search_by_key(&(v as u32), |&(w, _)| w)
            .ok()
            .map(|p| self.adj[u][p].1)
    }

    /// Degree of `u`.
    #[inline]
    // rim-lint: allow(panic-freedom) — vertex ids are caller-validated
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over the neighbors of `u` in ascending index order.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[u].iter().map(|&(v, _)| v as usize)
    }

    /// Iterates over `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn neighbors_weighted(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adj[u].iter().map(|&(v, w)| (v as usize, w))
    }

    /// Collects all edges, each once, sorted by `(u, v)`.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges);
        for u in 0..self.adj.len() {
            for &(v, w) in &self.adj[u] {
                if (v as usize) > u {
                    out.push(Edge::new(u, v as usize, w));
                }
            }
        }
        out
    }

    /// Frees the storage of `u`'s neighbour list if `u` is isolated: an
    /// emptied list keeps the capacity its edges grew. A structure that
    /// retires `u` for good calls this, so a later
    /// [`AdjacencyList::compact_vertices`] that drops `u` frees nothing.
    pub fn release_isolated(&mut self, u: usize) {
        if let Some(list) = self.adj.get_mut(u).filter(|list| list.is_empty()) {
            *list = Vec::new();
        }
    }

    /// Drops every vertex `u` with `dense[u] == u32::MAX` and renames
    /// each other vertex `u` to `dense[u]`, in place. `dense` has one
    /// entry per vertex and numbers the kept vertices `0..k` in ascending
    /// order, and every dropped vertex is isolated. Renaming is then
    /// monotone, so each list stays sorted, the lists stay symmetric and
    /// `num_edges` is unchanged: each kept list is renamed where it lies
    /// and moved down to its new index, with no new list and no sort.
    /// Debug builds assert the result's list contract.
    // rim-lint: allow(panic-freedom) — `dense` has one entry per vertex (asserted) and neighbours are vertices; a kept vertex moves down to an index at most its own
    pub fn compact_vertices(&mut self, dense: &[u32]) {
        assert_eq!(dense.len(), self.adj.len(), "one dense id per vertex");
        let mut kept = 0;
        for u in 0..self.adj.len() {
            let to = dense[u];
            if to == u32::MAX {
                continue;
            }
            let mut list = std::mem::take(&mut self.adj[u]);
            for (v, _) in &mut list {
                *v = dense[*v as usize];
            }
            self.adj[to as usize] = list;
            kept += 1;
        }
        self.adj.truncate(kept);
        debug_assert_eq!(list_contract_violation(&self.adj), None);
    }

    /// Largest incident edge weight of `u`, or `None` if isolated.
    ///
    /// In the interference model this is exactly the transmission radius
    /// `r_u` induced by a topology.
    // rim-lint: allow(panic-freedom) — vertex ids are caller-validated
    pub fn max_incident_weight(&self, u: usize) -> Option<f64> {
        self.adj[u]
            .iter()
            .map(|&(_, w)| w)
            .max_by(f64::total_cmp)
    }
}

/// The first edge of `edges` that repeats the pair of an earlier one,
/// found by sorting `(pair key, position)`: the answer is the smallest
/// second position among the runs of equal keys. Only the error path of
/// [`AdjacencyList::try_from_edges`] runs it, on vertex ids checked
/// below 2³².
fn first_repeat<I>(edges: I) -> Option<EdgeListError>
where
    I: Iterator,
    I::Item: Borrow<Edge>,
{
    let mut keyed: Vec<(u64, usize)> = edges
        .enumerate()
        .map(|(index, e)| (pair_key(e.borrow().u, e.borrow().v), index))
        .collect();
    keyed.sort_unstable();
    let (key, index) = keyed
        .windows(2)
        .filter_map(|p| match p {
            [(a, _), second @ (b, _)] if a == b => Some(*second),
            _ => None,
        })
        .min_by_key(|&(_, index)| index)?;
    let (u, v) = key_pair(key);
    Some(EdgeListError::Duplicate { index, u, v })
}

/// The first breach of the [`AdjacencyList::from_sorted_symmetric_lists`]
/// contract in `lists`, if any.
// rim-lint: allow(panic-freedom) — `v < n` is checked before `lists[v]` is read
fn list_contract_violation(lists: &[Vec<(u32, f64)>]) -> Option<String> {
    for (u, list) in lists.iter().enumerate() {
        for pair in list.windows(2) {
            if pair[0].0 >= pair[1].0 {
                let (a, b) = (pair[0].0, pair[1].0);
                return Some(format!("list {u} is not strictly sorted at {a} then {b}"));
            }
        }
        for &(v, w) in list {
            let v = v as usize;
            if v == u || v >= lists.len() {
                return Some(format!("list {u} holds invalid neighbour {v}"));
            }
            let mirrored = lists[v]
                .binary_search_by_key(&(u as u32), |&(x, _)| x)
                .is_ok_and(|p| lists[v][p].1.to_bits() == w.to_bits());
            if !mirrored {
                return Some(format!("edge {{{u}, {v}}} is not mirrored with equal weight"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = AdjacencyList::new(4);
        assert!(g.add_edge(0, 1, 1.0));
        assert!(g.add_edge(2, 1, 0.5));
        assert!(!g.add_edge(1, 0, 9.0), "duplicate rejected");
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn add_vertex_grows_without_disturbing_edges() {
        let mut g = AdjacencyList::new(2);
        g.add_edge(0, 1, 1.5);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(g.add_edge(2, 0, 0.5));
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn remove_edges() {
        let mut g = AdjacencyList::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn edges_are_listed_once_in_order() {
        let g = AdjacencyList::from_edges(
            4,
            [
                Edge::new(3, 2, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(1, 3, 0.25),
            ],
        );
        let pairs: Vec<_> = g.edges().iter().map(Edge::pair).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 3), (2, 3)]);
    }

    #[test]
    fn max_incident_weight_is_radius() {
        let mut g = AdjacencyList::new(3);
        g.add_edge(0, 1, 0.3);
        g.add_edge(0, 2, 0.7);
        assert_eq!(g.max_incident_weight(0), Some(0.7));
        assert_eq!(g.max_incident_weight(1), Some(0.3));
        let lonely = AdjacencyList::new(1);
        assert_eq!(lonely.max_incident_weight(0), None);
    }

    #[test]
    #[should_panic]
    fn self_loops_are_rejected() {
        AdjacencyList::new(2).add_edge(1, 1, 0.0);
    }

    #[test]
    fn sorted_symmetric_lists_match_add_edge() {
        let lists = vec![
            vec![(1, 0.5), (2, 1.0)],
            vec![(0, 0.5)],
            vec![(0, 1.0)],
            vec![],
        ];
        let g = AdjacencyList::from_sorted_symmetric_lists(lists);
        let mut want = AdjacencyList::new(4);
        want.add_edge(0, 2, 1.0);
        want.add_edge(1, 0, 0.5);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.edges(), want.edges());
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly sorted")]
    fn sorted_symmetric_lists_reject_unsorted_lists() {
        AdjacencyList::from_sorted_symmetric_lists(vec![
            vec![(2, 1.0), (1, 0.5)],
            vec![(0, 0.5)],
            vec![(0, 1.0)],
        ]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not mirrored")]
    fn sorted_symmetric_lists_reject_asymmetric_lists() {
        // Edge {0, 2} is missing from list 2.
        AdjacencyList::from_sorted_symmetric_lists(vec![
            vec![(1, 0.5), (2, 1.0)],
            vec![(0, 0.5)],
            vec![],
        ]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not mirrored")]
    fn sorted_symmetric_lists_reject_unequal_weights() {
        AdjacencyList::from_sorted_symmetric_lists(vec![vec![(1, 0.5)], vec![(0, 0.25)]]);
    }

    #[test]
    fn compact_vertices_renames_the_lists_in_place() {
        let mut state = 7u64;
        let mut rnd = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut g = AdjacencyList::new(16);
        for _ in 0..90 {
            let (u, v) = (rnd(16), rnd(16));
            if u != v {
                g.add_edge(u, v, 0.125 * (u * 16 + v) as f64);
            }
        }
        // Dropped vertices are isolated first, as departures are.
        let dropped = [0, 5, 6, 11, 15];
        for &u in &dropped {
            for v in g.neighbors(u).collect::<Vec<_>>() {
                g.remove_edge(u, v);
            }
            g.release_isolated(u);
            assert_eq!(g.adj[u].capacity(), 0);
        }
        // A vertex with edges keeps its list.
        let linked = g.edges()[0].u;
        g.release_isolated(linked);
        assert!(g.degree(linked) > 0);
        let mut dense = vec![u32::MAX; 16];
        for (i, u) in (0..16).filter(|u| !dropped.contains(u)).enumerate() {
            dense[u] = i as u32;
        }
        let mut want = AdjacencyList::new(11);
        for e in g.edges() {
            want.add_edge(dense[e.u] as usize, dense[e.v] as usize, e.weight);
        }
        let edges = g.num_edges();
        assert!(edges > 12, "{edges} edges");
        g.compact_vertices(&dense);
        assert_eq!((g.num_vertices(), g.num_edges()), (11, edges));
        assert_eq!(list_contract_violation(&g.adj), None, "sorted and symmetric");
        assert_eq!(g.edges(), want.edges());
        // Keeping every vertex changes nothing; dropping every one
        // leaves the empty graph.
        let before = g.edges();
        g.compact_vertices(&(0..11).collect::<Vec<u32>>());
        assert_eq!(g.edges(), before);
        let mut empty = AdjacencyList::new(3);
        empty.compact_vertices(&[u32::MAX; 3]);
        assert_eq!((empty.num_vertices(), empty.num_edges()), (0, 0));
    }

    #[test]
    #[should_panic]
    fn from_edges_rejects_duplicates() {
        AdjacencyList::from_edges(3, [Edge::new(0, 1, 1.0), Edge::new(1, 0, 1.0)]);
    }
}
