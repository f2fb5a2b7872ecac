//! Graph substrate for the `rim` workspace.
//!
//! Topology control is, at its core, "given a network graph, construct a
//! subgraph with desired properties" (Section 2 of the paper). This crate
//! provides the graph machinery the rest of the workspace builds on — all
//! implemented from scratch:
//!
//! * [`AdjacencyList`] — a compact undirected graph over `0..n` vertices,
//! * [`Edge`] — weighted undirected edges with deterministic ordering,
//! * [`UnionFind`] — disjoint sets with union by rank + path compression,
//! * [`traversal`] — BFS/DFS, connected components, connectivity checks,
//! * [`mst`] — Kruskal and Prim minimum spanning trees/forests,
//! * [`shortest_path`] — Dijkstra, hop counts, next-hop routing tables,
//! * [`tree`] — tree predicates, tree paths, diameters,
//! * [`properties`] — degree statistics and stretch factors,
//! * [`biconnectivity`] — bridges and cut vertices (robustness reports).

#![forbid(unsafe_code)]

// Node ids double as indices throughout this workspace; indexed loops
// over `0..n` mirror the paper's notation and often touch several arrays.
#![allow(clippy::needless_range_loop)]

pub mod adjacency;
pub mod biconnectivity;
pub mod edge;
pub mod mst;
pub mod properties;
pub mod shortest_path;
pub mod traversal;
pub mod tree;
pub mod union_find;

pub use adjacency::{AdjacencyList, EdgeListError};
pub use edge::Edge;
pub use union_find::UnionFind;
