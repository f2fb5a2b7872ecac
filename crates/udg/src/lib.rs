//! The network model of the paper: Unit Disk Graphs and symmetric
//! transmission-radius topologies.
//!
//! Section 3 of von Rickenbach et al. (IPDPS 2005) models the wireless
//! network as a Unit Disk Graph `G = (V, E)` — nodes are points in the
//! plane, with an edge `{u, v}` iff `|uv| <= 1` — and a *resulting
//! topology* as a connectivity-preserving subgraph `G' ⊆ G` consisting of
//! symmetric edges. Each node's transmission radius is then
//! `r_u = max_{v ∈ N_u} |uv|` (distance to its farthest neighbor in `G'`).
//!
//! This crate provides:
//!
//! * [`NodeSet`] — an immutable set of node positions with cached pairwise
//!   helpers,
//! * [`unit_disk_graph`] — UDG construction (grid-accelerated), and
//!   [`udg_census`], its edge count, maximum degree and components
//!   without the adjacency,
//! * [`Topology`] — an edge set plus the radii it induces, with the
//!   validity predicates used throughout the workspace,
//! * [`radius`] — radius assignments and the symmetric graphs they induce
//!   (the search space of the exact optimum solver).

#![forbid(unsafe_code)]

pub mod io;
pub mod node_set;
pub mod radius;
pub mod topology;
pub mod udg;

pub use node_set::NodeSet;
pub use topology::Topology;
pub use udg::{udg_census, unit_disk_graph, UdgCensus};
