//! `rim-core` — the paper's primary contribution: a **receiver-centric,
//! robust interference model** for wireless ad-hoc networks.
//!
//! Von Rickenbach, Schmid, Wattenhofer and Zollinger (IPDPS 2005) define
//! the interference experienced by a node `v` under a topology `G'` as the
//! number of *other* nodes whose transmission disks cover `v`:
//!
//! ```text
//! I(v) = |{ u ∈ V \ {v} : v ∈ D(u, r_u) }|        (Definition 3.1)
//! I(G') = max_{v ∈ V} I(v)                        (Definition 3.2)
//! ```
//!
//! where `r_u` is the distance from `u` to its farthest neighbor in `G'`.
//! Two properties distinguish this measure from the earlier
//! *sender-centric* link-coverage measure of Burkhart et al. (MobiHoc
//! 2004), which is also implemented here for comparison:
//!
//! 1. it counts interference **where collisions happen** — at receivers;
//! 2. it is **robust**: adding one node increases any other node's
//!    interference by at most one ([`robustness`]).
//!
//! Module map:
//!
//! * [`receiver`] — Definitions 3.1/3.2 (the naive oracle and the fast
//!   kernel behind [`receiver::Engine`]),
//! * [`stream`] — the fast kernel: a structure-of-arrays scatter that
//!   needs no edge list, from a topology or straight from points with
//!   nearest-neighbour radii at 10⁶–10⁷ nodes,
//! * [`parallel`] — the machine's worker count, from `rim-par`,
//! * [`sender`] — the link-coverage measure of \[2\] for comparison,
//! * [`dynamic`] — incrementally maintained interference under link
//!   insertions/removals,
//! * [`gathering`] — directed data-gathering trees, the sensor-network
//!   setting the model originated in (reference \[4\]),
//! * [`robustness`] — add/remove-node interference deltas (Figure 1),
//! * [`optimal`] — exact minimum-interference connected topologies by
//!   branch-and-bound over radius assignments,
//! * [`analysis`] — interference summaries used by the experiments.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// Node ids double as indices throughout this workspace; indexed loops
// over `0..n` mirror the paper's notation and often touch several arrays.
#![allow(clippy::needless_range_loop)]

/// Interference summaries and sanity bounds for experiment reporting.
pub mod analysis;
/// Incrementally maintained interference under link insertions/removals.
pub mod dynamic;
/// Data-gathering trees — the setting the interference model came from.
pub mod gathering;
/// Exact minimum-interference connected topologies (branch and bound).
pub mod optimal;
/// The machine's worker count ([`rim_par::num_threads`]).
pub mod parallel;
/// The receiver-centric interference measure (Definitions 3.1 and 3.2).
pub mod receiver;
/// Streaming million-node interference kernel (UDG-free, SoA layout).
pub mod stream;
/// Robustness of the interference measure under node arrival/departure.
pub mod robustness;
/// The sender-centric link-coverage measure of Burkhart et al. (MobiHoc 2004).
pub mod sender;

pub use analysis::InterferenceSummary;
pub use optimal::{min_interference_topology, OptimalResult, SolverLimits};
pub use dynamic::{DynState, DynamicInterference};
pub use receiver::{
    graph_interference, graph_interference_with, interference_at, interference_vector,
    interference_vector_naive, interference_vector_with, Engine,
};
pub use sender::{edge_coverage, sender_graph_interference};
pub use stream::{sqrt_log_envelope, StreamInstance};
