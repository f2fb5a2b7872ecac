//! `rim` — **R**obust **I**nterference **M**odel for wireless ad-hoc
//! networks.
//!
//! A faithful, tested reproduction of *"A Robust Interference Model for
//! Wireless Ad-Hoc Networks"* (Pascal von Rickenbach, Stefan Schmid,
//! Roger Wattenhofer, Aaron Zollinger — IPDPS/IPPS 2005), together with
//! every substrate it needs: geometry, graphs, the unit-disk-graph
//! network model, classic topology-control baselines, the highway-model
//! algorithms, an exact optimum solver, and a packet-level MAC simulator.
//!
//! # Quick start
//!
//! ```
//! use rim::prelude::*;
//!
//! // Five nodes on a line within mutual range.
//! let nodes = NodeSet::on_line(&[0.0, 0.1, 0.3, 0.6, 1.0]);
//! let udg = unit_disk_graph(&nodes);
//!
//! // A connectivity-preserving topology: the Euclidean MST.
//! let mst = rim::topology_control::emst::euclidean_mst(&nodes, &udg);
//! assert!(mst.preserves_connectivity_of(&udg));
//!
//! // Receiver-centric interference (Definitions 3.1 / 3.2).
//! let i = graph_interference(&mst);
//! assert!(i >= 1 && i <= udg.max_degree());
//! ```
//!
//! # Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`geom`] | points, spatial indices |
//! | [`graph`] | adjacency lists, MST, shortest paths, connectivity |
//! | [`udg`] | node sets, unit disk graphs, radius-induced topologies |
//! | [`interference`] | the receiver-centric model, the sender-centric comparison model, robustness, exact optimum |
//! | [`phys`] | the SINR physical model over the disk model: path loss, shadowing, SINR reception |
//! | [`topology_control`] | NNF, MST, Gabriel, RNG, Yao, XTC, LIFE |
//! | [`highway`] | exponential chains, `A_exp`, `A_gen`, `A_apx`, `γ`, bounds |
//! | [`proto`] | localized message-passing protocols (XTC/LMST/NNF) |
//! | [`viz`] | SVG rendering of topologies and arc diagrams |
//! | [`sim`] | slot-synchronous MAC simulator on the disk model |
//! | [`workloads`] | deterministic instance generators |
//! | [`obs`] | spans, counters, histograms (no-op unless a recorder is installed) |

#![forbid(unsafe_code)]

pub use rim_core as interference;
pub use rim_geom as geom;
pub use rim_graph as graph;
pub use rim_highway as highway;
pub use rim_obs as obs;
pub use rim_phys as phys;
pub use rim_proto as proto;
pub use rim_viz as viz;
pub use rim_sim as sim;
pub use rim_topology_control as topology_control;
pub use rim_udg as udg;
pub use rim_workloads as workloads;

/// The most common imports, bundled.
pub mod prelude {
    pub use rim_core::analysis::InterferenceSummary;
    pub use rim_core::dynamic::DynamicInterference;
    pub use rim_core::optimal::{min_interference_topology, SolverLimits};
    pub use rim_core::receiver::{
        graph_interference, graph_interference_with, interference_at, interference_vector,
        interference_vector_naive, interference_vector_with, Engine,
    };
    pub use rim_core::sender::sender_graph_interference;
    pub use rim_geom::Point;
    pub use rim_highway::{a_apx, a_exp, a_gen, exponential_chain, gamma, HighwayInstance};
    pub use rim_sim::{MacConfig, SimConfig, Simulator, TrafficConfig};
    pub use rim_topology_control::Baseline;
    pub use rim_udg::udg::{unit_disk_graph, unit_disk_graph_with_range};
    pub use rim_udg::{NodeSet, Topology};
}
