//! Classic topology-control algorithms — the baselines of the paper.
//!
//! Section 4 of von Rickenbach et al. (IPDPS 2005) observes that, with one
//! exception, all known topology-control algorithms producing symmetric
//! links have every node connect to (at least) its nearest neighbor — they
//! *contain the Nearest Neighbor Forest* — and proves (Theorem 4.1) that
//! this alone already costs a factor `Ω(n)` in receiver-centric
//! interference. This crate implements those baselines so the claim can be
//! measured:
//!
//! | Algorithm | Module | Contains NNF? |
//! |---|---|---|
//! | Nearest Neighbor Forest | [`nnf`] | — (it *is* the NNF) |
//! | Euclidean MST (on the UDG) | [`emst`] | yes |
//! | Gabriel Graph | [`gabriel`] | yes |
//! | Relative Neighborhood Graph | [`rng`] | yes |
//! | Yao Graph | [`yao`] | yes |
//! | XTC (Wattenhofer & Zollinger) | [`xtc`] | yes |
//! | LIFE (Burkhart et al., the noted exception) | [`life`] | no |
//! | LMST (Li–Hou–Sha, reference \[9\]) | [`lmst`] | yes |
//! | CBTC(2π/3) (reference \[18\]) | [`cbtc`] | yes |
//! | KNeigh (k-nearest, symmetric) | [`kneigh`] | yes (given reciprocity) |
//! | Restricted Delaunay Graph (reference \[10\]) | [`rdg`] | yes |
//!
//! All constructors take a [`NodeSet`] plus its UDG and return a
//! [`Topology`] that is a subgraph of the UDG. MST, Gabriel, RNG, Yao,
//! XTC and LIFE preserve the UDG's connectivity; the NNF itself does not
//! (it is a forest that may split a UDG component — the other algorithms
//! *contain* it and add the edges that reconnect it).

//!
//! Construction is engine-selectable: Gabriel/RNG witness predicates,
//! LMST's per-node local MSTs, XTC's edge filter, and Yao's cone
//! selection all run `naive | auto` (see [`pipeline`] and
//! [`Baseline::build_with`]); both produce the same topology — a
//! differential-tested invariant — and the naive witness scans are
//! retained verbatim as oracles. The `auto` paths work straight off the
//! UDG's sorted neighbour lists: every Gabriel, RNG or XTC witness of a
//! UDG edge `{u, v}` lies in `N(u)`, LMST decides `u`'s links from the
//! coordinates of `N(u)`, and Yao finds cones by sign tests; no spatial
//! index is built.

#![forbid(unsafe_code)]

pub mod cbtc;
pub mod emst;
pub mod gabriel;
pub mod kneigh;
pub mod life;
pub mod lmst;
pub mod nnf;
pub mod pipeline;
pub mod rdg;
pub mod rng;
pub mod xtc;
pub mod yao;

pub use rim_core::receiver::Engine;

use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// The baseline algorithms, as a closed enumeration for sweeps/benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Nearest Neighbor Forest.
    Nnf,
    /// Euclidean minimum spanning tree of the UDG.
    Emst,
    /// Gabriel graph (intersected with the UDG).
    Gabriel,
    /// Relative neighborhood graph (intersected with the UDG).
    Rng,
    /// Yao graph with 6 cones.
    Yao6,
    /// XTC.
    Xtc,
    /// LIFE — low-interference forest w.r.t. the sender-centric measure.
    Life,
    /// LMST (local-MST, intersection variant) — reference \[9\].
    Lmst,
    /// CBTC with `α = 2π/3` — reference \[18\].
    Cbtc,
    /// KNeigh with `k = 9` (connectivity only w.h.p.).
    Kneigh9,
    /// Restricted Delaunay Graph — reference \[10\].
    Rdg,
}

impl Baseline {
    /// All baselines, in presentation order.
    pub const ALL: [Baseline; 11] = [
        Baseline::Nnf,
        Baseline::Emst,
        Baseline::Gabriel,
        Baseline::Rng,
        Baseline::Yao6,
        Baseline::Xtc,
        Baseline::Life,
        Baseline::Lmst,
        Baseline::Cbtc,
        Baseline::Kneigh9,
        Baseline::Rdg,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Nnf => "NNF",
            Baseline::Emst => "MST",
            Baseline::Gabriel => "GG",
            Baseline::Rng => "RNG",
            Baseline::Yao6 => "Yao6",
            Baseline::Xtc => "XTC",
            Baseline::Life => "LIFE",
            Baseline::Lmst => "LMST",
            Baseline::Cbtc => "CBTC",
            Baseline::Kneigh9 => "KNei9",
            Baseline::Rdg => "RDG",
        }
    }

    /// Does this construction guarantee connectivity preservation?
    /// (`Nnf` is a forest by design; `Kneigh9` preserves connectivity
    /// only with high probability.)
    pub fn guarantees_connectivity(self) -> bool {
        !matches!(self, Baseline::Nnf | Baseline::Kneigh9)
    }

    /// Runs the algorithm on the fast path ([`Engine::Auto`]).
    pub fn build(self, nodes: &NodeSet, udg: &AdjacencyList) -> Topology {
        self.build_with(nodes, udg, Engine::Auto)
    }

    /// Runs the algorithm with an explicit construction [`Engine`].
    ///
    /// `udg` must be the unit disk graph of `nodes` at some range, as
    /// [`rim_udg::udg::unit_disk_graph_with_range`] builds it: `{u, v}`
    /// is an edge exactly when `u != v` and `dist(u, v) <= range`, with
    /// weight `dist(min, max)`. The fast paths look for witnesses only in
    /// the UDG neighbour lists, which that contract makes complete.
    ///
    /// Gabriel, RNG, LMST, XTC and Yao honour the selection (identical
    /// output on every engine — only speed differs); the remaining
    /// baselines have no engine-sensitive stage and ignore it.
    pub fn build_with(self, nodes: &NodeSet, udg: &AdjacencyList, engine: Engine) -> Topology {
        let _span = rim_obs::span(self.name());
        match self {
            Baseline::Nnf => nnf::nearest_neighbor_forest(nodes, udg),
            Baseline::Emst => emst::euclidean_mst(nodes, udg),
            Baseline::Gabriel => gabriel::gabriel_graph_with(nodes, udg, engine),
            Baseline::Rng => rng::relative_neighborhood_graph_with(nodes, udg, engine),
            Baseline::Yao6 => yao::yao_graph_with(nodes, udg, 6, engine),
            Baseline::Xtc => xtc::xtc_with(nodes, udg, engine),
            Baseline::Life => life::life(nodes, udg),
            Baseline::Lmst => {
                lmst::lmst_with(nodes, udg, lmst::LmstVariant::Intersection, engine)
            }
            Baseline::Cbtc => cbtc::cbtc(nodes, udg, cbtc::ALPHA_CONNECTIVITY),
            Baseline::Kneigh9 => kneigh::kneigh(nodes, udg, 9),
            Baseline::Rdg => rdg::restricted_delaunay(nodes, udg),
        }
    }
}
