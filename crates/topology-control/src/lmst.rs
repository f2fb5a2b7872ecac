//! LMST — the local MST-based topology control of Li, Hou and Sha
//! (INFOCOM 2003), reference \[9\] of the paper.
//!
//! Every node `u` computes the Euclidean MST of its closed 1-hop
//! neighborhood `N(u) ∪ {u}` and *selects* the nodes adjacent to it on
//! that local tree. The output keeps a UDG edge `{u, v}` when the
//! endpoints' selections agree:
//!
//! * [`LmstVariant::Intersection`] (`G₀⁻`): both selected each other —
//!   the degree-bounded variant (≤ 6 in general position);
//! * [`LmstVariant::Union`] (`G₀⁺`): either selected the other.
//!
//! Li–Hou–Sha prove both preserve the UDG's connectivity; the
//! intersection variant is the default here. Like every construction of
//! its generation, LMST contains the Nearest Neighbor Forest (a node's
//! nearest neighbor is its first local-MST edge), so Theorem 4.1 of the
//! reproduced paper applies to it.
//!
//! Engines: the naive path re-runs the original per-node construction
//! (fresh allocations, `O(deg)` adjacency probes). The fast path feeds
//! the *identical* local edge list to the same Kruskal through reusable
//! scratch buffers and an `O(1)` per-node local-id map, so selections —
//! and therefore the output — are equal by construction, and fans the
//! per-node stage out over the shared executor with one scratch per
//! worker.

use rim_core::receiver::Engine;
use rim_graph::mst::kruskal;
use rim_graph::{AdjacencyList, Edge};
use rim_udg::{NodeSet, Topology};

/// Which symmetrization of the directed local-MST selections to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmstVariant {
    /// Keep `{u, v}` iff `u` selected `v` **and** `v` selected `u`.
    Intersection,
    /// Keep `{u, v}` iff `u` selected `v` **or** `v` selected `u`.
    Union,
}

/// The nodes `u` selects: its neighbors on the MST of `N(u) ∪ {u}`.
/// Original allocation-per-node construction — the retained oracle path
/// the scratch-buffer implementation is differential-tested against.
fn local_selection_naive(nodes: &NodeSet, udg: &AdjacencyList, u: usize) -> Vec<usize> {
    // Local vertex ids: 0 = u, then the UDG neighbors in index order.
    let locals: Vec<usize> = std::iter::once(u).chain(udg.neighbors(u)).collect();
    if locals.len() == 1 {
        return Vec::new();
    }
    let mut edges = Vec::new();
    for a in 0..locals.len() {
        for b in (a + 1)..locals.len() {
            let (ga, gb) = (locals[a], locals[b]);
            // The local graph is the UDG induced on N(u) ∪ {u}.
            if ga == u || gb == u || udg.has_edge(ga, gb) {
                edges.push(Edge::new(a, b, nodes.dist(ga, gb)));
            }
        }
    }
    let mst = kruskal(locals.len(), &edges);
    mst.iter()
        .filter(|e| e.touches(0))
        .map(|e| locals[e.other(0)])
        .collect()
}

/// Reusable per-worker scratch for the fast local-MST stage: the
/// global→local id map (sentinel-reset between nodes), a local
/// adjacency mark row, and the local vertex/edge buffers. One instance
/// serves a whole chunk of nodes without reallocating.
struct Scratch {
    /// `local_id[g]` = local index of global node `g`, or `usize::MAX`.
    local_id: Vec<usize>,
    /// `adj[b]` = is local vertex `b` a UDG neighbor of the current `a`.
    adj: Vec<bool>,
    /// Local vertex ids: `locals[0] = u`, then the neighbors in order.
    locals: Vec<usize>,
    /// Local edge list handed to Kruskal.
    edges: Vec<Edge>,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            local_id: vec![usize::MAX; n],
            adj: Vec::new(),
            locals: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Computes `u`'s selection, producing the exact edge list (same
    /// order, same weights) as [`local_selection_naive`] — adjacency is
    /// answered by the mark row instead of `O(deg)` `has_edge` probes.
    fn selection(&mut self, nodes: &NodeSet, udg: &AdjacencyList, u: usize) -> Vec<usize> {
        self.locals.clear();
        self.locals.push(u);
        self.locals.extend(udg.neighbors(u));
        let len = self.locals.len();
        if len == 1 {
            return Vec::new();
        }
        for (i, &g) in self.locals.iter().enumerate() {
            self.local_id[g] = i;
        }
        if self.adj.len() < len {
            self.adj.resize(len, false);
        }
        self.edges.clear();
        for a in 0..len {
            let ga = self.locals[a];
            // Edges incident to u (a == 0) exist unconditionally; for the
            // others, mark ga's local neighbors for O(1) membership tests.
            if ga != u {
                for w in udg.neighbors(ga) {
                    let id = self.local_id[w];
                    if id != usize::MAX {
                        self.adj[id] = true;
                    }
                }
            }
            for b in (a + 1)..len {
                if ga == u || self.adj[b] {
                    let gb = self.locals[b];
                    self.edges.push(Edge::new(a, b, nodes.dist(ga, gb)));
                }
            }
            if ga != u {
                for w in udg.neighbors(ga) {
                    let id = self.local_id[w];
                    if id != usize::MAX {
                        self.adj[id] = false;
                    }
                }
            }
        }
        let mst = kruskal(len, &self.edges);
        let sel = mst
            .iter()
            .filter(|e| e.touches(0))
            .map(|e| self.locals[e.other(0)])
            .collect();
        for &g in &self.locals {
            self.local_id[g] = usize::MAX;
        }
        sel
    }
}

/// Builds the LMST topology over the UDG with an explicit [`Engine`]
/// (see the module docs for what each engine changes — never the
/// output, a differential-tested invariant).
pub fn lmst_with(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    variant: LmstVariant,
    engine: Engine,
) -> Topology {
    match engine {
        Engine::Naive | Engine::PhysicalNaive => {
            let selections = (0..nodes.len())
                .map(|u| local_selection_naive(nodes, udg, u))
                .collect();
            lmst_assemble(nodes, udg, variant, selections)
        }
        Engine::Auto | Engine::PhysicalIndexed => {
            lmst_parallel(nodes, udg, variant, rim_par::auto_threads(nodes.len()))
        }
    }
}

/// Scratch-buffer construction across an explicit number of worker
/// threads (`1` = inline), one scratch per worker. The edge set is
/// independent of `threads` by construction.
pub fn lmst_parallel(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    variant: LmstVariant,
    threads: usize,
) -> Topology {
    let n = nodes.len();
    let selections = rim_par::par_map_ranges(n, threads, |range| {
        let mut scratch = Scratch::new(n);
        range
            .map(|u| scratch.selection(nodes, udg, u))
            .collect::<Vec<Vec<usize>>>()
    })
    .into_iter()
    .flatten()
    .collect();
    lmst_assemble(nodes, udg, variant, selections)
}

/// Symmetrizes the selections into the output topology. Selection lists
/// are sorted once so the agreement test is a `binary_search`, not a
/// linear scan (quadratic blow-up on dense instances otherwise).
fn lmst_assemble(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    variant: LmstVariant,
    mut selections: Vec<Vec<usize>>,
) -> Topology {
    for s in &mut selections {
        s.sort_unstable();
    }
    let selected = |u: usize, v: usize| selections[u].binary_search(&v).is_ok();
    let mut g = AdjacencyList::new(nodes.len());
    for e in udg.edges() {
        let keep = match variant {
            LmstVariant::Intersection => selected(e.u, e.v) && selected(e.v, e.u),
            LmstVariant::Union => selected(e.u, e.v) || selected(e.v, e.u),
        };
        if keep {
            g.add_edge(e.u, e.v, e.weight);
        }
    }
    Topology::from_graph(nodes.clone(), g)
}

/// Builds the LMST topology over the UDG ([`Engine::Auto`]) — the
/// default entry point.
pub fn lmst(nodes: &NodeSet, udg: &AdjacencyList, variant: LmstVariant) -> Topology {
    lmst_with(nodes, udg, variant, Engine::Auto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    fn random_field(n: usize, side: f64, seed: u64) -> NodeSet {
        let mut state = seed;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        NodeSet::new((0..n).map(|_| Point::new(rnd() * side, rnd() * side)).collect())
    }

    #[test]
    fn both_variants_preserve_connectivity() {
        for seed in 1..5u64 {
            let ns = random_field(70, 2.0, seed);
            let udg = unit_disk_graph(&ns);
            for variant in [LmstVariant::Intersection, LmstVariant::Union] {
                let t = lmst(&ns, &udg, variant);
                assert!(
                    t.preserves_connectivity_of(&udg),
                    "seed={seed} variant={variant:?}"
                );
            }
        }
    }

    #[test]
    fn intersection_is_subgraph_of_union() {
        let ns = random_field(60, 2.0, 9);
        let udg = unit_disk_graph(&ns);
        let inter = lmst(&ns, &udg, LmstVariant::Intersection);
        let union = lmst(&ns, &udg, LmstVariant::Union);
        for e in inter.edges() {
            assert!(union.graph().has_edge(e.u, e.v));
        }
        assert!(inter.num_edges() <= union.num_edges());
    }

    #[test]
    fn contains_the_nnf() {
        let ns = random_field(60, 2.0, 12);
        let udg = unit_disk_graph(&ns);
        let t = lmst(&ns, &udg, LmstVariant::Intersection);
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn degree_is_small_in_general_position() {
        let ns = random_field(120, 2.5, 4);
        let udg = unit_disk_graph(&ns);
        let t = lmst(&ns, &udg, LmstVariant::Intersection);
        assert!(
            t.graph().max_degree() <= 6,
            "LMST degree bound violated: {}",
            t.graph().max_degree()
        );
    }

    #[test]
    fn chain_is_kept_verbatim() {
        let ns = NodeSet::on_line(&[0.0, 0.4, 0.8, 1.2]);
        let udg = unit_disk_graph(&ns);
        let t = lmst(&ns, &udg, LmstVariant::Intersection);
        assert_eq!(t.num_edges(), 3);
    }

    #[test]
    fn isolated_node_selects_nothing() {
        let ns = NodeSet::on_line(&[0.0, 5.0, 5.3]);
        let udg = unit_disk_graph(&ns);
        let t = lmst(&ns, &udg, LmstVariant::Intersection);
        assert_eq!(t.graph().degree(0), 0);
        assert!(t.graph().has_edge(1, 2));
    }

    #[test]
    fn scratch_selection_equals_naive_selection() {
        for seed in [3u64, 8, 21] {
            let ns = random_field(80, 2.0, seed);
            let udg = unit_disk_graph(&ns);
            let mut scratch = Scratch::new(ns.len());
            for u in 0..ns.len() {
                assert_eq!(
                    scratch.selection(&ns, &udg, u),
                    local_selection_naive(&ns, &udg, u),
                    "seed={seed} u={u}"
                );
            }
        }
    }

    #[test]
    fn every_engine_builds_the_same_graph() {
        let ns = random_field(90, 2.2, 14);
        let udg = unit_disk_graph(&ns);
        for variant in [LmstVariant::Intersection, LmstVariant::Union] {
            let oracle = lmst_with(&ns, &udg, variant, Engine::Naive);
            for e in Engine::ALL {
                let t = lmst_with(&ns, &udg, variant, e);
                assert_eq!(oracle.edges(), t.edges(), "engine {} {variant:?}", e.name());
            }
        }
    }
}
