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
//! (fresh allocations, `O(deg)` adjacency probes, Kruskal over the local
//! edge list). The fast path runs Prim from `u` over `N[u]` straight off
//! the UDG's neighbour lists, with reusable per-worker scratch and no
//! allocation per node, and fans the per-node stage out over the shared
//! executor. `udg` must be the unit disk graph of `nodes` at some range.
//!
//! The two paths select the same nodes. Kruskal sorts the local edges by
//! `(weight, local lo, local hi)` — the [`Edge`] order — and Prim orders
//! its keys by the same triple. Distinct edges have distinct triples, so
//! the order is strict, the local MST is unique, and both algorithms
//! find it. The weights agree bit for bit: the UDG stores `dist(min,
//! max)` for every pair, which equals the `nodes.dist(ga, gb)` Kruskal
//! receives because `dist` is symmetric bit for bit. Prim also visits
//! `u`'s tree neighbours in Kruskal's order: when it adds the child `c₂`
//! of `u`, every child `c₁` with a smaller link has a key no larger than
//! that link, so it was added first. Only those children matter, so Prim
//! stops as soon as no node outside the tree still has its link to `u`
//! as its key.

use rim_core::receiver::Engine;
use rim_graph::edge::pair_key;
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

/// Prim's key for a node outside the tree: its lightest known link into
/// the tree, as the Kruskal order `(weight, local lo, local hi)` (local
/// ids: 0 = `u`, `i + 1` = the `i`-th neighbour of `u`).
#[derive(Clone, Copy)]
struct Key {
    weight: f64,
    lo: u32,
    hi: u32,
}

impl Key {
    /// The key of a node in the tree: it precedes every link, so no
    /// relaxation replaces it.
    const SETTLED: Key = Key {
        weight: f64::NEG_INFINITY,
        lo: 0,
        hi: 0,
    };

    /// The strict total order of [`Edge::cmp_by_weight`].
    fn precedes(&self, other: &Key) -> bool {
        self.weight
            .total_cmp(&other.weight)
            .then(self.lo.cmp(&other.lo))
            .then(self.hi.cmp(&other.hi))
            .is_lt()
    }
}

/// Reusable per-worker scratch for the fast local-MST stage: the
/// global→local id map (reset after each node) and Prim's state over
/// `N[u]`. One instance serves a whole chunk of nodes without
/// reallocating once it has seen the chunk's largest neighbourhood.
struct Scratch {
    /// `local[g]` = local id of global node `g`: `i + 1` for the `i`-th
    /// neighbour of `u`, and 0 for `u` itself and every node outside
    /// `N(u)`.
    local: Vec<u32>,
    /// Global node of each local id.
    ids: Vec<usize>,
    /// Prim key of each local id; [`Key::SETTLED`] for `u` and for every
    /// node already in the tree.
    key: Vec<Key>,
    /// Local ids not yet in the tree.
    open: Vec<usize>,
    /// `u`'s selection, in Kruskal's order.
    sel: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            local: vec![0; n],
            ids: Vec::new(),
            key: Vec::new(),
            open: Vec::new(),
            sel: Vec::new(),
        }
    }

    /// Computes `u`'s selection — the same nodes, in the same order, as
    /// [`local_selection_naive`] (see the module docs) — by Prim from `u`
    /// over `N[u]`: `u`'s links seed the keys, and each node that joins
    /// the tree relaxes the keys of its UDG neighbours inside `N(u)`.
    ///
    /// Prim stops once no open node's key is its link to `u`: keys only
    /// ever drop to links from nodes other than `u`, so no later node can
    /// join the tree as a child of `u`.
    // rim-lint: allow(panic-freedom) — `local` has one slot per node, local ids index `ids` and `key`, and `open` is non-empty while `rooted > 0`
    fn selection(&mut self, nodes: &NodeSet, udg: &AdjacencyList, u: usize) -> &[usize] {
        self.ids.clear();
        self.key.clear();
        self.open.clear();
        self.sel.clear();
        self.ids.push(u);
        self.key.push(Key::SETTLED);
        for (v, weight) in udg.neighbors_weighted(u) {
            // rim-lint: allow(float-eq) — the UDG stores dist() outputs, bit-identical
            debug_assert!(weight == nodes.dist(u, v), "udg is not the UDG of nodes");
            let id = self.ids.len();
            self.local[v] = id as u32;
            self.ids.push(v);
            self.key.push(Key { weight, lo: 0, hi: id as u32 });
            self.open.push(id);
        }
        // Open nodes whose key is still their link to u.
        let mut rooted = self.open.len();
        while rooted > 0 {
            let mut best = 0;
            for k in 1..self.open.len() {
                if self.key[self.open[k]].precedes(&self.key[self.open[best]]) {
                    best = k;
                }
            }
            let a = self.open.swap_remove(best);
            if self.key[a].lo == 0 {
                self.sel.push(self.ids[a]);
                rooted -= 1;
            }
            self.key[a] = Key::SETTLED;
            for (g, weight) in udg.neighbors_weighted(self.ids[a]) {
                // Nodes outside N(u) map to u's settled slot: a no-op.
                let b = self.local[g];
                let link = Key { weight, lo: (a as u32).min(b), hi: (a as u32).max(b) };
                let slot = &mut self.key[b as usize];
                if link.precedes(slot) {
                    rooted -= usize::from(slot.lo == 0);
                    *slot = link;
                }
            }
        }
        for &g in &self.ids[1..] {
            self.local[g] = 0;
        }
        &self.sel
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
        Engine::Naive => {
            let selections: Vec<Vec<usize>> = (0..nodes.len())
                .map(|u| local_selection_naive(nodes, udg, u))
                .collect();
            lmst_assemble(nodes, variant, |u| &selections[u])
        }
        Engine::Auto => lmst_parallel(nodes, udg, variant, rim_par::auto_threads(nodes.len())),
    }
}

/// Prim construction across an explicit number of worker threads (`1`
/// = inline), one scratch and one flat selection buffer per worker. The
/// edge set is independent of `threads` by construction.
pub fn lmst_parallel(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    variant: LmstVariant,
    threads: usize,
) -> Topology {
    let n = nodes.len();
    let chunks = rim_par::par_map_ranges(n, threads, |range| {
        let mut scratch = Scratch::new(n);
        let (mut flat, mut ends) = (Vec::new(), Vec::with_capacity(range.len()));
        for u in range {
            flat.extend_from_slice(scratch.selection(nodes, udg, u));
            ends.push(flat.len());
        }
        (flat, ends)
    });
    let mut flat = Vec::new();
    let mut start = Vec::with_capacity(n + 1);
    start.push(0);
    for (chunk, ends) in chunks {
        start.extend(ends.iter().map(|end| flat.len() + end));
        flat.extend(chunk);
    }
    lmst_assemble(nodes, variant, |u| &flat[start[u]..start[u + 1]])
}

/// Symmetrizes the selections `sel(u)` into the output topology by
/// walking them in node order and emitting each kept pair once, as a
/// pair key: the intersection keeps `{u, v}` for each `v > u` in
/// `sel(u)` with `u ∈ sel(v)`; the union keeps every selected pair,
/// emitted from its smaller end when both ends selected each other.
/// The `contains` scan is short: two of `u`'s tree neighbours at
/// distinct positions subtend at least 60° at `u`, so a selection holds
/// at most 6 of them, plus the nodes coincident with `u`, which it always
/// selects.
fn lmst_assemble<'a>(
    nodes: &NodeSet,
    variant: LmstVariant,
    sel: impl Fn(usize) -> &'a [usize],
) -> Topology {
    let mut keys = Vec::new();
    for u in 0..nodes.len() {
        for &v in sel(u) {
            let keep = match variant {
                LmstVariant::Intersection => v > u && sel(v).contains(&u),
                LmstVariant::Union => v > u || !sel(v).contains(&u),
            };
            if keep {
                keys.push(pair_key(u, v));
            }
        }
    }
    Topology::from_pair_keys(nodes.clone(), keys)
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
    use rim_udg::udg::{unit_disk_graph, unit_disk_graph_with_range};

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
    fn lattice_ties_select_like_kruskal() {
        // Every link length of an integer lattice recurs many times, so
        // the local MSTs are fixed by the (weight, lo, hi) tie order; the
        // ids are scrambled so that order is not the geometric one.
        let pts = (0..49)
            .map(|i| (i * 19) % 49)
            .map(|j| Point::new((j % 7) as f64, (j / 7) as f64))
            .collect();
        let ns = NodeSet::new(pts);
        for range in [1.0, 1.5, 2.0, 2.5, 3.0] {
            let udg = unit_disk_graph_with_range(&ns, range);
            let mut scratch = Scratch::new(ns.len());
            for u in 0..ns.len() {
                assert_eq!(
                    scratch.selection(&ns, &udg, u),
                    local_selection_naive(&ns, &udg, u),
                    "range={range} u={u}"
                );
            }
            for variant in [LmstVariant::Intersection, LmstVariant::Union] {
                let oracle = lmst_with(&ns, &udg, variant, Engine::Naive);
                let fast = lmst_with(&ns, &udg, variant, Engine::Auto);
                assert_eq!(oracle.edges(), fast.edges(), "range={range} {variant:?}");
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
