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
//! edge list). The fast path decides each of `u`'s links from the
//! coordinates of `N(u)` alone, with reusable per-worker scratch, no
//! allocation per node and no lookup in other nodes' lists, and fans
//! the per-node stage out over the shared executor. `udg` must be the
//! unit disk graph of `nodes` at some range.
//!
//! The two paths select the same nodes. Kruskal sorts the local edges by
//! `(weight, local lo, local hi)` — the [`Edge`] order, local ids 0 =
//! `u`, then the neighbours in index order. Distinct edges have distinct
//! triples, so the order `≺` is strict and the local MST unique: the
//! link `(u, v)` is on it exactly when no path joins `u` to `v` through
//! links that all precede `(u, v)`. Such a path leaves `u` by a link
//! `(u, w) ≺ (u, v)` and goes on inside `N(u)`; a link `(a, b)` there has
//! local lo at least 1, so it precedes `(u, v)` exactly when `dist(a, b)
//! < |uv|` strictly. That distance is at most the range, so `(a, b)` is
//! a UDG edge and the local graph holds it. Hence `v` is selected
//! exactly when no path of links shorter than `|uv|` inside `N(u)` joins
//! `v` to a neighbour `w` with `(u, w) ≺ (u, v)`: the fast path sorts
//! `N(u)` by `(weight, id)` once, tests each `v` against the earlier
//! neighbours directly, and searches further, through later neighbours,
//! only for the few that no earlier one reaches in one step. The
//! weights agree bit for bit: the UDG stores `dist(min, max)`, `dist`
//! is symmetric bit for bit, and the fast path compares the same
//! `dist` of the same coordinates. It emits the selection in Kruskal's
//! order.

use rim_core::receiver::Engine;
use rim_geom::Point;
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

/// Reusable per-worker scratch for the fast selection: `u`'s neighbours
/// in Kruskal's order with their coordinates, and the marks and stack of
/// the light-edge search. One instance serves a whole chunk of nodes
/// without reallocating once it has seen the chunk's largest
/// neighbourhood.
#[derive(Default)]
struct Neighbourhood {
    /// `(weight, id)` of each link of `u`, sorted: Kruskal's order on
    /// `u`'s links, whose local ids follow the global ones.
    links: Vec<(f64, usize)>,
    /// Coordinates of `links[i].1`.
    pts: Vec<Point>,
    /// Neighbours the light-edge search has reached.
    seen: Vec<bool>,
    /// Neighbours the light-edge search has yet to expand.
    stack: Vec<usize>,
    /// `u`'s selection, in Kruskal's order.
    sel: Vec<usize>,
}

/// `u`'s selection — the same nodes, in the same order, as
/// [`local_selection_naive`] (see the module docs) — from the
/// coordinates of `N(u)` alone: the `k`-th link `(u, v)` in Kruskal's
/// order is selected unless a path of links lighter than `|uv|` joins
/// `v` to one of the `k − 1` earlier neighbours. Most links meet such a
/// neighbour in one step; only the others search further, through
/// later neighbours.
// rim-lint: root
// rim-lint: allow(panic-freedom) — `links`, `pts` and `seen` have one entry per neighbour, and `k`, `a` and `m` index them
fn lmst_selection<'a>(
    nb: &'a mut Neighbourhood,
    nodes: &NodeSet,
    udg: &AdjacencyList,
    u: usize,
) -> &'a [usize] {
    nb.links.clear();
    nb.links.extend(udg.neighbors_weighted(u).map(|(v, weight)| (weight, v)));
    nb.links.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    nb.pts.clear();
    nb.pts.extend(nb.links.iter().map(|&(_, v)| nodes.pos(v)));
    nb.sel.clear();
    let d = nb.links.len();
    for k in 0..d {
        let (dk, v) = nb.links[k];
        // rim-lint: allow(float-eq) — the UDG stores dist() outputs, bit-identical
        debug_assert!(dk == nodes.dist(u, v), "udg is not the UDG of nodes");
        let pk = nb.pts[k];
        if nb.pts[..k].iter().any(|p| p.dist(&pk) < dk) {
            continue;
        }
        // No earlier neighbour is one light link away: search through
        // the later ones for a path that reaches one.
        nb.seen.clear();
        nb.seen.resize(d, false);
        nb.seen[k] = true;
        nb.stack.clear();
        nb.stack.push(k);
        let mut joined = false;
        'search: while let Some(a) = nb.stack.pop() {
            let pa = nb.pts[a];
            for m in 0..d {
                if !nb.seen[m] && nb.pts[m].dist(&pa) < dk {
                    if m < k {
                        joined = true;
                        break 'search;
                    }
                    nb.seen[m] = true;
                    nb.stack.push(m);
                }
            }
        }
        if !joined {
            nb.sel.push(v);
        }
    }
    &nb.sel
}

/// Builds the LMST topology over the UDG with an explicit [`Engine`]
/// (see the module docs for what each engine changes — never the
/// output, a differential-tested invariant).
// rim-lint: root
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
            // rim-lint: allow(panic-freedom) — `selections` has one entry per node, and `lmst_assemble` asks only for node ids
            lmst_assemble(nodes, variant, |u| &selections[u])
        }
        Engine::Auto => lmst_parallel(nodes, udg, variant, rim_par::auto_threads(nodes.len())),
    }
}

/// Fast construction across an explicit number of worker threads (`1`
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
        let mut nb = Neighbourhood::default();
        let (mut flat, mut ends) = (Vec::new(), Vec::with_capacity(range.len()));
        for u in range {
            flat.extend_from_slice(lmst_selection(&mut nb, nodes, udg, u));
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
    // rim-lint: allow(panic-freedom) — `start` holds `n + 1` ascending offsets into `flat`, and `lmst_assemble` asks only for node ids `u < n`
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

    /// The differential suite's families, drawn small: uniform fields,
    /// clusters, an exponential chain, a collinear walk, seven coincident
    /// sites and a dense square (neighbour lists of 100 and more).
    fn families() -> Vec<(String, NodeSet)> {
        let mut rng = rim_rng::SmallRng::seed_from_u64(17);
        let mut coord = |hi: f64| rng.gen_range(0.0..hi);
        let centres: Vec<Point> = (0..5).map(|_| Point::new(coord(2.0), coord(2.0))).collect();
        let clustered: Vec<Point> =
            (0..100).map(|i| centres[i % 5] + Point::new(coord(0.3), coord(0.3))).collect();
        let sites: Vec<Point> = (0..7).map(|_| Point::new(coord(2.0), coord(2.0))).collect();
        let mut x = 0.0;
        let collinear: Vec<f64> = (0..90)
            .map(|_| {
                x += coord(0.9);
                x
            })
            .collect();
        let chain: Vec<f64> = (0..40).map(|i| (2f64.powi(i) - 1.0) * 2f64.powi(-40)).collect();
        let mut cases: Vec<(String, NodeSet)> = [3u64, 8, 21]
            .iter()
            .map(|&seed| (format!("uniform/{seed}"), random_field(80, 2.0, seed)))
            .collect();
        cases.extend([
            ("clustered".to_string(), NodeSet::new(clustered)),
            ("exp-chain".to_string(), NodeSet::on_line(&chain)),
            ("collinear".to_string(), NodeSet::on_line(&collinear)),
            ("coincident".to_string(), NodeSet::new((0..60).map(|i| sites[i * 5 % 7]).collect())),
            ("dense".to_string(), random_field(160, 1.6, 5)),
        ]);
        cases
    }

    #[test]
    fn scratch_selection_equals_naive_selection() {
        for (family, ns) in families() {
            for range in [0.5, 1.0] {
                let udg = unit_disk_graph_with_range(&ns, range);
                let mut nb = Neighbourhood::default();
                for u in 0..ns.len() {
                    assert_eq!(
                        lmst_selection(&mut nb, &ns, &udg, u),
                        local_selection_naive(&ns, &udg, u),
                        "family={family} range={range} u={u}"
                    );
                }
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
            let mut nb = Neighbourhood::default();
            for u in 0..ns.len() {
                assert_eq!(
                    lmst_selection(&mut nb, &ns, &udg, u),
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
