//! Differential-oracle tests for the construction pipeline.
//!
//! Per the workspace oracle policy (DESIGN.md §6/§7), the brute-force
//! witness scans are retained verbatim and every fast engine must
//! reproduce them **exactly** — same edge set, not approximately — on
//! six instance families: uniform, clustered, exponential-chain,
//! collinear, duplicate-coordinate (the degenerate ones stress boundary
//! ties, zero-length links and witnesses at the UDG range), and a dense
//! family whose neighbour lists run to 159 nodes.

use rim_geom::Point;
use rim_graph::mst::{kruskal, minimum_spanning_forest};
use rim_graph::Edge;
use rim_rng::SmallRng;
use rim_topology_control::gabriel::{is_gabriel_edge, is_gabriel_edge_naive};
use rim_topology_control::lmst::LmstVariant;
use rim_topology_control::rng::{is_rng_edge, is_rng_edge_naive};
use rim_topology_control::xtc::{keeps_edge, keeps_edge_merged};
use rim_topology_control::{lmst, Baseline, Engine};
use rim_udg::udg::{unit_disk_graph, unit_disk_graph_with_range};
use rim_udg::{NodeSet, Topology};

/// Canonical, order-independent edge-set view of a topology.
fn edge_set(t: &Topology) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = t.edges().iter().map(|e| e.pair()).collect();
    pairs.sort_unstable();
    pairs
}

fn uniform(n: usize, side: f64, seed: u64) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    NodeSet::new(
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect(),
    )
}

fn clustered(clusters: usize, per: usize, side: f64, seed: u64) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pts = Vec::new();
    for _ in 0..clusters {
        let cx = rng.gen_range(0.0..side);
        let cy = rng.gen_range(0.0..side);
        for _ in 0..per {
            pts.push(Point::new(
                cx + rng.gen_range(-0.15..0.15),
                cy + rng.gen_range(-0.15..0.15),
            ));
        }
    }
    NodeSet::new(pts)
}

/// Exponentially growing gaps on a line — the paper's chain family, whose
/// links span dozens of binary orders of magnitude.
fn exponential_chain(n: usize) -> NodeSet {
    let scale = 2f64.powi(-(n as i32));
    NodeSet::on_line(
        &(0..n)
            .map(|i| (2f64.powi(i as i32) - 1.0) * scale)
            .collect::<Vec<f64>>(),
    )
}

fn collinear(n: usize, seed: u64) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut x = 0.0;
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(x);
        x += rng.gen_range(0.05..0.9);
    }
    NodeSet::on_line(&xs)
}

/// Many nodes sharing few distinct coordinates: zero-length edges,
/// boundary ties, and duplicate witnesses everywhere.
fn duplicates(n: usize, seed: u64) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let distinct: Vec<Point> = (0..7)
        .map(|_| Point::new(rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)))
        .collect();
    NodeSet::new((0..n).map(|_| distinct[rng.gen_range(0..distinct.len())]).collect())
}

/// The six families, by name (names show up in assertion messages).
fn families() -> Vec<(&'static str, NodeSet)> {
    vec![
        ("uniform", uniform(140, 2.5, 7)),
        ("clustered", clustered(5, 24, 2.0, 11)),
        ("exp-chain", exponential_chain(40)),
        ("collinear", collinear(90, 3)),
        ("duplicate", duplicates(60, 19)),
        ("dense", dense()),
    ]
}

/// A dense uniform square: 260 nodes on a side of 2.2, so neighbour
/// lists hold up to 159 nodes (about 100 on average) and witnesses sit
/// deep inside them.
fn dense() -> NodeSet {
    let ns = uniform(260, 2.2, 5);
    let delta = unit_disk_graph(&ns).max_degree();
    assert!(delta >= 150, "the dense family has Δ = {delta} only");
    ns
}

/// The first five families drawn from `seed`, smaller than [`families`] so
/// that many seeds stay cheap in debug builds (the chain, which has no
/// randomness, varies its length instead).
fn seeded_families(seed: u64) -> Vec<(&'static str, NodeSet)> {
    vec![
        ("uniform", uniform(80, 2.5, seed)),
        ("clustered", clustered(4, 15, 2.0, seed)),
        ("exp-chain", exponential_chain(30 + seed as usize)),
        ("collinear", collinear(60, seed)),
        ("duplicate", duplicates(60, seed)),
    ]
}

/// The engine-sensitive baselines under differential test.
const PIPELINE_ALGOS: [Baseline; 5] = [
    Baseline::Gabriel,
    Baseline::Rng,
    Baseline::Lmst,
    Baseline::Xtc,
    Baseline::Yao6,
];

#[test]
fn every_engine_matches_the_naive_oracle_on_all_families() {
    for (family, ns) in families() {
        let udg = unit_disk_graph(&ns);
        for algo in PIPELINE_ALGOS {
            let oracle = edge_set(&algo.build_with(&ns, &udg, Engine::Naive));
            let fast = edge_set(&algo.build_with(&ns, &udg, Engine::Auto));
            assert_eq!(oracle, fast, "family={family} algo={}", algo.name());
        }
    }
}

#[test]
fn neighbour_list_witness_predicates_match_the_naive_scans_edge_by_edge() {
    // Witness completeness at every range: the neighbour-list tests scan
    // N(u) only, so a UDG at range 0.5, 1 or 2 must still hold every
    // witness the all-node scans find.
    for (family, ns) in families() {
        for range in [0.5, 1.0, 2.0] {
            let udg = unit_disk_graph_with_range(&ns, range);
            for e in udg.edges() {
                let (u, v) = e.pair();
                let at = format!("family={family} range={range} {{{u}, {v}}}");
                assert_eq!(
                    is_gabriel_edge_naive(&ns, u, v),
                    is_gabriel_edge(&ns, &udg, u, v),
                    "gabriel witness {at}"
                );
                assert_eq!(
                    is_rng_edge_naive(&ns, u, v),
                    is_rng_edge(&ns, &udg, u, v),
                    "rng lune {at}"
                );
                assert_eq!(
                    keeps_edge(&ns, &udg, u, v),
                    keeps_edge_merged(&ns, &udg, u, v),
                    "xtc merge {at}"
                );
            }
        }
    }
}

#[test]
fn lmst_union_variant_is_engine_invariant_too() {
    // Baseline::Lmst only exercises the intersection variant; the union
    // symmetrization shares the selection stage, so pin it separately.
    for (family, ns) in families() {
        let udg = unit_disk_graph(&ns);
        let oracle = edge_set(&lmst::lmst_with(&ns, &udg, LmstVariant::Union, Engine::Naive));
        let fast = edge_set(&lmst::lmst_with(&ns, &udg, LmstVariant::Union, Engine::Auto));
        assert_eq!(oracle, fast, "family={family}");
    }
}

#[test]
fn engine_insensitive_baselines_ignore_the_selection() {
    // The other baselines must be unaffected by build_with's engine.
    let ns = uniform(80, 2.0, 23);
    let udg = unit_disk_graph(&ns);
    for algo in [Baseline::Nnf, Baseline::Emst, Baseline::Life, Baseline::Cbtc] {
        let a = edge_set(&algo.build_with(&ns, &udg, Engine::Naive));
        let b = edge_set(&algo.build_with(&ns, &udg, Engine::Auto));
        assert_eq!(a, b, "algo={}", algo.name());
    }
}

#[test]
fn connectivity_guarantees_hold_on_all_families() {
    for seed in 0..20u64 {
        for (family, ns) in seeded_families(seed) {
            let udg = unit_disk_graph(&ns);
            for algo in Baseline::ALL.into_iter().filter(|b| b.guarantees_connectivity()) {
                assert!(
                    algo.build(&ns, &udg).preserves_connectivity_of(&udg),
                    "family={family} seed={seed} algo={}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn rdg_contains_the_gabriel_graph_on_all_families() {
    for seed in 0..20u64 {
        for (family, ns) in seeded_families(seed) {
            let udg = unit_disk_graph(&ns);
            let rdg = Baseline::Rdg.build(&ns, &udg);
            for e in Baseline::Gabriel.build(&ns, &udg).edges() {
                assert!(
                    rdg.graph().has_edge(e.u, e.v),
                    "family={family} seed={seed}: GG edge {{{}, {}}} missing from RDG",
                    e.u,
                    e.v
                );
            }
        }
    }
}

#[test]
fn emst_is_kruskals_forest_on_every_family_and_lattice_ties() {
    // The packed-key Kruskal must pick the oracle's forest edge for edge
    // and in order: on the families (coincident nodes give zero-length
    // ties), on ten seeds of the small ones, and on a scrambled integer
    // lattice at several ranges, whose few link lengths each recur
    // hundreds of times, so the endpoints decide most ties.
    let mut cases: Vec<(String, NodeSet, f64)> =
        families().into_iter().map(|(f, ns)| (f.to_string(), ns, 1.0)).collect();
    for seed in 0..10u64 {
        let seeded = seeded_families(seed).into_iter();
        cases.extend(seeded.map(|(f, ns)| (format!("{f}/{seed}"), ns, 1.0)));
    }
    let lattice = NodeSet::new(
        (0..225)
            .map(|i| (i * 37) % 225)
            .map(|j| Point::new((j % 15) as f64 * 0.5, (j / 15) as f64 * 0.5))
            .collect(),
    );
    for range in [0.5, 0.75, 1.0, 1.5] {
        cases.push((format!("lattice@{range}"), lattice.clone(), range));
    }
    for (family, ns, range) in cases {
        let udg = unit_disk_graph_with_range(&ns, range);
        let want = kruskal(ns.len(), &udg.edges());
        let bits = |f: &[Edge]| -> Vec<(usize, usize, u64)> {
            f.iter().map(|e| (e.u, e.v, e.weight.to_bits())).collect()
        };
        assert_eq!(bits(&minimum_spanning_forest(&udg)), bits(&want), "family={family}");
        let t = Baseline::Emst.build(&ns, &udg);
        let mut got: Vec<Edge> = t.edges();
        got.sort_unstable();
        let mut sorted_want = want.clone();
        sorted_want.sort_unstable();
        assert_eq!(bits(&got), bits(&sorted_want), "family={family}");
    }
}
