//! Property-based tests for the graph substrate (seeded in-repo
//! harness, `rim_rng::prop`).

#![allow(clippy::needless_range_loop)] // node-id-indexed loops by design
use rim_graph::adjacency::{AdjacencyList, EdgeListError};
use rim_graph::edge::Edge;
use rim_graph::mst::{kruskal, prim, total_weight};
use rim_graph::shortest_path::{dijkstra, hop_distances};
use rim_graph::traversal::{components, is_connected, num_components};
use rim_graph::tree::is_forest;
use rim_graph::union_find::UnionFind;
use rim_rng::prop::check_default;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};

/// A random simple graph as a deduplicated edge list over `n` vertices.
fn arb_graph(rng: &mut SmallRng) -> (usize, Vec<Edge>) {
    let n = rng.gen_range(2usize..30);
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0usize..60) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue; // no self-loops
        }
        let (u, v) = (a.min(b), a.max(b));
        if seen.insert((u, v)) {
            edges.push(Edge::new(u, v, rng.gen_range(0.0f64..10.0)));
        }
    }
    (n, edges)
}

#[test]
fn mst_weight_agrees_between_kruskal_and_prim() {
    check_default("mst_weight_agrees_between_kruskal_and_prim", arb_graph, |(n, edges)| {
        let g = AdjacencyList::from_edges(*n, edges);
        let k = kruskal(*n, edges);
        let p = prim(&g);
        prop_ensure_eq!(k.len(), p.len());
        prop_ensure!((total_weight(&k) - total_weight(&p)).abs() < 1e-9);
        // An MSF is a forest preserving the component structure.
        let kg = AdjacencyList::from_edges(*n, &k);
        prop_ensure!(is_forest(&kg));
        prop_ensure_eq!(num_components(&kg), num_components(&g));
        Ok(())
    });
}

#[test]
fn union_find_matches_bfs_components() {
    check_default("union_find_matches_bfs_components", arb_graph, |(n, edges)| {
        let g = AdjacencyList::from_edges(*n, edges);
        let labels = components(&g);
        let mut uf = UnionFind::new(*n);
        for e in edges {
            uf.union(e.u, e.v);
        }
        for a in 0..*n {
            for b in 0..*n {
                prop_ensure_eq!(labels[a] == labels[b], uf.connected(a, b));
            }
        }
        prop_ensure_eq!(uf.components(), num_components(&g));
        Ok(())
    });
}

#[test]
fn dijkstra_satisfies_triangle_inequality() {
    check_default("dijkstra_satisfies_triangle_inequality", arb_graph, |(n, edges)| {
        let g = AdjacencyList::from_edges(*n, edges);
        let sp = dijkstra(&g, 0);
        // Relaxed edges cannot improve any distance further.
        for e in edges {
            if sp.dist[e.u].is_finite() {
                prop_ensure!(sp.dist[e.v] <= sp.dist[e.u] + e.weight + 1e-9);
            }
            if sp.dist[e.v].is_finite() {
                prop_ensure!(sp.dist[e.u] <= sp.dist[e.v] + e.weight + 1e-9);
            }
        }
        // Reachability agrees with BFS.
        let hops = hop_distances(&g, 0);
        for v in 0..*n {
            prop_ensure_eq!(sp.dist[v].is_finite(), hops[v] != usize::MAX);
        }
        Ok(())
    });
}

#[test]
fn connectivity_iff_single_component() {
    check_default("connectivity_iff_single_component", arb_graph, |(n, edges)| {
        let g = AdjacencyList::from_edges(*n, edges);
        prop_ensure_eq!(is_connected(&g), num_components(&g) == 1);
        Ok(())
    });
}

#[test]
fn edges_roundtrip_through_adjacency() {
    check_default("edges_roundtrip_through_adjacency", arb_graph, |(n, edges)| {
        let g = AdjacencyList::from_edges(*n, edges);
        let mut want: Vec<(usize, usize)> = edges.iter().map(Edge::pair).collect();
        want.sort_unstable();
        let got: Vec<(usize, usize)> = g.edges().iter().map(Edge::pair).collect();
        prop_ensure_eq!(got, want);
        Ok(())
    });
}

/// A random edge list in random order and orientation, with repeated
/// pairs (in either orientation) about half the time.
fn arb_edge_list(rng: &mut SmallRng) -> (usize, Vec<Edge>) {
    let n = rng.gen_range(2usize..24);
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0usize..70) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            // `Edge::new` normalizes; the raw fields keep the orientation.
            let weight = rng.gen_range(0.0f64..4.0);
            edges.push(Edge { u: a, v: b, weight });
        }
    }
    if rng.gen_bool(0.5) {
        // Drop repeats, keeping each pair's first edge, so the list is
        // accepted.
        let mut seen = std::collections::HashSet::new();
        edges.retain(|e| seen.insert((e.u.min(e.v), e.u.max(e.v))));
    }
    (n, edges)
}

#[test]
fn bulk_build_equals_repeated_add_edge() {
    check_default("bulk_build_equals_repeated_add_edge", arb_edge_list, |(n, edges)| {
        let mut want = AdjacencyList::new(*n);
        let first_repeat = edges.iter().position(|e| !want.add_edge(e.u, e.v, e.weight));
        match (AdjacencyList::try_from_edges(*n, edges), first_repeat) {
            (Ok(g), None) => {
                prop_ensure_eq!(g.num_edges(), want.num_edges());
                for u in 0..*n {
                    let bits = |g: &AdjacencyList| -> Vec<(usize, u64)> {
                        g.neighbors_weighted(u).map(|(v, w)| (v, w.to_bits())).collect()
                    };
                    prop_ensure_eq!(bits(&g), bits(&want));
                }
                prop_ensure_eq!(g.edges(), want.edges());
            }
            (Err(EdgeListError::Duplicate { index, u, v }), Some(first)) => {
                let e = edges[first];
                prop_ensure_eq!((index, u, v), (first, e.u.min(e.v), e.u.max(e.v)));
            }
            (got, want) => return Err(format!("bulk build {got:?}, add_edge repeat {want:?}")),
        }
        Ok(())
    });
}

#[test]
fn bulk_build_names_the_first_invalid_edge() {
    let ok = Edge::new(0, 1, 1.0);
    let cases = [
        (vec![ok, Edge { u: 2, v: 2, weight: 0.0 }, Edge { u: 0, v: 9, weight: 0.0 }], 1),
        (vec![ok, ok, Edge { u: 0, v: 3, weight: 0.0 }], 2),
        (vec![Edge { u: usize::MAX, v: 0, weight: 0.0 }], 0),
    ];
    for (edges, at) in cases {
        match AdjacencyList::try_from_edges(3, &edges) {
            Err(EdgeListError::Invalid { index, .. }) => assert_eq!(index, at, "{edges:?}"),
            other => panic!("{edges:?} gave {other:?}"),
        }
    }
}
