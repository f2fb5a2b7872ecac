//! Unit Disk Graph construction.

use crate::node_set::NodeSet;
use rim_graph::AdjacencyList;
use rim_geom::SoaGrid;

/// Builds the Unit Disk Graph of `nodes`: an edge `{u, v}` (weighted by
/// Euclidean distance) for every pair with `|uv| <= max_range`.
///
/// The paper normalizes the maximum transmission range to 1; pass
/// `max_range = 1.0` for the standard UDG. Construction scatters one
/// closed-disk query per node over a [`SoaGrid`] (the same grid the
/// interference engine uses, whose overloaded cells split on skewed
/// spreads) and runs in `O(n + m)` expected time for bounded densities.
/// From [`rim_par::AUTO_PARALLEL_MIN`] nodes on, the queries fan out
/// over [`rim_par::num_threads`] workers; the graph is the same for
/// every worker count.
pub fn unit_disk_graph_with_range(nodes: &NodeSet, max_range: f64) -> AdjacencyList {
    unit_disk_graph_threads(nodes, max_range, rim_par::auto_threads(nodes.len()))
}

/// [`unit_disk_graph_with_range`] over `threads` workers.
///
/// Each node's query yields its *whole* neighbour list, which is sorted
/// and handed to [`AdjacencyList::from_sorted_symmetric_lists`]. The
/// lists are symmetric because membership is `dist(p_v, p_u) <= range`
/// and `dist` is symmetric bit for bit (the coordinate differences only
/// change sign); every weight is `dist(min, max)` of the pair, so both
/// copies of an edge carry the same bits.
// rim-lint: allow(panic-freedom) — the range assert guards a caller contract; `par_map_ranges` only yields node ids below `nodes.len()`
pub(crate) fn unit_disk_graph_threads(
    nodes: &NodeSet,
    max_range: f64,
    threads: usize,
) -> AdjacencyList {
    assert!(max_range > 0.0 && max_range.is_finite());
    let n = nodes.len();
    if n < 2 {
        return AdjacencyList::new(n);
    }
    let index = SoaGrid::from_points(nodes.points(), max_range);
    let chunks = rim_par::par_map_ranges(n, threads, |range| {
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        range
            .map(|u| {
                scratch.clear();
                index.for_each_in_disk(nodes.pos(u), max_range, |v| {
                    if v != u {
                        scratch.push((v as u32, nodes.dist(u.min(v), u.max(v))));
                    }
                });
                scratch.sort_unstable_by_key(|&(v, _)| v);
                scratch.clone()
            })
            .collect::<Vec<_>>()
    });
    AdjacencyList::from_sorted_symmetric_lists(chunks.into_iter().flatten().collect())
}

/// Builds the standard Unit Disk Graph (`max_range = 1`).
pub fn unit_disk_graph(nodes: &NodeSet) -> AdjacencyList {
    unit_disk_graph_with_range(nodes, 1.0)
}

/// Maximum node degree `Δ` of the UDG — the quantity the paper's bounds
/// are expressed in (`O(√Δ)` interference, `O(Δ^{1/4})` approximation).
pub fn max_degree(udg: &AdjacencyList) -> usize {
    udg.max_degree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_graph::traversal::is_connected;

    #[test]
    fn edges_iff_within_unit_distance() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),  // exactly at range: edge
            Point::new(2.01, 0.0), // 1.01 from node 1: no edge
        ]);
        let g = unit_disk_graph(&ns);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut state = 7u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..150).map(|_| Point::new(rnd() * 3.0, rnd() * 3.0)).collect();
        let ns = NodeSet::new(pts);
        let g = unit_disk_graph(&ns);
        for u in 0..ns.len() {
            for v in (u + 1)..ns.len() {
                assert_eq!(
                    g.has_edge(u, v),
                    ns.dist(u, v) <= 1.0,
                    "u={u} v={v} d={}",
                    ns.dist(u, v)
                );
            }
        }
    }

    #[test]
    fn dense_cluster_is_complete() {
        let ns = NodeSet::on_line(&[0.0, 0.1, 0.2, 0.3]);
        let g = unit_disk_graph(&ns);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(max_degree(&g), 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn custom_range_scales_connectivity() {
        let ns = NodeSet::on_line(&[0.0, 2.0, 4.0]);
        assert_eq!(unit_disk_graph(&ns).num_edges(), 0);
        let g = unit_disk_graph_with_range(&ns, 2.0);
        assert_eq!(g.num_edges(), 2);
        assert!(is_connected(&g));
    }

    /// Five instance families above the parallel gate: uniform, clustered,
    /// an exponential chain (whose grid splits its overloaded cells),
    /// collinear, and duplicate coordinates.
    fn families() -> Vec<(&'static str, NodeSet)> {
        use rim_rng::SmallRng;
        let n = rim_par::AUTO_PARALLEL_MIN + 64;
        let mut rng = SmallRng::seed_from_u64(41);
        let mut coord = |hi: f64| rng.gen_range(0.0..hi);
        let uniform: Vec<Point> = (0..n).map(|_| Point::new(coord(22.0), coord(22.0))).collect();
        let centers: Vec<Point> = (0..32).map(|_| Point::new(coord(30.0), coord(30.0))).collect();
        let clustered = (0..n)
            .map(|i| {
                let c = centers[i % centers.len()];
                Point::new(c.x + coord(0.6), c.y + coord(0.6))
            })
            .collect();
        let chain: Vec<f64> = (0..n).map(|i| 1.01f64.powi(i as i32) - 1.0).collect();
        let mut x = 0.0;
        let collinear: Vec<f64> = (0..n)
            .map(|_| {
                x += coord(0.9);
                x
            })
            .collect();
        let sites: Vec<Point> = (0..300).map(|_| Point::new(coord(20.0), coord(20.0))).collect();
        let duplicate = (0..n).map(|i| sites[(i * 7919) % sites.len()]).collect();
        vec![
            ("uniform", NodeSet::new(uniform)),
            ("clustered", NodeSet::new(clustered)),
            ("exp-chain", NodeSet::on_line(&chain)),
            ("collinear", NodeSet::on_line(&collinear)),
            ("duplicate", NodeSet::new(duplicate)),
        ]
    }

    /// The UDG by an all-pairs scan, edges added in `(u, v)` order.
    fn brute_force_udg(ns: &NodeSet, range: f64) -> AdjacencyList {
        let mut g = AdjacencyList::new(ns.len());
        for u in 0..ns.len() {
            for v in (u + 1)..ns.len() {
                if ns.dist(u, v) <= range {
                    g.add_edge(u, v, ns.dist(u, v));
                }
            }
        }
        g
    }

    #[test]
    fn parallel_build_matches_brute_force_for_every_worker_count() {
        for (family, ns) in families() {
            if family == "exp-chain" {
                let index = SoaGrid::from_points(ns.points(), 1.0);
                assert!(index.split_cells() > 0, "the chain must split its overloaded cells");
            }
            let want = brute_force_udg(&ns, 1.0);
            let want_edges: Vec<(usize, usize, u64)> =
                want.edges().iter().map(|e| (e.u, e.v, e.weight.to_bits())).collect();
            assert!(want.num_edges() > ns.len() / 2, "family={family} is too sparse");
            for threads in 1..=8 {
                let g = unit_disk_graph_threads(&ns, 1.0, threads);
                let edges: Vec<(usize, usize, u64)> =
                    g.edges().iter().map(|e| (e.u, e.v, e.weight.to_bits())).collect();
                assert_eq!(edges, want_edges, "family={family} threads={threads}");
                assert_eq!(g.num_edges(), want.num_edges(), "family={family} threads={threads}");
                for u in 0..ns.len() {
                    assert!(
                        g.neighbors_weighted(u)
                            .map(|(v, w)| (v, w.to_bits()))
                            .eq(want.neighbors_weighted(u).map(|(v, w)| (v, w.to_bits()))),
                        "family={family} threads={threads} node={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(unit_disk_graph(&NodeSet::new(vec![])).num_vertices(), 0);
        let g = unit_disk_graph(&NodeSet::on_line(&[0.5]));
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
