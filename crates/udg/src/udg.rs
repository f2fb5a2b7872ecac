//! Unit Disk Graph construction, and its census without the adjacency.
//!
//! [`unit_disk_graph_with_range`] builds the neighbour lists from one
//! closed-disk query per node. [`udg_census`] runs the same queries but
//! keeps only what `rim analyze` prints: the edge count, the maximum
//! degree and the components. Given the components of a topology inside
//! the UDG as its seed, it unions only the UDG pairs that cross them,
//! none when the topology preserves connectivity.

use crate::node_set::NodeSet;
use rim_graph::{AdjacencyList, UnionFind};
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
// rim-lint: root
pub fn unit_disk_graph_with_range(nodes: &NodeSet, max_range: f64) -> AdjacencyList {
    unit_disk_graph_threads(nodes, max_range, rim_par::auto_threads(nodes.len()))
}

/// [`unit_disk_graph_with_range`] over `threads` workers.
///
/// Each node's query yields its *whole* neighbour list as bare ids, which
/// are sorted, then weighted into a list of exact size; the lists go to
/// [`AdjacencyList::from_sorted_symmetric_lists`]. They are symmetric
/// because membership is `dist(p_v, p_u) <= range`
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
        let mut ids: Vec<u32> = Vec::new();
        range
            .map(|u| {
                ids.clear();
                index.for_each_in_disk(nodes.pos(u), max_range, |v| {
                    if v != u {
                        ids.push(v as u32);
                    }
                });
                ids.sort_unstable();
                ids.iter()
                    .map(|&v| (v, nodes.dist(u.min(v as usize), u.max(v as usize))))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    AdjacencyList::from_sorted_symmetric_lists(chunks.into_iter().flatten().collect())
}

/// What `rim analyze` reports of a Unit Disk Graph, counted without
/// building its adjacency (see [`udg_census`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdgCensus {
    /// Number of edges.
    pub edges: usize,
    /// Maximum node degree `Δ`; 0 without edges.
    pub max_degree: usize,
    /// Component label per node, numbered in order of first appearance
    /// as [`rim_graph::traversal::components`] numbers them.
    pub labels: Vec<usize>,
}

/// The edge count, maximum degree and connected components of the UDG
/// with range `max_range` — the same graph as
/// [`unit_disk_graph_with_range`], without its adjacency lists.
///
/// `seed` labels every node with a class of a partition each of whose
/// classes lies inside one UDG component, labels below the node count:
/// the components of a topology that respects `max_range` (a subgraph of
/// the UDG, see [`crate::Topology::respects_range`]), or singletons
/// `0..n`, which always qualify. The UDG's partition is then the seed's
/// merged along the UDG pairs that cross it.
///
/// The same per-node closed-disk queries run over a [`SoaGrid`], node by
/// node in bucket order, on [`rim_par::auto_threads`] workers: a node's
/// hits other than itself are its degree, and each pair `{k, j}` of
/// bucket positions with `j > k` in different seed classes is stored and
/// fed once to a union-find over the classes. Sums, maxima and
/// first-appearance labels do not depend on the order of the pairs, so
/// the census is the same for every worker count and every valid seed.
// rim-lint: root
pub fn udg_census(nodes: &NodeSet, max_range: f64, seed: &[usize]) -> UdgCensus {
    udg_census_threads(nodes, max_range, seed, rim_par::auto_threads(nodes.len()))
}

/// [`udg_census`] over `threads` workers.
// rim-lint: allow(panic-freedom) — the range and seed asserts guard a caller contract; `par_map_ranges` yields positions below `nodes.len()`, and seed labels and union-find roots are below it too
pub(crate) fn udg_census_threads(
    nodes: &NodeSet,
    max_range: f64,
    seed: &[usize],
    threads: usize,
) -> UdgCensus {
    assert!(max_range > 0.0 && max_range.is_finite());
    let n = nodes.len();
    assert_eq!(seed.len(), n, "one seed label per node");
    let index = SoaGrid::from_points(nodes.points(), max_range);
    // Seed classes in bucket order, beside the coordinates the hits read.
    let class: Vec<usize> = (0..n).map(|k| seed[index.item(k)]).collect();
    let chunks = rim_par::par_map_ranges(n, threads, |range| {
        let (mut degrees, mut max_degree) = (0usize, 0usize);
        let mut crossing: Vec<(usize, usize)> = Vec::new();
        for k in range {
            let mut hits = 0usize;
            let ck = class[k];
            index.for_each_pos_in_disk(index.point_at(k), max_range, |j| {
                hits += 1;
                if j > k && class[j] != ck {
                    crossing.push((ck, class[j]));
                }
            });
            // The query point is its own hit, at distance 0.
            let degree = hits.saturating_sub(1);
            degrees += degree;
            max_degree = max_degree.max(degree);
        }
        (degrees, max_degree, crossing)
    });
    let mut sets = UnionFind::new(n);
    let (mut degrees, mut max_degree) = (0, 0);
    for (sum, max, crossing) in chunks {
        degrees += sum;
        max_degree = max_degree.max(max);
        for (a, b) in crossing {
            sets.union(a, b);
        }
    }
    let mut label_of_root = vec![usize::MAX; n];
    let mut next = 0;
    let labels = seed
        .iter()
        .map(|&c| {
            let root = sets.find(c);
            if label_of_root[root] == usize::MAX {
                label_of_root[root] = next;
                next += 1;
            }
            label_of_root[root]
        })
        .collect();
    UdgCensus { edges: degrees / 2, max_degree, labels }
}

/// Builds the standard Unit Disk Graph (`max_range = 1`).
pub fn unit_disk_graph(nodes: &NodeSet) -> AdjacencyList {
    unit_disk_graph_with_range(nodes, 1.0)
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
        assert_eq!(g.max_degree(), 3);
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
    fn census_matches_the_built_graph_for_every_worker_count() {
        use rim_graph::traversal::{components, num_components, same_partition};
        let mut components_seen = 0;
        for (family, ns) in families() {
            let g = unit_disk_graph_threads(&ns, 1.0, 1);
            let labels = components(&g);
            components_seen += num_components(&g);
            // Seeds: singletons, the UDG's own components, and the
            // components of two subgraphs that split them.
            let sub = |keep: fn(usize, usize) -> bool| {
                let kept = g.edges().into_iter().filter(|e| keep(e.u, e.v));
                components(&AdjacencyList::from_edges(ns.len(), kept))
            };
            let seeds = [
                ("singletons", (0..ns.len()).collect()),
                ("udg", labels.clone()),
                ("thinned", sub(|u, v| (u + 2 * v) % 3 != 0)),
                ("sparse", sub(|u, v| (u ^ v) % 7 == 1)),
            ];
            let classes = |seed: &[usize]| seed.iter().max().map_or(0, |m| m + 1);
            assert!(classes(&seeds[3].1) > num_components(&g), "family={family}: no split");
            for (name, seed) in &seeds {
                for threads in 1..=8 {
                    let census = udg_census_threads(&ns, 1.0, seed, threads);
                    let at = format!("family={family} seed={name} threads={threads}");
                    assert_eq!(census.edges, g.num_edges(), "{at}");
                    assert_eq!(census.max_degree, g.max_degree(), "{at}");
                    assert_eq!(census.labels, labels, "{at}");
                    assert!(same_partition(&census.labels, &labels), "{at}");
                }
            }
        }
        assert!(components_seen > 5, "the families must hold several components");
    }

    #[test]
    fn census_of_small_instances() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 0.5, 3.0, 3.75, 9.0]);
        let singletons: Vec<usize> = (0..ns.len()).collect();
        let census = udg_census(&ns, 1.0, &singletons);
        assert_eq!((census.edges, census.max_degree), (4, 2));
        assert_eq!(census.labels, vec![0, 0, 0, 1, 1, 2]);
        // A topology that splits a UDG component seeds the same census.
        let split = crate::Topology::from_pairs(ns.clone(), &[(0, 2)]);
        assert!(split.respects_range(1.0));
        let seed = rim_graph::traversal::components(split.graph());
        assert_eq!(udg_census(&ns, 1.0, &seed), census);
        // A long link joins two UDG components: its topology is no
        // subgraph of the UDG, so singletons seed the census instead.
        let long = crate::Topology::from_pairs(ns.clone(), &[(0, 1), (1, 3)]);
        assert!(!long.respects_range(1.0));
        let none = udg_census(&NodeSet::new(vec![]), 1.0, &[]);
        assert_eq!((none.edges, none.max_degree, none.labels.len()), (0, 0, 0));
        assert_eq!(udg_census(&NodeSet::on_line(&[2.0]), 1.0, &[0]).labels, vec![0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(unit_disk_graph(&NodeSet::new(vec![])).num_vertices(), 0);
        let g = unit_disk_graph(&NodeSet::on_line(&[0.5]));
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
