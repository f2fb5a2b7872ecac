//! The sender-centric link-coverage interference measure of Burkhart et
//! al. (MobiHoc 2004) — reference \[2\] of the paper.
//!
//! That model charges interference to *links*: communication over an edge
//! `{u, v}` is assumed to happen at power just sufficient to bridge the
//! link in both directions, affecting every node within distance `|uv|`
//! of either endpoint. The measure of a topology is the worst link:
//!
//! ```text
//! Cov(u, v) = |{ w ∈ V : w ∈ D(u, |uv|) ∪ D(v, |uv|) }|
//! I_sender(G') = max_{{u,v} ∈ E'} Cov(u, v)
//! ```
//!
//! Endpoints themselves are counted as covered (they trivially are), so
//! the maximum possible value is `n` — the convention matching the
//! paper's Figure 1 narrative, where a single added node pushes the
//! measure from a small constant up to "the total number of network
//! nodes". The introduction's criticism, which `rim` exists to quantify,
//! is twofold: coverage is charged at the *sender* side, and the measure
//! can jump by `Θ(n)` when one node is added ([`crate::robustness`]).
//!
//! [`edge_coverage`] counts one link by scanning every node — the
//! retained oracle. [`coverage_vector`](crate::sender::coverage_vector)
//! counts every link over one grid scan of its box (LIFE needs them
//! all). [`sender_graph_interference`] needs only the largest: it bounds
//! every link by the length of its box scan and counts exactly only the
//! links whose bound can still beat the best count: from one link in 10
//! (Yao6) to one in 110 (LMST) on the benchmark's 20 000-node uniform
//! field.

use rim_geom::{Point, SoaGrid};
use rim_graph::Edge;
use rim_udg::Topology;

/// Coverage of the (hypothetical or actual) link `{u, v}`: how many nodes
/// lie in `D(u, |uv|) ∪ D(v, |uv|)`, endpoints included.
///
/// This is the `O(n)` per-edge reference; [`coverage_vector`] batches the
/// same computation over all edges through a spatial index and is tested
/// to agree exactly.
pub fn edge_coverage(t: &Topology, u: usize, v: usize) -> usize {
    assert!(u != v, "coverage of a self-loop");
    let nodes = t.nodes();
    let d_sq = nodes.dist_sq(u, v);
    let pu = nodes.pos(u);
    let pv = nodes.pos(v);
    let mut count = 0;
    for w in 0..nodes.len() {
        let pw = nodes.pos(w);
        if pw.dist_sq(&pu) <= d_sq || pw.dist_sq(&pv) <= d_sq {
            count += 1;
        }
    }
    count
}

/// Sender-centric interference of a topology: the maximum link coverage,
/// or 0 for edgeless topologies — `max(coverage_vector(t))`, counting
/// only the links that can hold the maximum.
///
/// A link's box runs ([`SoaGrid::for_each_link_run`], the scan of
/// [`coverage_vector`]) hold every node it covers, each once, so the sum
/// of their lengths bounds its coverage from above without reading a
/// coordinate. Every link's bound is taken first (sharded over
/// [`rim_par::auto_threads`] workers); then a link with the largest
/// bound is counted exactly, and after it, in edge order, only the links
/// whose bound beats the best count so far. A link skipped has coverage
/// at most its bound, at most the best, so the maximum is
/// `coverage_vector`'s for any order and any worker count. The links
/// counted exactly add up in `core.sender_exact_links`.
pub fn sender_graph_interference(t: &Topology) -> usize {
    worst_link_coverage(t, rim_par::auto_threads(t.num_nodes()))
}

/// [`sender_graph_interference`] with the bounds taken over `threads`
/// workers.
// rim-lint: allow(panic-freedom) — `par_map_ranges` only yields edge indices below `edges.len()`, and `bounds` has one entry per edge
pub(crate) fn worst_link_coverage(t: &Topology, threads: usize) -> usize {
    let edges = t.edges();
    if edges.is_empty() {
        return 0;
    }
    let nodes = t.nodes();
    // The grid of `coverage_vector`: cells of the median link length.
    let hint = {
        let mut lens: Vec<f64> = edges.iter().map(|e| e.weight).collect();
        crate::receiver::upper_median(&mut lens)
    };
    let index = SoaGrid::from_points(nodes.points(), hint);
    let bounds = rim_par::par_map_ranges(edges.len(), threads, |range| {
        edges[range]
            .iter()
            .map(|e| {
                let (pu, pv) = (nodes.pos(e.u), nodes.pos(e.v));
                let mut bound = 0;
                index.for_each_link_run(pu, pv, nodes.dist_sq(e.u, e.v).sqrt(), |xs, _| {
                    bound += xs.len();
                });
                bound
            })
            .collect::<Vec<usize>>()
    })
    .concat();
    // `coverage_vector`'s count of one link, on the same runs.
    let coverage = |e: &Edge| {
        let (pu, pv) = (nodes.pos(e.u), nodes.pos(e.v));
        let d_sq = nodes.dist_sq(e.u, e.v);
        let mut count = 0usize;
        index.for_each_link_run(pu, pv, d_sq.sqrt(), |xs, ys| {
            for (&x, &y) in xs.iter().zip(ys) {
                let w = Point::new(x, y);
                count += usize::from((w.dist_sq(&pu) <= d_sq) | (w.dist_sq(&pv) <= d_sq));
            }
        });
        count
    };
    let first = (0..edges.len()).max_by_key(|&i| bounds[i]).unwrap_or(0);
    let mut best = coverage(&edges[first]);
    let mut exact = 1u64;
    for (i, e) in edges.iter().enumerate() {
        if i != first && bounds[i] > best {
            best = best.max(coverage(e));
            exact += 1;
        }
    }
    rim_obs::counter_add("core.sender_exact_links", exact);
    best
}

/// Per-edge coverages, in the order of [`Topology::edges`], batched over
/// a spatial index.
///
/// Each link `{u, v}` of length `d` walks the index once, over the runs
/// of [`SoaGrid::for_each_link_run`]: the box spanning both endpoints'
/// disk queries of radius `d`. Every candidate is tested once, without a
/// branch, by [`edge_coverage`]'s own predicate, `dist_sq(w, u) <= d_sq
/// || dist_sq(w, v) <= d_sq` on raw squared distances, so each node is
/// counted once and the two agree bit for bit, boundary ties included.
/// The box misses no covered node: correctly rounded `sqrt` is
/// monotone, so `dist_sq(w, u) <= d_sq` implies `dist(w, u) <= d` with
/// `d = sqrt(d_sq)`, which makes `w` a hit of the distance-level disk
/// query `D(u, d)`, and the box holds that query's cells (likewise for
/// `v`). Expected cost `O(n + Σ_e |box(e)|)` instead of `O(n·m)`.
///
/// From [`rim_par::AUTO_PARALLEL_MIN`] nodes on, the edges are sharded
/// over [`rim_par::num_threads`] workers; each coverage is a pure
/// function of its edge, so the vector is the same for every worker
/// count. Each shard counts its scanned candidates and its covered
/// nodes once, as `core.sender_candidates` and `core.sender_hits`.
pub fn coverage_vector(t: &Topology) -> Vec<usize> {
    coverage_vector_threads(t, rim_par::auto_threads(t.num_nodes()))
}

/// [`coverage_vector`] over `threads` workers.
// rim-lint: allow(panic-freedom) — `par_map_ranges` only yields edge indices below `edges.len()`
pub(crate) fn coverage_vector_threads(t: &Topology, threads: usize) -> Vec<usize> {
    let edges = t.edges();
    if edges.is_empty() {
        return Vec::new();
    }
    let nodes = t.nodes();
    // Cell hint: the median link length — the dominant query radius.
    let mut lens: Vec<f64> = edges.iter().map(|e| e.weight).collect();
    let hint = crate::receiver::upper_median(&mut lens);
    let index = SoaGrid::from_points(nodes.points(), hint);
    let shards = rim_par::par_map_ranges(edges.len(), threads, |range| {
        let (mut candidates, mut hits) = (0u64, 0u64);
        let coverages = edges[range]
            .iter()
            .map(|e| {
                let (pu, pv) = (nodes.pos(e.u), nodes.pos(e.v));
                let d_sq = nodes.dist_sq(e.u, e.v);
                let mut count = 0usize;
                index.for_each_link_run(pu, pv, d_sq.sqrt(), |xs, ys| {
                    candidates += xs.len() as u64;
                    for (&x, &y) in xs.iter().zip(ys) {
                        let w = Point::new(x, y);
                        // The model's exact predicate, on squares.
                        count += usize::from((w.dist_sq(&pu) <= d_sq) | (w.dist_sq(&pv) <= d_sq));
                    }
                });
                hits += count as u64;
                count
            })
            .collect::<Vec<usize>>();
        // One counter update per shard, not per link.
        rim_obs::counter_add("core.sender_candidates", candidates);
        rim_obs::counter_add("core.sender_hits", hits);
        coverages
    });
    shards.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_udg::NodeSet;

    #[test]
    fn isolated_pair_covers_itself() {
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 1.0]), &[(0, 1)]);
        assert_eq!(edge_coverage(&t, 0, 1), 2);
        assert_eq!(sender_graph_interference(&t), 2);
    }

    #[test]
    fn long_link_over_cluster_covers_everything() {
        // Three clustered nodes plus a far one; the long link's disks
        // sweep up the whole cluster.
        let t = Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.01, 0.02, 1.0]),
            &[(0, 1), (1, 2), (2, 3)],
        );
        assert_eq!(edge_coverage(&t, 2, 3), 4);
        assert_eq!(sender_graph_interference(&t), 4);
        // The short link at the left only covers the cluster.
        assert_eq!(edge_coverage(&t, 0, 1), 3); // 0, 1, 2 (0.01 ring reaches 0.02)
    }

    #[test]
    fn coverage_counts_union_not_sum() {
        // Nodes covered by both endpoint disks are counted once.
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.5, 1.0]), &[(0, 2), (0, 1)]);
        // Link {0,2}: both disks have radius 1 and jointly cover all 3.
        assert_eq!(edge_coverage(&t, 0, 2), 3);
    }

    #[test]
    fn edgeless_topology_has_zero() {
        let t = Topology::empty(NodeSet::on_line(&[0.0, 0.1]));
        assert_eq!(sender_graph_interference(&t), 0);
        assert_eq!(worst_link_coverage(&t, 3), 0);
        assert!(coverage_vector(&t).is_empty());
    }

    #[test]
    fn batched_coverage_matches_per_edge_oracle() {
        // Pseudo-random clustered instance with duplicate coordinates —
        // boundary ties at d = 0 and shared positions stress the union
        // count and the box's completeness argument.
        let mut state = 99u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut pts = Vec::new();
        for _ in 0..40 {
            pts.push(rim_geom::Point::new(rnd() * 2.0, rnd() * 2.0));
        }
        pts.push(pts[3]); // exact duplicate
        pts.push(pts[7]);
        let n = pts.len();
        let mut pairs = Vec::new();
        for i in 0..n {
            pairs.push((i, (i * 7 + 1) % n));
        }
        pairs.retain(|&(a, b)| a != b);
        pairs.sort_unstable_by_key(|&(a, b)| (a.min(b), a.max(b)));
        pairs.dedup_by_key(|&mut (a, b)| (a.min(b), a.max(b)));
        let t = Topology::from_pairs(NodeSet::new(pts), &pairs);
        let batched = coverage_vector(&t);
        let edges = t.edges();
        for (e, &c) in edges.iter().zip(&batched) {
            assert_eq!(c, edge_coverage(&t, e.u, e.v), "edge {:?}", e.pair());
        }
        assert_eq!(
            sender_graph_interference(&t),
            batched.iter().copied().max().unwrap_or(0)
        );
    }

    /// Five instance families above the parallel gate: uniform, clustered,
    /// an exponential chain (on split grid cells), collinear, and
    /// duplicate coordinates.
    fn families() -> Vec<(&'static str, NodeSet)> {
        use rim_geom::Point;
        use rim_rng::SmallRng;
        let n = rim_par::AUTO_PARALLEL_MIN + 64;
        let mut rng = SmallRng::seed_from_u64(43);
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

    /// Each node's link to its nearest other node (ties to the smaller
    /// id), plus a sprinkle of long links across the instance.
    fn nearest_neighbour_topology(ns: NodeSet) -> Topology {
        let n = ns.len();
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .map(|u| {
                let v = (0..n)
                    .filter(|&v| v != u)
                    .min_by(|&a, &b| ns.dist_sq(u, a).total_cmp(&ns.dist_sq(u, b)))
                    .expect("n >= 2");
                (u.min(v), u.max(v))
            })
            .chain((0..n).step_by(97).map(|u| (u, (u * 7 + 1) % n)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        Topology::from_pairs(ns, &pairs)
    }

    #[test]
    fn parallel_coverage_matches_the_oracle_for_every_worker_count() {
        for (family, ns) in families() {
            let t = nearest_neighbour_topology(ns);
            let want: Vec<usize> = t.edges().iter().map(|e| edge_coverage(&t, e.u, e.v)).collect();
            let worst = want.iter().copied().max();
            for threads in 1..=8 {
                assert_eq!(
                    coverage_vector_threads(&t, threads),
                    want,
                    "family={family} threads={threads}"
                );
                let at = format!("worst link, family={family} threads={threads}");
                assert_eq!(Some(worst_link_coverage(&t, threads)), worst, "{at}");
            }
        }
    }

    #[test]
    fn box_scan_matches_the_oracle_on_degenerate_links() {
        use rim_geom::Point;
        // Zero-length links between coincident nodes; links of length
        // about 10⁻⁹ at coordinates about 10⁶, a few ulps apart, where the
        // box's slack is all that separates the endpoints' cells; and
        // offsets whose squares underflow, so nodes in other cells are at
        // squared distance 0.
        let mut pts = vec![Point::new(3.0, 4.0); 3];
        pts.extend(
            (0..40).map(|i| Point::new(1e6 + f64::from(i) * 1e-9, 1e6 - f64::from(i % 7) * 1e-9)),
        );
        pts.extend((0..6).map(|i| Point::on_line(f64::from(i) * 1e-170)));
        pts.push(Point::on_line(1e-167));
        let mut pairs = vec![(0, 1), (1, 2)];
        pairs.extend((3..42).map(|i| (i, i + 1)));
        pairs.extend([(3, 10), (43, 44), (44, 45), (45, 46), (46, 47), (47, 48), (43, 49)]);
        let t = Topology::from_pairs(NodeSet::new(pts), &pairs);
        let want: Vec<usize> = t.edges().iter().map(|e| edge_coverage(&t, e.u, e.v)).collect();
        assert!(want.iter().any(|&c| c >= 6), "the underflowing links cover their neighbours");
        for threads in 1..=8 {
            assert_eq!(coverage_vector_threads(&t, threads), want, "threads={threads}");
            assert_eq!(Some(worst_link_coverage(&t, threads)), want.iter().copied().max());
        }
    }

    #[test]
    fn box_scan_matches_the_oracle_on_a_split_grid() {
        use rim_geom::Point;
        // A dense cluster in one cell of a sparse field: the grid built on
        // the median link length splits it, and long links sweep it.
        let field = NodeSet::new(
            (0..200)
                .map(|i| {
                    let (a, b) = (f64::from(i * 37 % 200), f64::from(i * 91 % 200));
                    if i < 120 {
                        Point::new(5.0 + a * 1e-4, 5.0 + b * 1e-4)
                    } else {
                        Point::new(a * 0.05, b * 0.05)
                    }
                })
                .collect(),
        );
        let t = nearest_neighbour_topology(field);
        let mut lens: Vec<f64> = t.edges().iter().map(|e| e.weight).collect();
        let hint = crate::receiver::upper_median(&mut lens);
        assert!(SoaGrid::from_points(t.nodes().points(), hint).split_cells() > 0);
        let want: Vec<usize> = t.edges().iter().map(|e| edge_coverage(&t, e.u, e.v)).collect();
        for threads in [1, 3] {
            assert_eq!(coverage_vector_threads(&t, threads), want, "threads={threads}");
            assert_eq!(Some(worst_link_coverage(&t, threads)), want.iter().copied().max());
        }
    }

    #[test]
    fn coverage_vector_matches_edges_order() {
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.3, 0.9]), &[(1, 2), (0, 1)]);
        let edges = t.edges();
        let cov = coverage_vector(&t);
        assert_eq!(cov.len(), edges.len());
        for (e, &c) in edges.iter().zip(&cov) {
            assert_eq!(c, edge_coverage(&t, e.u, e.v));
        }
    }
}
