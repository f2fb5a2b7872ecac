//! Shared machinery of the near-linear construction pipeline.
//!
//! Every baseline that filters UDG edges through a witness predicate
//! (Gabriel, RNG, XTC) funnels through `filter_edges`: it walks the
//! UDG's adjacency as `(u, v > u)` pairs — the order
//! [`AdjacencyList::edges`] returns — fans the walk out over the shared
//! chunked scoped-thread executor ([`rim_par::par_map_ranges`]) by node
//! range, and assembles the kept edges *in walk order*, so every worker
//! count produces the same adjacency structure, not merely the same edge
//! set. Every other fast construction collects its links as packed pair
//! keys ([`rim_graph::edge::pair_key`]) and builds through
//! [`rim_udg::Topology::from_pair_keys`]: both end in the one bulk
//! [`AdjacencyList::from_edges`].
//!
//! Every algorithm has two paths: [`crate::Engine::Naive`] runs the
//! retained brute-force construction, and [`crate::Engine::Auto`] runs
//! the one fast path on [`rim_par::auto_threads`] workers — inline below
//! [`rim_par::AUTO_PARALLEL_MIN`] nodes, on all cores from there.
//!
//! The fast paths read everything off the UDG's own sorted neighbour
//! lists, and build no spatial index. Their correctness rests on the
//! contract of [`crate::Baseline::build_with`]: `udg` is the unit disk
//! graph of `nodes` at some range, so `v ∈ N(u)` exactly when `v != u`
//! and `dist(u, v) <= range`. A Gabriel witness `w` of the UDG edge
//! `{u, v}` has `d_uw > 0`, `d_wv > 0` and `fl(d_uw + d_wv) <= d_uv`
//! (squared distances); rounding is monotone, so `d_uw <= d_uv`. An RNG
//! witness has `d_uw < d_uv` outright. `sqrt` is monotone too, so in
//! both cases `dist(u, w) <= dist(u, v) <= range`, and `w ∈ N(u)`: the
//! scan of `u`'s list sees every witness, applies the exact naive
//! predicate to it, and stops at the first one, so the result equals
//! the brute-force scan bit for bit. An XTC blocker `w` of `{u, v}` has
//! `w ≺_u v` and `w ≺_v u`, so `d_uw <= d_uv` and `d_vw <= d_uv`: it
//! lies in `N(u)`, and in `N(v)` without a probe. LMST's local graph is
//! `N[u]` itself, and each of its links that can bar `(u, v)` from the
//! local MST is shorter than `|uv|`, so it is a UDG edge.

use rim_graph::{AdjacencyList, Edge};

/// Keeps the UDG edges `{u, v}` for which `keep(u, v)` holds, called
/// with `u < v`. Walks the adjacency as `(u, v > u)` across `threads`
/// workers of the shared chunked executor, each owning a contiguous node
/// range with about the same number of pairs (inline when `threads <=
/// 1`), and hands the survivors *in walk order* to the bulk
/// [`AdjacencyList::from_edges`] — so the result is independent of the
/// thread count by construction, and every list arrives sorted.
// rim-lint: root
// rim-lint: allow(panic-freedom) — `bounds` has at least two entries, and `par_map_ranges` only yields chunk ranges within `0..bounds.len() - 1`
pub(crate) fn filter_edges<F>(udg: &AdjacencyList, threads: usize, keep: F) -> AdjacencyList
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let _span = rim_obs::span("control/filter_edges");
    let n = udg.num_vertices();
    let bounds = pair_balanced_bounds(udg, threads);
    let chunks = bounds.len() - 1;
    let kept = rim_par::par_map_ranges(chunks, chunks, |range| {
        let mut out = Vec::new();
        for u in bounds[range.start]..bounds[range.end] {
            for (v, w) in udg.neighbors_weighted(u).skip_while(|&(v, _)| v < u) {
                if keep(u, v) {
                    out.push(Edge::new(u, v, w));
                }
            }
        }
        out
    });
    let g = AdjacencyList::from_edges(n, kept.iter().flatten());
    rim_obs::counter_add("control.edges_in", udg.num_edges() as u64);
    rim_obs::counter_add("control.edges_kept", g.num_edges() as u64);
    g
}

/// Cuts the nodes into at most `threads` contiguous ranges holding about
/// equal numbers of `(u, v > u)` pairs, as boundaries `0 = b₀ <= … = n`.
/// Low ids hold most of the pairs, so ranges of equal length would leave
/// the first worker most of the walk.
fn pair_balanced_bounds(udg: &AdjacencyList, threads: usize) -> Vec<usize> {
    let n = udg.num_vertices();
    let mut bounds = vec![0];
    if threads > 1 {
        let total = udg.num_edges();
        let mut pairs = 0;
        for u in 0..n {
            pairs += udg.neighbors(u).filter(|&v| v > u).count();
            if bounds.len() < threads && pairs * threads >= total * bounds.len() {
                bounds.push(u + 1);
            }
        }
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;
    use rim_udg::NodeSet;

    #[test]
    fn filter_edges_is_thread_count_invariant() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 8) as f64 * 0.3, (i / 8) as f64 * 0.3))
            .collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let keep = |u: usize, v: usize| ns.dist(u, v) < 0.5;
        let single = filter_edges(&udg, 1, keep);
        for threads in 2..=8 {
            let multi = filter_edges(&udg, threads, keep);
            assert_eq!(single.edges(), multi.edges(), "threads={threads}");
        }
    }

    #[test]
    fn chunks_hold_about_equal_numbers_of_pairs() {
        // With ids scrambled across the lattice, low ids hold most of the
        // pairs (u, v > u); every chunk stays within one node's pairs of
        // an equal share.
        let pts: Vec<Point> = (0..400)
            .map(|i| (i * 149) % 400)
            .map(|j| Point::new((j % 20) as f64 * 0.3, (j / 20) as f64 * 0.3))
            .collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let upper = |u: usize| udg.neighbors(u).filter(|&v| v > u).count();
        let most = (0..ns.len()).map(upper).max().unwrap();
        for threads in 1..=8 {
            let bounds = pair_balanced_bounds(&udg, threads);
            assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, ns.len()));
            assert!(bounds.len() <= threads + 1, "threads={threads}: {bounds:?}");
            assert!(bounds.windows(2).all(|b| b[0] <= b[1]), "{bounds:?}");
            for b in bounds.windows(2) {
                let pairs: usize = (b[0]..b[1]).map(upper).sum();
                assert!(pairs <= udg.num_edges() / threads + most, "threads={threads}: {bounds:?}");
            }
        }
    }

    #[test]
    fn filter_edges_handles_edgeless_graphs() {
        let ns = NodeSet::on_line(&[0.0, 5.0, 10.0]);
        let udg = unit_disk_graph(&ns);
        assert_eq!(udg.num_edges(), 0);
        let g = filter_edges(&udg, 2, |u, v| panic!("no edge to test, got {{{u}, {v}}}"));
        assert_eq!((g.num_vertices(), g.num_edges()), (3, 0));
    }

    #[test]
    fn filter_edges_walks_the_udg_edges_in_order() {
        // Every UDG edge reaches the predicate once, as (u, v) with
        // u < v, in the order of `udg.edges()`.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::ORIGIN,
            Point::new(0.3, 0.4),
            Point::new(5.0, 5.0),
        ]);
        let udg = unit_disk_graph(&ns);
        let seen = std::sync::Mutex::new(Vec::new());
        let all = filter_edges(&udg, 1, |u, v| {
            seen.lock().unwrap().push((u, v));
            true
        });
        let want: Vec<(usize, usize)> = udg.edges().iter().map(Edge::pair).collect();
        assert_eq!(seen.into_inner().unwrap(), want);
        assert_eq!(all.edges(), udg.edges());
    }
}
