//! Shared machinery of the near-linear construction pipeline.
//!
//! Every baseline that filters UDG edges through a witness predicate
//! (Gabriel, RNG, XTC) or computes a per-node local structure (LMST,
//! Yao) funnels through the helpers here:
//!
//! * [`witness_index`] builds the same [`SoaGrid`] the interference
//!   engine scatters over, hinted by the median UDG edge length — the
//!   dominant witness-query radius.
//! * [`filter_edges`] fans an edge predicate out over the shared chunked
//!   scoped-thread executor ([`rim_par::par_map_ranges`]) and assembles
//!   the kept edges *in input order*, so every worker count produces the
//!   same adjacency structure, not merely the same edge set.
//!
//! Every algorithm has two paths: [`crate::Engine::Naive`] (and its
//! physical twin) runs the retained brute-force construction, and
//! [`crate::Engine::Auto`] (and [`crate::Engine::PhysicalIndexed`]) runs
//! the one fast path on [`rim_par::auto_threads`] workers — inline below
//! [`rim_par::AUTO_PARALLEL_MIN`] nodes, on all cores from there. The
//! physical engines only change how *interference* is evaluated, so here
//! they mean what their disk twins mean.
//!
//! Correctness of the index-backed witnesses rests on a locality
//! argument: any Gabriel witness `w` of `{u, v}` satisfies
//! `|uw|² + |wv|² <= |uv|²`, hence `|uw|² <= |uv|²`, and any RNG witness
//! satisfies `max(|uw|, |wv|) < |uv|` — in both cases `|uw| <= |uv|`
//! *including at floating-point level*, because `dist` is the correctly
//! rounded (monotone) square root of `dist_sq`. The closed disk of
//! radius `|uv|` around `u` therefore contains every witness, and the
//! exact naive predicate is re-evaluated on the candidates it returns,
//! so index-backed construction equals the brute-force scan bit for bit.

use rim_geom::SoaGrid;
use rim_graph::{AdjacencyList, Edge};
use rim_udg::NodeSet;

/// Builds the spatial index the witness predicates query: all node
/// positions, with the median UDG edge length as the cell hint (witness
/// queries use radius `|uv|` of the edge under test, so the median edge
/// balances bucket population against buckets touched). Overloaded
/// cells split on skewed spreads, exactly as in the interference
/// engine's grid.
// rim-lint: allow(panic-freedom) — the median index is guarded by the is_empty branch
pub fn witness_index(nodes: &NodeSet, udg: &AdjacencyList) -> SoaGrid {
    let _span = rim_obs::span("control/witness_index");
    let mut lens: Vec<f64> = udg.edges().iter().map(|e| e.weight).collect();
    let hint = if lens.is_empty() {
        1.0 // edgeless UDG: nothing will be queried, any shape works
    } else {
        lens.sort_unstable_by(f64::total_cmp);
        lens[lens.len() / 2]
    };
    SoaGrid::from_points(nodes.points(), hint)
}

/// Keeps the edges of `edges` for which `keep` holds, evaluating the
/// predicate across `threads` workers of the shared chunked executor
/// (inline when `threads <= 1`), and adds survivors to a fresh
/// `n`-vertex adjacency list *in input order* — so the result is
/// independent of the thread count by construction.
// rim-lint: allow(panic-freedom) — `par_map_ranges` only yields indices below `edges.len()`
pub(crate) fn filter_edges<F>(n: usize, edges: &[Edge], threads: usize, keep: F) -> AdjacencyList
where
    F: Fn(&Edge) -> bool + Sync,
{
    let _span = rim_obs::span("control/filter_edges");
    let mask = rim_par::par_map_ranges(edges.len(), threads, |range| {
        range.map(|i| keep(&edges[i])).collect::<Vec<bool>>()
    });
    let mut g = AdjacencyList::new(n);
    let mut kept_count = 0u64;
    for (e, kept) in edges.iter().zip(mask.into_iter().flatten()) {
        if kept {
            kept_count += 1;
            g.add_edge(e.u, e.v, e.weight);
        }
    }
    rim_obs::counter_add("control.edges_in", edges.len() as u64);
    rim_obs::counter_add("control.edges_kept", kept_count);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn filter_edges_is_thread_count_invariant() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i % 8) as f64 * 0.3, (i / 8) as f64 * 0.3))
            .collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let edges = udg.edges();
        let keep = |e: &Edge| e.weight < 0.5;
        let single = filter_edges(ns.len(), &edges, 1, keep);
        for threads in 2..=8 {
            let multi = filter_edges(ns.len(), &edges, threads, keep);
            assert_eq!(single.edges(), multi.edges(), "threads={threads}");
        }
    }

    #[test]
    fn witness_index_handles_edgeless_graphs() {
        let ns = NodeSet::on_line(&[0.0, 5.0, 10.0]);
        let udg = unit_disk_graph(&ns);
        assert_eq!(udg.num_edges(), 0);
        let idx = witness_index(&ns, &udg);
        assert_eq!(idx.len(), 3);
    }
}
