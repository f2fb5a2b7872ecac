//! The Yao graph — cone-based nearest-neighbor selection.
//!
//! Each node partitions the plane around itself into `k` equal cones and
//! keeps a link to the nearest UDG neighbor inside each cone. The
//! undirected output is the union of all selected links (a link exists if
//! *either* endpoint selected it), the convention of the CBTC family. For
//! `k >= 6` the result is connected on each UDG component and a spanner.
//!
//! The per-node cone selection is already neighborhood-local, so
//! `Naive` runs it serially and `Auto` fans nodes out over the shared
//! executor and merges the selected links through sorted, deduplicated
//! pair keys — the same edge set for every thread count.

use rim_core::receiver::Engine;
use rim_graph::edge::pair_key;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Fills `best` with node `u`'s per-cone selections: `best[j]` is the
/// closest UDG neighbor inside cone `j` (ties towards the smaller
/// index), or `None` for empty cones. `best` must have length `k`.
fn cone_selection(nodes: &NodeSet, udg: &AdjacencyList, u: usize, best: &mut [Option<usize>]) {
    let k = best.len();
    let tau = std::f64::consts::TAU;
    best.iter_mut().for_each(|b| *b = None);
    let pu = nodes.pos(u);
    for v in udg.neighbors(u) {
        let mut angle = pu.angle_to(&nodes.pos(v));
        if angle < 0.0 {
            angle += tau;
        }
        let cone = ((angle / tau * k as f64) as usize).min(k - 1);
        let replace = match best[cone] {
            None => true,
            Some(w) => {
                let dv = nodes.dist_sq(u, v);
                let dw = nodes.dist_sq(u, w);
                dv < dw || (dv == dw && v < w)
            }
        };
        if replace {
            best[cone] = Some(v);
        }
    }
}

/// Builds the Yao graph with `k >= 1` cones, restricted to UDG edges,
/// with an explicit [`Engine`]. Cone selection is already local, so
/// `Naive` runs the per-node stage serially and `Auto` on
/// [`rim_par::auto_threads`] workers. Both return the same topology.
///
/// Cone `j` at node `u` covers angles `[2πj/k, 2π(j+1)/k)` measured from
/// the positive x-axis. Ties within a cone break towards the smaller
/// index.
pub fn yao_graph_with(nodes: &NodeSet, udg: &AdjacencyList, k: usize, engine: Engine) -> Topology {
    let threads = match engine {
        Engine::Naive => 1,
        Engine::Auto => rim_par::auto_threads(nodes.len()),
    };
    yao_graph_parallel(nodes, udg, k, threads)
}

/// Yao construction across an explicit number of worker threads (`1` =
/// serial, inline): each worker selects cones for a contiguous node
/// range, and the directed selections are merged into the undirected
/// union as sorted, deduplicated pair keys. The edge set is independent
/// of `threads` by construction.
pub fn yao_graph_parallel(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    k: usize,
    threads: usize,
) -> Topology {
    assert!(k >= 1, "need at least one cone");
    let chunks = rim_par::par_map_ranges(nodes.len(), threads, |range| {
        let mut best: Vec<Option<usize>> = vec![None; k];
        let mut out: Vec<u64> = Vec::new();
        for u in range {
            cone_selection(nodes, udg, u, &mut best);
            out.extend(best.iter().flatten().map(|&sel| pair_key(u, sel)));
        }
        out
    });
    Topology::from_pair_keys(nodes.clone(), chunks.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    #[test]
    fn keeps_nearest_neighbor_per_cone() {
        // Two neighbors in the same (east) cone: only the closer is kept
        // by u, but the farther one may still select u from its side.
        let ns = NodeSet::on_line(&[0.0, 0.3, 0.8]);
        let udg = unit_disk_graph(&ns);
        let t = yao_graph_with(&ns, &udg, 4, Engine::Auto);
        assert!(t.graph().has_edge(0, 1));
        // Node 2's west cone selects node 1 (closer than 0), so {0,2}
        // only appears if node 0 selected 2 — it did not (1 is closer).
        assert!(!t.graph().has_edge(0, 2));
        assert!(t.graph().has_edge(1, 2));
    }

    #[test]
    fn six_cones_preserve_connectivity() {
        let mut state = 13u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..80).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let t = yao_graph_with(&ns, &udg, 6, Engine::Auto);
        assert!(t.preserves_connectivity_of(&udg));
        assert!(contains_nnf(&t, &udg));
        // Union convention still bounds *selected* out-degree by k, so the
        // edge count is at most k·n.
        assert!(t.num_edges() <= 6 * ns.len());
    }

    #[test]
    fn single_cone_is_nearest_neighbor_union() {
        // k = 1: every node selects its nearest neighbor only, so the Yao
        // union equals the Nearest Neighbor Forest.
        let ns = NodeSet::on_line(&[0.0, 0.25, 0.6, 0.61]);
        let udg = unit_disk_graph(&ns);
        let yao = yao_graph_with(&ns, &udg, 1, Engine::Auto);
        let nnf = crate::nnf::nearest_neighbor_forest(&ns, &udg);
        let mut a: Vec<_> = yao.edges().iter().map(|e| e.pair()).collect();
        let mut b: Vec<_> = nnf.edges().iter().map(|e| e.pair()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn every_engine_builds_the_same_graph() {
        let mut state = 55u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..90).map(|_| Point::new(rnd() * 2.0, rnd() * 2.0)).collect();
        let ns = NodeSet::new(pts);
        let udg = unit_disk_graph(&ns);
        let oracle = yao_graph_with(&ns, &udg, 6, Engine::Naive);
        for e in Engine::ALL {
            let t = yao_graph_with(&ns, &udg, 6, e);
            let mut a: Vec<_> = oracle.edges().iter().map(|x| x.pair()).collect();
            let mut b: Vec<_> = t.edges().iter().map(|x| x.pair()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "engine {}", e.name());
        }
    }
}
