//! Exact minimum-interference connected topologies (branch and bound).
//!
//! The paper's approximation guarantees (Theorem 5.6) are relative to the
//! *optimal* connectivity-preserving topology. To measure approximation
//! ratios empirically we need that optimum on small instances; this module
//! computes it exactly.
//!
//! # Search space
//!
//! A topology is any symmetric subgraph of the UDG, but interference only
//! depends on the radii it induces. We therefore search over **radius
//! assignments** `r : V → {0} ∪ {pairwise distances ≤ max_range}`, with
//! the induced symmetric graph `{u,v} ∈ E ⟺ |uv| ≤ min(r_u, r_v)`:
//!
//! * every topology `E'` tightens to the assignment `r_u = farthest
//!   neighbor in E'`, whose induced graph has the same radii and
//!   interference and at least the same connectivity, so the assignment
//!   optimum equals the topology optimum;
//! * under an assignment, node `u` covers a *fixed* set of nodes, so
//!   partial assignments give a valid interference lower bound for
//!   pruning.
//!
//! # Pruning
//!
//! 1. **Bound**: the maximum coverage already inflicted by assigned nodes
//!    can only grow — prune when it reaches the incumbent. Coverage is
//!    monotone in the radius, so once a candidate radius trips the bound,
//!    all larger candidates do too.
//! 2. **Feasibility**: give every unassigned node its largest candidate
//!    radius; if even that maximal completion fails to preserve the UDG's
//!    connectivity, no completion can (shrinking radii only removes
//!    edges).
//!
//! The incumbent is seeded with the Euclidean-MST topology, which is
//! always feasible and usually close, so pruning bites immediately.

use rim_graph::mst::kruskal;
use rim_graph::traversal::preserves_connectivity;
use rim_graph::AdjacencyList;
use rim_udg::radius::{candidate_radii, induced_graph, induced_topology};
use rim_udg::udg::unit_disk_graph_with_range;
use rim_udg::{NodeSet, Topology};

/// Resource limits for the exact solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverLimits {
    /// Hard cap on instance size; larger inputs panic (the search is
    /// exponential — this guards against accidental misuse).
    pub max_nodes: usize,
    /// Search-step budget. When exhausted the best topology found so far
    /// is returned with `optimal = false`.
    pub max_steps: u64,
}

impl Default for SolverLimits {
    fn default() -> Self {
        SolverLimits {
            max_nodes: 12,
            max_steps: 50_000_000,
        }
    }
}

/// Result of an exact minimization.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// A minimum-interference connectivity-preserving topology (best
    /// found if the budget ran out).
    pub topology: Topology,
    /// Its graph interference `I(G')`.
    pub interference: usize,
    /// `true` if the search completed and the result is provably optimal.
    pub optimal: bool,
    /// Search steps consumed.
    pub steps: u64,
}

/// Computes a minimum-interference topology preserving the connectivity of
/// the UDG with range `max_range` over `nodes`.
///
/// Panics if `nodes.len() > limits.max_nodes`.
pub fn min_interference_topology(
    nodes: &NodeSet,
    max_range: f64,
    limits: SolverLimits,
) -> OptimalResult {
    let n = nodes.len();
    assert!(
        n <= limits.max_nodes,
        "exact solver limited to {} nodes, got {n}",
        limits.max_nodes
    );
    if n <= 1 {
        return OptimalResult {
            topology: Topology::empty(nodes.clone()),
            interference: 0,
            optimal: true,
            steps: 0,
        };
    }

    let udg = unit_disk_graph_with_range(nodes, max_range);

    // Candidate radii per node, ascending, truncated to the UDG range.
    let cands: Vec<Vec<f64>> = (0..n)
        .map(|u| {
            let mut c = candidate_radii(nodes, u);
            c.retain(|&r| r <= max_range);
            c
        })
        .collect();
    // rim-lint: allow(no-unwrap-in-lib) — candidate_radii always contains 0.0
    let max_cand: Vec<f64> = cands.iter().map(|c| *c.last().unwrap()).collect();

    // Incumbent: the MST of the UDG (tight assignment, always feasible).
    let mst_topology = Topology::from_graph(
        nodes.clone(),
        AdjacencyList::from_edges(n, kruskal(n, &udg.edges())),
    );
    let best_radii: Vec<f64> = mst_topology.radii().to_vec();
    let best = naive_interference(&mst_topology);

    let mut search = Search {
        nodes,
        n,
        udg: &udg,
        cands: &cands,
        max_cand: &max_cand,
        cov: vec![0u32; n],
        radii: vec![0.0; n],
        best,
        best_radii,
        steps: 0,
        max_steps: limits.max_steps,
        exhausted: false,
    };
    search.dfs(0);
    let steps = search.steps;
    let exhausted = search.exhausted;

    let topology = induced_topology(nodes, &search.best_radii);
    let interference = naive_interference(&topology);
    debug_assert!(interference <= search.best);
    OptimalResult {
        topology,
        interference,
        optimal: !exhausted,
        steps,
    }
}

struct Search<'a> {
    nodes: &'a NodeSet,
    n: usize,
    udg: &'a AdjacencyList,
    cands: &'a [Vec<f64>],
    max_cand: &'a [f64],
    /// cov[v] = number of *assigned* nodes covering v.
    cov: Vec<u32>,
    radii: Vec<f64>,
    best: usize,
    best_radii: Vec<f64>,
    steps: u64,
    max_steps: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn dfs(&mut self, k: usize) {
        if self.exhausted {
            return;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.exhausted = true;
            return;
        }
        if k == self.n {
            // Feasibility was verified when the last node was assigned.
            let inter = self.cov.iter().copied().max().unwrap_or(0) as usize;
            if inter < self.best {
                self.best = inter;
                self.best_radii.copy_from_slice(&self.radii);
            }
            return;
        }

        let pk = self.nodes.pos(k);
        // Nodes newly covered as the radius grows: walk candidates in
        // ascending order and extend coverage incrementally.
        let mut covered: Vec<usize> = Vec::new();
        let mut cursor = 0usize; // over `others` sorted by distance
        let mut others: Vec<(f64, usize)> = (0..self.n)
            .filter(|&v| v != k)
            .map(|v| (pk.dist(&self.nodes.pos(v)), v))
            .collect();
        others.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        for ci in 0..self.cands[k].len() {
            let r = self.cands[k][ci];
            while cursor < others.len() && others[cursor].0 <= r {
                let v = others[cursor].1;
                self.cov[v] += 1;
                covered.push(v);
                cursor += 1;
            }
            // Bound: coverage is monotone in r — once the incumbent is
            // matched, larger radii are hopeless too.
            let worst = self.cov.iter().copied().max().unwrap_or(0) as usize;
            if worst >= self.best {
                break;
            }
            self.radii[k] = r;
            if self.feasible(k) {
                self.dfs(k + 1);
                if self.exhausted {
                    break;
                }
            }
        }
        // Undo coverage.
        for v in covered {
            self.cov[v] -= 1;
        }
        self.radii[k] = 0.0;
    }

    /// Optimistic completion: unassigned nodes take their largest radius.
    /// If even that graph fails to preserve UDG connectivity, prune.
    fn feasible(&self, k: usize) -> bool {
        let mut radii = self.radii.clone();
        for (v, r) in radii.iter_mut().enumerate().skip(k + 1) {
            *r = self.max_cand[v];
        }
        let g = induced_graph(self.nodes, &radii);
        preserves_connectivity(self.udg, &g)
    }
}

/// `I(G')` by the all-pairs scan: the solvers here are test oracles for
/// the fast kernel, so they must not evaluate interference with it.
fn naive_interference(t: &Topology) -> usize {
    crate::receiver::graph_interference_with(t, crate::receiver::Engine::Naive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;

    /// Independent test oracle: minimum interference over **all** subgraphs of
    /// the UDG (edge-subset enumeration, `O(2^m)`), used to validate the
    /// branch-and-bound solver on tiny instances.
    fn min_interference_exhaustive(nodes: &NodeSet, max_range: f64) -> Option<usize> {
        let udg = unit_disk_graph_with_range(nodes, max_range);
        let edges = udg.edges();
        let m = edges.len();
        assert!(m <= 20, "exhaustive oracle limited to 20 edges, got {m}");
        let mut best: Option<usize> = None;
        for mask in 0..(1u32 << m) {
            let chosen: Vec<(usize, usize)> = (0..m)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| edges[i].pair())
                .collect();
            let t = Topology::from_pairs(nodes.clone(), &chosen);
            if !t.preserves_connectivity_of(&udg) {
                continue;
            }
            let i = naive_interference(&t);
            if best.is_none_or(|b| i < b) {
                best = Some(i);
            }
        }
        best
    }

    #[test]
    fn trivial_instances() {
        let r = min_interference_topology(&NodeSet::new(vec![]), 1.0, SolverLimits::default());
        assert_eq!(r.interference, 0);
        assert!(r.optimal);
        let r = min_interference_topology(&NodeSet::on_line(&[0.3]), 1.0, SolverLimits::default());
        assert_eq!(r.interference, 0);
    }

    #[test]
    fn two_nodes_must_link() {
        let ns = NodeSet::on_line(&[0.0, 0.5]);
        let r = min_interference_topology(&ns, 1.0, SolverLimits::default());
        assert_eq!(r.interference, 1);
        assert!(r.optimal);
        assert_eq!(r.topology.num_edges(), 1);
    }

    #[test]
    fn disconnected_udg_components_stay_separate() {
        // Two pairs far apart: optimum links each pair, I = 1.
        let ns = NodeSet::on_line(&[0.0, 0.2, 5.0, 5.2]);
        let r = min_interference_topology(&ns, 1.0, SolverLimits::default());
        assert_eq!(r.interference, 1);
        assert!(r.optimal);
        assert_eq!(r.topology.num_edges(), 2);
    }

    #[test]
    fn uniform_chain_optimum_is_small() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0, 1.5, 2.0]);
        let r = min_interference_topology(&ns, 1.0, SolverLimits::default());
        // Linear chain: each node covered by at most 2 neighbors.
        assert_eq!(r.interference, 2);
        assert!(r.optimal);
        assert!(r.topology.preserves_connectivity_of(
            &unit_disk_graph_with_range(&ns, 1.0)
        ));
    }

    #[test]
    fn matches_exhaustive_oracle_on_random_instances() {
        let mut state = 99u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..8 {
            let n = 4 + (trial % 3);
            // Keep instances sparse enough for the oracle's 20-edge cap.
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rnd() * 2.2, rnd() * 0.4))
                .collect();
            let ns = NodeSet::new(pts);
            let udg = unit_disk_graph_with_range(&ns, 1.0);
            if udg.num_edges() > 12 {
                continue;
            }
            let oracle = min_interference_exhaustive(&ns, 1.0).unwrap();
            let solver = min_interference_topology(&ns, 1.0, SolverLimits::default());
            assert!(solver.optimal, "budget must suffice for n={n}");
            assert_eq!(solver.interference, oracle, "trial={trial}");
        }
    }

    #[test]
    fn result_preserves_connectivity_and_range() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.6, 0.1),
            Point::new(0.9, 0.7),
            Point::new(0.2, 0.8),
            Point::new(1.4, 0.6),
        ]);
        let r = min_interference_topology(&ns, 1.0, SolverLimits::default());
        let udg = unit_disk_graph_with_range(&ns, 1.0);
        assert!(r.topology.preserves_connectivity_of(&udg));
        assert!(r.topology.respects_range(1.0));
    }

    #[test]
    fn budget_exhaustion_returns_incumbent() {
        let ns = NodeSet::on_line(&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        let r = min_interference_topology(
            &ns,
            1.0,
            SolverLimits {
                max_nodes: 12,
                max_steps: 2,
            },
        );
        assert!(!r.optimal);
        // Incumbent is the MST topology — still valid.
        let udg = unit_disk_graph_with_range(&ns, 1.0);
        assert!(r.topology.preserves_connectivity_of(&udg));
    }

    #[test]
    #[should_panic]
    fn oversized_instances_are_rejected() {
        let ns = NodeSet::on_line(&(0..20).map(|i| i as f64 * 0.01).collect::<Vec<_>>());
        min_interference_topology(&ns, 1.0, SolverLimits::default());
    }
}
