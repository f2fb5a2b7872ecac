//! The receiver-centric interference measure (Definitions 3.1 and 3.2).
//!
//! Two batch kernels compute the same counts:
//!
//! * [`interference_vector_naive`] — the `O(n²)` all-pairs reference.
//!   This is the **permanent oracle**: it transcribes Definition 3.1
//!   literally and the fast kernel is differential-tested against it.
//! * [`Engine::Auto`] — the structure-of-arrays scatter of
//!   [`crate::stream`]: one closed-disk range query per transmitter over
//!   a [`SoaGrid`](rim_geom::SoaGrid) (overloaded cells split on skewed spreads), sharded
//!   over the machine's cores with per-worker accumulators. It runs the
//!   same code at every instance size.
//!
//! Both evaluate the identical predicate `deg(u) > 0 && dist(u,v) <=
//! r_u` at distance level, so they agree *exactly* — not approximately
//! — on every input.

use crate::stream::StreamInstance;
use rim_geom::{Point, SoaGrid};
use rim_par::num_threads;
use rim_udg::Topology;

/// Strategy selector for the batch interference kernels.
///
/// Every engine computes bit-identical results (a property-tested
/// invariant); they differ only in running time. Parse one from a CLI
/// string with [`str::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// All-pairs `O(n²)` scan — the oracle every other engine must match.
    Naive,
    /// The one fast path: the structure-of-arrays scatter
    /// ([`StreamInstance::from_topology`]) on all cores, at every size.
    #[default]
    Auto,
}

impl Engine {
    /// All selectable engines, in oracle-first order (useful for tests
    /// and help text).
    pub const ALL: [Engine; 2] = [Engine::Naive, Engine::Auto];

    /// The CLI-facing name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Auto => "auto",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "naive" => Ok(Engine::Naive),
            "auto" => Ok(Engine::Auto),
            other => Err(format!("unknown engine `{other}` (expected naive|auto)")),
        }
    }
}

/// Interference experienced by node `v` (Definition 3.1): the number of
/// *other* nodes `u` whose disk `D(u, r_u)` covers `v`. Self-interference
/// is excluded, as in the paper.
///
/// Runs in `O(n)`; use [`interference_vector`] when all nodes are needed.
pub fn interference_at(t: &Topology, v: usize) -> usize {
    let nodes = t.nodes();
    let pv = nodes.pos(v);
    let mut count = 0;
    for u in 0..nodes.len() {
        // A node transmits iff it has at least one neighbor; its radius
        // alone cannot decide that (a zero-length link between coincident
        // nodes has r = 0 yet carries traffic).
        if u == v || t.graph().degree(u) == 0 {
            continue;
        }
        // Distance-level comparison: r_u is itself a dist() result, so the
        // farthest neighbor compares equal (squaring would break that).
        if nodes.pos(u).dist(&pv) <= t.radius(u) {
            count += 1;
        }
    }
    count
}

/// Per-node interference of the whole topology, reference `O(n²)`
/// implementation: `out[v] = I(v)`.
pub fn interference_vector_naive(t: &Topology) -> Vec<usize> {
    let n = t.num_nodes();
    let nodes = t.nodes();
    let mut out = vec![0usize; n];
    for u in 0..n {
        if t.graph().degree(u) == 0 {
            continue; // isolated nodes transmit nothing
        }
        let r = t.radius(u);
        let pu = nodes.pos(u);
        for (v, iv) in out.iter_mut().enumerate() {
            if v != u && pu.dist(&nodes.pos(v)) <= r {
                *iv += 1;
            }
        }
    }
    out
}

/// Builds the spatial index a disk scatter over `points` runs on, given
/// the query radii it will ask: the median positive radius makes a good
/// cell hint (it balances bucket population against buckets touched per
/// query), and the grid splits the cells a skewed spread overloads.
/// Public so other layers computing coverage relations (the simulator's
/// PHY tables, the SINR model's cutoff disks) share the same heuristic.
pub fn build_index(points: &[Point], radii: impl IntoIterator<Item = f64>) -> SoaGrid {
    let _span = rim_obs::span("interference/index_build");
    let mut positive: Vec<f64> = radii.into_iter().filter(|&r| r > 0.0).collect();
    let hint = if positive.is_empty() {
        1.0 // nobody transmits past distance 0: any index shape works
    } else {
        upper_median(&mut positive)
    };
    SoaGrid::from_points(points, hint)
}

/// The element at index `len / 2` of `values` sorted by
/// [`f64::total_cmp`], found by selection in `O(len)` instead of a full
/// sort. `total_cmp` is a total order on bit patterns, so the result is
/// the very element the sort would put there. `values` must be
/// non-empty; it is left partially reordered.
pub(crate) fn upper_median(values: &mut [f64]) -> f64 {
    *values.select_nth_unstable_by(values.len() / 2, f64::total_cmp).1
}

/// Per-node interference via an explicitly chosen [`Engine`]:
/// `out[v] = I(v)`. All engines agree exactly; see the module docs.
// rim-lint: root
pub fn interference_vector_with(t: &Topology, engine: Engine) -> Vec<usize> {
    if t.num_nodes() == 0 {
        return Vec::new();
    }
    let _span = rim_obs::span(match engine {
        Engine::Naive => "interference/naive",
        Engine::Auto => "interference/auto",
    });
    match engine {
        Engine::Naive => interference_vector_naive(t),
        Engine::Auto => StreamInstance::from_topology(t)
            .interference_counts_sharded(num_threads())
            .into_iter()
            .map(|c| c as usize)
            .collect(),
    }
}

/// Per-node interference with the fast kernel ([`Engine::Auto`]) — the
/// default entry point of the workspace.
pub fn interference_vector(t: &Topology) -> Vec<usize> {
    interference_vector_with(t, Engine::Auto)
}

/// Graph interference `I(G')` (Definition 3.2): the maximum node
/// interference; 0 for empty topologies.
///
/// ```
/// use rim_udg::{NodeSet, Topology};
/// use rim_core::receiver::graph_interference;
///
/// // A uniform three-hop chain: every node is covered only by its
/// // immediate neighbors.
/// let t = Topology::from_pairs(
///     NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
///     &[(0, 1), (1, 2), (2, 3)],
/// );
/// assert_eq!(graph_interference(&t), 2);
/// ```
pub fn graph_interference(t: &Topology) -> usize {
    interference_vector(t).into_iter().max().unwrap_or(0)
}

/// Graph interference `I(G')` via an explicitly chosen [`Engine`].
pub fn graph_interference_with(t: &Topology, engine: Engine) -> usize {
    interference_vector_with(t, engine).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_udg::NodeSet;

    #[test]
    fn upper_median_selects_what_the_sort_would() {
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for len in 1..80 {
            // Half the values come from a small pool, so duplicates are
            // everywhere; -0.0 and 0.0 differ in bits and in `total_cmp`
            // order.
            let pool = [0.0, -0.0, 0.5, 1.0, 1e-300, 3.0, 1e300];
            let mut values: Vec<f64> = (0..len)
                .map(|_| match next() % 2 {
                    0 => pool[next() as usize % pool.len()],
                    _ => next() as f64 / 7.0,
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let want = sorted[len / 2];
            assert_eq!(upper_median(&mut values).to_bits(), want.to_bits(), "len={len}");
        }
    }

    /// The five-node example of Figure 2: node `u` is covered by its
    /// direct neighbor and by the distant node `v` whose radius reaches
    /// over it, so `I(u) = 2`.
    fn figure2() -> (Topology, usize, usize) {
        // Layout mirroring the figure's structure: node u has one direct
        // neighbor a; the distant node v is linked to b, and |vb| > |vu|,
        // so v's disk reaches over u even though {u, v} is not a link.
        // Node c is a's second neighbor, too close to cover u.
        let u = Point::new(0.0, 0.0);
        let a = Point::new(-0.2, 0.0);
        let v = Point::new(0.8, 0.0);
        let b = Point::new(1.3, 0.65); // |vb| ≈ 0.82 > |vu| = 0.8
        let c = Point::new(-0.15, 0.08);
        let ns = NodeSet::new(vec![u, a, v, b, c]);
        let t = Topology::from_pairs(ns, &[(0, 1), (2, 3), (1, 4)]);
        (t, 0, 2)
    }

    #[test]
    fn figure2_interference_at_u_is_two() {
        let (t, u, expect) = figure2();
        assert_eq!(interference_at(&t, u), expect);
    }

    #[test]
    fn naive_and_fast_agree_on_figure2() {
        let (t, _, _) = figure2();
        assert_eq!(interference_vector(&t), interference_vector_naive(&t));
    }

    #[test]
    fn empty_and_isolated() {
        let t = Topology::empty(NodeSet::on_line(&[0.0, 0.5, 1.0]));
        assert_eq!(interference_vector(&t), vec![0, 0, 0]);
        assert_eq!(graph_interference(&t), 0);
        let none = Topology::empty(NodeSet::new(vec![]));
        assert_eq!(graph_interference(&none), 0);
        assert_eq!(interference_vector(&none), Vec::<usize>::new());
    }

    #[test]
    fn single_link_interferes_both_endpoints() {
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.4]), &[(0, 1)]);
        assert_eq!(interference_vector(&t), vec![1, 1]);
        assert_eq!(graph_interference(&t), 1);
    }

    #[test]
    fn degree_lower_bounds_interference() {
        // A star: the center's degree equals its interference; leaves see
        // the center plus every other leaf whose radius reaches them.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(-0.5, 0.0),
            Point::new(0.0, 0.5),
        ]);
        let t = Topology::from_pairs(ns, &[(0, 1), (0, 2), (0, 3)]);
        let iv = interference_vector(&t);
        for v in 0..t.num_nodes() {
            assert!(iv[v] >= t.graph().degree(v), "deg <= I violated at {v}");
        }
    }

    #[test]
    fn coverage_by_non_neighbors_counts() {
        // Chain 0-1-2 with growing gaps: node 2's radius (to 1) reaches
        // node 0? positions 0, 0.3, 0.7: r_2 = 0.4, |2-0| = 0.7: no.
        // positions 0, 0.5, 0.6: r_2 = 0.1 no. Use 0, 0.45, 0.9:
        // r_2 = 0.45, |2-0| = 0.9 no. For coverage of 0 by 2 we need
        // r_2 >= 0.9 but r_2 = |2-1|. Take 1 close to 0: 0, 0.05, 1.0.
        let t = Topology::from_pairs(NodeSet::on_line(&[0.0, 0.05, 1.0]), &[(0, 1), (1, 2)]);
        // r_0 = 0.05, r_1 = 0.95, r_2 = 0.95.
        // I(0): covered by 1 (0.05 <= 0.95) and by 2 (1.0 > 0.95)? no.
        assert_eq!(interference_at(&t, 0), 1);
        // I(1): covered by 0 (0.05<=0.05) and 2 (0.95<=0.95) = 2.
        assert_eq!(interference_at(&t, 1), 2);
        // I(2): covered by 1 only (0 has tiny radius).
        assert_eq!(interference_at(&t, 2), 1);
        assert_eq!(graph_interference(&t), 2);
    }

    #[test]
    fn coincident_nodes_with_zero_length_link() {
        // Two nodes at the same position, linked: r = 0 for both, yet
        // each transmits and covers the other (deg <= I must hold).
        // A third coincident node without links transmits nothing.
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN, Point::ORIGIN]);
        let t = Topology::from_pairs(ns, &[(0, 1)]);
        let iv = interference_vector(&t);
        assert_eq!(iv, vec![1, 1, 2], "nodes 0/1 cover each other and node 2");
        assert_eq!(iv, interference_vector_naive(&t));
        for v in 0..3 {
            assert_eq!(interference_at(&t, v), iv[v], "per-node API must agree");
            assert!(iv[v] >= t.graph().degree(v), "deg <= I at {v}");
        }
    }

    #[test]
    fn fast_agrees_with_naive_on_extreme_radius_spread() {
        // Exponential chain: radii spread over many orders of magnitude —
        // the stress case for the grid cell-size heuristic.
        let scale = 2f64.powi(-20);
        let xs: Vec<f64> = (0..20).map(|i| (2f64.powi(i) - 1.0) * scale).collect();
        let ns = NodeSet::on_line(&xs);
        let pairs: Vec<(usize, usize)> = (1..20).map(|i| (i - 1, i)).collect();
        let t = Topology::from_pairs(ns, &pairs);
        assert_eq!(interference_vector(&t), interference_vector_naive(&t));
    }

    #[test]
    fn every_engine_agrees_on_figure2() {
        let (t, _, _) = figure2();
        let oracle = interference_vector_naive(&t);
        for e in Engine::ALL {
            assert_eq!(interference_vector_with(&t, e), oracle, "engine {}", e.name());
            assert_eq!(
                graph_interference_with(&t, e),
                oracle.iter().copied().max().unwrap_or(0),
                "engine {}",
                e.name()
            );
        }
    }

    #[test]
    fn engine_parses_from_cli_strings() {
        for e in Engine::ALL {
            assert_eq!(e.name().parse::<Engine>(), Ok(e));
        }
        for gone in [
            "grid",
            "indexed",
            "parallel",
            "streaming",
            "physical-naive",
            "physical-indexed",
        ] {
            assert!(gone.parse::<Engine>().is_err(), "{gone}");
        }
        assert_eq!(Engine::default(), Engine::Auto);
    }
}
