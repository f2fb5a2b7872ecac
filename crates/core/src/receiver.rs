//! The receiver-centric interference measure (Definitions 3.1 and 3.2).
//!
//! Three batch kernels compute the same counts:
//!
//! * [`interference_vector_naive`] — the `O(n²)` all-pairs reference.
//!   This is the **permanent oracle**: it transcribes Definition 3.1
//!   literally and every faster kernel is differential-tested against it.
//! * [`Engine::Indexed`] — one closed-disk range query per transmitter
//!   over a [`SoaGrid`] (overloaded cells split on skewed spreads).
//! * [`Engine::Parallel`] — the indexed scatter split across scoped
//!   threads with per-thread accumulators.
//!
//! All three evaluate the identical predicate `deg(u) > 0 && dist(u,v)
//! <= r_u` at distance level, so they agree *exactly* — not
//! approximately — on every input; [`Engine::Auto`] may therefore pick
//! by size alone.
//!
//! [`Engine::Streaming`] routes through the structure-of-arrays kernel
//! of [`crate::stream`] — the same counts computed without the edge
//! list, sized for 10⁶–10⁷-node instances.
//!
//! Two further engines route through the physical-layer (SINR) model of
//! `rim-phys` in its disk-equivalent instantiation:
//! [`Engine::PhysicalNaive`] and [`Engine::PhysicalIndexed`] compute the
//! same counts via transmit powers and log-distance path loss, and the
//! disk-limit theorem (`DESIGN.md` §11) makes them agree bit-for-bit
//! with the disk kernels — a differential-tested contract.

use crate::parallel::{num_threads, par_scatter_u32};
use rim_geom::SoaGrid;
use rim_udg::Topology;

/// Below this node count the all-pairs scan beats any index build.
const AUTO_INDEXED_MIN: usize = 64;
/// From this node count on, threads amortize their spawn cost.
const AUTO_PARALLEL_MIN: usize = 8192;
/// Target number of senders per parallel chunk.
const PARALLEL_CHUNK: usize = 1024;

/// Strategy selector for the batch interference kernels.
///
/// Every engine computes bit-identical results (a property-tested
/// invariant); they differ only in running time. Parse one from a CLI
/// string with [`str::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// All-pairs `O(n²)` scan — the oracle every other engine must match.
    Naive,
    /// Spatial-index scatter: one disk query per transmitter.
    Indexed,
    /// Indexed scatter split across `std::thread::scope` workers.
    Parallel,
    /// Disk-equivalent physical (SINR) model, all-pairs coverage scan —
    /// exercises the `rim-phys` path-loss pipeline end to end while the
    /// disk-limit theorem keeps the counts bit-identical to [`Engine::Naive`].
    PhysicalNaive,
    /// Disk-equivalent physical model with one coverage-disk query per
    /// transmitter over the shared [`SoaGrid`].
    PhysicalIndexed,
    /// Structure-of-arrays streaming kernel ([`crate::stream`]): the
    /// topology's radii are carried into a bucket-permuted SoA grid and
    /// scattered without touching the edge list — the 10⁶–10⁷-node path.
    Streaming,
    /// Pick by instance size: naive below 64 nodes, indexed above,
    /// parallel from 8192 nodes when more than one core is available.
    #[default]
    Auto,
}

impl Engine {
    /// All selectable engines, in oracle-first order (useful for tests
    /// and help text).
    pub const ALL: [Engine; 7] = [
        Engine::Naive,
        Engine::Indexed,
        Engine::Parallel,
        Engine::PhysicalNaive,
        Engine::PhysicalIndexed,
        Engine::Streaming,
        Engine::Auto,
    ];

    /// The CLI-facing name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Indexed => "indexed",
            Engine::Parallel => "parallel",
            Engine::PhysicalNaive => "physical-naive",
            Engine::PhysicalIndexed => "physical-indexed",
            Engine::Streaming => "streaming",
            Engine::Auto => "auto",
        }
    }

    /// Resolves `Auto` to the concrete engine for an instance of `n` nodes.
    fn resolve(self, n: usize) -> Engine {
        match self {
            Engine::Auto => {
                if n < AUTO_INDEXED_MIN {
                    Engine::Naive
                } else if n >= AUTO_PARALLEL_MIN && num_threads() > 1 {
                    Engine::Parallel
                } else {
                    Engine::Indexed
                }
            }
            e => e,
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "naive" => Ok(Engine::Naive),
            "indexed" => Ok(Engine::Indexed),
            "parallel" => Ok(Engine::Parallel),
            "physical-naive" => Ok(Engine::PhysicalNaive),
            "physical-indexed" => Ok(Engine::PhysicalIndexed),
            "streaming" => Ok(Engine::Streaming),
            "auto" => Ok(Engine::Auto),
            other => Err(format!(
                "unknown engine `{other}` (expected naive|indexed|parallel|physical-naive|physical-indexed|streaming|auto)"
            )),
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

/// Builds the spatial index the batch kernels scatter over: the median
/// positive radius makes a good cell hint (it balances bucket population
/// against buckets touched per query), and the grid splits the cells a
/// skewed spread overloads. Public so
/// other layers computing coverage relations (e.g. the simulator's PHY
/// tables) share the same heuristic.
// rim-lint: allow(panic-freedom) — the median index is guarded by the is_empty branch
pub fn build_index(t: &Topology) -> SoaGrid {
    let _span = rim_obs::span("interference/index_build");
    let mut radii: Vec<f64> = t.radii().iter().copied().filter(|&r| r > 0.0).collect();
    let hint = if radii.is_empty() {
        1.0 // edgeless: nobody transmits, any index shape works
    } else {
        radii.sort_unstable_by(f64::total_cmp);
        radii[radii.len() / 2]
    };
    SoaGrid::from_points(t.nodes().points(), hint)
}

/// Scatters sender `u`'s coverage contribution into `out` via `index`,
/// returning the number of disk queries issued (0 for silent nodes, 1
/// for transmitters) so the kernels can report query totals in one
/// counter update per batch. Accumulators are `u32`: interference is
/// bounded by `n - 1`, and the grids refuse more than `u32::MAX` points,
/// so the counts cannot overflow — and halving the accumulator width
/// halves the cache traffic of the hot scatter loop.
#[inline]
fn scatter_sender(t: &Topology, index: &SoaGrid, u: usize, out: &mut [u32]) -> u64 {
    if t.graph().degree(u) == 0 {
        return 0; // isolated nodes transmit nothing
    }
    index.for_each_in_disk(t.nodes().pos(u), t.radius(u), |v| {
        if v != u {
            out[v] += 1;
        }
    });
    1
}

/// Indexed kernel: one closed-disk range query per transmitter, expected
/// `O(n + Σ_u I-contribution(u))` for bounded densities. The range query
/// evaluates the same closed predicate at distance level (`dist(u,v) <=
/// r_u`, never on squares — `r_u` is itself a `dist()` result, and
/// squaring would break exact boundary ties), so the counts equal
/// [`interference_vector_naive`]'s exactly.
fn interference_vector_indexed(t: &Topology, index: &SoaGrid) -> Vec<usize> {
    let n = t.num_nodes();
    let mut out = vec![0u32; n];
    let mut queries = 0u64;
    for u in 0..n {
        queries += scatter_sender(t, index, u, &mut out);
    }
    rim_obs::counter_add("core.disk_queries", queries);
    out.into_iter().map(|c| c as usize).collect()
}

/// Parallel kernel: the sender range `0..n` is sharded over
/// [`par_scatter_u32`] — every worker scatters into a private zeroed
/// `u32` buffer (no false sharing on a common output vector) and the
/// buffers are summed at the barrier. Integer addition commutes, so the
/// result is bit-identical to the indexed kernel for any thread count.
fn interference_vector_parallel(t: &Topology, index: &SoaGrid) -> Vec<usize> {
    let n = t.num_nodes();
    let chunks = (n / PARALLEL_CHUNK).clamp(1, num_threads());
    let counts = par_scatter_u32(n, n, chunks, |range, buf| {
        let mut queries = 0u64;
        for u in range {
            queries += scatter_sender(t, index, u, buf);
        }
        // One counter update per chunk, not per query: the shared-sink
        // cost stays O(chunks) however large the instance.
        rim_obs::counter_add("core.disk_queries", queries);
    });
    counts.into_iter().map(|c| c as usize).collect()
}

/// Per-node interference via an explicitly chosen [`Engine`]:
/// `out[v] = I(v)`. All engines agree exactly; see the module docs.
pub fn interference_vector_with(t: &Topology, engine: Engine) -> Vec<usize> {
    let n = t.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let resolved = engine.resolve(n);
    let _span = rim_obs::span(match resolved {
        Engine::Naive => "interference/naive",
        Engine::Indexed => "interference/indexed",
        Engine::PhysicalNaive => "interference/physical_naive",
        Engine::PhysicalIndexed => "interference/physical_indexed",
        Engine::Streaming => "interference/streaming_engine",
        Engine::Parallel | Engine::Auto => "interference/parallel",
    });
    match resolved {
        Engine::Naive => interference_vector_naive(t),
        Engine::Indexed => interference_vector_indexed(t, &build_index(t)),
        Engine::PhysicalNaive => crate::physical::disk_limit_vector(t, false),
        Engine::PhysicalIndexed => crate::physical::disk_limit_vector(t, true),
        Engine::Streaming => crate::stream::StreamInstance::from_topology(t)
            .interference_counts_sharded(num_threads())
            .into_iter()
            .map(|c| c as usize)
            .collect(),
        Engine::Parallel | Engine::Auto => interference_vector_parallel(t, &build_index(t)),
    }
}

/// Per-node interference with automatic engine selection
/// ([`Engine::Auto`]) — the default entry point of the workspace.
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
    fn parallel_splits_are_exercised_and_exact() {
        // Enough nodes that the parallel kernel actually spawns threads
        // (n / PARALLEL_CHUNK >= 2) on multi-core machines.
        let n = 2 * super::PARALLEL_CHUNK;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 64) as f64 * 0.1, (i / 64) as f64 * 0.1))
            .collect();
        let pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let t = Topology::from_pairs(NodeSet::new(pts), &pairs);
        let oracle = interference_vector_naive(&t);
        assert_eq!(interference_vector_with(&t, Engine::Parallel), oracle);
        assert_eq!(interference_vector_with(&t, Engine::Indexed), oracle);
    }

    #[test]
    fn engine_parses_from_cli_strings() {
        for e in Engine::ALL {
            assert_eq!(e.name().parse::<Engine>(), Ok(e));
        }
        assert!("grid".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Auto);
    }
}
