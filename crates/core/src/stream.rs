//! Streaming million-node interference kernels (UDG-free, SoA layout).
//!
//! A [`Topology`](rim_udg::Topology) carries the full adjacency structure with per-node
//! `Vec`s of neighbors. At 10⁶–10⁷ uniform nodes that edge list is the
//! memory wall — the UDG on a constant-density instance has Θ(n) edges
//! with heavy constants, and building it is itself `O(n²)` in the naive
//! form. But receiver-centric interference (Definition 3.1) never needs
//! the edges: it needs each node's **position** and **radius**, nothing
//! else. [`StreamInstance`] exploits that — it holds a bucket-permuted
//! structure-of-arrays grid ([`SoaGrid`](rim_geom::SoaGrid)) and one flat radius column
//! aligned with the grid's bucket order. No per-node allocation, no edge
//! list, no `Vec<Vec<…>>` anywhere in the hot path.
//!
//! Radii come from one of three sources, and the source decides how the
//! counts `I(v)` are taken:
//!
//! * [`StreamInstance::from_topology`] copies an existing topology's
//!   radius assignment (silent nodes, `deg = 0`, are marked and skipped
//!   exactly as the naive oracle skips them) — this is the path behind
//!   [`crate::receiver::Engine::Auto`], and it is differential-tested to
//!   be **bit-identical** to [`crate::interference_vector_naive`].
//! * [`StreamInstance::with_radii`] takes any per-node radius, or none
//!   for a silent node — the constructor `from_topology` calls, and the
//!   one `rim-phys` scatters its power-derived coverage radii through.
//!   Both count by the **SoA scatter**: one closed-disk query per
//!   transmitter, scattered into `u32` count buffers sharded over the
//!   workers.
//! * [`StreamInstance::try_with_nn_radii`] assigns every node its
//!   nearest-neighbor distance as radius, entirely from the index — the
//!   streaming analogue of the nearest-neighbor-forest radius
//!   assignment. Such an instance counts without the scatter (next
//!   section).
//!
//! # Nearest-neighbour radii at scale
//!
//! With nearest-neighbour radii, `v` lies in `D(u, r_u)` exactly when `v`
//! is a nearest neighbour of `u`, so the grid search that finds `r_u` has
//! already scanned every node `u` covers. The radius pass sweeps the grid
//! cell by cell ([`SoaGrid::for_each_nearest`](rim_geom::SoaGrid::for_each_nearest)):
//! it reads each cell's 3×3 block of cells once for all of the cell's
//! nodes and settles a node there when its nearest distance lies inside
//! the block's boundary, less a rounding margin (about 98 % of uniform
//! nodes at one node per cell); the rest run the closed-disk rounds of
//! [`SoaGrid::nearest_at`](rim_geom::SoaGrid::nearest_at), whose answers
//! the settled ones equal bit for bit (`geom.nn.block_misses` counts the
//! rest). The grid build consumes the generated columns: it gathers its
//! bucket-ordered y column into the input's x column, and the input's y
//! column becomes the radius column. The radius pass keeps, beside each
//! radius, the bucket position of the sender's nearest neighbour when it
//! is the only node in the disk, and the count is the in-degree of that
//! column: one sequential sweep, no disk query. A sender whose disk holds
//! more, a distance tie, is marked, and the count runs the scatter's own
//! disk query for it alone; `core.nn_tie_fallbacks` counts those senders.
//! The counts equal the scatter's bit for bit
//! (`core/tests/streaming_differential.rs` pins them against it and
//! against the naive oracle).
//!
//! Differential oracles stop where `O(n²)` stops being runnable. Exact
//! bounds take over: `Σ I(v) = n` exactly when every nearest neighbour
//! is unique, and two nodes whose nearest neighbour is `v` subtend at
//! least 60° at `v`, so `max I(v) <= 6`, or more than 60° when nearest
//! neighbours are unique, so then `max I(v) <= 5`.
//! `core/tests/streaming_differential.rs::nn_radii_gate_at_1e5` asserts
//! `Σ I(v) = n` and `max I(v) <= 5`. [`sqrt_log_envelope`] is the looser
//! band `rim analyze --generate` reports against, a sanity gate on this
//! path rather than a Θ(√(log n)) check (see there).

use rim_geom::{try_filled, GridCapacityError, Point, SoaGrid, SoaPoints};
use rim_par::{num_threads, par_fill_chunk_pairs, par_scatter_u32};
use rim_udg::Topology;

/// Target number of senders per parallel chunk.
const STREAM_CHUNK: usize = 1024;

/// Radius marker for nodes that transmit nothing (`deg = 0` in the
/// source topology). Negative radii cannot arise from distances, so the
/// kernel can test `r < 0.0` without a separate mask column.
const SILENT: f64 = -1.0;

/// Nearest-position marker of a sender whose disk holds more than its
/// nearest neighbour, or whose distance is infinite (see
/// [`rim_geom::Nearest::unique`]). Grids hold at most `u32::MAX` points,
/// so no position is `u32::MAX`.
const TIED: u32 = u32::MAX;

/// A positions-plus-radii interference instance in streaming layout:
/// SoA coordinates, bucket-permuted grid, and a radius column aligned
/// with the grid's bucket order.
///
/// ```
/// use rim_core::stream::StreamInstance;
/// use rim_geom::{Point, SoaPoints};
///
/// // Three collinear nodes, each with its nearest-neighbor distance as
/// // radius: the middle node is covered by both ends.
/// let pts = SoaPoints::from_points(&[
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(2.1, 0.0),
/// ]);
/// let inst = StreamInstance::try_with_nn_radii(pts).expect("three points fit the grid");
/// assert_eq!(inst.interference_counts(), vec![1, 2, 0]);
/// assert_eq!(inst.interference_max_sum(1), Ok((2, 3)));
/// ```
#[derive(Debug, Clone)]
pub struct StreamInstance {
    grid: SoaGrid,
    /// Radius of the node at bucket position `k` (`SILENT` if it does
    /// not transmit) — aligned with the grid columns so the kernel's
    /// sender loop is one sequential sweep.
    radii: Vec<f64>,
    /// For nearest-neighbour radii, the bucket position of the only node
    /// in each sender's disk, or `TIED`; empty for any other radii, whose
    /// counts come from the scatter.
    nearest: Vec<u32>,
}

impl StreamInstance {
    /// Builds a streaming instance carrying an existing topology's
    /// radius assignment ([`StreamInstance::with_radii`]). Nodes with no
    /// neighbors are marked silent and contribute nothing, exactly as in
    /// [`crate::interference_vector_naive`]; the counts are therefore
    /// bit-identical to every other engine on the same topology.
    pub fn from_topology(t: &Topology) -> Self {
        let _span = rim_obs::span("stream/build_from_topology");
        let radii: Vec<Option<f64>> = (0..t.num_nodes())
            .map(|u| (t.graph().degree(u) > 0).then(|| t.radius(u)))
            .collect();
        Self::with_radii(t.nodes().points(), &radii)
    }

    /// Builds a streaming instance over [`crate::receiver::build_index`]'s
    /// grid in which node `u` transmits with radius `r` when `radii[u]`
    /// is `Some(r)`, `r >= 0`, and is silent when it is `None`. The
    /// counts are exactly `I(v) = #{u != v : radii[u] = Some(r),
    /// dist(u, v) <= r}`.
    ///
    /// Panics, in every build profile, when the lengths differ or a
    /// radius is NaN or negative: the scatter would count such a disk as
    /// empty, a silent wrong answer.
    // rim-lint: allow(panic-freedom) — grid items are a permutation of `0..points.len()`, and the lengths are asserted equal
    pub fn with_radii(points: &[Point], radii: &[Option<f64>]) -> Self {
        assert_eq!(points.len(), radii.len(), "one radius (or none) per point");
        assert!(
            radii.iter().flatten().all(|&r| r >= 0.0),
            "transmission radii must be >= 0 and not NaN"
        );
        let grid = crate::receiver::build_index(points, radii.iter().flatten().copied());
        let radii = (0..grid.len())
            .map(|k| radii[grid.item(k)].unwrap_or(SILENT))
            .collect();
        StreamInstance { grid, radii, nearest: Vec::new() }
    }

    /// Builds a streaming instance straight from points, assigning every
    /// node its nearest-neighbor distance as transmission radius — the
    /// UDG-free path: no topology, no edge list, `O(n)` memory. Errors
    /// when the store exceeds the grid's `u32` item capacity or a
    /// point-sized column does not fit in memory. The radius pass runs on
    /// [`num_threads`] workers.
    ///
    /// A single-node (or empty) instance has no neighbors to reach, so
    /// all nodes are silent and every count is zero.
    pub fn try_with_nn_radii(points: SoaPoints) -> Result<Self, GridCapacityError> {
        Self::try_with_nn_radii_sharded(points, num_threads())
    }

    /// [`StreamInstance::try_with_nn_radii`] with the grid build and the
    /// radius pass split over `threads` workers. The grid is the same for
    /// every worker count and each radius and nearest position is a pure
    /// function of its bucket position, so the instance is identical for
    /// every `threads >= 1`.
    pub fn try_with_nn_radii_sharded(
        points: SoaPoints,
        threads: usize,
    ) -> Result<Self, GridCapacityError> {
        let _span = rim_obs::span("stream/build_nn");
        let n = points.len();
        // About one point per cell, so the nearest-neighbour search
        // touches O(1) buckets. The build consumes the store: it gathers
        // its bucket-ordered y column into the input's x column, and the
        // input's y column becomes the radius column.
        let (grid, mut radii) = {
            let _span = rim_obs::span("stream/soa_build");
            SoaGrid::try_build_unit_density(points, threads)?
        };
        let mut nearest = try_filled(n, n, TIED)?;
        nn_radii(&grid, threads, &mut radii, &mut nearest);
        Ok(StreamInstance { grid, radii, nearest })
    }

    /// Number of nodes in the instance.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Returns `true` for an empty instance.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Per-node interference `out[v] = I(v)` (original node order),
    /// computed sequentially. Bit-identical to
    /// [`crate::interference_vector_naive`] on the same instance.
    // rim-lint: root
    pub fn interference_counts(&self) -> Vec<u32> {
        let _span = rim_obs::span("interference/streaming");
        self.by_node(self.position_counts(1))
    }

    /// Per-node interference with the scatter sharded over `threads`
    /// workers, each accumulating into a private `u32` buffer merged at
    /// the barrier ([`rim_par::par_scatter_u32`]); a nearest-neighbour
    /// instance counts on the calling thread instead. The output is
    /// **thread-count-invariant**: every worker scatters a disjoint
    /// sender range and integer addition commutes, so the merged counts
    /// are bit-identical for any `threads >= 1`.
    // rim-lint: root
    pub fn interference_counts_sharded(&self, threads: usize) -> Vec<u32> {
        let _span = rim_obs::span("interference/streaming_sharded");
        self.by_node(self.position_counts(threads))
    }

    /// The largest and the total interference, `(max_v I(v), Σ_v I(v))`,
    /// counted as [`StreamInstance::interference_counts_sharded`] counts.
    /// Both reduce the counts in the grid's bucket order, so no per-node
    /// vector is ever built; they equal the max and sum of the per-node
    /// counts for any `threads >= 1`. Errors when the count column of a
    /// nearest-neighbour instance does not fit in memory.
    // rim-lint: root
    pub fn interference_max_sum(&self, threads: usize) -> Result<(u32, u64), GridCapacityError> {
        let _span = rim_obs::span("interference/streaming_sharded");
        let counts = if self.nearest.is_empty() {
            self.scatter_counts(threads)
        } else {
            let mut counts = try_filled(self.len(), self.len(), 0)?;
            self.nn_in_degree(&mut counts);
            counts
        };
        let max = counts.iter().copied().max().unwrap_or(0);
        Ok((max, counts.iter().map(|&c| u64::from(c)).sum()))
    }

    /// Counts in bucket-position space: the in-degree of the nearest
    /// column for nearest-neighbour radii, the scatter otherwise.
    fn position_counts(&self, chunks: usize) -> Vec<u32> {
        if self.nearest.is_empty() {
            return self.scatter_counts(chunks);
        }
        let mut counts = vec![0; self.len()];
        self.nn_in_degree(&mut counts);
        counts
    }

    /// The SoA scatter: senders are swept in bucket order (the radius
    /// column and both coordinate columns stream sequentially), and
    /// counts are accumulated *in bucket-position space* — so neighbor
    /// hits also write near each other.
    // rim-lint: allow(panic-freedom) — `radii` and the scatter buffers all have length `n` = grid.len(), and positions stay below it
    fn scatter_counts(&self, chunks: usize) -> Vec<u32> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let chunks = chunks.min((n / STREAM_CHUNK).max(1));
        par_scatter_u32(n, n, chunks, |range, buf| {
            let mut queries = 0u64;
            for k in range {
                let r = self.radii[k];
                if r < 0.0 {
                    continue; // silent node: transmits nothing
                }
                queries += 1;
                // Closed predicate at distance level, same as every other
                // engine: dist(u, v) <= r_u, evaluated inside the grid.
                self.grid.for_each_pos_in_disk(self.grid.point_at(k), r, |j| {
                    if j != k {
                        buf[j] += 1;
                    }
                });
            }
            // One counter update per chunk, not per query.
            rim_obs::counter_add("core.disk_queries", queries);
        })
    }

    /// Adds every nearest-neighbour sender's hits to `counts` (zeroed,
    /// one slot per bucket position): one for its only nearest
    /// neighbour, or, for a `TIED` sender, the hits of the scatter's own
    /// disk query. Sequential, so the counts cannot depend on the thread
    /// count. Counts `core.nn_tie_fallbacks`.
    // rim-lint: root
    fn nn_in_degree(&self, counts: &mut [u32]) {
        let _span = rim_obs::span("stream/nn_in_degree");
        let mut fallbacks = 0u64;
        for (k, (&near, &r)) in self.nearest.iter().zip(&self.radii).enumerate() {
            if let Some(count) = counts.get_mut(near as usize) {
                *count += 1;
            } else if r >= 0.0 {
                fallbacks += 1;
                self.grid.for_each_pos_in_disk(self.grid.point_at(k), r, |j| {
                    if let Some(count) = counts.get_mut(j).filter(|_| j != k) {
                        *count += 1;
                    }
                });
            }
        }
        rim_obs::counter_add("core.nn_tie_fallbacks", fallbacks);
    }

    /// Un-permutes counts from bucket positions back to node ids.
    // rim-lint: allow(panic-freedom) — grid items are a permutation of `0..n`
    fn by_node(&self, pos_counts: Vec<u32>) -> Vec<u32> {
        let mut out = vec![0u32; pos_counts.len()];
        for (k, &c) in pos_counts.iter().enumerate() {
            out[self.grid.item(k)] = c;
        }
        out
    }

}

/// Fills the nearest-neighbour `radii` and `nearest` columns of `grid`,
/// in bucket order, by `threads` workers over contiguous position
/// windows ([`par_fill_chunk_pairs`]), each window swept cell by cell
/// ([`SoaGrid::for_each_nearest`]): each position gets its
/// [`SoaGrid::nearest_at`] distance and, when that neighbour is alone in
/// the disk, its position, else `TIED`. A store with fewer than two
/// points has no neighbors, so every node is `SILENT`.
// rim-lint: root
fn nn_radii(grid: &SoaGrid, threads: usize, radii: &mut [f64], nearest: &mut [u32]) {
    let _span = rim_obs::span("stream/nn_radii");
    let threads = threads.min((grid.len() / STREAM_CHUNK).max(1));
    par_fill_chunk_pairs(radii, nearest, threads, |first, radii, nearest| {
        let mut slots = radii.iter_mut().zip(nearest);
        grid.for_each_nearest(first..first + slots.len(), |nb| {
            if let Some((r, near)) = slots.next() {
                (*r, *near) = match nb {
                    Some(nb) if nb.unique => (nb.dist, u32::try_from(nb.pos).unwrap_or(TIED)),
                    Some(nb) => (nb.dist, TIED),
                    None => (SILENT, TIED),
                };
            }
        });
    });
}

/// The band `rim analyze --generate` reports max receiver-centric
/// interference against, on **uniform-random instances with
/// nearest-neighbor radii**: `(lo, hi) = (0.8·√(ln n), 6.0·√(ln n))`.
///
/// The √(ln n) shape comes from Devroye–Morin (arXiv 1202.5945), who
/// prove that the max interference of MST-style radius assignments on
/// uniform points is Θ(√(log n)) w.h.p. The nearest-neighbour radii of
/// [`StreamInstance::try_with_nn_radii`] are pointwise at most the MST
/// radii (every MST links each node to something at least as far as its
/// nearest neighbor), but they do not inherit the lower bound: with them
/// `max I(v) <= 6`, and `<= 5` when nearest neighbours are unique, by
/// the 60° argument of the module docs. On this path the band is
/// therefore a loose sanity gate, not a Θ(√(log n)) check: it catches a
/// kernel whose counts collapse or grow with `n`, while a kernel that
/// quadrupled every count would still pass; `Σ I(v) = n` and `max I(v)
/// <= 5` are the exact checks. For seeds 1–3, max I(v) is 4, 4, 4 at
/// 10⁵ and at 10⁶; 4, 5, 4 at 2·10⁶; and 5, 4, 5 at 10⁷, which is
/// 1.0–1.3·√(ln n). The constants are empirical, with a generous margin
/// on both sides.
pub fn sqrt_log_envelope(n: usize) -> (f64, f64) {
    let s = (n.max(2) as f64).ln().sqrt();
    (0.8 * s, 6.0 * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::interference_vector_naive;
    use rim_geom::Point;
    use rim_udg::{NodeSet, Topology};

    fn chain_topology() -> Topology {
        let xs = [0.0, 0.05, 1.0];
        Topology::from_pairs(NodeSet::on_line(&xs), &[(0, 1), (1, 2)])
    }

    #[test]
    fn from_topology_matches_naive_oracle() {
        let t = chain_topology();
        let inst = StreamInstance::from_topology(&t);
        let naive: Vec<u32> = interference_vector_naive(&t)
            .into_iter()
            .map(|c| c as u32)
            .collect();
        assert_eq!(inst.interference_counts(), naive);
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
    }

    #[test]
    fn silent_nodes_contribute_nothing() {
        // Two linked nodes plus one isolated node: the isolated node is
        // covered but transmits nothing.
        let ns = NodeSet::on_line(&[0.0, 0.4, 0.5]);
        let t = Topology::from_pairs(ns, &[(0, 1)]);
        let inst = StreamInstance::from_topology(&t);
        assert_eq!(inst.interference_counts(), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "radii must be >= 0 and not NaN")]
    fn with_radii_rejects_a_nan_radius() {
        let pts = [Point::ORIGIN, Point::new(1.0, 0.0)];
        StreamInstance::with_radii(&pts, &[Some(f64::NAN), Some(1.0)]);
    }

    #[test]
    #[should_panic(expected = "radii must be >= 0 and not NaN")]
    fn with_radii_rejects_a_negative_radius() {
        let pts = [Point::ORIGIN, Point::new(1.0, 0.0)];
        StreamInstance::with_radii(&pts, &[None, Some(-0.5)]);
    }

    #[test]
    fn coincident_zero_radius_links_count() {
        let ns = NodeSet::new(vec![Point::ORIGIN, Point::ORIGIN, Point::ORIGIN]);
        let t = Topology::from_pairs(ns, &[(0, 1)]);
        let inst = StreamInstance::from_topology(&t);
        assert_eq!(inst.interference_counts(), vec![1, 1, 2]);
    }

    #[test]
    fn sharded_is_thread_count_invariant() {
        let pts: Vec<Point> = (0..640)
            .map(|i| Point::new((i % 32) as f64 * 0.21, (i / 32) as f64 * 0.17))
            .collect();
        let inst =
            StreamInstance::try_with_nn_radii(SoaPoints::from_points(&pts)).expect("fits the grid");
        let reference = inst.interference_counts();
        for threads in 1..=8 {
            assert_eq!(
                inst.interference_counts_sharded(threads),
                reference,
                "threads={threads}"
            );
        }
        let sum = reference.iter().map(|&c| u64::from(c)).sum();
        for threads in [1, 4] {
            assert_eq!(
                inst.interference_max_sum(threads),
                Ok((reference.iter().copied().max().unwrap_or(0), sum))
            );
        }
    }

    #[test]
    fn nn_instances_are_thread_count_invariant_above_the_build_gate() {
        // Just above rim-geom's build gate, so 2..=8 workers build the
        // grid in parallel as well as running the radius pass.
        let n = rim_geom::PAR_BUILD_MIN + 1_000;
        let side = (n as f64).sqrt();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * side
        };
        let pts: Vec<Point> = (0..n).map(|_| Point::new(rnd(), rnd())).collect();
        let build = |threads| {
            let inst =
                StreamInstance::try_with_nn_radii_sharded(SoaPoints::from_points(&pts), threads)
                    .expect("fits the grid");
            let items: Vec<usize> = (0..n).map(|k| inst.grid.item(k)).collect();
            let radii: Vec<u64> = inst.radii.iter().map(|r| r.to_bits()).collect();
            (items, radii, inst.nearest)
        };
        let one = build(1);
        for threads in 2..=8 {
            assert!(build(threads) == one, "threads={threads}");
        }
    }

    #[test]
    fn streaming_engine_agrees_with_naive() {
        let pts: Vec<Point> = (0..300)
            .map(|i| {
                let a = i as f64 * 0.7;
                Point::new(a.sin() * 3.0 + a * 0.01, a.cos() * 3.0)
            })
            .collect();
        let t = rim_udg::radius::induced_topology(&NodeSet::new(pts), &vec![0.5; 300]);
        let inst = StreamInstance::from_topology(&t);
        let got: Vec<usize> = inst.interference_counts().into_iter().map(|c| c as usize).collect();
        assert_eq!(got, interference_vector_naive(&t));
    }

    #[test]
    fn nn_radii_empty_and_singleton() {
        let empty = StreamInstance::try_with_nn_radii(SoaPoints::new()).expect("fits the grid");
        assert!(empty.is_empty());
        assert_eq!(empty.interference_counts(), Vec::<u32>::new());
        assert_eq!(empty.interference_max_sum(1), Ok((0, 0)));
        let one = StreamInstance::try_with_nn_radii(SoaPoints::from_points(&[Point::ORIGIN]))
            .expect("fits the grid");
        assert_eq!(one.interference_counts(), vec![0]);
    }

    #[test]
    fn envelope_is_sane() {
        let (lo, hi) = sqrt_log_envelope(100_000);
        assert!(lo > 1.0 && hi > lo);
        let (lo6, hi6) = sqrt_log_envelope(1_000_000);
        assert!(lo6 > lo && hi6 > hi, "envelope grows with n");
    }
}
