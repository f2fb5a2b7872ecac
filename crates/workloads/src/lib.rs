//! Deterministic workload generators for the `rim` experiments.
//!
//! Every generator takes an explicit `u64` seed and uses a splittable
//! small RNG, so every experiment in the benchmark harness is exactly
//! reproducible. Generators come in two flavours:
//!
//! * 2-D [`NodeSet`]s — [`uniform_square`], [`gaussian_clusters`],
//!   [`grid_lattice`], and the Figure 1 instance [`fig1_instance`];
//!   plus the million-node variant [`uniform_soa`], which draws the
//!   same coordinates straight into two columns without ever
//!   materializing a `Vec<Point>`;
//! * 1-D [`HighwayInstance`]s — [`uniform_highway`],
//!   [`clustered_highway`], and [`fragmented_exponential`] (the
//!   worst-case-style input for `A_apx`).

#![forbid(unsafe_code)]

use rim_rng::SmallRng;
use rim_geom::Point;
use rim_highway::HighwayInstance;
use rim_udg::NodeSet;

/// `n` points uniform in the `side × side` square.
pub fn uniform_square(n: usize, side: f64, seed: u64) -> NodeSet {
    let mut pts = Vec::with_capacity(n);
    draw_uniform(n, side, seed, |x, y| pts.push(Point::new(x, y)));
    NodeSet::new(pts)
}

/// The one draw loop of [`uniform_square`] and [`uniform_soa`]: hands
/// `n` uniform points of the `side × side` square to `push`. Draw order
/// is pinned: point `i` consumes RNG draws `2i` (x) and `2i + 1` (y), so
/// both generators produce bit-identical coordinates for the same
/// `(n, side, seed)`.
fn draw_uniform(n: usize, side: f64, seed: u64, mut push: impl FnMut(f64, f64)) {
    assert!(side > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..n {
        let x = rng.gen::<f64>() * side;
        let y = rng.gen::<f64>() * side;
        push(x, y);
    }
}

/// `n` uniform points streamed straight into a structure-of-arrays
/// store: two flat `f64` columns and nothing else, the input layout of
/// the streaming interference kernel (`rim_core::stream`). Coordinates
/// are bit-identical to [`uniform_square`] with the same arguments.
/// Panics when the columns do not fit in memory; [`try_uniform_soa`]
/// returns the error instead.
pub fn uniform_soa(n: usize, side: f64, seed: u64) -> rim_geom::SoaPoints {
    match try_uniform_soa(n, side, seed) {
        Ok(soa) => soa,
        // rim-lint: allow(panic-freedom) — documented contract; try_uniform_soa is the checked path
        // rim-lint: allow(no-unwrap-in-lib) — documented contract; try_uniform_soa is the checked path
        Err(e) => panic!("{e}"),
    }
}

/// [`uniform_soa`], with both columns reserved by
/// [`rim_geom::SoaPoints::try_with_capacity`]: errors, naming `n` and
/// the bytes asked for, when memory runs out before a point is drawn.
pub fn try_uniform_soa(
    n: usize,
    side: f64,
    seed: u64,
) -> Result<rim_geom::SoaPoints, rim_geom::GridCapacityError> {
    let mut soa = rim_geom::SoaPoints::try_with_capacity(n)?;
    draw_uniform(n, side, seed, |x, y| soa.push(x, y));
    Ok(soa)
}

/// `k` Gaussian clusters of `per_cluster` points each; cluster centers
/// uniform in the `side × side` square, point offsets normal with the
/// given standard deviation (Box–Muller; no external distributions
/// crate needed).
pub fn gaussian_clusters(
    k: usize,
    per_cluster: usize,
    side: f64,
    std_dev: f64,
    seed: u64,
) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let normal = move |rng: &mut SmallRng| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let mut pts = Vec::with_capacity(k * per_cluster);
    for _ in 0..k {
        let cx = rng.gen::<f64>() * side;
        let cy = rng.gen::<f64>() * side;
        for _ in 0..per_cluster {
            pts.push(Point::new(
                cx + normal(&mut rng) * std_dev,
                cy + normal(&mut rng) * std_dev,
            ));
        }
    }
    NodeSet::new(pts)
}

/// A `rows × cols` lattice with the given spacing, optionally jittered by
/// `jitter` (uniform in `[-jitter, jitter]` per coordinate).
pub fn grid_lattice(rows: usize, cols: usize, spacing: f64, jitter: f64, seed: u64) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let jx = if jitter > 0.0 { rng.gen_range(-jitter..=jitter) } else { 0.0 };
            let jy = if jitter > 0.0 { rng.gen_range(-jitter..=jitter) } else { 0.0 };
            pts.push(Point::new(c as f64 * spacing + jx, r as f64 * spacing + jy));
        }
    }
    NodeSet::new(pts)
}

/// The Figure 1 instance: a homogeneous cluster of `n − 1` nodes (uniform
/// in a disk of diameter `cluster_diameter` ≪ 1) plus one outlier to the
/// right whose only in-range neighbor territory is the cluster edge.
///
/// Adding the outlier forces whatever topology-control algorithm runs on
/// it to create one long link — which drags the *sender-centric* measure
/// up to `n`, while the receiver-centric measure grows by `O(1)`.
///
/// Returns `(cluster_only, with_outlier)` so robustness experiments can
/// evaluate both sides of the arrival.
pub fn fig1_instance(n: usize, cluster_diameter: f64, seed: u64) -> (NodeSet, NodeSet) {
    assert!(n >= 3);
    assert!(cluster_diameter > 0.0 && cluster_diameter < 0.5);
    let mut rng = SmallRng::seed_from_u64(seed);
    let r = cluster_diameter / 2.0;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n - 1 {
        // Rejection-sample the disk centered at (r, 0).
        loop {
            let x = rng.gen_range(-1.0f64..=1.0);
            let y = rng.gen_range(-1.0f64..=1.0);
            if x * x + y * y <= 1.0 {
                pts.push(Point::new(r + x * r, y * r));
                break;
            }
        }
    }
    let cluster = NodeSet::new(pts.clone());
    // Outlier at distance just under 1 from the cluster's rightmost edge:
    // in range of (at least) the rightmost cluster nodes, out of range of
    // none-to-few — one new link spans the whole picture.
    let max_x = pts
        .iter()
        .map(|p| p.x)
        .fold(f64::NEG_INFINITY, f64::max);
    pts.push(Point::new(max_x + 0.95, 0.0));
    (cluster, NodeSet::new(pts))
}

/// `n` positions uniform on `[0, span]`.
pub fn uniform_highway(n: usize, span: f64, seed: u64) -> HighwayInstance {
    assert!(span > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    HighwayInstance::new((0..n).map(|_| rng.gen::<f64>() * span).collect())
}

/// A highway of `k` dense clusters (uniform within `cluster_width`) whose
/// centers are `center_gap` apart.
pub fn clustered_highway(
    k: usize,
    per_cluster: usize,
    cluster_width: f64,
    center_gap: f64,
    seed: u64,
) -> HighwayInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(k * per_cluster);
    for c in 0..k {
        let base = c as f64 * center_gap;
        for _ in 0..per_cluster {
            xs.push(base + rng.gen::<f64>() * cluster_width);
        }
    }
    HighwayInstance::new(xs)
}

/// A *fragmented exponential* highway: `pieces` exponential chains of
/// `chain_len` nodes each, embedded at uniform offsets within `[0, 1)` so
/// the whole instance stays within mutual range. This is the structure
/// Lemma 5.5 extracts from any high-`γ` instance, and the regime where
/// `A_apx` must switch to `A_gen`.
pub fn fragmented_exponential(pieces: usize, chain_len: usize, seed: u64) -> HighwayInstance {
    assert!(pieces >= 1 && chain_len >= 2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let chain = rim_highway::exponential_chain(chain_len);
    let piece_span = chain.span();
    let mut xs = Vec::with_capacity(pieces * chain_len);
    for _ in 0..pieces {
        // Scale each copy down so pieces don't dwarf the unit span, and
        // drop it at a random offset.
        let scale = 1.0 / (pieces as f64 * 2.0);
        let offset = rng.gen::<f64>() * (1.0 - piece_span * scale).max(0.0);
        xs.extend(chain.positions().iter().map(|&x| offset + x * scale));
    }
    HighwayInstance::new(xs)
}

/// A mobility trace: a sequence of node-position snapshots under the
/// random-waypoint model (every node picks a destination uniform in the
/// `side × side` square and moves towards it at `speed` per step; on
/// arrival it picks a new destination).
///
/// Topology control under mobility re-runs on every snapshot; the
/// experiments track how interference and topology churn evolve.
pub fn random_waypoint_trace(
    n: usize,
    side: f64,
    speed: f64,
    steps: usize,
    seed: u64,
) -> Vec<NodeSet> {
    assert!(side > 0.0 && speed > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
        .collect();
    let mut dest: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
        .collect();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        out.push(NodeSet::new(pos.clone()));
        for i in 0..n {
            let to = dest[i] - pos[i];
            let d = to.norm();
            if d <= speed {
                pos[i] = dest[i];
                dest[i] = Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side);
            } else {
                pos[i] = pos[i] + to * (speed / d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_square(20, 2.0, 7), uniform_square(20, 2.0, 7));
        assert_eq!(
            uniform_highway(20, 3.0, 7).positions(),
            uniform_highway(20, 3.0, 7).positions()
        );
        assert_ne!(uniform_square(20, 2.0, 7), uniform_square(20, 2.0, 8));
    }

    #[test]
    fn stream_matches_materialized_generator_bit_for_bit() {
        let ns = uniform_square(333, 4.5, 42);
        let soa = uniform_soa(333, 4.5, 42);
        assert_eq!(soa.len(), 333);
        for (i, p) in ns.points().iter().enumerate() {
            assert_eq!(soa.get(i), *p, "index {i}");
        }
        // Point 0 takes the seed's first two draws, x then y.
        let mut rng = SmallRng::seed_from_u64(42);
        let (x, y) = (rng.gen::<f64>() * 4.5, rng.gen::<f64>() * 4.5);
        assert_eq!(soa.get(0), Point::new(x, y));
    }

    #[test]
    fn uniform_square_respects_bounds() {
        let ns = uniform_square(200, 1.5, 3);
        assert_eq!(ns.len(), 200);
        let b = ns.bbox();
        assert!(b.min.x >= 0.0 && b.max.x <= 1.5);
        assert!(b.min.y >= 0.0 && b.max.y <= 1.5);
    }

    #[test]
    fn cluster_counts() {
        let ns = gaussian_clusters(4, 25, 5.0, 0.1, 11);
        assert_eq!(ns.len(), 100);
    }

    #[test]
    fn lattice_geometry() {
        let ns = grid_lattice(3, 4, 0.5, 0.0, 0);
        assert_eq!(ns.len(), 12);
        assert_eq!(ns.pos(0), Point::new(0.0, 0.0));
        assert_eq!(ns.pos(5), Point::new(0.5, 0.5)); // row 1, col 1
    }

    #[test]
    fn fig1_outlier_is_reachable_but_remote() {
        let (cluster, with) = fig1_instance(30, 0.1, 42);
        assert_eq!(cluster.len(), 29);
        assert_eq!(with.len(), 30);
        let outlier = with.len() - 1;
        // In range of at least one cluster node…
        let reachable = (0..outlier).any(|v| with.dist(outlier, v) <= 1.0);
        assert!(reachable);
        // …but far from the cluster centroid.
        let far = (0..outlier).all(|v| with.dist(outlier, v) > 0.8);
        assert!(far);
    }

    #[test]
    fn clustered_highway_shape() {
        let h = clustered_highway(3, 10, 0.05, 2.0, 9);
        assert_eq!(h.len(), 30);
        assert!(h.span() >= 2.0 * 2.0 && h.span() < 4.1);
    }

    #[test]
    fn waypoint_trace_moves_nodes_within_bounds() {
        let trace = random_waypoint_trace(12, 2.0, 0.1, 30, 3);
        assert_eq!(trace.len(), 30);
        for snap in &trace {
            assert_eq!(snap.len(), 12);
            let b = snap.bbox();
            assert!(b.min.x >= -1e-9 && b.max.x <= 2.0 + 1e-9);
            assert!(b.min.y >= -1e-9 && b.max.y <= 2.0 + 1e-9);
        }
        // Nodes actually move…
        assert_ne!(trace[0], trace[1]);
        // …by at most `speed` per step.
        for w in trace.windows(2) {
            for i in 0..12 {
                assert!(w[0].pos(i).dist(&w[1].pos(i)) <= 0.1 + 1e-9);
            }
        }
        // Determinism.
        assert_eq!(
            random_waypoint_trace(12, 2.0, 0.1, 30, 3)[29],
            trace[29]
        );
    }

    #[test]
    fn fragmented_exponential_fits_in_unit_span() {
        let h = fragmented_exponential(3, 8, 5);
        assert_eq!(h.len(), 24);
        assert!(h.span() <= 1.0, "span={}", h.span());
        assert!(h.linearly_connectable());
    }
}
