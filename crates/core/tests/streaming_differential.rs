//! Differential suite for the streaming (SoA, UDG-free) interference
//! kernel: [`StreamInstance`] must agree *exactly* — bit for bit, not
//! within a tolerance — with [`interference_vector_naive`], the `O(n²)`
//! oracle transcribing Definition 3.1, across the same five adversarial
//! instance families `differential.rs` pins `Engine::Auto` by, and the
//! sharded accumulator variant must be
//! invariant in the worker count. The nearest-neighbor path
//! ([`StreamInstance::try_with_nn_radii`]) is pinned the same way, against
//! brute-force nearest-neighbor radii, and its in-degree count against
//! the scatter over the same radii ([`StreamInstance::with_radii`]) on
//! instances far above the parallel gates, ties and underflowing squared
//! distances included.
//!
//! The family generators are deliberately duplicated from
//! `differential.rs` rather than shared: each suite stays a
//! self-contained witness, so a refactor of one cannot silently weaken
//! the other.

use rim_core::receiver::{
    interference_at, interference_vector_naive, interference_vector_with, Engine,
};
use rim_core::{sqrt_log_envelope, StreamInstance};
use rim_geom::{Point, SoaGrid, SoaPoints, PAR_BUILD_MIN};
use rim_rng::prop::check;
use rim_rng::{prop_ensure, SmallRng};
use rim_udg::radius::induced_topology;
use rim_udg::{NodeSet, Topology};

/// Random edge selection over `n` nodes: up to `2n` draws, deduped.
fn arb_pairs(rng: &mut SmallRng, n: usize) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    for _ in 0..rng.gen_range(0usize..2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            pairs.push((a, b));
        }
    }
    pairs
}

fn topology_from(rng: &mut SmallRng, points: Vec<Point>) -> Topology {
    let n = points.len();
    let pairs = arb_pairs(rng, n);
    Topology::from_pairs(NodeSet::new(points), &pairs)
}

/// Uniform points in a square.
fn gen_uniform(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..48);
    let side = rng.gen_range(0.5f64..4.0);
    let pts = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    topology_from(rng, pts)
}

/// A few tight clusters far apart: grid buckets are wildly uneven.
fn gen_clustered(rng: &mut SmallRng) -> Topology {
    let clusters = rng.gen_range(1usize..5);
    let per = rng.gen_range(2usize..10);
    let mut pts = Vec::new();
    for _ in 0..clusters {
        let cx = rng.gen_range(0.0f64..20.0);
        let cy = rng.gen_range(0.0f64..20.0);
        for _ in 0..per {
            pts.push(Point::new(
                cx + rng.gen_range(-0.05f64..0.05),
                cy + rng.gen_range(-0.05f64..0.05),
            ));
        }
    }
    topology_from(rng, pts)
}

/// Exponentially growing gaps (the paper's Figure 7 instance shape):
/// radii spread over many orders of magnitude.
fn gen_exponential_chain(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(3usize..24);
    let scale = 2f64.powi(-(rng.gen_range(0u32..30) as i32));
    let pts: Vec<Point> = (0..n)
        .map(|i| Point::on_line((2f64.powi(i as i32) - 1.0) * scale))
        .collect();
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for (a, b) in arb_pairs(rng, n) {
        if b != a + 1 && a != b + 1 {
            pairs.push((a, b));
        }
    }
    Topology::from_pairs(NodeSet::new(pts), &pairs)
}

/// Collinear points: a degenerate (height-zero) bounding box.
fn gen_collinear(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..32);
    let pts = (0..n)
        .map(|_| Point::on_line(rng.gen_range(0.0f64..3.0)))
        .collect();
    topology_from(rng, pts)
}

/// Duplicate coordinates: coincident nodes, zero-length links, exact
/// boundary ties at `d = 0`.
fn gen_duplicates(rng: &mut SmallRng) -> Topology {
    let distinct = rng.gen_range(1usize..8);
    let sites: Vec<Point> = (0..distinct)
        .map(|_| Point::new(rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)))
        .collect();
    let n = rng.gen_range(distinct..3 * distinct + 2);
    let pts = (0..n).map(|i| sites[i % distinct]).collect();
    topology_from(rng, pts)
}

/// The streaming kernel (and its sharded variant) must reproduce the
/// naive oracle exactly on any topology.
fn streaming_matches_oracle(t: &Topology) -> Result<(), String> {
    let oracle = interference_vector_naive(t);
    let inst = StreamInstance::from_topology(t);
    let got: Vec<usize> = inst.interference_counts().into_iter().map(|c| c as usize).collect();
    prop_ensure!(
        got == oracle,
        "streaming kernel diverged from the naive oracle\n  got:    {:?}\n  oracle: {:?}",
        got,
        oracle
    );
    // Sharded accumulation must not depend on the worker count.
    for threads in 1..=8 {
        let sharded: Vec<usize> = inst
            .interference_counts_sharded(threads)
            .into_iter()
            .map(|c| c as usize)
            .collect();
        prop_ensure!(
            sharded == oracle,
            "sharded kernel with {threads} worker(s) diverged\n  got:    {:?}\n  oracle: {:?}",
            sharded,
            oracle
        );
        reduction_matches(&inst, threads, &sharded)?;
    }
    Ok(())
}

/// The position-order `(max, Σ)` reduction must equal the max and sum of
/// the per-node counts.
fn reduction_matches(
    inst: &StreamInstance,
    threads: usize,
    counts: &[usize],
) -> Result<(), String> {
    let want = (
        counts.iter().copied().max().unwrap_or(0) as u32,
        counts.iter().sum::<usize>() as u64,
    );
    let got = inst.interference_max_sum(threads).map_err(|e| e.to_string())?;
    prop_ensure!(got == want, "(max, sum) with {threads} worker(s): got {got:?}, want {want:?}");
    Ok(())
}

#[test]
fn streaming_differential_uniform() {
    check("streaming_differential_uniform", 128, gen_uniform, streaming_matches_oracle);
}

#[test]
fn streaming_differential_clustered() {
    check("streaming_differential_clustered", 128, gen_clustered, streaming_matches_oracle);
}

#[test]
fn streaming_differential_exponential_chain() {
    check(
        "streaming_differential_exponential_chain",
        128,
        gen_exponential_chain,
        streaming_matches_oracle,
    );
}

#[test]
fn streaming_differential_collinear() {
    check("streaming_differential_collinear", 128, gen_collinear, streaming_matches_oracle);
}

#[test]
fn streaming_differential_duplicate_coordinates() {
    check(
        "streaming_differential_duplicate_coordinates",
        128,
        gen_duplicates,
        streaming_matches_oracle,
    );
}

/// Brute-force nearest-neighbor radii: `sqrt(min dist_sq)` over every
/// other node.
fn brute_nn_radii(pts: &[Point]) -> Vec<f64> {
    (0..pts.len())
        .map(|u| {
            (0..pts.len())
                .filter(|&v| v != u)
                .map(|v| pts[u].dist_sq(&pts[v]))
                .fold(f64::INFINITY, f64::min)
                .sqrt()
        })
        .collect()
}

/// The interference vector of nearest-neighbor radii, built on the naive
/// oracle. On the topology induced by the radii, a link needs both
/// endpoints in range, so exactly the nodes whose nearest neighbor is
/// mutual keep a link, each at its nearest-neighbor distance; the oracle
/// counts their disks. Every other node transmits too in the streaming
/// instance, so its disk is added by the same closed predicate.
fn nn_oracle(pts: &[Point]) -> Vec<usize> {
    let radii = brute_nn_radii(pts);
    let induced = induced_topology(&NodeSet::new(pts.to_vec()), &radii);
    let mut want = interference_vector_naive(&induced);
    for u in (0..pts.len()).filter(|&u| induced.graph().degree(u) == 0) {
        for (v, iv) in want.iter_mut().enumerate() {
            if v != u && pts[u].dist(&pts[v]) <= radii[u] {
                *iv += 1;
            }
        }
    }
    want
}

/// `try_with_nn_radii` must reproduce [`nn_oracle`] exactly. (Instances this
/// small run on one worker; see the thread-count test below.)
fn nn_radii_match_oracle(t: &Topology) -> Result<(), String> {
    let pts = t.nodes().points();
    let oracle = nn_oracle(pts);
    let inst =
        StreamInstance::try_with_nn_radii(SoaPoints::from_points(pts)).expect("fits the grid");
    let got: Vec<usize> = inst.interference_counts().into_iter().map(|c| c as usize).collect();
    prop_ensure!(
        got == oracle,
        "nearest-neighbor kernel diverged from the oracle\n  got:    {:?}\n  oracle: {:?}",
        got,
        oracle
    );
    for threads in [1, 3] {
        reduction_matches(&inst, threads, &got)?;
    }
    Ok(())
}

#[test]
fn nn_radii_differential_uniform() {
    check("nn_radii_differential_uniform", 128, gen_uniform, nn_radii_match_oracle);
}

#[test]
fn nn_radii_differential_clustered() {
    check("nn_radii_differential_clustered", 128, gen_clustered, nn_radii_match_oracle);
}

#[test]
fn nn_radii_differential_exponential_chain() {
    check(
        "nn_radii_differential_exponential_chain",
        128,
        gen_exponential_chain,
        nn_radii_match_oracle,
    );
}

#[test]
fn nn_radii_differential_collinear() {
    check("nn_radii_differential_collinear", 128, gen_collinear, nn_radii_match_oracle);
}

#[test]
fn nn_radii_differential_duplicate_coordinates() {
    check(
        "nn_radii_differential_duplicate_coordinates",
        128,
        gen_duplicates,
        nn_radii_match_oracle,
    );
}

/// The radius pass only splits once every worker gets 1024 nodes, so
/// thread invariance is pinned on an instance big enough for eight
/// workers: clusters with coincident centers.
#[test]
fn nn_radii_are_invariant_in_the_radius_thread_count() {
    let mut rng = SmallRng::seed_from_u64(7);
    let n = 8 * 1024 + 37;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let (cx, cy) = ((i % 5) as f64 * 40.0, (i % 3) as f64 * 25.0);
            if i % 11 == 0 {
                Point::new(cx, cy)
            } else {
                Point::new(cx + rng.gen_range(-1.0..1.0), cy + rng.gen_range(-1.0..1.0))
            }
        })
        .collect();
    let oracle: Vec<u32> = nn_oracle(&pts).into_iter().map(|c| c as u32).collect();
    for threads in 1..=8 {
        let inst = StreamInstance::try_with_nn_radii_sharded(SoaPoints::from_points(&pts), threads)
            .unwrap();
        assert_eq!(inst.interference_counts(), oracle, "radius threads = {threads}");
    }
}

/// Deterministic large instances right at the suite's size bound: the
/// property generators stay small for iteration count, so this pins the
/// kernels against the oracle at `n = 2048` explicitly.
#[test]
fn streaming_matches_oracle_at_2048() {
    for seed in [1u64, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2048;
        let side = (n as f64).sqrt();
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let t = topology_from(&mut rng, pts);
        streaming_matches_oracle(&t).unwrap();
        nn_radii_match_oracle(&t).unwrap();
    }
}

/// Agreement at a scale where the full `O(n²)` oracle is no longer
/// practical in debug builds: `Engine::Auto` on 20k nodes must equal the
/// per-node naive count `interference_at` at the worst node and at 256
/// sampled nodes.
#[test]
fn streaming_agrees_with_naive_at_scale() {
    let mut rng = SmallRng::seed_from_u64(9);
    let n = 20_000;
    let side = (n as f64).sqrt();
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    // A chain through random positions plus shortcuts: the radii are
    // long, so every disk covers a large part of the square.
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    let mut extra = std::collections::HashSet::new();
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n - 2);
        if extra.insert(a) {
            pairs.push((a, a + 2));
        }
    }
    let t = Topology::from_pairs(NodeSet::new(pts), &pairs);

    let fast = interference_vector_with(&t, Engine::Auto);
    let worst = (0..n).max_by_key(|&v| fast[v]).unwrap();
    let sampled: Vec<usize> = (0..256).map(|_| rng.gen_range(0..n)).collect();
    for v in std::iter::once(worst).chain(sampled) {
        assert_eq!(fast[v], interference_at(&t, v), "node {v}");
    }
}

/// The UDG-free nearest-neighbor path at statistical scale. With
/// nearest-neighbour radii, `v` is in `D(u, r_u)` exactly when `v` is a
/// nearest neighbour of `u`, which gives two exact bounds:
///
/// * `Σ I = n` exactly when every nearest neighbour is unique, since each
///   node covers at least its nearest neighbour. This seed's instance
///   has no distance ties, so a kernel that gained or lost a single count
///   fails here.
/// * `max I <= 5` then: two nodes whose unique nearest neighbour is `v`
///   lie farther from each other than from `v`, so they subtend more
///   than 60° at `v`. (The instance's maximum is 4.)
///
/// The maximum must also sit inside the Θ(√(log n)) envelope
/// (Devroye–Morin), and the counts must not depend on the worker count.
#[test]
fn nn_radii_gate_at_1e5() {
    let n: usize = 100_000;
    let side = (n as f64).sqrt();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut soa = SoaPoints::with_capacity(n);
    for _ in 0..n {
        soa.push(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    }
    let radii = nn_radii_by_node(&soa);
    let pts: Vec<Point> = (0..n).map(|i| soa.get(i)).collect();
    let inst = StreamInstance::try_with_nn_radii(soa).expect("fits the grid");
    let counts = inst.interference_counts_sharded(4);
    assert_eq!(
        counts,
        StreamInstance::with_radii(&pts, &radii).interference_counts_sharded(4),
        "the in-degree count diverged from the scatter"
    );
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(total, n as u64, "every node covers exactly its nearest neighbour");
    let max = counts.iter().copied().max().unwrap_or(0);
    assert!(max <= 5, "max I = {max} breaks the 60-degree bound");
    let (lo, hi) = sqrt_log_envelope(n);
    assert!(
        f64::from(max) >= lo && f64::from(max) <= hi,
        "max I = {max} outside [{lo:.2}, {hi:.2}] at n = {n}"
    );
    assert_eq!(counts, inst.interference_counts_sharded(1), "sharding changed the counts");
}

/// Every node's nearest-neighbour distance, in node order, as
/// [`SoaGrid::nearest_at`] finds it (`None` without a neighbour): the radii
/// [`StreamInstance::try_with_nn_radii`] assigns, for
/// [`StreamInstance::with_radii`] to scatter.
fn nn_radii_by_node(soa: &SoaPoints) -> Vec<Option<f64>> {
    let (grid, _) = SoaGrid::try_build_unit_density(soa.clone(), 1).expect("fits the grid");
    let mut radii = vec![None; soa.len()];
    for k in 0..grid.len() {
        radii[grid.item(k)] = grid.nearest_at(k).map(|near| near.dist);
    }
    radii
}

/// The in-degree count of a nearest-neighbour instance, built and
/// counted on 1–8 workers, must equal the SoA scatter over the same
/// radii, and so must its `(max, Σ)` reduction.
fn nn_count_matches_scatter(name: &str, pts: &[Point]) {
    let soa = SoaPoints::from_points(pts);
    let scatter = StreamInstance::with_radii(pts, &nn_radii_by_node(&soa)).interference_counts();
    let total: u64 = scatter.iter().map(|&c| u64::from(c)).sum();
    let want = (scatter.iter().copied().max().unwrap_or(0), total);
    for threads in 1..=8 {
        let inst = StreamInstance::try_with_nn_radii_sharded(soa.clone(), threads)
            .expect("fits the grid");
        assert!(
            inst.interference_counts_sharded(threads) == scatter,
            "{name}: in-degree count with {threads} worker(s) diverged from the scatter"
        );
        if threads == 1 {
            assert_eq!(inst.interference_max_sum(threads), Ok(want), "{name}");
        }
    }
}

/// Five families just above the grid build's parallel gate, so 2–8
/// workers build the grid and run the radius pass: uniform points, an
/// exact lattice (four-way distance ties everywhere), coincident
/// triples, an exponential spread over twelve octaves (split cells) and
/// collinear points. The lattice and the triples send most senders
/// through the tie fallback.
#[test]
fn nn_in_degree_matches_the_scatter_above_the_parallel_gate() {
    let n = PAR_BUILD_MIN + 1_003;
    let side = (n as f64).sqrt();
    let mut rng = SmallRng::seed_from_u64(23);
    let uniform: Vec<Point> =
        (0..n).map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
    let width = side as usize;
    let lattice: Vec<Point> =
        (0..n).map(|i| Point::new((i % width) as f64, (i / width) as f64)).collect();
    let triples: Vec<Point> = (0..n).map(|i| uniform[i / 3]).collect();
    let spread: Vec<Point> = (0..n)
        .map(|_| Point::on_line(side * 2f64.powf(-12.0 * rng.gen_range(0.0..1.0))))
        .collect();
    let collinear: Vec<Point> = (0..n).map(|_| Point::on_line(rng.gen_range(0.0..side))).collect();
    for (name, pts) in [
        ("uniform", uniform),
        ("lattice", lattice),
        ("coincident triples", triples),
        ("exponential spread", spread),
        ("collinear", collinear),
    ] {
        nn_count_matches_scatter(name, &pts);
    }
}

/// A few hundred uniform points scaled by 2⁻⁵¹⁰ … 2⁻⁵⁴⁰: squared
/// distances turn subnormal or underflow to zero, so rounding alone
/// decides which senders tie.
#[test]
fn nn_in_degree_matches_the_scatter_where_squares_underflow() {
    let mut rng = SmallRng::seed_from_u64(29);
    for k in (510..=540).step_by(10) {
        let scale = 2f64.powi(-k);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(0.0..17.0) * scale, rng.gen_range(0.0..17.0) * scale))
            .collect();
        nn_count_matches_scatter(&format!("2^-{k}"), &pts);
    }
}

/// The line `x = √n·2^(−24u)` of 2¹⁷ points: a sixth of them share the
/// unit-density grid's first top-level cell, which splits (238 cells
/// split in all). On a line, a disk around a node holds the node's
/// x-neighbours at the nearest gap, both of them on a tie, so sorting by
/// x gives an `O(n log n)` oracle for the radii and the counts.
#[test]
fn nn_radii_stay_exact_on_a_24_octave_line() {
    let n: usize = 1 << 17;
    let side = (n as f64).sqrt();
    let mut rng = SmallRng::seed_from_u64(31);
    let pts: Vec<Point> =
        (0..n).map(|_| Point::on_line(side * (-24.0 * rng.gen_range(0.0..1.0)).exp2())).collect();
    let soa = SoaPoints::from_points(&pts);
    let (grid, _) = SoaGrid::try_build_unit_density(soa.clone(), 1).expect("fits the grid");
    assert!(grid.split_cells() > 0, "the unit-density grid must split");
    let (radii, counts) = line_nn_oracle(&pts);
    assert!(nn_radii_by_node(&soa) == radii, "radii diverged from the sorted oracle");
    let inst = StreamInstance::try_with_nn_radii(soa).expect("fits the grid");
    let got = inst.interference_counts_sharded(2);
    assert!(got == counts, "counts diverged from the sorted oracle");
}

/// Nearest-neighbour radii and counts of points on the x-axis: in x order
/// every node's nearest neighbour is adjacent, and its disk holds the run
/// of nodes around it within that distance.
fn line_nn_oracle(pts: &[Point]) -> (Vec<Option<f64>>, Vec<u32>) {
    let mut order: Vec<usize> = (0..pts.len()).collect();
    order.sort_by(|&a, &b| pts[a].x.total_cmp(&pts[b].x));
    let dist = |i: usize, j: usize| pts[order[i]].dist(&pts[order[j]]);
    let (mut radii, mut counts) = (vec![None; pts.len()], vec![0u32; pts.len()]);
    for i in 0..order.len() {
        let left = i.checked_sub(1).map(|j| dist(i, j));
        let right = (i + 1 < order.len()).then(|| dist(i, i + 1));
        let Some(r) = left.into_iter().chain(right).reduce(f64::min) else {
            continue;
        };
        radii[order[i]] = Some(r);
        let covered = (0..i).rev().take_while(|&j| dist(i, j) <= r);
        for j in covered.chain((i + 1..order.len()).take_while(|&j| dist(i, j) <= r)) {
            counts[order[j]] += 1;
        }
    }
    (radii, counts)
}
