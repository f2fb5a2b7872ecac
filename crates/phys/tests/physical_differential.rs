//! Differential layer pinning the physical (SINR) kernels to the disk
//! model — the headline contract of the `rim-phys` crate.
//!
//! Three families of assertions, each over the same adversarial
//! instance families as `rim-core`'s `differential.rs` (uniform,
//! clustered, exponential chain, collinear, duplicate coordinates):
//!
//! 1. **Disk limit.** Under [`PhysModel::disk_equivalent`] (`α = 2`,
//!    `θ = 1 mW`, `p_u = r_u²`, zero shadowing) both coverage kernels
//!    produce *exactly* the disk model's interference vector — integer
//!    equality against `interference_vector_naive`, no tolerance.
//! 2. **Kernel agreement.** Under a *generic* SINR parameterisation
//!    (α = 3, random powers, shadowing) the indexed SINR kernel equals
//!    the naive `O(n²)` oracle bit-for-bit (`f64::to_bits`), and the
//!    scatter's coverage counts equal the naive coverage oracle.
//! 3. **Determinism.** The same shadowing seed yields byte-identical
//!    models and interference sums; a different seed moves them.

use rim_core::receiver::interference_vector_naive;
use rim_geom::Point;
use rim_phys::{
    coverage_vector_naive, physical_interference_vector, sinr_interference_indexed,
    sinr_interference_naive, PhysModel, PhysParams,
};
use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};
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

/// Exponentially growing gaps: radii (hence powers `r²`) spread over
/// many orders of magnitude — the stress case for the `√(r·r) = r`
/// exactness claim and for the index cell heuristic alike.
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
/// boundary ties at `d = 0` (where the near-field clamp takes over).
fn gen_duplicates(rng: &mut SmallRng) -> Topology {
    let distinct = rng.gen_range(1usize..8);
    let sites: Vec<Point> = (0..distinct)
        .map(|_| Point::new(rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)))
        .collect();
    let n = rng.gen_range(distinct..3 * distinct + 2);
    let pts = (0..n).map(|i| sites[i % distinct]).collect();
    topology_from(rng, pts)
}

/// A generic (non-disk-limit) SINR instantiation: α = 3, random powers
/// over several orders of magnitude, optional shadowing.
fn generic_model(rng: &mut SmallRng, t: &Topology) -> PhysModel {
    let sigma_db = if rng.gen_bool(0.5) { rng.gen_range(0.5f64..8.0) } else { 0.0 };
    let params = PhysParams {
        sigma_db,
        shadow_seed: rng.gen_range(0u64..1 << 32),
        ..PhysParams::default()
    };
    let power_mw: Vec<f64> = (0..t.num_nodes())
        .map(|_| 10f64.powf(rng.gen_range(-2.0f64..2.0)))
        .collect();
    PhysModel::with_params(t, params, &power_mw)
}

/// The disk-limit contract plus fast-vs-naive kernel agreement, checked
/// on one instance.
fn physical_matches_disk(t: &Topology) -> Result<(), String> {
    // 1. Disk limit: both coverage kernels equal the disk oracle exactly.
    let oracle = interference_vector_naive(t);
    let disk = PhysModel::disk_equivalent(t);
    for (kernel, got) in [
        ("coverage_vector_naive", coverage_vector_naive(&disk)),
        ("physical_interference_vector", physical_interference_vector(&disk)),
    ] {
        prop_ensure!(
            got == oracle,
            "{kernel} diverged from the disk oracle\n  got:    {got:?}\n  oracle: {oracle:?}"
        );
    }
    // 2. Generic parameterisation: the fast kernels equal the naive ones
    //    (the SINR sums bit-for-bit).
    let mut seed_rng = SmallRng::seed_from_u64(oracle.len() as u64 ^ 0x5eed);
    let m = generic_model(&mut seed_rng, t);
    prop_ensure_eq!(coverage_vector_naive(&m), physical_interference_vector(&m));
    let naive_bits: Vec<u64> = sinr_interference_naive(&m).iter().map(|x| x.to_bits()).collect();
    let fast_bits: Vec<u64> =
        sinr_interference_indexed(&m).iter().map(|x| x.to_bits()).collect();
    prop_ensure!(
        naive_bits == fast_bits,
        "indexed SINR sums diverged from the naive oracle (bitwise)"
    );
    Ok(())
}

#[test]
fn physical_differential_uniform() {
    check("physical_differential_uniform", 192, gen_uniform, physical_matches_disk);
}

#[test]
fn physical_differential_clustered() {
    check("physical_differential_clustered", 192, gen_clustered, physical_matches_disk);
}

#[test]
fn physical_differential_exponential_chain() {
    check(
        "physical_differential_exponential_chain",
        192,
        gen_exponential_chain,
        physical_matches_disk,
    );
}

#[test]
fn physical_differential_collinear() {
    check("physical_differential_collinear", 192, gen_collinear, physical_matches_disk);
}

#[test]
fn physical_differential_duplicate_coordinates() {
    check(
        "physical_differential_duplicate_coordinates",
        192,
        gen_duplicates,
        physical_matches_disk,
    );
}

/// Seeded shadowing is bit-reproducible: the same seed yields identical
/// powers, radii and interference sums; a different seed moves at least
/// one power on instances with positive power and σ.
#[test]
fn physical_differential_shadowing_determinism() {
    check(
        "physical_differential_shadowing_determinism",
        128,
        |rng| {
            let t = gen_uniform(rng);
            let seed = rng.gen_range(0u64..1 << 48);
            (t, seed)
        },
        |(t, seed)| {
            let params = PhysParams { sigma_db: 6.0, shadow_seed: *seed, ..PhysParams::default() };
            let power_mw = vec![1.0; t.num_nodes()];
            let a = PhysModel::with_params(t, params, &power_mw);
            let b = PhysModel::with_params(t, params, &power_mw);
            for u in 0..t.num_nodes() {
                prop_ensure_eq!(a.power_mw(u).to_bits(), b.power_mw(u).to_bits());
                prop_ensure_eq!(a.coverage_radius(u).to_bits(), b.coverage_radius(u).to_bits());
                prop_ensure_eq!(a.cutoff(u).to_bits(), b.cutoff(u).to_bits());
            }
            let sums_a: Vec<u64> =
                sinr_interference_indexed(&a).iter().map(|x| x.to_bits()).collect();
            let sums_b: Vec<u64> =
                sinr_interference_naive(&b).iter().map(|x| x.to_bits()).collect();
            prop_ensure!(
                sums_a == sums_b,
                "same seed must give byte-identical SINR sums, across kernels"
            );
            let other = PhysParams { shadow_seed: seed.wrapping_add(1), ..params };
            let c = PhysModel::with_params(t, other, &power_mw);
            prop_ensure!(
                t.num_nodes() == 0
                    || (0..t.num_nodes()).any(|u| a.power_mw(u).to_bits() != c.power_mw(u).to_bits()),
                "a different seed must draw a different fading landscape"
            );
            Ok(())
        },
    );
}
