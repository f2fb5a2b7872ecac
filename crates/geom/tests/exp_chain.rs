//! Output-sensitivity on the paper's adversarial input: a [`DynGrid`] over
//! the churn exp-chain distribution, a 24-octave line `x = 64·2^(−24u)`,
//! where one cell of a uniform grid would hold three quarters of the
//! points. With split cells, every query kind the incremental engine runs
//! — disk queries, nearest-k and the arrival-coverage query — scans a
//! small multiple of what it reports.

use rim_geom::{DynGrid, Point, SoaGrid};
use rim_rng::SmallRng;

/// Merged slots, as after a churn bootstrap at `n0 = 4096`.
const MERGED: usize = 4096;
/// Overlay arrivals since the last build.
const ARRIVALS: usize = 2048;
/// Queries per kind.
const QUERIES: usize = 2000;

fn exp_chain_point(rng: &mut SmallRng) -> Point {
    Point::new(64.0 * 2f64.powf(-24.0 * rng.gen_range(0.0f64..1.0)), 0.0)
}

/// The dynamic engine's cell hint, the diagonal over √n: 64/√4096.
const HINT: f64 = 1.0;

fn chain_points() -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(24);
    (0..MERGED + ARRIVALS)
        .map(|_| exp_chain_point(&mut rng))
        .collect()
}

/// The grid, every point's radius (its distance to the third-nearest
/// other point, a relink-sized link), and the points.
fn chain_grid() -> (DynGrid, Vec<f64>, Vec<Point>) {
    let pts = chain_points();
    let mut grid = DynGrid::build(&pts[..MERGED], HINT);
    for &p in &pts[MERGED..] {
        grid.push_overlay(p);
    }
    let mut xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    let radii: Vec<f64> = pts
        .iter()
        .map(|p| {
            let at = xs.partition_point(|&x| x < p.x);
            let mut gaps: Vec<f64> = xs[at.saturating_sub(3)..(at + 4).min(xs.len())]
                .iter()
                .map(|&x| (x - p.x).abs())
                .collect();
            gaps.sort_by(f64::total_cmp);
            gaps[3.min(gaps.len() - 1)]
        })
        .collect();
    for (p, &r) in pts.iter().zip(&radii) {
        grid.raise_bound(*p, r);
    }
    (grid, radii, pts)
}

/// Asserts `candidates <= 3·(hits + extra) + 32` on the mean per query.
fn assert_output_sensitive(kind: &str, candidates: usize, hits: usize, extra: usize) {
    let (c, h) = (
        candidates as f64 / QUERIES as f64,
        hits as f64 / QUERIES as f64,
    );
    let bound = 3.0 * (h + extra as f64) + 32.0;
    println!("{kind}: {c:.1} candidates, {h:.1} hits per query");
    assert!(
        c <= bound,
        "{kind}: {c:.1} candidates per query for {h:.1} hits (bound {bound:.1})"
    );
}

#[test]
fn the_exp_chain_grid_splits() {
    let grid = SoaGrid::from_points(&chain_points()[..MERGED], HINT);
    assert!(grid.split_cells() > 0);
    assert!(grid.split_depth() >= 2, "24 octaves need nested splits");
}

#[test]
fn disk_queries_scan_a_multiple_of_their_hits() {
    let (grid, radii, pts) = chain_grid();
    let (mut candidates, mut hits) = (0, 0);
    for i in (0..pts.len()).step_by(pts.len() / QUERIES).take(QUERIES) {
        candidates += grid.for_each_within(pts[i], radii[i], |_, _| hits += 1);
    }
    assert_output_sensitive("disk", candidates, hits, 0);
}

#[test]
fn nearest_k_scans_a_multiple_of_k() {
    let (grid, _, _) = chain_grid();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut out = Vec::new();
    for k in 1..=4 {
        let mut candidates = 0;
        for _ in 0..QUERIES {
            let q = exp_chain_point(&mut rng);
            candidates += grid.k_nearest_where(q, k, |id| id % 5 != 0, &mut out);
            assert_eq!(out.len(), k);
        }
        assert_output_sensitive(&format!("nearest k={k}"), candidates, 0, k);
    }
}

#[test]
fn arrival_coverage_scans_a_multiple_of_its_coverers() {
    let (grid, radii, pts) = chain_grid();
    let r_max = radii.iter().copied().fold(0.0, f64::max);
    let mut rng = SmallRng::seed_from_u64(11);
    let (mut candidates, mut coverers) = (0, 0);
    for _ in 0..QUERIES {
        let q = exp_chain_point(&mut rng);
        let want = (0..pts.len())
            .filter(|&u| pts[u].dist(&q) <= radii[u])
            .count();
        let mut got = 0;
        candidates += grid.for_each_reaching(q, r_max, |u, d| {
            if d <= radii[u] {
                got += 1;
            }
        });
        assert_eq!(got, want, "coverers of {q:?}");
        coverers += got;
    }
    assert_output_sensitive("arrival", candidates, coverers, 0);
}
