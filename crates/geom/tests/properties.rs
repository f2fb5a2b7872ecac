//! Property-based tests: the fast geometric structures must agree with
//! their brute-force counterparts on arbitrary inputs (seeded in-repo
//! harness, `rim_rng::prop`).

use rim_geom::{convex_hull, DynGrid, Point, SoaGrid};
use rim_rng::prop::{check, check_default};
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};

fn arb_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(-10.0f64..10.0), rng.gen_range(-10.0f64..10.0))
}

fn arb_points(rng: &mut SmallRng, max: usize) -> Vec<Point> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| arb_point(rng)).collect()
}

fn brute_disk(points: &[Point], c: Point, r: f64) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| points[i].dist(&c) <= r)
        .collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// Clouds far above the grid's split budget, so grids over them split:
/// the churn exp-chain line `x = side·2^(−octaves·u)`, an exponential
/// spread over both axes, and stacks of coincident points, whose
/// overloaded cells splitting must leave alone.
fn arb_dense_cloud(rng: &mut SmallRng) -> Vec<Point> {
    let n = rng.gen_range(100usize..400);
    match rng.gen_range(0..3u32) {
        0 => {
            let octaves = rng.gen_range(4.0f64..40.0);
            let side = 2f64.powi(rng.gen_range(0u32..21) as i32 - 10);
            (0..n)
                .map(|_| Point::new(side * 2f64.powf(-octaves * rng.gen_range(0.0f64..1.0)), 0.0))
                .collect()
        }
        1 => (0..n)
            .map(|_| {
                let (a, b) = (rng.gen_range(0.0f64..30.0), rng.gen_range(0.0f64..30.0));
                Point::new(2f64.powf(-a), 2f64.powf(-b))
            })
            .collect(),
        _ => {
            let sites: Vec<Point> = (0..rng.gen_range(1usize..4)).map(|_| arb_point(rng)).collect();
            (0..n)
                .map(|i| if i % 9 == 0 { arb_point(rng) } else { sites[i % sites.len()] })
                .collect()
        }
    }
}

/// Requires that at least a quarter of a property's `cases` built a grid
/// with split cells, so the suite exercises the nested-grid path.
fn assert_splits(name: &str, split: u32, cases: u32) {
    assert!(4 * split >= cases, "{name}: only {split} of {cases} cases split a cell");
}

#[test]
fn grid_disk_query_matches_brute_force() {
    // Half the radii are exact pairwise distances, which put a point right
    // on the closed boundary; half the clouds overload cells.
    let mut split = 0;
    check(
        "grid_disk_query_matches_brute_force",
        256,
        |rng| {
            let pts = if rng.gen_bool(0.5) { arb_dense_cloud(rng) } else { arb_points(rng, 60) };
            let q = if !pts.is_empty() && rng.gen_bool(0.5) {
                pts[rng.gen_range(0..pts.len())]
            } else {
                arb_point(rng)
            };
            let r = if !pts.is_empty() && rng.gen_bool(0.5) {
                pts[rng.gen_range(0..pts.len())].dist(&q)
            } else {
                rng.gen_range(0.0f64..5.0)
            };
            (pts, q, r, rng.gen_range(0.05f64..3.0))
        },
        |(pts, q, r, cell)| {
            let index = SoaGrid::from_points(pts, *cell);
            split += u32::from(index.split_cells() > 0);
            prop_ensure_eq!(sorted(index.query_disk(*q, *r)), brute_disk(pts, *q, *r));
            Ok(())
        },
    );
    assert_splits("grid_disk_query_matches_brute_force", split, 256);
}

#[test]
fn split_grid_disk_query_matches_brute_force() {
    // Queries around the dense end of the spread, at radii from far below
    // to far above its spacing, and bit-exact boundary radii.
    let mut split = 0;
    check_default(
        "split_grid_disk_query_matches_brute_force",
        |rng| {
            let pts = arb_dense_cloud(rng);
            let c = pts[rng.gen_range(0..pts.len())];
            let r = if rng.gen_bool(0.5) {
                pts[rng.gen_range(0..pts.len())].dist(&c)
            } else {
                2f64.powi(rng.gen_range(0u32..40) as i32 - 30)
            };
            (pts, c, r, 2f64.powi(rng.gen_range(0u32..41) as i32 - 20))
        },
        |(pts, c, r, cell)| {
            let grid = SoaGrid::from_points(pts, *cell);
            split += u32::from(grid.split_cells() > 0);
            let want = brute_disk(pts, *c, *r);
            let mut hits = 0;
            let candidates = grid.for_each_in_disk_counting(*c, *r, |_| hits += 1);
            prop_ensure!(candidates >= hits, "{candidates} candidates for {hits} hits");
            prop_ensure_eq!(sorted(grid.query_disk(*c, *r)), want);
            // Positions descend into the same cells as ids.
            let mut by_pos = Vec::new();
            grid.for_each_pos_in_disk(*c, *r, |k| by_pos.push(grid.item(k)));
            prop_ensure_eq!(sorted(by_pos), want);
            Ok(())
        },
    );
    assert_splits("split_grid_disk_query_matches_brute_force", split, 256);
}

#[test]
fn split_grid_nearest_matches_brute_force() {
    // The nearest point to any query, merged or pending, on clouds whose
    // cells split.
    let mut split = 0;
    check_default(
        "split_grid_nearest_matches_brute_force",
        |rng| {
            let pts = arb_dense_cloud(rng);
            let merged = rng.gen_range(pts.len() / 2..pts.len() + 1);
            let q = if rng.gen_bool(0.5) {
                pts[rng.gen_range(0..pts.len())]
            } else {
                arb_point(rng)
            };
            (pts, merged, q, 2f64.powi(rng.gen_range(0u32..41) as i32 - 20))
        },
        |(pts, merged, q, cell)| {
            let grid = dyn_grid(pts, *merged, *cell);
            split += u32::from(SoaGrid::from_points(&pts[..*merged], *cell).split_cells() > 0);
            let mut got = Vec::new();
            grid.k_nearest_where(*q, 1, |_| true, &mut got);
            let want = (0..pts.len())
                .map(|i| (pts[i].dist(q), i))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            prop_ensure_eq!(got.first().copied(), want);
            Ok(())
        },
    );
    assert_splits("split_grid_nearest_matches_brute_force", split, 256);
}

#[test]
fn splitting_stops_at_coincident_points() {
    // Stacks of coincident points far above the budget: the cell holding
    // a stack with another point splits, the stack's own cell cannot.
    let stack = Point::new(1.5, -2.0);
    let mut pts = vec![stack; 500];
    pts.push(Point::new(1.75, -2.0));
    pts.extend(vec![Point::ORIGIN; 300]);
    for cell in [0.0, 1e-9, 1.0, 1e9] {
        let grid = SoaGrid::from_points(&pts, cell);
        assert!(grid.split_depth() <= 2, "cell={cell}: depth {}", grid.split_depth());
        assert_eq!(grid.query_disk(stack, 0.0).len(), 500, "cell={cell}");
        assert_eq!(grid.query_disk(Point::ORIGIN, 0.0).len(), 300, "cell={cell}");
        assert_eq!(grid.query_disk(stack, 0.25).len(), 501, "cell={cell}");
        let k = (0..grid.len()).find(|&k| grid.item(k) == 500).expect("indexed");
        assert_eq!(grid.nearest_at(k).map(|near| near.dist), Some(0.25), "cell={cell}");
    }
    let all_coincident = SoaGrid::from_points(&vec![stack; 400], 0.5);
    assert_eq!(all_coincident.split_cells(), 0);
}

/// Points of the unit lattice `0..8 × 0..8`, each coordinate nudged one
/// ulp down, one ulp up or not at all, plus the exact corner `(0, 0)`:
/// with power-of-two cells, points sit on or just below cell boundaries,
/// and differences between them round.
fn nudged_lattice(rng: &mut SmallRng, n: usize) -> Vec<Point> {
    // Coordinates are non-negative, so ±1 on the bits is ±1 ulp.
    let mut nudge = |v: f64| match rng.gen_range(0..3u32) {
        0 if v > 0.0 => f64::from_bits(v.to_bits() - 1),
        1 => f64::from_bits(v.to_bits() + 1),
        _ => v,
    };
    let mut pts = vec![Point::ORIGIN];
    for i in 0..n {
        let (k, m) = ((i * 5 % 8) as f64, (i * 3 / 8 % 8) as f64);
        let x = nudge(k);
        pts.push(Point::new(x, nudge(m)));
    }
    pts
}

/// Adversarial clouds for the SoA grid: clusters, duplicates, collinear
/// runs, exponential spreads, uniform squares and ulp-nudged lattices,
/// shifted by offsets up to 1e9 so coordinate rounding dominates the
/// spacing; and, a third of the time, a cloud above the split budget.
fn arb_cloud(rng: &mut SmallRng) -> Vec<Point> {
    if rng.gen_range(0..3u32) == 0 {
        return arb_dense_cloud(rng);
    }
    let n = rng.gen_range(2usize..120);
    let mut shift = || {
        if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(-1.0e9f64..1.0e9)
        }
    };
    let offset = Point::new(shift(), shift());
    let pts: Vec<Point> = match rng.gen_range(0..6u32) {
        5 => return nudged_lattice(rng, n),
        0 => {
            let centers: Vec<Point> = (0..rng.gen_range(1usize..5))
                .map(|_| Point::new(rng.gen_range(0.0f64..20.0), rng.gen_range(0.0f64..20.0)))
                .collect();
            (0..n)
                .map(|i| {
                    let c = centers[i % centers.len()];
                    Point::new(
                        c.x + rng.gen_range(-0.05f64..0.05),
                        c.y + rng.gen_range(-0.05f64..0.05),
                    )
                })
                .collect()
        }
        1 => {
            let sites: Vec<Point> = (0..rng.gen_range(1usize..8)).map(|_| arb_point(rng)).collect();
            (0..n).map(|i| sites[i % sites.len()]).collect()
        }
        2 => {
            let directions = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -3.0)];
            let (dx, dy) = directions[rng.gen_range(0..directions.len())];
            (0..n)
                .map(|_| {
                    let t = rng.gen_range(0.0f64..10.0);
                    Point::new(t * dx, t * dy)
                })
                .collect()
        }
        3 => {
            let scale = 2f64.powi(-(rng.gen_range(0u32..30) as i32));
            (0..n.min(60))
                .map(|i| {
                    let d = (2f64.powi(i as i32) - 1.0) * scale;
                    if i % 2 == 0 {
                        Point::new(d, 0.0)
                    } else {
                        Point::new(0.0, d)
                    }
                })
                .collect()
        }
        _ => (0..n).map(|_| arb_point(rng)).collect(),
    };
    pts.into_iter().map(|p| Point::new(p.x + offset.x, p.y + offset.y)).collect()
}

/// Grid cell sizes from 2⁻²⁰ to 2²⁰.
fn arb_cell(rng: &mut SmallRng) -> f64 {
    2f64.powi(rng.gen_range(0u32..41) as i32 - 20)
}

/// The nearest-neighbour search's distance is the brute-force one bit
/// for bit, its position is a brute-force argmin, and it reports the
/// nearest point unique exactly when it is the only other point in the
/// closed disk, coincident points and subnormal minima included.
#[test]
fn soa_nearest_matches_brute_force_bitwise() {
    check(
        "soa_nearest_matches_brute_force_bitwise",
        512,
        |rng| (arb_cloud(rng), arb_cell(rng)),
        |(pts, cell)| {
            let grid = SoaGrid::from_points(pts, *cell);
            for k in 0..grid.len() {
                let i = grid.item(k);
                let c = pts[i];
                let min_sq = (0..pts.len())
                    .filter(|&j| j != i)
                    .map(|j| pts[j].dist_sq(&c))
                    .fold(f64::INFINITY, f64::min);
                let want = min_sq.sqrt();
                let got = grid.nearest_at(k).ok_or("no nearest neighbour")?;
                prop_ensure!(
                    // rim-lint: allow(float-eq) — comparing u64 bit patterns; exactness is the property
                    got.dist.to_bits() == want.to_bits(),
                    "position {k} (point {i}): grid search {:e}, brute force {want:e}",
                    got.dist
                );
                let at = grid.item(got.pos);
                prop_ensure!(
                    // rim-lint: allow(float-eq) — comparing u64 bit patterns; exactness is the property
                    at != i && pts[at].dist_sq(&c).to_bits() == min_sq.to_bits(),
                    "position {k} (point {i}): point {at} is not a nearest neighbour"
                );
                let hits =
                    (0..pts.len()).filter(|&j| j != i && pts[j].dist(&c) <= got.dist).count();
                prop_ensure!(
                    got.unique == (hits == 1),
                    "position {k} (point {i}): unique = {} with {hits} point(s) in the disk",
                    got.unique
                );
            }
            Ok(())
        },
    );
}

#[test]
fn soa_disk_query_matches_brute_force_at_exact_distances() {
    // Radii equal to an exact pairwise distance put a point right on the
    // closed boundary: the tight cell margin must still reach it.
    let mut split = 0;
    check(
        "soa_disk_query_matches_brute_force_at_exact_distances",
        512,
        |rng| {
            let pts = if rng.gen_bool(0.5) {
                let n = rng.gen_range(2usize..120);
                nudged_lattice(rng, n)
            } else {
                arb_cloud(rng)
            };
            let (a, b) = (rng.gen_range(0..pts.len()), rng.gen_range(0..pts.len()));
            let center = if rng.gen_bool(0.5) {
                pts[a]
            } else {
                let c = pts[a];
                Point::new(c.x + rng.gen_range(-1.0f64..1.0), c.y + rng.gen_range(-1.0f64..1.0))
            };
            // Lattice-sized cells half the time, so cell boundaries fall
            // on the nudged lattice points.
            let cell = if rng.gen_bool(0.5) {
                2f64.powi(-(rng.gen_range(0u32..3) as i32))
            } else {
                arb_cell(rng)
            };
            (pts, cell, center, b)
        },
        |(pts, cell, center, b)| {
            let grid = SoaGrid::from_points(pts, *cell);
            split += u32::from(grid.split_cells() > 0);
            let r = pts[*b].dist(center);
            let mut got = grid.query_disk(*center, r);
            got.sort_unstable();
            let want = brute_disk(pts, *center, r);
            prop_ensure!(want.contains(b), "brute force misses the boundary point");
            prop_ensure_eq!(got, want);
            Ok(())
        },
    );
    assert_splits("soa_disk_query_matches_brute_force_at_exact_distances", split, 512);
}

/// A cloud split into a merged prefix and an overlay of arrivals, about
/// half of them moved outside the prefix's bounding box (into clamped
/// border cells), plus a grid cell size.
fn arb_dyn_cloud(rng: &mut SmallRng) -> (Vec<Point>, usize, f64) {
    let mut pts = arb_cloud(rng);
    let merged = rng.gen_range(0..pts.len() + 1);
    for p in &mut pts[merged..] {
        if rng.gen_bool(0.5) {
            let (sx, sy) = (rng.gen_range(-3.0f64..3.0), rng.gen_range(-3.0f64..3.0));
            *p = Point::new(p.x * sx + rng.gen_range(-30.0f64..30.0), p.y * sy);
        }
    }
    (pts, merged, arb_cell(rng))
}

fn dyn_grid(pts: &[Point], merged: usize, cell: f64) -> DynGrid {
    let mut grid = DynGrid::build(&pts[..merged], cell);
    for &p in &pts[merged..] {
        grid.push_overlay(p);
    }
    grid
}

#[test]
fn dyn_grid_overlay_disk_queries_match_brute_force() {
    // Half the radii are exact pairwise distances, which put a point
    // right on the closed boundary, merged or pending.
    let mut split = 0;
    check(
        "dyn_grid_overlay_disk_queries_match_brute_force",
        512,
        |rng| {
            let (pts, merged, cell) = arb_dyn_cloud(rng);
            let (a, b) = (rng.gen_range(0..pts.len()), rng.gen_range(0..pts.len()));
            let c = pts[a];
            let center = if rng.gen_bool(0.5) {
                c
            } else {
                Point::new(c.x + rng.gen_range(-1.0f64..1.0), c.y + rng.gen_range(-1.0f64..1.0))
            };
            let r = if rng.gen_bool(0.5) {
                pts[b].dist(&center)
            } else {
                rng.gen_range(0.0f64..4.0)
            };
            (pts, merged, cell, center, r)
        },
        |(pts, merged, cell, center, r)| {
            let grid = dyn_grid(pts, *merged, *cell);
            split += u32::from(SoaGrid::from_points(&pts[..*merged], *cell).split_cells() > 0);
            let mut got = Vec::new();
            grid.for_each_within(*center, *r, |id, d| got.push((id, d.to_bits())));
            got.sort_unstable();
            let want: Vec<(usize, u64)> = brute_disk(pts, *center, *r)
                .into_iter()
                .map(|i| (i, pts[i].dist(center).to_bits()))
                .collect();
            prop_ensure_eq!(got, want);
            Ok(())
        },
    );
    assert_splits("dyn_grid_overlay_disk_queries_match_brute_force", split, 512);
}

#[test]
fn dyn_grid_nearest_k_matches_brute_force() {
    let mut split = 0;
    check(
        "dyn_grid_nearest_k_matches_brute_force",
        512,
        |rng| {
            let (pts, merged, cell) = arb_dyn_cloud(rng);
            let c = pts[rng.gen_range(0..pts.len())];
            let query = match rng.gen_range(0..3u32) {
                0 => c,
                1 => Point::new(c.x + rng.gen_range(-2.0f64..2.0), c.y),
                _ => Point::new(c.x * 3.0 + 50.0, c.y - 50.0),
            };
            // Keeping only every `m`-th point pushes the answer out of the
            // first round's disk, into later rounds.
            let (m, sparse) = (rng.gen_range(1usize..17), rng.gen_bool(0.5));
            (pts, merged, cell, query, rng.gen_range(1usize..6), m, sparse)
        },
        |(pts, merged, cell, query, k, m, sparse)| {
            let grid = dyn_grid(pts, *merged, *cell);
            split += u32::from(SoaGrid::from_points(&pts[..*merged], *cell).split_cells() > 0);
            let keep = |i: usize| if *sparse { i % m == 0 } else { i % m != 0 || *m == 1 };
            let mut got = Vec::new();
            grid.k_nearest_where(*query, *k, keep, &mut got);
            let mut want: Vec<(f64, usize)> = (0..pts.len())
                .filter(|&i| keep(i))
                .map(|i| (pts[i].dist(query), i))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.truncate(*k);
            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                v.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
            };
            prop_ensure_eq!(bits(&got), bits(&want));
            Ok(())
        },
    );
    assert_splits("dyn_grid_nearest_k_matches_brute_force", split, 512);
}

#[test]
fn hull_contains_all_points() {
    check_default(
        "hull_contains_all_points",
        |rng| arb_points(rng, 50),
        |pts| {
            let hull = convex_hull(pts);
            if hull.len() >= 3 {
                // Every input point must lie inside or on the hull polygon:
                // cross products with every CCW edge must be >= -eps (exactly
                // zero up to f64 rounding of the cross product itself).
                for p in pts {
                    for k in 0..hull.len() {
                        let a = pts[hull[k]];
                        let b = pts[hull[(k + 1) % hull.len()]];
                        prop_ensure!(
                            Point::cross(&a, &b, p) >= -1e-9,
                            "point {:?} outside hull edge {:?}->{:?}",
                            p,
                            a,
                            b
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
