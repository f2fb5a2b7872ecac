//! The Yao graph — cone-based nearest-neighbor selection.
//!
//! Each node partitions the plane around itself into `k` equal cones and
//! keeps a link to the nearest UDG neighbor inside each cone. The
//! undirected output is the union of all selected links (a link exists if
//! *either* endpoint selected it), the convention of the CBTC family. For
//! `k >= 6` the result is connected on each UDG component and a spanner.
//!
//! The per-node cone selection is already neighborhood-local. `Naive`
//! runs it serially with an `atan2` per link (`cone_selection`, the
//! retained oracle). `Auto` fans nodes out over the shared executor and
//! classifies each link by sign tests against the `k` boundary
//! directions (`sector`), falling back to the same `atan2` formula
//! only next to a boundary; both merge the selected links through
//! sorted, deduplicated pair keys — the same edge set for every thread
//! count.
//!
//! Why the sign tests give the formula's cone. Both read the same
//! rounded `(dx, dy)` of the link `u → v`, of angle `θ`, and `S = |dx| +
//! |dy|`. The computed cross product `c_j·dy − s_j·dx` with the rounded
//! boundary direction `(c_j, s_j)` of `φ_j = 2πj/k` is within `2⁻⁴⁷·S`
//! of the exact `|v|·sin(θ − φ_j)`: `φ_j` and its `cos`/`sin` are off by
//! at most `2⁻⁴⁸`, and the two products and the difference round once
//! each. `sector` accepts a test only when it clears the margin
//! `2⁻³⁰·S + 2⁻¹⁰⁰⁰` (so products that underflow cannot decide a sign),
//! and then its sign is exact and `θ` lies more than `2⁻³¹` radians
//! from `φ_j` and from `φ_j + π`; the same holds for `dy` and the
//! half-plane boundaries `0` and `π`. Every boundary next to `θ` is one
//! of those tested, so `θ·k/2π` lies more than `k·2⁻³⁴` from every
//! integer, while the formula (`atan2`, the shift by `2π`, the division
//! and the product with `k`, each off by an ulp or two) computes it to
//! within `k·2⁻⁴⁹`: its floor is the geometric cone. A zero, tiny or
//! non-finite `(dx, dy)` fails the margin and takes the formula.

use rim_core::receiver::Engine;
use rim_geom::Point;
use rim_graph::edge::pair_key;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// Relative margin of [`sector`]'s sign tests, `2⁻³⁰`.
const SECTOR_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Absolute floor of [`sector`]'s margin, `2⁻¹⁰⁰⁰`: far above the
/// rounding error of a product that underflows.
const SECTOR_FLOOR: f64 = f64::from_bits((1023 - 1000) << 52);

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

/// The cone of the link direction `(dx, dy)` by sign tests against the
/// boundary directions `dirs[j] = (cos φ_j, sin φ_j)`, `φ_j = 2πj/k`
/// (`k = dirs.len()`), or `None` when a test falls within the margin
/// (see the module docs) and the `atan2` formula must decide. The sign
/// of `dy` picks the half plane; within it, the cone is the last
/// boundary `φ_j` with `θ >= φ_j`, which holds exactly when the cross
/// product `c_j·dy − s_j·dx` is non-negative, since `θ` and `φ_j` are
/// less than `π` apart there.
// rim-lint: allow(panic-freedom) — both boundary ranges lie within `0..k`
fn sector(dirs: &[(f64, f64)], dx: f64, dy: f64) -> Option<usize> {
    let k = dirs.len();
    let margin = SECTOR_MARGIN * (dx.abs() + dy.abs()) + SECTOR_FLOOR;
    // A NaN clears no margin, so it takes the formula too.
    let clears = |x: f64| x.abs() > margin;
    if !clears(dy) {
        return None;
    }
    // Upper half: the boundaries in `(0, π)` follow cone 0; lower half:
    // those in `(π, 2π)` follow cone `⌊k/2⌋`, the last to start by `π`.
    let (mut cone, later) = if dy > 0.0 { (0, 1..k.div_ceil(2)) } else { (k / 2, k / 2 + 1..k) };
    for &(c, s) in &dirs[later] {
        let cross = c * dy - s * dx;
        if !clears(cross) {
            return None;
        }
        if cross < 0.0 {
            break;
        }
        cone += 1;
    }
    Some(cone)
}

/// [`cone_selection`]'s `atan2` formula for the cone of `u → v`.
fn atan2_cone(pu: Point, pv: Point, k: usize) -> usize {
    let tau = std::f64::consts::TAU;
    let mut angle = pu.angle_to(&pv);
    if angle < 0.0 {
        angle += tau;
    }
    ((angle / tau * k as f64) as usize).min(k - 1)
}

/// [`cone_selection`] with each cone found by [`sector`], and by the
/// `atan2` formula only next to a boundary: the same selections, since
/// the two agree on every link (see the module docs). `dirs` holds the
/// `k = best.len()` boundary directions.
// rim-lint: root
fn sector_selection(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    u: usize,
    dirs: &[(f64, f64)],
    best: &mut [Option<usize>],
) {
    let k = best.len();
    best.iter_mut().for_each(|b| *b = None);
    let pu = nodes.pos(u);
    for v in udg.neighbors(u) {
        let pv = nodes.pos(v);
        let cone = sector(dirs, pv.x - pu.x, pv.y - pu.y).unwrap_or_else(|| atan2_cone(pu, pv, k));
        let Some(slot) = best.get_mut(cone) else { continue };
        let replace = match *slot {
            None => true,
            Some(w) => {
                let dv = nodes.dist_sq(u, v);
                let dw = nodes.dist_sq(u, w);
                dv < dw || (dv == dw && v < w)
            }
        };
        if replace {
            *slot = Some(v);
        }
    }
}

/// The boundary directions `(cos φ_j, sin φ_j)`, `φ_j = 2πj/k`, of
/// `k` cones.
fn boundaries(k: usize) -> Vec<(f64, f64)> {
    let tau = std::f64::consts::TAU;
    (0..k)
        .map(|j| {
            let phi = tau * j as f64 / k as f64;
            (phi.cos(), phi.sin())
        })
        .collect()
}

/// Builds the Yao graph with `k >= 1` cones, restricted to UDG edges,
/// with an explicit [`Engine`]: `Naive` runs `cone_selection`
/// serially, `Auto` runs the sign-test selection on
/// [`rim_par::auto_threads`] workers. Both return the same topology.
///
/// Cone `j` at node `u` covers angles `[2πj/k, 2π(j+1)/k)` measured from
/// the positive x-axis. Ties within a cone break towards the smaller
/// index.
// rim-lint: root
pub fn yao_graph_with(nodes: &NodeSet, udg: &AdjacencyList, k: usize, engine: Engine) -> Topology {
    match engine {
        Engine::Naive => yao_union(nodes, k, 1, |u, best| cone_selection(nodes, udg, u, best)),
        Engine::Auto => yao_graph_parallel(nodes, udg, k, rim_par::auto_threads(nodes.len())),
    }
}

/// The sign-test Yao construction across an explicit number of worker
/// threads (`1` = serial, inline). The edge set is independent of
/// `threads` by construction.
pub fn yao_graph_parallel(
    nodes: &NodeSet,
    udg: &AdjacencyList,
    k: usize,
    threads: usize,
) -> Topology {
    let dirs = boundaries(k);
    yao_union(nodes, k, threads, |u, best| sector_selection(nodes, udg, u, &dirs, best))
}

/// Runs `select(u, best)` for every node across `threads` workers, each
/// selecting cones for a contiguous node range, and merges the directed
/// selections into the undirected union as sorted, deduplicated pair
/// keys.
fn yao_union<F>(nodes: &NodeSet, k: usize, threads: usize, select: F) -> Topology
where
    F: Fn(usize, &mut [Option<usize>]) + Sync,
{
    assert!(k >= 1, "need at least one cone");
    let chunks = rim_par::par_map_ranges(nodes.len(), threads, |range| {
        let mut best: Vec<Option<usize>> = vec![None; k];
        let mut out: Vec<u64> = Vec::new();
        for u in range {
            select(u, &mut best);
            out.extend(best.iter().flatten().map(|&sel| pair_key(u, sel)));
        }
        out
    });
    // The first chunk takes the others in place of a concatenated copy:
    // the keys are the largest buffer of the construction.
    let mut chunks = chunks.into_iter();
    let mut keys = chunks.next().unwrap_or_default();
    keys.extend(chunks.flatten());
    Topology::from_pair_keys(nodes.clone(), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_udg::udg::unit_disk_graph;

    /// `x` moved by `steps` units in the last place (through zero too).
    fn ulps(x: f64, steps: i64) -> f64 {
        let mut y = x;
        for _ in 0..steps.abs() {
            y = if steps > 0 { y.next_up() } else { y.next_down() };
        }
        y
    }

    #[test]
    fn sector_agrees_with_the_formula_next_to_every_boundary() {
        for k in 1..=12 {
            let dirs = boundaries(k);
            let formula = |dx: f64, dy: f64| atan2_cone(Point::ORIGIN, Point::new(dx, dy), k);
            let (mut decided, mut near) = (0, 0);
            for j in 0..4 * k {
                // The boundaries (every fourth step), the cone middles and
                // the quarter points between them.
                let phi = std::f64::consts::TAU * j as f64 / (4 * k) as f64;
                for r in [1e-300, 3e-9, 1.0, 7.25, 1e12, 1e300] {
                    let (dx, dy) = (r * phi.cos(), r * phi.sin());
                    for (sx, sy) in (-3..=3).flat_map(|a| (-3..=3).map(move |b| (a, b))) {
                        let (dx, dy) = (ulps(dx, sx), ulps(dy, sy));
                        if let Some(cone) = sector(&dirs, dx, dy) {
                            assert_eq!(cone, formula(dx, dy), "k={k} ({dx:e}, {dy:e})");
                            decided += 1;
                        } else if j % 4 == 0 || phi.sin().abs() < 0.5 {
                            // A boundary, or near the half-plane line
                            // `dy = 0`, where a cone of odd `k` has its
                            // middle.
                            near += 1;
                        } else {
                            panic!("k={k}: ({dx:e}, {dy:e}) fell back off every boundary");
                        }
                    }
                }
            }
            assert!(decided > 0 && near > 0, "k={k}: {decided} decided, {near} fell back");
            // Just outside the margin: a few 2⁻³⁰ radians off a boundary
            // the signs decide, and must still agree with the formula.
            for j in 0..k {
                let phi = std::f64::consts::TAU * j as f64 / k as f64;
                for e in [-28, -26, -24, -20] {
                    for delta in [-2f64.powi(e), 2f64.powi(e)] {
                        let (dx, dy) = ((phi + delta).cos(), (phi + delta).sin());
                        let on_axis = (phi + delta).sin().abs() < 2f64.powi(-27);
                        let at = format!("k={k} φ={phi}{delta:+e}");
                        match sector(&dirs, dx, dy) {
                            Some(cone) => assert_eq!(cone, formula(dx, dy), "{at}"),
                            None => assert!(on_axis, "{at} fell back"),
                        }
                    }
                }
            }
            // Zero, subnormal, horizontal and non-finite vectors take the
            // formula.
            let tiny = f64::from_bits(1);
            for (dx, dy) in [
                (0.0, 0.0),
                (-0.0, 0.0),
                (tiny, tiny),
                (-tiny, 3.0 * tiny),
                (1.0, 0.0),
                (-1.0, -0.0),
                (f64::MAX, -f64::MAX),
                (f64::INFINITY, 1.0),
                (f64::NAN, 1.0),
            ] {
                assert_eq!(sector(&dirs, dx, dy), None, "k={k} ({dx:e}, {dy:e})");
            }
        }
    }

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
