//! CBTC(α) — cone-based topology control of Wattenhofer, Li, Bahl and
//! Wang (INFOCOM 2001), reference \[18\] of the paper (the work that
//! "initiated the second wave" of topology control).
//!
//! Every node grows its transmission power, collecting neighbors in
//! distance order, until **every cone of angle α** around it contains a
//! selected neighbor — i.e. until the largest angular gap between
//! consecutive selected neighbors is below α — or until its maximum
//! power (the unit range) is reached. The output is symmetrized by
//! keeping a UDG edge when *either* endpoint selected it (the paper's
//! "asymmetric edge addition"). For `α <= 2π/3` the construction
//! preserves connectivity.

use rim_graph::edge::pair_key;
use rim_graph::AdjacencyList;
use rim_udg::{NodeSet, Topology};

/// The canonical connectivity-preserving cone angle `2π/3`.
pub const ALPHA_CONNECTIVITY: f64 = 2.0 * std::f64::consts::PI / 3.0;

/// The neighbors node `u` selects under CBTC(α): the shortest distance
/// prefix of its UDG neighbors whose angular gaps are all `< α`
/// (all neighbors if no prefix achieves that).
fn cone_selection(nodes: &NodeSet, udg: &AdjacencyList, u: usize, alpha: f64) -> Vec<usize> {
    let pu = nodes.pos(u);
    let mut by_dist: Vec<usize> = udg.neighbors(u).collect();
    by_dist.sort_unstable_by(|&a, &b| {
        nodes
            .dist_sq(u, a)
            .total_cmp(&nodes.dist_sq(u, b))
            .then(a.cmp(&b))
    });
    let mut chosen: Vec<usize> = Vec::new();
    let mut angles: Vec<f64> = Vec::new();
    for (i, &v) in by_dist.iter().enumerate() {
        chosen.push(v);
        let mut angle = pu.angle_to(&nodes.pos(v));
        if angle < 0.0 {
            angle += std::f64::consts::TAU;
        }
        let pos = angles
            .binary_search_by(|a| a.total_cmp(&angle))
            .unwrap_or_else(|p| p);
        angles.insert(pos, angle);
        // Largest angular gap, wrapping around.
        let mut max_gap: f64 = 0.0;
        for w in angles.windows(2) {
            max_gap = max_gap.max(w[1] - w[0]);
        }
        max_gap = max_gap.max(angles[0] + std::f64::consts::TAU - angles[angles.len() - 1]);
        if max_gap < alpha {
            return chosen;
        }
        // Keep growing; if this was the last neighbor, fall through.
        let _ = i;
    }
    chosen
}

/// Builds the CBTC(α) topology over the UDG (union symmetrization).
pub fn cbtc(nodes: &NodeSet, udg: &AdjacencyList, alpha: f64) -> Topology {
    assert!(alpha > 0.0 && alpha <= std::f64::consts::TAU);
    let mut keys = Vec::new();
    for u in 0..nodes.len() {
        keys.extend(cone_selection(nodes, udg, u, alpha).into_iter().map(|v| pair_key(u, v)));
    }
    Topology::from_pair_keys(nodes.clone(), keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::contains_nnf;
    use rim_geom::Point;
    use rim_udg::udg::unit_disk_graph;

    fn random_field(n: usize, side: f64, seed: u64) -> NodeSet {
        let mut state = seed;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        NodeSet::new((0..n).map(|_| Point::new(rnd() * side, rnd() * side)).collect())
    }

    #[test]
    fn preserves_connectivity_at_two_pi_thirds() {
        for seed in 1..5u64 {
            let ns = random_field(80, 2.0, seed);
            let udg = unit_disk_graph(&ns);
            let t = cbtc(&ns, &udg, ALPHA_CONNECTIVITY);
            assert!(t.preserves_connectivity_of(&udg), "seed={seed}");
        }
    }

    #[test]
    fn contains_the_nnf() {
        // The nearest neighbor is always the first node selected.
        let ns = random_field(60, 2.0, 8);
        let udg = unit_disk_graph(&ns);
        let t = cbtc(&ns, &udg, ALPHA_CONNECTIVITY);
        assert!(contains_nnf(&t, &udg));
    }

    #[test]
    fn surrounded_node_stops_early() {
        // With three neighbors the angular gaps sum to 360° and one is
        // always >= 120°, so CBTC(2π/3) needs at least four directions
        // to stop. A center with four close neighbors at the cardinal
        // directions (gaps 90° < 120°) must not select the distant node.
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),  // center
            Point::new(0.2, 0.0),  // 0°
            Point::new(0.0, 0.2),  // 90°
            Point::new(-0.2, 0.0), // 180°
            Point::new(0.0, -0.2), // 270°
            Point::new(0.9, 0.1),  // far
        ]);
        let udg = unit_disk_graph(&ns);
        let sel = cone_selection(&ns, &udg, 0, ALPHA_CONNECTIVITY);
        assert_eq!(sel, vec![1, 2, 3, 4]);
        assert!(!sel.contains(&5), "far node must not be selected");
    }

    #[test]
    fn boundary_node_uses_full_power() {
        // A node with all neighbors on one side can never close its cones
        // and selects everything in range.
        let ns = NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]);
        let udg = unit_disk_graph(&ns);
        let sel = cone_selection(&ns, &udg, 0, ALPHA_CONNECTIVITY);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn smaller_alpha_selects_no_fewer_neighbors() {
        let ns = random_field(50, 1.5, 3);
        let udg = unit_disk_graph(&ns);
        for u in 0..ns.len() {
            let tight = cone_selection(&ns, &udg, u, 1.0);
            let loose = cone_selection(&ns, &udg, u, 3.0);
            assert!(tight.len() >= loose.len(), "node {u}");
        }
    }
}
