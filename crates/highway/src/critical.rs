//! Critical node sets (Definition 5.2) and the instance parameter `γ`.
//!
//! For the linearly connected graph `G_lin`, the critical set of a node
//! `v` is
//!
//! ```text
//! C_v = { u ≠ v : ∃ {u,w} ∈ E_lin with |uw| >= |uv| }
//! ```
//!
//! — exactly the nodes that interfere with `v` when the instance is
//! connected linearly (a node's linear radius is its longer adjacent
//! gap). Consequently `γ = max_v |C_v| = I(G_lin)`. `A_apx` uses `γ`
//! both as the high-interference detector and, via Lemma 5.5, as an
//! `Ω(√γ)` lower bound on the optimum.

use crate::instance::HighwayInstance;

/// Linear radius of every node: the larger of its two adjacent gaps
/// (single-neighbor boundary nodes take their only gap; a singleton
/// instance has radius 0).
pub fn linear_radii(instance: &HighwayInstance) -> Vec<f64> {
    let n = instance.len();
    (0..n)
        .map(|i| {
            let left = if i > 0 { instance.gap(i - 1) } else { 0.0 };
            let right = if i + 1 < n { instance.gap(i) } else { 0.0 };
            left.max(right)
        })
        .collect()
}

/// Sizes `|C_v|` for every node, computed without materializing the sets.
pub fn critical_counts(instance: &HighwayInstance) -> Vec<usize> {
    let n = instance.len();
    let radii = linear_radii(instance);
    let mut counts = vec![0usize; n];
    for u in 0..n {
        for (v, c) in counts.iter_mut().enumerate() {
            if u != v && (instance.x(u) - instance.x(v)).abs() <= radii[u] {
                *c += 1;
            }
        }
    }
    counts
}

/// `γ = max_v |C_v|` — the maximum number of critical nodes (0 for
/// instances with fewer than two nodes).
///
/// ```
/// use rim_highway::{exponential_chain, gamma, HighwayInstance};
///
/// // Uniform chains have constant γ …
/// let uniform = HighwayInstance::new((0..10).map(|i| i as f64 * 0.1).collect());
/// assert_eq!(gamma(&uniform), 2);
/// // … while the exponential chain drives it to n − 2.
/// assert_eq!(gamma(&exponential_chain(10)), 8);
/// ```
pub fn gamma(instance: &HighwayInstance) -> usize {
    critical_counts(instance).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::exponential_chain;
    use rim_core::receiver::graph_interference;

    /// The critical node set `C_v` for every `v` (as index lists).
    fn critical_sets(instance: &HighwayInstance) -> Vec<Vec<usize>> {
        let n = instance.len();
        let radii = linear_radii(instance);
        (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&u| u != v && (instance.x(u) - instance.x(v)).abs() <= radii[u])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gamma_equals_linear_interference() {
        // γ is by construction the interference of G_lin; cross-check
        // against the receiver-centric measure on feasible instances.
        for xs in [
            vec![0.0, 0.5, 1.0, 1.5],
            vec![0.0, 0.1, 0.9, 1.0, 1.05],
            vec![0.0, 0.25, 0.26, 0.9, 1.6, 1.61],
        ] {
            let h = HighwayInstance::new(xs);
            assert_eq!(gamma(&h), graph_interference(&h.linear_topology()));
        }
    }

    #[test]
    fn gamma_of_exponential_chain_is_n_minus_2() {
        for n in [4usize, 8, 20] {
            assert_eq!(gamma(&exponential_chain(n)), n - 2, "n={n}");
        }
    }

    #[test]
    fn gamma_of_uniform_chain_is_two() {
        let h = HighwayInstance::new((0..30).map(|i| i as f64 * 0.3).collect());
        assert_eq!(gamma(&h), 2);
    }

    #[test]
    fn critical_sets_match_counts() {
        let h = HighwayInstance::new(vec![0.0, 0.1, 0.3, 0.7, 1.5]);
        let sets = critical_sets(&h);
        let counts = critical_counts(&h);
        for (s, &c) in sets.iter().zip(&counts) {
            assert_eq!(s.len(), c);
        }
    }

    #[test]
    fn boundary_nodes_use_single_gap() {
        let h = HighwayInstance::new(vec![0.0, 1.0, 1.25]);
        let r = linear_radii(&h);
        assert_eq!(r, vec![1.0, 1.0, 0.25]);
    }

    #[test]
    fn tiny_instances() {
        assert_eq!(gamma(&HighwayInstance::new(vec![])), 0);
        assert_eq!(gamma(&HighwayInstance::new(vec![1.0])), 0);
        assert_eq!(gamma(&HighwayInstance::new(vec![0.0, 0.4])), 1);
    }
}
