//! Algorithm `A_exp` — scan-line hub growth (Section 5.1, Figure 8).
//!
//! `A_exp` processes the nodes left to right. The leftmost node starts as
//! the current hub; each subsequent node is linked to the hub. When an
//! insertion raises the overall interference `I(G_exp)`, the node that
//! caused the increase becomes the new hub, and the scan continues. On the
//! exponential node chain this yields interference `Θ(√n)` (Theorem 5.1),
//! matching the `√n` lower bound of Theorem 5.2.

use crate::instance::HighwayInstance;
use rim_core::receiver::{graph_interference_with, Engine};
use rim_graph::AdjacencyList;
use rim_udg::Topology;

/// Result of running [`a_exp`].
#[derive(Debug, Clone)]
pub struct AExpResult {
    /// The constructed topology.
    pub topology: Topology,
    /// The hubs, in scan order (the leftmost node is always first).
    pub hubs: Vec<usize>,
}

/// Runs `A_exp` on a highway instance (incremental interference
/// maintenance, `O(n²)` total).
///
/// Produces exactly the same topology as the literal
/// [`a_exp_reference`] — a property-tested equivalence — but maintains
/// per-node coverage counts incrementally instead of recomputing
/// `I(G_exp)` from scratch after every insertion:
///
/// * inserting `{h, v}` can only grow the radii of `h` and `v`;
/// * when a node's radius grows from `r` to `r'`, it newly covers
///   exactly the nodes at distance in `(r, r']`.
pub fn a_exp(instance: &HighwayInstance) -> AExpResult {
    assert!(
        instance.span() <= 1.0,
        "A_exp requires all nodes within mutual transmission range"
    );
    let n = instance.len();
    let nodes = instance.node_set();
    if n == 0 {
        return AExpResult {
            topology: Topology::empty(nodes),
            hubs: Vec::new(),
        };
    }
    let mut g = AdjacencyList::new(n);
    let mut radius = vec![0.0f64; n];
    // cov[v] = number of nodes whose disks currently cover v.
    let mut cov = vec![0u32; n];
    let mut current_i = 0u32;

    // Distance-sorted neighbor lists are implicit: positions are sorted,
    // so the nodes covered by u at radius r form a contiguous window
    // around u. Track the window per node.
    let mut lo: Vec<usize> = (0..n).collect(); // leftmost covered index
    let mut hi: Vec<usize> = (0..n).collect(); // rightmost covered index

    let grow = |u: usize,
                    new_r: f64,
                    radius: &mut Vec<f64>,
                    cov: &mut Vec<u32>,
                    lo: &mut Vec<usize>,
                    hi: &mut Vec<usize>| {
        if new_r <= radius[u] {
            return;
        }
        radius[u] = new_r;
        // Same distance-level predicate as the interference kernels, so
        // boundary nodes (the farthest neighbor) are counted identically.
        while lo[u] > 0 && nodes.dist(u, lo[u] - 1) <= new_r {
            lo[u] -= 1;
            cov[lo[u]] += 1;
        }
        while hi[u] + 1 < n && nodes.dist(u, hi[u] + 1) <= new_r {
            hi[u] += 1;
            cov[hi[u]] += 1;
        }
    };

    let mut hub = 0usize;
    let mut hubs = vec![0usize];
    for v in 1..n {
        let d = nodes.dist(hub, v);
        g.add_edge(hub, v, d);
        grow(hub, d, &mut radius, &mut cov, &mut lo, &mut hi);
        grow(v, d, &mut radius, &mut cov, &mut lo, &mut hi);
        let new_i = cov.iter().copied().max().unwrap_or(0);
        debug_assert!(new_i >= current_i);
        if new_i > current_i {
            current_i = new_i;
            hub = v;
            hubs.push(v);
        }
    }
    AExpResult {
        topology: Topology::from_graph(nodes, g),
        hubs,
    }
}

/// The literal algorithm of the paper: maintain a current hub `h`, link
/// each scanned node to `h`, recompute `I(G_exp)`, and promote the node
/// to hub whenever the interference just increased. `O(n³)` — kept as
/// the readable reference; [`a_exp`] is the equivalent fast version.
///
/// The paper states `A_exp` for the exponential node chain, where every
/// node can reach every other (`Δ = n − 1`); we therefore require the
/// instance span to be at most 1 so every inserted link is feasible.
pub fn a_exp_reference(instance: &HighwayInstance) -> AExpResult {
    assert!(
        instance.span() <= 1.0,
        "A_exp requires all nodes within mutual transmission range"
    );
    let n = instance.len();
    let nodes = instance.node_set();
    if n == 0 {
        return AExpResult {
            topology: Topology::empty(nodes),
            hubs: Vec::new(),
        };
    }
    let mut g = AdjacencyList::new(n);
    let mut hub = 0usize;
    let mut hubs = vec![0usize];
    let mut current_i = 0usize; // I(G_exp) so far
    for v in 1..n {
        g.add_edge(hub, v, nodes.dist(hub, v));
        // The all-pairs scan keeps the reference independent of the
        // fast kernel.
        let new_i = graph_interference_with(
            &Topology::from_graph(nodes.clone(), g.clone()),
            Engine::Naive,
        );
        debug_assert!(new_i >= current_i);
        if new_i > current_i {
            current_i = new_i;
            hub = v;
            hubs.push(v);
        }
    }
    AExpResult {
        topology: Topology::from_graph(nodes, g),
        hubs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::exponential_chain;
    use rim_core::receiver::{graph_interference, interference_at};

    #[test]
    fn fast_matches_reference_on_chains_and_random_instances() {
        for n in [2usize, 5, 13, 40] {
            let c = exponential_chain(n);
            let fast = a_exp(&c);
            let slow = a_exp_reference(&c);
            assert_eq!(fast.hubs, slow.hubs, "n={n}");
            assert_eq!(
                fast.topology.edges(),
                slow.topology.edges(),
                "n={n}"
            );
        }
        let mut state = 11u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..10 {
            let n = 3 + (trial % 20);
            let h = HighwayInstance::new((0..n).map(|_| rnd()).collect());
            let fast = a_exp(&h);
            let slow = a_exp_reference(&h);
            assert_eq!(fast.hubs, slow.hubs, "trial={trial}");
            assert_eq!(fast.topology.edges(), slow.topology.edges(), "trial={trial}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let r = a_exp(&HighwayInstance::new(vec![]));
        assert_eq!(r.hubs.len(), 0);
        let r = a_exp(&HighwayInstance::new(vec![0.25]));
        assert_eq!(r.hubs, vec![0]);
        assert_eq!(r.topology.num_edges(), 0);
    }

    #[test]
    fn result_is_connected_tree() {
        for n in [2usize, 5, 17, 40] {
            let c = exponential_chain(n);
            let r = a_exp(&c);
            assert!(r.topology.is_forest());
            assert_eq!(r.topology.num_edges(), n - 1, "spanning tree");
            assert!(r.topology.preserves_connectivity_of(&c.udg()));
        }
    }

    #[test]
    fn interference_is_order_sqrt_n_on_exponential_chain() {
        // Theorem 5.1: I(G_exp) ∈ O(√n); quantitatively the proof gives
        // I such that n >= I²/2 − I/2 + 2, i.e. I <= √(2n) + 1.
        for n in [4usize, 9, 16, 25, 36, 64, 100] {
            let c = exponential_chain(n);
            let r = a_exp(&c);
            let i = graph_interference(&r.topology);
            let upper = (2.0 * n as f64).sqrt() + 1.0;
            assert!(
                (i as f64) <= upper,
                "n={n}: I={i} exceeds √(2n)+1 = {upper:.2}"
            );
            // And it beats the linear connection (n − 2) decisively.
            assert!(i < n - 2 || n < 9, "n={n}: I={i} not better than linear");
        }
    }

    #[test]
    fn leftmost_node_interfered_only_by_hubs() {
        // Only nodes with an edge to their right cover the leftmost node
        // (the hub property of Definition 5.1).
        let c = exponential_chain(30);
        let r = a_exp(&c);
        let hubs: std::collections::HashSet<usize> = r.hubs.iter().copied().collect();
        // Count coverage of node 0 and check each coverer is a hub.
        let t = &r.topology;
        let mut coverers = Vec::new();
        for u in 1..c.len() {
            if t.nodes().dist(u, 0) <= t.radius(u) {
                coverers.push(u);
            }
        }
        for &u in &coverers {
            assert!(hubs.contains(&u), "non-hub {u} covers the leftmost node");
        }
        assert_eq!(interference_at(t, 0), coverers.len());
    }

    #[test]
    fn successive_hubs_serve_growing_runs() {
        // Figure 8's structure: each hub (after the first two) connects
        // one more node to its right than its predecessor.
        let c = exponential_chain(50);
        let r = a_exp(&c);
        let runs: Vec<usize> = r
            .hubs
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        for k in 2..runs.len() {
            assert_eq!(
                runs[k],
                runs[k - 1] + 1,
                "hub run lengths must grow by one: {runs:?}"
            );
        }
    }
}
