//! Algorithm `A_apx` — the hybrid `O(Δ^{1/4})`-approximation
//! (Section 5.3, Theorem 5.6).
//!
//! `A_apx` detects whether an instance is inherently high-interference by
//! comparing `γ` (the linear-connection interference, Definition 5.2)
//! with `√Δ`:
//!
//! * `γ > √Δ` — the instance hides fragmented exponential chains; apply
//!   [`a_gen`](crate::a_gen()) for `O(√Δ)` interference, which is within
//!   `O(Δ^{1/4})` of the `Ω(√γ) ⊇ Ω(Δ^{1/4})` lower bound (Lemma 5.5);
//! * `γ <= √Δ` — connect linearly for interference exactly `γ`, again
//!   within `O(Δ^{1/4})` of `Ω(√γ)`.
//!
//! The paper assumes a connected instance; we apply the rule
//! independently to every UDG component (maximal runs of gaps `<= 1`),
//! which preserves connectivity on arbitrary inputs and coincides with
//! the paper on connected ones.

use crate::a_gen::a_gen_with_spacing;
use crate::critical::gamma;
use crate::instance::HighwayInstance;
use rim_graph::AdjacencyList;
use rim_udg::Topology;

/// Which branch `A_apx` took (per component; see [`AApxResult`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApxChoice {
    /// `γ <= √Δ`: nodes were connected linearly.
    Linear,
    /// `γ > √Δ`: `A_gen` was applied.
    Gen,
}

/// Result of running [`a_apx`].
#[derive(Debug, Clone)]
pub struct AApxResult {
    /// The constructed topology.
    pub topology: Topology,
    /// Per-component records `(start, end, gamma, delta, choice)` over
    /// index ranges of the sorted instance.
    pub components: Vec<ComponentRecord>,
}

/// Decision record for one UDG component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentRecord {
    /// First node index of the component.
    pub start: usize,
    /// One past the last node index.
    pub end: usize,
    /// `γ` of the component.
    pub gamma: usize,
    /// `Δ` of the component.
    pub delta: usize,
    /// The branch taken.
    pub choice: ApxChoice,
}

impl AApxResult {
    /// The branch taken, when the instance is a single component
    /// (convenience for the common case; `None` for 0 or 2+ components).
    pub fn single_choice(&self) -> Option<ApxChoice> {
        match self.components.as_slice() {
            [one] => Some(one.choice),
            _ => None,
        }
    }
}

/// Runs `A_apx` on a highway instance.
pub fn a_apx(instance: &HighwayInstance) -> AApxResult {
    let n = instance.len();
    let nodes = instance.node_set();
    let mut g = AdjacencyList::new(n);
    let mut components = Vec::new();

    // Maximal runs of consecutive gaps <= 1 are exactly the UDG components
    // of a 1-D instance.
    let mut start = 0usize;
    for i in 0..n.max(1) {
        let is_break = i + 1 >= n || instance.gap(i) > 1.0;
        if !is_break {
            continue;
        }
        let end = i + 1;
        if n == 0 {
            break;
        }
        let sub = HighwayInstance::new(instance.positions()[start..end].to_vec());
        let sub_gamma = gamma(&sub);
        let sub_delta = sub.max_degree();
        let choice = if (sub_gamma as f64) > (sub_delta as f64).sqrt() {
            ApxChoice::Gen
        } else {
            ApxChoice::Linear
        };
        match choice {
            ApxChoice::Linear => {
                for j in (start + 1)..end {
                    g.add_edge(j - 1, j, instance.gap(j - 1));
                }
            }
            ApxChoice::Gen => {
                let spacing = (sub_delta as f64).sqrt().ceil().max(1.0) as usize;
                let r = a_gen_with_spacing(&sub, spacing);
                for e in r.topology.edges() {
                    g.add_edge(start + e.u, start + e.v, e.weight);
                }
            }
        }
        components.push(ComponentRecord {
            start,
            end,
            gamma: sub_gamma,
            delta: sub_delta,
            choice,
        });
        start = end;
    }

    AApxResult {
        topology: Topology::from_graph(nodes, g),
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::exponential_chain;
    use rim_core::optimal::{min_interference_topology, SolverLimits};
    use rim_core::receiver::graph_interference;

    #[test]
    fn uniform_instance_goes_linear() {
        let h = HighwayInstance::new((0..40).map(|i| i as f64 * 0.1).collect());
        let r = a_apx(&h);
        assert_eq!(r.single_choice(), Some(ApxChoice::Linear));
        // Linear connection of a uniform chain: constant interference —
        // while A_gen would pay Θ(√Δ) here (the motivating example of
        // Section 5.3).
        assert_eq!(graph_interference(&r.topology), 2);
        assert!(r.topology.preserves_connectivity_of(&h.udg()));
    }

    #[test]
    fn exponential_chain_goes_gen() {
        let c = exponential_chain(40);
        let r = a_apx(&c);
        assert_eq!(r.single_choice(), Some(ApxChoice::Gen));
        let i = graph_interference(&r.topology);
        assert!(i < 38, "must beat linear (γ = 38), got {i}");
        assert!(r.topology.preserves_connectivity_of(&c.udg()));
    }

    #[test]
    fn approximation_ratio_on_small_instances() {
        // Theorem 5.6 asymptotically bounds the ratio by O(Δ^{1/4}); on
        // these small instances we check a concrete small multiple.
        let cases: Vec<Vec<f64>> = vec![
            vec![0.0, 0.3, 0.6, 0.9, 1.2, 1.5],
            vec![0.0, 0.01, 0.02, 0.5, 0.51, 0.99],
            vec![0.0, 0.0625, 0.1875, 0.4375, 0.9375],
            vec![0.0, 0.1, 0.2, 0.8, 1.6, 2.4],
            vec![0.0, 0.5, 0.55, 0.6, 1.1, 1.15],
        ];
        for xs in cases {
            let h = HighwayInstance::new(xs.clone());
            let apx = graph_interference(&a_apx(&h).topology);
            let opt = min_interference_topology(&h.node_set(), 1.0, SolverLimits::default());
            assert!(opt.optimal);
            let delta = h.max_degree() as f64;
            let bound = (opt.interference as f64) * 3.0 * delta.powf(0.25) + 2.0;
            assert!(
                (apx as f64) <= bound,
                "instance {xs:?}: apx={apx} opt={} Δ={delta}",
                opt.interference
            );
            // A_apx must itself be a valid topology-control output.
            assert!(a_apx(&h).topology.preserves_connectivity_of(&h.udg()));
        }
    }

    #[test]
    fn per_component_decisions() {
        // Component 1: uniform (linear); component 2: exponential-ish
        // (dense pack + doubling gaps drive γ above √Δ).
        let mut xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let base = 5.0;
        let chain = exponential_chain(24);
        xs.extend(chain.positions().iter().map(|x| base + x));
        let h = HighwayInstance::new(xs);
        let r = a_apx(&h);
        assert_eq!(r.components.len(), 2);
        assert_eq!(r.components[0].choice, ApxChoice::Linear);
        assert_eq!(r.components[1].choice, ApxChoice::Gen);
        assert!(r.topology.preserves_connectivity_of(&h.udg()));
    }

    #[test]
    fn empty_and_singleton() {
        let r = a_apx(&HighwayInstance::new(vec![]));
        assert!(r.components.is_empty());
        let r = a_apx(&HighwayInstance::new(vec![2.0]));
        assert_eq!(r.components.len(), 1);
        assert_eq!(r.topology.num_edges(), 0);
    }
}
