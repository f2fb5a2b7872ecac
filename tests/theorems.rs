//! Cross-crate integration tests: one test per theorem/claim of the
//! paper, wired through the public API of the facade crate.

use rim::highway::bounds::exponential_chain_lower_bound;
use rim::highway::exponential::two_chains;
use rim::prelude::*;
use rim::topology_control::nnf::{contains_nnf, nearest_neighbor_forest};
use std::num::NonZeroU64;

/// Theorem 4.1 — the Nearest Neighbor Forest is `Ω(n)` worse than the
/// optimal connected topology on the two-chain construction.
#[test]
fn theorem_4_1_nnf_is_linear_factor_worse() {
    let mut prev_ratio = 0.0;
    for k in [6usize, 12, 24, 48] {
        let tc = two_chains(k);
        let udg = unit_disk_graph(&tc.nodes);
        let nnf = nearest_neighbor_forest(&tc.nodes, &udg);
        let witness = tc.witness_topology();

        let i_nnf = graph_interference(&nnf);
        let i_wit = graph_interference(&witness);

        // The NNF interference grows linearly: the horizontal chain alone
        // covers h_0 with k-1 disks.
        assert!(i_nnf >= k - 1, "k={k}: I(NNF)={i_nnf}");
        // The witness stays constant.
        assert!(i_wit <= 8, "k={k}: I(witness)={i_wit}");
        // And the gap widens with n.
        let ratio = i_nnf as f64 / i_wit as f64;
        assert!(ratio > prev_ratio, "ratio must grow with k");
        prev_ratio = ratio;
    }
}

/// Section 4's premise: all classic constructions contain the NNF (LIFE
/// is the noted exception, exercised in the topology-control crate).
#[test]
fn classic_baselines_contain_the_nnf() {
    let nodes = rim::workloads::uniform_square(70, 2.0, 31);
    let udg = unit_disk_graph(&nodes);
    for baseline in [
        Baseline::Nnf,
        Baseline::Emst,
        Baseline::Gabriel,
        Baseline::Rng,
        Baseline::Yao6,
        Baseline::Xtc,
        Baseline::Lmst,
        Baseline::Cbtc,
    ] {
        let t = baseline.build(&nodes, &udg);
        assert!(
            contains_nnf(&t, &udg),
            "{} does not contain the NNF",
            baseline.name()
        );
    }
}

/// Figure 7 — the linearly connected exponential chain has interference
/// exactly `n − 2`, concentrated at the leftmost node.
#[test]
fn figure_7_linear_chain_interference() {
    for n in [8usize, 32, 128] {
        let c = exponential_chain(n);
        let t = c.linear_topology();
        assert_eq!(graph_interference(&t), n - 2);
        assert_eq!(interference_at(&t, 0), n - 2);
    }
}

/// Theorems 5.1 + 5.2 — `A_exp` is `Θ(√n)`-optimal on the exponential
/// chain: `√n <= I(A_exp) <= √(2n) + 1`.
#[test]
fn theorem_5_1_and_5_2_aexp_sandwich() {
    for n in [16usize, 64, 144, 256] {
        let c = exponential_chain(n);
        let i = graph_interference(&a_exp(&c).topology) as f64;
        assert!(i >= exponential_chain_lower_bound(n).floor());
        assert!(i <= (2.0 * n as f64).sqrt() + 1.0);
    }
}

/// Theorem 5.4 — `A_gen` yields `O(√Δ)` on arbitrary highway instances.
#[test]
fn theorem_5_4_agen_sqrt_delta() {
    for seed in 0..4u64 {
        let h = rim::workloads::uniform_highway(250, 5.0, seed);
        let delta = h.max_degree();
        let r = a_gen(&h);
        assert!(r.topology.preserves_connectivity_of(&h.udg()));
        let i = graph_interference(&r.topology) as f64;
        assert!(
            i <= 9.0 * (delta as f64).sqrt() + 6.0,
            "seed={seed}: I={i} Δ={delta}"
        );
    }
}

/// Theorem 5.6 — `A_apx` approximates the optimum within `O(Δ^{1/4})`;
/// verified against the exact branch-and-bound optimum on small random
/// instances.
#[test]
fn theorem_5_6_aapx_approximation_ratio() {
    let mut rng = rim_rng::SmallRng::seed_from_u64(4242);
    for trial in 0..10 {
        let n = 6 + trial % 3;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0).collect();
        let h = HighwayInstance::new(xs.clone());
        let apx = graph_interference(&a_apx(&h).topology) as f64;
        let opt = min_interference_topology(&h.node_set(), 1.0, SolverLimits::default());
        assert!(opt.optimal, "trial {trial}");
        let delta = h.max_degree() as f64;
        // Small instances: the ratio must stay within a small multiple of
        // Δ^{1/4} (the theorem's asymptotic bound with a concrete c).
        assert!(
            apx <= (opt.interference as f64) * 3.0 * delta.powf(0.25) + 2.0,
            "trial {trial}: xs={xs:?} apx={apx} opt={}",
            opt.interference
        );
    }
}

/// Figure 7 again, pinned through each engine: the fast kernel is
/// asserted against the same exact `n − 2` closed form at every size
/// (and `Naive` documents the oracle's verdict).
#[test]
fn figure_7_linear_chain_interference_pinned_engines() {
    for n in [8usize, 32, 128] {
        let t = exponential_chain(n).linear_topology();
        for engine in [Engine::Naive, Engine::Auto] {
            assert_eq!(
                graph_interference_with(&t, engine),
                n - 2,
                "n={n} engine={}",
                engine.name()
            );
        }
    }
}

/// Theorems 5.1 + 5.2 pinned through the grid-indexed fast kernel
/// (`Engine::Auto`): the `√n` sandwich must hold on the exact counts the
/// spatial index produces —
/// exponential chains are precisely the instances whose radius spread
/// makes the grid split its overloaded cells.
#[test]
fn theorem_5_1_and_5_2_aexp_sandwich_pinned_indexed() {
    for n in [16usize, 64, 144, 256] {
        let c = exponential_chain(n);
        let t = a_exp(&c).topology;
        let i = graph_interference_with(&t, Engine::Auto) as f64;
        assert!(i >= exponential_chain_lower_bound(n).floor(), "n={n}: I={i}");
        assert!(i <= (2.0 * n as f64).sqrt() + 1.0, "n={n}: I={i}");
        assert_eq!(
            graph_interference_with(&t, Engine::Auto),
            graph_interference_with(&t, Engine::Naive),
            "n={n}: the fast kernel diverged from the oracle"
        );
    }
}

/// Theorem 4.1 pinned through the grid-indexed fast kernel
/// (`Engine::Auto`): the `Ω(n)` NNF gap on the two-chain construction,
/// with both sides of the ratio computed by the spatial-index kernel.
#[test]
fn theorem_4_1_nnf_gap_pinned_indexed() {
    let mut prev_ratio = 0.0;
    for k in [6usize, 12, 24, 48] {
        let tc = two_chains(k);
        let udg = unit_disk_graph(&tc.nodes);
        let nnf = nearest_neighbor_forest(&tc.nodes, &udg);
        let witness = tc.witness_topology();
        let i_nnf = graph_interference_with(&nnf, Engine::Auto);
        let i_wit = graph_interference_with(&witness, Engine::Auto);
        assert!(i_nnf >= k - 1, "k={k}: I(NNF)={i_nnf}");
        assert!(i_wit <= 8, "k={k}: I(witness)={i_wit}");
        let ratio = i_nnf as f64 / i_wit as f64;
        assert!(ratio > prev_ratio, "k={k}: ratio must grow");
        prev_ratio = ratio;
    }
}

/// The robustness contrast of Figure 1: one arrival moves the
/// sender-centric measure to `Θ(n)` while the receiver-centric measure
/// moves by a constant.
#[test]
fn figure_1_robustness_contrast() {
    use rim::interference::robustness::arrival_impact;
    use rim::topology_control::emst::euclidean_mst;
    for n in [30usize, 60, 120] {
        let (cluster, with) = rim::workloads::fig1_instance(n, 0.1, 5);
        let outlier = with.pos(with.len() - 1);
        let impact = arrival_impact(&cluster, outlier, |ns| {
            let udg = unit_disk_graph(ns);
            euclidean_mst(ns, &udg)
        });
        // Sender measure explodes: the forced long link covers the whole
        // cluster.
        assert!(
            impact.sender_after >= n - 2,
            "n={n}: sender_after={}",
            impact.sender_after
        );
        // Receiver measure moves by a constant.
        assert!(
            impact.receiver_after <= impact.receiver_before + 3,
            "n={n}: receiver {} -> {}",
            impact.receiver_before,
            impact.receiver_after
        );
        assert!(impact.max_receiver_delta <= 3, "n={n}");
    }
}

/// The introduction's physical claim, on the simulator: on the same
/// traffic, the low-interference topology suffers fewer collisions than
/// the interference-heavy linear chain.
#[test]
fn lower_interference_means_fewer_collisions() {
    let chain = exponential_chain(48);
    let linear = chain.linear_topology();
    let apx = a_apx(&chain).topology;
    let i_lin = graph_interference(&linear);
    let i_apx = graph_interference(&apx);
    assert!(i_apx < i_lin);

    let cfg = SimConfig {
        slots: 20_000,
        mac: MacConfig::aloha(),
        traffic: TrafficConfig::Cbr {
            flows: 10,
            period: NonZeroU64::new(25).unwrap(),
        },
        alpha: 2.0,
        seed: 17,
    };
    let m_lin = Simulator::new(linear, cfg).run();
    let m_apx = Simulator::new(apx, cfg).run();
    assert!(
        m_apx.collision_rate() < m_lin.collision_rate(),
        "collision rates: apx={} linear={}",
        m_apx.collision_rate(),
        m_lin.collision_rate()
    );
}
