//! Property-based tests for the simulator: accounting invariants must
//! hold for arbitrary topologies, MACs and traffic configurations
//! (seeded in-repo harness, `rim_rng::prop`).

use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};
use rim_sim::schedule::tdma_schedule;
use rim_sim::{MacConfig, SimConfig, Simulator, TrafficConfig};
use rim_udg::{NodeSet, Topology};
use std::num::NonZeroU64;

/// Random connected line topology (consecutive-link chains with random
/// gap lengths).
fn arb_topology(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..12);
    let mut xs = vec![0.0f64];
    for i in 1..n {
        xs.push(xs[i - 1] + rng.gen_range(0.05f64..0.5));
    }
    let pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    Topology::from_pairs(NodeSet::on_line(&xs), &pairs)
}

fn arb_mac(rng: &mut SmallRng) -> MacConfig {
    match rng.gen_range(0usize..3) {
        0 => MacConfig::SlottedAloha {
            p: rng.gen_range(0.05f64..1.0),
        },
        1 => MacConfig::Csma {
            max_backoff_exp: rng.gen_range(1u32..8),
            max_retries: rng.gen_range(1u32..10),
        },
        _ => MacConfig::Tdma,
    }
}

fn arb_traffic(rng: &mut SmallRng) -> TrafficConfig {
    if rng.gen() {
        TrafficConfig::Cbr {
            flows: rng.gen_range(1usize..6),
            period: NonZeroU64::new(rng.gen_range(5u64..50)).unwrap(),
        }
    } else {
        TrafficConfig::Poisson {
            rate: rng.gen_range(0.01f64..0.5),
        }
    }
}

#[test]
fn accounting_invariants() {
    check(
        "accounting_invariants",
        48,
        |rng| {
            (
                arb_topology(rng),
                arb_mac(rng),
                arb_traffic(rng),
                rng.gen_range(0u64..1000),
            )
        },
        |(t, mac, traffic, seed)| {
            let cfg = SimConfig {
                slots: 2_000,
                mac: *mac,
                traffic: *traffic,
                alpha: 2.0,
                seed: *seed,
            };
            let m = Simulator::new(t.clone(), cfg).run();
            prop_ensure!(m.delivered + m.dropped_no_route + m.dropped_retries <= m.generated);
            prop_ensure!(m.collisions <= m.transmissions);
            prop_ensure!(m.total_hops >= m.delivered, "each delivery took >= 1 hop");
            prop_ensure!(m.energy >= 0.0);
            prop_ensure!((0.0..=1.0).contains(&m.delivery_ratio()));
            prop_ensure!((0.0..=1.0).contains(&m.collision_rate()));
            if matches!(mac, MacConfig::Tdma) {
                prop_ensure_eq!(m.collisions, 0);
                prop_ensure_eq!(m.dropped_retries, 0);
            }
            Ok(())
        },
    );
}

#[test]
fn determinism() {
    check(
        "determinism",
        64,
        |rng| (arb_topology(rng), arb_mac(rng), rng.gen_range(0u64..100)),
        |(t, mac, seed)| {
            let cfg = SimConfig {
                slots: 1_000,
                mac: *mac,
                traffic: TrafficConfig::Poisson { rate: 0.2 },
                alpha: 2.0,
                seed: *seed,
            };
            let a = Simulator::new(t.clone(), cfg).run();
            let b = Simulator::new(t.clone(), cfg).run();
            prop_ensure_eq!(a, b);
            Ok(())
        },
    );
}

#[test]
fn tdma_schedules_are_always_valid() {
    check(
        "tdma_schedules_are_always_valid",
        128,
        arb_topology,
        |t| {
            let s = tdma_schedule(t);
            prop_ensure_eq!(s.verify(t), None);
            prop_ensure_eq!(s.num_links(), 2 * t.num_edges());
            // Each node's incident directed links pairwise conflict, so the
            // frame is at least twice the maximum degree.
            prop_ensure!(s.frame_length() >= 2 * t.graph().max_degree());
            Ok(())
        },
    );
}
