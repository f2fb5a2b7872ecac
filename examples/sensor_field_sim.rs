//! Ground the interference measure in MAC-level behavior: simulate the
//! same traffic over differently-controlled topologies of one sensor
//! field and watch collisions/retransmissions/energy follow `I(G')`.
//!
//! ```text
//! cargo run --example sensor_field_sim
//! ```

use rim::prelude::*;
use std::num::NonZeroU64;

fn main() {
    let nodes = rim::workloads::uniform_square(60, 2.2, 2025);
    let udg = unit_disk_graph(&nodes);
    println!(
        "sensor field: {} nodes, Δ = {}\n",
        nodes.len(),
        udg.max_degree()
    );

    let cfg = SimConfig {
        slots: 30_000,
        mac: MacConfig::csma(),
        traffic: TrafficConfig::Cbr {
            flows: 12,
            period: NonZeroU64::new(40).unwrap(),
        },
        alpha: 2.0,
        seed: 7,
    };

    println!(
        "{:<8} {:>6} {:>9} {:>9} {:>10} {:>10}",
        "topology", "I(G')", "delivery", "coll.rate", "tx/deliv", "energy/pkt"
    );
    for baseline in Baseline::ALL {
        let t = baseline.build(&nodes, &udg);
        if !t.preserves_connectivity_of(&udg) {
            // NNF may split the field; routing treats unreachable pairs
            // as no-route drops, so the comparison stays fair, but note it.
            println!("{:<8} (does not preserve connectivity)", baseline.name());
        }
        let i = graph_interference(&t);
        let m = Simulator::new(t, cfg).run();
        println!(
            "{:<8} {:>6} {:>9.3} {:>9.3} {:>10.2} {:>10.4}",
            baseline.name(),
            i,
            m.delivery_ratio(),
            m.collision_rate(),
            m.transmissions_per_delivery(),
            m.energy_per_delivery(),
        );
    }
}
