//! The slot-synchronous simulation loop.

use crate::event::EventQueue;
use crate::mac::{MacConfig, MacState};
use crate::metrics::Metrics;
use crate::phy::Coverage;
use crate::traffic::{make_flows, random_pair, Flow, Packet, TrafficConfig};
use rim_rng::SmallRng;
use rim_graph::shortest_path::routing_table;
use rim_udg::Topology;
use std::collections::VecDeque;
use std::num::NonZeroU64;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of slots to simulate.
    pub slots: u64,
    /// MAC discipline.
    pub mac: MacConfig,
    /// Traffic pattern.
    pub traffic: TrafficConfig,
    /// Path-loss exponent for the energy metric (`energy += r_u^α` per
    /// transmission).
    pub alpha: f64,
    /// RNG seed; runs are bit-reproducible per seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // rim-lint: allow(no-unwrap-in-lib) — a const, so a zero would fail the build
        const PERIOD: NonZeroU64 = NonZeroU64::new(20).unwrap();
        SimConfig {
            slots: 10_000,
            mac: MacConfig::csma(),
            traffic: TrafficConfig::Cbr {
                flows: 4,
                period: PERIOD,
            },
            alpha: 2.0,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Queued {
    pkt: Packet,
    hops: u32,
}

/// A packet-level simulator over a fixed controlled topology.
pub struct Simulator {
    topology: Topology,
    cfg: SimConfig,
    coverage: Coverage,
    next_hop: Vec<Vec<usize>>,
    /// For [`MacConfig::Tdma`]: per frame slot, the set of allowed links.
    tdma_frame: Vec<std::collections::HashSet<(usize, usize)>>,
}

impl Simulator {
    /// Prepares a simulator: precomputes coverage, routing tables, and —
    /// under [`MacConfig::Tdma`] — the conflict-free link schedule.
    pub fn new(topology: Topology, cfg: SimConfig) -> Self {
        let coverage = Coverage::of(&topology);
        let _span = rim_obs::span("sim/prepare");
        let next_hop = routing_table(topology.graph());
        let tdma_frame = if matches!(cfg.mac, MacConfig::Tdma) {
            crate::schedule::tdma_schedule(&topology)
                .slots
                .into_iter()
                .map(|links| links.into_iter().collect())
                .collect()
        } else {
            Vec::new()
        };
        Simulator {
            topology,
            cfg,
            coverage,
            next_hop,
            tdma_frame,
        }
    }

    /// The per-node interference the run operates under (for reporting).
    pub fn interference_profile(&self) -> Vec<usize> {
        (0..self.topology.num_nodes())
            .map(|v| self.coverage.interference_at(v))
            .collect()
    }

    /// Runs the simulation and returns the accumulated metrics.
    pub fn run(&self) -> Metrics {
        let _span = rim_obs::span("sim/run");
        let n = self.topology.num_nodes();
        let cfg = &self.cfg;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut metrics = Metrics {
            collisions_at: vec![0; n],
            received_at: vec![0; n],
            ..Metrics::default()
        };
        if n < 2 {
            return metrics;
        }

        let mut arrivals: EventQueue<usize> = EventQueue::new();
        let flows: Vec<Flow> = make_flows(&cfg.traffic, n, &mut rng);
        for (i, f) in flows.iter().enumerate() {
            arrivals.push(f.phase, i);
        }

        let mut queues: Vec<VecDeque<Queued>> = vec![VecDeque::new(); n];
        let mut mac: Vec<MacState> = vec![MacState::default(); n];
        let mut is_tx = vec![false; n];
        let mut prev_tx = vec![false; n];
        let mut next_id = 0u64;

        let admit = |src: usize,
                         dst: usize,
                         now: u64,
                         next_hop: &[Vec<usize>],
                         queues: &mut Vec<VecDeque<Queued>>,
                         metrics: &mut Metrics,
                         next_id: &mut u64| {
            metrics.generated += 1;
            if next_hop[src][dst] == usize::MAX {
                metrics.dropped_no_route += 1;
                return;
            }
            queues[src].push_back(Queued {
                pkt: Packet {
                    id: *next_id,
                    src,
                    dst,
                    created: now,
                },
                hops: 0,
            });
            *next_id += 1;
        };

        // Event accounting for the observability layer. The tallies are
        // plain locals updated unconditionally (they cost an add) and
        // flushed in O(1) counter updates after the loop, so enabling or
        // disabling a sink cannot change what the simulation computes.
        let obs_on = rim_obs::active();
        let mut arrival_events = 0u64;
        let mut transmission_events = 0u64;

        for now in 0..cfg.slots {
            // 1. Traffic arrivals.
            while let Some((_, flow_idx)) = arrivals.pop_due(now) {
                arrival_events += 1;
                let f = flows[flow_idx];
                admit(f.src, f.dst, now, &self.next_hop, &mut queues, &mut metrics, &mut next_id);
                arrivals.push(now + f.period, flow_idx);
            }
            if let TrafficConfig::Poisson { rate } = cfg.traffic {
                if rng.gen::<f64>() < rate {
                    arrival_events += 1;
                    let (src, dst) = random_pair(n, &mut rng);
                    admit(src, dst, now, &self.next_hop, &mut queues, &mut metrics, &mut next_id);
                }
            }

            // 2. MAC decisions (ascending node order; deterministic).
            if matches!(cfg.mac, MacConfig::Tdma) {
                if self.tdma_frame.is_empty() {
                    is_tx.iter_mut().for_each(|x| *x = false);
                } else {
                    let slot = &self.tdma_frame[(now % self.tdma_frame.len() as u64) as usize];
                    for u in 0..n {
                        is_tx[u] = queues[u].front().is_some_and(|q| {
                            slot.contains(&(u, self.next_hop[u][q.pkt.dst]))
                        });
                    }
                }
            } else {
                for u in 0..n {
                    let busy = prev_tx[u]
                        || self.coverage.coverers[u]
                            .iter()
                            .any(|&w| prev_tx[w as usize]);
                    is_tx[u] =
                        mac[u].wants_to_transmit(&cfg.mac, !queues[u].is_empty(), busy, &mut rng);
                }
            }

            // 3. Receptions, evaluated against the full transmitter set.
            for u in 0..n {
                if !is_tx[u] {
                    continue;
                }
                transmission_events += 1;
                // rim-lint: allow(no-unwrap-in-lib) — is_tx[u] implies a queued frame
                let head = queues[u].front().expect("transmitter with empty queue");
                let v = self.next_hop[u][head.pkt.dst];
                debug_assert_ne!(v, usize::MAX, "queued packet without route");
                metrics.transmissions += 1;
                metrics.energy += self.topology.radius(u).powf(cfg.alpha);
                if self.coverage.received(u, v, &is_tx) {
                    metrics.received_at[v] += 1;
                    // rim-lint: allow(no-unwrap-in-lib) — same invariant: is_tx[u] implies a queued frame
                    let mut q = queues[u].pop_front().unwrap();
                    mac[u].on_success();
                    q.hops += 1;
                    if v == q.pkt.dst {
                        metrics.delivered += 1;
                        metrics.total_delay += now - q.pkt.created;
                        metrics.total_hops += q.hops as u64;
                    } else {
                        queues[v].push_back(q);
                    }
                } else {
                    metrics.collisions += 1;
                    metrics.collisions_at[v] += 1;
                    if mac[u].on_failure(&cfg.mac, &mut rng) {
                        queues[u].pop_front();
                        metrics.dropped_retries += 1;
                    }
                }
            }

            std::mem::swap(&mut prev_tx, &mut is_tx);

            // Aggregate queue depth per slot; the O(n) walk only runs
            // with a sink installed.
            if obs_on {
                let depth: u64 = queues.iter().map(|q| q.len() as u64).sum();
                rim_obs::record("sim.queue_depth", depth);
            }
        }
        rim_obs::counter_add("sim.slots", cfg.slots);
        rim_obs::counter_add("sim.events", arrival_events + transmission_events);
        rim_obs::counter_add("sim.arrival_events", arrival_events);
        rim_obs::counter_add("sim.transmission_events", transmission_events);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_udg::NodeSet;

    fn chain(n: usize, gap: f64) -> Topology {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * gap).collect();
        let pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::from_pairs(NodeSet::on_line(&xs), &pairs)
    }

    #[test]
    fn lone_flow_on_a_link_delivers_everything() {
        let t = chain(2, 0.5);
        let cfg = SimConfig {
            slots: 2_000,
            mac: MacConfig::csma(),
            traffic: TrafficConfig::Cbr { flows: 1, period: NonZeroU64::new(10).unwrap() },
            alpha: 2.0,
            seed: 1,
        };
        let m = Simulator::new(t, cfg).run();
        assert!(m.generated >= 190);
        assert!(m.delivery_ratio() > 0.98, "ratio={}", m.delivery_ratio());
        assert_eq!(m.collisions, 0, "no contention possible");
        // Energy: every transmission at radius 0.5, alpha 2.
        assert!((m.energy - 0.25 * m.transmissions as f64).abs() < 1e-9);
    }

    #[test]
    fn multihop_forwarding_counts_hops() {
        let t = chain(4, 0.4);
        let cfg = SimConfig {
            slots: 5_000,
            mac: MacConfig::csma(),
            traffic: TrafficConfig::Cbr { flows: 1, period: NonZeroU64::new(50).unwrap() },
            alpha: 2.0,
            seed: 7,
        };
        let sim = Simulator::new(t, cfg);
        let m = sim.run();
        assert!(m.delivered > 0);
        // The single flow has a fixed path; every delivered packet used
        // the same number of hops = graph distance.
        let hops = m.total_hops as f64 / m.delivered as f64;
        assert!((1.0..=3.0).contains(&hops));
        assert_eq!(hops.fract(), 0.0, "fixed route must give integral hops");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let t = chain(6, 0.3);
        let cfg = SimConfig {
            slots: 3_000,
            mac: MacConfig::aloha(),
            traffic: TrafficConfig::Poisson { rate: 0.2 },
            alpha: 2.0,
            seed: 99,
        };
        let a = Simulator::new(t.clone(), cfg).run();
        let b = Simulator::new(t, cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn saturated_aloha_starves() {
        // Two flows converging on the middle node with p = 1: every slot
        // both neighbors transmit, every frame collides at node 1.
        let t = chain(3, 0.4);
        let cfg = SimConfig {
            slots: 500,
            mac: MacConfig::SlottedAloha { p: 1.0 },
            traffic: TrafficConfig::Cbr { flows: 16, period: NonZeroU64::new(2).unwrap() },
            alpha: 2.0,
            seed: 3,
        };
        let m = Simulator::new(t, cfg).run();
        assert!(m.collision_rate() > 0.9, "rate={}", m.collision_rate());
    }

    #[test]
    fn disconnected_destination_is_dropped_at_admission() {
        // Two separate links: flows whose endpoints land in different
        // components are counted as no-route drops.
        let ns = NodeSet::on_line(&[0.0, 0.2, 5.0, 5.2]);
        let t = Topology::from_pairs(ns, &[(0, 1), (2, 3)]);
        let cfg = SimConfig {
            slots: 1_000,
            mac: MacConfig::csma(),
            traffic: TrafficConfig::Poisson { rate: 0.5 },
            alpha: 2.0,
            seed: 11,
        };
        let m = Simulator::new(t, cfg).run();
        assert!(m.dropped_no_route > 0);
        assert!(m.generated as i64 - m.dropped_no_route as i64 >= 0);
    }

    #[test]
    fn tdma_is_collision_free_and_delivers() {
        let t = chain(8, 0.3);
        let cfg = SimConfig {
            slots: 20_000,
            mac: MacConfig::Tdma,
            traffic: TrafficConfig::Cbr { flows: 6, period: NonZeroU64::new(40).unwrap() },
            alpha: 2.0,
            seed: 5,
        };
        let m = Simulator::new(t, cfg).run();
        assert_eq!(m.collisions, 0, "TDMA must never collide");
        assert!(m.generated > 0);
        assert!(
            m.delivery_ratio() > 0.95,
            "delivery = {}",
            m.delivery_ratio()
        );
        // Collision-free forwarding: every transmission succeeds, so the
        // hop count of delivered packets can only lag behind by packets
        // still in flight when the run ended.
        assert!(m.transmissions >= m.total_hops);
        assert!(m.dropped_retries == 0);
    }

    #[test]
    fn tdma_on_edgeless_topology_is_silent() {
        let t = Topology::empty(NodeSet::on_line(&[0.0, 0.4, 0.8]));
        let cfg = SimConfig {
            slots: 500,
            mac: MacConfig::Tdma,
            traffic: TrafficConfig::Poisson { rate: 0.3 },
            alpha: 2.0,
            seed: 2,
        };
        let m = Simulator::new(t, cfg).run();
        assert_eq!(m.transmissions, 0);
        assert_eq!(m.delivered, 0);
        assert!(m.dropped_no_route > 0);
    }

    #[test]
    fn tiny_networks_are_inert() {
        let t = Topology::empty(NodeSet::on_line(&[0.3]));
        let m = Simulator::new(t, SimConfig::default()).run();
        assert_eq!(m.generated, 0);
        assert_eq!(m.transmissions, 0);
        assert_eq!(m.collisions_at, vec![0]);
    }
}
