//! Traffic generation: constant-bit-rate flows and Poisson arrivals.

use rim_rng::SmallRng;
use std::num::NonZeroU64;

/// What traffic the network carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficConfig {
    /// `flows` random source/destination pairs, each emitting one packet
    /// every `period` slots (random initial phase).
    Cbr {
        /// Number of concurrent flows.
        flows: usize,
        /// Slots between packets of one flow; at least one, since a flow's
        /// first emission is drawn from `0..period`.
        period: NonZeroU64,
    },
    /// Network-wide Poisson arrivals: in every slot, a packet is created
    /// with probability `rate` (at most one per slot), with a fresh
    /// random source/destination pair.
    Poisson {
        /// Per-slot packet arrival probability.
        rate: f64,
    },
}

/// A packet travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (creation order).
    pub id: u64,
    /// Source node.
    pub src: usize,
    /// Final destination node.
    pub dst: usize,
    /// Slot in which the packet was created.
    pub created: u64,
}

/// A CBR flow descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// First emission slot.
    pub phase: u64,
    /// Emission period in slots.
    pub period: u64,
}

/// Draws a random ordered pair of distinct nodes.
pub fn random_pair(n: usize, rng: &mut SmallRng) -> (usize, usize) {
    assert!(n >= 2);
    let src = rng.gen_range(0..n);
    let mut dst = rng.gen_range(0..n - 1);
    if dst >= src {
        dst += 1;
    }
    (src, dst)
}

/// Materializes the CBR flow set for a network of `n` nodes.
pub fn make_flows(cfg: &TrafficConfig, n: usize, rng: &mut SmallRng) -> Vec<Flow> {
    match *cfg {
        TrafficConfig::Cbr { flows, period } => (0..flows)
            .map(|_| {
                let (src, dst) = random_pair(n, rng);
                Flow {
                    src,
                    dst,
                    phase: rng.gen_range(0..period.get()),
                    period: period.get(),
                }
            })
            .collect(),
        TrafficConfig::Poisson { .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pair_is_distinct_and_uniform_ish() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            let (s, d) = random_pair(4, &mut rng);
            assert_ne!(s, d);
            counts[d] += 1;
        }
        for &c in &counts {
            assert!(c > 1500, "destination distribution skewed: {counts:?}");
        }
    }

    #[test]
    fn cbr_flow_materialization() {
        let mut rng = SmallRng::seed_from_u64(2);
        let period = NonZeroU64::new(10).unwrap();
        let flows = make_flows(&TrafficConfig::Cbr { flows: 5, period }, 8, &mut rng);
        assert_eq!(flows.len(), 5);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.phase < 10);
            assert_eq!(f.period, 10);
        }
    }

    #[test]
    fn poisson_has_no_static_flows() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(make_flows(&TrafficConfig::Poisson { rate: 0.2 }, 8, &mut rng).is_empty());
    }
}
