//! PHY layer: precomputed coverage under the disk interference model.
//! SINR-threshold reception is a refinement on top of it and lives in
//! `rim-phys` (`SinrTable`).

use rim_core::receiver::build_index;
use rim_udg::Topology;

/// Precomputed coverage relations of a topology.
///
/// `coverers[v]` lists the nodes `u != v` with `|uv| <= r_u` — the
/// potential destroyers of a reception at `v`; by Definition 3.1,
/// `coverers[v].len() == I(v)`.
#[derive(Debug, Clone)]
pub struct Coverage {
    /// For each receiver, the nodes whose disks cover it.
    pub coverers: Vec<Vec<u32>>,
}

impl Coverage {
    /// Builds the coverage relation for a topology.
    ///
    /// One closed-disk query per transmitter over the shared interference
    /// index (same predicate as the batch kernels, `|uv| <= r_u` at
    /// distance level), so construction is output-sensitive instead of
    /// `O(n²)`. Each `coverers[v]` comes out in ascending order, because
    /// senders are scattered in ascending `u`.
    pub fn of(t: &Topology) -> Self {
        let n = t.num_nodes();
        let nodes = t.nodes();
        let index = build_index(nodes.points(), t.radii().iter().copied());
        let mut coverers = vec![Vec::new(); n];
        for u in 0..n {
            if t.graph().degree(u) == 0 {
                continue; // never transmits
            }
            index.for_each_in_disk(nodes.pos(u), t.radius(u), |v| {
                if v != u {
                    coverers[v].push(u as u32);
                }
            });
        }
        Coverage { coverers }
    }

    /// The receiver-centric interference `I(v)` — the number of potential
    /// collision sources at `v`.
    pub fn interference_at(&self, v: usize) -> usize {
        self.coverers[v].len()
    }

    /// Decides whether a frame `u → v` transmitted in a slot is received,
    /// given the set of nodes transmitting in that slot (`is_tx`).
    ///
    /// Reception fails iff `v` itself transmits (half duplex) or any
    /// covering node other than `u` transmits.
    pub fn received(&self, u: usize, v: usize, is_tx: &[bool]) -> bool {
        if is_tx[v] {
            return false;
        }
        !self.coverers[v]
            .iter()
            .any(|&w| w as usize != u && is_tx[w as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_core::receiver::interference_vector;
    use rim_udg::NodeSet;

    fn chain() -> Topology {
        Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        )
    }

    #[test]
    fn coverage_counts_equal_interference_vector() {
        let t = chain();
        let cov = Coverage::of(&t);
        let iv = interference_vector(&t);
        for v in 0..t.num_nodes() {
            assert_eq!(cov.interference_at(v), iv[v], "v={v}");
        }
    }

    #[test]
    fn coverers_are_the_ascending_senders_whose_disks_cover() {
        let t = chain();
        let cov = Coverage::of(&t);
        for v in 0..t.num_nodes() {
            let want: Vec<u32> = (0..t.num_nodes())
                .filter(|&u| u != v && t.graph().degree(u) > 0)
                .filter(|&u| t.nodes().dist(u, v) <= t.radius(u))
                .map(|u| u as u32)
                .collect();
            assert_eq!(cov.coverers[v], want, "v={v}");
        }
    }

    #[test]
    fn lone_transmission_is_received() {
        let t = chain();
        let cov = Coverage::of(&t);
        let mut tx = vec![false; 4];
        tx[0] = true;
        assert!(cov.received(0, 1, &tx));
    }

    #[test]
    fn covering_transmitter_destroys_reception() {
        let t = chain();
        let cov = Coverage::of(&t);
        // Node 2's disk (radius 0.3) covers node 1; concurrent tx 0→1 and
        // 2→3 collide at node 1.
        let mut tx = vec![false; 4];
        tx[0] = true;
        tx[2] = true;
        assert!(!cov.received(0, 1, &tx));
        // …while the reception at node 3 succeeds (node 0's disk of
        // radius 0.3 does not reach it, node 1 is silent).
        assert!(cov.received(2, 3, &tx));
    }

    #[test]
    fn half_duplex_receiver_cannot_listen() {
        let t = chain();
        let cov = Coverage::of(&t);
        let mut tx = vec![false; 4];
        tx[0] = true;
        tx[1] = true;
        assert!(!cov.received(0, 1, &tx));
    }

    #[test]
    fn sinr_reception_agrees_with_boolean_reception_on_the_chain() {
        // In the disk limit (β = 1, noise ≈ 0) SINR reception over a
        // uniform chain reduces to the boolean rule: a frame u → v on a
        // link survives iff no other coverer of v transmits. Check every
        // transmit pattern of the four nodes, for every link, both ways.
        use rim_phys::{PhysModel, SinrTable};
        let t = chain();
        let m = PhysModel::disk_equivalent(&t);
        let disk = Coverage::of(&t);
        let table = SinrTable::of(&m);
        let links = [(0usize, 1usize), (1, 2), (2, 3)];
        for pattern in 0u32..16 {
            let is_tx: Vec<bool> = (0..4).map(|i| pattern & (1 << i) != 0).collect();
            for &(a, b) in &links {
                for (u, v) in [(a, b), (b, a)] {
                    assert_eq!(
                        table.received(&m, u, v, &is_tx),
                        disk.received(u, v, &is_tx),
                        "link {u}->{v} under pattern {pattern:04b}"
                    );
                }
            }
        }
    }
}
